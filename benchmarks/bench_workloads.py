"""The benchmark's workloads, their inputs, their output checks and the
exact-oracle gate.

A workload runs in units.  One unit is one pass of the workload's pipeline
on inputs generated from (workload, seed, unit index); the program receives
only those generated inputs.  Every call into the package goes through
`call(name, fn, *args)`, which is `direct` for timed runs and a tracer's
`call` for traced runs.

Why each workload is here:

- tap_scan: the CLI `tap-scan` command, run in-process with two workers.
  Its time goes to the tempering loop in `thermo` and a small-N ascent; it
  is the one workload that fans out over the CLI's thread pool.
- band_replica: `multi_replica_fe` on the criterion-7 shape.  It is the only
  workload that draws from bands and tests pairwise-overlap constraints.
- shell_ascent: the CLI `ground-state` command at one worker on dense
  48-coordinate tensors; time goes to `hamiltonian.gradient`, and neither
  tempering nor band code runs.
- disorder_churn: build, checkpoint, reload (which redraws the disorder)
  and batch energies of a model with 5.3 M entries per term.  Building
  dominates, so a disorder layout that reads faster but builds slower or
  holds more shows here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from multispin import cli, geometry, ground_state, hamiltonian, mixture, tap, thermo
from multispin.geometry import BandSpec
from multispin.mixture import Mixture, SpeciesLayout

MODULES = (cli, tap, thermo, geometry, hamiltonian, ground_state, mixture)
WORKLOADS = ("tap_scan", "band_replica", "shell_ascent", "disorder_churn")

# Sizes per workload.  "tiny" keeps every code path at the smallest sizes;
# band_replica still takes seconds there, because multi_replica_fe always
# makes 4000 pairwise trials.
SIZES = {
    "tap_scan": {
        "full": dict(sizes=(8, 8), betas=11, sweeps=400, seeds=6, restarts=6,
                     max_iters=200, overlaps=2, workers=2),
        "tiny": dict(sizes=(2, 2), betas=3, sweeps=10, seeds=2, restarts=1,
                     max_iters=5, overlaps=2, workers=2),
    },
    "band_replica": {
        "full": dict(sizes=(8, 8), betas=11, sweeps=600),
        "tiny": dict(sizes=(3, 3), betas=3, sweeps=10),
    },
    "shell_ascent": {
        "full": dict(sizes=(24, 24), restarts=4, max_iters=200, seeds=4),
        "tiny": dict(sizes=(3, 3), restarts=1, max_iters=5, seeds=2),
    },
    "disorder_churn": {
        "full": dict(sizes=(24, 24), rows=16),
        "tiny": dict(sizes=(3, 3), rows=16),
    },
}

TERMS = {
    "tap_scan": {(1, 1): 1.0},
    "band_replica": {(1, 1): 0.7, (2, 0): 0.4},
    "shell_ascent": {(2, 1): 1.0, (1, 2): 1.0, (1, 1): 1.0},
    "disorder_churn": {(2, 2): 1.0, (3, 1): 1.0},
}

BAND_Q, BAND_DELTA, BAND_RHO, BAND_REPLICAS = (0.3, 0.3), 0.15, 0.15, 2
SHELL_Q = (0.5, 0.5)
CORNER = SpeciesLayout(("a", "b"), (1, 1))
CORNER_XI = Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.3})

# exact-oracle tolerances
ENUM_QUAD_TOL = 1e-9
EIGEN_REL_TOL = 1e-6
BATCH_REL_TOL = 1e-10
# The ascent must converge for the eigen-oracle comparison to be exact;
# 2000 iterations leave the worst of 150 checked seeds at 1e-10 relative.
EIGEN_N, EIGEN_Q, EIGEN_RESTARTS, EIGEN_ITERS = 32, 0.9, 4, 2000


def direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@dataclass
class Outcome:
    """What one unit consumed and how its operations went."""

    instances: int = 0
    ops: list = field(default_factory=list)  # (name, ok, detail)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.ops.append((name, bool(ok), detail))


def _seed_from(*key) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def model(workload: str, tiny: bool) -> tuple[Mixture, SpeciesLayout]:
    sizes = SIZES[workload]["tiny" if tiny else "full"]["sizes"]
    return (Mixture.from_terms(TERMS[workload]),
            SpeciesLayout(("a", "b"), tuple(sizes)))


def _model_doc(workload: str, tiny: bool) -> dict:
    sizes = SIZES[workload]["tiny" if tiny else "full"]["sizes"]
    return {"species": ["a", "b"], "sizes": list(sizes),
            "terms": [{"p": list(p), "delta_sq": c} for p, c in TERMS[workload].items()]}


def make_inputs(workload: str, seed: int, unit: int, tiny: bool) -> dict:
    """Inputs of one unit; the same (workload, seed, unit) gives the same inputs."""
    p = SIZES[workload]["tiny" if tiny else "full"]
    rng = np.random.default_rng([seed, unit, WORKLOADS.index(workload)])
    inputs = {"workload": workload, "tiny": tiny, "params": p}
    if workload == "tap_scan":
        inputs["config"] = {
            "schema": 1,
            "master_seed": int(rng.integers(2**31)),
            "model": _model_doc(workload, tiny),
            "tap_scan": {
                "method": "ti",
                "q_grid": [[float(x) for x in rng.uniform(0.2, 0.6, 2)]
                           for _ in range(p["overlaps"])],
                "beta_grid": [float(b) for b in np.linspace(0.0, 1.0, p["betas"])],
                "sweeps": p["sweeps"], "seeds": p["seeds"],
                "restarts": p["restarts"], "max_iters": p["max_iters"],
            },
        }
        # tap_evaluate builds `seeds` instances for each of lhs, gs and fq
        inputs["instances"] = p["overlaps"] * 3 * p["seeds"]
    elif workload == "shell_ascent":
        inputs["config"] = {
            "schema": 1,
            "master_seed": int(rng.integers(2**31)),
            "model": _model_doc(workload, tiny),
            "ground_state": {"q": list(SHELL_Q), "restarts": p["restarts"],
                             "max_iters": p["max_iters"], "seeds": p["seeds"]},
        }
        inputs["instances"] = p["seeds"]
    else:
        inputs["instance_seed"] = int(rng.integers(2**31))
        inputs["mc_seed"] = int(rng.integers(2**31))
        _, layout = model(workload, tiny)
        if workload == "band_replica":
            inputs["center"] = geometry.sample_on_shell(layout, BAND_Q, rng).coords
        else:
            inputs["rows"] = np.array([geometry.sample_uniform(layout, rng).coords
                                       for _ in range(p["rows"])])
        inputs["instances"] = 1
    return inputs


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity."""
    def refuse(token):
        raise ValueError(f"non-finite JSON number {token}")
    return json.loads(text, parse_constant=refuse)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _run_cli(call, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return call("cli.main", cli.main, argv)


def run_unit(inputs: dict, workdir: Path, call=direct) -> Outcome:
    """One pass of the workload's pipeline, with its output checks."""
    workload = inputs["workload"]
    out = Outcome(instances=inputs["instances"])
    try:
        if workload in ("tap_scan", "shell_ascent"):
            _cli_unit(inputs, workdir, call, out)
        elif workload == "band_replica":
            _band_unit(inputs, call, out)
        else:
            _churn_unit(inputs, workdir, call, out)
    except Exception as exc:  # noqa: BLE001 - a raising pipeline is a failed operation
        out.check(f"{workload} unit", False, f"{type(exc).__name__}: {exc}")
    return out


def _cli_unit(inputs, workdir: Path, call, out: Outcome) -> None:
    workload = inputs["workload"]
    command, stem = (("tap-scan", "tap_scan") if workload == "tap_scan"
                     else ("ground-state", "ground_state"))
    config = workdir / "config.json"
    config.write_text(json.dumps(inputs["config"]))
    out_dir = workdir / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    workers = inputs["params"].get("workers", 1)
    code = _run_cli(call, [command, "--config", str(config), "--out", str(out_dir),
                           "--workers", str(workers)])
    out.check(f"{command} exit code", code == 0, f"exit {code}")
    try:
        doc = strict_json((out_dir / f"{stem}.json").read_text())
    except (OSError, ValueError) as exc:
        out.check(f"{stem}.json strict parse", False, str(exc))
        return
    out.check(f"{stem}.json strict parse", True)
    if workload == "tap_scan":
        for rep in doc["reports"]:
            ok = _finite(rep["lhs"], rep["gs"], rep["logvol"], rep["fq"], rep["gap"],
                         rep["gap_std_error"])
            ok = ok and "tap-inequality-violated" not in rep["flags"]
            out.check("tap_scan overlap task", ok, f"q={rep['q']} flags={rep['flags']}")
    else:
        for value in doc["values"]:
            out.check("ground_state seed task", _finite(value), repr(value))


def _band_unit(inputs, call, out: Outcome) -> None:
    p = inputs["params"]
    xi, layout = model("band_replica", inputs["tiny"])
    h = call("hamiltonian.build_instance", hamiltonian.build_instance,
             xi, layout, seed=inputs["instance_seed"])
    spec = BandSpec(geometry.Configuration(inputs["center"], layout),
                    BAND_DELTA, n=BAND_REPLICAS, rho=BAND_RHO)
    est = call("thermo.multi_replica_fe", thermo.multi_replica_fe, h, spec,
               np.linspace(0.0, 1.0, p["betas"]), p["sweeps"],
               np.random.default_rng(inputs["mc_seed"]))
    out.check("multi_replica_fe seed task", _finite(est.value, est.std_error),
              f"{est.value!r} +- {est.std_error!r}")


def _churn_unit(inputs, workdir: Path, call, out: Outcome) -> None:
    xi, layout = model("disorder_churn", inputs["tiny"])
    rows = inputs["rows"]
    h = call("hamiltonian.build_instance", hamiltonian.build_instance,
             xi, layout, seed=inputs["instance_seed"])
    before = call("hamiltonian.energy_many", hamiltonian.energy_many, h, rows)
    path = workdir / "instance.json"
    call("hamiltonian.save_instance", hamiltonian.save_instance, h, path)
    del h  # the reload replaces the instance, as a restarted process would
    h = call("hamiltonian.load_instance", hamiltonian.load_instance, path)
    after = call("hamiltonian.energy_many", hamiltonian.energy_many, h, rows)
    ok = np.array_equal(before, after) and bool(np.all(np.isfinite(after)))
    out.check("reload energies bit-identical", ok,
              f"max deviation {float(np.max(np.abs(before - after))):.3e}")


# --- exact-oracle gate ------------------------------------------------------------


def _enumeration_vs_quadrature(workload, seed, tiny):
    h = hamiltonian.build_instance(CORNER_XI, CORNER, seed=_seed_from(seed, 1))
    gap = abs(thermo.exact_fe_enumeration(h).value - thermo.exact_fe_quadrature(h, 8).value)
    return gap <= ENUM_QUAD_TOL, f"gap {gap:.3e}"


def _ascent_vs_eigen_oracle(workload, seed, tiny):
    layout = SpeciesLayout(("s",), (EIGEN_N,))
    h = hamiltonian.build_instance(Mixture.from_terms({(2,): 1.0}), layout,
                                   seed=_seed_from(seed, 3))
    res = ground_state.ascend(h, [EIGEN_Q], EIGEN_RESTARTS, EIGEN_ITERS,
                              np.random.default_rng(_seed_from(seed, 4)))
    oracle = ground_state.eigen_oracle_2spin(h, [EIGEN_Q])
    rel = abs(res.energy_per_spin - oracle) / abs(oracle)
    return rel <= EIGEN_REL_TOL, f"relative {rel:.3e}"


def _batch_vs_single(workload, seed, tiny):
    xi, layout = model(workload, tiny)
    h = hamiltonian.build_instance(xi, layout, seed=_seed_from(seed, 5))
    rng = np.random.default_rng(_seed_from(seed, 6))
    rows = np.array([geometry.sample_uniform(layout, rng).coords for _ in range(16)])
    batch = hamiltonian.energy_many(h, rows)
    single = np.array([hamiltonian.energy(h, geometry.Configuration(r, layout)) for r in rows])
    worst = float(np.max(np.abs(batch - single) / np.maximum(1.0, np.abs(single))))
    return worst <= BATCH_REL_TOL, f"relative {worst:.3e}"


GATE = (
    ("enumeration vs quadrature", _enumeration_vs_quadrature),
    ("ascent vs eigen oracle", _ascent_vs_eigen_oracle),
    ("energy_many vs energy", _batch_vs_single),
)


def gate(workload: str, seed: int, tiny: bool, out: Outcome) -> dict:
    """Exact checks run once per benchmark run, after the measured units.

    Returns the health of a corner-scale TI run against enumeration; it is
    statistical, so it is reported but never fails the run.
    """
    for name, check in GATE:
        try:
            ok, detail = check(workload, seed, tiny)
        except Exception as exc:  # noqa: BLE001 - a raising check is a failed operation
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out.check(name, ok, detail)
    h = hamiltonian.build_instance(CORNER_XI, CORNER, seed=_seed_from(seed, 1))
    exact = thermo.exact_fe_enumeration(h).value
    ti = thermo.fe_thermo_integration(h, np.linspace(0.0, 1.0, 11), 400,
                                      np.random.default_rng(_seed_from(seed, 2)))
    return {
        "oracle_z": abs(ti.value - exact) / ti.std_error if ti.std_error > 0 else 0.0,
        "accept": min(ti.meta["accept_rates"]),
        "swap": min(ti.meta["swap_rates"]),
        "node_se": max(ti.meta["node_std_errors"]),
    }
