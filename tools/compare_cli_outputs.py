"""Compare the CLI outputs of two source trees.

    python tools/compare_cli_outputs.py --ref <reference src dir>

Runs `free-energy`, `ground-state`, `tap-scan` and `multisamp` on six fixed
configs with the `multispin` package of each tree (the reference and this
repository's `src/`), and reports the `out_dir` files, stdout and exit codes
that differ.  One config is a corner model of six one-coordinate species
with fewer restarts than sign patterns, where the shell ground state must
be enumerated.  Runs `verify` on the same configs
and on 60 (model, master seed, mutation) combinations, and reports any
difference in the exit code, the check names, their order or their `passed`
flags; `detail` strings (Monte Carlo estimates and roundoff-level deviations)
are only counted, per check.  Last, it compares the reprs of library values
that no command reaches: `multi_replica_fe` and `restricted_fe` on the
benchmark's band_replica shape, the corner enumerations of coupled-replica
free energies and penalties, `exact_fe_quadrature`, and every move kind of
the tempering engine (coupled replicas with synchronized sign flips,
one- and four-chain `pt_sampler`, `multisamplability_records` and
`replica_symmetry_diagnostic`), four-chain `pt_sampler` and two-replica
`multi_replica_fe` on a (3, 1, 3) layout, whose two 3-blocks are separate
runs of equal-size blocks, and checkpoint round trips: instance
energies after `save_instance` and `load_instance`, with and without an
external field, and configuration coordinates and layout after
`save_configuration` and `load_configuration`.  For each differing output
file, stdout or library value it prints how many numbers differ and the
largest relative difference between corresponding numbers, with its line
and both values, or that the texts differ in more than their numbers.  Uses the standard library
only.  Exit code 0 when nothing but `detail` strings differs, else 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("verify", "free-energy", "ground-state", "tap-scan", "multisamp")
VERIFY_SEEDS = (0, 7, 11, 123, 999)
MUTATIONS = (None, "shifted-coefficients")


def _model(sizes, terms):
    return {"species": list("abcdef"[:len(sizes)]), "sizes": list(sizes),
            "terms": [{"p": list(p), "delta_sq": c} for p, c in terms]}


def _betas(k):
    return [i / (k - 1) for i in range(k)]


# small sections for the configs that do not exercise them
_SMALL = {
    "free_energy": {"beta_grid": _betas(6), "sweeps": 60, "seeds": 3},
    "ground_state": {"q": [0.4, 0.6], "restarts": 2, "max_iters": 50, "seeds": 3},
    "tap_scan": {"q_grid": [[0.2, 0.3]], "beta_grid": _betas(6), "sweeps": 60,
                 "seeds": 2, "restarts": 2, "max_iters": 50},
    "multisamp": {"q": [0.0, 0.0], "eps_grid": [0.6, 0.3], "beta_grid": _betas(4),
                  "sweeps": 60, "seeds": 2},
}

CONFIGS = {
    # the corner model of tests/test_cli.py
    "corner": {
        "master_seed": 11,
        "model": _model((1, 1), [((1, 1), 0.8), ((2, 0), 0.3)]),
        "free_energy": {"seeds": 5},
        "ground_state": {"q": [0.4, 0.6], "seeds": 5},
        "tap_scan": {"q_grid": [[0.0, 0.0], [0.3, 0.3]], "seeds": 5},
        "multisamp": {"q": [0.0, 0.0], "eps_grid": [0.6], "sweeps": 150, "seeds": 2},
    },
    # blocks over size 3: method auto resolves to thermodynamic integration
    "ti-4+5": {
        "master_seed": 5,
        "model": _model((4, 5), [((1, 1), 0.8), ((2, 0), 0.3)]),
        **_SMALL,
    },
    "ground-state-6+6": {
        "master_seed": 8501,
        "model": _model((6, 6), [((2, 1), 1.0), ((1, 2), 1.0), ((1, 1), 1.0)]),
        **_SMALL,
        "ground_state": {"q": [0.5, 0.5], "restarts": 4, "max_iters": 200, "seeds": 3},
    },
    # six one-coordinate species: the 64 sign patterns of each shell outnumber
    # the 2 restarts, so ground-state and tap-scan must enumerate them
    "corner-6": {
        "master_seed": 3,
        "model": _model((1,) * 6, [((1, 1, 0, 0, 0, 0), 0.8), ((0, 1, 1, 0, 0, 0), 0.6),
                                   ((0, 0, 1, 1, 0, 0), 0.7), ((0, 0, 0, 1, 1, 0), 0.5),
                                   ((0, 0, 0, 0, 1, 1), 0.9), ((1, 0, 0, 0, 0, 1), 0.4),
                                   ((1, 0, 1, 0, 1, 0), 0.3)]),
        "free_energy": {"seeds": 3},
        "ground_state": {"q": [0.5] * 6, "restarts": 2, "seeds": 4},
        "tap_scan": {"q_grid": [[0.0] * 6, [0.5] * 6], "seeds": 3, "restarts": 2},
        "multisamp": {"q": [0.0] * 6, "eps_grid": [0.6], "beta_grid": _betas(4),
                      "sweeps": 60, "seeds": 2},
    },
    # one species: its blocks are the seeded per-tuple draws themselves
    "one-species-12": {
        "master_seed": 21,
        "model": _model((12,), [((2,), 0.7), ((3,), 0.4)]),
        "free_energy": {"beta_grid": _betas(6), "sweeps": 60, "seeds": 3},
        "ground_state": {"q": [0.5], "restarts": 2, "max_iters": 50, "seeds": 3},
        "tap_scan": {"q_grid": [[0.3]], "beta_grid": _betas(6), "sweeps": 60,
                     "seeds": 2, "restarts": 2, "max_iters": 50},
        "multisamp": {"q": [0.0], "eps_grid": [0.6, 0.3], "beta_grid": _betas(4),
                      "sweeps": 60, "seeds": 2},
    },
    # one full-size unit of the benchmark's tap_scan workload
    "tap-scan-8+8": {
        "master_seed": 7601,
        "model": _model((8, 8), [((1, 1), 1.0)]),
        **_SMALL,
        "tap_scan": {"method": "ti", "q_grid": [[0.3, 0.5], [0.45, 0.25]],
                     "beta_grid": _betas(11), "sweeps": 400, "seeds": 6,
                     "restarts": 6, "max_iters": 200},
    },
}

# runs in a child interpreter with one tree on its path: every verify run
# listed on stdin, in process, printing a JSON list of {"code", "report"}
_VERIFY_DRIVER = """
import contextlib, io, json, sys
from multispin.cli import main
runs = json.load(sys.stdin)
reports = []
for config, seed, mutation, out in runs:
    argv = ["verify", "--config", config, "--seed", str(seed), "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + (["--mutate", mutation] if mutation else []))
    with open(out + "/verify_report.json") as fh:
        reports.append({"code": code, "report": json.load(fh)})
json.dump(reports, sys.stdout)
"""


# runs in a child interpreter with one tree on its path: library values no
# command reaches, printed as a JSON list of [label, repr of the value]
_LIBRARY_PROGRAM = """
import json, sys, tempfile
import numpy as np
from multispin.geometry import (BandSpec, Configuration, load_configuration, sample_on_shell,
                                sample_uniform_batch, save_configuration)
from multispin.hamiltonian import (attach_external_field, build_instance, energy_many,
                                   load_instance, save_instance)
from multispin.mixture import Mixture, SpeciesLayout, xi_q
from multispin.tap import EstimatorConfig, replica_symmetry_diagnostic
from multispin.thermo import (exact_fe_quadrature, exact_multi_replica_fe_enumeration,
                              exact_penalty_enumeration, multi_replica_fe,
                              multisamplability_records, pt_sampler, restricted_fe)
values = []

def record(label, fn, *args):
    try:
        est = fn(*args)
    except ValueError as exc:
        values.append([label, repr(exc)])
        return
    fields = (est.value, est.std_error, est.meta) if hasattr(est, "meta") else est
    values.append([label, repr(fields)])

# the band_replica benchmark shape, full and tiny
band_xi = Mixture.from_terms({(1, 1): 0.7, (2, 0): 0.4})
for sizes, betas, sweeps in (((8, 8), 11, 600), ((3, 3), 3, 10)):
    layout = SpeciesLayout(("a", "b"), sizes)
    grid = np.linspace(0.0, 1.0, betas)
    for seed in range(8):
        h = build_instance(band_xi, layout, seed=seed)
        m = sample_on_shell(layout, (0.3, 0.3), np.random.default_rng([seed, 0]))
        for n in (1, 2):
            record(f"multi_replica_fe {sizes} seed {seed} n {n}", multi_replica_fe, h,
                   BandSpec(m, 0.15, n=n, rho=0.15), grid, sweeps,
                   np.random.default_rng([seed, n]))
        record(f"restricted_fe {sizes} seed {seed}", restricted_fe, h, m, 0.15, grid,
               sweeps, np.random.default_rng([seed, 3]))

# a 3-species corner: every block is {-1, +1}
corner = SpeciesLayout(("a", "b", "c"), (1, 1, 1))
corner_xi = Mixture.from_terms({(1, 1, 0): 0.8, (0, 1, 1): 0.5, (2, 0, 1): 0.3,
                                (1, 1, 1): 0.4})
for seed in range(4):
    h = build_instance(corner_xi, corner, seed=seed)
    center = np.random.default_rng([seed, 4]).uniform(-1.0, 1.0, 3)
    m = Configuration(center, corner)
    for delta in (0.3, 0.9, 1.5):
        for rho in (0.5, 1.3, 2.1):
            for n in (1, 2, 3):
                spec = BandSpec(m, delta, n=n, rho=rho)
                where = f"corner seed {seed} delta {delta} rho {rho} n {n}"
                record(f"enumeration {where}", exact_multi_replica_fe_enumeration, h, spec)
                record(f"penalty {where}", exact_penalty_enumeration, h, spec)

quad_xi = Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.3, (1, 2): 0.5})
for sizes, node_counts in (((2, 2), (8, 40, 300)), ((1, 3), (8, 40, 200))):
    layout = SpeciesLayout(("a", "b"), sizes)
    for seed in range(3):
        h = build_instance(quad_xi, layout, seed=seed)
        for nodes in node_counts:
            record(f"quadrature {sizes} seed {seed} nodes {nodes}", exact_fe_quadrature,
                   h, nodes)

# every move kind of the tempering engine: coupled replicas on layouts with
# single-coordinate blocks also make synchronized sign flips
pair_xi = Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.3})
for sizes, xi in (((1, 1), pair_xi), ((1, 4), quad_xi), ((1, 1, 1), corner_xi)):
    layout = SpeciesLayout(("a", "b", "c")[:len(sizes)], sizes)
    for seed in range(2):
        h = build_instance(xi, layout, seed=seed)
        m = sample_on_shell(layout, (0.3,) * len(sizes), np.random.default_rng([seed, 5]))
        for n in (2, 3):
            record(f"multi_replica_fe {sizes} seed {seed} n {n}", multi_replica_fe, h,
                   BandSpec(m, 0.9, n=n, rho=1.3), np.linspace(0.0, 1.0, 6), 60,
                   np.random.default_rng([seed, n, 5]))

# a layout whose blocks of one size make two runs, split by a one-coordinate block
split = SpeciesLayout(("a", "b", "c"), (3, 1, 3))
for seed in range(2):
    h = build_instance(corner_xi, split, seed=seed)
    run = pt_sampler(h, [0.0, 0.4, 0.7, 1.0], 60, np.random.default_rng([seed, 6]))
    values.append([f"pt_sampler (3, 1, 3) seed {seed}", repr((
        run.series.tolist(), run.snapshots.tolist(), run.accept_rates.tolist(),
        run.swap_rates.tolist(), run.step_sizes.tolist(), run.flags))])
    m = sample_on_shell(split, (0.3, 0.3, 0.3), np.random.default_rng([seed, 7]))
    record(f"multi_replica_fe (3, 1, 3) seed {seed} n 2", multi_replica_fe, h,
           BandSpec(m, 0.9, n=2, rho=1.25), np.linspace(0.0, 1.0, 6), 60,
           np.random.default_rng([seed, 2, 7]))

# single-replica moves and chain swaps, on one and on four chains
h = build_instance(quad_xi, SpeciesLayout(("a", "b"), (1, 3)), seed=4)
for grid in ([0.0], [0.0, 0.4, 0.7, 1.0]):
    run = pt_sampler(h, grid, 60, np.random.default_rng(6))
    values.append([f"pt_sampler {len(grid)} chains", repr((
        run.series.tolist(), run.snapshots.tolist(), run.accept_rates.tolist(),
        run.swap_rates.tolist(), run.swap_rates.shape, run.flags))])
record("multisamplability_records n 3", multisamplability_records, h, (0.0, 0.0), 3,
       (0.3, 0.8, 2.5), [0.0, 0.5, 1.0], 60, np.random.default_rng(7))
record("replica_symmetry_diagnostic n 3", replica_symmetry_diagnostic, h, 3, 0.5,
       EstimatorConfig(beta_grid=(0.0, 0.5, 1.0), sweeps=60, master_seed=8))

# checkpoint round trips: instance energies after save and load, with and
# without a field, and configuration coordinates (and layout) after save and load
with tempfile.TemporaryDirectory() as tmp:
    layout = SpeciesLayout(("a", "b"), (3, 4))
    rows = sample_uniform_batch(layout, 4, np.random.default_rng(9))
    for seed in range(2):
        hq = build_instance(xi_q(quad_xi, (0.3, 0.2)), layout, seed=seed)
        h = attach_external_field(hq, (0.3, 0.2), seed + 10)
        for label, h in (("plain", hq), ("field", h)):
            save_instance(h, tmp + "/instance.json")
            back = load_instance(tmp + "/instance.json")
            values.append([f"instance checkpoint {label} seed {seed}",
                           repr(energy_many(back, rows).tolist())])
    save_configuration(Configuration(rows[0], layout), tmp + "/sigma.bin")
    back = load_configuration(tmp + "/sigma.bin")
    values.append(["configuration checkpoint", repr((
        back.coords.tolist(), back.layout.species, back.layout.sizes, back.layout.proportions))])
json.dump(values, sys.stdout)
"""


# a decimal number, or a non-finite float as json and repr write them
_NUMBER = re.compile(r"([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|Infinity|inf)|NaN|nan)")


def _deviation(a: str, b: str) -> str:
    """How two differing texts differ: when only their numbers do, the count
    of differing numbers and the largest relative difference, with its line
    and both values; else that the difference is not numeric."""
    pa, pb = _NUMBER.split(a), _NUMBER.split(b)
    if len(pa) != len(pb) or pa[::2] != pb[::2]:
        return "not numeric (the texts differ outside their numbers)"
    count, worst, where, line = 0, -1.0, "", 1
    for k in range(1, len(pa), 2):
        line += pa[k - 1].count("\n")
        if pa[k] == pb[k]:
            continue
        count += 1
        x, y = float(pa[k]), float(pb[k])
        if x == y:  # the same value written two ways, such as 0.0 and -0.0
            rel = 0.0
        elif math.isfinite(x) and math.isfinite(y):
            rel = abs(x - y) / max(abs(x), abs(y))
        else:
            rel = math.inf
        if rel > worst:
            worst, where = rel, f"line {line}: {pa[k]} vs {pb[k]}"
    return (f"{count} of {len(pa) // 2} numbers, largest relative difference "
            f"{worst:.1e} at {where}")


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return env


def _run_command(src: Path, command: str, config: Path, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "multispin", command, "--config", str(config),
         "--out", str(out)],
        env=_env(src), capture_output=True, text=True, check=False)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return {"code": proc.returncode, "stdout": proc.stdout, "files": files}


def _verify_diffs(where: str, a: dict, b: dict, detail_counts: dict) -> list[str]:
    """Differences between two verify runs ({"code", "report"}) beyond their
    detail strings, which are counted per check in detail_counts."""
    if a["report"] is None or b["report"] is None:
        return [] if a == b else [f"{where}: exit {a['code']} vs {b['code']}, no report"]
    ca, cb = a["report"]["checks"], b["report"]["checks"]
    diffs = []
    if a["code"] != b["code"] or a["report"]["passed"] != b["report"]["passed"]:
        diffs.append(f"{where}: exit/passed {a['code']} vs {b['code']}")
    if [c["name"] for c in ca] != [c["name"] for c in cb]:
        return diffs + [f"{where}: check names or order differ"]
    for x, y in zip(ca, cb):
        if x["passed"] != y["passed"]:
            diffs.append(f"{where}: {x['name']} passed {x['passed']} vs {y['passed']}")
        if x["detail"] != y["detail"]:
            detail_counts[x["name"]] = detail_counts.get(x["name"], 0) + 1
    return diffs


def compare_commands(ref: Path, src: Path, tmp: Path, detail_counts: dict) -> list[str]:
    diffs = []
    for name, doc in CONFIGS.items():
        config = tmp / f"{name}.json"
        config.write_text(json.dumps({"schema": 1, **doc}))
        for command in COMMANDS:
            a = _run_command(ref, command, config, tmp / "ref" / name / command)
            b = _run_command(src, command, config, tmp / "src" / name / command)
            where = f"{name} {command}"
            print(f"  {where}: exit {a['code']} / {b['code']}", flush=True)
            if command == "verify":
                diffs += _verify_diffs(where, *(
                    {"code": r["code"],
                     "report": json.loads(r["files"].get("verify_report.json", b"null"))}
                    for r in (a, b)), detail_counts)
                continue
            if a["code"] != b["code"]:
                diffs.append(f"{where}: exit code {a['code']} vs {b['code']}")
            if a["stdout"] != b["stdout"]:
                diffs.append(f"{where}: stdout differs: {_deviation(a['stdout'], b['stdout'])}")
            for fname in sorted(set(a["files"]) | set(b["files"])):
                fa, fb = (r["files"].get(fname) for r in (a, b))
                if fa is None or fb is None:
                    diffs.append(f"{where}: {fname} is written by one tree only")
                elif fa != fb:
                    diffs.append(f"{where}: {fname} differs: "
                                 f"{_deviation(fa.decode(), fb.decode())}")
    return diffs


def _verify_reports(src: Path, runs: list) -> list:
    proc = subprocess.run([sys.executable, "-c", _VERIFY_DRIVER], input=json.dumps(runs),
                          env=_env(src), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def compare_verify(ref: Path, src: Path, tmp: Path,
                   detail_counts: dict) -> tuple[list[str], int]:
    runs = {"ref": [], "src": []}
    labels = []
    for name, doc in CONFIGS.items():
        config = tmp / f"verify-{name}.json"
        config.write_text(json.dumps({"schema": 1, "model": doc["model"]}))
        for seed in VERIFY_SEEDS:
            for mutation in MUTATIONS:
                labels.append(f"{name} seed {seed} mutation {mutation}")
                for side in runs:
                    out = tmp / f"verify-{side}-{len(labels)}"
                    runs[side].append([str(config), seed, mutation, str(out)])
    ref_reports = _verify_reports(ref, runs["ref"])
    src_reports = _verify_reports(src, runs["src"])
    diffs = []
    for label, a, b in zip(labels, ref_reports, src_reports):
        diffs += _verify_diffs(f"verify {label}", a, b, detail_counts)
    return diffs, len(labels)


def compare_library(ref: Path, src: Path) -> tuple[list[str], int]:
    ref_values, src_values = (json.loads(subprocess.run(
        [sys.executable, "-c", _LIBRARY_PROGRAM], env=_env(tree), capture_output=True,
        text=True, check=True).stdout) for tree in (ref, src))
    if [label for label, _ in ref_values] != [label for label, _ in src_values]:
        return ["library: value labels differ"], len(ref_values)
    return ([f"library {label}: {_deviation(a, b)}"
             for (label, a), (_, b) in zip(ref_values, src_values) if a != b],
            len(ref_values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", required=True, type=Path,
                        help="src directory of the reference tree")
    args = parser.parse_args(argv)
    ref, src = args.ref.resolve(), Path(__file__).resolve().parents[1] / "src"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        print(f"commands: {ref} vs {src}", flush=True)
        detail_counts = {}
        command_diffs = compare_commands(ref, src, tmp, detail_counts)
        verify_diffs, n_runs = compare_verify(ref, src, tmp, detail_counts)
    library_diffs, n_values = compare_library(ref, src)
    for line in command_diffs + verify_diffs + library_diffs:
        print(f"DIFF {line}")
    print(f"commands: {len(command_diffs)} differences over "
          f"{len(CONFIGS) * len(COMMANDS)} runs")
    print(f"verify: {len(verify_diffs)} exit/name/flag differences over {n_runs} runs")
    for name, count in sorted(detail_counts.items()):
        print(f"  detail differs: {name} in {count} of {n_runs + len(CONFIGS)} verify runs")
    print(f"library: {len(library_diffs)} differences over {n_values} values")
    return 0 if not command_diffs and not verify_diffs and not library_diffs else 1


if __name__ == "__main__":
    sys.exit(main())
