"""Config-driven experiment runner.

One JSON config describes the model (species, block sizes, mixture terms)
and the parameters of each batch command.  Subcommands run the estimator
pipelines and emit CSV + JSON files; `verify` runs the cross-module
invariant suite and reports machine-readable pass/fail results.  Every
random quantity is seeded from (master_seed, task path), and tasks run in
order in one process, so outputs are byte-identical for every --workers
value.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import tempfile
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import (
    BandSpec,
    Configuration,
    in_band,
    load_configuration,
    log_band_volume,
    sample_on_shell,
    sample_uniform,
    save_configuration,
    tilde_transform,
)
from .ground_state import ascend, ascend_many, eigen_oracle_2spin
from .hamiltonian import (
    DEFAULT_MEMORY_BUDGET,
    build_instance,
    disorder_entries,
    energy,
    energy_many,
    gradient,
    load_instance,
    save_instance,
)
from .mixture import (
    Mixture,
    SpeciesLayout,
    eval_mixture,
    log_volume_term,
    nesting_compose,
    shifted_coefficients,
    xi_q,
)
from .seeding import derive_seed
from .tap import (
    EstimatorConfig,
    _mean_se,
    candidate_multisamplable,
    fe_per_seed,
    instance_groups,
    resolve_fe_method,
    tap_evaluate,
    tap_inequality_scan,
)
from .thermo import (
    exact_fe_enumeration,
    exact_fe_quadrature,
    exact_multi_replica_fe_enumeration,
    exact_penalty_enumeration,
    exact_restricted_fe_enumeration,
    fe_thermo_integration,
    multisamplability_records,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "dump_config",
    "run_verification_suite",
    "main",
]

SCHEMA_VERSION = 1
MUTATIONS = ("shifted-coefficients",)


class ConfigError(ValueError):
    """Config validation failure with the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _expect_mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError(path, "expected a JSON object")
    return value


def _expect_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return value


def _expect_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(path, "expected a finite number")
    return x


def _expect_list(value, path, min_len=0):
    if not isinstance(value, list):
        raise ConfigError(path, "expected a list")
    if len(value) < min_len:
        raise ConfigError(path, f"needs at least {min_len} entries")
    return value


def _expect_shell_vector(value, path, layout):
    vals = _expect_list(value, path, min_len=1)
    if len(vals) != layout.n_species:
        raise ConfigError(path, f"expected {layout.n_species} per-species values")
    out = []
    for k, v in enumerate(vals):
        x = _expect_number(v, f"{path}[{k}]")
        if not 0.0 <= x < 1.0:
            raise ConfigError(f"{path}[{k}]", "must lie in [0, 1)")
        out.append(x)
    return tuple(out)


def _expect_beta_grid(value, path):
    vals = _expect_list(value, path, min_len=1)
    grid = tuple(_expect_number(v, f"{path}[{k}]") for k, v in enumerate(vals))
    if grid[0] != 0.0:
        raise ConfigError(f"{path}[0]", "beta grid must start at 0")
    if any(b >= a for a, b in zip(grid[1:], grid)):
        raise ConfigError(path, "beta grid must be strictly ascending")
    return grid


def _expect_q_grid(value, path, layout):
    points = _expect_list(value, path, min_len=1)
    return tuple(_expect_shell_vector(pt, f"{path}[{k}]", layout)
                 for k, pt in enumerate(points))


def _expect_eps_grid(value, path, layout):
    vals = _expect_list(value, path, min_len=1)
    grid = tuple(_expect_number(v, f"{path}[{k}]") for k, v in enumerate(vals))
    if any(e <= 0.0 for e in grid):
        raise ConfigError(path, "epsilons must be > 0")
    return grid


def _expect_method(value, path, layout):
    try:
        resolve_fe_method(value, layout)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None
    return value


def _expect_allowance(value, path, layout):
    x = _expect_number(value, path)
    if x < 0.0:
        raise ConfigError(path, "must be >= 0")
    return x


def _int_at_least(minimum):
    return lambda value, path, layout: _expect_int(value, path, minimum=minimum)


# field name -> validator(value, path, layout), for every section field
_VALIDATORS = {
    "method": _expect_method,
    "beta_grid": lambda value, path, layout: _expect_beta_grid(value, path),
    "sweeps": _int_at_least(1),
    "quadrature_nodes": _int_at_least(2),
    "seeds": _int_at_least(1),
    "restarts": _int_at_least(1),
    "max_iters": _int_at_least(1),
    "gs_bias_allowance": _expect_allowance,
    "q": _expect_shell_vector,
    "q_grid": _expect_q_grid,
    "n": _int_at_least(2),  # multisamp compares pairs of replicas
    "eps_grid": _expect_eps_grid,
}

# section -> (field names in output order, defaults that are not the
# EstimatorConfig field defaults).  Per-species defaults hold one overlap
# (q) or one overlap per grid point (q_grid), repeated for every species.
_SECTIONS = {
    "free_energy": (("method", "beta_grid", "sweeps", "quadrature_nodes", "seeds"), {}),
    "ground_state": (("q", "restarts", "max_iters", "seeds"), {"q": 0.3}),
    "tap_scan": (("q_grid", "method", "beta_grid", "sweeps", "quadrature_nodes", "seeds",
                  "restarts", "max_iters", "gs_bias_allowance"),
                 {"q_grid": (0.0, 0.3, 0.6)}),
    "multisamp": (("q", "n", "eps_grid", "beta_grid", "sweeps", "seeds"),
                  {"q": 0.0, "n": 2, "eps_grid": (0.5, 0.25), "sweeps": 600, "seeds": 5}),
}
_SECTION_TYPES = {name: namedtuple(name, fields) for name, (fields, _) in _SECTIONS.items()}
_ESTIMATOR_DEFAULTS = {f.name: f.default for f in dataclasses.fields(EstimatorConfig)}


def _default(section: str, name: str, n_species: int):
    value = _SECTIONS[section][1].get(name, _ESTIMATOR_DEFAULTS.get(name))
    if name == "q":
        return (value,) * n_species
    if name == "q_grid":
        return tuple((v,) * n_species for v in value)
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully materialized experiment description; serializes losslessly."""

    master_seed: int
    species: tuple[str, ...]
    sizes: tuple[int, ...]
    mixture: Mixture
    # each section is a named tuple of the fields _SECTIONS lists for it
    free_energy: tuple
    ground_state: tuple
    tap_scan: tuple
    multisamp: tuple
    out_dir: str = "out"

    @property
    def layout(self) -> SpeciesLayout:
        return SpeciesLayout(self.species, self.sizes)


def _required(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(path, "missing required field")
    return mapping[key]


def _parse_model(doc: dict) -> tuple[tuple[str, ...], tuple[int, ...], Mixture]:
    model = _expect_mapping(_required(doc, "model", "model"), "model")
    species_raw = _expect_list(_required(model, "species", "model.species"), "model.species",
                               min_len=1)
    species = []
    for k, name in enumerate(species_raw):
        if not isinstance(name, str) or not name:
            raise ConfigError(f"model.species[{k}]", "expected a non-empty string")
        species.append(name)
    if len(set(species)) != len(species):
        raise ConfigError("model.species", "species names must be unique")
    sizes_raw = _expect_list(_required(model, "sizes", "model.sizes"), "model.sizes", min_len=1)
    if len(sizes_raw) != len(species):
        raise ConfigError("model.sizes", "must match the number of species")
    sizes = tuple(_expect_int(v, f"model.sizes[{k}]", minimum=1)
                  for k, v in enumerate(sizes_raw))
    terms = {}
    for k, item in enumerate(_expect_list(_required(model, "terms", "model.terms"),
                                          "model.terms")):
        entry = _expect_mapping(item, f"model.terms[{k}]")
        path = f"model.terms[{k}]"
        p_raw = _expect_list(_required(entry, "p", f"{path}.p"), f"{path}.p", min_len=1)
        if len(p_raw) != len(species):
            raise ConfigError(f"{path}.p", f"expected {len(species)} per-species degrees")
        p = tuple(_expect_int(v, f"{path}.p[{j}]", minimum=0) for j, v in enumerate(p_raw))
        if sum(p) < 1:
            raise ConfigError(f"{path}.p", "total degree must be >= 1")
        coeff = _expect_number(_required(entry, "delta_sq", f"{path}.delta_sq"),
                               f"{path}.delta_sq")
        if coeff <= 0.0:
            raise ConfigError(f"{path}.delta_sq", "must be > 0")
        if p in terms:
            raise ConfigError(f"{path}.p", "duplicate multi-degree")
        terms[p] = coeff
    mixture = Mixture.from_terms(terms, n_species=len(species))
    _check_budget(mixture, SpeciesLayout(tuple(species), sizes), "model")
    return tuple(species), sizes, mixture


def _check_budget(mixture: Mixture, layout: SpeciesLayout, path: str) -> None:
    entries = disorder_entries(mixture, layout)
    if entries > DEFAULT_MEMORY_BUDGET:
        raise ConfigError(path, f"disorder needs {entries} dense entries, "
                                f"over the budget of {DEFAULT_MEMORY_BUDGET}")


def _parse_section(doc: dict, name: str, layout: SpeciesLayout):
    section = _expect_mapping(doc.get(name, {}), name)
    fields = _SECTIONS[name][0]
    for key in section:
        if key not in fields:
            raise ConfigError(f"{name}.{key}", "unknown field")
    values = {f: _VALIDATORS[f](section[f], f"{name}.{f}", layout) if f in section
              else _default(name, f, layout.n_species) for f in fields}
    if name == "tap_scan" and values["seeds"] < 2:
        raise ConfigError("tap_scan.seeds", "must be >= 2 (the decomposition is "
                                            "averaged over disorder seeds)")
    if (name == "tap_scan" and values["beta_grid"][-1] != 1.0
            and resolve_fe_method(values["method"], layout) == "ti"):
        raise ConfigError("tap_scan.beta_grid", "must end at 1 for thermodynamic "
                                                "integration (gs is taken at beta 1)")
    return _SECTION_TYPES[name](**values)


def _estimator_config(section, master_seed: int = 0) -> EstimatorConfig:
    """The EstimatorConfig of a parsed section: its estimator fields, with
    EstimatorConfig defaults for the rest."""
    return EstimatorConfig(master_seed=master_seed, **{
        k: v for k, v in section._asdict().items() if k in _ESTIMATOR_DEFAULTS})


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    _expect_mapping(doc, "<document>")
    known = {"schema", "master_seed", "model", "free_energy", "ground_state",
             "tap_scan", "multisamp", "out_dir"}
    for key in doc:
        if key not in known:
            raise ConfigError(key, "unknown field")
    schema = _expect_int(doc.get("schema", SCHEMA_VERSION), "schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"unsupported schema version {schema}")
    master_seed = _expect_int(doc.get("master_seed", 0), "master_seed", minimum=0)
    species, sizes, mixture = _parse_model(doc)
    layout = SpeciesLayout(species, sizes)
    out_dir = doc.get("out_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("out_dir", "expected a non-empty string")
    config = ExperimentConfig(
        master_seed=master_seed,
        species=species,
        sizes=sizes,
        mixture=mixture,
        out_dir=out_dir,
        **{name: _parse_section(doc, name, layout) for name in _SECTIONS},
    )
    # tap-scan also draws the recentered mixtures, whose lower-degree terms
    # can push a model at the edge of the budget over it
    for k, q in enumerate(config.tap_scan.q_grid):
        _check_budget(xi_q(mixture, q), layout, f"tap_scan.q_grid[{k}]")
    return config


def dump_config(config: ExperimentConfig) -> str:
    """Serialize a config with every field materialized (round-trip stable)."""
    doc = {
        "schema": SCHEMA_VERSION,
        "master_seed": config.master_seed,
        "model": {
            "species": list(config.species),
            "sizes": list(config.sizes),
            "terms": [{"p": list(p), "delta_sq": c} for p, c in config.mixture.terms],
        },
        "out_dir": config.out_dir,
        **{name: getattr(config, name)._asdict() for name in _SECTIONS},
    }

    def listify(obj):
        if isinstance(obj, tuple):
            return [listify(v) for v in obj]
        if isinstance(obj, dict):
            return {k: listify(v) for k, v in obj.items()}
        return obj

    return json.dumps(listify(doc), indent=2, sort_keys=True) + "\n"


def _run_tasks(tasks, workers: int) -> list:
    """Run zero-argument tasks in order, ignoring the worker count.

    No command calls it: each batches its seeds in a library pipeline.  It
    stays while the benchmark tracer (benchmarks/bench_trace.py) patches it
    unconditionally, and goes with that patch and `parallel_efficiency`.
    """
    return [task() for task in tasks]


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# --- verification suite -------------------------------------------------------


def _shift_terms(xi: Mixture, q: np.ndarray, mutation: str | None) -> Mixture:
    shifted = shifted_coefficients(xi, q)
    if mutation == "shifted-coefficients":
        corrupted = {p: c * (1.0 + 1e-3 * (1 + sum(p)))
                     for p, c in shifted.terms}
        return Mixture.from_terms(corrupted, n_species=xi.n_species)
    return shifted


def _suite_fixture_corner():
    layout = SpeciesLayout(("a", "b"), (1, 1))
    mixture = Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.3})
    return mixture, layout


def run_verification_suite(config: ExperimentConfig, mutation: str | None = None) -> dict:
    """Run the cross-module invariant checks; failures never abort the suite.

    The optional mutation corrupts one internal formula so the suite must
    detect it — a self-test that the checks have teeth.
    """
    if mutation is not None and mutation not in MUTATIONS:
        raise ConfigError("mutation", f"unknown mutation {mutation!r}")
    xi = config.mixture
    layout = config.layout
    # mixture checks need at least one term to have teeth; geometry checks
    # need blocks of dimension >= 2 so zero-width bands are non-empty
    mix_xi, mix_layout = (xi, layout) if xi.terms else _suite_fixture_corner()
    geom_layout = SpeciesLayout(("a", "b"), (4, 6))
    seed = config.master_seed
    checks: list[dict] = []

    def run_check(name, fn):
        try:
            detail = fn()
            checks.append({"name": name, "passed": True, "detail": detail or ""})
        except Exception as exc:  # noqa: BLE001 - the suite reports, never aborts
            checks.append({"name": name, "passed": False, "detail": str(exc)})

    def check_shift_identity():
        rng = np.random.default_rng(derive_seed(seed, "verify", "shift"))
        worst = 0.0
        for _ in range(5):
            q = rng.uniform(0.0, 0.9, mix_layout.n_species)
            x = rng.uniform(-1.0, 1.0, mix_layout.n_species)
            shifted = _shift_terms(mix_xi, q, mutation)
            lhs = eval_mixture(shifted, x)
            rhs = eval_mixture(mix_xi, q + (1.0 - q) * x) - eval_mixture(mix_xi, q)
            worst = max(worst, abs(lhs - rhs))
        if worst > 1e-9:
            raise AssertionError(f"recentering identity off by {worst:.3e}")
        return f"max deviation {worst:.3e}"

    def check_nesting():
        rng = np.random.default_rng(derive_seed(seed, "verify", "nesting"))
        q = rng.uniform(0.0, 0.7, mix_layout.n_species)
        qp = rng.uniform(0.0, 0.7, mix_layout.n_species)
        qhat = nesting_compose(q, qp)
        two = xi_q(xi_q(mix_xi, q), qp)
        one = xi_q(mix_xi, qhat.as_array())
        keys = {p for p, _ in two.terms} | {p for p, _ in one.terms}
        gap = max((abs(two.coefficient(p) - one.coefficient(p)) for p in keys),
                  default=0.0)
        if gap > 1e-10:
            raise AssertionError(f"nesting coefficients differ by {gap:.3e}")
        vol_gap = abs(log_volume_term(mix_layout, q) + log_volume_term(mix_layout, qp)
                      - log_volume_term(mix_layout, qhat.as_array()))
        if vol_gap > 1e-12:
            raise AssertionError(f"entropy additivity off by {vol_gap:.3e}")
        return f"coefficient gap {gap:.3e}"

    def check_recentering_removes_linear():
        q = np.full(mix_layout.n_species, 0.4)
        reduced = xi_q(mix_xi, q)
        if any(sum(p) < 2 for p, _ in reduced.terms):
            raise AssertionError("recentering left a single-coordinate term")
        return f"{len(reduced.terms)} terms, all degree >= 2"

    def check_band_volume():
        rng = np.random.default_rng(derive_seed(seed, "verify", "band"))
        q = np.full(geom_layout.n_species, 0.3)
        delta = 0.2
        exact = log_band_volume(geom_layout, q, delta)
        m = sample_on_shell(geom_layout, q, rng)
        hits = 0
        trials = 4000
        for _ in range(trials):
            hits += int(in_band(sample_uniform(geom_layout, rng), m, delta))
        if hits == 0:
            raise AssertionError("no band hits in the Monte Carlo check")
        est = math.log(hits / trials) / geom_layout.n
        se = math.sqrt((1 - hits / trials) / hits) / geom_layout.n
        if abs(est - exact) > 4 * se + 1e-12:
            raise AssertionError(f"band volume {exact:.5f} vs MC {est:.5f} (se {se:.5f})")
        return f"exact {exact:.5f}, MC {est:.5f}"

    def check_tilde_round_trip():
        rng = np.random.default_rng(derive_seed(seed, "verify", "tilde"))
        q = np.full(geom_layout.n_species, 0.25)
        m = sample_on_shell(geom_layout, q, rng)
        coords = np.empty(geom_layout.n)
        for s, sl in enumerate(geom_layout.slices):
            ms = m.coords[sl]
            g = rng.standard_normal(geom_layout.sizes[s])
            g = g - (g @ ms) * ms / float(ms @ ms)
            g *= math.sqrt(geom_layout.sizes[s]) / np.linalg.norm(g)
            coords[sl] = ms + math.sqrt(1.0 - q[s]) * g
        sigma = Configuration(coords, geom_layout)
        rho = tilde_transform(sigma, m, q)
        back = np.array(rho.coords)
        for s, sl in enumerate(geom_layout.slices):
            back[sl] = m.coords[sl] + math.sqrt(1.0 - q[s]) * rho.coords[sl]
        gap = float(np.max(np.abs(back - sigma.coords)))
        if gap > 1e-9:
            raise AssertionError(f"round trip off by {gap:.3e}")
        return f"max deviation {gap:.3e}"

    def check_configuration_checkpoint():
        rng = np.random.default_rng(derive_seed(seed, "verify", "checkpoint"))
        sigma = sample_uniform(layout, rng)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sigma.bin"
            save_configuration(sigma, path)
            loaded = load_configuration(path)
        if not np.array_equal(loaded.coords, sigma.coords):
            raise AssertionError("coordinates changed across the checkpoint")
        return "bit-identical"

    def _small_instance():
        if layout.n <= 24 and xi.terms:
            return build_instance(xi, layout, seed=derive_seed(seed, "verify", "h"))
        mix, lay = _suite_fixture_corner()
        return build_instance(mix, lay, seed=derive_seed(seed, "verify", "h"))

    def check_energy_batch():
        h = _small_instance()
        rng = np.random.default_rng(derive_seed(seed, "verify", "batch"))
        pts = np.array([sample_uniform(h.layout, rng).coords for _ in range(8)])
        batched = energy_many(h, pts)
        single = np.array([energy(h, Configuration(p, h.layout)) for p in pts])
        gap = float(np.max(np.abs(batched - single)))
        if gap > 1e-10:
            raise AssertionError(f"batch energies differ by {gap:.3e}")
        return f"max deviation {gap:.3e}"

    def check_gradient():
        h = _small_instance()
        rng = np.random.default_rng(derive_seed(seed, "verify", "grad"))
        sigma = sample_uniform(h.layout, rng)
        g = gradient(h, sigma)
        eps = 1e-6
        for idx in range(0, h.layout.n, max(1, h.layout.n // 3)):
            up = np.array(sigma.coords)
            dn = np.array(sigma.coords)
            up[idx] += eps
            dn[idx] -= eps
            fd = (energy(h, Configuration(up, h.layout))
                  - energy(h, Configuration(dn, h.layout))) / (2 * eps)
            if abs(fd - g[idx]) > 1e-4 * max(1.0, abs(fd)):
                raise AssertionError(f"gradient[{idx}] {g[idx]:.6e} vs fd {fd:.6e}")
        return "finite differences agree"

    def check_instance_checkpoint():
        h = _small_instance()
        rng = np.random.default_rng(derive_seed(seed, "verify", "hchk"))
        pts = np.array([sample_uniform(h.layout, rng).coords for _ in range(4)])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "instance.json"
            save_instance(h, path)
            h2 = load_instance(path)
        if not np.array_equal(energy_many(h, pts), energy_many(h2, pts)):
            raise AssertionError("reloaded instance gives different energies")
        return "energies identical after reload"

    def check_beta_zero():
        h = _small_instance()
        est = fe_thermo_integration(h, [0.0], 10, np.random.default_rng(0))
        if est.value != 0.0 or est.std_error != 0.0:
            raise AssertionError(f"beta=0 free energy {est.value!r}")
        return "exactly zero"

    def check_enum_vs_quadrature():
        mix, lay = _suite_fixture_corner()
        h = build_instance(mix, lay, seed=derive_seed(seed, "verify", "corner"))
        gap = abs(exact_fe_enumeration(h).value - exact_fe_quadrature(h, 8).value)
        if gap > 1e-9:
            raise AssertionError(f"enumeration vs quadrature gap {gap:.3e}")
        return f"gap {gap:.3e}"

    def check_penalty_identity():
        mix, lay = _suite_fixture_corner()
        h = build_instance(mix, lay, seed=derive_seed(seed, "verify", "penalty"))
        m = Configuration(np.array([0.5, -0.4]), lay)
        spec = BandSpec(m, delta=0.9, n=2, rho=1.3)
        joint = exact_multi_replica_fe_enumeration(h, spec).value
        single = exact_restricted_fe_enumeration(h, m, 0.9).value
        penalty = exact_penalty_enumeration(h, spec)
        gap = abs(joint - single - penalty)
        if gap > 1e-10:
            raise AssertionError(f"penalty identity off by {gap:.3e}")
        return f"gap {gap:.3e}"

    def check_ti_oracle():
        mix, lay = _suite_fixture_corner()
        for k in range(3):
            h = build_instance(mix, lay, seed=derive_seed(seed, "verify", "ti", k))
            en = exact_fe_enumeration(h).value
            ti = fe_thermo_integration(
                h, np.linspace(0.0, 1.0, 11), 400,
                np.random.default_rng(derive_seed(seed, "verify", "ti-mc", k)))
            if abs(ti.value - en) > 3 * ti.std_error:
                raise AssertionError(
                    f"seed {k}: TI {ti.value:.5f} vs exact {en:.5f} "
                    f"(3se {3 * ti.std_error:.5f})")
        return "3 seeds within 3 SE"

    def check_ascent_oracle():
        lay = SpeciesLayout(("s",), (24,))
        h = build_instance(Mixture.from_terms({(2,): 1.0}), lay,
                           seed=derive_seed(seed, "verify", "gs"))
        res = ascend(h, [0.9], 4, 400,
                     np.random.default_rng(derive_seed(seed, "verify", "gs-mc")))
        oracle = eigen_oracle_2spin(h, [0.9])
        rel = abs(res.energy_per_spin - oracle) / abs(oracle)
        if rel > 1e-6:
            raise AssertionError(f"ascent off the eigen oracle by {rel:.3e} relative")
        if not np.allclose(res.maximizer.self_overlap().as_array(), [0.9], atol=1e-9):
            raise AssertionError("maximizer left the shell")
        return f"relative gap {rel:.3e}"

    def check_tap_bookkeeping():
        mix, lay = _suite_fixture_corner()
        cfg = EstimatorConfig(seeds=5, master_seed=derive_seed(seed, "verify", "tap"))
        rep = tap_evaluate(mix, lay, [0.2, 0.3], cfg, seeds=5)
        gap = abs(rep.gap - (rep.lhs.value - rep.gs - rep.logvol - rep.fq.value))
        if gap > 1e-12:
            raise AssertionError(f"gap bookkeeping off by {gap:.3e}")
        return f"reconstruction gap {gap:.3e}"

    run_check("mixture-recentering-identity", check_shift_identity)
    run_check("mixture-nesting-composition", check_nesting)
    run_check("mixture-recentering-removes-linear", check_recentering_removes_linear)
    run_check("geometry-band-volume-mc", check_band_volume)
    run_check("geometry-tilde-round-trip", check_tilde_round_trip)
    run_check("geometry-configuration-checkpoint", check_configuration_checkpoint)
    run_check("hamiltonian-energy-batch", check_energy_batch)
    run_check("hamiltonian-gradient-fd", check_gradient)
    run_check("hamiltonian-instance-checkpoint", check_instance_checkpoint)
    run_check("thermo-beta-zero", check_beta_zero)
    run_check("thermo-enumeration-vs-quadrature", check_enum_vs_quadrature)
    run_check("thermo-penalty-identity", check_penalty_identity)
    run_check("thermo-ti-oracle", check_ti_oracle)
    run_check("ground-state-eigen-oracle", check_ascent_oracle)
    run_check("tap-gap-bookkeeping", check_tap_bookkeeping)

    return {
        "passed": all(c["passed"] for c in checks),
        "mutation": mutation,
        "checks": checks,
    }


# --- batch commands -------------------------------------------------------------


def _out_dir(config: ExperimentConfig) -> Path:
    path = Path(config.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_verify(config: ExperimentConfig, mutation: str | None = None) -> int:
    report = run_verification_suite(config, mutation)
    out = _out_dir(config)
    _write_json(out / "verify_report.json", report)
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"{status:4s}  {check['name']}: {check['detail']}")
    n_fail = sum(not c["passed"] for c in report["checks"])
    print(f"verification {'passed' if report['passed'] else 'FAILED'} "
          f"({len(report['checks']) - n_fail}/{len(report['checks'])} checks)")
    return 0 if report["passed"] else 1


def cmd_free_energy(config: ExperimentConfig) -> int:
    params = config.free_energy
    layout = config.layout
    method = resolve_fe_method(params.method, layout)
    seeds = range(params.seeds)
    estimates = fe_per_seed(
        config.mixture, layout, _estimator_config(params),
        [derive_seed(config.master_seed, "free-energy", "instance", i) for i in seeds],
        [np.random.default_rng(derive_seed(config.master_seed, "free-energy", "mc", i))
         for i in seeds])
    rows = []
    for i, est in enumerate(estimates):
        flags = ";".join(est.meta.get("flags", []))
        rows.append([i, est.value, est.std_error, est.method, flags])
    out = _out_dir(config)
    _write_csv(out / "free_energy.csv",
               ["seed", "value", "std_error", "method", "flags"], rows)
    values = [est.value for est in estimates]
    mean, se = _mean_se(values)
    _write_json(out / "free_energy.json", {
        "estimator": method,
        "beta": params.beta_grid[-1] if method == "ti" else 1.0,
        "mean": mean,
        "std_error_of_mean": se,
        "values": values,
        "per_seed_std_errors": [est.std_error for est in estimates],
    })
    print(f"free energy ({method}): mean {mean:.6f} +- {se:.6f} over {len(values)} seeds")
    return 0


def cmd_ground_state(config: ExperimentConfig) -> int:
    params = config.ground_state
    seeds = range(params.seeds)
    results, oracles = [], []
    for group, streams in instance_groups(
            config.mixture, config.layout,
            [derive_seed(config.master_seed, "ground-state", "instance", i) for i in seeds],
            [np.random.default_rng(derive_seed(config.master_seed, "ground-state", "mc", i))
             for i in seeds]):
        results += ascend_many(group, params.q, params.restarts, params.max_iters, streams)
        for h in group:
            try:
                oracles.append(eigen_oracle_2spin(h, params.q))
            except ValueError:
                oracles.append(None)
    rows = []
    for i, (res, oracle) in enumerate(zip(results, oracles)):
        rows.append([i, res.energy_per_spin,
                     "" if oracle is None else float(oracle),
                     res.converged_fraction,
                     float(np.mean(res.iteration_counts)),
                     max(res.iteration_counts)])
    out = _out_dir(config)
    _write_csv(out / "ground_state.csv",
               ["seed", "energy_per_spin", "eigen_oracle", "converged_fraction",
                "iterations_mean", "iterations_max"], rows)
    values = [res.energy_per_spin for res in results]
    mean, se = _mean_se(values)
    payload = {
        "q": list(params.q),
        "mean": mean,
        "std_error_of_mean": se,
        "values": values,
        "converged_fractions": [res.converged_fraction for res in results],
    }
    oracles = [oracle for oracle in oracles if oracle is not None]
    if oracles:
        payload["eigen_oracle_mean"] = float(np.mean(oracles))
    _write_json(out / "ground_state.json", payload)
    print(f"ground state at q={list(params.q)}: mean {mean:.6f} +- {se:.6f}")
    return 0


def cmd_tap_scan(config: ExperimentConfig) -> int:
    params = config.tap_scan
    reports = tap_inequality_scan(config.mixture, config.layout, params.q_grid,
                                  _estimator_config(params, config.master_seed))
    header = [f"q_{name}" for name in config.species] + [
        "lhs", "lhs_std_error", "gs", "gs_std_error", "logvol",
        "fq", "fq_std_error", "gap", "gap_std_error", "onsager", "flags"]
    rows = []
    for rep in reports:
        rows.append(list(rep.q.values) + [
            rep.lhs.value, rep.lhs.std_error, rep.gs, rep.gs_std_error,
            rep.logvol, rep.fq.value, rep.fq.std_error, rep.gap,
            rep.gap_std_error, rep.onsager, ";".join(rep.flags)])
    out = _out_dir(config)
    _write_csv(out / "tap_scan.csv", header, rows)
    best = candidate_multisamplable(reports)
    violations = sum("tap-inequality-violated" in rep.flags for rep in reports)
    _write_json(out / "tap_scan.json", {
        "reports": [rep.to_record() for rep in reports],
        "candidate": best.to_record(),
        "violations": violations,
    })
    print(f"tap scan over {len(reports)} overlaps: {violations} violations; "
          f"closest to equality at q={list(best.q.values)} (gap {best.gap:.5f})")
    return 0 if violations == 0 else 1


def cmd_multisamp(config: ExperimentConfig) -> int:
    params = config.multisamp
    layout = config.layout
    per_seed = []  # per seed, one record per eps, all scored on one sampling pass
    for i in range(params.seeds):
        h = build_instance(config.mixture, layout,
                           seed=derive_seed(config.master_seed, "multisamp", "instance", i))
        rng = np.random.default_rng(derive_seed(config.master_seed, "multisamp", "mc", i))
        per_seed.append(multisamplability_records(h, params.q, params.n, params.eps_grid,
                                                  params.beta_grid, params.sweeps, rng))
    rows = []
    by_eps = []
    for e, eps in enumerate(params.eps_grid):
        chunk = [records[e] for records in per_seed]
        for i, rec in enumerate(chunk):
            rows.append([eps, i, rec["value"], rec["hits"] or 0, rec["samples"] or 0,
                         ";".join(rec["flags"])])
        # a vacuous eps (no samples) admits every tuple: probability 1
        probs = [1.0 if rec["samples"] is None else rec["hits"] / rec["samples"]
                 for rec in chunk]
        if sum(probs) > 0:
            log_of_mean = math.log(float(np.mean(probs))) / layout.n
        else:
            log_of_mean = math.log(0.5 / sum(rec["samples"] for rec in chunk)) / layout.n
        by_eps.append({
            "eps": eps,
            "mean_of_log": float(np.mean([rec["value"] for rec in chunk])),
            "log_of_mean": log_of_mean,
            "flags": sorted({f for rec in chunk for f in rec["flags"]}),
        })
    out = _out_dir(config)
    _write_csv(out / "multisamp.csv",
               ["eps", "seed", "value", "hits", "samples", "flags"], rows)
    _write_json(out / "multisamp.json", {
        "q": list(params.q),
        "replicas": params.n,
        "per_eps": by_eps,
    })
    for entry in by_eps:
        print(f"eps={entry['eps']}: mean-of-log {entry['mean_of_log']:.6f}, "
              f"log-of-mean {entry['log_of_mean']:.6f}")
    return 0


# --- entry point ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multispin",
        description="Batch experiments for multi-species spherical spin models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "free-energy", "ground-state", "tap-scan", "multisamp"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's master_seed")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility (must be >= 1); tasks run "
                            "in order in one process, so it changes neither "
                            "outputs nor speed")
        p.add_argument("--out", default=None, help="override the output directory")
        if name == "verify":
            p.add_argument("--mutate", default=None, choices=MUTATIONS,
                           help="corrupt one formula; the suite must catch it")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(Path(args.config).read_text())
        if args.seed is not None:
            config = dataclasses.replace(config, master_seed=args.seed)
        if args.out is not None:
            config = dataclasses.replace(config, out_dir=args.out)
        if args.workers < 1:
            raise ConfigError("--workers", "must be >= 1")
        if args.command == "verify":
            return cmd_verify(config, mutation=args.mutate)
        if args.command == "free-energy":
            return cmd_free_energy(config)
        if args.command == "ground-state":
            return cmd_ground_state(config)
        if args.command == "tap-scan":
            return cmd_tap_scan(config)
        return cmd_multisamp(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
