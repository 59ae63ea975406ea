"""TAP-representation assembly and checks.

The object under test is the decomposition of the disorder-averaged free
energy at an overlap q into three parts: the shell ground state, the shell
entropy (1/2) sum_s lambda_s log(1 - q_s), and the free energy of the
recentered mixture xi_q.  Equality characterizes multi-samplable overlaps;
for arbitrary q the left side dominates, so the scan below is a one-sided
check.  Ground states come from local search and therefore underestimate,
which can only widen the gap in the safe direction; equality-style checks
carry an explicit bias allowance instead.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import species_overlaps
from .ground_state import ascend, exact_gs_enumeration
from .hamiltonian import (
    _BATCH_ELEMENT_CAP,
    HamiltonianInstance,
    block_entries,
    build_instance,
)
from .mixture import (
    Mixture,
    OverlapVector,
    SpeciesLayout,
    log_volume_term,
    nesting_compose,
    onsager_term,
    require_shell_overlap,
    xi_q,
)
from .seeding import derive_seed
from .thermo import (
    FreeEnergyEstimate,
    _replica_samples,
    exact_fe_enumeration,
    exact_fe_quadrature,
    fe_thermo_integration_many,
)

__all__ = [
    "DEFAULT_BETA_GRID",
    "EstimatorConfig",
    "fe_per_seed",
    "resolve_fe_method",
    "TapReport",
    "tap_evaluate",
    "tap_inequality_scan",
    "candidate_multisamplable",
    "onsager_check",
    "replica_symmetry_diagnostic",
    "nesting_experiment",
]

_FE_METHODS = ("auto", "enumeration", "quadrature", "ti")
DEFAULT_BETA_GRID = tuple(float(b) for b in np.linspace(0.0, 1.0, 21))


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs shared by every TAP-side estimator.

    method "auto" picks enumeration when all species have one coordinate,
    deterministic quadrature when blocks are small enough, and
    thermodynamic integration otherwise.
    """

    method: str = "auto"
    beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID
    sweeps: int = 800
    quadrature_nodes: int = 16
    seeds: int = 20
    restarts: int = 8
    max_iters: int = 300
    gs_bias_allowance: float = 0.02
    master_seed: int = 0

    def __post_init__(self):
        if self.method not in _FE_METHODS:
            raise ValueError(f"method must be one of {_FE_METHODS}")
        if self.sweeps < 1 or self.quadrature_nodes < 2:
            raise ValueError("sweeps must be >= 1 and quadrature_nodes >= 2")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")
        if self.gs_bias_allowance < 0.0:
            raise ValueError("gs_bias_allowance must be >= 0")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")


@dataclass(frozen=True)
class TapReport:
    """One overlap's decomposition with every part and its error."""

    q: OverlapVector
    lhs: FreeEnergyEstimate
    gs: float
    gs_std_error: float
    logvol: float
    fq: FreeEnergyEstimate
    gap: float
    gap_std_error: float
    onsager: float
    flags: tuple[str, ...] = field(default_factory=tuple)

    def to_record(self) -> dict:
        return {
            "q": list(self.q.values),
            "lhs": self.lhs.value,
            "lhs_std_error": self.lhs.std_error,
            "gs": self.gs,
            "gs_std_error": self.gs_std_error,
            "logvol": self.logvol,
            "fq": self.fq.value,
            "fq_std_error": self.fq.std_error,
            "gap": self.gap,
            "gap_std_error": self.gap_std_error,
            "onsager": self.onsager,
            "flags": list(self.flags),
        }


def resolve_fe_method(method: str, layout: SpeciesLayout) -> str:
    """Concrete estimator for a requested method on a given layout; an
    unknown method, or an exact one the layout cannot serve, raises ValueError."""
    if method not in _FE_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(_FE_METHODS)}")
    corner = all(d == 1 for d in layout.sizes)
    small = all(d <= 3 for d in layout.sizes) and sum(d - 1 for d in layout.sizes) <= 6
    if method == "auto":
        return "enumeration" if corner else "quadrature" if small else "ti"
    if method == "enumeration" and not corner:
        raise ValueError("enumeration requires every species to have one coordinate")
    if method == "quadrature" and not small:
        raise ValueError("quadrature supports species blocks of size at most 3 "
                         "and at most 6 angular dimensions")
    return method


def fe_per_seed(xi: Mixture, layout: SpeciesLayout, config: EstimatorConfig,
                instance_seeds: list[int],
                streams: list[np.random.Generator]) -> list[FreeEnergyEstimate]:
    """Free energy of the instance drawn from each seed, by config.method
    resolved for the layout; thermodynamic integration of instance i uses
    generator streams[i].

    Instances are built in consecutive groups whose stacked blocks hold at
    most _BATCH_ELEMENT_CAP entries (a larger instance forms a group of
    one), and the tempered chains of a group run together.  Each estimate
    equals the one its instance gets on its own.
    """
    method = resolve_fe_method(config.method, layout)
    per_group = max(1, _BATCH_ELEMENT_CAP // max(1, block_entries(xi, layout)))
    estimates = []
    for lo in range(0, len(instance_seeds), per_group):
        group = [build_instance(xi, layout, seed=seed)
                 for seed in instance_seeds[lo:lo + per_group]]
        if method == "ti":
            estimates.extend(fe_thermo_integration_many(
                group, np.asarray(config.beta_grid), config.sweeps,
                streams[lo:lo + per_group]))
        elif method == "enumeration":
            estimates.extend(exact_fe_enumeration(h) for h in group)
        else:
            estimates.extend(exact_fe_quadrature(h, config.quadrature_nodes) for h in group)
    return estimates


def _mean_se(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values)
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return float(arr.mean()), se


def _fe_over_seeds(xi: Mixture, layout: SpeciesLayout, label: str,
                   config: EstimatorConfig, seeds: int,
                   rng: np.random.Generator) -> FreeEnergyEstimate:
    """Disorder-averaged free energy: mean over fresh instances, SE from the
    scatter of per-seed estimates (which already carries any MC noise)."""
    instance_seeds = [derive_seed(config.master_seed, label, i) for i in range(seeds)]
    estimates = fe_per_seed(xi, layout, config, instance_seeds, rng.spawn(seeds))
    values = [est.value for est in estimates]
    mean, se = _mean_se(values)
    return FreeEnergyEstimate(mean, se, estimates[-1].method, {
        "seed_values": values,
        "instance_seeds": instance_seeds,
        "mean_mc_std_error": float(np.mean([est.std_error for est in estimates])),
        "flags": sorted({f for est in estimates for f in est.meta.get("flags", [])}),
    })


def _gs_over_seeds(xi: Mixture, layout: SpeciesLayout, qv: np.ndarray,
                   config: EstimatorConfig, seeds: int,
                   rng: np.random.Generator) -> tuple[float, float, list[float], list[str]]:
    exact = all(d == 1 for d in layout.sizes)
    instance_seeds = [derive_seed(config.master_seed, "tap-base", i) for i in range(seeds)]
    streams = rng.spawn(seeds)
    values, flags = [], []
    for i, inst_seed in enumerate(instance_seeds):
        h = build_instance(xi, layout, seed=inst_seed)
        if exact:
            values.append(exact_gs_enumeration(h, qv))
        else:
            res = ascend(h, qv, config.restarts, config.max_iters, streams[i])
            values.append(res.energy_per_spin)
            if res.converged_fraction < 0.5:
                flags.append("gs-poor-convergence")
    mean, se = _mean_se(values)
    return mean, se, values, sorted(set(flags))


def tap_evaluate(xi: Mixture, layout: SpeciesLayout, q, config: EstimatorConfig,
                 seeds: int | None = None,
                 rng: np.random.Generator | None = None) -> TapReport:
    """Evaluate the free-energy decomposition at one overlap.

    lhs averages the full-mixture free energy over disorder seeds; gs
    averages the shell ground state (exhaustive when species blocks are
    single coordinates, ascent otherwise); fq averages the free energy of
    the recentered mixture over its own independent disorder.
    """
    qv = require_shell_overlap(q, layout.n_species)
    seeds = config.seeds if seeds is None else seeds
    if seeds < 2:
        raise ValueError("need at least 2 disorder seeds")
    if rng is None:
        rng = np.random.default_rng(derive_seed(config.master_seed, "tap-mc"))
    lhs = _fe_over_seeds(xi, layout, "tap-base", config, seeds, rng)
    gs, gs_se, gs_values, gs_flags = _gs_over_seeds(xi, layout, qv, config, seeds, rng)
    logvol = log_volume_term(layout, qv)
    fq = _fe_over_seeds(xi_q(xi, qv), layout, "tap-recentered", config, seeds, rng)
    gap = lhs.value - gs - logvol - fq.value
    gap_se = math.sqrt(lhs.std_error**2 + gs_se**2 + fq.std_error**2)
    flags = sorted(set(lhs.meta["flags"]) | set(fq.meta["flags"]) | set(gs_flags))
    return TapReport(
        q=OverlapVector(tuple(qv)),
        lhs=lhs,
        gs=gs,
        gs_std_error=gs_se,
        logvol=logvol,
        fq=fq,
        gap=gap,
        gap_std_error=gap_se,
        onsager=onsager_term(xi, qv),
        flags=tuple(flags),
    )


def tap_inequality_scan(xi: Mixture, layout: SpeciesLayout, q_grid,
                        config: EstimatorConfig) -> list[TapReport]:
    """Evaluate the decomposition over a grid of overlaps and flag genuine
    violations of lhs >= gs + logvol + fq.

    The ascent ground state is a lower bound, which only under-states the
    right side, so gap < -(3 SE + allowance) cannot be explained by local
    search and is flagged.
    """
    reports = []
    for k, q in enumerate(q_grid):
        rng = np.random.default_rng(derive_seed(config.master_seed, "tap-scan", k))
        report = tap_evaluate(xi, layout, q, config, rng=rng)
        tol = 3.0 * report.gap_std_error + config.gs_bias_allowance
        if report.gap < -tol:
            report = dataclasses.replace(
                report,
                flags=tuple(sorted(set(report.flags) | {"tap-inequality-violated"})))
        reports.append(report)
    return reports


def candidate_multisamplable(reports: list[TapReport]) -> TapReport:
    """The scanned overlap whose decomposition is closest to equality."""
    if not reports:
        raise ValueError("empty scan")
    return min(reports, key=lambda r: (abs(r.gap), tuple(r.q.values)))


def onsager_check(xi: Mixture, layout: SpeciesLayout, q_star,
                  config: EstimatorConfig) -> dict:
    """Compare the recentered free energy with its quadratic prediction
    (1/2) xi_{q*}(1); the two agree at a maximal multi-samplable overlap."""
    qv = require_shell_overlap(q_star, layout.n_species)
    rng = np.random.default_rng(derive_seed(config.master_seed, "onsager"))
    fq = _fe_over_seeds(xi_q(xi, qv), layout, "onsager-recentered", config,
                        config.seeds, rng)
    predicted = onsager_term(xi, qv)
    difference = fq.value - predicted
    return {
        "q_star": [float(v) for v in qv],
        "fq": fq.value,
        "fq_std_error": fq.std_error,
        "onsager": predicted,
        "difference": difference,
        "within_3se": bool(abs(difference) <= 3.0 * fq.std_error),
        "flags": list(fq.meta["flags"]),
    }


def replica_symmetry_diagnostic(hq: HamiltonianInstance, n: int, tau: float,
                                config: EstimatorConfig) -> float:
    """Worst-species frequency of |R_s| >= tau between independent Gibbs
    samples of hq; values near zero support overlap concentration at zero."""
    if n < 2:
        raise ValueError("need at least two replicas")
    if tau >= 1.0 + 1e-9:
        return 0.0
    rng = np.random.default_rng(derive_seed(config.master_seed, "rs-diagnostic"))
    samples, _ = _replica_samples(hq, n, config.beta_grid, config.sweeps, rng)
    i, j = np.triu_indices(n, 1)
    overlaps = species_overlaps(samples[i], samples[j], hq.layout)  # (pairs, kept, S)
    hits = np.count_nonzero(np.abs(overlaps) >= tau, axis=(0, 1))
    return int(hits.max()) / (len(i) * samples.shape[1])


def nesting_experiment(xi: Mixture, layout: SpeciesLayout, q, q_prime,
                       config: EstimatorConfig) -> dict:
    """Consistency of the two-stage decomposition at q then q' with the
    single-stage one at the composed overlap q-hat.

    The entropy terms add exactly and the twice-recentered mixture equals
    the once-recentered one at q-hat; the ground-state relation
    E(q) + E^q(q') <= E(q-hat) is checked one-sidedly within MC error plus
    the local-search bias allowance.
    """
    qv = require_shell_overlap(q, layout.n_species)
    qp = require_shell_overlap(q_prime, layout.n_species)
    qhat = nesting_compose(qv, qp)
    log_q = log_volume_term(layout, qv)
    xi_at_q = xi_q(xi, qv)
    log_qp = log_volume_term(layout, qp)
    log_qhat = log_volume_term(layout, qhat)
    log_additivity_gap = abs(log_q + log_qp - log_qhat)

    two_stage = xi_q(xi_at_q, qp)
    one_stage = xi_q(xi, qhat)
    keys = {p for p, _ in two_stage.terms} | {p for p, _ in one_stage.terms}
    mixture_gap = max(
        (abs(two_stage.coefficient(p) - one_stage.coefficient(p)) for p in keys),
        default=0.0)

    seeds = config.seeds
    rng = np.random.default_rng(derive_seed(config.master_seed, "nesting"))
    gs_q, se_q, _, fl1 = _gs_over_seeds(xi, layout, qv, config, seeds, rng)
    gs_qp, se_qp, _, fl2 = _gs_over_seeds(xi_at_q, layout, qp, config, seeds, rng)
    gs_qhat, se_hat, _, fl3 = _gs_over_seeds(xi, layout, qhat.as_array(), config,
                                             seeds, rng)
    lhs = gs_q + gs_qp
    se = math.sqrt(se_q**2 + se_qp**2 + se_hat**2)
    slack = 3.0 * se + config.gs_bias_allowance
    holds = lhs <= gs_qhat + slack
    flags = sorted(set(fl1) | set(fl2) | set(fl3))
    if not holds:
        flags.append("nesting-gs-inequality-violated")
    return {
        "q": [float(v) for v in qv],
        "q_prime": [float(v) for v in qp],
        "q_hat": [float(v) for v in qhat.as_array()],
        "log_additivity_gap": float(log_additivity_gap),
        "mixture_coefficient_gap": float(mixture_gap),
        "gs_q": gs_q,
        "gs_q_prime_given_q": gs_qp,
        "gs_q_hat": gs_qhat,
        "gs_inequality_slack": float(slack),
        "gs_inequality_holds": bool(holds),
        "flags": flags,
    }
