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

from .ground_state import ascend_many
from .hamiltonian import (
    _BATCH_ELEMENT_CAP,
    HamiltonianInstance,
    block_entries,
    build_instance,
)
from .mixture import (
    Mixture,
    SpeciesLayout,
    log_volume_term,
    nesting_compose,
    nesting_gaps,
    onsager_term,
    require_shell_overlap,
    xi_q,
)
from .seeding import derive_seed
from .thermo import (
    FreeEnergyEstimate,
    _replica_overlaps,
    _require_corner,
    _require_quadrature,
    exact_fe_enumeration,
    exact_fe_quadrature,
    fe_thermo_integration_many,
)

__all__ = [
    "DEFAULT_BETA_GRID",
    "EstimatorConfig",
    "fe_per_seed",
    "instance_groups",
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
# exact method -> the check that a layout admits it, in the order auto tries them
_EXACT_CHECKS = {"enumeration": _require_corner, "quadrature": _require_quadrature}
DEFAULT_BETA_GRID = tuple(float(b) for b in np.linspace(0.0, 1.0, 21))
_MAX_SEEDS = 10_000  # disorder seeds per run; each gets an instance, streams and a row


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs shared by every TAP-side estimator.

    method "auto" picks enumeration when all species have one coordinate,
    deterministic quadrature when blocks are small enough, and
    thermodynamic integration otherwise; an exact method whose points
    exceed the memory budget is passed over.
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
        if not 1 <= self.seeds <= _MAX_SEEDS:
            raise ValueError(f"seeds must lie in [1, {_MAX_SEEDS}], got {self.seeds}")


@dataclass(frozen=True)
class TapReport:
    """One overlap's decomposition with every part and its error."""

    q: tuple[float, ...]
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
            "q": list(self.q),
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
    if method in _EXACT_CHECKS:
        _EXACT_CHECKS[method](layout)
    if method != "auto":
        return method
    for name, check in _EXACT_CHECKS.items():
        try:
            check(layout)
            return name
        except ValueError:
            pass
    return "ti"


def instance_groups(xis, layout: SpeciesLayout, instance_seeds, *per_seed):
    """Build the instance of mixture xis[i] at instance_seeds[i] for each row
    i, in consecutive groups of rows whose mixtures share term keys and whose
    stacked blocks hold at most _BATCH_ELEMENT_CAP entries (a larger instance
    forms a group of one).  Yields each group, followed by the matching slice
    of every per-row list in per_seed."""
    lo = 0
    while lo < len(instance_seeds):
        size = max(1, _BATCH_ELEMENT_CAP // max(1, block_entries(xis[lo], layout)))
        hi = lo + 1
        while hi < min(lo + size, len(instance_seeds)) and xis[hi].degrees == xis[lo].degrees:
            hi += 1
        yield ([build_instance(xi, layout, seed=seed)
                for xi, seed in zip(xis[lo:hi], instance_seeds[lo:hi])],
               *(items[lo:hi] for items in per_seed))
        lo = hi


def _fe_group(group, config: EstimatorConfig, streams) -> list[FreeEnergyEstimate]:
    method = resolve_fe_method(config.method, group[0].layout)
    if method == "ti":
        return fe_thermo_integration_many(group, np.asarray(config.beta_grid),
                                          config.sweeps, streams)
    if method == "enumeration":
        return [exact_fe_enumeration(h) for h in group]
    return [exact_fe_quadrature(h, config.quadrature_nodes) for h in group]


def fe_per_seed(xi: Mixture, layout: SpeciesLayout, config: EstimatorConfig,
                instance_seeds: list[int],
                streams: list[np.random.Generator]) -> list[FreeEnergyEstimate]:
    """Free energy of the instance drawn from each seed, by config.method
    resolved for the layout; thermodynamic integration of instance i uses
    generator streams[i].  The tempered chains of a group of instance_groups
    run together, and each estimate equals the one its instance gets alone."""
    return [est for group, group_streams in instance_groups(
                [xi] * len(instance_seeds), layout, instance_seeds, streams)
            for est in _fe_group(group, config, group_streams)]


def _mean_se(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values)
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return float(arr.mean()), se


def _over_seeds(xis, layout: SpeciesLayout, labels, config: EstimatorConfig, seeds: int,
                fe_streams=None, qs=(), gs_streams=()):
    """One pass over rows r = j * seeds + i, the instance of mixture xis[j]
    at seed (master_seed, labels[j], i), each built once in the groups of
    instance_groups.  Returns the disorder average of each mixture's free
    energy when fe_streams is given (row r on fe_streams[r]; SE from the
    scatter of per-seed estimates, which carries any MC noise), and for each
    overlap qs[k] the (mean, SE, per-row values, flags) of the per-spin shell
    ground state of the first len(gs_streams[k]) rows (row r on
    gs_streams[k][r]), the (overlap, row) ascents of a group in one
    ascend_many batch, split as instance_groups splits under
    _BATCH_ELEMENT_CAP.  Free energies by TI must integrate up to beta 1, the
    temperature of gs and the Onsager term."""
    if (fe_streams is not None and config.beta_grid[-1] != 1.0
            and resolve_fe_method(config.method, layout) == "ti"):
        raise ValueError("thermodynamic integration must end at beta 1, like gs and onsager")
    instance_seeds = [derive_seed(config.master_seed, label, i)
                      for label in labels for i in range(seeds)]
    estimates, values, flags = [], [[] for _ in qs], [set() for _ in qs]
    for group, group_fe_streams, *group_gs_streams in instance_groups(
            [xi for xi in xis for _ in range(seeds)], layout, instance_seeds,
            fe_streams or (), *gs_streams):
        if fe_streams is not None:
            estimates += _fe_group(group, config, group_fe_streams)
        # gs rows lead the pass, so they lead a group
        jobs = [(j, i) for j, streams in enumerate(group_gs_streams) for i in range(len(streams))]
        size = max(1, _BATCH_ELEMENT_CAP // max(1, group[0].memory_entries()))
        for lo in range(0, len(jobs), size):
            batch = jobs[lo:lo + size]
            for (j, _), res in zip(batch, ascend_many(
                    [group[i] for _, i in batch], [qs[j] for j, _ in batch], config.restarts,
                    config.max_iters, [group_gs_streams[j][i] for j, i in batch])):
                values[j].append(res.energy_per_spin)
                if res.converged_fraction < 0.5:
                    flags[j].add("gs-poor-convergence")
    averages = []
    for lo in range(0, len(estimates), seeds):
        chunk = estimates[lo:lo + seeds]
        fe_values = [est.value for est in chunk]
        averages.append(FreeEnergyEstimate(*_mean_se(fe_values), chunk[-1].method, {
            "seed_values": fe_values,
            "instance_seeds": instance_seeds[lo:lo + seeds],
            "mean_mc_std_error": float(np.mean([est.std_error for est in chunk])),
            "flags": sorted({f for est in chunk for f in est.meta.get("flags", [])}),
        }))
    return averages, [(*_mean_se(v), v, sorted(f)) for v, f in zip(values, flags)]


def _tap_pass(xi: Mixture, layout: SpeciesLayout, q_grid, config: EstimatorConfig,
              rngs) -> list[TapReport]:
    """The decomposition at every overlap q_grid[k]; rngs[k] spawns 3 *
    config.seeds streams, whose thirds drive lhs, gs and fq.  One pass over
    the "tap-base" rows and the (overlap, seed) "tap-recentered" rows builds
    each instance once, and rows whose mixtures share term keys run as one
    tempering group: lhs, which does not depend on q, runs on point 0's
    first third and every report shares it, fq runs on each point's last
    third, and gs runs on the "tap-base" rows only, at every overlap.  lhs
    and gs read the same instances, so the gap's SE pairs them per seed
    (lhs_i - gs_i)."""
    qvs = [require_shell_overlap(q, layout.n_species) for q in q_grid]
    if not qvs:
        return []
    seeds = config.seeds
    if seeds < 2:
        raise ValueError("need at least 2 disorder seeds")
    streams = [rng.spawn(3 * seeds) for rng in rngs]
    [lhs, *fqs], gs_passes = _over_seeds(
        [xi] + [xi_q(xi, qv) for qv in qvs], layout,
        ["tap-base"] + ["tap-recentered"] * len(qvs), config, seeds,
        streams[0][:seeds] + [stream for s in streams for stream in s[2 * seeds:]],
        qvs, [s[seeds:2 * seeds] for s in streams])
    reports = []
    for qv, (gs, gs_se, gs_values, gs_flags), fq in zip(qvs, gs_passes, fqs):
        logvol = log_volume_term(layout, qv)
        paired_se = _mean_se([a - b for a, b in zip(lhs.meta["seed_values"], gs_values)])[1]
        reports.append(TapReport(
            q=tuple(float(v) for v in qv), lhs=lhs, gs=gs, gs_std_error=gs_se,
            logvol=logvol, fq=fq, gap=lhs.value - gs - logvol - fq.value,
            gap_std_error=math.sqrt(paired_se**2 + fq.std_error**2),
            onsager=onsager_term(xi, qv),
            flags=tuple(sorted(set(lhs.meta["flags"]) | set(fq.meta["flags"]) | set(gs_flags)))))
    return reports


def tap_evaluate(xi: Mixture, layout: SpeciesLayout, q, config: EstimatorConfig,
                 rng: np.random.Generator | None = None) -> TapReport:
    """Evaluate the free-energy decomposition at one overlap, the one-overlap
    case of the pass tap_inequality_scan runs over its grid: lhs averages the
    full-mixture free energy over disorder seeds, gs the shell ground state
    of the same instances, and fq the free energy of the recentered mixture
    over its own independent disorder."""
    if rng is None:
        rng = np.random.default_rng(derive_seed(config.master_seed, "tap-mc"))
    return _tap_pass(xi, layout, [q], config, [rng])[0]


def tap_inequality_scan(xi: Mixture, layout: SpeciesLayout, q_grid,
                        config: EstimatorConfig) -> list[TapReport]:
    """Evaluate the decomposition over a grid of overlaps, point k on seed
    (master_seed, "tap-scan", k), and flag genuine violations of
    lhs >= gs + logvol + fq.

    The ascent ground state is a lower bound, which only under-states the
    right side, so gap < -(3 SE + allowance) cannot be explained by local
    search and is flagged.
    """
    q_grid = list(q_grid)
    rngs = [np.random.default_rng(derive_seed(config.master_seed, "tap-scan", k))
            for k in range(len(q_grid))]
    return [dataclasses.replace(r, flags=tuple(sorted({*r.flags, "tap-inequality-violated"})))
            if r.gap < -(3.0 * r.gap_std_error + config.gs_bias_allowance) else r
            for r in _tap_pass(xi, layout, q_grid, config, rngs)]


def candidate_multisamplable(reports: list[TapReport]) -> TapReport:
    """The scanned overlap whose decomposition is closest to equality."""
    if not reports:
        raise ValueError("empty scan")
    return min(reports, key=lambda r: (abs(r.gap), r.q))


def onsager_check(xi: Mixture, layout: SpeciesLayout, q_star,
                  config: EstimatorConfig) -> dict:
    """Compare the recentered free energy with its quadratic prediction
    (1/2) xi_{q*}(1); the two agree at a maximal multi-samplable overlap."""
    qv = require_shell_overlap(q_star, layout.n_species)
    rng = np.random.default_rng(derive_seed(config.master_seed, "onsager"))
    [fq], _ = _over_seeds([xi_q(xi, qv)], layout, ["onsager-recentered"], config,
                          config.seeds, rng.spawn(config.seeds))
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
    overlaps, _ = _replica_overlaps(hq, n, config.beta_grid, config.sweeps, rng)
    hits = np.count_nonzero(np.abs(overlaps) >= tau, axis=(0, 1))
    return int(hits.max()) / (overlaps.shape[0] * overlaps.shape[1])


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
    mixture_gap, log_additivity_gap = nesting_gaps(xi, layout, qv, qp)
    xi_at_q = xi_q(xi, qv)
    seeds = config.seeds
    streams = np.random.default_rng(derive_seed(config.master_seed, "nesting")).spawn(3 * seeds)
    # gs at q and at q-hat read the same instances of xi, so they share a pass
    _, [(gs_q, se_q, _, fl1), (gs_qhat, se_hat, _, fl3)] = _over_seeds(
        [xi], layout, ["tap-base"], config, seeds, qs=[qv, qhat],
        gs_streams=[streams[:seeds], streams[2 * seeds:]])
    _, [(gs_qp, se_qp, _, fl2)] = _over_seeds(
        [xi_at_q], layout, ["tap-base"], config, seeds, qs=[qp],
        gs_streams=[streams[seeds:2 * seeds]])
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
        "q_hat": [float(v) for v in qhat],
        "log_additivity_gap": float(log_additivity_gap),
        "mixture_coefficient_gap": float(mixture_gap),
        "gs_q": gs_q,
        "gs_q_prime_given_q": gs_qp,
        "gs_q_hat": gs_qhat,
        "gs_inequality_slack": float(slack),
        "gs_inequality_holds": bool(holds),
        "flags": flags,
    }
