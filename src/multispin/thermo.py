"""Free-energy machinery: exact corner-scale oracles, parallel tempering,
thermodynamic integration, band-restricted and replica-coupled estimators.

All values use the per-spin convention (1/N) log Z with Z the average of
e^H over the uniform product-of-spheres measure.  The inverse temperature
never appears in the mixture itself; it enters only as the integration
variable of thermodynamic integration (or explicitly via scale_mixture).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson
from scipy.special import logsumexp

from .geometry import (
    BandSpec,
    Configuration,
    log_band_volume,
    sample_uniform_batch,
    sample_uniform_in_band_batch,
    sign_patterns,
    species_overlaps,
)
from .hamiltonian import (
    HamiltonianInstance,
    energy,
    energy_many,
    group_energies,
    stack_instances,
)
from .mixture import SpeciesLayout, as_overlap_array

__all__ = [
    "FreeEnergyEstimate",
    "GibbsChainState",
    "PTResult",
    "exact_fe_enumeration",
    "exact_fe_quadrature",
    "exact_restricted_fe_enumeration",
    "exact_multi_replica_fe_enumeration",
    "exact_penalty_enumeration",
    "pt_sampler",
    "fe_thermo_integration",
    "fe_thermo_integration_many",
    "restricted_fe",
    "multi_replica_fe",
    "multisamplability_profile",
    "multisamplability_record",
    "multisamplability_records",
    "wilson_interval",
]

_METHODS = ("enumeration", "quadrature", "thermo-integration")
_TARGET_ACCEPT = 0.4  # proposal scale adaptation target during burn-in
_SWAP_FLAG_RATE = 0.05
_MOVE_FLAG_RATE = 1e-3
_MAX_KEPT_SAMPLES = 512


@dataclass(frozen=True)
class FreeEnergyEstimate:
    """Per-spin free-energy value with its error model and provenance."""

    value: float
    std_error: float
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        if self.std_error < 0.0:
            raise ValueError("std_error must be >= 0")


@dataclass(frozen=True)
class GibbsChainState:
    """Terminal state of one tempered chain."""

    current: Configuration
    beta_index: int
    step_sizes: tuple[float, ...]  # per-species proposal scales
    accept_rate: float
    proposals: int


@dataclass(frozen=True)
class PTResult:
    """Thinned samples and diagnostics from one replica-exchange run."""

    beta_grid: tuple[float, ...]
    samples: tuple[np.ndarray, ...]  # per chain, shape (kept, N)
    energies: tuple[np.ndarray, ...]  # per chain, post-burn-in energy series
    accept_rates: tuple[float, ...]
    swap_rates: tuple[float, ...]
    flags: tuple[str, ...]
    chains: tuple[GibbsChainState, ...]


def _check_beta_grid(beta_grid) -> np.ndarray:
    grid = np.asarray(beta_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("beta grid must be a non-empty 1-D sequence")
    if grid[0] != 0.0:
        raise ValueError("beta grid must start at 0")
    if np.any(np.diff(grid) <= 0.0) and grid.size > 1:
        raise ValueError("beta grid must be strictly ascending")
    if not np.all(np.isfinite(grid)):
        raise ValueError("beta grid must be finite")
    return grid


@dataclass
class _ChainRun:
    """Raw output of the tempered-ensemble engine."""

    beta_grid: np.ndarray
    series: np.ndarray  # (n_chains, kept sweeps): post-burn-in total energy per sweep
    snapshots: np.ndarray  # (n_chains, kept, n_replicas, N)
    accept_rates: np.ndarray
    swap_rates: np.ndarray
    step_sizes: np.ndarray  # (n_chains, n_species)
    flags: list[str]
    final_coords: np.ndarray  # (n_chains, n_replicas, N)
    proposal_counts: np.ndarray  # per chain, post-burn-in


_INIT_BATCH = 200  # band candidates drawn per rejection round
_INIT_ROUNDS = 100  # rounds before initialization gives up


def _init_replicas(layout: SpeciesLayout, band: BandSpec | None, n_chains: int,
                   n_replicas: int, rng: np.random.Generator) -> np.ndarray:
    """Starting tuples, shape (n_chains, n_replicas, N): uniform on S_N, or
    uniform on the band with pairwise rejection when the run is constrained."""
    if band is None:
        return sample_uniform_batch(layout, n_chains * n_replicas, rng).reshape(
            n_chains, n_replicas, layout.n)
    q_center = band.center.self_overlap().as_array()
    out = np.empty((n_chains, n_replicas, layout.n))
    out[:, 0] = sample_uniform_in_band_batch(band.center, band.delta, n_chains, rng)
    for c in range(n_chains):
        for r in range(1, n_replicas):
            for _ in range(_INIT_ROUNDS):
                cand = sample_uniform_in_band_batch(band.center, band.delta, _INIT_BATCH, rng)
                ov = species_overlaps(cand[:, None, :], out[c, :r], layout)
                ok = np.all(np.abs(ov - q_center) <= band.rho, axis=(1, 2))
                if ok.any():
                    out[c, r] = cand[np.argmax(ok)]
                    break
            else:
                raise ValueError(
                    "could not initialize replicas inside the pairwise constraint; "
                    "the constrained set is too small for rejection sampling")
    return out


def _group_sampler(rngs, method):
    """shape -> method(rng, shape) for each instance's generator, concatenated
    along the first axis; a group fills the blocks of one array in place."""
    if len(rngs) == 1:
        return functools.partial(method, rngs[0])

    def draw(shape):
        out = np.empty((len(rngs),) + shape)
        for block, rng in zip(out, rngs):
            method(rng, out=block)
        return out.reshape((-1,) + shape[1:])
    return draw


def _run_group(hs, beta_grid: np.ndarray, steps: int, rngs, n_replicas: int = 1,
               band: BandSpec | None = None, keep_snapshots: bool = True) -> list[_ChainRun]:
    """Replica-exchange Metropolis over the beta grid, batched over a group
    of instances that share mixture terms and layout, and over chains.

    Proposals update one species block of one replica at a time, on every
    chain of every instance at once: a tangent Gaussian step re-projected to
    the block sphere (for single-coordinate blocks, a lazy sign flip).  Both
    kernels are symmetric, so acceptance is min(1, 1_constraints *
    exp(beta dH)).  After each sweep, neighbouring chains (even pairs on even
    sweeps, odd pairs on odd sweeps) swap states when
    log u < (beta_{c+1} - beta_c)(E_c - E_{c+1}).  Instance k draws all its
    randomness from rngs[k], as whole arrays over the chain axis in a fixed
    order, so its run depends only on its own seed, not on the group.
    Without keep_snapshots no thinned states are kept (snapshots hold zero
    per chain), so a large group holds only its energy series.

    The state arrays have one row per (instance, chain), instance-major, so
    a group of one is laid out exactly as a single run.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    group = stack_instances(hs)
    layout = group.layout
    slices = layout.slices
    k = group.size
    n_chains = beta_grid.size
    n_rows = k * n_chains
    betas = np.tile(beta_grid, k)
    every_row = np.ones(n_rows, dtype=bool)
    q_center = m_coords = None
    if band is not None:
        q_center = band.center.self_overlap().as_array()
        m_coords = band.center.coords
    coords = np.concatenate([_init_replicas(layout, band, n_chains, n_replicas, rng)
                             for rng in rngs])
    energies = group_energies(group, coords.reshape(k, -1, layout.n)).reshape(
        n_rows, n_replicas)
    step_sizes = np.full((n_rows, layout.n_species), 0.5)
    burn = steps // 3
    thin = max(1, -(-(steps - burn) // _MAX_KEPT_SAMPLES))
    kept = len(range(0, steps - burn, thin)) if keep_snapshots else 0
    series = np.empty((n_rows, steps - burn))
    snapshots = np.empty((n_rows, kept, n_replicas, layout.n))
    prop_count = np.zeros(n_rows, dtype=int)
    acc_count = np.zeros(n_rows, dtype=int)
    swap_tries = np.zeros((k, max(n_chains - 1, 1)), dtype=int)
    swap_accepts = np.zeros((k, max(n_chains - 1, 1)), dtype=int)
    # left chain of each pair tried on even and on odd sweeps, and its rows
    swap_lo = [np.arange(parity, n_chains - 1, 2) for parity in (0, 1)]
    swap_rows = [(lo + n_chains * np.arange(k)[:, None]).reshape(-1) for lo in swap_lo]

    uniforms = _group_sampler(rngs, np.random.Generator.random)
    normals = _group_sampler(rngs, np.random.Generator.standard_normal)
    for t in range(steps):
        adapting = t < burn
        for r in range(n_replicas):
            others = [r2 for r2 in range(n_replicas) if r2 != r]
            for s, sl in enumerate(slices):
                d = layout.sizes[s]
                x = coords[:, r, sl]
                if d == 1:
                    moved = uniforms((n_chains,)) < 0.5
                    y = np.where(moved[:, None], -x, x)
                else:
                    g = normals((n_chains, d))
                    v = g - (np.einsum("ij,ij->i", g, x) / d)[:, None] * x
                    y = x + step_sizes[:, s, None] * v
                    y *= np.sqrt(d / np.einsum("ij,ij->i", y, y))[:, None]
                    moved = every_row
                props = coords[:, r].copy()
                props[:, sl] = y
                prop_e = group_energies(group, props.reshape(k, n_chains, -1)).reshape(n_rows)
                log_u = np.log(np.maximum(uniforms((n_chains,)), 1e-300))
                ok = moved
                if band is not None:
                    rsm = species_overlaps(props, m_coords, layout)[:, s]
                    ok = ok & (np.abs(rsm - q_center[s]) <= band.delta)
                    if others:
                        rss = species_overlaps(props[:, None, :], coords[:, others],
                                               layout)[..., s]
                        ok &= np.all(np.abs(rss - q_center[s]) <= band.rho, axis=1)
                accepted = ok & (log_u < betas * (prop_e - energies[:, r]))
                coords[:, r, sl] = np.where(accepted[:, None], y, x)
                energies[:, r] = np.where(accepted, prop_e, energies[:, r])
                if not adapting:
                    prop_count += moved
                    acc_count += accepted
                elif d > 1:
                    step_sizes[:, s] = np.clip(
                        step_sizes[:, s] * np.exp(0.1 * (accepted - _TARGET_ACCEPT)),
                        1e-4, 10.0)
        if n_replicas > 1:
            # synchronized sign flips keep pairwise overlaps invariant, so
            # they connect components that single-replica flips cannot reach
            for s, sl in enumerate(slices):
                if layout.sizes[s] != 1:
                    continue
                flip = uniforms((n_chains,)) < 0.5
                props = coords.copy()
                props[:, :, sl] = -props[:, :, sl]
                prop_e = group_energies(group, props.reshape(k, -1, layout.n)).reshape(
                    n_rows, n_replicas)
                log_u = np.log(np.maximum(uniforms((n_chains,)), 1e-300))
                ok = flip
                if band is not None:
                    rsm = species_overlaps(props, m_coords, layout)[..., s]
                    ok = ok & np.all(np.abs(rsm - q_center[s]) <= band.delta, axis=1)
                dlt = prop_e.sum(axis=1) - energies.sum(axis=1)
                accepted = ok & (log_u < betas * dlt)
                coords[accepted] = props[accepted]
                energies[accepted] = prop_e[accepted]
        if n_chains > 1:
            lo, rows = swap_lo[t % 2], swap_rows[t % 2]
            log_u = np.log(np.maximum(uniforms(lo.shape), 1e-300))
            totals = energies.sum(axis=1)
            gain = (betas[rows + 1] - betas[rows]) * (totals[rows] - totals[rows + 1])
            accepted = log_u < gain
            a = rows[accepted]
            pair = np.concatenate([a, a + 1])
            swapped = np.concatenate([a + 1, a])
            coords[pair] = coords[swapped]
            energies[pair] = energies[swapped]
            if not adapting:
                swap_tries[:, lo] += 1
                swap_accepts[:, lo] += accepted.reshape(k, -1)
        if not adapting:
            series[:, t - burn] = energies.sum(axis=1)
            if kept and (t - burn) % thin == 0:
                snapshots[:, (t - burn) // thin] = coords

    accept_rates = np.where(prop_count > 0, acc_count / np.maximum(prop_count, 1), 1.0)
    with np.errstate(invalid="ignore"):
        swap_rates = np.where(swap_tries > 0, swap_accepts / np.maximum(swap_tries, 1), 1.0)
    runs = []
    for i in range(k):
        chains = slice(i * n_chains, (i + 1) * n_chains)
        flags = []
        if np.any(accept_rates[chains] < _MOVE_FLAG_RATE):
            flags.append("move-acceptance-low")
        if n_chains > 1 and np.any(swap_rates[i, : n_chains - 1] < _SWAP_FLAG_RATE):
            flags.append("swap-acceptance-low")
        runs.append(_ChainRun(
            beta_grid=beta_grid,
            series=series[chains],
            snapshots=snapshots[chains],
            accept_rates=accept_rates[chains],
            swap_rates=swap_rates[i, : max(n_chains - 1, 0)],
            step_sizes=step_sizes[chains],
            flags=flags,
            final_coords=coords[chains],
            proposal_counts=prop_count[chains],
        ))
    return runs


def _run_chains(h: HamiltonianInstance, beta_grid: np.ndarray, steps: int,
                rng: np.random.Generator, n_replicas: int = 1,
                band: BandSpec | None = None) -> _ChainRun:
    """One instance's tempered run: the group-of-one case of _run_group."""
    return _run_group([h], beta_grid, steps, [rng], n_replicas, band)[0]


def pt_sampler(h: HamiltonianInstance, beta_grid, steps: int,
               rng: np.random.Generator) -> PTResult:
    """Replica-exchange Metropolis sampler for the Gibbs measures e^{beta H}."""
    grid = _check_beta_grid(beta_grid)
    run = _run_chains(h, grid, steps, rng)
    chains = tuple(
        GibbsChainState(
            current=Configuration(run.final_coords[c, 0], h.layout),
            beta_index=c,
            step_sizes=tuple(float(v) for v in run.step_sizes[c]),
            accept_rate=float(run.accept_rates[c]),
            proposals=int(run.proposal_counts[c]),
        )
        for c in range(grid.size))
    return PTResult(
        beta_grid=tuple(float(b) for b in grid),
        samples=tuple(snap[:, 0, :] for snap in run.snapshots),
        energies=tuple(run.series),
        accept_rates=tuple(float(v) for v in run.accept_rates),
        swap_rates=tuple(float(v) for v in run.swap_rates),
        flags=tuple(run.flags),
        chains=chains,
    )


def _block_std_error(series: np.ndarray) -> float:
    """Standard error of the series mean from ~20 contiguous block means."""
    n = len(series)
    if n < 2:
        return 0.0
    n_blocks = min(20, n)
    means = np.array([b.mean() for b in np.array_split(series, n_blocks)])
    return float(means.std(ddof=1) / math.sqrt(n_blocks))


def _simpson_with_error(means: np.ndarray, ses: np.ndarray,
                        grid: np.ndarray) -> tuple[float, float]:
    """Simpson integral plus error: propagated node SEs through the Simpson
    weights, plus a grid-resolution term |Simpson - trapezoid|."""
    if grid.size == 1:
        return 0.0, 0.0
    value = float(simpson(means, x=grid))
    weights = np.array([
        float(simpson(np.eye(grid.size)[k], x=grid)) for k in range(grid.size)
    ])
    mc_term = math.sqrt(float(np.sum((weights * ses) ** 2)))
    grid_term = abs(value - float(np.trapezoid(means, grid)))
    return value, mc_term + grid_term


def _ti_tail(run: _ChainRun, offset: float, scale: float, meta: dict) -> tuple[float, float]:
    """Simpson integral over the beta grid of the node means
    (mean total energy - offset) / scale, with its error.  Records the
    per-node means and SEs, the sampler rates and the run's flags in meta."""
    means = np.array([(s.mean() - offset) / scale for s in run.series])
    ses = np.array([_block_std_error(s) / scale for s in run.series])
    value, err = _simpson_with_error(means, ses, run.beta_grid)
    meta.update({
        "node_means": [float(v) for v in means],
        "node_std_errors": [float(v) for v in ses],
        "samples_per_node": int(run.series.shape[1]),
        "accept_rates": [float(v) for v in run.accept_rates],
        "swap_rates": [float(v) for v in run.swap_rates],
        "flags": meta["flags"] + list(run.flags),
    })
    return float(value), float(err)


def fe_thermo_integration_many(hs, beta_grid, steps: int,
                               rngs) -> list[FreeEnergyEstimate]:
    """fe_thermo_integration of each instance of a group that shares mixture
    terms and layout, with rngs[k] the generator of instance k.  The chains
    of every instance advance together; each estimate equals the one the
    instance gets on its own with the same generator."""
    grid = _check_beta_grid(beta_grid)
    hs, rngs = list(hs), list(rngs)
    if len(hs) != len(rngs):
        raise ValueError("need one generator per instance")
    if grid.size == 1:
        return [FreeEnergyEstimate(0.0, 0.0, "thermo-integration",
                                   {"beta_grid": [0.0], "sweeps": 0, "flags": []})
                for _ in hs]
    n = hs[0].layout.n
    estimates = []
    for run in _run_group(hs, grid, steps, rngs, keep_snapshots=False):
        meta = {"beta_grid": [float(b) for b in grid], "sweeps": steps, "flags": []}
        value, err = _ti_tail(run, 0.0, n, meta)
        estimates.append(FreeEnergyEstimate(value, err, "thermo-integration", meta))
    return estimates


def fe_thermo_integration(h: HamiltonianInstance, beta_grid, steps: int,
                          rng: np.random.Generator) -> FreeEnergyEstimate:
    """F at the last grid beta, as the integral of the mean energy per spin.

    dF/dbeta = <H>_beta / N, so Simpson over tempered-chain node means gives
    F; the error combines per-node Monte Carlo SEs with the Simpson-vs-
    trapezoid grid term.
    """
    return fe_thermo_integration_many([h], beta_grid, steps, [rng])[0]


def restricted_fe(h: HamiltonianInstance, m: Configuration, delta: float,
                  beta_grid, steps: int, rng: np.random.Generator) -> FreeEnergyEstimate:
    """Band free energy: (1/N) log of the integral of e^{H(s)-H(m)} over
    B(m, delta), the one-replica case of multi_replica_fe.

    Thermodynamic integration with band-rejecting proposals plus the exact
    uniform band volume: at beta = 0 the restricted chain is uniform on the
    band and the free energy is (1/N) log mu(B(m, delta)) exactly.
    """
    return multi_replica_fe(h, BandSpec(m, delta), beta_grid, steps, rng)


def wilson_interval(hits: int, trials: int, z: float = 1.0) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (z = 1 is one SE)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_hat = hits / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def multi_replica_fe(h: HamiltonianInstance, spec: BandSpec, beta_grid,
                     steps: int, rng: np.random.Generator) -> FreeEnergyEstimate:
    """Coupled-replica band free energy (1/(Nn)) log of the integral of
    exp(sum_i H(s^i) - H(m)) over tuples in the band with pairwise-overlap
    constraints.

    Decomposition at beta = 0: exact band volume per replica plus the
    log-probability that an i.i.d. uniform band tuple satisfies the pairwise
    constraint (estimated with a Wilson interval; absent for one replica);
    the beta dependence is recovered by thermodynamic integration of the
    constrained joint chain.
    """
    grid = _check_beta_grid(beta_grid)
    layout = h.layout
    m = spec.center
    if m.layout != layout:
        raise ValueError("band center layout does not match instance")
    q = m.self_overlap().as_array()
    if np.any(q > 1.0 + 1e-9):
        raise ValueError("band center must lie in the closed ball")
    log_vol = log_band_volume(layout, np.clip(q, 0.0, 1.0), spec.delta)  # raises unless delta > 0
    h_at_m = energy(h, m)
    n = layout.n
    n_rep = spec.n
    meta = {
        "beta_grid": [float(b) for b in grid],
        "sweeps": steps,
        "replicas": n_rep,
        "delta": float(spec.delta),
        "rho": float(spec.rho),
        "log_band_volume": float(log_vol),
        "center_energy": float(h_at_m),
        "flags": [],
    }
    pair_term = pair_term_se = 0.0
    if n_rep > 1:
        trials = 4000
        tuples = sample_uniform_in_band_batch(m, spec.delta, trials * n_rep, rng).reshape(
            trials, n_rep, n)
        i, j = np.triu_indices(n_rep, 1)
        pair_ov = species_overlaps(tuples[:, i], tuples[:, j], layout)
        hits = int(np.all(np.abs(pair_ov - q) <= spec.rho, axis=(1, 2)).sum())
        if hits == 0:
            pair_log = math.log(0.5 / trials)
            pair_se = abs(pair_log)
            meta["flags"].append("zero-hit-floor")
        else:
            lo, hi = wilson_interval(hits, trials)
            pair_log = math.log(hits / trials)
            pair_se = 0.5 * (math.log(hi) - math.log(max(lo, 1e-300)))
        pair_term = pair_log / (n * n_rep)
        pair_term_se = pair_se / (n * n_rep)
        meta.update({"pairwise_log_prob": float(pair_log), "pairwise_hits": hits,
                     "pairwise_trials": trials})

    if grid.size == 1 or "zero-hit-floor" in meta["flags"]:
        if grid.size > 1:
            meta["flags"].append("initialization-skipped")
        return FreeEnergyEstimate(float(log_vol + pair_term), float(pair_term_se),
                                  "thermo-integration", meta)

    run = _run_chains(h, grid, steps, rng, n_replicas=n_rep, band=spec)
    integral, err = _ti_tail(run, n_rep * h_at_m, n * n_rep, meta)
    return FreeEnergyEstimate(float(log_vol + pair_term + integral),
                              float(err + pair_term_se), "thermo-integration", meta)


def _replica_samples(h: HamiltonianInstance, n: int, beta_grid, steps: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, list[str]]:
    """Thinned states at the last grid beta of n independent tempered runs on
    h, shape (n, kept, N), and their flags: one group of n rows sharing h's
    blocks, run i equal to pt_sampler on the i-th generator spawned from rng."""
    grid = _check_beta_grid(beta_grid)
    runs = _run_group([h] * n, grid, steps, rng.spawn(n))
    return (np.stack([run.snapshots[-1, :, 0] for run in runs]),
            [f for run in runs for f in run.flags])


def multisamplability_records(h: HamiltonianInstance, q, n: int, eps_grid,
                              beta_grid, steps: int, rng: np.random.Generator) -> list[dict]:
    """multisamplability_record at every eps of eps_grid, scored on one draw
    of n replicas, so hits are non-decreasing in eps.  An eps >= 2 is
    vacuous (every tuple qualifies) and gives value 0 with no samples."""
    if n < 2:
        raise ValueError("need at least two replicas")
    layout = h.layout
    qv = as_overlap_array(q, layout.n_species)
    eps_grid = [float(eps) for eps in eps_grid]
    if any(eps < 2.0 for eps in eps_grid):
        samples, run_flags = _replica_samples(h, n, beta_grid, steps, rng)
        counts = samples.shape[1]
        i, j = np.triu_indices(n, 1)
        # worst pairwise species deviation from q, per sample tuple
        worst = np.abs(species_overlaps(samples[i], samples[j], layout) - qv).max(axis=(0, 2))
    records = []
    for eps in eps_grid:
        if eps >= 2.0:
            records.append({"value": 0.0, "hits": None, "samples": None,
                            "flags": ["vacuous"], "eps": eps, "replicas": n})
            continue
        hits = int(np.count_nonzero(worst < eps))
        lo, hi = wilson_interval(hits, counts) if hits else (None, None)
        records.append({
            # with no hit, the floor counts half a hit
            "value": math.log(max(hits, 0.5) / counts) / layout.n,
            "hits": hits,
            "samples": counts,
            "wilson_low": lo,
            "wilson_high": hi,
            "flags": sorted(set(run_flags + (["zero-hit-floor"] if hits == 0 else []))),
            "eps": eps,
            "replicas": n,
            "beta": float(beta_grid[-1]),
        })
    return records


def multisamplability_record(h: HamiltonianInstance, q, n: int, eps: float,
                             beta_grid, steps: int, rng: np.random.Generator) -> dict:
    """Empirical (1/N) log G^(x)n-probability that n independent Gibbs samples
    have all pairwise species overlaps within eps of q, with diagnostics: the
    one-eps case of multisamplability_records."""
    return multisamplability_records(h, q, n, [eps], beta_grid, steps, rng)[0]


def multisamplability_profile(h: HamiltonianInstance, q, n: int, eps: float,
                              beta_grid, steps: int, rng: np.random.Generator) -> float:
    """Value-only view of multisamplability_record."""
    return multisamplability_record(h, q, n, eps, beta_grid, steps, rng)["value"]


def _require_corner(h: HamiltonianInstance):
    if any(d != 1 for d in h.layout.sizes):
        raise ValueError("enumeration requires every species to have one coordinate")


def exact_fe_enumeration(h: HamiltonianInstance) -> FreeEnergyEstimate:
    """Exact free energy when each species block is {-1, +1}: the average of
    e^H over all sign patterns."""
    _require_corner(h)
    n = h.layout.n
    energies = energy_many(h, sign_patterns(n))
    value = (float(logsumexp(energies)) - n * math.log(2.0)) / n
    return FreeEnergyEstimate(value, 0.0, "enumeration",
                              {"n_configurations": int(2**n)})


def _enum_band(h: HamiltonianInstance, m: Configuration, delta: float):
    """Sign patterns inside B(m, delta) with their centered energies."""
    _require_corner(h)
    if m.layout != h.layout:
        raise ValueError("band center layout does not match instance")
    n = h.layout.n
    patterns = sign_patterns(n)
    q = m.self_overlap().as_array()
    in_band = np.all(np.abs(patterns * m.coords - q) <= delta, axis=1)
    centered = energy_many(h, patterns) - energy(h, m)
    return patterns, centered, in_band, q


def exact_restricted_fe_enumeration(h: HamiltonianInstance, m: Configuration,
                                    delta: float) -> FreeEnergyEstimate:
    """Exact band free energy at corner scale."""
    _, centered, in_band, _ = _enum_band(h, m, delta)
    n = h.layout.n
    if not np.any(in_band):
        value = -math.inf
    else:
        value = (float(logsumexp(centered[in_band])) - n * math.log(2.0)) / n
    return FreeEnergyEstimate(value, 0.0, "enumeration",
                              {"n_configurations": int(in_band.sum())})


def _enum_pair_allowed(patterns: np.ndarray, idx: np.ndarray, q: np.ndarray,
                       rho: float) -> np.ndarray:
    """Boolean matrix over band patterns: pairwise overlaps within rho of q."""
    sel = patterns[idx]
    allowed = np.ones((len(idx), len(idx)), dtype=bool)
    for s in range(patterns.shape[1]):
        prod = np.outer(sel[:, s], sel[:, s])
        allowed &= np.abs(prod - q[s]) <= rho
    return allowed


def _enum_constrained_logsum(centered: np.ndarray, allowed: np.ndarray, n_rep: int) -> float:
    """log sum over allowed replica tuples of exp(sum of centered energies)."""
    b = len(centered)
    if n_rep == 2:
        pair = centered[:, None] + centered[None, :]
        masked = np.where(allowed, pair, -np.inf)
        return float(logsumexp(masked.ravel()))
    total = -math.inf
    for tup in itertools.product(range(b), repeat=n_rep):
        ok = all(allowed[tup[i], tup[j]]
                 for i in range(n_rep) for j in range(i + 1, n_rep))
        if ok:
            total = float(np.logaddexp(total, sum(centered[k] for k in tup)))
    return total


def exact_multi_replica_fe_enumeration(h: HamiltonianInstance,
                                       spec: BandSpec) -> FreeEnergyEstimate:
    """Exact coupled-replica band free energy at corner scale."""
    patterns, centered, in_band, q = _enum_band(h, spec.center, spec.delta)
    n = h.layout.n
    idx = np.flatnonzero(in_band)
    if idx.size == 0:
        return FreeEnergyEstimate(-math.inf, 0.0, "enumeration", {"n_configurations": 0})
    if spec.n == 1:
        return exact_restricted_fe_enumeration(h, spec.center, spec.delta)
    allowed = _enum_pair_allowed(patterns, idx, q, spec.rho)
    log_sum = _enum_constrained_logsum(centered[idx], allowed, spec.n)
    value = (log_sum - spec.n * n * math.log(2.0)) / (n * spec.n)
    return FreeEnergyEstimate(float(value), 0.0, "enumeration",
                              {"n_configurations": int(idx.size), "replicas": spec.n})


def exact_penalty_enumeration(h: HamiltonianInstance, spec: BandSpec) -> float:
    """(1/(Nn)) log of the conditional Gibbs probability that n band replicas
    satisfy the pairwise constraint, exactly at corner scale."""
    patterns, centered, in_band, q = _enum_band(h, spec.center, spec.delta)
    idx = np.flatnonzero(in_band)
    if idx.size == 0:
        raise ValueError("empty band")
    allowed = _enum_pair_allowed(patterns, idx, q, spec.rho)
    log_joint = _enum_constrained_logsum(centered[idx], allowed, spec.n)
    log_single = float(logsumexp(centered[idx]))
    return (log_joint - spec.n * log_single) / (h.layout.n * spec.n)


def _species_quadrature(d: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (rows, scaled to radius sqrt(d)) and log-weights of the uniform
    measure on the d-sphere-block, exact for d=1, spectrally convergent
    (periodic trapezoid) for d=2, Gauss-Legendre x azimuth for d=3."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.full(2, math.log(0.5))
    if d == 2:
        theta = 2.0 * math.pi * np.arange(nodes) / nodes
        pts = math.sqrt(2.0) * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return pts, np.full(nodes, -math.log(nodes))
    if d == 3:
        z, wz = np.polynomial.legendre.leggauss(nodes)
        phi = 2.0 * math.pi * np.arange(nodes) / nodes
        rad = np.sqrt(1.0 - z**2)
        pts = np.empty((nodes * nodes, 3))
        logw = np.empty(nodes * nodes)
        k = 0
        for i in range(nodes):
            for j in range(nodes):
                pts[k] = math.sqrt(3.0) * np.array(
                    [rad[i] * math.cos(phi[j]), rad[i] * math.sin(phi[j]), z[i]])
                logw[k] = math.log(wz[i] / 2.0) - math.log(nodes)
                k += 1
        return pts, logw
    raise ValueError("quadrature supports species blocks of size at most 3")


def _quadrature_value(h: HamiltonianInstance, nodes_per_angle: int) -> float:
    layout = h.layout
    grids = [_species_quadrature(d, nodes_per_angle) for d in layout.sizes]
    counts = [len(g[0]) for g in grids]
    index_mesh = np.stack(
        np.meshgrid(*[np.arange(c) for c in counts], indexing="ij"),
        axis=0).reshape(layout.n_species, -1)
    total = index_mesh.shape[1]
    coords = np.empty((total, layout.n))
    logw = np.zeros(total)
    for s, sl in enumerate(layout.slices):
        pts, lw = grids[s]
        coords[:, sl] = pts[index_mesh[s]]
        logw += lw[index_mesh[s]]
    log_terms = np.empty(total)
    chunk = 1 << 16
    for lo in range(0, total, chunk):
        log_terms[lo:lo + chunk] = (
            logw[lo:lo + chunk] + energy_many(h, coords[lo:lo + chunk]))
    return float(logsumexp(log_terms)) / layout.n


def exact_fe_quadrature(h: HamiltonianInstance, nodes_per_angle: int) -> FreeEnergyEstimate:
    """Deterministic tensor-product quadrature of the free-energy integral
    for small blocks (each species size <= 3, at most 6 angular dimensions)."""
    if any(d > 3 for d in h.layout.sizes):
        raise ValueError("quadrature supports species blocks of size at most 3")
    if sum(d - 1 for d in h.layout.sizes) > 6:
        raise ValueError("total angular dimension exceeds 6")
    if nodes_per_angle < 2:
        raise ValueError("need at least 2 nodes per angle")
    value = _quadrature_value(h, nodes_per_angle)
    coarse = _quadrature_value(h, max(2, nodes_per_angle // 2))
    return FreeEnergyEstimate(value, 0.0, "quadrature", {
        "nodes_per_angle": int(nodes_per_angle),
        "coarse_grid_delta": float(value - coarse),
    })
