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

from .geometry import (
    BandSpec,
    Configuration,
    _check_pattern_budget,
    log_band_volume,
    sample_uniform_batch,
    sample_uniform_in_band_batch,
    sign_patterns,
    species_overlaps,
)
from .hamiltonian import (
    DEFAULT_MEMORY_BUDGET,
    HamiltonianInstance,
    energy,
    energy_many,
    group_energies,
    stack_instances,
)
from .mixture import SpeciesLayout, as_overlap_array

__all__ = [
    "FreeEnergyEstimate",
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
    "multisamplability_records",
    "wilson_interval",
]

_METHODS = ("enumeration", "quadrature", "thermo-integration")
_TARGET_ACCEPT = 0.4  # proposal scale adaptation target during burn-in
_SWAP_FLAG_RATE = 0.05
_MOVE_FLAG_RATE = 1e-3
_MAX_KEPT_SAMPLES = 512
_RANDOM_CHUNK = 16  # sweeps whose randomness an instance draws in one pair of arrays


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
class PTResult:
    """One instance's replica-exchange run over the beta grid, one row per
    chain: energy series, thinned states and sampler diagnostics."""

    beta_grid: np.ndarray
    series: np.ndarray  # (n_chains, kept sweeps): post-burn-in total energy per sweep
    snapshots: np.ndarray  # (n_chains, kept, n_replicas, N)
    accept_rates: np.ndarray
    swap_rates: np.ndarray
    step_sizes: np.ndarray  # (n_chains, n_species)
    flags: list[str]
    final_coords: np.ndarray  # (n_chains, n_replicas, N)
    proposal_counts: np.ndarray  # per chain, post-burn-in


def _check_series_budget(rows: int, steps: int) -> None:
    """Refuse an energy series of over DEFAULT_MEMORY_BUDGET (chain, kept sweep) entries."""
    if rows * (steps - steps // 3) > DEFAULT_MEMORY_BUDGET:
        raise ValueError(f"{rows} chains x {steps} sweeps keep a series over the budget")


def _init_replicas(layout: SpeciesLayout, n_chains: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Uniform starting states on S_N, shape (n_chains, 1, N)."""
    return sample_uniform_batch(layout, n_chains, rng).reshape(n_chains, 1, layout.n)


def _thinning(steps: int) -> tuple[int, int]:
    """Thinning stride and thinned states kept per chain for a run of steps
    sweeps: at most _MAX_KEPT_SAMPLES, evenly spaced after the burn-in third."""
    n = steps - steps // 3
    thin = max(1, -(-n // _MAX_KEPT_SAMPLES))
    return thin, len(range(0, n, thin))


def _check_kept_budget(rows: int, steps: int, size: int, what: str) -> None:
    """Refuse arrays of over DEFAULT_MEMORY_BUDGET (row, kept state, entry)
    entries, with the thinned states a run of steps sweeps keeps per chain:
    the states of every chain, or the overlaps of every replica pair."""
    kept = _thinning(steps)[1]
    if rows * kept * size > DEFAULT_MEMORY_BUDGET:
        raise ValueError(f"{rows} {what} x {kept} kept states x {size} entries "
                         "are over the budget")


def _rounds(n_replicas: int, n_species: int) -> list[list[tuple[int, int]]]:
    """The (replica, block) moves of a sweep in rounds of commuting moves:
    move (r, s) runs in round (r + s) % max(n_replicas, n_species), so a
    round moves distinct blocks of distinct replicas, in ascending replica
    order.  With one replica, round j moves block j."""
    n_rounds = max(n_replicas, n_species)
    return [[(r, (j - r) % n_rounds) for r in range(n_replicas) if (j - r) % n_rounds < n_species]
            for j in range(n_rounds)]


def _block_runs(layout: SpeciesLayout) -> list[tuple[int, slice, slice]]:
    """(d, blocks, coordinates) of each run of consecutive blocks of one size d > 1."""
    runs = [(d, list(b)) for d, b in
            itertools.groupby(range(layout.n_species), layout.sizes.__getitem__)]
    return [(d, slice(b[0], b[-1] + 1), slice(layout.starts[b[0]], layout.slices[b[-1]].stop))
            for d, b in runs if d > 1]


@functools.lru_cache(maxsize=16)
def _band_tolerances(n: int, delta: float, rho: float) -> np.ndarray:
    """Read-only tolerances (n, 1 + n, 1) of n replicas against the center and
    the replicas: delta to the center, rho to every other replica, none to itself."""
    tol = np.where(np.eye(n, n + 1, 1, dtype=bool), np.inf, [delta] + [rho] * n)[..., None]
    tol.setflags(write=False)
    return tol


def _round_within(band: BandSpec, props: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Whether each replica's proposal in props (rows, n, N) stays in the band
    and within rho of every other replica in held, the center then the
    replicas (rows, 1 + n, N).  For moves of distinct blocks from a tuple that
    holds the band and the pair rule, this decides each move as contains and
    pairs_within on the whole tuple it proposes."""
    m = band.center
    dev = np.abs(species_overlaps(props[:, :, None], held[:, None], m.layout) - m.self_overlap())
    return (dev <= _band_tolerances(props.shape[1], band.delta, band.rho)).all(axis=(-2, -1))


def _run_group(hs, beta_grid: np.ndarray, steps: int, rngs, band: BandSpec | None = None,
               starts: np.ndarray | None = None, keep_snapshots: bool = True) -> list[PTResult]:
    """Replica-exchange Metropolis over the beta grid, batched over a group
    of instances that share mixture terms and layout, and over chains.

    A sweep moves each block of each replica once, in the rounds of _rounds.
    A round is one Metropolis step on every chain of every instance, accepted
    per (row, replica) with min(1, 1_constraints * exp(beta dH)); its moves
    commute, so it decides as they would one at a time.  A block move is a
    tangent Gaussian step, from the state and step size at the start of the
    sweep, re-projected to the block sphere (for single-coordinate blocks, a
    lazy sign flip), checked by _round_within.  Coupled replicas also flip
    single-coordinate blocks together.  After each sweep,
    neighbouring chains (even pairs on even sweeps, odd pairs on odd sweeps)
    swap states when log u < (beta_{c+1} - beta_c)(E_c - E_{c+1}).  A band
    run couples band.n replicas and starts from the given tuples, shape
    (rows, band.n, N), which must hold the band and the pairwise rule.  An
    unconstrained run has one replica, started uniform on S_N by
    _init_replicas.  Without keep_snapshots no thinned states are kept
    (snapshots hold zero per chain), so a large group holds only its energy
    series.  A series or set of kept states over the memory budget is
    refused before anything is allocated.

    Instance k draws all its randomness from rngs[k], one generator per
    instance, so its run does not depend on the group.  Every _RANDOM_CHUNK
    sweeps (C, fewer at the end) it draws normals z (C, replicas, chains, N),
    then uniforms (C, rows, chains).  Block s of replica r proposes from block
    s of z[c, r]; a sweep's uniform rows follow its moves: per round and per
    moving replica in ascending order a flip decision (one-coordinate
    blocks) and the accept, then the coupled flips' decisions and accepts,
    then the swap, on the first entries of its row.  Accepts and swaps
    compare against log(max(u, 1e-300)).

    The state arrays have one row per (instance, chain), instance-major, so
    a group of one is laid out exactly as a single run.  A band run holds the
    center in front of its replicas, (rows, 1 + n, N), for the swap to permute
    and _round_within to read.  Proposals read runs of equal-size blocks as views.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if len(rngs) != len(hs):
        raise ValueError("need one generator per instance")
    _check_series_budget(len(hs) * beta_grid.size, steps)
    group = stack_instances(hs)
    layout = group.layout
    k = group.size
    n_chains = beta_grid.size
    n_rows = k * n_chains
    betas = np.tile(beta_grid, k)[:, None]
    n_replicas = 1 if band is None else band.n
    if band is not None and np.shape(starts) != (n_rows, n_replicas, layout.n):
        raise ValueError("a band run needs starting tuples of shape "
                         f"{(n_rows, n_replicas, layout.n)}")
    if keep_snapshots:
        _check_kept_budget(n_rows, steps, n_replicas * layout.n, "chains")
    if band is None:
        held = np.concatenate([_init_replicas(layout, n_chains, rng) for rng in rngs])
    else:
        held = np.insert(np.asarray(starts, dtype=float), 0, band.center.coords, axis=1)
        if not (band.contains(held[:, 1:]).all() and band.tuples_within(held[:, 1:]).all()):
            raise ValueError("band starts must lie in the band and satisfy the pairwise rule")
    coords = held[:, -n_replicas:]
    energies = group_energies(group, coords.reshape(k, -1, layout.n)).reshape(
        n_rows, n_replicas)
    step_sizes = np.full((n_rows, layout.n_species), 0.5)
    burn = steps // 3
    thin, kept = _thinning(steps)
    kept = kept if keep_snapshots else 0
    series = np.empty((n_rows, steps - burn))
    snapshots = np.empty((n_rows, kept, n_replicas, layout.n))
    prop_count, acc_count = np.zeros((2, n_rows, n_replicas), dtype=int)
    swap_accepts = np.zeros((k, n_chains - 1), dtype=int)
    # per parity: rows of the pairs' left and right chains (off: each instance's
    # first row), swap uniforms, beta gaps and a view of the pairs' accept counts
    swaps, off = [], n_chains * np.arange(k)[:, None]
    for p in (0, 1):
        lo = np.arange(p, n_chains - 1, 2)
        rows = (lo + off).ravel()
        swaps.append((rows, rows + 1, (np.arange(lo.size) + off).ravel(),
                      np.tile(beta_grid[lo + 1] - beta_grid[lo], k), swap_accepts[:, p::2]))
    flips = [s for s, d in enumerate(layout.sizes) if d == 1]
    runs = _block_runs(layout)
    # per round: its moved coordinates (n, N), each replica's flip and accept
    # uniform rows, who flips (None: nobody), who moves, and the (replicas,
    # blocks) whose step sizes adapt
    table, n_u = [], 0
    for moves in _rounds(n_replicas, layout.n_species):
        mask = np.zeros((n_replicas, layout.n), dtype=bool)
        u_rows = np.zeros((2, n_replicas), dtype=int)
        for r, s in moves:
            mask[r, layout.slices[s]] = True
            u_rows[:, r] = n_u, n_u + (layout.sizes[s] == 1)
            n_u = u_rows[1, r] + 1
        flip = mask.sum(axis=1) == 1
        table.append((mask, u_rows, flip if flip.any() else None, mask.any(axis=1), np.array(
            [(r, s) for r, s in moves if layout.sizes[s] > 1], dtype=int).reshape(-1, 2).T))
    n_u += 2 * len(flips) * (n_replicas > 1) + 1

    def metropolis(props, ok, log_u):
        """Metropolis step to props (rows, n, N) where ok holds, per (row,
        replica); for log_u of one column and several replicas, per row."""
        prop_e = group_energies(group, props.reshape(k, -1, layout.n)).reshape(n_rows, -1)
        gain = prop_e - energies
        if log_u.shape[1] < n_replicas:
            gain = prop_e.sum(axis=1, keepdims=True) - energies.sum(axis=1, keepdims=True)
        accepted = ok & (log_u < betas * gain)
        np.copyto(coords, props, where=accepted[..., None])
        np.copyto(energies, prop_e, where=accepted)
        return accepted

    for t in range(steps):
        c = t % _RANDOM_CHUNK
        if c == 0:
            z = u = log_u = None  # drop the last chunk before the next
            size = min(_RANDOM_CHUNK, steps - t)
            z = np.empty((size, n_replicas, k, n_chains, layout.n))
            u = np.empty((size, n_u, k, n_chains))
            for i, rng in enumerate(rngs):
                z[:, :, i] = rng.standard_normal((size, n_replicas, n_chains, layout.n))
                u[:, :, i] = rng.random((size, n_u, n_chains))
            z = z.reshape(size, n_replicas, n_rows, layout.n).transpose(0, 2, 1, 3)
            u = u.reshape(size, n_u, n_rows)
            log_u = np.log(np.maximum(u, 1e-300))
        adapting = t < burn
        y = -coords  # the sign flips of one-coordinate blocks
        for d, blocks, cols in runs:
            x = coords[:, :, cols].reshape(n_rows, n_replicas, -1, d)
            g = z[c, :, :, cols].reshape(x.shape)
            v = g - (np.einsum("...j,...j->...", g, x) / d)[..., None] * x
            step = x + step_sizes[:, None, blocks, None] * v
            step *= np.sqrt(d / np.einsum("...j,...j->...", step, step))[..., None]
            y[:, :, cols] = step.reshape(n_rows, n_replicas, -1)
        for mask, u_rows, flip, moving, (adapt_r, adapt_s) in table:
            props = np.where(mask, y, coords)
            moved = moving if flip is None else np.where(flip, u[c, u_rows[0]].T < 0.5, moving)
            ok = moved if band is None else moved & _round_within(band, props, held)
            accepted = metropolis(props, ok, log_u[c, u_rows[1]].T)
            if not adapting:
                prop_count += moved
                acc_count += accepted
            elif adapt_r.size:
                step_sizes[:, adapt_s] = np.minimum(np.maximum(
                    step_sizes[:, adapt_s] * np.exp(0.1 * (accepted[:, adapt_r] - _TARGET_ACCEPT)),
                    1e-4), 10.0)
        if n_replicas > 1:
            # synchronized sign flips keep pairwise overlaps invariant, so
            # they connect components that single-replica flips cannot reach
            for row, s in zip(range(n_u - 1 - 2 * len(flips), n_u, 2), flips):
                props = coords.copy()
                props[:, :, layout.slices[s]] *= -1.0
                ok = (u[c, row] < 0.5) & band.contains(props).all(axis=1)
                metropolis(props, ok[:, None], log_u[c, row + 1, :, None])
        rows, right, u_at, gaps, swapped = swaps[t % 2]
        totals = energies[:, 0] if n_replicas == 1 else energies.sum(axis=1)
        accepted = log_u[c, -1, u_at] < gaps * (totals[rows] - totals[right])
        perm, a = np.arange(n_rows), rows[accepted]
        perm[a], perm[a + 1] = a + 1, a
        held, energies = held[perm], energies[perm]
        coords = held[:, -n_replicas:]
        if not adapting:
            swapped += accepted.reshape(k, -1)
            series[:, t - burn] = totals[perm]
            if kept and (t - burn) % thin == 0:
                snapshots[:, (t - burn) // thin] = coords

    # post-burn-in sweeps of each parity try the pairs whose left chain has it
    swap_tries = np.resize([(steps + 1) // 2 - (burn + 1) // 2, steps // 2 - burn // 2],
                           n_chains - 1)
    prop_count, acc_count = prop_count.sum(axis=1), acc_count.sum(axis=1)
    accept_rates = np.where(prop_count > 0, acc_count / np.maximum(prop_count, 1), 1.0)
    swap_rates = np.where(swap_tries > 0, swap_accepts / np.maximum(swap_tries, 1), 1.0)
    runs = []
    for i in range(k):
        chains = slice(i * n_chains, (i + 1) * n_chains)
        flags = []
        if np.any(accept_rates[chains] < _MOVE_FLAG_RATE):
            flags.append("move-acceptance-low")
        if np.any(swap_rates[i] < _SWAP_FLAG_RATE):
            flags.append("swap-acceptance-low")
        runs.append(PTResult(
            beta_grid=beta_grid,
            series=series[chains],
            snapshots=snapshots[chains],
            accept_rates=accept_rates[chains],
            swap_rates=swap_rates[i],
            step_sizes=step_sizes[chains],
            flags=flags,
            final_coords=coords[chains],
            proposal_counts=prop_count[chains],
        ))
    return runs


def pt_sampler(h: HamiltonianInstance, beta_grid, steps: int,
               rng: np.random.Generator) -> PTResult:
    """Replica-exchange Metropolis sampler for the Gibbs measures e^{beta H}."""
    return _run_group([h], _check_beta_grid(beta_grid), steps, [rng])[0]


@functools.lru_cache(maxsize=64)
def _simpson_weights(grid: tuple) -> np.ndarray:
    """Weights w with w @ y the composite Simpson integral of y over a grid
    of at least 2 points, the rule of scipy.integrate.simpson: parabolic
    panels for uneven spacing, and for an even point count panels over all
    but the last interval plus Cartwright's correction for it (two points:
    trapezoid)."""
    h = np.diff(np.asarray(grid, dtype=float))
    n = h.size + 1
    w = np.zeros(n)
    if n == 2:
        w[:] = 0.5 * h[0]
        return w
    stop = n - 2 if n % 2 else n - 3
    for k in range(0, stop, 2):
        h0, h1 = h[k], h[k + 1]
        hsum, ratio = h0 + h1, h0 / h1
        w[k] += hsum / 6.0 * (2.0 - 1.0 / ratio)
        w[k + 1] += hsum / 6.0 * (hsum * (hsum / (h0 * h1)))
        w[k + 2] += hsum / 6.0 * (2.0 - ratio)
    if n % 2 == 0:
        h0, h1 = h[-2], h[-1]
        w[-1] += (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        w[-2] += (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        w[-3] -= h1**3 / (6 * h0 * (h0 + h1))
    w.flags.writeable = False
    return w


def _simpson_with_error(means: np.ndarray, ses: np.ndarray,
                        grid: np.ndarray) -> tuple[float, float]:
    """Simpson integral plus error: propagated node SEs through the Simpson
    weights, plus a grid-resolution term |Simpson - trapezoid|."""
    weights = _simpson_weights(tuple(grid.tolist()))
    value = float(weights @ means)
    mc_term = math.sqrt(float(np.sum((weights * ses) ** 2)))
    grid_term = abs(value - float(np.trapezoid(means, grid)))
    return value, mc_term + grid_term


def _ti_tail(run: PTResult, offset: float, scale: float, meta: dict) -> tuple[float, float]:
    """Simpson integral over the beta grid of the node means
    (mean total energy - offset) / scale, with its error; a node's SE comes
    from the min(20, n) contiguous block means of np.array_split over its n
    samples, and is 0 for one sample.  Records the per-node means and SEs,
    the sampler rates and the run's flags in meta."""
    rows, n = run.series.shape
    means = (run.series.mean(axis=1) - offset) / scale
    ses = np.zeros(rows)
    if n > 1:
        n_blocks = min(20, n)
        size, extra = divmod(n, n_blocks)
        cut = extra * (size + 1)
        blocks = np.concatenate([
            run.series[:, :cut].reshape(rows, extra, size + 1).mean(axis=2),
            run.series[:, cut:].reshape(rows, n_blocks - extra, size).mean(axis=2)], axis=1)
        ses = blocks.std(axis=1, ddof=1) / math.sqrt(n_blocks) / scale
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


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """One-SE (z = 1) Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_hat = hits / trials
    denom = 1.0 + 1.0 / trials
    center = (p_hat + 1.0 / (2 * trials)) / denom
    half = math.sqrt(p_hat * (1 - p_hat) / trials + 1.0 / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _log_hit_rate(hits: int, trials: int) -> float:
    """log(hits / trials), with the zero-hit floor: no hit counts as half a hit."""
    return math.log(max(hits, 0.5) / trials)


def multi_replica_fe(h: HamiltonianInstance, spec: BandSpec, beta_grid,
                     steps: int, rng: np.random.Generator) -> FreeEnergyEstimate:
    """Coupled-replica band free energy (1/(Nn)) log of the integral of
    exp(sum_i H(s^i) - H(m)) over tuples in the band with pairwise-overlap
    constraints.

    Decomposition at beta = 0: exact band volume per replica plus the
    log-probability that an i.i.d. uniform band tuple satisfies the pairwise
    constraint (estimated with a Wilson interval; absent for one replica);
    the beta dependence is recovered by thermodynamic integration of the
    constrained joint chain.  The pair-term tuples that pass the constraint
    start the chains, reused cyclically when fewer than the chains passed;
    one replica starts from one draw of a band point per chain.
    """
    grid = _check_beta_grid(beta_grid)
    layout = h.layout
    m = spec.center
    if m.layout != layout:
        raise ValueError("band center layout does not match instance")
    q = m.self_overlap()
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
        kept = tuples[spec.tuples_within(tuples)]
        hits = len(kept)
        pair_log = _log_hit_rate(hits, trials)
        if hits == 0:
            pair_se = abs(pair_log)
            meta["flags"].append("zero-hit-floor")
        else:
            lo, hi = wilson_interval(hits, trials)
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

    _check_series_budget(grid.size, steps)
    if n_rep == 1:
        starts = sample_uniform_in_band_batch(m, spec.delta, grid.size, rng)[:, None]
    else:
        starts = kept[np.arange(grid.size) % hits]
    run = _run_group([h], grid, steps, [rng], spec, starts, keep_snapshots=False)[0]
    integral, err = _ti_tail(run, n_rep * h_at_m, n * n_rep, meta)
    return FreeEnergyEstimate(float(log_vol + pair_term + integral),
                              float(err + pair_term_se), "thermo-integration", meta)


def _replica_overlaps(h: HamiltonianInstance, n: int, beta_grid, steps: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, list[str]]:
    """Species overlaps, shape (pairs i < j, kept, n_species), of the thinned
    states at the last grid beta of n independent tempered runs on h, and
    their flags: one group of n rows sharing h's blocks, run i equal to
    pt_sampler on the i-th generator spawned from rng."""
    grid = _check_beta_grid(beta_grid)
    _check_series_budget(n * grid.size, steps)
    _check_kept_budget(n * (n - 1) // 2, steps, h.layout.n, "replica pairs")
    runs = _run_group([h] * n, grid, steps, rng.spawn(n))
    samples = np.stack([run.snapshots[-1, :, 0] for run in runs])
    i, j = np.triu_indices(n, 1)
    return (species_overlaps(samples[i], samples[j], h.layout),
            [f for run in runs for f in run.flags])


def multisamplability_records(h: HamiltonianInstance, q, n: int, eps_grid,
                              beta_grid, steps: int, rng: np.random.Generator) -> list[dict]:
    """Empirical (1/N) log G^(x)n-probability that n independent Gibbs samples
    have all pairwise species overlaps within eps of q, with diagnostics, at
    every eps of eps_grid.  Every eps is scored on one draw of n replicas, so
    hits are non-decreasing in eps.  An eps >= 2 is vacuous (every tuple
    qualifies) and gives value 0 with no samples."""
    if n < 2:
        raise ValueError("need at least two replicas")
    layout = h.layout
    qv = as_overlap_array(q, layout.n_species)
    eps_grid = [float(eps) for eps in eps_grid]
    if any(eps < 2.0 for eps in eps_grid):
        overlaps, run_flags = _replica_overlaps(h, n, beta_grid, steps, rng)
        counts = overlaps.shape[1]
        # worst pairwise species deviation from q, per sample tuple
        worst = np.abs(overlaps - qv).max(axis=(0, 2))
    records = []
    for eps in eps_grid:
        if eps >= 2.0:
            records.append({"value": 0.0, "hits": None, "samples": None,
                            "flags": ["vacuous"], "eps": eps, "replicas": n})
            continue
        hits = int(np.count_nonzero(worst < eps))
        lo, hi = wilson_interval(hits, counts) if hits else (None, None)
        records.append({
            "value": _log_hit_rate(hits, counts) / layout.n,
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


def _logsumexp(a) -> float:
    """log sum exp(a) over every entry, as scipy.special.logsumexp computes
    it: the terms at the maximum are split off and counted, the rest summed
    through log1p.  -inf entries add nothing; all -inf or none gives -inf."""
    a = np.asarray(a, dtype=float)
    top = a.max(initial=-np.inf)
    if not np.isfinite(top):
        return float(top)
    at_top = a == top
    count = int(np.count_nonzero(at_top))
    rest = float(np.sum(np.exp(np.where(at_top, -np.inf, a) - top))) / count
    return float(np.log1p(rest) + np.log(count) + top)


def _require_corner(layout: SpeciesLayout) -> None:
    if any(d != 1 for d in layout.sizes):
        raise ValueError("enumeration requires every species to have one coordinate")
    _check_pattern_budget(layout.n)


def _require_quadrature(layout: SpeciesLayout) -> None:
    if any(d > 3 for d in layout.sizes):
        raise ValueError("quadrature supports species blocks of size at most 3")
    if sum(d - 1 for d in layout.sizes) > 6:
        raise ValueError("total angular dimension exceeds 6")
    _check_quadrature_grid(layout, 2)  # each one-coordinate block doubles even this grid


def exact_fe_enumeration(h: HamiltonianInstance) -> FreeEnergyEstimate:
    """Exact free energy when each species block is {-1, +1}: the average of
    e^H over all sign patterns."""
    _require_corner(h.layout)
    n = h.layout.n
    energies = energy_many(h, sign_patterns(n))
    value = (_logsumexp(energies) - n * math.log(2.0)) / n
    return FreeEnergyEstimate(value, 0.0, "enumeration",
                              {"n_configurations": int(2**n)})


def _enum_logsums(h: HamiltonianInstance, spec: BandSpec) -> tuple[float, float, int]:
    """Over the sign patterns s in B(m, delta), at corner scale: the log sum of
    exp(sum_i H(s^i) - n H(m)) over n-tuples with pairwise overlaps within rho
    of q(m), taken as one broadcast over n axes, the log sum of exp(H(s) - H(m)),
    and the pattern count.  The pair matrix is built for n >= 2 only, and
    refused when it (b^2 N entries) or the tuple broadcast (b^n) would hold
    over DEFAULT_MEMORY_BUDGET entries."""
    layout, m = h.layout, spec.center
    _require_corner(layout)
    if m.layout != layout:
        raise ValueError("band center layout does not match instance")
    patterns = sign_patterns(layout.n)
    in_band = spec.contains(patterns)
    band = patterns[in_band]
    centered = (energy_many(h, patterns) - energy(h, m))[in_band]
    b, joint, ok = len(band), 0.0, True
    if spec.n >= 2:
        cost = max(b * b * layout.n, b**spec.n)
        if cost > DEFAULT_MEMORY_BUDGET:
            raise ValueError(f"enumerating {spec.n} replicas over {b} band patterns needs "
                             f"{cost} entries, over the budget of {DEFAULT_MEMORY_BUDGET}")
        allowed = spec.pairs_within(band[:, None], band[None])
    # replica i runs along axis i of n; trailing axes of size 1 broadcast
    for i in range(spec.n):
        rest = (1,) * (spec.n - 1 - i)
        joint = joint + centered.reshape((b,) + rest)
        for j in range(i):
            ok = ok & allowed.reshape((b,) + (1,) * (i - j - 1) + (b,) + rest)
    return _logsumexp(np.where(ok, joint, -np.inf)), _logsumexp(centered), b


def exact_multi_replica_fe_enumeration(h: HamiltonianInstance,
                                       spec: BandSpec) -> FreeEnergyEstimate:
    """Exact coupled-replica band free energy at corner scale."""
    log_joint, _, count = _enum_logsums(h, spec)
    n = h.layout.n
    value = (log_joint - spec.n * n * math.log(2.0)) / (n * spec.n)
    return FreeEnergyEstimate(float(value), 0.0, "enumeration",
                              {"n_configurations": count, "replicas": spec.n})


def exact_restricted_fe_enumeration(h: HamiltonianInstance, m: Configuration,
                                    delta: float) -> FreeEnergyEstimate:
    """Exact band free energy at corner scale, the one-replica case of
    exact_multi_replica_fe_enumeration."""
    return exact_multi_replica_fe_enumeration(h, BandSpec(m, delta))


def exact_penalty_enumeration(h: HamiltonianInstance, spec: BandSpec) -> float:
    """(1/(Nn)) log of the conditional Gibbs probability that n band replicas
    satisfy the pairwise constraint, exactly at corner scale."""
    log_joint, log_single, count = _enum_logsums(h, spec)
    if count == 0:
        raise ValueError("empty band")
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
        # row i * nodes + j: polar node i, azimuth j; math's cos, sin and log
        ring = np.array([[math.cos(p), math.sin(p)] for p in phi])
        pts = np.empty((nodes, nodes, 3))
        pts[..., :2] = rad[:, None, None] * ring
        pts[..., 2] = z[:, None]
        logw = np.array([math.log(w / 2.0) - math.log(nodes) for w in wz])
        return math.sqrt(3.0) * pts.reshape(-1, 3), np.repeat(logw, nodes)
    raise ValueError("quadrature supports species blocks of size at most 3")


def _check_quadrature_grid(layout: SpeciesLayout, nodes_per_angle: int) -> None:
    """Refuse a quadrature grid of over DEFAULT_MEMORY_BUDGET (point, coordinate) entries."""
    points = math.prod(2 if d == 1 else nodes_per_angle ** (d - 1) for d in layout.sizes)
    if points * layout.n > DEFAULT_MEMORY_BUDGET:
        raise ValueError(f"quadrature grid needs {points * layout.n} entries, over the budget")


def _quadrature_value(h: HamiltonianInstance, nodes_per_angle: int) -> float:
    layout = h.layout
    grids = [_species_quadrature(d, nodes_per_angle) for d in layout.sizes]
    # one row per tuple of per-species nodes, the last species fastest
    index_mesh = np.stack(np.meshgrid(*[np.arange(len(lw)) for _, lw in grids],
                                      indexing="ij")).reshape(layout.n_species, -1)
    coords = np.concatenate([pts[idx] for (pts, _), idx in zip(grids, index_mesh)], axis=1)
    logw = sum(lw[idx] for (_, lw), idx in zip(grids, index_mesh))
    return _logsumexp(logw + energy_many(h, coords)) / layout.n


def exact_fe_quadrature(h: HamiltonianInstance, nodes_per_angle: int) -> FreeEnergyEstimate:
    """Deterministic tensor-product quadrature of the free-energy integral
    for small blocks (each species size <= 3, at most 6 angular dimensions)."""
    _require_quadrature(h.layout)
    if nodes_per_angle < 2:
        raise ValueError("need at least 2 nodes per angle")
    _check_quadrature_grid(h.layout, nodes_per_angle)
    value = _quadrature_value(h, nodes_per_angle)
    coarse = _quadrature_value(h, max(2, nodes_per_angle // 2))
    return FreeEnergyEstimate(value, 0.0, "quadrature", {
        "nodes_per_angle": int(nodes_per_angle),
        "coarse_grid_delta": float(value - coarse),
    })
