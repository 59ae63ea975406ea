"""Ground-state energy estimation on overlap shells.

E_N(q) = (1/N) max H over the shell S_N(q) is estimated by projected
Riemannian gradient ascent with random restarts.  Local search only certifies
a lower bound on glassy landscapes; converged_fraction and the restart count
are reported so callers can judge how hard the landscape pushed back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Configuration, _tangent, _to_shell, sample_on_shell, sign_patterns
from .hamiltonian import (
    DEFAULT_MEMORY_BUDGET,
    HamiltonianInstance,
    build_instance,
    energy_many,
    group_energies_and_gradients,
    stack_instances,
)
from .mixture import Mixture, SpeciesLayout, require_shell_overlap

__all__ = [
    "AscentResult",
    "ascend",
    "ascend_many",
    "eigen_oracle_2spin",
    "gs_concentration_probe",
]

_ARMIJO_SHRINK = 0.5
_ARMIJO_SLOPE = 1e-4
_GAIN_ULPS = 32  # a step must also gain this many ulps of |energy|
_GRAD_TOL_PER_SPIN = 1e-8
_MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class AscentResult:
    """Best restart of the shell-constrained ascent."""

    maximizer: Configuration
    energy_per_spin: float
    restarts: int
    converged_fraction: float
    iteration_counts: tuple[int, ...]
    best_restart: int

    def to_record(self) -> dict:
        return {
            "energy_per_spin": self.energy_per_spin,
            "restarts": self.restarts,
            "converged_fraction": self.converged_fraction,
            "iterations_mean": float(np.mean(self.iteration_counts)),
            "iterations_max": int(max(self.iteration_counts)),
            "best_restart": self.best_restart,
        }


def _check_restart_budget(rows: int, restarts: int, n: int) -> None:
    """Refuse an ascent of over DEFAULT_MEMORY_BUDGET (row, restart, coordinate) entries."""
    if rows * restarts * n > DEFAULT_MEMORY_BUDGET:
        raise ValueError(f"{rows * restarts} ascent rows of {n} coordinates exceed the budget")


def _shell_maximum(h: HamiltonianInstance, patterns: np.ndarray, restarts: int) -> AscentResult:
    """The best row of a finite shell, reached by every restart with no iteration."""
    values = energy_many(h, patterns)
    best = int(np.argmax(values))
    return AscentResult(Configuration(patterns[best], h.layout), float(values[best]) / h.layout.n,
                        restarts, 1.0, (0,) * restarts, 0)


def ascend_many(hs, q, restarts: int, max_iters: int, rngs) -> list[AscentResult]:
    """Multi-restart projected gradient ascent of H over the shell S_N(q),
    for each instance of a group that shares mixture terms and layout, with
    rngs[k] the generator of instance k.

    Each restart starts uniformly on the shell, from its own stream, and
    follows the per-species tangent gradient with Armijo backtracking
    (shrink 0.5, slope 1e-4, initial step 1/sqrt(N)), re-projecting every
    block after each step; each Armijo round is one energy-and-gradient
    pass, and an accepted step keeps its gradient for the next iteration.
    A step must also gain 32 ulps of |energy|, so a gain made only of
    roundoff does not pass, and backtracking ends once a step's first-order
    gain falls under that floor.  The (instance, restart) rows advance
    together as one fixed-shape batch, and a row that has stopped is masked,
    not dropped, so each result equals the one its instance gets on its
    own.  A restart stops when its tangent gradient
    falls below tolerance or no step passes the test (both count as
    converged).  The best restart is the lowest index whose final energy is
    within 64 ulps (two such gains) of the best, so restarts that reach the
    same maximum tie.

    q is one overlap for all instances, or one row per instance.

    On single-coordinate blocks the shell is its 2^N sign patterns scaled by
    sqrt(q_s): each instance gets the exact maximum, and rngs are not drawn.
    """
    hs, rngs = list(hs), list(rngs)
    if len(hs) != len(rngs):
        raise ValueError("need one generator per instance")
    if restarts < 1 or max_iters < 1:
        raise ValueError("restarts and max_iters must be >= 1")
    group = stack_instances(hs)
    layout = group.layout
    q_rows = q if np.ndim(q) == 2 else [q] * len(hs)
    if len(q_rows) != len(hs):
        raise ValueError("need one overlap per instance")
    qk = np.array([require_shell_overlap(row, layout.n_species) for row in q_rows])
    qv = qk[:, None]  # (instance, 1, species), broadcast over the restarts
    _check_restart_budget(group.size, restarts, layout.n)
    if layout.n == layout.n_species:  # no block can move: enumerate the shell
        return [_shell_maximum(h, sign_patterns(layout.n) * np.sqrt(row), restarts)
                for h, row in zip(hs, qk)]
    coords = np.array([[sample_on_shell(layout, row, stream).coords
                        for stream in rng.spawn(restarts)] for rng, row in zip(rngs, qk)])
    values, grads = group_energies_and_gradients(group, coords)
    step0 = 1.0 / math.sqrt(layout.n)
    steps = np.full(values.shape, step0)
    counts = np.full(values.shape, max_iters)
    active = np.ones(values.shape, dtype=bool)
    for it in range(1, max_iters + 1):
        if not active.any():
            break
        t = _tangent(grads, coords, layout, qv)
        t_norm_sq = np.einsum("...j,...j->...", t, t)
        flat = active & (np.sqrt(t_norm_sq) / layout.n < _GRAD_TOL_PER_SPIN)
        counts[flat] = it - 1
        active &= ~flat
        trial = np.minimum(steps * 2.0, step0)
        searching, moved = active.copy(), np.zeros_like(active)
        # a row's value changes only when its search ends
        floor = _GAIN_ULPS * np.spacing(np.abs(values))
        for _ in range(_MAX_BACKTRACKS):
            if not searching.any():
                break
            cand = _to_shell(coords + trial[..., None] * t, layout, qv)
            cand_values, cand_grads = group_energies_and_gradients(group, cand)
            ok = searching & (cand_values >= values + np.maximum(
                _ARMIJO_SLOPE * trial * t_norm_sq, floor))
            np.copyto(coords, cand, where=ok[..., None])
            np.copyto(grads, cand_grads, where=ok[..., None])
            np.copyto(values, cand_values, where=ok)
            np.copyto(steps, trial, where=ok)
            moved |= ok
            trial *= _ARMIJO_SHRINK
            # near a maximum a step gains at most trial * t_norm_sq, so a step
            # whose first-order gain is under the floor cannot pass
            searching &= ~ok & (trial * t_norm_sq >= floor)
        # no admissible step: numerically stationary, count as converged
        counts[active & ~moved] = it
        active &= moved
    top = values.max(axis=1, keepdims=True)
    best = np.argmax(values >= top - 2 * _GAIN_ULPS * np.spacing(np.abs(top)), axis=1)
    return [AscentResult(
        maximizer=Configuration(coords[k, b], layout),
        energy_per_spin=float(values[k, b]) / layout.n,
        restarts=restarts,
        converged_fraction=int(np.count_nonzero(~active[k])) / restarts,
        iteration_counts=tuple(int(c) for c in counts[k]),
        best_restart=int(b),
    ) for k, b in enumerate(best)]


def ascend(h: HamiltonianInstance, q, restarts: int, max_iters: int,
           rng: np.random.Generator) -> AscentResult:
    """Shell ascent of one instance: the group-of-one case of ascend_many."""
    return ascend_many([h], q, restarts, max_iters, [rng])[0]


def eigen_oracle_2spin(h: HamiltonianInstance, q) -> float:
    """Exact per-spin shell maximum for a single quadratic term.

    For H = sqrt(N) x_s^T A x_s inside species s, restricted to
    ||x_s||^2 = N_s q_s, the maximum is sqrt(N) lambda_max(sym A) N_s q_s by
    the Rayleigh principle; for the bilinear H = sqrt(N) x_a^T B x_b of two
    species it is sqrt(N) sigma_max(B) sqrt(N_a q_a N_b q_b).  Both are
    homogeneous in q; blocks outside the term do not enter.
    """
    terms = h.mixture.terms
    if len(terms) != 1:
        raise ValueError("oracle needs exactly one mixture term")
    p = terms[0][0]
    if sum(p) != 2:
        raise ValueError("oracle needs one quadratic term")
    layout = h.layout
    qv = require_shell_overlap(q, layout.n_species)
    block = h.tensors[0]
    if 2 in p:
        s = p.index(2)
        lam = float(np.linalg.eigvalsh(0.5 * (block + block.T))[-1])
        return math.sqrt(layout.n) * lam * layout.sizes[s] * qv[s] / layout.n
    a, b = (s for s, c in enumerate(p) if c)
    sigma = float(np.linalg.svd(block, compute_uv=False)[0])
    radius = math.sqrt(layout.sizes[a] * qv[a] * layout.sizes[b] * qv[b])
    return math.sqrt(layout.n) * sigma * radius / layout.n


def gs_concentration_probe(xi: Mixture, layout: SpeciesLayout, q, seeds: int,
                           scale_factors=(1, 2, 4), restarts: int = 4,
                           max_iters: int = 200, statistic=None) -> dict:
    """Disorder-concentration report: empirical variance of a per-spin
    statistic (ascent energy by default) across seeds, at the base layout
    scaled by each factor; N * variance should stay within a constant band.

    statistic(h, q, rng) -> float may replace the ascent energy, so the same
    harness probes free-energy estimators too.
    """
    if seeds < 20:
        raise ValueError("need at least 20 disorder seeds")
    if statistic is None:
        def statistic(hh, qq, rr):
            return ascend(hh, qq, restarts, max_iters, rr).energy_per_spin
    sizes_report, variances, means = [], [], []
    for factor in scale_factors:
        scaled = layout.scaled(factor)
        values = []
        for seed in range(seeds):
            h = build_instance(xi, scaled, seed=seed)
            values.append(float(statistic(h, q, np.random.default_rng(10_000 + seed))))
        sizes_report.append(scaled.n)
        variances.append(float(np.var(values, ddof=1)))
        means.append(float(np.mean(values)))
    return {
        "sizes": sizes_report,
        "means": means,
        "variances": variances,
        "n_times_variance": [n * v for n, v in zip(sizes_report, variances)],
        "seeds": seeds,
    }
