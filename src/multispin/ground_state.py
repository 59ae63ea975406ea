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

from .geometry import Configuration, sample_on_shell, sign_patterns
from .hamiltonian import (
    HamiltonianInstance,
    TENSOR_BACKEND,
    build_instance,
    energy_many,
    gradient_many,
)
from .mixture import Mixture, SpeciesLayout, require_shell_overlap

__all__ = [
    "AscentResult",
    "ascend",
    "eigen_oracle_2spin",
    "exact_gs_enumeration",
    "gs_concentration_probe",
]

_ARMIJO_SHRINK = 0.5
_ARMIJO_SLOPE = 1e-4
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


def _project_to_shell(coords: np.ndarray, layout: SpeciesLayout, qv: np.ndarray) -> np.ndarray:
    """Rescale each species block of each row onto its shell sphere."""
    out = np.array(coords)
    for s, sl in enumerate(layout.slices):
        if qv[s] == 0.0:
            out[:, sl] = 0.0
        else:
            target = math.sqrt(layout.sizes[s] * qv[s])
            out[:, sl] *= target / np.linalg.norm(out[:, sl], axis=1, keepdims=True)
    return out


def _tangent_gradient(g: np.ndarray, coords: np.ndarray, layout: SpeciesLayout,
                      qv: np.ndarray) -> np.ndarray:
    """Remove each block's radial component, row by row; zero-shell blocks
    carry no directions."""
    t = np.array(g)
    for s, sl in enumerate(layout.slices):
        if qv[s] == 0.0:
            t[:, sl] = 0.0
        else:
            x = coords[:, sl]
            radial = np.einsum("ij,ij->i", g[:, sl], x)
            t[:, sl] -= radial[:, None] * x / (layout.sizes[s] * qv[s])
    return t


def ascend(h: HamiltonianInstance, q, restarts: int, max_iters: int,
           rng: np.random.Generator) -> AscentResult:
    """Multi-restart projected gradient ascent of H over the shell S_N(q).

    Each restart starts uniformly on the shell, from its own stream, and
    follows the per-species tangent gradient with Armijo backtracking
    (shrink 0.5, slope 1e-4, initial step 1/sqrt(N)), re-projecting every
    block after each step.  All restarts advance together: one batched
    gradient per iteration, and each backtracking round evaluates the
    restarts still searching.  A restart stops when its tangent gradient
    falls below tolerance or no step passes the Armijo test (both count as
    converged).  Ties in the final energy break toward the lowest restart
    index.
    """
    if h.backend != TENSOR_BACKEND:
        raise ValueError("ascent needs the coefficient-tensor backend")
    if restarts < 1 or max_iters < 1:
        raise ValueError("restarts and max_iters must be >= 1")
    layout = h.layout
    qv = require_shell_overlap(q, layout.n_species)
    streams = rng.spawn(restarts)
    coords = np.array([sample_on_shell(layout, qv, stream).coords for stream in streams])
    values = energy_many(h, coords)
    step0 = 1.0 / math.sqrt(layout.n)
    steps = np.full(restarts, step0)
    counts = np.full(restarts, max_iters)
    converged = np.zeros(restarts, dtype=bool)
    active = np.arange(restarts)
    for it in range(1, max_iters + 1):
        if active.size == 0:
            break
        x = coords[active]
        t = _tangent_gradient(gradient_many(h, x), x, layout, qv)
        t_norm_sq = np.einsum("ij,ij->i", t, t)
        flat = np.sqrt(t_norm_sq) / layout.n < _GRAD_TOL_PER_SPIN
        counts[active[flat]] = it - 1
        converged[active[flat]] = True
        active, x, t, t_norm_sq = active[~flat], x[~flat], t[~flat], t_norm_sq[~flat]
        trial = np.minimum(steps[active] * 2.0, step0)
        searching = np.ones(active.size, dtype=bool)
        for _ in range(_MAX_BACKTRACKS):
            idx = np.flatnonzero(searching)
            if idx.size == 0:
                break
            cand = _project_to_shell(x[idx] + trial[idx, None] * t[idx], layout, qv)
            cand_values = energy_many(h, cand)
            ok = cand_values >= values[active[idx]] + _ARMIJO_SLOPE * trial[idx] * t_norm_sq[idx]
            rows = active[idx[ok]]
            coords[rows] = cand[ok]
            values[rows] = cand_values[ok]
            steps[rows] = trial[idx[ok]]
            searching[idx[ok]] = False
            trial[idx[~ok]] *= _ARMIJO_SHRINK
        # no admissible step: numerically stationary, count as converged
        counts[active[searching]] = it
        converged[active[searching]] = True
        active = active[~searching]
    best = int(np.argmax(values))
    return AscentResult(
        maximizer=Configuration(coords[best], layout),
        energy_per_spin=float(values[best]) / layout.n,
        restarts=restarts,
        converged_fraction=int(converged.sum()) / restarts,
        iteration_counts=tuple(int(c) for c in counts),
        best_restart=best,
    )


def exact_gs_enumeration(h: HamiltonianInstance, q) -> float:
    """Exact per-spin shell maximum when every species has one coordinate:
    the shell S_N(q) is the finite set of sign patterns scaled by sqrt(q_s)."""
    if h.backend != TENSOR_BACKEND:
        raise ValueError("enumeration needs the coefficient-tensor backend")
    layout = h.layout
    if any(d != 1 for d in layout.sizes):
        raise ValueError("enumeration requires every species to have one coordinate")
    qv = require_shell_overlap(q, layout.n_species)
    n = layout.n
    patterns = sign_patterns(n) * np.sqrt(qv)[None, :]
    return float(energy_many(h, patterns).max()) / n


def eigen_oracle_2spin(h: HamiltonianInstance, q) -> float:
    """Exact per-spin shell maximum for a single pure quadratic species term.

    For H = sqrt(N) x^T A x restricted to ||x_s||^2 = N_s q_s (other blocks
    zero), the maximum is sqrt(N) lambda_max(sym A_ss) N_s q_s, by the
    Rayleigh principle; homogeneity makes it linear in q_s.
    """
    if h.backend != TENSOR_BACKEND:
        raise ValueError("oracle needs the coefficient-tensor backend")
    terms = h.mixture.terms
    if len(terms) != 1:
        raise ValueError("oracle needs exactly one mixture term")
    p = terms[0][0]
    if sum(p) != 2 or max(p) != 2:
        raise ValueError("oracle needs one pure quadratic term inside one species")
    s = p.index(2)
    layout = h.layout
    qv = require_shell_overlap(q, layout.n_species)
    block = h.tensors[0]
    sym = 0.5 * (block + block.T)
    lam = float(np.linalg.eigvalsh(sym)[-1])
    return math.sqrt(layout.n) * lam * layout.sizes[s] * qv[s] / layout.n


def gs_concentration_probe(xi: Mixture, layout: SpeciesLayout, q, seeds: int,
                           scale_factors=(1, 2, 4), restarts: int = 4,
                           max_iters: int = 200, statistic=None,
                           master_seed: int = 0) -> dict:
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
        scaled = SpeciesLayout(layout.species,
                               tuple(d * factor for d in layout.sizes))
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
