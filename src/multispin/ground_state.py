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
    group_energies,
    group_gradients,
    stack_instances,
)
from .mixture import Mixture, SpeciesLayout, require_shell_overlap

__all__ = [
    "AscentResult",
    "ascend",
    "ascend_many",
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
            out[..., sl] = 0.0
        else:
            target = math.sqrt(layout.sizes[s] * qv[s])
            out[..., sl] *= target / np.linalg.norm(out[..., sl], axis=-1, keepdims=True)
    return out


def _tangent_gradient(g: np.ndarray, coords: np.ndarray, layout: SpeciesLayout,
                      qv: np.ndarray) -> np.ndarray:
    """Remove each block's radial component, row by row; zero-shell blocks
    carry no directions."""
    t = np.array(g)
    for s, sl in enumerate(layout.slices):
        if qv[s] == 0.0:
            t[..., sl] = 0.0
        else:
            x = coords[..., sl]
            radial = np.einsum("...j,...j->...", g[..., sl], x)
            t[..., sl] -= radial[..., None] * x / (layout.sizes[s] * qv[s])
    return t


def ascend_many(hs, q, restarts: int, max_iters: int, rngs) -> list[AscentResult]:
    """Multi-restart projected gradient ascent of H over the shell S_N(q),
    for each instance of a group that shares mixture terms and layout, with
    rngs[k] the generator of instance k.

    Each restart starts uniformly on the shell, from its own stream, and
    follows the per-species tangent gradient with Armijo backtracking
    (shrink 0.5, slope 1e-4, initial step 1/sqrt(N)), re-projecting every
    block after each step.  The (instance, restart) rows advance together
    as one fixed-shape batch, and a row that has stopped is masked, not
    dropped, so each result equals the one its instance gets on its own.
    A restart stops when its tangent gradient falls below tolerance or no
    step passes the Armijo test (both count as converged).  The best
    restart is the lowest index whose final energy is within 4 ulps of the
    maximum, so rounding-level ties do not decide it.
    """
    hs, rngs = list(hs), list(rngs)
    if len(hs) != len(rngs):
        raise ValueError("need one generator per instance")
    if restarts < 1 or max_iters < 1:
        raise ValueError("restarts and max_iters must be >= 1")
    group = stack_instances(hs)
    layout = group.layout
    qv = require_shell_overlap(q, layout.n_species)
    coords = np.array([[sample_on_shell(layout, qv, stream).coords
                        for stream in rng.spawn(restarts)] for rng in rngs])
    values = group_energies(group, coords)
    step0 = 1.0 / math.sqrt(layout.n)
    steps = np.full(values.shape, step0)
    counts = np.full(values.shape, max_iters)
    active = np.ones(values.shape, dtype=bool)
    for it in range(1, max_iters + 1):
        if not active.any():
            break
        t = _tangent_gradient(group_gradients(group, coords), coords, layout, qv)
        t_norm_sq = np.einsum("...j,...j->...", t, t)
        flat = active & (np.sqrt(t_norm_sq) / layout.n < _GRAD_TOL_PER_SPIN)
        counts[flat] = it - 1
        active &= ~flat
        trial = np.minimum(steps * 2.0, step0)
        searching = active.copy()
        for _ in range(_MAX_BACKTRACKS):
            if not searching.any():
                break
            cand = _project_to_shell(coords + trial[..., None] * t, layout, qv)
            cand_values = group_energies(group, cand)
            ok = searching & (cand_values >= values + _ARMIJO_SLOPE * trial * t_norm_sq)
            coords[ok] = cand[ok]
            values[ok] = cand_values[ok]
            steps[ok] = trial[ok]
            searching &= ~ok
            trial[searching] *= _ARMIJO_SHRINK
        # no admissible step: numerically stationary, count as converged
        counts[searching] = it
        active &= ~searching
    top = values.max(axis=1, keepdims=True)
    best = np.argmax(values >= top - 4 * np.spacing(np.abs(top)), axis=1)
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


def exact_gs_enumeration(h: HamiltonianInstance, q) -> float:
    """Exact per-spin shell maximum when every species has one coordinate:
    the shell S_N(q) is the finite set of sign patterns scaled by sqrt(q_s)."""
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
