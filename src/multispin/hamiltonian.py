"""Gaussian Hamiltonian realization with covariance N·xi(R(sigma, sigma')).

A HamiltonianInstance holds one disorder block per mixture term p, of shape
(N_{s_1}, ..., N_{s_k}) with its slots in canonical (sorted-species) order,
drawn directly, so the energy and its Euclidean gradient are evaluable
anywhere while only the index tuples of the term's species pattern are drawn
and stored.  Separately, realize_on_points samples exact joint values on a
finite point set from the covariance matrix, the law reference the instances
are checked against.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import DEFAULT_MEMORY_BUDGET, Configuration, _unit_rows, species_overlaps
from .mixture import (
    ConfigError,
    Mixture,
    SpeciesLayout,
    _at,
    _decode_json,
    _expect_int,
    _expect_keys,
    _expect_schema,
    _required,
    eval_mixture,
    model_from_json,
    model_to_json,
)

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "HamiltonianInstance",
    "build_instance",
    "energy",
    "energy_many",
    "gradient",
    "gradient_many",
    "InstanceGroup",
    "stack_instances",
    "group_energies",
    "group_gradients",
    "group_energies_and_gradients",
    "block_entries",
    "realize_on_points",
    "factor_covariance",
    "lipschitz_ratio",
    "sample_in_ball",
    "save_instance",
    "load_instance",
]

_FORMAT = "coefficient-tensor"  # checkpoint format tag

# chunk staged batch contractions so intermediates stay below ~2^24 floats
_BATCH_ELEMENT_CAP = 2**24


def _slots(p: tuple[int, ...]) -> tuple[int, ...]:
    """Species of each index slot of term p, in canonical (sorted) order."""
    return tuple(s for s, c in enumerate(p) for _ in range(c))


def _block_scale(layout: SpeciesLayout, p: tuple[int, ...], delta_sq: float) -> float:
    """sqrt(Delta_p^2 prod_s N_s^-p(s)): the per-tuple coefficient times sqrt of
    the k!/prod_s p(s)! tuples per entry, exactly 1 for one species."""
    k = sum(p)
    val = delta_sq / math.factorial(k)
    for s, c in enumerate(p):
        val *= math.factorial(c) / float(layout.sizes[s]) ** c
    return math.sqrt(val) * math.sqrt(math.factorial(k) // math.prod(map(math.factorial, p)))


def block_entries(xi: Mixture, layout: SpeciesLayout) -> int:
    """Entries the canonical blocks of one instance hold, prod_s N_s^p(s)
    per term; the seeded draw visits exactly these."""
    return sum(math.prod(layout.sizes[s] ** c for s, c in enumerate(p))
               for p, _ in xi.terms)


def _check_budget(xi: Mixture, layout: SpeciesLayout) -> None:
    """Refuse a model whose blocks hold over DEFAULT_MEMORY_BUDGET entries."""
    cost = block_entries(xi, layout)
    if cost > DEFAULT_MEMORY_BUDGET:
        raise ValueError(
            f"disorder needs {cost} block entries, over the budget of {DEFAULT_MEMORY_BUDGET}")


@dataclass(frozen=True, eq=False)
class HamiltonianInstance:
    """One realized disorder sample of the Gaussian process: one block per
    term of mixture and nothing else, so its covariance is N xi(R) for that
    mixture, one-spin terms included.  Instances are immutable, and
    energy/gradient evaluation is pure, so concurrent use is safe.
    """

    mixture: Mixture
    layout: SpeciesLayout
    seed: int
    tensors: tuple[np.ndarray, ...]  # canonical blocks, aligned with mixture.terms

    @property
    def raw_disorder(self) -> tuple[np.ndarray, ...]:
        """The standard normals each block is scaled from, redrawn per access."""
        rng = np.random.default_rng(self.seed)
        return tuple(rng.standard_normal(a.shape) for a in self.tensors)

    @property
    def field(self) -> None:
        """Always None: an instance carries no field beyond its mixture's
        one-spin terms.  Kept because benchmarks/bench_metrics.py reads it
        on every traced build, and benchmarks/test_bench.py runs those."""
        return None

    def memory_entries(self) -> int:
        return block_entries(self.mixture, self.layout)

    @functools.cached_property
    def group(self) -> InstanceGroup:
        """This instance as a group of one (views of its blocks), stacked on
        first use."""
        return stack_instances([self])


def build_instance(xi: Mixture, layout: SpeciesLayout, seed: int) -> HamiltonianInstance:
    """Draw the disorder for mixture xi on the given layout.

    Per mixture term, in the fixed lexicographic term order, the canonical
    block is i.i.d. standard normals of its shape scaled in place to variance
    Delta_p^2 / prod_s N_s^p(s): the law of summing per-tuple normals over the
    term's slot orderings, and that draw exactly for one species.  Models
    whose blocks hold over DEFAULT_MEMORY_BUDGET entries are refused.
    """
    if xi.n_species != layout.n_species:
        raise ValueError(f"mixture has {xi.n_species} species, layout {layout.n_species}")
    _check_budget(xi, layout)
    rng = np.random.default_rng(int(seed))
    blocks = []
    for p, delta_sq in xi.terms:
        block = rng.standard_normal(tuple(layout.sizes[s] for s in _slots(p)))
        block *= _block_scale(layout, p, delta_sq)
        block.setflags(write=False)
        blocks.append(block)
    return HamiltonianInstance(xi, layout, int(seed), tuple(blocks))


def energy(h: HamiltonianInstance, sigma: Configuration) -> float:
    """H(sigma) = sqrt(N) sum over terms of the block contracted with the
    species blocks of sigma, one per slot."""
    if sigma.layout != h.layout:
        raise ValueError("configuration layout does not match instance")
    x = sigma.coords
    total = 0.0
    for (p, _), a in zip(h.mixture.terms, h.tensors):
        slices = [h.layout.slices[s] for s in _slots(p)]
        t = a
        for sl in reversed(slices[1:]):
            t = t.reshape(-1, sl.stop - sl.start).dot(x[sl])
        total += float(t.dot(x[slices[0]]))
    return total * math.sqrt(h.layout.n)


@dataclass(frozen=True, eq=False)
class InstanceGroup:
    """Instances of one mixture on one layout, with each term's blocks
    stacked once on a leading instance axis, so one batched contraction
    evaluates every instance.  When every instance is the same object the
    group holds views of its term blocks with a leading axis of 1, broadcast
    over the group's rows."""

    size: int
    layout: SpeciesLayout
    slot_slices: tuple[tuple[slice, ...], ...]
    blocks: tuple[np.ndarray, ...]  # per term: (K or 1, *block shape)
    flats: tuple[np.ndarray, ...]  # views of blocks as (K or 1, d_last, rest), last axis first


def stack_instances(hs) -> InstanceGroup:
    """Stack the blocks of instances that share mixture terms and layout;
    one instance repeated is not copied, its blocks are shared."""
    hs = list(hs)
    if not hs:
        raise ValueError("need at least one instance")
    first, layout = hs[0], hs[0].layout
    keys = [p for p, _ in first.mixture.terms]
    if any(h.layout != layout or [p for p, _ in h.mixture.terms] != keys for h in hs):
        raise ValueError("grouped instances must share mixture terms and layout")
    members = hs[:1] if all(h is first for h in hs) else hs
    blocks = tuple(a[None] if len(members) == 1 else np.stack([h.tensors[t] for h in members])
                   for t, a in enumerate(first.tensors))
    slot_slices = tuple(tuple(layout.slices[s] for s in _slots(p)) for p in keys)
    flats = tuple(b.reshape(len(members), -1, b.shape[-1]).transpose(0, 2, 1) for b in blocks)
    return InstanceGroup(len(hs), layout, slot_slices, blocks, flats)


def _contract(group: InstanceGroup, coords, gradients: bool):
    """(energies, gradients or None) of coords (K, batch, N), row b of
    instance k on instance k.  Energies: per term, one stacked matrix
    product over the block's last axis, then batched matrix-vector products
    down to slot 0, in row chunks whose intermediates stay below about
    _BATCH_ELEMENT_CAP floats; before its last fold this holds slot 0's
    gradient part.  Slot c > 0 contracts a prefix (slots 0..c-1 folded in,
    slot 0 by one stacked matrix product) with the trailing slots."""
    coords = np.asarray(coords, dtype=float)
    k, n = group.size, group.layout.n
    if coords.ndim != 3 or coords.shape[0] != k or coords.shape[2] != n:
        raise ValueError(f"expected ({k}, batch, {n}) coordinates")
    n_batch = coords.shape[1]
    out = np.zeros((k, n_batch))
    g = np.zeros_like(coords) if gradients else None
    for slices, flat, block in zip(group.slot_slices, group.flats, group.blocks):
        chunk = max(1, _BATCH_ELEMENT_CAP // (k * flat.shape[2]))
        for lo in range(0, n_batch, chunk):
            rows = coords[:, lo:lo + chunk]
            part = g[:, lo:lo + chunk] if gradients else None
            v = rows[..., slices[-1]] @ flat
            flat_rows = rows.reshape(-1, n)
            for c in range(len(slices) - 2, -1, -1):
                if c == 0 and gradients:
                    part[..., slices[0]] += v.reshape(rows.shape[:2] + (-1,))
                v = v.reshape(len(flat_rows), -1, slices[c].stop - slices[c].start) @ \
                    flat_rows[:, slices[c], None]
            out[:, lo:lo + chunk] += v.reshape(k, -1)
            if gradients and len(slices) == 1:
                part[..., slices[0]] += block[:, None]
            for c in range(1, len(slices) if gradients else 0):
                d = slices[c - 1].stop - slices[c - 1].start
                prefix = (rows[..., slices[0]] @ block.reshape(len(block), d, -1) if c == 1 else
                          (rows[..., None, slices[c - 1]] @ prefix.reshape(
                              prefix.shape[:2] + (d, -1)))[..., 0, :])
                t = prefix
                for sl in reversed(slices[c + 1:]):
                    t = (t.reshape(t.shape[:2] + (-1, sl.stop - sl.start)) @ rows[..., sl, None])[..., 0]
                part[..., slices[c]] += t
    out *= math.sqrt(n)
    if gradients:
        g *= math.sqrt(n)
    return out, g


def group_energies(group: InstanceGroup, coords: np.ndarray) -> np.ndarray:
    """Energies of coords (K, batch, N): the energy half of _contract."""
    return _contract(group, coords, False)[0]


def group_gradients(group: InstanceGroup, coords: np.ndarray) -> np.ndarray:
    """Euclidean energy gradients of coords: the gradient half of _contract."""
    return _contract(group, coords, True)[1]


def group_energies_and_gradients(group: InstanceGroup, coords: np.ndarray):
    """(group_energies, group_gradients) from one contraction pass."""
    return _contract(group, coords, True)


def energy_many(h: HamiltonianInstance, coords: np.ndarray) -> np.ndarray:
    """Energies of a batch of configurations, rows of coords: the group-of-one
    case of group_energies (same values as energy on each row)."""
    return group_energies(h.group, np.asarray(coords, dtype=float)[None])[0]


def gradient_many(h: HamiltonianInstance, coords: np.ndarray) -> np.ndarray:
    """Euclidean energy gradients at a batch of configurations, rows of
    coords: the group-of-one case of group_gradients."""
    return group_gradients(h.group, np.asarray(coords, dtype=float)[None])[0]


def gradient(h: HamiltonianInstance, sigma: Configuration) -> np.ndarray:
    """Euclidean gradient of the energy: the one-row case of gradient_many."""
    if sigma.layout != h.layout:
        raise ValueError("configuration layout does not match instance")
    return gradient_many(h, sigma.coords[None])[0]


def factor_covariance(cov: np.ndarray) -> np.ndarray:
    """Symmetric-PSD square root with eigenvalue clipping at -1e-10 * trace.

    Eigenvalues below the clip tolerance mean the matrix is not a model
    covariance (invalid mixture or overlap input) and raise.
    """
    w, vecs = np.linalg.eigh(cov)
    tol = 1e-10 * max(float(np.trace(cov)), 0.0)
    if w.size and float(w.min()) < -tol:
        raise ValueError(
            f"covariance not PSD (min eigenvalue {w.min():.3e}); invalid mixture or overlaps")
    return vecs * np.sqrt(np.clip(w, 0.0, None))


def realize_on_points(xi: Mixture, layout: SpeciesLayout, points, seed: int) -> np.ndarray:
    """Sample (H(sigma_1)...H(sigma_M)) jointly with covariance N·xi(R),
    from the exact covariance matrix of the point set."""
    pts = list(points)
    if any(p.layout != layout for p in pts):
        raise ValueError("point layout does not match the given layout")
    x = np.array([p.coords for p in pts]).reshape(len(pts), layout.n)
    cov = layout.n * eval_mixture(xi, species_overlaps(x[:, None], x[None], layout))
    z = np.random.default_rng(int(seed)).standard_normal(len(pts))
    return factor_covariance(cov) @ z


def sample_in_ball(layout: SpeciesLayout, rng: np.random.Generator) -> Configuration:
    """Uniform draw from the closed ball R_s(sigma, sigma) <= 1 per species."""
    coords = np.empty(layout.n)
    for s, sl in enumerate(layout.slices):
        d = layout.sizes[s]
        direction = _unit_rows(1, d, rng)[0]
        radius = rng.uniform() ** (1.0 / d)
        coords[sl] = direction * (radius * math.sqrt(d))
    return Configuration(coords, layout)


def _clip_to_ball(coords: np.ndarray, layout: SpeciesLayout) -> np.ndarray:
    r = species_overlaps(coords, coords, layout)
    return coords / np.repeat(np.sqrt(np.maximum(r, 1.0)), layout.sizes)


def lipschitz_ratio(h: HamiltonianInstance, pairs: int, rng: np.random.Generator) -> float:
    """Max over sampled ball pairs of |H(a)-H(b)| / (N max_s sqrt(R_s(a-b,a-b))).

    Independent uniform pairs are nearly orthogonal to the slope in high
    dimension and their ratio shrinks with N, so alternate draws take a short
    step along the local gradient; the resulting maximum tracks the slope
    bound, which is what stays size-independent.
    """
    layout = h.layout
    best = 0.0
    done = 0
    while done < pairs:
        a = sample_in_ball(layout, rng)
        b = None
        if done % 2 == 0:
            g = gradient(h, a)
            norm = float(np.linalg.norm(g))
            if norm > 0.0:
                step = math.exp(rng.uniform(math.log(1e-3), 0.0))
                coords = a.coords + step * math.sqrt(layout.n) * g / norm
                b = Configuration(_clip_to_ball(coords, layout), layout)
        if b is None:
            b = sample_in_ball(layout, rng)
        diff = Configuration(a.coords - b.coords, layout)
        gap = float(np.max(diff.self_overlap()))
        if gap <= 0.0:
            continue  # coincident draw carries no ratio information
        ratio = abs(energy(h, a) - energy(h, b)) / (layout.n * math.sqrt(gap))
        best = max(best, ratio)
        done += 1
    return best


def save_instance(h: HamiltonianInstance, path) -> None:
    """Checkpoint header only, {"schema", "backend", "seed", "model"}: the
    disorder is always redrawn from the seed on load, never serialized."""
    header = {"schema": 1, "backend": _FORMAT, "seed": int(h.seed),
              "model": model_to_json(h.layout, h.mixture)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> HamiltonianInstance:
    """Read a save_instance checkpoint; a bad header raises ConfigError at its
    field, and any key outside the four, such as the "field" object that
    checkpoints once carried, is an unknown field."""
    with open(path, "rb") as fh:
        header = _expect_keys(_decode_json(fh.read()), "", ("schema", "backend", "seed", "model"))
    _expect_schema(header.get("schema"))
    if header.get("backend") != _FORMAT:
        raise ConfigError("backend", f"unknown checkpoint format {header.get('backend')!r}")
    layout, mixture = model_from_json(_required(header, "model", "model"))
    seed = _expect_int(_required(header, "seed", "seed"), "seed", minimum=0)
    _at("model", _check_budget, mixture, layout)
    return build_instance(mixture, layout, seed)
