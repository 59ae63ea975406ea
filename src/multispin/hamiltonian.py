"""Gaussian Hamiltonian realization with covariance N·xi(R(sigma, sigma')).

Two backends share one instance type.  The coefficient-tensor backend holds
one disorder block per mixture term p, of shape (N_{s_1}, ..., N_{s_k}) with
its slots in canonical (sorted-species) order, so the energy and its
Euclidean gradient are evaluable anywhere while only the index tuples of
the term's species pattern are stored.  The covariance-factor backend never
materializes coefficients; it samples exact joint values on finite point
sets from the covariance matrix.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Configuration, _unit_rows, overlap
from .mixture import (
    Mixture,
    SpeciesLayout,
    eval_mixture,
    grad_mixture,
    mixture_from_json,
    mixture_to_json,
    require_shell_overlap,
)

__all__ = [
    "TENSOR_BACKEND",
    "COVARIANCE_BACKEND",
    "DEFAULT_MEMORY_BUDGET",
    "ExternalField",
    "HamiltonianInstance",
    "build_instance",
    "disorder_entries",
    "energy",
    "energy_many",
    "gradient",
    "gradient_many",
    "InstanceGroup",
    "stack_instances",
    "group_energies",
    "group_gradients",
    "block_entries",
    "realize_on_points",
    "factor_covariance",
    "attach_external_field",
    "lipschitz_ratio",
    "sample_in_ball",
    "save_instance",
    "load_instance",
]

TENSOR_BACKEND = "coefficient-tensor"
COVARIANCE_BACKEND = "covariance-factor"
DEFAULT_MEMORY_BUDGET = 2**28  # dense disorder entries drawn across all terms

# chunk staged batch contractions so intermediates stay below ~2^24 floats
_BATCH_ELEMENT_CAP = 2**24
# the seeded draw is streamed in chunks of whole index rows of about this
# many entries (at least one row), so a build holds little beyond its blocks
_DRAW_CHUNK = 2**14


def _slots(p: tuple[int, ...]) -> tuple[int, ...]:
    """Species of each index slot of term p, in canonical (sorted) order."""
    return tuple(s for s, c in enumerate(p) for _ in range(c))


def _tuple_scalar(layout: SpeciesLayout, p: tuple[int, ...], delta_sq: float) -> float:
    """Per-tuple coefficient: sqrt(Delta_p^2 (prod_s p(s)!)/k! prod_s N_s^-p(s))."""
    val = delta_sq / math.factorial(sum(p))
    for s, c in enumerate(p):
        val *= math.factorial(c) / float(layout.sizes[s]) ** c
    return math.sqrt(val)


def disorder_entries(xi: Mixture, layout: SpeciesLayout) -> int:
    """Dense entries the seeded draw visits, N^k per term of degree k; the
    memory budget bounds this count, which bounds the held blocks too."""
    return sum(layout.n ** sum(p) for p, _ in xi.terms)


def block_entries(xi: Mixture, layout: SpeciesLayout) -> int:
    """Entries the canonical blocks of one instance hold, prod_s N_s^p(s)
    per term."""
    return sum(math.prod(layout.sizes[s] ** c for s, c in enumerate(p))
               for p, _ in xi.terms)


def _draw_block(rng: np.random.Generator, layout: SpeciesLayout, p: tuple[int, ...],
                scalar: float) -> np.ndarray:
    """Canonical block of term p, folded from one dense (N,)*k standard-normal
    draw streamed along axis 0.

    Each distinct slot ordering of p picks out one sub-block of the dense
    draw; the stable sort of its species puts that sub-block's axes in
    canonical order, and the block is scalar times the sum over orderings.
    """
    slots = _slots(p)
    k = len(slots)
    slices = layout.slices
    block = np.zeros(tuple(layout.sizes[s] for s in slots))
    folds = [[] for _ in slices]  # per species of draw axis 0
    for order in sorted(set(itertools.permutations(slots))):
        perm = tuple(sorted(range(k), key=order.__getitem__))
        index = (slice(None),) + tuple(slices[s] for s in order[1:])
        folds[order[0]].append((perm.index(0), index, perm))
    step = max(1, _DRAW_CHUNK // layout.n ** (k - 1))
    for s, sl in enumerate(slices):
        for lo in range(sl.start, sl.stop, step):
            hi = min(lo + step, sl.stop)
            rows = rng.standard_normal((hi - lo,) + (layout.n,) * (k - 1))
            for axis, index, perm in folds[s]:
                at = (slice(None),) * axis + (slice(lo - sl.start, hi - sl.start),)
                block[at] += rows[index].transpose(perm)
    block *= scalar
    block.setflags(write=False)
    return block


@dataclass(frozen=True, eq=False)
class ExternalField:
    """Independent one-spin term sum_s sqrt(N/N_s) D_s sum_{i in I_s} J_i sigma_i."""

    seed: int
    q: tuple[float, ...]
    delta_coeffs: tuple[float, ...]  # D_s >= 0 per species
    normals: np.ndarray  # J, i.i.d. standard normal, length N
    vector: np.ndarray  # energy coefficient of sigma_i, length N


@dataclass(frozen=True, eq=False)
class HamiltonianInstance:
    """One realized disorder sample of the Gaussian process.

    mixture holds the terms backed by disorder blocks; when an external
    field is attached the full covariance corresponds to law_mixture, which
    adds the field's one-spin coefficients.  Instances are immutable, and
    energy/gradient evaluation is pure, so concurrent use is safe.
    """

    mixture: Mixture
    layout: SpeciesLayout
    backend: str
    seed: int
    tensors: tuple[np.ndarray, ...] = ()  # canonical blocks, aligned with mixture.terms
    field: ExternalField | None = None
    # coordinate slice of each block axis, per term; fixed at construction
    slot_slices: tuple[tuple[slice, ...], ...] = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        species = self.layout.slices
        object.__setattr__(self, "slot_slices", tuple(
            tuple(species[s] for s in _slots(p)) for p, _ in self.mixture.terms))

    @property
    def raw_disorder(self) -> tuple[np.ndarray, ...]:
        """The dense (N,)*k i.i.d. normals behind each block, redrawn from
        seed on every access."""
        if self.backend != TENSOR_BACKEND:
            return ()
        rng = np.random.default_rng(self.seed)
        return tuple(rng.standard_normal((self.layout.n,) * sum(p))
                     for p, _ in self.mixture.terms)

    @property
    def law_mixture(self) -> Mixture:
        """Mixture whose covariance matches this instance, field included."""
        if self.field is None:
            return self.mixture
        terms = dict(self.mixture.terms)
        for s, d in enumerate(self.field.delta_coeffs):
            if d > 0.0:
                key = tuple(1 if t == s else 0 for t in range(self.layout.n_species))
                terms[key] = terms.get(key, 0.0) + d * d
        return Mixture.from_terms(terms, n_species=self.layout.n_species)

    def memory_entries(self) -> int:
        return disorder_entries(self.mixture, self.layout)

    @functools.cached_property
    def group(self) -> InstanceGroup:
        """This instance as a group of one (views of its blocks), stacked on
        first use."""
        return stack_instances([self])


def build_instance(xi: Mixture, layout: SpeciesLayout, seed: int,
                   backend: str = TENSOR_BACKEND,
                   budget: int = DEFAULT_MEMORY_BUDGET) -> HamiltonianInstance:
    """Draw the disorder for mixture xi on the given layout.

    The tensor backend draws, per mixture term and in the fixed lexicographic
    term order, a dense (N,)*k array of i.i.d. standard normals indexed by
    the k coordinates, and keeps only its canonical block: the sum over the
    term's slot orderings of the matching sub-blocks, scaled by the
    per-pattern coefficient.  The draw is streamed, so it is never held
    whole.  The covariance backend stores only (xi, layout, seed) and
    realizes values lazily on point sets.
    """
    if xi.n_species != layout.n_species:
        raise ValueError(f"mixture has {xi.n_species} species, layout {layout.n_species}")
    if backend == COVARIANCE_BACKEND:
        return HamiltonianInstance(xi, layout, backend, int(seed))
    if backend != TENSOR_BACKEND:
        raise ValueError(f"unknown backend {backend!r}")
    cost = disorder_entries(xi, layout)
    if cost > budget:
        raise ValueError(
            f"disorder needs {cost} dense entries, over the budget of {budget}")
    rng = np.random.default_rng(int(seed))
    blocks = tuple(_draw_block(rng, layout, p, _tuple_scalar(layout, p, delta_sq))
                   for p, delta_sq in xi.terms)
    return HamiltonianInstance(xi, layout, backend, int(seed), blocks)


def _require_tensor(h: HamiltonianInstance):
    if h.backend != TENSOR_BACKEND:
        raise ValueError(
            "covariance backend has no pointwise form; use realize_on_points")


def energy(h: HamiltonianInstance, sigma: Configuration) -> float:
    """H(sigma) = sqrt(N) sum over terms of the block contracted with the
    species blocks of sigma, one per slot, plus any field."""
    _require_tensor(h)
    if sigma.layout != h.layout:
        raise ValueError("configuration layout does not match instance")
    x = sigma.coords
    total = 0.0
    for slices, a in zip(h.slot_slices, h.tensors):
        t = a
        for sl in reversed(slices[1:]):
            t = t.reshape(-1, sl.stop - sl.start).dot(x[sl])
        total += float(t.dot(x[slices[0]]))
    total *= math.sqrt(h.layout.n)
    if h.field is not None:
        total += float(h.field.vector @ x)
    return total


@dataclass(frozen=True, eq=False)
class InstanceGroup:
    """Tensor-backend instances of one mixture on one layout, with each
    term's blocks stacked once on a leading instance axis, so one batched
    contraction evaluates every instance.  When every instance is the same
    object the group holds views of its blocks with a leading axis of 1,
    and the contractions broadcast them over the group's rows."""

    size: int
    layout: SpeciesLayout
    slot_slices: tuple[tuple[slice, ...], ...]
    blocks: tuple[np.ndarray, ...]  # per term (K or 1, *block shape)
    flats: tuple[np.ndarray, ...]  # views of blocks as (K or 1, d_last, rest), last axis first
    fields: np.ndarray | None  # (K or 1, N) field vectors, or None when no instance has one


def stack_instances(hs) -> InstanceGroup:
    """Stack the blocks of instances that share mixture terms and layout;
    one instance repeated is not copied, its blocks are shared."""
    hs = list(hs)
    if not hs:
        raise ValueError("need at least one instance")
    for h in hs:
        _require_tensor(h)
    first = hs[0]
    keys = [p for p, _ in first.mixture.terms]
    if any(h.layout != first.layout or [p for p, _ in h.mixture.terms] != keys
           for h in hs):
        raise ValueError("grouped instances must share mixture terms and layout")
    members = hs[:1] if all(h is first for h in hs) else hs
    blocks = tuple(a[None] if len(members) == 1 else np.stack([h.tensors[t] for h in members])
                   for t, a in enumerate(first.tensors))
    flats = tuple(b.reshape(len(members), -1, b.shape[-1]).transpose(0, 2, 1) for b in blocks)
    fields = None
    if any(h.field is not None for h in members):
        zero = np.zeros(first.layout.n)
        fields = np.stack([zero if h.field is None else h.field.vector for h in members])
    return InstanceGroup(len(hs), first.layout, first.slot_slices, blocks, flats, fields)


def _check_group_rows(group: InstanceGroup, coords) -> np.ndarray:
    coords = np.asarray(coords, dtype=float)
    k, n = group.size, group.layout.n
    if coords.ndim != 3 or coords.shape[0] != k or coords.shape[2] != n:
        raise ValueError(f"expected ({k}, batch, {n}) coordinates")
    return coords


def group_energies(group: InstanceGroup, coords: np.ndarray) -> np.ndarray:
    """Energies of a batch of configurations per instance: coords has shape
    (K, batch, N) and row b of instance k is evaluated on instance k.  Each
    term is one stacked matrix product over the block's last axis, then
    batched matrix-vector products, chunked so intermediates stay below
    about _BATCH_ELEMENT_CAP floats."""
    coords = _check_group_rows(group, coords)
    k, n = group.size, group.layout.n
    n_batch = coords.shape[1]
    out = np.zeros((k, n_batch))
    for slices, flat in zip(group.slot_slices, group.flats):
        chunk = max(1, _BATCH_ELEMENT_CAP // (k * flat.shape[2]))
        for lo in range(0, n_batch, chunk):
            rows = coords[:, lo:lo + chunk]
            v = rows[..., slices[-1]] @ flat
            rows = rows.reshape(-1, n)
            for sl in reversed(slices[:-1]):
                v = v.reshape(len(rows), -1, sl.stop - sl.start) @ rows[:, sl, None]
            out[:, lo:lo + chunk] += v.reshape(k, -1)
    out *= math.sqrt(n)
    if group.fields is not None:
        fields = np.broadcast_to(group.fields, (k, n))
        for i in range(k):
            out[i] += coords[i] @ fields[i]
    return out


def group_gradients(group: InstanceGroup, coords: np.ndarray) -> np.ndarray:
    """Euclidean energy gradients of a batch of configurations per instance,
    coords of shape (K, batch, N) as in group_energies.

    Per term, block axis c takes the block contracted on every other axis:
    the leading axes are folded in once per row, as a running prefix, and
    the trailing axes per slot, as batched matrix-vector products.
    """
    coords = _check_group_rows(group, coords)
    k, n_batch = coords.shape[:2]
    g = np.zeros_like(coords)
    for slices, a in zip(group.slot_slices, group.blocks):
        prefix = a[:, None]  # axis 1: 1 until the first fold, then the batch
        for c, sl in enumerate(slices):
            t = prefix
            for rest in reversed(slices[c + 1:]):
                t = t.reshape(t.shape[:2] + (-1, rest.stop - rest.start)) @ coords[..., rest, None]
            g[..., sl] += t.reshape(t.shape[:2] + (-1,))
            if c + 1 < len(slices):
                d = sl.stop - sl.start
                prefix = (coords[:, :, None, sl] @ prefix.reshape(prefix.shape[:2] + (d, -1))
                          ).reshape((k, n_batch) + a.shape[c + 2:])
    g *= math.sqrt(group.layout.n)
    if group.fields is not None:
        g += group.fields[:, None]
    return g


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
    h = build_instance(xi, layout, seed, backend=COVARIANCE_BACKEND)
    pts = list(points)
    m = len(pts)
    cov = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            cov[i, j] = cov[j, i] = layout.n * eval_mixture(xi, overlap(pts[i], pts[j]))
    z = np.random.default_rng(h.seed).standard_normal(m)
    return factor_covariance(cov) @ z


def _base_coefficients(shifted: Mixture, q: np.ndarray) -> dict[tuple[int, ...], float]:
    """Invert the overlap-shift map on the |p| >= 2 block.

    Solves for base coefficients c_p (all |p| >= 2) such that shifting them
    to center q reproduces the given mixture's terms; the map is triangular
    in the componentwise partial order with diagonal prod_s (1-q_s)^p(s) > 0.
    Base one-spin coefficients are taken to be zero (they leave no trace in
    the shifted |p| >= 2 block).
    """
    targets = shifted.as_dict()
    if any(sum(p) < 2 for p in targets):
        raise ValueError("shifted mixture must not carry one-spin terms")
    solved: dict[tuple[int, ...], float] = {}
    for p in sorted(targets, key=lambda t: (-sum(t), t)):
        acc = targets[p]
        for pp, c in solved.items():
            if pp == p or any(a < b for a, b in zip(pp, p)):
                continue
            w = c
            for s in range(len(p)):
                w *= math.comb(pp[s], p[s]) * (1.0 - q[s]) ** p[s] * q[s] ** (pp[s] - p[s])
            acc -= w
        diag = 1.0
        for s in range(len(p)):
            diag *= (1.0 - q[s]) ** p[s]
        val = acc / diag
        if val < -1e-9:
            raise ValueError(
                f"mixture is not a recentering of a nonnegative mixture (degree {p})")
        if val > 0.0:
            solved[p] = val
    return solved


def attach_external_field(hq: HamiltonianInstance, q, seed: int) -> HamiltonianInstance:
    """Add the independent one-spin Gaussian term restoring the full
    recentered covariance.

    hq must hold the recentered mixture with one-spin terms removed; the
    per-species field coefficients D_s are the one-spin coefficients of the
    full recentered mixture, recovered from hq.mixture and q.  The returned
    instance shares hq's disorder and evaluates H_hq(sigma) + field. sigma.
    """
    layout = hq.layout
    qv = require_shell_overlap(q, layout.n_species)
    base = _base_coefficients(hq.mixture, qv)
    if base:
        base_mix = Mixture.from_terms(base, n_species=layout.n_species)
        slope = grad_mixture(base_mix, qv)
    else:
        slope = np.zeros(layout.n_species)
    delta = np.sqrt((1.0 - qv) * slope)
    rng = np.random.default_rng(int(seed))
    normals = rng.standard_normal(layout.n)
    vector = np.array(normals)
    for s, sl in enumerate(layout.slices):
        vector[sl] *= math.sqrt(layout.n / layout.sizes[s]) * delta[s]
    normals.setflags(write=False)
    vector.setflags(write=False)
    field = ExternalField(int(seed), tuple(float(v) for v in qv),
                          tuple(float(d) for d in delta), normals, vector)
    return dataclasses.replace(hq, field=field)


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
    out = np.array(coords)
    for s, sl in enumerate(layout.slices):
        r = float(out[sl] @ out[sl]) / layout.sizes[s]
        if r > 1.0:
            out[sl] /= math.sqrt(r)
    return out


def lipschitz_ratio(h: HamiltonianInstance, pairs: int, rng: np.random.Generator) -> float:
    """Max over sampled ball pairs of |H(a)-H(b)| / (N max_s sqrt(R_s(a-b,a-b))).

    Independent uniform pairs are nearly orthogonal to the slope in high
    dimension and their ratio shrinks with N, so alternate draws take a short
    step along the local gradient; the resulting maximum tracks the slope
    bound, which is what stays size-independent.
    """
    _require_tensor(h)
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
        gap = float(np.max(diff.self_overlap().as_array()))
        if gap <= 0.0:
            continue  # coincident draw carries no ratio information
        ratio = abs(energy(h, a) - energy(h, b)) / (layout.n * math.sqrt(gap))
        best = max(best, ratio)
        done += 1
    return best


def save_instance(h: HamiltonianInstance, path) -> None:
    """Checkpoint header only: mixture, layout, seed, backend, field metadata.

    Disorder is always regenerated from the seed on load, never serialized.
    """
    header = {
        "schema": 1,
        "backend": h.backend,
        "seed": int(h.seed),
        "mixture": mixture_to_json(h.mixture, h.layout.species),
        "layout": {
            "species": list(h.layout.species),
            "sizes": list(h.layout.sizes),
            "proportions": list(h.layout.proportions),
        },
    }
    if h.field is not None:
        header["field"] = {"seed": int(h.field.seed), "q": list(h.field.q)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, sort_keys=True)
        fh.write("\n")


def load_instance(path, budget: int = DEFAULT_MEMORY_BUDGET) -> HamiltonianInstance:
    with open(path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    lay = header["layout"]
    layout = SpeciesLayout(tuple(lay["species"]), tuple(lay["sizes"]),
                           tuple(lay["proportions"]))
    mixture, _ = mixture_from_json(header["mixture"])
    h = build_instance(mixture, layout, header["seed"], header["backend"], budget)
    if "field" in header:
        h = attach_external_field(h, header["field"]["q"], header["field"]["seed"])
    return h
