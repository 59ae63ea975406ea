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
    _expect_list,
    _expect_number,
    _expect_schema,
    _required,
    eval_mixture,
    grad_mixture,
    model_from_json,
    model_to_json,
    require_shell_overlap,
)

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "ExternalField",
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
    "attach_external_field",
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
    seed: int
    tensors: tuple[np.ndarray, ...]  # canonical blocks, aligned with mixture.terms
    field: ExternalField | None = None

    @property
    def raw_disorder(self) -> tuple[np.ndarray, ...]:
        """The standard normals each block is scaled from, redrawn per access."""
        rng = np.random.default_rng(self.seed)
        return tuple(rng.standard_normal(a.shape) for a in self.tensors)

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
    species blocks of sigma, one per slot, plus any field."""
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
    total *= math.sqrt(h.layout.n)
    if h.field is not None:
        total += float(h.field.vector @ x)
    return total


@dataclass(frozen=True, eq=False)
class InstanceGroup:
    """Instances of one mixture on one layout, with each term's blocks
    stacked once on a leading instance axis, and any external fields as one
    more one-slot block over all N coordinates (a zero row where an instance
    has none), so one batched contraction evaluates every instance.  When
    every instance is the same object the group holds views of its term
    blocks with a leading axis of 1, broadcast over the group's rows."""

    size: int
    layout: SpeciesLayout
    slot_slices: tuple[tuple[slice, ...], ...]
    blocks: tuple[np.ndarray, ...]  # per term, then any field: (K or 1, *block shape)
    flats: tuple[np.ndarray, ...]  # views of blocks as (K or 1, d_last, rest), last axis first


def stack_instances(hs) -> InstanceGroup:
    """Stack the blocks of instances that share mixture terms and layout;
    one instance repeated is not copied, its blocks are shared.  A field is
    the block J_i D_s / sqrt(N_s): _block_scale's one-spin block of D_s^2."""
    hs = list(hs)
    if not hs:
        raise ValueError("need at least one instance")
    first, layout = hs[0], hs[0].layout
    keys = [p for p, _ in first.mixture.terms]
    if any(h.layout != layout or [p for p, _ in h.mixture.terms] != keys for h in hs):
        raise ValueError("grouped instances must share mixture terms and layout")
    members = hs[:1] if all(h is first for h in hs) else hs
    blocks = [a[None] if len(members) == 1 else np.stack([h.tensors[t] for h in members])
              for t, a in enumerate(first.tensors)]
    slot_slices = [tuple(layout.slices[s] for s in _slots(p)) for p in keys]
    if any(h.field is not None for h in members):
        blocks.append(np.stack([np.zeros(layout.n) if h.field is None else h.field.normals *
                                np.repeat(np.divide(h.field.delta_coeffs,
                                                    np.sqrt(layout.size_array)), layout.sizes)
                                for h in members]))
        slot_slices.append((slice(0, layout.n),))
    flats = tuple(b.reshape(len(members), -1, b.shape[-1]).transpose(0, 2, 1) for b in blocks)
    return InstanceGroup(len(hs), layout, tuple(slot_slices), tuple(blocks), flats)


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


@functools.lru_cache(maxsize=128)
def _field_coefficients(shifted: Mixture, q: tuple[float, ...]) -> np.ndarray:
    """Read-only per-species field coefficients D_s = sqrt((1 - q_s) d_s
    xi(q)) of a base mixture xi solved from the mixture shifted and q, the
    same for every instance of one (mixture, q).

    Solves on shifted's own terms only: from the highest degree down, each
    base coefficient c_p is the one the overlap-shift map (triangular in the
    componentwise partial order, diagonal prod_s (1-q_s)^p(s) > 0) needs to
    reproduce shifted's coefficient at p, given the c_p solved above it.  It
    does not invert the map: the lower |p| >= 2 terms the solved xi recenters
    to are not checked against shifted.  So {(2,1): 1, (0,2): 0.5} at
    q = (0.2, 0.4) passes, although its preimage under the shift, the
    recentering at q' = -q/(1-q), has (1,1) and (2,0) coefficients of -1.04.
    A solved c_p below -1e-9 and a one-spin term of shifted are refused; base
    one-spin coefficients are taken to be zero (they leave no trace in the
    shifted |p| >= 2 block).
    """
    qv = np.array(q)
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
                w *= math.comb(pp[s], p[s]) * (1.0 - qv[s]) ** p[s] * qv[s] ** (pp[s] - p[s])
            acc -= w
        diag = 1.0
        for s in range(len(p)):
            diag *= (1.0 - qv[s]) ** p[s]
        val = acc / diag
        if val < -1e-9:
            raise ValueError(
                f"mixture is not a recentering of a nonnegative mixture (degree {p})")
        if val > 0.0:
            solved[p] = val
    slope = (grad_mixture(Mixture.from_terms(solved, n_species=len(q)), qv) if solved
             else np.zeros(len(q)))
    delta = np.sqrt((1.0 - qv) * slope)
    delta.setflags(write=False)
    return delta


def attach_external_field(hq: HamiltonianInstance, q, seed: int) -> HamiltonianInstance:
    """Add the independent one-spin Gaussian term restoring the full
    recentered covariance.

    hq must hold the recentered mixture with one-spin terms removed; the
    per-species field coefficients D_s are the one-spin coefficients of the
    full recentered mixture, solved from hq.mixture and q.  The returned
    instance shares hq's disorder and evaluates H_hq(sigma) + field . sigma;
    a group contracts the field as one more block (stack_instances).
    """
    layout = hq.layout
    qv = require_shell_overlap(q, layout.n_species)
    delta = _field_coefficients(hq.mixture, tuple(qv.tolist()))
    rng = np.random.default_rng(int(seed))
    normals = rng.standard_normal(layout.n)
    vector = normals * np.repeat(np.sqrt(layout.n / layout.size_array) * delta,
                                 layout.sizes)
    normals.setflags(write=False)
    vector.setflags(write=False)
    field = ExternalField(int(seed), tuple(float(v) for v in qv),
                          tuple(float(d) for d in delta), normals, vector)
    return HamiltonianInstance(hq.mixture, hq.layout, hq.seed, hq.tensors, field)


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
    """Checkpoint header only, {"schema", "backend", "seed", "model", "field"?}: the
    disorder is always redrawn from the seed on load, never serialized."""
    header = {"schema": 1, "backend": _FORMAT, "seed": int(h.seed),
              "model": model_to_json(h.layout, h.mixture)}
    if h.field is not None:
        header["field"] = {"seed": int(h.field.seed), "q": list(h.field.q)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> HamiltonianInstance:
    """Read a save_instance checkpoint; a bad header raises ConfigError at its field."""
    with open(path, "rb") as fh:
        header = _expect_keys(_decode_json(fh.read()), "",
                              ("schema", "backend", "seed", "model", "field"))
    _expect_schema(header.get("schema"))
    if header.get("backend") != _FORMAT:
        raise ConfigError("backend", f"unknown checkpoint format {header.get('backend')!r}")
    layout, mixture = model_from_json(_required(header, "model", "model"))
    seed = _expect_int(_required(header, "seed", "seed"), "seed", minimum=0)
    if "field" in header:
        field = _expect_keys(header["field"], "field", ("seed", "q"))
        field_seed = _expect_int(_required(field, "seed", "field.seed"), "field.seed", minimum=0)
        q = [_expect_number(v, f"field.q[{k}]")
             for k, v in enumerate(_expect_list(_required(field, "q", "field.q"), "field.q"))]
    _at("model", _check_budget, mixture, layout)
    h = build_instance(mixture, layout, seed)
    return _at("field.q", attach_external_field, h, q, field_seed) if "field" in header else h
