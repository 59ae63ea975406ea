"""Product-of-spheres configuration space: overlaps, sampling, bands, transforms.

Configurations live in R^N split into per-species blocks; the sphere S_N
constrains each block to squared norm N_s, the shell S_N(q) to N_s q(s).
Band sets B(m, delta) and their exact per-species measures are the geometric
backbone of the restricted free energies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mixture import (
    ConfigError,
    SpeciesLayout,
    _at,
    _decode_json,
    _expect_schema,
    _integral,
    as_overlap_array,
    layout_from_json,
    layout_to_json,
    require_shell_overlap,
)

__all__ = [
    "Configuration",
    "BandSpec",
    "overlap",
    "species_overlaps",
    "sample_uniform",
    "sample_uniform_batch",
    "sample_on_shell",
    "in_band",
    "in_multi_band",
    "tilde_transform",
    "project_phi",
    "rescale_to_shell",
    "log_band_volume",
    "sample_uniform_in_band",
    "sample_uniform_in_band_batch",
    "sign_patterns",
    "uniform_overlap_tail",
    "save_configuration",
    "load_configuration",
]

_ZERO_NORM = 1e-28  # squared-norm threshold treating a block as the zero point
DEFAULT_MEMORY_BUDGET = 2**28  # entries of a disorder draw or of any one working array


@dataclass(frozen=True)
class Configuration:
    """Point of R^N with layout bookkeeping and its cached per-species self-overlap."""

    coords: np.ndarray
    layout: SpeciesLayout

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float, copy=True)
        if coords.shape != (self.layout.n,):
            raise ValueError(f"expected {self.layout.n} coordinates, got {coords.shape}")
        coords.setflags(write=False)
        r = species_overlaps(coords, coords, self.layout)
        r.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_self_overlap", r)

    @property
    def block_sq_norms(self) -> np.ndarray:
        return self._self_overlap * self.layout.size_array

    def block(self, s: int) -> np.ndarray:
        return self.coords[self.layout.slices[s]]

    def self_overlap(self) -> np.ndarray:
        """R(sigma, sigma): per-species squared norm over N_s."""
        return self._self_overlap

    def is_on_sphere(self, tol: float = 1e-8) -> bool:
        return bool(np.all(np.abs(self.self_overlap() - 1.0) <= tol))


@dataclass(frozen=True)
class BandSpec:
    """Band parameters: center m, width delta, replica count n, pairwise width rho."""

    center: Configuration
    delta: float
    n: int = 1
    rho: float = 0.0

    def __post_init__(self):
        if not (self.delta >= 0 and self.rho >= 0):
            raise ValueError("delta and rho must be >= 0")
        object.__setattr__(self, "n", _integral(self.n, "replica count"))
        if self.n < 1:
            raise ValueError("replica count must be >= 1")

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """coords in B(m, delta): every species has |R_s(x, m) - R_s(m, m)| <= delta,
        over the last axis of coords, broadcast over the leading ones."""
        r = species_overlaps(coords, self.center.coords, self.center.layout)
        return (np.abs(r - self.center.self_overlap()) <= self.delta).all(axis=-1)

    def pairs_within(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Every species has |R_s(a, b) - R_s(m, m)| <= rho, over the last axis
        of a and b, broadcast over the leading ones."""
        r = species_overlaps(a, b, self.center.layout)
        return (np.abs(r - self.center.self_overlap()) <= self.rho).all(axis=-1)

    def tuples_within(self, tuples: np.ndarray) -> np.ndarray:
        """pairs_within for every pair i < j of replicas along axis -2 of
        tuples, broadcast over the leading axes; true for one replica."""
        i, j = np.triu_indices(tuples.shape[-2], 1)
        return self.pairs_within(tuples[..., i, :], tuples[..., j, :]).all(axis=-1)


def _check_same_layout(a: Configuration, b: Configuration):
    if a.layout != b.layout:
        raise ValueError("configurations have different layouts")


def species_overlaps(a: np.ndarray, b: np.ndarray, layout: SpeciesLayout) -> np.ndarray:
    """Per-species R_s(a,b) = N_s^{-1} sum_{i in I_s} a_i b_i over the last axis.

    a and b are coordinate arrays whose leading axes broadcast, so one call
    covers any batch of pairs; the result has shape (..., n_species).
    """
    return np.add.reduceat(np.multiply(a, b), layout.starts, axis=-1) / layout.size_array


def _to_shell(coords: np.ndarray, layout: SpeciesLayout, q: np.ndarray) -> np.ndarray:
    """Each block of each row scaled onto its shell, R_s = q_s; +0.0 where q_s = 0."""
    r = species_overlaps(coords, coords, layout)
    scale = np.sqrt(q / np.where(q > 0.0, r, 1.0))
    # + 0.0 turns the -0.0 of negative coordinates in q_s = 0 blocks into 0.0
    return coords * np.repeat(scale, layout.sizes, axis=-1) + 0.0


def _tangent(v: np.ndarray, x: np.ndarray, layout: SpeciesLayout, q: np.ndarray) -> np.ndarray:
    """v minus, block by block, its component along x, for x with R_s(x, x)
    = q_s; 0 in q_s = 0 blocks, which carry no directions."""
    live = q > 0.0
    along = species_overlaps(v, x, layout) / np.where(live, q, 1.0)
    return np.where(np.repeat(live, layout.sizes, axis=-1),
                    v - np.repeat(along, layout.sizes, axis=-1) * x, 0.0)


def overlap(a: Configuration, b: Configuration) -> np.ndarray:
    """Per-species R_s(a,b) = N_s^{-1} sum_{i in I_s} a_i b_i."""
    _check_same_layout(a, b)
    return species_overlaps(a.coords, b.coords, a.layout)


def _unit_rows(k: int, d: int, rng: np.random.Generator,
               normal: np.ndarray | None = None) -> np.ndarray:
    """k isotropic unit vectors in R^d, orthogonal to the unit vector normal
    when one is given.  Rows of zero norm (a probability-zero event) are
    redrawn."""
    g = rng.standard_normal((k, d))
    if normal is not None:
        g -= np.outer(g @ normal, normal)
    norm = np.linalg.norm(g, axis=1)
    bad = np.flatnonzero(norm == 0.0)
    if bad.size:
        g[bad] = _unit_rows(bad.size, d, rng, normal)
        norm[bad] = 1.0
    return g / norm[:, None]


def _check_pattern_budget(n: int) -> None:
    """Refuse the 2^n sign patterns of n coordinates when their 2^n x n
    entries exceed DEFAULT_MEMORY_BUDGET (n >= 24)."""
    if 2**n * n > DEFAULT_MEMORY_BUDGET:
        raise ValueError(f"2^{n} sign patterns of {n} coordinates are over the budget")


@lru_cache(maxsize=8)
def sign_patterns(n: int) -> np.ndarray:
    """All 2^n sign vectors as rows, fixed order (coordinate 0 fastest)."""
    _check_pattern_budget(n)
    codes = np.arange(2**n, dtype=np.int64)[:, None]
    patterns = 2.0 * ((codes >> np.arange(n)) & 1) - 1.0
    patterns.setflags(write=False)
    return patterns


def sample_uniform_batch(layout: SpeciesLayout, k: int, rng: np.random.Generator) -> np.ndarray:
    """k independent uniform draws on S_N, as rows of a (k, N) array: per
    block, an isotropic unit vector scaled to norm sqrt(N_s)."""
    coords = np.empty((k, layout.n))
    for s, sl in enumerate(layout.slices):
        coords[:, sl] = math.sqrt(layout.sizes[s]) * _unit_rows(k, layout.sizes[s], rng)
    return coords


def sample_uniform(layout: SpeciesLayout, rng: np.random.Generator) -> Configuration:
    """Uniform on S_N: one row of sample_uniform_batch."""
    return Configuration(sample_uniform_batch(layout, 1, rng)[0], layout)


def sample_on_shell(layout: SpeciesLayout, q, rng: np.random.Generator) -> Configuration:
    """Uniform on the shell S_N(q): block s on the sphere of radius sqrt(N_s q(s))."""
    qv = require_shell_overlap(q, layout.n_species)
    base = sample_uniform(layout, rng)
    return Configuration(base.coords * np.repeat(np.sqrt(qv), layout.sizes), layout)


def in_band(sigma: Configuration, m: Configuration, delta: float) -> bool:
    """sigma in B(m, delta): per-species |R_s(sigma,m) - R_s(m,m)| <= delta."""
    _check_same_layout(sigma, m)
    return bool(BandSpec(m, delta).contains(sigma.coords))


def in_multi_band(replicas, spec: BandSpec) -> bool:
    """All replicas in B(m, delta) with pairwise overlaps within rho of R(m,m)."""
    if len(replicas) != spec.n:
        raise ValueError(f"expected {spec.n} replicas, got {len(replicas)}")
    for sig in replicas:
        _check_same_layout(sig, spec.center)
    coords = np.array([sig.coords for sig in replicas])
    return bool(spec.contains(coords).all() and spec.tuples_within(coords))


def tilde_transform(sigma: Configuration, m: Configuration, q) -> Configuration:
    """Rescaled recentering sigma~_i = (1-q(s))^{-1/2} (sigma_i - m_i).

    Requires m on the shell S_N(q), sigma on S_N, and sigma in B(m, 0),
    all checked to 1e-8.  Output lies on S_N with R(sigma~, m) = 0.
    """
    _check_same_layout(sigma, m)
    qv = require_shell_overlap(q, m.layout.n_species)
    rm = m.self_overlap()
    if np.any(np.abs(rm - qv) > 1e-8):
        raise ValueError(f"center self-overlap {rm} does not match shell {qv}")
    if not sigma.is_on_sphere(1e-8):
        raise ValueError("sigma is not on S_N")
    r = overlap(sigma, m)
    if np.any(np.abs(r - qv) > 1e-8):
        raise ValueError(f"sigma not in B(m, 0): overlaps {r} vs shell {qv}")
    scale = np.repeat(np.sqrt(1.0 - qv), m.layout.sizes)
    return Configuration((sigma.coords - m.coords) / scale, m.layout)


def project_phi(sigma: Configuration, m: Configuration) -> Configuration:
    """Project sigma onto the zero-width band B(m, 0) block by block.

    tau_i = sigma_i - (R_s(sigma,m)/R_s(m,m)) m_i, then
    pi_i = m_i + sqrt((1 - R_s(m,m)) / R_s(tau,tau)) tau_i.
    Blocks where R_s(m,m) = 0 pass through unchanged.
    """
    _check_same_layout(sigma, m)
    layout, rm = m.layout, m.self_overlap()
    live = rm > _ZERO_NORM
    if np.any(live & (rm > 1.0)):
        raise ValueError(f"center outside the unit ball: self-overlaps {rm}")
    tau = _tangent(sigma.coords, m.coords, layout, np.where(live, rm, 0.0))
    degenerate = live & (species_overlaps(tau, tau, layout) <= _ZERO_NORM)
    if degenerate.any():
        raise ValueError(f"degenerate residual in species {layout.species[np.argmax(degenerate)]}")
    pi = m.coords + _to_shell(tau, layout, np.where(live, 1.0 - rm, 0.0))
    return Configuration(np.where(np.repeat(live, layout.sizes), pi, sigma.coords), layout)


def rescale_to_shell(m_prime: Configuration, q) -> Configuration:
    """m* with blocks scaled by sqrt(q(s)/R_s(m',m')), so R(m*,m*) = q."""
    layout = m_prime.layout
    qv = require_shell_overlap(q, layout.n_species)
    empty = (qv > 0.0) & (m_prime.self_overlap() <= _ZERO_NORM)
    if empty.any():
        raise ValueError(f"zero block for species {layout.species[np.argmax(empty)]} with q > 0")
    return Configuration(_to_shell(m_prime.coords, layout, qv), layout)


# One panel table of the truncated cosine law (1-c^2)^((d-3)/2) dc serves the
# band volume, the in-band sampler and the overlap tail.
_PANELS, _NEWTON_STEPS, _WINDOW = 128, 4, 50.0
_ROW_CHUNK = 4096  # rows inverted at once; keeps temporaries near 1 MiB


@lru_cache(maxsize=1)
def _gauss_legendre():
    """8 Gauss-Legendre nodes and weights, and the map node values @ poly to
    the monomial coefficients (x^0 .. x^8, in a panel's local x in [-1, 1])
    of the mass from x = -1 and of the density, for the polynomial through
    the nodes.  Built on first use, so runs without band code make no LAPACK
    call for it."""
    x, w = np.polynomial.legendre.leggauss(8)
    fit = np.pad(np.linalg.inv(np.vander(x, increasing=True)).T, ((0, 0), (0, 1)))
    anti = np.roll(fit, 1, axis=1) / np.maximum(np.arange(fit.shape[1]), 1)
    anti[:, 0] = -anti @ (-1.0) ** np.arange(fit.shape[1])
    return x, w, np.hstack((anti, fit))


@lru_cache(maxsize=256)
def _cos_law_table(d: int, c1: float, c2: float):
    """Panel table of cos^(d-2) t on [asin c1, asin c2], -1 <= c1 < c2 <= 1,
    d >= 2: scaled by its peak at tm (the point nearest 0), cut to the window
    above e^-_WINDOW of it, on _PANELS equal panels in s = t - tm.  Returns
    tm, the log peak, the panel edges, the cumulative mass at each edge and
    the density times ds/dx at each node, read-only and cached per (d, c1, c2)."""
    sin_m = min(max(0.0, c1), c2)
    cos_m = math.sqrt((1.0 - sin_m) * (1.0 + sin_m))
    tm, power = math.asin(sin_m), d - 2
    tw = math.acos(cos_m * math.exp(-_WINDOW / power)) if power else math.pi / 2
    t1, t2 = max(math.asin(c1), -tw), min(math.asin(c2), tw)
    edges = np.linspace(t1 - tm, t2 - tm, _PANELS + 1)
    x, w, _ = _gauss_legendre()
    half = 0.5 * np.diff(edges)[:, None]
    s = edges[:-1, None] + half * (x + 1.0)
    # (cos(tm + s) / cos tm)^power, accurate where the ratio is near 1
    vals = half * np.exp(power * np.log1p(-2.0 * np.sin(0.5 * s) ** 2 - sin_m / cos_m * np.sin(s)))
    cum = np.concatenate(([0.0], np.cumsum(vals @ w)))
    for table in (edges, cum, vals):
        table.setflags(write=False)
    return tm, power * math.log(cos_m), edges, cum, vals


@lru_cache(maxsize=256)
def _cos_law_fits(d: int, c1: float, c2: float):
    """Per panel of _cos_law_table(d, c1, c2): the monomial coefficients in x
    of its polynomial mass and density (panels, 2, k), and the density at x =
    -1 over the mean of its ends.  Read-only, cached per (d, c1, c2)."""
    vals = _cos_law_table(d, c1, c2)[4]
    k = vals.shape[1] + 1
    poly = (vals @ _gauss_legendre()[2]).reshape(-1, 2, k)
    ends = poly[:, 1] @ np.vander([-1.0, 1.0], k, increasing=True).T
    alpha = 2.0 * ends[:, 0] / ends.sum(axis=1)
    for table in (poly, alpha):
        table.setflags(write=False)
    return poly, alpha


def _powers(x: np.ndarray, k: int) -> np.ndarray:
    """x^0 .. x^(k-1) of each entry of x, shape (x.size, k): the table of
    np.vander(x, k, increasing=True), bit for bit, built column by column."""
    table = np.empty((x.size, k))
    table[:, 0] = 1.0
    for i in range(1, k):
        np.multiply(table[:, i - 1], x, out=table[:, i])
    return table


def _log_cos_integral(d: int, c1: float, c2: float) -> float:
    """log of int_{c1}^{c2} (1-c^2)^((d-3)/2) dc for d >= 2, via c = sin t."""
    if c2 <= c1:
        return -np.inf
    _, log_peak, _, cum, _ = _cos_law_table(d, max(c1, -1.0), min(c2, 1.0))
    return log_peak + math.log(cum[-1]) if cum[-1] > 0.0 else -np.inf


def _cos_law_inverse(d: int, c1: float, c2: float, u: np.ndarray) -> np.ndarray:
    """Angles t in [asin c1, asin c2] whose cosines c = sin t sit at
    truncated-law CDF values u.  Per row: Newton, in the local x of the panel
    that holds the target mass, on that panel's polynomial mass.  Angles, not
    cosines, since near c = +-1 the law's far tails lie below the float
    spacing of c but not of t."""
    tm, _, edges, cum, _ = _cos_law_table(d, c1, c2)
    poly, alpha = _cos_law_fits(d, c1, c2)
    k = poly.shape[2]
    out = np.empty(u.size)
    for lo in range(0, u.size, _ROW_CHUNK):
        target = cum[-1] * u[lo:lo + _ROW_CHUNK]
        j = np.minimum(np.searchsorted(cum, target, side="right") - 1, _PANELS - 1)
        r, a = (target - cum[j]) / np.maximum(cum[j + 1] - cum[j], 1e-300), alpha[j]
        # start from the CDF of the density linear between the panel's ends
        x = 4.0 * r / np.maximum(a + np.sqrt(a * a + 4.0 * (1.0 - a) * r), 1e-300) - 1.0
        # end panels at c = -1 and +1, where the density vanishes like the
        # power d - 2 of the distance to the end, start from that power's CDF
        if c1 == -1.0:
            x = np.where(j == 0, 2.0 * r ** (1.0 / (d - 1)) - 1.0, x)
        if c2 == 1.0:
            tail = np.maximum(1.0 - r, 0.0) ** (1.0 / (d - 1))
            x = np.where(j == _PANELS - 1, 1.0 - 2.0 * tail, x)
        rows = poly[j]
        rows[:, 0, 0] += cum[j] - target
        for _ in range(_NEWTON_STEPS):
            excess, dens = np.einsum("rck,rk->cr", rows, _powers(x, k))
            x = np.clip(x - excess / dens, -1.0, 1.0)
        out[lo:lo + _ROW_CHUNK] = tm + edges[j] + 0.5 * (x + 1.0) * (edges[1] - edges[0])
    return np.clip(out, math.asin(c1), math.asin(c2), out=out)


def _band_cosines(d: int, q: float, delta: float):
    """Admissible cosines against the center of one species band |R - q| <=
    delta, q > 0: the signs in (+1, -1) that qualify when d = 1, else the
    interval (c1, c2), empty when c2 < c1."""
    root = math.sqrt(q)
    if d == 1:
        return tuple(t for t in (1.0, -1.0) if abs(t * root - q) <= delta)
    return max((q - delta) / root, -1.0), min((q + delta) / root, 1.0)


def _species_band_log_measure(d: int, q: float, delta: float) -> float:
    """log of the uniform-sphere measure of one species band |R - q| <= delta.

    q is the center's per-species self-overlap (in [0, 1]); d the block size.
    For d = 1 the sphere is {-1, +1} and the measure is discrete.
    """
    if q <= 0.0:
        return 0.0  # zero center: every sphere point has R_s(sigma, 0) = 0
    cosines = _band_cosines(d, q, delta)
    if d == 1:
        return math.log(len(cosines) / 2.0) if cosines else -np.inf
    log_num = _log_cos_integral(d, *cosines)
    log_den = 0.5 * math.log(math.pi) + math.lgamma((d - 1) / 2) - math.lgamma(d / 2)
    return log_num - log_den


def log_band_volume(layout: SpeciesLayout, q, delta: float) -> float:
    """(1/N) log mu(B(m, delta)) for any m on the shell S_N(q).

    The band measure factorizes over species and each factor is an exact
    1-D integral of (1-x^2)^((N_s-3)/2) over the admissible cosine interval,
    so no sampling is needed.  Centers anywhere in the closed ball are
    allowed (q in [0, 1] per species).
    """
    qv = as_overlap_array(q, layout.n_species)
    if np.any(qv < 0.0) or np.any(qv > 1.0):
        raise ValueError("per-species self-overlaps must lie in [0, 1]")
    if not delta > 0.0:
        raise ValueError("delta must be > 0")
    total = 0.0
    for s, d in enumerate(layout.sizes):
        total += _species_band_log_measure(d, float(qv[s]), delta)
    return total / layout.n


def sample_uniform_in_band_batch(m: Configuration, delta: float, k: int,
                                 rng: np.random.Generator) -> np.ndarray:
    """k independent exact uniform draws from B(m, delta) on S_N, as rows of
    a (k, N) array.

    Per species: the cosine against m has the truncated law (1-c^2)^((N_s-3)/2)
    on the band's cosine interval, drawn as an angle t = asin c by inverting
    its CDF at one uniform per row (_cos_law_inverse); the orthogonal part is
    an isotropic direction of length cos t.
    Raises if some species band is empty (possible when N_s = 1).
    """
    layout = m.layout
    rm = m.self_overlap()
    coords = np.empty((k, layout.n))
    for s, sl in enumerate(layout.slices):
        d = layout.sizes[s]
        q = float(rm[s])
        if q <= 0.0:
            coords[:, sl] = math.sqrt(d) * _unit_rows(k, d, rng)
            continue
        cosines = _band_cosines(d, q, delta)
        if d == 1:
            mhat = 1.0 if m.coords[sl][0] > 0 else -1.0
            if not cosines:
                raise ValueError(f"empty band for species {layout.species[s]}")
            pick = rng.integers(0, 2, size=k) if len(cosines) == 2 else np.zeros(k, dtype=int)
            coords[:, sl.start] = np.array(cosines)[pick] * mhat
            continue
        c1, c2 = cosines
        if c2 < c1:
            raise ValueError(f"empty band for species {layout.species[s]}")
        u = rng.uniform(size=k)
        t = _cos_law_inverse(d, c1, c2, u) if c2 > c1 else np.full(k, math.asin(c1))
        c = np.clip(np.sin(t), c1, c2)
        mhat = m.coords[sl] / (math.sqrt(q) * math.sqrt(d))
        w = _unit_rows(k, d, rng, mhat)
        coords[:, sl] = math.sqrt(d) * (c[:, None] * mhat + np.cos(t)[:, None] * w)
    return coords


def sample_uniform_in_band(m: Configuration, delta: float, rng: np.random.Generator) -> Configuration:
    """Exact uniform draw from B(m, delta) on S_N: one row of
    sample_uniform_in_band_batch."""
    return Configuration(sample_uniform_in_band_batch(m, delta, 1, rng)[0], m.layout)


def uniform_overlap_tail(d: int, tau: float) -> float:
    """P(|R| >= tau) for the overlap of two independent uniform points on S^{d-1}."""
    if tau <= 0.0:
        return 1.0
    if tau >= 1.0:
        return 0.0
    if d == 1:
        return 1.0  # overlap is +-1
    return 2.0 * math.exp(_log_cos_integral(d, tau, 1.0) - _log_cos_integral(d, -1.0, 1.0))


def save_configuration(cfg: Configuration, path) -> None:
    """Checkpoint: a JSON header line {"schema", "species", "sizes"}, then float64 coords."""
    header = {"schema": 1, **layout_to_json(cfg.layout)}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(cfg.coords, dtype="<f8").tobytes())


def load_configuration(path) -> Configuration:
    """Read a save_configuration checkpoint; a bad header raises ConfigError at
    its field, a body not of finite float64 values at "coords", a miscount at "sizes"."""
    with open(path, "rb") as fh:
        header = _decode_json(fh.readline())
        body = fh.read()
    layout = layout_from_json(header, extra=("schema",))
    _expect_schema(header.get("schema"))
    coords = _at("coords", np.frombuffer, body, "<f8")
    if not np.isfinite(coords).all():
        raise ConfigError("coords", "coordinates must be finite")
    return _at("sizes", Configuration, coords, layout)
