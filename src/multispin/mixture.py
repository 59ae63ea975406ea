"""Mixture-polynomial algebra for multi-species spherical spin models.

A model is a species layout (block sizes N_s, proportions lambda_s = N_s / N)
together with a mixture polynomial

    xi(x) = sum_p Delta_p^2 * prod_s x(s)^p(s),

where p runs over nonzero multi-degrees and x is a per-species overlap
vector.  Coefficients are stored as the variances Delta_p^2.  Everything
here is exact floating-point algebra: evaluation, gradients, the shifted
mixtures around an overlap q, and the scalar Onsager / log-volume terms.
The one model codec (model_to_json / model_from_json, and the layout-only
pair) reads and writes a model as JSON for the config and both checkpoints,
refusing bad input with a ConfigError at the path of the bad field.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ConfigError",
    "SpeciesLayout",
    "Mixture",
    "as_overlap_array",
    "require_shell_overlap",
    "eval_mixture",
    "grad_mixture",
    "shifted_coefficients",
    "xi_q",
    "nesting_compose",
    "nesting_gaps",
    "onsager_term",
    "log_volume_term",
    "scale_mixture",
    "layout_to_json",
    "layout_from_json",
    "model_to_json",
    "model_from_json",
    "random_mixture",
]


@dataclass(frozen=True)
class SpeciesLayout:
    """Block structure of coordinate space: labels, sizes N_s, lambda_s = N_s / N."""

    species: tuple[str, ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        species = tuple(str(s) for s in self.species)
        sizes = tuple(_integral(n, "block size") for n in self.sizes)
        if len(species) == 0:
            raise ValueError("layout needs at least one species")
        if len(set(species)) != len(species):
            raise ValueError(f"duplicate species labels: {species}")
        if len(sizes) != len(species):
            raise ValueError("sizes and species length mismatch")
        if any(n < 1 for n in sizes):
            raise ValueError(f"all block sizes must be >= 1, got {sizes}")
        total = sum(sizes)
        starts, size_array = np.cumsum((0,) + sizes[:-1]), np.array(sizes)
        starts.setflags(write=False)
        size_array.setflags(write=False)
        # the fields, then N, lambda_s, block starts and slices, sizes as an array
        for name, value in (("species", species), ("sizes", sizes), ("n", total),
                            ("proportions", tuple(n / total for n in sizes)),
                            ("starts", starts), ("size_array", size_array),
                            ("slices", tuple(slice(a, a + n)
                                             for a, n in zip(starts.tolist(), sizes)))):
            object.__setattr__(self, name, value)

    @property
    def n_species(self) -> int:
        return len(self.species)

    def scaled(self, factor: int) -> "SpeciesLayout":
        """Same species with every block size multiplied."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        return SpeciesLayout(self.species, tuple(n * factor for n in self.sizes))


def _integral(value, what: str) -> int:
    """int(value) for an integral real value, numpy ints and 3.0 included."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_overlap_array(q, n_species: int) -> np.ndarray:
    """Coerce a sequence or array of per-species values to a float vector."""
    vals = np.asarray(q, dtype=float)
    if vals.shape != (n_species,):
        raise ValueError(f"expected {n_species} per-species values, got shape {vals.shape}")
    return vals


def require_shell_overlap(q, n_species: int) -> np.ndarray:
    """Validate a shell parameter: every q(s) in [0, 1), so never NaN."""
    vals = as_overlap_array(q, n_species)
    if not np.all((vals >= 0.0) & (vals < 1.0)):
        raise ValueError(f"shell overlap must lie in [0, 1) per species, got {vals}")
    return vals


@dataclass(frozen=True)
class Mixture:
    """Sparse mixture polynomial: multi-degree p -> coefficient Delta_p^2 > 0.

    terms are kept sorted lexicographically by multi-degree for canonical
    serialization.  Exact zeros are pruned; negative coefficients rejected.
    An empty mixture (H identically 0) is allowed.
    """

    terms: tuple[tuple[tuple[int, ...], float], ...]
    n_species: int

    def __post_init__(self):
        seen = {}
        for p, c in self.terms:
            p = tuple(_integral(d, "degree") for d in p)
            c = float(c)
            if len(p) != self.n_species:
                raise ValueError(f"degree key {p} does not match {self.n_species} species")
            if any(d < 0 for d in p):
                raise ValueError(f"negative degree in {p}")
            if sum(p) < 1:
                raise ValueError("every mixture term needs total degree |p| >= 1")
            if not (math.isfinite(c) and c >= 0.0):
                raise ValueError(f"coefficient for {p} must be finite and >= 0, got {c}")
            if c == 0.0:
                continue  # prune exact zeros only
            if p in seen:
                raise ValueError(f"duplicate degree key {p}")
            seen[p] = c
        object.__setattr__(self, "terms", tuple(sorted(seen.items())))

    @classmethod
    def from_terms(cls, terms: Mapping[tuple[int, ...], float] | Iterable,
                   n_species: int | None = None) -> "Mixture":
        items = list(terms.items()) if isinstance(terms, Mapping) else list(terms)
        if n_species is None:
            if not items:
                raise ValueError("n_species required for an empty mixture")
            n_species = len(items[0][0])
        return cls(tuple((tuple(p), float(c)) for p, c in items), n_species)

    def as_dict(self) -> dict[tuple[int, ...], float]:
        return dict(self.terms)

    def coefficient(self, p: Sequence[int]) -> float:
        return self.as_dict().get(tuple(_integral(d, "degree") for d in p), 0.0)

    @property
    def degrees(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p for p, _ in self.terms)

    def __len__(self) -> int:
        return len(self.terms)


def eval_mixture(xi: Mixture, x):
    """xi(x) = sum_p Delta_p^2 prod_s x(s)^p(s), by repeated multiplication,
    over the last axis of x of shape (..., n_species); a float for one
    overlap vector, an array of the batch shape otherwise."""
    vals = np.asarray(x, dtype=float)
    if vals.shape[-1:] != (xi.n_species,):
        raise ValueError(f"expected {xi.n_species} per-species values, got shape {vals.shape}")
    total = np.zeros(vals.shape[:-1])
    for p, c in xi.terms:
        term = c
        for s, d in enumerate(p):
            for _ in range(d):  # integer powers kept exact
                term = term * vals[..., s]
        total = total + term
    return float(total) if total.ndim == 0 else total


def grad_mixture(xi: Mixture, x) -> np.ndarray:
    """Per-species partial derivatives of xi at x."""
    vals = as_overlap_array(x, xi.n_species)
    out = np.zeros(xi.n_species)
    for p, c in xi.terms:
        for s, d in enumerate(p):
            if d == 0:
                continue
            term = c * d
            for t, e in enumerate(p):
                power = e - 1 if t == s else e
                for _ in range(power):
                    term *= vals[t]
            out[s] += term
    return out


def shifted_coefficients(xi: Mixture, q) -> Mixture:
    """The recentered mixture xi-tilde around shell overlap q.

    Coefficients for |p| >= 1:

        Delta_{q,p}^2 = sum_{p' >= p} Delta_{p'}^2
                        * prod_s C(p'(s), p(s)) (1-q(s))^p(s) q(s)^(p'(s)-p(s)),

    which satisfies xi-tilde_q(x) = xi((1-q)x + q) - xi(q) identically.
    """
    qv = require_shell_overlap(q, xi.n_species)
    out: dict[tuple[int, ...], float] = {}
    for p_src, c in xi.terms:
        # expand ((1-q)x + q)^p'(s) binomially per species
        per_species = []
        for s, d in enumerate(p_src):
            col = [math.comb(d, j) * (1.0 - qv[s]) ** j * qv[s] ** (d - j) for j in range(d + 1)]
            per_species.append(col)
        for p in np.ndindex(*[d + 1 for d in p_src]):
            if sum(p) < 1:
                continue
            w = c
            for s, j in enumerate(p):
                w *= per_species[s][j]
            key = tuple(int(j) for j in p)
            out[key] = out.get(key, 0.0) + w
    return Mixture.from_terms(out, n_species=xi.n_species)


def xi_q(xi: Mixture, q) -> Mixture:
    """xi_q: the recentered mixture with all |p| = 1 terms removed.

    The linear correction term -(1-q)grad xi(q) x of the defining display
    cancels the |p| = 1 coefficients of xi-tilde_q exactly.
    """
    tilde = shifted_coefficients(xi, q)
    kept = {p: c for p, c in tilde.terms if sum(p) >= 2}
    return Mixture.from_terms(kept, n_species=xi.n_species)


def nesting_compose(q, q_prime) -> np.ndarray:
    """q-hat with q-hat(s) = q(s) + (1-q(s)) q'(s); satisfies 1-q-hat = (1-q)(1-q')."""
    qv = require_shell_overlap(q, np.size(q))
    qp = require_shell_overlap(q_prime, qv.size)
    return qv + (1.0 - qv) * qp


def onsager_term(xi: Mixture, q) -> float:
    """One half of xi_q evaluated at the all-ones overlap."""
    ones = np.ones(xi.n_species)
    return 0.5 * eval_mixture(xi_q(xi, q), ones)


def log_volume_term(layout: SpeciesLayout, q) -> float:
    """(1/2) sum_s lambda_s log(1 - q(s)); the shell entropy term, <= 0."""
    qv = require_shell_overlap(q, layout.n_species)
    return 0.5 * float(np.dot(layout.proportions, np.log1p(-qv)))


def nesting_gaps(xi: Mixture, layout: SpeciesLayout, q, q_prime) -> tuple[float, float]:
    """The two exact nesting identities at q then q', as absolute gaps: the
    largest coefficient difference between xi_q(xi_q(xi, q), q') and
    xi_q(xi, q-hat), and the log-volume additivity gap."""
    qhat = nesting_compose(q, q_prime)
    two_stage, one_stage = xi_q(xi_q(xi, q), q_prime), xi_q(xi, qhat)
    keys = {p for p, _ in two_stage.terms} | {p for p, _ in one_stage.terms}
    coefficient_gap = max(
        (abs(two_stage.coefficient(p) - one_stage.coefficient(p)) for p in keys), default=0.0)
    log_gap = abs(log_volume_term(layout, q) + log_volume_term(layout, q_prime)
                  - log_volume_term(layout, qhat))
    return coefficient_gap, log_gap


def scale_mixture(xi: Mixture, beta: float) -> Mixture:
    """Multiply every Delta_p^2 by beta^2 so the Hamiltonian scales linearly by beta."""
    beta = float(beta)
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return Mixture.from_terms({p: beta * beta * c for p, c in xi.terms}, n_species=xi.n_species)


class ConfigError(ValueError):
    """Validation failure of a JSON document, with the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _expect_keys(value, path: str, known):
    """value as a JSON object with no key outside known; path "" is the document."""
    if not isinstance(value, dict):
        raise ConfigError(path or "<document>", "expected a JSON object")
    for key in value:
        if key not in known:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")
    return value


def _expect_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return value


def _expect_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(path, "expected a finite number")
    return x


def _expect_list(value, path, min_len=0):
    if not isinstance(value, list):
        raise ConfigError(path, "expected a list")
    if len(value) < min_len:
        raise ConfigError(path, f"needs at least {min_len} entries")
    return value


def _expect_name(value, path):
    if not isinstance(value, str) or not value:
        raise ConfigError(path, "expected a non-empty string")
    return value


def _expect_schema(value, version: int = 1):
    if _expect_int(value, "schema") != version:
        raise ConfigError("schema", f"unsupported schema version {value}")


def _required(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(path, "missing required field")
    return mapping[key]


def _at(path, check, *args):
    """check(*args), with the ValueError it may raise as a ConfigError at path."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _decode_json(data: str | bytes):
    """The JSON document data, bytes read as UTF-8; a document that does not
    decode (invalid JSON, invalid UTF-8 or nested too deep) is a ConfigError
    at "<document>"."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc


def layout_to_json(layout: SpeciesLayout) -> dict:
    return {"species": list(layout.species), "sizes": list(layout.sizes)}


def layout_from_json(doc, path: str = "", extra: tuple[str, ...] = ()) -> SpeciesLayout:
    """The layout at path; keys beyond species, sizes and extra are refused."""
    at = f"{path}." if path else ""
    doc = _expect_keys(doc, path, ("species", "sizes") + extra)
    species = [_expect_name(v, f"{at}species[{k}]") for k, v in enumerate(_expect_list(
        _required(doc, "species", f"{at}species"), f"{at}species", min_len=1))]
    if len(set(species)) != len(species):
        raise ConfigError(f"{at}species", "species names must be unique")
    sizes = _expect_list(_required(doc, "sizes", f"{at}sizes"), f"{at}sizes", min_len=1)
    if len(sizes) != len(species):
        raise ConfigError(f"{at}sizes", "must match the number of species")
    return SpeciesLayout(tuple(species), tuple(
        _expect_int(v, f"{at}sizes[{k}]", minimum=1) for k, v in enumerate(sizes)))


def model_to_json(layout: SpeciesLayout, xi: Mixture) -> dict:
    """{"species", "sizes", "terms": [{"p", "delta_sq"}]}: a config's model object."""
    return {**layout_to_json(layout),
            "terms": [{"p": list(p), "delta_sq": c} for p, c in xi.terms]}


def model_from_json(doc) -> tuple[SpeciesLayout, Mixture]:
    """Inverse of model_to_json, checking every field and refusing unknown keys."""
    layout = layout_from_json(doc, "model", extra=("terms",))
    terms = {}
    for k, item in enumerate(_expect_list(_required(doc, "terms", "model.terms"), "model.terms")):
        at = f"model.terms[{k}]"
        entry = _expect_keys(item, at, ("p", "delta_sq"))
        p_raw = _expect_list(_required(entry, "p", f"{at}.p"), f"{at}.p", min_len=1)
        if len(p_raw) != layout.n_species:
            raise ConfigError(f"{at}.p", f"expected {layout.n_species} per-species degrees")
        p = tuple(_expect_int(v, f"{at}.p[{j}]", minimum=0) for j, v in enumerate(p_raw))
        if sum(p) < 1:
            raise ConfigError(f"{at}.p", "total degree must be >= 1")
        coeff = _expect_number(_required(entry, "delta_sq", f"{at}.delta_sq"),
                               f"{at}.delta_sq")
        if coeff <= 0.0:
            raise ConfigError(f"{at}.delta_sq", "must be > 0")
        if p in terms:
            raise ConfigError(f"{at}.p", "duplicate multi-degree")
        terms[p] = coeff
    return layout, Mixture.from_terms(terms, n_species=layout.n_species)


def random_mixture(rng: np.random.Generator, n_species: int, max_total_degree: int = 4,
                   n_terms: int = 4, min_total_degree: int = 1) -> Mixture:
    """Random finite mixture for property suites: positive coefficients."""
    terms: dict[tuple[int, ...], float] = {}
    tries = 0
    while len(terms) < n_terms and tries < 100 * n_terms:
        tries += 1
        p = tuple(int(d) for d in rng.integers(0, max_total_degree + 1, size=n_species))
        if not min_total_degree <= sum(p) <= max_total_degree:
            continue
        terms[p] = float(rng.uniform(0.1, 1.0))
    return Mixture.from_terms(terms, n_species=n_species)
