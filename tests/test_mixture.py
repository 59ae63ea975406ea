"""Mixture algebra: frozen oracle values, closed-form identities, serialization."""

import json
import math

import numpy as np
import pytest
import sympy

from multispin.mixture import (
    ConfigError,
    Mixture,
    SpeciesLayout,
    eval_mixture,
    grad_mixture,
    layout_from_json,
    layout_to_json,
    log_volume_term,
    model_from_json,
    model_to_json,
    nesting_compose,
    onsager_term,
    random_mixture,
    scale_mixture,
    shifted_coefficients,
    xi_q,
)


def sympy_shifted_terms(xi, q):
    """Independent oracle: expand xi((1-q)x + q) - xi(q) symbolically."""
    n = xi.n_species
    xs = sympy.symbols(f"x0:{n}")
    expr = sympy.Integer(0)
    for p, c in xi.terms:
        term = sympy.Float(c, 30)
        for s, d in enumerate(p):
            term *= ((1 - sympy.Rational(q[s]).limit_denominator(10**12)) * xs[s]
                     + sympy.Rational(q[s]).limit_denominator(10**12)) ** d
    # subtract the constant xi(q): drop the zero-degree monomial after expansion
        expr += term
    poly = sympy.Poly(sympy.expand(expr), *xs)
    out = {}
    for monom, coef in poly.terms():
        if sum(monom) == 0:
            continue
        out[tuple(int(m) for m in monom)] = float(coef)
    return out


def test_eval_examples():
    one = Mixture.from_terms({(2,): 1.0})
    assert eval_mixture(one, [1.0]) == 1.0
    two = Mixture.from_terms({(1, 1): 1.0})
    assert eval_mixture(two, [0.5, 0.5]) == 0.25
    assert eval_mixture(one, [0.0]) == 0.0


def test_eval_batch_matches_one_vector_at_a_time():
    rng = np.random.default_rng(31)
    xi = random_mixture(rng, 3)
    x = rng.uniform(-1.0, 1.0, (4, 5, 3))
    batch = eval_mixture(xi, x)
    assert batch.shape == (4, 5)
    np.testing.assert_array_equal(batch, [[eval_mixture(xi, v) for v in row] for row in x])
    assert type(eval_mixture(xi, x[0, 0])) is float
    np.testing.assert_array_equal(eval_mixture(Mixture((), 3), x), np.zeros((4, 5)))
    with pytest.raises(ValueError):
        eval_mixture(xi, x[..., :2])


def test_grad_examples():
    one = Mixture.from_terms({(2,): 1.0})
    assert grad_mixture(one, [0.5])[0] == pytest.approx(1.0, abs=1e-15)
    two = Mixture.from_terms({(1, 1): 1.0})
    g = grad_mixture(two, [0.3, 0.7])
    assert g[0] == pytest.approx(0.7, abs=1e-15)
    assert g[1] == pytest.approx(0.3, abs=1e-15)


def test_grad_matches_central_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(50):
        n = int(rng.integers(1, 4))
        xi = random_mixture(rng, n)
        x = rng.uniform(-0.9, 0.9, size=n)
        g = grad_mixture(xi, x)
        for s in range(n):
            xp, xm = x.copy(), x.copy()
            xp[s] += h
            xm[s] -= h
            fd = (eval_mixture(xi, xp) - eval_mixture(xi, xm)) / (2 * h)
            assert abs(fd - g[s]) <= 1e-6 * max(1.0, abs(g[s]))


def test_shifted_frozen_values():
    # single species with a linear part; hand-expanded ((1-q)x+q)^2 + 0.5((1-q)x+q)
    xi = Mixture.from_terms({(2,): 1.0, (1,): 0.5})
    got = shifted_coefficients(xi, [0.25]).as_dict()
    assert got[(1,)] == pytest.approx(0.75, abs=1e-14)
    assert got[(2,)] == pytest.approx(0.5625, abs=1e-14)
    assert set(got) == {(1,), (2,)}

    # two species cross term, q = (0.5, 0.2), hand expansion
    xi2 = Mixture.from_terms({(1, 1): 1.0})
    got2 = shifted_coefficients(xi2, [0.5, 0.2]).as_dict()
    assert got2[(1, 1)] == pytest.approx(0.4, abs=1e-14)
    assert got2[(1, 0)] == pytest.approx(0.1, abs=1e-14)
    assert got2[(0, 1)] == pytest.approx(0.4, abs=1e-14)

    # spec-style example: xi = x^2 at q = 0.5
    got3 = shifted_coefficients(Mixture.from_terms({(2,): 1.0}), [0.5]).as_dict()
    assert got3 == {(1,): pytest.approx(0.5, abs=1e-14), (2,): pytest.approx(0.25, abs=1e-14)}


def test_shifted_matches_sympy_expansion():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        xi = random_mixture(rng, n)
        q = rng.uniform(0.0, 0.95, size=n)
        got = shifted_coefficients(xi, q).as_dict()
        want = sympy_shifted_terms(xi, q)
        keys = set(got) | {k for k, v in want.items() if abs(v) > 1e-15}
        for k in keys:
            assert got.get(k, 0.0) == pytest.approx(want.get(k, 0.0), abs=1e-9), (k, q)


def test_shifted_identity_200_triples():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        xi = random_mixture(rng, n)
        q = rng.uniform(0.0, 0.95, size=n)
        x = rng.uniform(-1.0, 1.0, size=n)
        lhs = eval_mixture(shifted_coefficients(xi, q), x)
        rhs = eval_mixture(xi, (1 - q) * x + q) - eval_mixture(xi, q)
        assert abs(lhs - rhs) <= 1e-10


def test_xi_q_identity_200_triples():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        xi = random_mixture(rng, n)
        q = rng.uniform(0.0, 0.95, size=n)
        x = rng.uniform(-1.0, 1.0, size=n)
        lhs = eval_mixture(xi_q(xi, q), x)
        rhs = (eval_mixture(xi, (1 - q) * x + q) - eval_mixture(xi, q)
               - float(np.dot((1 - q) * grad_mixture(xi, q), x)))
        assert abs(lhs - rhs) <= 1e-10


def test_xi_q_structure():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        xi = random_mixture(rng, n)
        q = rng.uniform(0.0, 0.95, size=n)
        out = xi_q(xi, q)
        assert all(sum(p) >= 2 for p in out.degrees)
        assert eval_mixture(out, np.zeros(n)) == 0.0
    # q = 0 keeps xi minus its linear terms, and shifted at q=0 is the identity
    xi = Mixture.from_terms({(2,): 1.0, (1,): 0.5})
    assert shifted_coefficients(xi, [0.0]).as_dict() == xi.as_dict()
    assert xi_q(xi, [0.0]).as_dict() == {(2,): 1.0}


def test_nesting_coefficient_identity():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        xi = random_mixture(rng, n)
        q = rng.uniform(0.0, 0.9, size=n)
        qp = rng.uniform(0.0, 0.9, size=n)
        qhat = nesting_compose(q, qp)
        inner = xi_q(xi_q(xi, q), qp).as_dict()
        outer = xi_q(xi, qhat).as_dict()
        for k in set(inner) | set(outer):
            assert inner.get(k, 0.0) == pytest.approx(outer.get(k, 0.0), abs=1e-10), k
        # 1 - qhat = (1-q)(1-q')
        np.testing.assert_allclose(1 - qhat, (1 - q) * (1 - qp), atol=1e-14)


def test_nesting_compose_examples():
    q = nesting_compose([0.0, 0.0], [0.3, 0.6])
    assert tuple(q) == (0.3, 0.6)
    assert tuple(nesting_compose([0.5], [0.5])) == (0.75,)


def test_onsager_and_log_volume():
    xi = Mixture.from_terms({(2,): 1.0})
    assert onsager_term(xi, [0.0]) == pytest.approx(0.5, abs=1e-14)
    assert onsager_term(xi, [0.5]) == pytest.approx(0.125, abs=1e-14)
    cross = Mixture.from_terms({(1, 1): 1.0})
    assert onsager_term(cross, [0.0, 0.0]) == pytest.approx(0.5, abs=1e-14)

    single = SpeciesLayout(("a",), (4,))
    assert log_volume_term(single, [0.0]) == 0.0
    assert log_volume_term(single, [0.5]) == pytest.approx(0.5 * math.log(0.5), abs=1e-14)
    both = SpeciesLayout(("a", "b"), (4, 4))
    assert log_volume_term(both, [0.75, 0.0]) == pytest.approx(0.25 * math.log(0.25), abs=1e-14)


def test_scale_mixture():
    xi = Mixture.from_terms({(2,): 1.0, (1,): 0.5})
    assert scale_mixture(xi, 1.0).as_dict() == xi.as_dict()
    assert scale_mixture(xi, 0.0).as_dict() == {}
    assert scale_mixture(xi, 2.0).as_dict() == {(2,): 4.0, (1,): 2.0}
    with pytest.raises(ValueError):
        scale_mixture(xi, -1.0)


def test_mixture_validation():
    with pytest.raises(ValueError):
        Mixture.from_terms({(0, 0): 1.0})
    with pytest.raises(ValueError):
        Mixture.from_terms({(1,): -0.5})
    pruned = Mixture.from_terms({(1,): 0.0, (2,): 1.0})
    assert pruned.as_dict() == {(2,): 1.0}
    empty = Mixture.from_terms({}, n_species=2)
    assert len(empty) == 0 and eval_mixture(empty, [0.3, 0.4]) == 0.0


def test_layout_validation():
    lay = SpeciesLayout(("a", "b"), (3, 5))
    assert lay.n == 8
    assert lay.proportions == (0.375, 0.625)
    assert lay.slices == (slice(0, 3), slice(3, 8))
    with pytest.raises(ValueError):
        SpeciesLayout(("a", "a"), (2, 2))
    with pytest.raises(ValueError):
        SpeciesLayout(("a",), (0,))
    single = SpeciesLayout(("a",), (5,))
    assert single.proportions == (1.0,)


def test_constructors_refuse_non_integral_sizes_and_degrees():
    # integral values of any numeric type are taken; 3.9 or 1.7 is not truncated
    lay = SpeciesLayout(("a", "b"), (np.int64(3), 4.0))
    assert lay.sizes == (3, 4) and all(type(n) is int for n in lay.sizes)
    mix = Mixture.from_terms({(np.int32(1), 1.0): 0.5})
    assert mix.degrees == ((1, 1),) and all(type(d) is int for d in mix.degrees[0])
    for bad in (3.9, math.nan, math.inf, "3"):
        with pytest.raises(ValueError, match="block size must be an integer"):
            SpeciesLayout(("a",), (bad,))
    with pytest.raises(ValueError, match="degree must be an integer"):
        Mixture.from_terms({(1.7, 1): 1.0})


def test_coefficient_looks_up_integral_keys_only():
    # the lookup reads keys as the constructors do: (1.7, 1) is not (1, 1)
    mix = Mixture.from_terms({(1, 1): 0.5})
    assert mix.coefficient((np.int64(1), 1.0)) == 0.5
    assert mix.coefficient((2, 0)) == 0.0
    with pytest.raises(ValueError, match="degree must be an integer"):
        mix.coefficient((1.7, 1))


def test_non_finite_overlaps_refused():
    lay = SpeciesLayout(("a", "b"), (3, 5))
    for q in ([math.nan, 0.2], [0.2, math.inf], [-math.inf, 0.2]):
        with pytest.raises(ValueError, match="shell overlap"):
            log_volume_term(lay, q)


def test_overlap_vector_ranges():
    from multispin.mixture import require_shell_overlap

    require_shell_overlap((0.0, 0.99), 2)
    with pytest.raises(ValueError):
        require_shell_overlap([1.0], 1)


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        xi = random_mixture(rng, n)
        species = [f"s{i}" for i in range(n)]
        blob = json.dumps(model_to_json(SpeciesLayout(species, (2,) * n), xi))
        layout, back = model_from_json(json.loads(blob))
        assert layout.species == tuple(species)
        assert back.as_dict() == xi.as_dict()  # bit-for-bit through repr round-trip


@pytest.mark.parametrize("coefficient", [math.nan, math.inf, -math.inf])
def test_nonfinite_coefficient_refused(coefficient):
    with pytest.raises(ValueError, match="finite"):
        Mixture.from_terms({(1, 1): coefficient})


def test_layout_round_trip_and_derived_proportions():
    lay = SpeciesLayout(("a", "b", "c"), (1, 2, 5))
    doc = layout_to_json(lay)
    assert doc == {"species": ["a", "b", "c"], "sizes": [1, 2, 5]}
    back = layout_from_json(json.loads(json.dumps(doc)))
    assert back == lay and back.proportions == (1 / 8, 2 / 8, 5 / 8)
    assert lay.scaled(3).proportions == lay.proportions


@pytest.mark.parametrize("mangle, path", [
    (lambda d: d.__setitem__("proportions", [0.5, 0.5]), "model.proportions"),
    (lambda d: d["terms"][0].__setitem__("delta", 1.0), "model.terms[0].delta"),
    (lambda d: d["terms"][0].__setitem__("delta_sq", math.nan), "model.terms[0].delta_sq"),
    (lambda d: d["terms"][0].__setitem__("delta_sq", True), "model.terms[0].delta_sq"),
    (lambda d: d["terms"][0]["p"].__setitem__(0, 1.7), "model.terms[0].p[0]"),
    (lambda d: d["sizes"].__setitem__(0, 3.9), "model.sizes[0]"),
    (lambda d: d["species"].__setitem__(0, 7), "model.species[0]"),
    (lambda d: d.pop("terms"), "model.terms"),
])
def test_model_codec_names_the_bad_field(mangle, path):
    lay = SpeciesLayout(("a", "b"), (3, 4))
    doc = model_to_json(lay, Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.3}))
    assert model_from_json(json.loads(json.dumps(doc))) == (
        lay, Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.3}))
    mangle(doc)
    with pytest.raises(ConfigError) as err:
        model_from_json(doc)
    assert err.value.path == path
