"""Hamiltonian realization: coefficients, determinism, covariance, checkpoints."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multispin.geometry import (
    Configuration,
    load_configuration,
    overlap,
    sample_on_shell,
    sample_uniform,
    save_configuration,
)
from multispin.ground_state import ascend, eigen_oracle_2spin
from multispin import hamiltonian
from multispin.hamiltonian import (
    build_instance,
    energy,
    energy_many,
    factor_covariance,
    gradient,
    gradient_many,
    group_energies,
    group_energies_and_gradients,
    group_gradients,
    lipschitz_ratio,
    load_instance,
    realize_on_points,
    sample_in_ball,
    save_instance,
    stack_instances,
)
from multispin.mixture import (
    ConfigError,
    Mixture,
    SpeciesLayout,
    eval_mixture,
    random_mixture,
    xi_q,
)


def test_pair_coefficient_frozen_single_species():
    # xi = x^2 on N = 4: every index pair carries squared coefficient 1/16,
    # so H(all-ones) = sqrt(4) * (1/4) * sum(J)
    lay = SpeciesLayout(("a",), (4,))
    mix = Mixture.from_terms({(2,): 1.0})
    h = build_instance(mix, lay, seed=77)
    ones = Configuration(np.ones(4), lay)
    j = np.random.default_rng(77).standard_normal((4, 4))
    assert energy(h, ones) == pytest.approx(2.0 * 0.25 * j.sum(), abs=1e-12)
    np.testing.assert_array_equal(h.raw_disorder[0], j)


def test_pair_coefficient_frozen_two_species():
    # xi = x_a x_b with N_a = N_b = 2: the one (a, b) block holds i.i.d.
    # normals of variance Delta^2 / (N_a N_b) = 1/4, drawn in its own shape
    lay = SpeciesLayout(("a", "b"), (2, 2))
    mix = Mixture.from_terms({(1, 1): 1.0})
    h = build_instance(mix, lay, seed=123)
    ones = Configuration(np.ones(4), lay)
    j = np.random.default_rng(123).standard_normal((2, 2))
    np.testing.assert_allclose(h.tensors[0], math.sqrt(1 / 4) * j, rtol=1e-15, atol=0)
    np.testing.assert_array_equal(h.raw_disorder[0], j)
    assert energy(h, ones) == pytest.approx(2.0 * math.sqrt(1 / 4) * j.sum(), abs=1e-12)


def test_one_species_blocks_frozen():
    # a one-species block is the seeded draw in its own shape: these values
    # were pinned when each block was still folded from a dense draw
    lay = SpeciesLayout(("a",), (2,))
    h = build_instance(Mixture.from_terms({(2,): 0.6, (3,): 0.3}), lay, seed=2024)
    np.testing.assert_array_equal(h.tensors[0], [
        [0.39847455384467373, 0.635912897332357],
        [0.4441225640898488, -0.3769108056303196]])
    np.testing.assert_array_equal(h.tensors[1], [
        [[-0.26971457889318484, 0.013012518205809993],
         [0.16679988802118711, 0.09860359960190078]],
        [[0.3505602940562581, 0.14540021335668307],
         [0.12388890489768199, -0.1416199972713648]]])


def test_rebuild_is_bit_identical():
    rng = np.random.default_rng(5)
    lay = SpeciesLayout(("a", "b"), (3, 5))
    mix = random_mixture(rng, 2)
    h1 = build_instance(mix, lay, seed=42)
    h2 = build_instance(mix, lay, seed=42)
    for a, b in zip(h1.raw_disorder, h2.raw_disorder):
        np.testing.assert_array_equal(a, b)
    sig = sample_uniform(lay, rng)
    assert energy(h1, sig) == energy(h2, sig)
    h3 = build_instance(mix, lay, seed=43)
    assert energy(h3, sig) != energy(h1, sig)


def test_energy_zero_point_and_parity():
    rng = np.random.default_rng(6)
    lay = SpeciesLayout(("a", "b"), (3, 4))
    even = Mixture.from_terms({(2, 0): 0.5, (1, 1): 0.3, (0, 4): 0.1})
    h = build_instance(even, lay, seed=9)
    zero = Configuration(np.zeros(7), lay)
    assert energy(h, zero) == 0.0
    sig = sample_uniform(lay, rng)
    neg = Configuration(-sig.coords, lay)
    assert energy(h, neg) == pytest.approx(energy(h, sig), rel=1e-12)


def test_empty_mixture_is_zero_process():
    lay = SpeciesLayout(("a",), (5,))
    h = build_instance(Mixture((), 1), lay, seed=1)
    rng = np.random.default_rng(0)
    sig = sample_uniform(lay, rng)
    assert energy(h, sig) == 0.0
    np.testing.assert_array_equal(gradient(h, sig), np.zeros(5))
    vals = realize_on_points(Mixture((), 1), lay, [sig, sig], seed=3)
    np.testing.assert_array_equal(vals, np.zeros(2))


def test_energy_many_matches_loop():
    rng = np.random.default_rng(7)
    lay = SpeciesLayout(("a", "b"), (3, 4))
    mix = random_mixture(rng, 2)
    h = build_instance(mix, lay, seed=11)
    pts = [sample_uniform(lay, rng) for _ in range(17)]
    coords = np.array([p.coords for p in pts])
    batch = energy_many(h, coords)
    single = np.array([energy(h, p) for p in pts])
    np.testing.assert_allclose(batch, single, rtol=1e-10, atol=1e-10)


def test_empirical_covariance_matches_mixture():
    # mean of H(s)H(s')/N over independent disorder within 3 SE of xi(R)
    lay = SpeciesLayout(("a", "b"), (3, 5))
    mix = Mixture.from_terms({(2, 0): 0.4, (1, 1): 0.6, (1, 2): 0.3})
    rng = np.random.default_rng(8)
    pairs = [(sample_uniform(lay, rng), sample_uniform(lay, rng)) for _ in range(5)]
    coords = np.array([p.coords for pair in pairs for p in pair])
    n_inst = 20000
    prods = np.empty((n_inst, 5))
    for i in range(n_inst):
        h = build_instance(mix, lay, seed=1000 + i)
        vals = energy_many(h, coords)
        prods[i] = vals[0::2] * vals[1::2] / lay.n
    for k, (a, b) in enumerate(pairs):
        want = eval_mixture(mix, overlap(a, b))
        got = prods[:, k].mean()
        se = prods[:, k].std(ddof=1) / math.sqrt(n_inst)
        assert abs(got - want) <= 3 * se


def test_empirical_covariance_three_species_cross_term():
    # a (1,1,1) block drawn in its own shape still has covariance N xi(R)
    lay = SpeciesLayout(("a", "b", "c"), (2, 2, 2))
    mix = Mixture.from_terms({(1, 1, 1): 1.0})
    rng = np.random.default_rng(8)
    pairs = [(sample_uniform(lay, rng), sample_uniform(lay, rng)) for _ in range(5)]
    coords = np.array([p.coords for pair in pairs for p in pair])
    n_inst = 20000
    prods = np.empty((n_inst, 5))
    for i in range(n_inst):
        vals = energy_many(build_instance(mix, lay, seed=1000 + i), coords)
        prods[i] = vals[0::2] * vals[1::2] / lay.n
    for k, (a, b) in enumerate(pairs):
        se = prods[:, k].std(ddof=1) / math.sqrt(n_inst)
        assert abs(prods[:, k].mean() - eval_mixture(mix, overlap(a, b))) <= 3 * se


def test_gradient_linear_term_constant():
    lay = SpeciesLayout(("a", "b"), (3, 2))
    mix = Mixture.from_terms({(1, 0): 0.9, (0, 1): 0.4})
    h = build_instance(mix, lay, seed=3)
    rng = np.random.default_rng(1)
    g1 = gradient(h, sample_uniform(lay, rng))
    g2 = gradient(h, sample_uniform(lay, rng))
    np.testing.assert_array_equal(g1, g2)


def test_gradient_quadratic_closed_form():
    # xi = x^2: H = sqrt(N) sigma^T A sigma, gradient = sqrt(N) (A + A^T) sigma
    lay = SpeciesLayout(("a",), (6,))
    h = build_instance(Mixture.from_terms({(2,): 1.0}), lay, seed=21)
    rng = np.random.default_rng(2)
    sig = sample_uniform(lay, rng)
    a = h.tensors[0]
    want = math.sqrt(6) * (a + a.T) @ sig.coords
    np.testing.assert_allclose(gradient(h, sig), want, rtol=1e-12)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(12)
    lay = SpeciesLayout(("a", "b"), (3, 4))
    for trial in range(5):
        mix = random_mixture(rng, 2)
        h = build_instance(mix, lay, seed=100 + trial)
        sig = sample_uniform(lay, rng)
        g = gradient(h, sig)
        step = 1e-5
        for i in range(lay.n):
            up = np.array(sig.coords)
            dn = np.array(sig.coords)
            up[i] += step
            dn[i] -= step
            fd = (energy(h, Configuration(up, lay)) - energy(h, Configuration(dn, lay))) / (2 * step)
            assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_species_euler_homogeneity():
    # per species s, sum_{i in I_s} sigma_i d_i H = p(s) H for a pure term
    rng = np.random.default_rng(13)
    lay = SpeciesLayout(("a", "b"), (4, 3))
    for p in [(2, 0), (1, 1), (2, 1), (0, 3)]:
        h = build_instance(Mixture.from_terms({p: 0.8}), lay, seed=50 + sum(p))
        sig = sample_uniform(lay, rng)
        g = gradient(h, sig)
        val = energy(h, sig)
        for s, sl in enumerate(lay.slices):
            pairing = float(sig.coords[sl] @ g[sl])
            assert pairing == pytest.approx(p[s] * val, abs=1e-8 * max(1, abs(val)))


def test_memory_budget_refusal():
    lay = SpeciesLayout(("a",), (1024,))
    mix = Mixture.from_terms({(3,): 1.0})
    with pytest.raises(ValueError, match="budget"):
        build_instance(mix, lay, seed=0)
    small = build_instance(mix, SpeciesLayout(("a",), (8,)), seed=0)
    assert small.memory_entries() == 8**3
    # the budget counts block entries: (1,1,1,1) on 4 x 40 holds 40^4, well
    # inside 2^28, although its 160^4 dense index tuples are not
    cross = Mixture.from_terms({(1, 1, 1, 1): 1.0})
    h = build_instance(cross, SpeciesLayout(("a", "b", "c", "d"), (40,) * 4), seed=3)
    assert h.tensors[0].shape == (40,) * 4
    assert h.memory_entries() == 40**4 < 2**28 < 160**4
    with pytest.raises(ValueError, match="block entries"):
        build_instance(cross, SpeciesLayout(("a", "b", "c", "d"), (129,) * 4), seed=3)


def test_realize_single_point_variance():
    lay = SpeciesLayout(("a",), (5,))
    mix = Mixture.from_terms({(2,): 0.7, (3,): 0.2})
    rng = np.random.default_rng(14)
    pt = sample_uniform(lay, rng)
    vals = np.array([realize_on_points(mix, lay, [pt], seed=s)[0] for s in range(20000)])
    want = lay.n * eval_mixture(mix, [1.0])
    got = vals.var(ddof=1)
    se = want * math.sqrt(2.0 / (len(vals) - 1))
    assert abs(got - want) <= 3 * se
    assert abs(vals.mean()) <= 3 * math.sqrt(want / len(vals))


def test_realize_duplicate_point_identical_values():
    lay = SpeciesLayout(("a", "b"), (3, 3))
    mix = Mixture.from_terms({(1, 1): 1.0, (2, 0): 0.5})
    rng = np.random.default_rng(15)
    pt = sample_uniform(lay, rng)
    other = sample_uniform(lay, rng)
    vals = realize_on_points(mix, lay, [pt, pt, other], seed=4)
    assert vals[0] == pytest.approx(vals[1], abs=1e-8 * max(1.0, abs(vals[0])))
    with pytest.raises(ValueError):  # same N, other species split
        realize_on_points(mix, SpeciesLayout(("a", "b"), (2, 4)), [pt, other], seed=4)


def test_factorization_rejects_severely_non_psd():
    # genuine point sets always give PSD covariances (the covariance identity),
    # so the guard is exercised directly on a corrupted matrix
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="PSD"):
        factor_covariance(bad)
    good = np.array([[2.0, 1.0], [1.0, 2.0]])
    root = factor_covariance(good)
    np.testing.assert_allclose(root @ root.T, good, atol=1e-12)
    rank_def = np.array([[1.0, 1.0], [1.0, 1.0]])
    root = factor_covariance(rank_def)
    np.testing.assert_allclose(root @ root.T, rank_def, atol=1e-12)


def test_backends_agree_in_law():
    # empirical covariance of instance energies on 4 fixed points matches
    # the exact covariance matrix that realize_on_points factors
    lay = SpeciesLayout(("a", "b"), (3, 3))
    mix = Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.4})
    rng = np.random.default_rng(17)
    pts = [sample_uniform(lay, rng) for _ in range(4)]
    coords = np.array([p.coords for p in pts])
    n_inst = 20000
    vals = np.empty((n_inst, 4))
    for i in range(n_inst):
        vals[i] = energy_many(build_instance(mix, lay, seed=30000 + i), coords)
    cov_exact = np.array([[lay.n * eval_mixture(mix, overlap(a, b)) for b in pts] for a in pts])
    emp = vals.T @ vals / n_inst
    se = np.sqrt((np.outer(np.diag(cov_exact), np.diag(cov_exact)) + cov_exact**2) / n_inst)
    assert np.all(np.abs(emp - cov_exact) <= 3 * se)


def test_lipschitz_ratio_linear_case():
    # xi = delta^2 x: H = delta J.sigma, so the ratio never exceeds
    # |delta| ||J|| / sqrt(N)
    lay = SpeciesLayout(("a",), (16,))
    delta_sq = 0.49
    h = build_instance(Mixture.from_terms({(1,): delta_sq}), lay, seed=31)
    rng = np.random.default_rng(22)
    ratio = lipschitz_ratio(h, pairs=200, rng=rng)
    j_norm = float(np.linalg.norm(h.raw_disorder[0]))
    assert 0.0 < ratio <= math.sqrt(delta_sq) * j_norm / math.sqrt(16) + 1e-12


def test_lipschitz_ratio_stable_in_size():
    mix = Mixture.from_terms({(2,): 1.0})
    ratios = []
    for n in (8, 16, 32):
        h = build_instance(mix, SpeciesLayout(("a",), (n,)), seed=32)
        ratios.append(lipschitz_ratio(h, pairs=300, rng=np.random.default_rng(n)))
    assert max(ratios) <= 2.0 * min(ratios)


def test_ball_sampling_stays_in_ball():
    lay = SpeciesLayout(("a", "b"), (3, 5))
    rng = np.random.default_rng(23)
    for _ in range(100):
        pt = sample_in_ball(lay, rng)
        assert np.all(pt.self_overlap() <= 1.0 + 1e-12)


def test_instance_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(24)
    lay = SpeciesLayout(("a", "b"), (3, 4))
    base = Mixture.from_terms({(2, 0): 0.5, (1, 1): 0.7})
    q = [0.3, 0.2]
    h = build_instance(xi_q(base, q), lay, seed=91)
    path = tmp_path / "instance.json"
    save_instance(h, path)
    # header only: no disorder payload in the checkpoint
    assert path.stat().st_size < 2048
    back = load_instance(path)
    pts = [sample_uniform(lay, rng) for _ in range(5)]
    for p in pts:
        assert energy(back, p) == energy(h, p)
    assert back.field is None


def test_checkpoint_refuses_other_formats(tmp_path):
    lay = SpeciesLayout(("a",), (3,))
    path = tmp_path / "instance.json"
    save_instance(build_instance(Mixture.from_terms({(2,): 1.0}), lay, seed=1), path)
    header = json.loads(path.read_text())
    assert header["backend"] == "coefficient-tensor"
    header["backend"] = "covariance-factor"
    path.write_text(json.dumps(header))
    with pytest.raises(ValueError, match="format"):
        load_instance(path)


def _field_instance():
    """A 2+3 instance of a recentered mixture, whose checkpoint header the
    field-path tests mangle."""
    lay = SpeciesLayout(("a", "b"), (2, 3))
    q = [0.3, 0.2]
    return build_instance(xi_q(Mixture.from_terms({(2, 0): 0.5, (1, 1): 0.7}), q), lay, seed=91)


@pytest.mark.parametrize("mangle, path", [
    (lambda d: d["model"]["terms"][0].__setitem__("delta_sq", math.nan),
     "model.terms[0].delta_sq"),
    (lambda d: d["model"]["terms"][0].__setitem__("delta_sq", True),
     "model.terms[0].delta_sq"),
    (lambda d: d["model"]["terms"][0]["p"].__setitem__(0, 1.7), "model.terms[0].p[0]"),
    (lambda d: d["model"]["sizes"].__setitem__(0, 3.9), "model.sizes[0]"),
    (lambda d: d.__setitem__("seed", 5.5), "seed"),
    (lambda d: d.__setitem__("seed", -1), "seed"),
    (lambda d: d.pop("seed"), "seed"),
    (lambda d: d.__setitem__("layout", {}), "layout"),
    (lambda d: d["model"].__setitem__("proportions", [0.4, 0.6]), "model.proportions"),
    (lambda d: d["model"]["terms"][0].__setitem__("delta", 1.0), "model.terms[0].delta"),
    # the field object that checkpoints carried before it was retired: whole or
    # with one of the three mistakes its reader used to name inside it, it is
    # an unknown field; the ids keep the names those three cases had
    (lambda d: d.__setitem__("field", {"seed": 92, "q": [0.3, 0.2]}), "field"),
    pytest.param(lambda d: d.__setitem__("field", {"seed": 2.5, "q": [0.3, 0.2]}), "field",
                 id="<lambda>-field.seed"),
    pytest.param(lambda d: d.__setitem__("field", {"seed": 92, "q": [0.3, None]}), "field",
                 id="<lambda>-field.q[1]"),
    pytest.param(lambda d: d.__setitem__("field", {"seed": 92, "q": [0.3, 1.5]}), "field",
                 id="<lambda>-field.q"),
    (lambda d: d.__setitem__("schema", 2), "schema"),
])
def test_load_instance_names_the_bad_field(tmp_path, mangle, path):
    h = _field_instance()
    file = tmp_path / "instance.json"
    save_instance(h, file)
    header = json.loads(file.read_text())
    assert set(header) == {"schema", "backend", "seed", "model"}
    mangle(header)
    file.write_text(json.dumps(header))
    with pytest.raises(ConfigError) as err:
        load_instance(file)
    assert err.value.path == path


def _header_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _header_paths(child, prefix + (key,))


# small values only: a mutated size or degree never asks for a large draw
HEADER_VALUES = (st.none() | st.booleans() | st.integers(-2, 3) | st.floats()
                 | st.sampled_from(["", "a", "coefficient-tensor"])
                 | st.lists(st.integers(-1, 3), max_size=3)
                 | st.lists(st.floats(0.0, 0.99), min_size=2, max_size=2) | st.builds(dict))


def _mutate(header, mutations):
    """Each mutation sets the value at a header path, drops it, or adds an
    unknown key "extra" to the object there (the path is drawn by index)."""
    for kind, index, value in mutations:
        paths = list(_header_paths(header))
        path = paths[index % len(paths)]
        if not path:
            if kind == "set":
                header = value
            elif kind == "add" and isinstance(header, dict):
                header["extra"] = value
            continue
        parent = header
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        if kind == "set":
            parent[path[-1]] = value
        elif kind == "drop":
            parent.pop(path[-1])
        elif isinstance(node, dict):
            node["extra"] = value
    return header


@pytest.mark.parametrize("kind", ["instance", "configuration"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(["set", "drop", "add"]), st.integers(0, 99),
                          HEADER_VALUES), min_size=1, max_size=3))
def test_mutated_checkpoint_headers_load_or_name_a_field(tmp_path_factory, kind, mutations):
    path = tmp_path_factory.mktemp("checkpoint") / "file"
    h = _field_instance()
    if kind == "instance":
        save_instance(h, path)
        header, payload, load = json.loads(path.read_text()), b"", load_instance
    else:
        save_configuration(sample_uniform(h.layout, np.random.default_rng(3)), path)
        line, payload = path.read_bytes().split(b"\n", 1)
        header, load = json.loads(line), load_configuration
    header = _mutate(header, mutations)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    try:
        load(path)
    except ConfigError as exc:
        known = {"<document>", "schema", "backend", "seed", "model", "field", "species",
                 "sizes", "extra"}
        assert re.split(r"[.\[]", exc.path)[0] in known, str(exc)


_NAN, _INF = np.float64(math.nan).tobytes(), np.float64(-math.inf).tobytes()


@pytest.mark.parametrize("mangle, path", [
    (lambda body: body + bytes(7), "coords"),
    (lambda body: body[:-3], "coords"),
    (lambda body: body + bytes(8), "sizes"),
    (lambda body: body[:-8], "sizes"),
    (lambda body: _NAN + body[8:], "coords"),
    (lambda body: body[:-8] + _INF, "coords"),
])
def test_mutated_configuration_body_names_a_field(tmp_path, mangle, path):
    file = tmp_path / "cfg.bin"
    save_configuration(sample_uniform(_field_instance().layout, np.random.default_rng(4)), file)
    header, body = file.read_bytes().split(b"\n", 1)
    file.write_bytes(header + b"\n" + mangle(body))
    with pytest.raises(ConfigError) as exc:
        load_configuration(file)
    assert exc.value.path == path


@pytest.mark.parametrize("kind", ["instance", "configuration"])
@pytest.mark.parametrize("mangle", [lambda header: header[:len(header) // 2],
                                    lambda header: header.replace(b'"a"', b'"\xff"', 1),
                                    lambda header: b"[" * 100_000 + b"]" * 100_000],
                         ids=["truncated", "not-utf8", "too-deep"])
def test_undecodable_checkpoint_header_is_a_document_error(tmp_path, kind, mangle):
    # a header that is not JSON, not UTF-8 or nested past the recursion limit
    # is a ConfigError at <document>, not a bare JSONDecodeError,
    # UnicodeDecodeError or RecursionError
    file = tmp_path / "checkpoint"
    h = _field_instance()
    if kind == "instance":
        save_instance(h, file)
    else:
        save_configuration(sample_uniform(h.layout, np.random.default_rng(4)), file)
    header, sep, body = file.read_bytes().partition(b"\n")
    assert mangle(header) != header
    file.write_bytes(mangle(header) + sep + body)
    with pytest.raises(ConfigError) as err:
        (load_instance if kind == "instance" else load_configuration)(file)
    assert err.value.path == "<document>"


def _dense_reference(h):
    """Per-term dense (N,)*k coefficient arrays, zero outside the term's
    canonical sub-block, which holds the raw normals times
    sqrt(Delta_p^2 / prod_s N_s^p(s))."""
    arrays = []
    slices = h.layout.slices
    for (p, delta_sq), j in zip(h.mixture.terms, h.raw_disorder):
        scale = math.sqrt(delta_sq / math.prod(h.layout.sizes[s] ** c for s, c in enumerate(p)))
        dense = np.zeros((h.layout.n,) * sum(p))
        dense[tuple(slices[s] for s, c in enumerate(p) for _ in range(c))] = scale * j
        arrays.append(dense)
    return arrays


def _dense_energy_and_gradient(arrays, x):
    value, grad = 0.0, np.zeros_like(x)
    for a in arrays:
        t = a
        for _ in range(a.ndim):
            t = t @ x
        value += float(t)
        for slot in range(a.ndim):
            t = np.moveaxis(a, slot, 0)
            for _ in range(a.ndim - 1):
                t = t @ x
            grad += t
    return math.sqrt(x.size) * value, math.sqrt(x.size) * grad


def test_blocks_match_dense_reference():
    # energy, energy_many, gradient and the energy-and-gradient pass on the
    # canonical blocks agree with the dense masked layout, on unequal sizes,
    # up to 3 species and degree 4
    rng = np.random.default_rng(41)
    for trial in range(12):
        n_species = 1 + trial % 3
        sizes = tuple(int(d) for d in rng.permutation(np.arange(1, 5))[:n_species])
        lay = SpeciesLayout(tuple("abc"[:n_species]), sizes)
        mix = random_mixture(rng, n_species, max_total_degree=4)
        h = build_instance(mix, lay, seed=700 + trial)
        dense = _dense_reference(h)
        abs_dense = [np.abs(a) for a in dense]
        pts = [sample_uniform(lay, rng) for _ in range(5)]
        batch = energy_many(h, np.array([p.coords for p in pts]))
        batch_g = gradient_many(h, np.array([p.coords for p in pts]))
        pass_e, pass_g = group_energies_and_gradients(h.group, np.array([[p.coords for p in pts]]))
        assert np.array_equal(pass_e[0], batch)
        for k, sig in enumerate(pts):
            want_e, want_g = _dense_energy_and_gradient(dense, sig.coords)
            # rounding scale: the same sums taken over absolute values
            scale_e, scale_g = _dense_energy_and_gradient(abs_dense, np.abs(sig.coords))
            assert abs(energy(h, sig) - want_e) <= 1e-12 * scale_e
            assert abs(batch[k] - want_e) <= 1e-12 * scale_e
            assert np.all(np.abs(gradient(h, sig) - want_g) <= 1e-12 * scale_g)
            assert np.all(np.abs(batch_g[k] - want_g) <= 1e-12 * scale_g)
            assert np.all(np.abs(pass_g[0, k] - want_g) <= 1e-12 * scale_g)


def test_group_energies_match_each_instance():
    # one stacked contraction gives every instance the values it gets alone,
    # one-spin term included; instances of different mixtures cannot be grouped
    lay = SpeciesLayout(("a", "b"), (3, 4))
    mix = Mixture.from_terms({(2, 1): 1.0, (0, 2): 0.5, (1, 0): 0.3})
    hs = [build_instance(mix, lay, seed=60 + i) for i in range(3)]
    coords = np.random.default_rng(8).standard_normal((3, 5, lay.n))
    grouped = group_energies(stack_instances(hs), coords)
    for k, h in enumerate(hs):
        assert np.array_equal(grouped[k], energy_many(h, coords[k]))
    assert all(np.array_equal(g, gradient_many(h, c)) for g, h, c in
               zip(group_gradients(stack_instances(hs), coords), hs, coords))
    for k, (e, g) in enumerate(zip(*group_energies_and_gradients(stack_instances(hs), coords))):
        assert np.array_equal(e, energy_many(hs[k], coords[k]))
        assert np.array_equal(g, gradient_many(hs[k], coords[k]))
    other = build_instance(Mixture.from_terms({(1, 1): 1.0}), lay, seed=1)
    with pytest.raises(ValueError):
        stack_instances([hs[0], other])
    with pytest.raises(ValueError):
        group_energies(stack_instances(hs), coords[:2])


def test_repeated_instance_group_shares_blocks():
    # n copies of one instance hold views of its blocks, not copies, and the
    # broadcast contraction gives every row the values the instance gets
    # alone, one-spin term included
    lay = SpeciesLayout(("a", "b"), (3, 4))
    mix = Mixture.from_terms({(2, 1): 1.0, (0, 2): 0.5, (1, 0): 0.3})
    h = build_instance(mix, lay, seed=62)
    group = stack_instances([h] * 3)
    assert group.size == 3
    for flat, block in zip(group.flats, h.tensors):
        assert np.shares_memory(flat, block)
    coords = np.random.default_rng(8).standard_normal((3, 5, lay.n))
    grouped = group_energies(group, coords)
    for k in range(3):
        assert np.array_equal(grouped[k], energy_many(h, coords[k]))
    assert all(np.array_equal(g, gradient_many(h, c)) for g, c in
               zip(group_gradients(group, coords), coords))
    energies, grads = group_energies_and_gradients(group, coords)
    assert np.array_equal(energies, grouped)
    assert all(np.array_equal(g, gradient_many(h, c)) for g, c in zip(grads, coords))


def test_energy_and_gradient_pass_splits_into_chunks(monkeypatch):
    # under a small element cap the pass runs in row chunks: its energies
    # still equal group_energies bit for bit, and its gradients the ones of
    # the unsplit batch, on every slot count from 1 to 3, on stacked and on
    # shared blocks
    lay = SpeciesLayout(("a", "b"), (3, 4))
    mix = Mixture.from_terms({(2, 1): 1.0, (0, 2): 0.5, (1, 0): 0.3})
    hs = [build_instance(mix, lay, seed=80 + i) for i in range(3)]
    coords = np.random.default_rng(5).standard_normal((3, 7, lay.n))
    for group in (stack_instances([hs[0], hs[2], hs[0]]),
                  stack_instances([hs[1]] * 3)):
        whole = group_energies_and_gradients(group, coords)
        monkeypatch.setattr(hamiltonian, "_BATCH_ELEMENT_CAP", 3 * 9 * 2)
        energies, grads = group_energies_and_gradients(group, coords)
        assert np.array_equal(energies, group_energies(group, coords))
        np.testing.assert_allclose(energies, whole[0], rtol=1e-14)
        np.testing.assert_allclose(grads, whole[1], rtol=1e-14, atol=1e-14)
        monkeypatch.undo()


def test_group_gradients_match_central_differences():
    # each instance of a group differentiates its own energies, the constant
    # gradient of its own one-spin block included
    lay = SpeciesLayout(("a", "b"), (3, 4))
    mix = Mixture.from_terms({(2, 1): 1.0, (0, 2): 0.5, (1, 0): 0.3})
    hs = [build_instance(mix, lay, seed=70), build_instance(mix, lay, seed=71)]
    group = stack_instances(hs)
    coords = np.random.default_rng(3).standard_normal((2, 2, lay.n))
    grads = group_gradients(group, coords)
    step = 1e-5
    for i in range(lay.n):
        e = step * np.eye(lay.n)[i]
        fd = (group_energies(group, coords + e) - group_energies(group, coords - e)) / (2 * step)
        np.testing.assert_allclose(grads[..., i], fd, rtol=1e-6, atol=1e-8)


def test_build_streams_the_dense_draw():
    # peak traced memory stays near the held blocks: the (N,)^4 draw is
    # never held whole, only about one index row of it at a time
    lay = SpeciesLayout(("a", "b"), (12, 12))
    mix = Mixture.from_terms({(2, 2): 1.0, (3, 1): 1.0})
    tracemalloc.start()
    try:
        h = build_instance(mix, lay, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in h.tensors)
    row = 8 * lay.n ** 3
    assert held == 2 * 8 * 12**4
    assert peak < 2 * held + row


def test_eigen_oracle_on_second_species_block():
    # a pure (0,2) term on two species: the oracle reads the block directly
    lay = SpeciesLayout(("a", "b"), (5, 24))
    h = build_instance(Mixture.from_terms({(0, 2): 1.0}), lay, seed=17)
    q = [0.5, 0.9]
    res = ascend(h, q, restarts=8, max_iters=400, rng=np.random.default_rng(3))
    oracle = eigen_oracle_2spin(h, q)
    assert abs(res.energy_per_spin - oracle) / abs(oracle) <= 1e-6
