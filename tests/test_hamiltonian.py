"""Hamiltonian realization: coefficients, determinism, covariance, field."""

import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from multispin.geometry import Configuration, overlap, sample_on_shell, sample_uniform
from multispin.ground_state import ascend, eigen_oracle_2spin
from multispin.hamiltonian import (
    COVARIANCE_BACKEND,
    attach_external_field,
    build_instance,
    energy,
    energy_many,
    factor_covariance,
    gradient,
    gradient_many,
    group_energies,
    group_gradients,
    lipschitz_ratio,
    load_instance,
    realize_on_points,
    sample_in_ball,
    save_instance,
    stack_instances,
)
from multispin.mixture import (
    Mixture,
    SpeciesLayout,
    eval_mixture,
    random_mixture,
    shifted_coefficients,
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
    # xi = x_a x_b with N_a = N_b = 2: cross pairs carry squared coefficient
    # (1! 1! / 2!) (1/2)(1/2) = 1/8 and same-species pairs are masked out
    lay = SpeciesLayout(("a", "b"), (2, 2))
    mix = Mixture.from_terms({(1, 1): 1.0})
    h = build_instance(mix, lay, seed=123)
    ones = Configuration(np.ones(4), lay)
    j = np.random.default_rng(123).standard_normal((4, 4))
    cross = j[:2, 2:].sum() + j[2:, :2].sum()
    assert energy(h, ones) == pytest.approx(2.0 * math.sqrt(1 / 8) * cross, abs=1e-12)


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


def test_covariance_backend_has_no_pointwise_form():
    lay = SpeciesLayout(("a",), (4,))
    mix = Mixture.from_terms({(2,): 1.0})
    h = build_instance(mix, lay, seed=0, backend=COVARIANCE_BACKEND)
    sig = sample_uniform(lay, np.random.default_rng(0))
    with pytest.raises(ValueError):
        energy(h, sig)
    with pytest.raises(ValueError):
        gradient(h, sig)
    with pytest.raises(ValueError):
        build_instance(mix, lay, seed=0, backend="other")


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
    # empirical covariance of tensor-backend values on 4 fixed points
    # matches the exact covariance matrix used by the factor backend
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


def test_attach_field_vanishes_at_zero_center():
    lay = SpeciesLayout(("a", "b"), (3, 3))
    base = Mixture.from_terms({(2, 0): 0.5, (1, 1): 0.5})
    hq = build_instance(xi_q(base, [0.0, 0.0]), lay, seed=2)
    h = attach_external_field(hq, [0.0, 0.0], seed=3)
    assert h.field.delta_coeffs == (0.0, 0.0)
    np.testing.assert_array_equal(h.field.vector, np.zeros(6))
    sig = sample_uniform(lay, np.random.default_rng(0))
    assert energy(h, sig) == energy(hq, sig)


def test_attach_field_recovers_one_spin_coefficients():
    # the field coefficients must equal the one-spin coefficients of the
    # recentered mixture, computed independently from the base mixture
    rng = np.random.default_rng(18)
    lay = SpeciesLayout(("a", "b"), (4, 4))
    for _ in range(10):
        base = random_mixture(rng, 2, min_total_degree=2)
        q = rng.uniform(0.0, 0.9, size=2)
        tilde = shifted_coefficients(base, q)
        hq = build_instance(xi_q(base, q), lay, seed=5)
        h = attach_external_field(hq, q, seed=6)
        for s, key in enumerate([(1, 0), (0, 1)]):
            assert h.field.delta_coeffs[s] ** 2 == pytest.approx(
                tilde.coefficient(key), abs=1e-10)
        got = h.law_mixture.as_dict()
        want = {p: c for p, c in tilde.as_dict().items()}
        assert set(got) == set(want)
        for p in want:
            assert got[p] == pytest.approx(want[p], rel=1e-9, abs=1e-12)


def test_attached_field_covariance():
    # combined process has covariance N * (recentered mixture)(R) at 3 SE
    lay = SpeciesLayout(("a", "b"), (4, 4))
    base = Mixture.from_terms({(2, 0): 0.5, (1, 1): 0.4, (0, 3): 0.3})
    q = np.array([0.4, 0.2])
    tilde = shifted_coefficients(base, q)
    hq_mix = xi_q(base, q)
    rng = np.random.default_rng(19)
    pairs = [(sample_uniform(lay, rng), sample_uniform(lay, rng)) for _ in range(3)]
    coords = np.array([p.coords for pair in pairs for p in pair])
    n_inst = 20000
    prods = np.empty((n_inst, 3))
    for i in range(n_inst):
        hq = build_instance(hq_mix, lay, seed=60000 + i)
        h = attach_external_field(hq, q, seed=90000 + i)
        vals = energy_many(h, coords)
        prods[i] = vals[0::2] * vals[1::2] / lay.n
    for k, (a, b) in enumerate(pairs):
        want = eval_mixture(tilde, overlap(a, b))
        se = prods[:, k].std(ddof=1) / math.sqrt(n_inst)
        assert abs(prods[:, k].mean() - want) <= 3 * se


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
        assert np.all(pt.self_overlap().as_array() <= 1.0 + 1e-12)


def test_instance_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(24)
    lay = SpeciesLayout(("a", "b"), (3, 4))
    base = Mixture.from_terms({(2, 0): 0.5, (1, 1): 0.7})
    q = [0.3, 0.2]
    hq = build_instance(xi_q(base, q), lay, seed=91)
    h = attach_external_field(hq, q, seed=92)
    path = tmp_path / "instance.json"
    save_instance(h, path)
    # header only: no disorder payload in the checkpoint
    assert path.stat().st_size < 2048
    back = load_instance(path)
    pts = [sample_uniform(lay, rng) for _ in range(5)]
    for p in pts:
        assert energy(back, p) == energy(h, p)
    save_instance(hq, path)
    back_plain = load_instance(path)
    assert back_plain.field is None
    assert energy(back_plain, pts[0]) == energy(hq, pts[0])


def test_field_contribution_bound_on_replica_tuples():
    # per-tuple field average obeys sqrt((1/n + rho)/N) ||J|| sum_s D_s
    # on tuples whose pairwise species overlaps are within rho of zero
    lay = SpeciesLayout(("a", "b"), (4, 4))
    base = Mixture.from_terms({(2, 0): 0.6, (1, 1): 0.5, (0, 2): 0.4})
    q = np.array([0.3, 0.5])
    hq = build_instance(xi_q(base, q), lay, seed=7)
    h = attach_external_field(hq, q, seed=8)
    rng = np.random.default_rng(20)
    n_rep, rho = 3, 0.5
    bound = math.sqrt((1.0 / n_rep + rho) / lay.n) * float(
        np.linalg.norm(h.field.normals)) * sum(h.field.delta_coeffs)
    tuples_checked = 0
    while tuples_checked < 50:
        reps = [sample_uniform(lay, rng) for _ in range(n_rep)]
        ok = all(
            np.all(np.abs(overlap(reps[i], reps[j]).as_array()) <= rho)
            for i in range(n_rep) for j in range(i + 1, n_rep))
        if not ok:
            continue
        tuples_checked += 1
        total = sum(float(h.field.vector @ r.coords) for r in reps)
        assert abs(total) / (lay.n * n_rep) <= bound + 1e-12


def _pattern_mask(sizes, p):
    """0/1 dense tensor over index tuples marking those whose species pattern is p."""
    n = sum(sizes)
    starts = np.cumsum((0,) + tuple(sizes))
    indicators = [np.where((np.arange(n) >= lo) & (np.arange(n) < hi), 1.0, 0.0)
                  for lo, hi in zip(starts[:-1], starts[1:])]
    slots = [s for s, c in enumerate(p) for _ in range(c)]
    mask = np.zeros((n,) * len(slots))
    for order in set(itertools.permutations(slots)):
        mask += reduce(np.multiply.outer, [indicators[s] for s in order])
    return mask


def _dense_reference(h):
    """Per-term dense coefficient arrays: the raw normals on the term's
    species pattern, times sqrt(Delta_p^2 prod_s p(s)! / (k! prod_s N_s^p(s)))."""
    arrays = []
    for (p, delta_sq), j in zip(h.mixture.terms, h.raw_disorder):
        scale = delta_sq * math.prod(math.factorial(c) / h.layout.sizes[s] ** c
                                     for s, c in enumerate(p)) / math.factorial(sum(p))
        arrays.append(math.sqrt(scale) * _pattern_mask(h.layout.sizes, p) * j)
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
    # energy, energy_many and gradient on the canonical blocks agree with the
    # dense masked layout, on unequal sizes, up to 3 species and degree 4
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
        for k, sig in enumerate(pts):
            want_e, want_g = _dense_energy_and_gradient(dense, sig.coords)
            # rounding scale: the same sums taken over absolute values
            scale_e, scale_g = _dense_energy_and_gradient(abs_dense, np.abs(sig.coords))
            assert abs(energy(h, sig) - want_e) <= 1e-12 * scale_e
            assert abs(batch[k] - want_e) <= 1e-12 * scale_e
            assert np.all(np.abs(gradient(h, sig) - want_g) <= 1e-12 * scale_g)
            assert np.all(np.abs(batch_g[k] - want_g) <= 1e-12 * scale_g)


def test_group_energies_match_each_instance():
    # one stacked contraction gives every instance the values it gets alone,
    # field included; instances of different mixtures cannot be grouped
    lay = SpeciesLayout(("a", "b"), (3, 4))
    mix = Mixture.from_terms({(2, 1): 1.0, (0, 2): 0.5})
    hs = [build_instance(mix, lay, seed=60 + i) for i in range(3)]
    hs[1] = attach_external_field(build_instance(mix, lay, seed=61), [0.2, 0.4], seed=9)
    coords = np.random.default_rng(8).standard_normal((3, 5, lay.n))
    grouped = group_energies(stack_instances(hs), coords)
    for k, h in enumerate(hs):
        assert np.array_equal(grouped[k], energy_many(h, coords[k]))
    assert all(np.array_equal(g, gradient_many(h, c)) for g, h, c in
               zip(group_gradients(stack_instances(hs), coords), hs, coords))
    other = build_instance(Mixture.from_terms({(1, 1): 1.0}), lay, seed=1)
    with pytest.raises(ValueError):
        stack_instances([hs[0], other])
    with pytest.raises(ValueError):
        group_energies(stack_instances(hs), coords[:2])


def test_repeated_instance_group_shares_blocks():
    # n copies of one instance hold views of its blocks, not copies, and the
    # broadcast contraction gives every row the values the instance gets
    # alone, field included
    lay = SpeciesLayout(("a", "b"), (3, 4))
    mix = Mixture.from_terms({(2, 1): 1.0, (0, 2): 0.5})
    h = build_instance(mix, lay, seed=62)
    group = stack_instances([h] * 3)
    assert group.size == 3
    for flat, block in zip(group.flats, h.tensors):
        assert np.shares_memory(flat, block)
    coords = np.random.default_rng(8).standard_normal((3, 5, lay.n))
    for inst in (h, attach_external_field(h, [0.2, 0.4], seed=9)):
        grouped = group_energies(stack_instances([inst] * 3), coords)
        for k in range(3):
            assert np.array_equal(grouped[k], energy_many(inst, coords[k]))
        assert all(np.array_equal(g, gradient_many(inst, c)) for g, c in
                   zip(group_gradients(stack_instances([inst] * 3), coords), coords))


def test_group_gradients_match_central_differences():
    # each instance of a group differentiates its own energies, and only the
    # field-attached one carries the field's constant gradient
    lay = SpeciesLayout(("a", "b"), (3, 4))
    mix = Mixture.from_terms({(2, 1): 1.0, (0, 2): 0.5})
    hs = [build_instance(mix, lay, seed=70),
          attach_external_field(build_instance(mix, lay, seed=71), [0.2, 0.4], seed=9)]
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
