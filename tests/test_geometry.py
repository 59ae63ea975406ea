"""Geometry: overlaps, sampling, bands, transforms, exact band volumes."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import betainc, betaincc, betaincinv, gammaln

from multispin import geometry
from multispin.geometry import (
    BandSpec,
    Configuration,
    _cos_law_inverse,
    _log_cos_integral,
    _tangent,
    _to_shell,
    species_overlaps,
    in_band,
    in_multi_band,
    load_configuration,
    log_band_volume,
    overlap,
    project_phi,
    rescale_to_shell,
    sample_on_shell,
    sample_uniform,
    sample_uniform_batch,
    sample_uniform_in_band,
    sample_uniform_in_band_batch,
    save_configuration,
    tilde_transform,
    uniform_overlap_tail,
)
from multispin.mixture import SpeciesLayout

LAY2 = SpeciesLayout(("a", "b"), (6, 10))


def test_overlap_basics():
    rng = np.random.default_rng(0)
    a = sample_uniform(LAY2, rng)
    ra = overlap(a, a)
    np.testing.assert_allclose(ra, 1.0, atol=1e-9)
    neg = Configuration(-a.coords, LAY2)
    np.testing.assert_allclose(overlap(a, neg), -1.0, atol=1e-9)
    m = sample_on_shell(LAY2, [0.3, 0.7], rng)
    np.testing.assert_allclose(overlap(m, m), [0.3, 0.7], atol=1e-9)


def test_overlap_symmetric_bilinear_cauchy_schwarz():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = sample_uniform(LAY2, rng)
        b = sample_uniform(LAY2, rng)
        c = sample_uniform(LAY2, rng)
        lam = rng.uniform(-2, 2)
        np.testing.assert_allclose(overlap(a, b), overlap(b, a), atol=1e-12)
        combo = Configuration(b.coords + lam * c.coords, LAY2)
        np.testing.assert_allclose(
            overlap(a, combo),
            overlap(a, b) + lam * overlap(a, c),
            atol=1e-10,
        )
        lhs = np.abs(overlap(a, b))
        rhs = np.sqrt(overlap(a, a) * overlap(b, b))
        assert np.all(lhs <= rhs + 1e-12)


def test_sample_uniform_properties():
    rng = np.random.default_rng(2)
    big = SpeciesLayout(("a",), (1000,))
    x = sample_uniform(big, rng)
    y = sample_uniform(big, rng)
    assert x.is_on_sphere(1e-9)
    assert abs(overlap(x, y)[0]) < 5 / math.sqrt(1000)
    tiny = SpeciesLayout(("a",), (1,))
    z = sample_uniform(tiny, rng)
    assert z.coords[0] in (1.0, -1.0)


def test_sample_uniform_marginal_chi_squared():
    # one marginal coordinate of a uniform sphere point: (x^2/N) ~ Beta(1/2,(N-1)/2)
    rng = np.random.default_rng(3)
    lay = SpeciesLayout(("a",), (8,))
    vals = np.array([sample_uniform(lay, rng).coords[0] for _ in range(4000)])
    u = stats.beta.cdf(vals**2 / 8.0, 0.5, 3.5)
    hist, _ = np.histogram(u, bins=10, range=(0, 1))
    chi2 = np.sum((hist - 400.0) ** 2 / 400.0)
    assert chi2 < stats.chi2.ppf(0.999, df=9)


def test_sample_on_shell():
    rng = np.random.default_rng(4)
    m = sample_on_shell(LAY2, [0.0, 0.5], rng)
    np.testing.assert_allclose(m.self_overlap(), [0.0, 0.5], atol=1e-9)
    assert np.all(m.block(0) == 0.0)
    zero = sample_on_shell(LAY2, [0.0, 0.0], rng)
    assert np.all(zero.coords == 0.0)


def test_in_band_examples():
    rng = np.random.default_rng(5)
    q = np.array([0.4, 0.6])
    m = sample_on_shell(LAY2, q, rng)
    sigma = rescale_to_shell(m, [1.0 - 1e-12, 1.0 - 1e-12])
    delta = float(np.max(np.sqrt(q) - q))
    assert in_band(sigma, m, delta + 1e-9)
    assert not in_band(sigma, m, delta - 1e-3)
    zero = Configuration(np.zeros(LAY2.n), LAY2)
    assert in_band(sample_uniform(LAY2, rng), zero, 0.0)
    assert not in_band(sample_uniform(LAY2, rng), m, 0.0)


def test_in_multi_band():
    rng = np.random.default_rng(6)
    m = sample_on_shell(LAY2, [0.3, 0.3], rng)
    sig = sample_uniform(LAY2, rng)
    spec1 = BandSpec(m, delta=2.0, n=1, rho=0.0)
    assert in_multi_band([sig], spec1) == in_band(sig, m, 2.0)
    # identical replicas on S_N fail the pairwise constraint for small rho
    spec2 = BandSpec(m, delta=2.0, n=2, rho=0.1)
    assert not in_multi_band([sig, sig], spec2)
    with pytest.raises(ValueError):
        in_multi_band([sig], spec2)
    # the tuple rule is pairs_within over every pair i < j, and in_multi_band
    # applies it to band members
    for n in (1, 2, 3):
        spec = BandSpec(m, delta=2.0, n=n, rho=0.6)
        tuples = sample_uniform_batch(LAY2, 40 * n, rng).reshape(40, n, LAY2.n)
        brute = [all(spec.pairs_within(t[i], t[j]) for i in range(n) for j in range(i + 1, n))
                 for t in tuples]
        assert spec.tuples_within(tuples).tolist() == brute
        assert [in_multi_band([Configuration(x, LAY2) for x in t], spec)
                for t in tuples] == brute
        assert all(brute) == (n == 1)


def test_multi_band_orthogonality_consequence():
    # members have centered pairwise overlap bounded by rho + 2 delta
    rng = np.random.default_rng(7)
    q = [0.4, 0.2]
    m = sample_on_shell(LAY2, q, rng)
    delta, rho = 0.2, 0.3
    spec = BandSpec(m, delta=delta, n=2, rho=rho)
    found = 0
    while found < 10:
        a = sample_uniform_in_band(m, delta, rng)
        b = sample_uniform_in_band(m, delta, rng)
        if not in_multi_band([a, b], spec):
            continue
        found += 1
        diff_a = Configuration(a.coords - m.coords, LAY2)
        diff_b = Configuration(b.coords - m.coords, LAY2)
        centered = np.abs(overlap(diff_a, diff_b))
        assert np.all(centered <= 2 * delta + rho + 1e-12)


def test_tilde_transform_round_trip():
    rng = np.random.default_rng(8)
    q = np.array([0.5, 0.25])
    m = sample_on_shell(LAY2, q, rng)
    sigma = project_phi(sample_uniform(LAY2, rng), m)
    tilde = tilde_transform(sigma, m, q)
    assert tilde.is_on_sphere(1e-8)
    np.testing.assert_allclose(overlap(tilde, m), 0.0, atol=1e-8)
    # inverse affine map
    back = np.array(tilde.coords)
    for s, sl in enumerate(LAY2.slices):
        back[sl] = back[sl] * math.sqrt(1 - q[s]) + m.coords[sl]
    np.testing.assert_allclose(back, sigma.coords, atol=1e-9)


def test_tilde_transform_identity_and_overlap_map():
    rng = np.random.default_rng(9)
    zero_q = np.zeros(2)
    m0 = sample_on_shell(LAY2, zero_q, rng)
    sig = sample_uniform(LAY2, rng)
    tilde = tilde_transform(sig, m0, zero_q)
    np.testing.assert_allclose(tilde.coords, sig.coords, atol=1e-12)

    q = np.array([0.3, 0.6])
    m = sample_on_shell(LAY2, q, rng)
    s1 = project_phi(sample_uniform(LAY2, rng), m)
    s2 = project_phi(sample_uniform(LAY2, rng), m)
    t1 = tilde_transform(s1, m, q)
    t2 = tilde_transform(s2, m, q)
    want = (overlap(s1, s2) - q) / (1 - q)
    np.testing.assert_allclose(overlap(t1, t2), want, atol=1e-9)


def test_tilde_transform_preconditions():
    rng = np.random.default_rng(10)
    q = np.array([0.5, 0.5])
    m = sample_on_shell(LAY2, q, rng)
    sigma = sample_uniform(LAY2, rng)  # generic point is not in B(m, 0)
    with pytest.raises(ValueError):
        tilde_transform(sigma, m, q)
    with pytest.raises(ValueError):
        tilde_transform(sigma, m, [0.1, 0.1])


def test_project_phi_properties():
    rng = np.random.default_rng(11)
    q = np.array([0.5, 0.2])
    m = sample_on_shell(LAY2, q, rng)
    for _ in range(10):
        sig = sample_uniform(LAY2, rng)
        pi = project_phi(sig, m)
        np.testing.assert_allclose(overlap(pi, m), q, atol=1e-9)
        np.testing.assert_allclose(pi.self_overlap(), 1.0, atol=1e-9)
        again = project_phi(pi, m)
        np.testing.assert_allclose(again.coords, pi.coords, atol=1e-9)
    fixed = project_phi(project_phi(sample_uniform(LAY2, rng), m), m)
    np.testing.assert_allclose(project_phi(fixed, m).coords, fixed.coords, atol=1e-9)


def test_project_phi_zero_species_passthrough():
    rng = np.random.default_rng(12)
    m = sample_on_shell(LAY2, [0.0, 0.4], rng)
    sig = sample_uniform(LAY2, rng)
    pi = project_phi(sig, m)
    np.testing.assert_allclose(pi.block(0), sig.block(0), atol=1e-12)


def test_project_phi_dilation_family():
    # phi(phi_t(sigma)) = phi(sigma) for centers m(t) = t*m
    rng = np.random.default_rng(13)
    m = sample_on_shell(LAY2, [0.5, 0.3], rng)
    sig = sample_uniform(LAY2, rng)
    want = project_phi(sig, m)
    for t in (0.4, 0.7, 0.9):
        mt = Configuration(t * m.coords, LAY2)
        stage = project_phi(sig, mt)
        np.testing.assert_allclose(project_phi(stage, m).coords, want.coords, atol=1e-9)


def test_project_phi_distance_bound():
    # sigma in B(m, delta) implies R_s(phi - sigma, phi - sigma) <= 2 delta / sqrt(q_s)
    rng = np.random.default_rng(14)
    q = np.array([0.5, 0.3])
    m = sample_on_shell(LAY2, q, rng)
    delta = 0.05
    for _ in range(50):
        sig = sample_uniform_in_band(m, delta, rng)
        assert in_band(sig, m, delta)
        pi = project_phi(sig, m)
        diff = Configuration(pi.coords - sig.coords, LAY2)
        gap = diff.self_overlap()
        assert np.all(gap <= 2 * delta / np.sqrt(q) + 1e-12)


def test_project_phi_degenerate_residual():
    lay = SpeciesLayout(("a",), (2,))
    m = Configuration(np.array([1.0, 0.0]), lay)  # self-overlap 0.5
    sig = Configuration(np.array([math.sqrt(2.0), 0.0]), lay)  # parallel to m
    with pytest.raises(ValueError):
        project_phi(sig, m)
    # a center outside the unit ball has no B(m, 0) on the sphere
    outside = Configuration(np.array([1.5, 0.0]), lay)  # self-overlap 1.125
    with pytest.raises(ValueError):
        project_phi(Configuration(np.array([0.0, math.sqrt(2.0)]), lay), outside)


def test_block_scalings_match_a_loop_over_blocks():
    # each map scales block s by one factor; the broadcast must give the
    # per-block loop's bits, signed zeros of q = 0 blocks included
    lay = SpeciesLayout(("a", "b", "c"), (3, 1, 4))
    q = np.array([0.3, 0.0, 0.6])
    base = sample_uniform(lay, np.random.default_rng(6))
    m = sample_on_shell(lay, q, np.random.default_rng(6))
    sigma = project_phi(sample_uniform(lay, np.random.default_rng(7)), m)
    prime = Configuration(np.random.default_rng(8).standard_normal(lay.n), lay)
    shell, tilde, rescaled = np.array(base.coords), sigma.coords - m.coords, np.array(prime.coords)
    for s, sl in enumerate(lay.slices):
        shell[sl] *= math.sqrt(q[s])
        tilde[sl] /= math.sqrt(1.0 - q[s])
        if q[s] == 0.0:
            rescaled[sl] = 0.0
        else:
            rescaled[sl] *= math.sqrt(q[s] / prime.self_overlap()[s])
    assert m.coords.tobytes() == shell.tobytes()
    assert tilde_transform(sigma, m, q).coords.tobytes() == tilde.tobytes()
    assert rescale_to_shell(prime, q).coords.tobytes() == rescaled.tobytes()


KERNEL_LAYOUT = SpeciesLayout(("a", "b", "c"), (1, 3, 24))
KERNEL_Q = np.array([0.7, 0.0, 0.3])


def _loop_to_shell(coords, q):
    out = np.array(coords)
    for s, sl in enumerate(KERNEL_LAYOUT.slices):
        norm = np.linalg.norm(out[..., sl], axis=-1, keepdims=True)
        out[..., sl] *= math.sqrt(KERNEL_LAYOUT.sizes[s] * q[s]) / norm
    return out


def _loop_tangent(v, x, q):
    out = np.zeros_like(v)
    for s, sl in enumerate(KERNEL_LAYOUT.slices):
        if q[s] > 0.0:
            along = np.sum(v[..., sl] * x[..., sl], axis=-1, keepdims=True)
            out[..., sl] = v[..., sl] - along / (KERNEL_LAYOUT.sizes[s] * q[s]) * x[..., sl]
    return out


def test_to_shell_kernel():
    # a (3, 4, N) batch: every block of every row lands on its shell, q = 0
    # blocks are +0.0, a second pass is the identity up to rounding, and a
    # loop over blocks agrees
    raw = np.random.default_rng(30).standard_normal((3, 4, KERNEL_LAYOUT.n))
    out = _to_shell(raw, KERNEL_LAYOUT, KERNEL_Q)
    r = species_overlaps(out, out, KERNEL_LAYOUT)
    live = KERNEL_Q > 0.0
    np.testing.assert_allclose(r[..., live], np.broadcast_to(KERNEL_Q[live], r[..., live].shape),
                               rtol=1e-15, atol=0.0)
    dead = out[..., KERNEL_LAYOUT.slices[1]]
    assert np.all(dead == 0.0) and not np.signbit(dead).any()
    np.testing.assert_allclose(_to_shell(out, KERNEL_LAYOUT, KERNEL_Q), out, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(out, _loop_to_shell(raw, KERNEL_Q), rtol=1e-14, atol=0.0)


def test_tangent_kernel():
    # R_s(t, x) = 0 for every block, t = 0 on q = 0 blocks, and a loop over
    # blocks agrees
    rng = np.random.default_rng(31)
    x = _to_shell(rng.standard_normal((3, 4, KERNEL_LAYOUT.n)), KERNEL_LAYOUT, KERNEL_Q)
    v = rng.standard_normal(x.shape)
    t = _tangent(v, x, KERNEL_LAYOUT, KERNEL_Q)
    np.testing.assert_allclose(species_overlaps(t, x, KERNEL_LAYOUT), 0.0, rtol=0.0, atol=1e-14)
    assert np.all(t[..., KERNEL_LAYOUT.slices[1]] == 0.0)
    # relative to the scale of v: entries of t near 0, the whole of the
    # single-coordinate block among them, have no relative accuracy
    np.testing.assert_allclose(t, _loop_tangent(v, x, KERNEL_Q), rtol=0.0,
                               atol=1e-14 * np.abs(v).max())


def test_rescale_to_shell():
    rng = np.random.default_rng(15)
    m = sample_on_shell(LAY2, [0.5, 0.25], rng)
    same = rescale_to_shell(m, [0.5, 0.25])
    np.testing.assert_allclose(same.coords, m.coords, atol=1e-12)
    zero = rescale_to_shell(m, [0.0, 0.0])
    assert np.all(zero.coords == 0.0)
    with pytest.raises(ValueError):
        rescale_to_shell(zero, [0.5, 0.5])


def test_rescale_identity_bound():
    # R_s(m*-m', m*-m') = (sqrt(q) - sqrt(R))^2 <= |R - q|
    rng = np.random.default_rng(16)
    for _ in range(20):
        r = rng.uniform(0.05, 0.9, size=2)
        q = rng.uniform(0.05, 0.9, size=2)
        mp = sample_on_shell(LAY2, r, rng)
        ms = rescale_to_shell(mp, q)
        diff = Configuration(ms.coords - mp.coords, LAY2)
        got = diff.self_overlap()
        want = (np.sqrt(q) - np.sqrt(r)) ** 2
        np.testing.assert_allclose(got, want, atol=1e-10)
        assert np.all(got <= np.abs(r - q) + 1e-12)


# exact values of the band volume at q=0.5, delta=0.01 (frozen from quadrature
# of the cosine-band integral; see also the N -> infinity fixed-delta limit
# 0.5*log(1 - (q-delta)^2/q) = -0.327156)
BAND_VOLUME_FROZEN = {
    50: -0.373992,
    100: -0.352695,
    200: -0.341548,
    400: -0.335213,
}


def test_log_band_volume_frozen_values():
    for n, want in BAND_VOLUME_FROZEN.items():
        lay = SpeciesLayout(("a",), (n,))
        got = log_band_volume(lay, [0.5], 0.01)
        assert got == pytest.approx(want, abs=5e-6)


def test_log_band_volume_examples():
    lay = SpeciesLayout(("a",), (200,))
    assert log_band_volume(lay, [0.0], 0.3) == 0.0
    got = log_band_volume(lay, [0.5], 0.01)
    assert abs(got - 0.5 * math.log(0.5)) < 0.01
    # joint refinement delta = 4/N converges monotonically to the entropy term
    errs = []
    for n in (50, 100, 200, 400):
        v = log_band_volume(SpeciesLayout(("a",), (n,)), [0.5], 4.0 / n)
        errs.append(abs(v - 0.5 * math.log(0.5)))
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_log_band_volume_matches_hit_frequency():
    # cross-check the exact formula against naive hit counting at small N
    rng = np.random.default_rng(17)
    lay = SpeciesLayout(("a", "b"), (5, 3))
    q = [0.4, 0.2]
    delta = 0.25
    m = sample_on_shell(lay, q, rng)
    hits = sum(in_band(sample_uniform(lay, rng), m, delta) for _ in range(20000))
    p_hat = hits / 20000
    got = log_band_volume(lay, q, delta)
    se = math.sqrt(p_hat * (1 - p_hat) / 20000) / p_hat
    assert got * lay.n == pytest.approx(math.log(p_hat), abs=4 * se)


def test_band_log_measure_normalizer_matches_gammaln_form():
    # the sphere normalizer uses math.lgamma; per spin it agrees with the
    # scipy gammaln form to rounding
    for d in (2, 3, 8, 33, 200, 1600, 5000):
        for q, delta in ((0.1, 0.5), (0.5, 0.01), (0.9, 0.15), (1.0, 0.15)):
            root = math.sqrt(q)
            c1, c2 = max((q - delta) / root, -1.0), min((q + delta) / root, 1.0)
            want = (_log_cos_integral(d, c1, c2) - 0.5 * math.log(math.pi)
                    - gammaln((d - 1) / 2) + gammaln(d / 2)) / d
            got = log_band_volume(SpeciesLayout(("a",), (d,)), [q], delta)
            assert abs(got - want) <= 1e-14


def test_log_band_volume_discrete_species():
    # N_s = 1 blocks have a discrete band measure in {0, 1/2, 1}
    lay = SpeciesLayout(("a",), (1,))
    q, root = 0.25, 0.5
    assert log_band_volume(lay, [q], root - q + 1e-9) == pytest.approx(math.log(0.5))
    assert log_band_volume(lay, [q], root + q + 1e-9) == pytest.approx(0.0)
    assert log_band_volume(lay, [q], 0.01) == -np.inf


def test_sample_uniform_in_band():
    rng = np.random.default_rng(18)
    q = [0.5, 0.3]
    m = sample_on_shell(LAY2, q, rng)
    for delta in (0.02, 0.2):
        for _ in range(20):
            sig = sample_uniform_in_band(m, delta, rng)
            assert sig.is_on_sphere(1e-9)
            assert in_band(sig, m, delta + 1e-12)


def band_center_mixed():
    # one discrete, one continuous and one zero block
    lay = SpeciesLayout(("a", "b", "c"), (1, 5, 9))
    rng = np.random.default_rng(23)
    block_b = sample_on_shell(SpeciesLayout(("b",), (5,)), [0.4], rng).coords
    return Configuration(np.concatenate([[0.6], block_b, np.zeros(9)]), lay)


@pytest.mark.parametrize("delta", [0.25, 0.5, 1.0])
def test_batched_band_draw_rows_lie_in_band(delta):
    m = band_center_mixed()
    rows = sample_uniform_in_band_batch(m, delta, 400, np.random.default_rng(24))
    assert rows.shape == (400, m.layout.n)
    for row in rows:
        sig = Configuration(row, m.layout)
        assert sig.is_on_sphere(1e-9)
        assert in_band(sig, m, delta + 1e-12)
    # both signs of the discrete block are admissible only in the widest band
    assert len(np.unique(rows[:, 0])) == (2 if delta == 1.0 else 1)


def test_scalar_band_draw_is_row_zero_of_one_row_batch():
    m = band_center_mixed()
    one = sample_uniform_in_band(m, 0.3, np.random.default_rng(25))
    batch = sample_uniform_in_band_batch(m, 0.3, 1, np.random.default_rng(25))
    np.testing.assert_array_equal(one.coords, batch[0])


def test_sample_uniform_in_band_matches_conditional_law():
    # band-conditional cosine frequencies agree with the exact truncated law
    rng = np.random.default_rng(19)
    lay = SpeciesLayout(("a",), (6,))
    q, delta = 0.4, 0.3
    m = sample_on_shell(lay, [q], rng)
    direct = []
    while len(direct) < 1500:
        sig = sample_uniform(lay, rng)
        if in_band(sig, m, delta):
            direct.append(overlap(sig, m)[0])
    sampled = [overlap(sample_uniform_in_band(m, delta, rng), m)[0]
               for _ in range(1500)]
    ks = stats.ks_2samp(direct, sampled)
    assert ks.pvalue > 1e-4


def test_uniform_overlap_tail():
    assert uniform_overlap_tail(8, 0.0) == 1.0
    assert uniform_overlap_tail(8, 1.5) == 0.0
    rng = np.random.default_rng(20)
    lay = SpeciesLayout(("a",), (12,))
    tau = 0.35
    hits = 0
    trials = 20000
    for _ in range(trials):
        r = overlap(sample_uniform(lay, rng), sample_uniform(lay, rng))[0]
        hits += abs(r) >= tau
    want = uniform_overlap_tail(12, tau)
    se = math.sqrt(want * (1 - want) / trials)
    assert hits / trials == pytest.approx(want, abs=4 * se)


# the (q, delta) bands of the normalizer test, two more near the cap and the
# pole, and one around the equator, where scipy's inverse is well conditioned
# even at the largest block sizes
ORACLE_BANDS = ((0.1, 0.5), (0.5, 0.01), (0.9, 0.15), (1.0, 0.15), (0.99, 0.001),
                (0.05, 0.02), (0.0004, 0.0003))


def band_cosines(q, delta):
    root = math.sqrt(q)
    return max((q - delta) / root, -1.0), min((q + delta) / root, 1.0)


def quad_log_cos_integral(d, c1, c2):
    """Reference band integral: scipy's adaptive quad of the peak-scaled
    density cos^(d-2)(tm + s) / cos^(d-2)(tm) over s = t - tm, c = sin t."""
    sin_m = min(max(0.0, c1), c2)
    cos_m = math.sqrt((1.0 - sin_m) * (1.0 + sin_m))
    tm = math.asin(sin_m)

    def scaled(s):
        ratio = -2.0 * math.sin(0.5 * s) ** 2 - sin_m / cos_m * math.sin(s)
        return math.exp((d - 2) * math.log1p(ratio))

    val, _ = quad(scaled, math.asin(c1) - tm, math.asin(c2) - tm, epsabs=0.0, epsrel=1e-13,
                  limit=400)
    return (d - 2) * math.log(cos_m) + math.log(val)


@pytest.mark.parametrize("d", [2, 3, 8, 33, 200, 1600, 5000])
def test_band_volume_matches_quad(d):
    # 1e-12 relative on the integral, beyond the rounding of its log, whose
    # size reaches 1.1e4 at d = 5000 near the cap
    for q, delta in ORACLE_BANDS[:-1]:
        c1, c2 = band_cosines(q, delta)
        want = quad_log_cos_integral(d, c1, c2)
        assert abs(_log_cos_integral(d, c1, c2) - want) <= 1e-12 + 2 * math.ulp(want)


@pytest.mark.parametrize("d", [2, 3, 8, 33, 200, 1600, 5000])
def test_band_sampler_cosines_match_betaincinv(d):
    # the sampler's first draw per species is its uniform; scipy inverts the
    # same uniforms through the regularized incomplete Beta function
    lay = SpeciesLayout(("a",), (d,))
    a = (d - 1) / 2.0
    checked = 0
    for q, delta in ORACLE_BANDS:
        c1, c2 = band_cosines(q, delta)
        lo, hi = betainc(a, a, (c1 + 1) / 2), betainc(a, a, (c2 + 1) / 2)
        if lo < 1e-3 or 1.0 - hi < 1e-3:
            continue
        m = sample_on_shell(lay, [q], np.random.default_rng(d))
        rows = sample_uniform_in_band_batch(m, delta, 500, np.random.default_rng(26))
        u = np.random.default_rng(26).uniform(size=500)
        want = np.clip(2.0 * betaincinv(a, a, lo + (hi - lo) * u) - 1.0, c1, c2)
        got = rows @ m.coords / (d * math.sqrt(q))
        assert np.abs(got - want).max() <= 1e-12
        checked += 1
    assert checked >= 1


@pytest.mark.parametrize("c1, c2", [(-1.0, 1.0), (0.0, 1.0)])
@pytest.mark.parametrize("d", [3, 4, 5, 8])
def test_cos_law_inverse_reaches_the_ends_of_the_law(d, c1, c2):
    # bands reaching c = +-1, where the density vanishes like the power
    # d - 2 of the distance to the end: the truncated law's CDF (mpmath
    # betainc, 60 digits) at the inverted cosines is within 1e-15 of u, also
    # in the far tails
    u = [1e-12, 1e-9, 1e-6, 0.3, 0.5, 1 - 1e-6, 1 - 1e-9]
    c = np.sin(_cos_law_inverse(d, c1, c2, np.array(u)))
    with mpmath.workdps(60):
        a = mpmath.mpf(d - 1) / 2

        def cdf(x):
            return mpmath.betainc(a, a, 0, (1 + mpmath.mpf(x)) / 2, regularized=True)

        lo, hi = cdf(c1), cdf(c2)
        residual = [abs(float((cdf(x) - lo) / (hi - lo) - mpmath.mpf(v))) for x, v in zip(c, u)]
    assert max(residual) <= 1e-15


@pytest.mark.parametrize("c1, c2", [(-1.0, 1.0), (-1.0, -0.2), (0.0, 1.0)])
def test_cos_law_inverse_resolves_the_far_tails_at_d2(c1, c2):
    # at d = 2 the law is uniform in t = asin c and puts mass 1e-9 within
    # 5e-18 of c = -1, below the float spacing of c there: the angles must
    # still sit at their CDF values (mpmath, 50 digits), with the radial
    # part cos t of a band draw positive
    u = [1e-12, 1e-9, 1 - 1e-9]
    t = _cos_law_inverse(2, c1, c2, np.array(u))
    with mpmath.workdps(50):
        lo, hi = mpmath.asin(c1), mpmath.asin(c2)
        residual = [abs(float((mpmath.mpf(x) - lo) / (hi - lo) - mpmath.mpf(v)))
                    for x, v in zip(t, u)]
    assert max(residual) <= 1e-15
    assert np.all(np.cos(t) > 0.0)


def test_uniform_overlap_tail_matches_betaincc():
    for d in (2, 3, 8, 12, 33, 200, 1600):
        a = (d - 1) / 2.0
        for tau in (0.05, 0.35, 0.6, 0.9):
            want = 2.0 * betaincc(a, a, (tau + 1) / 2)
            assert uniform_overlap_tail(d, tau) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d, q, delta", [(200, 0.5, 0.01), (1600, 0.3, 0.15)])
def test_upper_tail_band_draws_follow_the_truncated_law(d, q, delta):
    # bands deep in the upper tail of the cosine law, where both incomplete
    # Beta values round to 1: every draw must still be its own point of the
    # band, with the law's CDF (mpmath, 30 digits) uniform over the draws
    lay = SpeciesLayout(("a",), (d,))
    m = sample_on_shell(lay, [q], np.random.default_rng(27))
    rows = sample_uniform_in_band_batch(m, delta, 1000, np.random.default_rng(28))
    assert BandSpec(m, delta).contains(rows).all()
    r = species_overlaps(rows, m.coords, lay)[:, 0]
    assert np.unique(r).size == r.size
    c1, c2 = band_cosines(q, delta)
    c = np.sort(r / math.sqrt(q))
    with mpmath.workdps(30):
        exponent = mpmath.mpf(d - 3) / 2
        edges = [mpmath.mpf(c1)] + [mpmath.mpf(float(x)) for x in c] + [mpmath.mpf(c2)]
        pieces = [mpmath.quad(lambda x: (1 - x * x) ** exponent, [lo, hi])
                  for lo, hi in zip(edges[:-1], edges[1:])]
        cum = np.cumsum(pieces)
        cdf = np.array([float(x / cum[-1]) for x in cum[:-1]])
    assert stats.kstest(cdf, "uniform").pvalue > 1e-3


def test_configuration_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    cfg = sample_uniform(LAY2, rng)
    path = tmp_path / "cfg.bin"
    save_configuration(cfg, path)
    back = load_configuration(path)
    assert back.layout == cfg.layout
    np.testing.assert_array_equal(back.coords, cfg.coords)


def test_configuration_cache_and_immutability():
    rng = np.random.default_rng(22)
    cfg = sample_uniform(LAY2, rng)
    recomputed = np.array([cfg.coords[sl] @ cfg.coords[sl] for sl in LAY2.slices])
    np.testing.assert_allclose(cfg.block_sq_norms, recomputed, rtol=1e-9)
    with pytest.raises(ValueError):
        cfg.coords[0] = 5.0


def test_band_draws_equal_with_the_panel_table_cold_and_warm():
    # the cosine-law panel table is cached per (d, c1, c2) as read-only
    # arrays; a draw or a volume is the same bit for bit either way
    m = sample_on_shell(LAY2, [0.3, 0.6], np.random.default_rng(1))

    def draw():
        return (sample_uniform_in_band_batch(m, 0.15, 50, np.random.default_rng(2)),
                log_band_volume(LAY2, [0.3, 0.6], 0.15))

    geometry._cos_law_table.cache_clear()
    (cold, cold_volume), (warm, warm_volume) = draw(), draw()
    assert geometry._cos_law_table.cache_info().hits > 0
    np.testing.assert_array_equal(cold, warm)
    assert cold_volume == warm_volume
    _, _, edges, cum, vals = geometry._cos_law_table(6, 0.1, 0.8)
    for table in (edges, cum, vals):
        with pytest.raises(ValueError):
            table[0] = 0.0


@pytest.mark.parametrize("k", [1, 2, 9, 10])
def test_power_table_equals_vander_bit_for_bit(k):
    rng = np.random.default_rng(29)
    special = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2e-310, -1.5e-308]
    x = np.concatenate([special, rng.uniform(-1.0, 1.0, 500), rng.normal(0.0, 3.0, 100)])
    want = np.vander(x, k, increasing=True)
    got = geometry._powers(x, k)
    assert got.flags.c_contiguous and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_band_draws_equal_with_the_polynomial_fits_cold_and_warm():
    # the panels' polynomial fits are cached per (d, c1, c2) as read-only
    # arrays; a draw is the same bit for bit either way
    m = sample_on_shell(LAY2, [0.3, 0.6], np.random.default_rng(1))

    def draw():
        return sample_uniform_in_band_batch(m, 0.15, 50, np.random.default_rng(2))

    geometry._cos_law_fits.cache_clear()
    cold, warm = draw(), draw()
    assert geometry._cos_law_fits.cache_info().hits > 0
    np.testing.assert_array_equal(cold, warm)
    for table in geometry._cos_law_fits(6, 0.1, 0.8):
        with pytest.raises(ValueError):
            table[0] = 0.0
