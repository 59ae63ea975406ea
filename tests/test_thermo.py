"""Free-energy estimators: exact corner-scale oracles, tempering, integration."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import logsumexp

from multispin import thermo
from multispin.geometry import (
    BandSpec,
    Configuration,
    _check_pattern_budget,
    in_multi_band,
    log_band_volume,
    sample_on_shell,
    sample_uniform_in_band_batch,
    sign_patterns,
)
from multispin.hamiltonian import (
    attach_external_field,
    build_instance,
    energy,
    energy_many,
)
from multispin.mixture import Mixture, SpeciesLayout, xi_q
from multispin.tap import EstimatorConfig, replica_symmetry_diagnostic, resolve_fe_method
from multispin.thermo import (
    FreeEnergyEstimate,
    PTResult,
    _logsumexp,
    _simpson_weights,
    _species_quadrature,
    _run_group,
    _ti_tail,
    exact_fe_enumeration,
    exact_fe_quadrature,
    exact_multi_replica_fe_enumeration,
    exact_penalty_enumeration,
    exact_restricted_fe_enumeration,
    fe_thermo_integration,
    multi_replica_fe,
    multisamplability_records,
    pt_sampler,
    restricted_fe,
    wilson_interval,
)

CORNER_LAYOUT = SpeciesLayout(("a", "b", "c", "d"), (1, 1, 1, 1))
CORNER_MIX = Mixture.from_terms(
    {(2, 0, 0, 0): 0.3, (1, 1, 0, 0): 0.5, (0, 0, 1, 1): 0.4, (1, 0, 1, 0): 0.2})


def corner_instance(seed=31):
    return build_instance(CORNER_MIX, CORNER_LAYOUT, seed=seed)


def corner_center():
    return Configuration(np.array([0.6, -0.5, 0.4, 0.3]), CORNER_LAYOUT)


# --- estimate container -----------------------------------------------------

def test_estimate_validation():
    with pytest.raises(ValueError):
        FreeEnergyEstimate(0.0, 0.0, "magic")
    with pytest.raises(ValueError):
        FreeEnergyEstimate(0.0, -1e-3, "enumeration")
    est = FreeEnergyEstimate(1.0, 0.1, "thermo-integration", {"k": 1})
    assert est.meta == {"k": 1}


def test_beta_grid_validation():
    lay = SpeciesLayout(("a",), (1,))
    h = build_instance(Mixture.from_terms({(2,): 0.5}), lay, seed=1)
    rng = np.random.default_rng(0)
    for bad in ([], [0.5, 1.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]):
        with pytest.raises(ValueError):
            pt_sampler(h, bad, 10, rng)
    with pytest.raises(ValueError):
        pt_sampler(h, [0.0, 1.0], 0, rng)


# --- exact enumeration ------------------------------------------------------

def test_enumeration_single_site_constant():
    # xi = 0.7 x^2 on one site: H(+1) = H(-1), so F equals that constant
    lay = SpeciesLayout(("a",), (1,))
    h = build_instance(Mixture.from_terms({(2,): 0.7}), lay, seed=5)
    est = exact_fe_enumeration(h)
    c = energy(h, Configuration(np.array([1.0]), lay))
    assert est.value == pytest.approx(c, abs=1e-12)
    assert est.value == pytest.approx(-0.6709439675310583, abs=1e-12)
    assert est.std_error == 0.0 and est.method == "enumeration"
    assert est.meta["n_configurations"] == 2


def test_enumeration_bipartite_closed_form():
    # xi = x_a x_b on 1+1 sites: H = c sigma_a sigma_b, F = (1/2) log cosh c
    lay = SpeciesLayout(("a", "b"), (1, 1))
    h = build_instance(Mixture.from_terms({(1, 1): 1.0}), lay, seed=9)
    z = h.raw_disorder[0][0, 0]
    c = math.sqrt(2) * z  # sqrt(N) * sqrt(Delta^2 / (N_a N_b)) * z with N = 2
    est = exact_fe_enumeration(h)
    assert est.value == pytest.approx(0.5 * math.log(math.cosh(c)), abs=1e-12)
    assert est.value == pytest.approx(0.2702403754811786, abs=1e-12)


def test_enumeration_rejects_wrong_shapes():
    lay = SpeciesLayout(("a",), (2,))
    h = build_instance(Mixture.from_terms({(2,): 0.5}), lay, seed=1)
    with pytest.raises(ValueError):
        exact_fe_enumeration(h)
    # a negative band width is refused by BandSpec, as in restricted_fe
    with pytest.raises(ValueError):
        exact_restricted_fe_enumeration(corner_instance(), corner_center(), -0.1)


# --- deterministic quadrature -----------------------------------------------

def test_quadrature_matches_enumeration_on_sign_blocks():
    lay = SpeciesLayout(("a", "b"), (1, 1))
    h = build_instance(Mixture.from_terms({(1, 1): 1.0, (2, 0): 0.4}), lay, seed=9)
    en = exact_fe_enumeration(h).value
    qd = exact_fe_quadrature(h, 8)
    assert qd.value == pytest.approx(en, abs=1e-12)
    assert qd.method == "quadrature" and qd.std_error == 0.0


def test_quadrature_node_doubling_converged():
    lay = SpeciesLayout(("a", "b"), (2, 3))
    h = build_instance(Mixture.from_terms({(2, 0): 0.5, (1, 1): 0.4}), lay, seed=11)
    v24 = exact_fe_quadrature(h, 24)
    v48 = exact_fe_quadrature(h, 48)
    delta = v24.meta["coarse_grid_delta"]  # vs the 12-node grid
    assert delta == v24.value - exact_fe_quadrature(h, 12).value
    # doubling the nodes again moves the value far less than halving them did
    assert abs(v48.value - v24.value) <= 1e-2 * abs(delta)
    assert v24.meta["nodes_per_angle"] == 24


def test_quadrature_rejects_unsupported_layouts():
    h_big = build_instance(Mixture.from_terms({(2,): 0.5}),
                           SpeciesLayout(("a",), (4,)), seed=1)
    with pytest.raises(ValueError):
        exact_fe_quadrature(h_big, 8)
    h_wide = build_instance(Mixture.from_terms({(2, 0, 0, 0): 0.5}),
                            SpeciesLayout(("a", "b", "c", "d"), (3, 3, 3, 3)), seed=1)
    with pytest.raises(ValueError):
        exact_fe_quadrature(h_wide, 4)
    h_ok = build_instance(Mixture.from_terms({(2,): 0.5}),
                          SpeciesLayout(("a",), (2,)), seed=1)
    with pytest.raises(ValueError):
        exact_fe_quadrature(h_ok, 1)


def test_quadrature_grid_over_budget_refused():
    # 100000 nodes per angle on 2+2 blocks make 10^10 points of 4 coordinates;
    # the budget check runs before any node is built
    h = build_instance(Mixture.from_terms({(1, 1): 1.0}),
                       SpeciesLayout(("a", "b"), (2, 2)), seed=1)
    with pytest.raises(ValueError, match="budget"):
        exact_fe_quadrature(h, 100000)


@pytest.mark.parametrize("nodes", [2, 3, 7, 16, 33])
def test_size3_quadrature_grid_matches_its_node_formula(nodes):
    # row i * nodes + j holds polar node i and azimuth j
    z, wz = np.polynomial.legendre.leggauss(nodes)
    pts, logw = [], []
    for i in range(nodes):
        for j in range(nodes):
            phi = 2.0 * math.pi * j / nodes
            rad = math.sqrt(1.0 - z[i] ** 2)
            pts.append(math.sqrt(3.0) * np.array(
                [rad * math.cos(phi), rad * math.sin(phi), z[i]]))
            logw.append(math.log(wz[i] / 2.0) - math.log(nodes))
    got_pts, got_logw = _species_quadrature(3, nodes)
    assert np.array_equal(got_pts, np.array(pts))
    assert np.array_equal(got_logw, np.array(logw))


def test_tempering_series_over_budget_refused():
    # 21 chains keeping 666666667 sweeps each would need 104 GiB, and a
    # 10^9-replica multisamplability draw would first spawn 10^9 streams; both
    # refuse before any allocation
    h = build_instance(Mixture.from_terms({(1, 1): 1.0}),
                       SpeciesLayout(("a", "b"), (4, 4)), seed=1)
    with pytest.raises(ValueError, match="budget"):
        fe_thermo_integration(h, np.linspace(0.0, 1.0, 21), 10**9, np.random.default_rng(0))
    with pytest.raises(ValueError, match="budget"):
        multisamplability_records(h, [0.0, 0.0], 10**9, [0.5], [0.0, 1.0], 10,
                                  np.random.default_rng(0))


def test_replica_pairs_over_budget_refused(monkeypatch):
    # 20000 replicas keeping 20 states of N = 2 coordinates would overlap
    # 2e8 pairs in arrays of 8e9 entries; the refusal comes before any
    # stream is spawned or any chain is tempered
    h = build_instance(Mixture.from_terms({(1, 1): 1.0}),
                       SpeciesLayout(("a", "b"), (1, 1)), seed=1)

    class NoStreams:
        def spawn(self, n):
            raise AssertionError("spawned streams")

    def no_tempering(*args, **kwargs):
        raise AssertionError("tempered")

    monkeypatch.setattr(thermo, "_run_group", no_tempering)
    with pytest.raises(ValueError, match="budget"):
        multisamplability_records(h, [0.0, 0.0], 20000, [0.5], [0.0, 1.0], 30, NoStreams())


def test_tempering_snapshots_over_budget_refused(monkeypatch):
    # every chain keeps its thinned states: 30000 chains or 20 replicas x 2000
    # chains keeping 512 states of N = 20 coordinates exceed the budget of
    # 2^28 entries, while the series and the replica pairs fit it; the
    # refusal comes before any state is drawn
    h = build_instance(Mixture.from_terms({(1, 1): 1.0}),
                       SpeciesLayout(("a", "b"), (10, 10)), seed=1)

    def no_states(*args, **kwargs):
        raise AssertionError("drew states")

    monkeypatch.setattr(thermo, "_init_replicas", no_states)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="kept states"):
        pt_sampler(h, np.linspace(0.0, 1.0, 30000), 768, rng)
    grid = np.linspace(0.0, 1.0, 2000)
    with pytest.raises(ValueError, match="kept states"):
        multisamplability_records(h, [0.0, 0.0], 20, [0.5], grid, 768, rng)
    with pytest.raises(ValueError, match="kept states"):
        replica_symmetry_diagnostic(h, 20, 0.5, EstimatorConfig(
            beta_grid=tuple(grid), sweeps=768))


def test_sign_patterns_over_budget_refused():
    # 2^23 patterns of 23 coordinates (1.9e8 entries) fit the budget of 2^28
    # entries and 2^24 of 24 (4.0e8) do not; every enumeration refuses before
    # it builds a pattern, and auto passes over the exact methods
    _check_pattern_budget(23)
    with pytest.raises(ValueError, match="budget"):
        sign_patterns(24)
    for n, method in ((23, "enumeration"), (24, "ti")):
        corner = SpeciesLayout(tuple(f"s{k}" for k in range(n)), (1,) * n)
        assert resolve_fe_method("auto", corner) == method
    for exact in ("enumeration", "quadrature"):
        with pytest.raises(ValueError, match="budget"):
            resolve_fe_method(exact, corner)
    h = build_instance(Mixture.from_terms({(1, 1) + (0,) * 22: 1.0}), corner, seed=0)
    m = Configuration(np.full(24, 0.5), corner)
    for enumerate_ in (exact_fe_enumeration,
                       lambda h: exact_restricted_fe_enumeration(h, m, 0.5),
                       lambda h: exact_penalty_enumeration(h, BandSpec(m, 0.5, n=2))):
        with pytest.raises(ValueError, match="budget"):
            enumerate_(h)


# --- Metropolis acceptance rule (three-state toy) ----------------------------

def test_metropolis_rule_detailed_balance_on_toy_target():
    # same accept rule as the sampler: min(1, e^{beta dH}), uniform proposal
    energies = np.array([0.3, -0.2, 0.5])
    beta = 1.3
    weights = np.exp(beta * energies)
    pi = weights / weights.sum()
    p = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i != j:
                p[i, j] = 0.5 * min(1.0, math.exp(beta * (energies[j] - energies[i])))
        p[i, i] = 1.0 - p[i].sum()
    for i in range(3):
        for j in range(3):
            assert pi[i] * p[i, j] == pytest.approx(pi[j] * p[j, i], abs=1e-15)
    np.testing.assert_allclose(pi @ p, pi, atol=1e-15)


# --- parallel tempering ------------------------------------------------------

def test_pt_sampler_deterministic_and_on_sphere():
    lay = SpeciesLayout(("s",), (12,))
    h = build_instance(Mixture.from_terms({(2,): 0.8}), lay, seed=2)
    a = pt_sampler(h, [0.0, 0.5, 1.0], 300, np.random.default_rng(8))
    b = pt_sampler(h, [0.0, 0.5, 1.0], 300, np.random.default_rng(8))
    for sa, sb in zip(a.snapshots, b.snapshots):
        np.testing.assert_array_equal(sa, sb)
    for ea, eb in zip(a.series, b.series):
        np.testing.assert_array_equal(ea, eb)
    for c, x in enumerate(a.final_coords[:, 0]):
        assert Configuration(x, lay).is_on_sphere(1e-8)
        assert 0.0 <= a.accept_rates[c] <= 1.0 and a.proposal_counts[c] > 0
    for s in a.snapshots[:, :, 0]:
        np.testing.assert_allclose((s**2).sum(axis=1), 12.0, atol=1e-8)


def test_pt_beta_zero_chain_is_uniform():
    # at beta = 0 each scaled coordinate has a symmetric Beta law:
    # mean 0 and variance 1/d for block size d
    lay = SpeciesLayout(("s",), (12,))
    h = build_instance(Mixture.from_terms({(2,): 0.8}), lay, seed=2)
    res = pt_sampler(h, [0.0, 0.5, 1.0], 2000, np.random.default_rng(8))
    x = res.snapshots[0, :, 0, 0] / math.sqrt(12)
    se = x.std(ddof=1) / math.sqrt(len(x))
    assert abs(x.mean()) <= 4 * se
    assert x.var() == pytest.approx(1 / 12, abs=0.015)


def test_pt_low_beta_cross_run_overlap_small():
    lay = SpeciesLayout(("s",), (12,))
    h = build_instance(Mixture.from_terms({(2,): 0.8}), lay, seed=2)
    r1 = pt_sampler(h, [0.0, 0.1], 2000, np.random.default_rng(8))
    r2 = pt_sampler(h, [0.0, 0.1], 2000, np.random.default_rng(9))
    s1, s2 = r1.snapshots[1, :, 0], r2.snapshots[1, :, 0]
    k = min(len(s1), len(s2))
    ovs = (s1[:k] * s2[:k]).sum(axis=1) / 12
    assert abs(ovs.mean()) <= 3 * ovs.std(ddof=1) / math.sqrt(k)


def test_pt_one_chain_has_no_swap_pairs():
    lay = SpeciesLayout(("s",), (12,))
    h = build_instance(Mixture.from_terms({(2,): 0.8}), lay, seed=2)
    one = pt_sampler(h, [0.0], 60, np.random.default_rng(8))
    assert one.swap_rates.shape == (0,)
    assert "swap-acceptance-low" not in one.flags
    assert pt_sampler(h, [0.0, 1.0], 60, np.random.default_rng(8)).swap_rates.shape == (1,)


def test_pt_flags_poor_swap_rate():
    lay = SpeciesLayout(("s",), (20,))
    h = build_instance(Mixture.from_terms({(4,): 1.5}), lay, seed=3)
    res = pt_sampler(h, [0.0, 4.0], 400, np.random.default_rng(5))
    assert "swap-acceptance-low" in res.flags
    assert res.swap_rates[0] < 0.05


# --- thermodynamic integration ----------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 11, 12])
@pytest.mark.parametrize("spacing", ["uniform", "uneven"])
def test_simpson_weights_match_scipy(n, spacing):
    grid = (np.linspace(0.0, 1.0, n) if spacing == "uniform"
            else np.cumsum(np.random.default_rng(n).uniform(0.05, 1.0, n)))
    weights = _simpson_weights(tuple(grid.tolist()))
    for k in range(n):
        assert abs(weights[k] - simpson(np.eye(n)[k], x=grid)) <= 1e-15
    y = np.random.default_rng(100 + n).normal(size=n)
    assert weights @ y == pytest.approx(simpson(y, x=grid), abs=1e-14)


@pytest.mark.parametrize("values", [
    np.random.default_rng(3).normal(size=40) * 30.0,
    [-np.inf, 1.0, 2.0, -np.inf],
    [2.5, 2.5, -1.0],
    [7.0],
    [-np.inf, -np.inf, -np.inf],
    np.where(np.eye(4, dtype=bool), -np.inf, np.arange(16.0).reshape(4, 4)),
    [],
])
def test_logsumexp_matches_scipy(values):
    assert _logsumexp(values) == pytest.approx(float(logsumexp(values)), rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("length", [1, 2, 3, 19, 20, 21, 267, 1333])
@pytest.mark.parametrize("rows", [1, 11])
def test_ti_tail_node_statistics_match_a_loop_over_rows(length, rows):
    # rows of a wider run, as a group's series are, on an energy-like scale
    rng = np.random.default_rng(length * rows)
    series = (40.0 + 3.0 * rng.standard_normal((rows + 2, length)))[1:-1]
    offset, scale = 2.5, 7.0
    run = PTResult(beta_grid=np.linspace(0.0, 1.0, rows), series=series, snapshots=None,
                   accept_rates=np.ones(rows), swap_rates=np.ones(max(rows - 1, 0)),
                   step_sizes=None, flags=[], final_coords=None, proposal_counts=None)
    meta = {"flags": []}
    _ti_tail(run, offset, scale, meta)
    n_blocks = min(20, length)
    ses = []
    for s in series:
        block_means = np.array([b.mean() for b in np.array_split(s, n_blocks)])
        se = float(block_means.std(ddof=1) / math.sqrt(n_blocks)) if length > 1 else 0.0
        ses.append(se / scale)
    assert meta["node_means"] == [float((s.mean() - offset) / scale) for s in series]
    assert meta["node_std_errors"] == ses
    if length == 1:
        assert meta["node_std_errors"] == [0.0] * rows


def test_ti_beta_zero_grid_is_exactly_zero():
    h = corner_instance()
    est = fe_thermo_integration(h, [0.0], 100, np.random.default_rng(0))
    assert est.value == 0.0 and est.std_error == 0.0
    assert est.method == "thermo-integration"


def test_ti_matches_enumeration_across_seeds():
    # oracle equivalence: same instances, independent estimators
    lay = SpeciesLayout(("a", "b"), (1, 1))
    xi = Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.3})
    gaps, variances = [], []
    for seed in range(20):
        h = build_instance(xi, lay, seed=100 + seed)
        en = exact_fe_enumeration(h).value
        ti = fe_thermo_integration(h, np.linspace(0, 1, 11), 500,
                                   np.random.default_rng(1000 + seed))
        assert abs(ti.value - en) <= 3 * ti.std_error
        gaps.append(ti.value - en)
        variances.append(ti.std_error**2)
    mean_gap = float(np.mean(gaps))
    se_mean = math.sqrt(float(np.mean(variances)) / len(gaps))
    assert abs(mean_gap) <= 3 * se_mean


def test_ti_matches_quadrature_on_continuous_blocks():
    lay = SpeciesLayout(("a", "b"), (2, 3))
    h = build_instance(Mixture.from_terms({(2, 0): 0.5, (1, 1): 0.4}), lay, seed=11)
    ref = exact_fe_quadrature(h, 24).value
    ti = fe_thermo_integration(h, np.linspace(0, 1, 21), 1200, np.random.default_rng(1))
    assert abs(ti.value - ref) <= 3 * ti.std_error
    assert ti.meta["samples_per_node"] > 0
    assert len(ti.meta["node_means"]) == 21


def test_jensen_upper_bound_on_average():
    lay = SpeciesLayout(("a", "b"), (1, 1))
    xi = Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.3})
    values = [exact_fe_enumeration(build_instance(xi, lay, seed=100 + s)).value
              for s in range(20)]
    se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
    assert float(np.mean(values)) <= 0.5 * (0.8 + 0.3) + 3 * se


# --- band-restricted free energy ----------------------------------------------

def test_restricted_fe_zero_hamiltonian_is_pure_volume():
    h = build_instance(Mixture.from_terms({}, n_species=1),
                       SpeciesLayout(("s",), (10,)), seed=0)
    m = Configuration(np.full(10, math.sqrt(0.4)), h.layout)
    est = restricted_fe(h, m, 0.1, np.linspace(0, 1, 5), 120, np.random.default_rng(3))
    assert est.value == est.meta["log_band_volume"]
    assert est.std_error == 0.0


def test_restricted_fe_center_zero_reduces_to_plain_ti():
    lay = SpeciesLayout(("a", "b"), (2, 3))
    h = build_instance(Mixture.from_terms({(2, 0): 0.5, (1, 1): 0.4}), lay, seed=11)
    m = Configuration(np.zeros(5), lay)
    grid = np.linspace(0, 1, 11)
    rest = restricted_fe(h, m, 0.2, grid, 800, np.random.default_rng(21))
    plain = fe_thermo_integration(h, grid, 800, np.random.default_rng(22))
    assert rest.meta["log_band_volume"] == 0.0
    assert rest.meta["center_energy"] == 0.0
    assert abs(rest.value - plain.value) <= 3 * (rest.std_error + plain.std_error)


def test_restricted_fe_matches_enumeration_oracle():
    h = corner_instance()
    m = corner_center()
    en = exact_restricted_fe_enumeration(h, m, 0.8).value
    est = restricted_fe(h, m, 0.8, np.linspace(0, 1, 21), 1500, np.random.default_rng(7))
    assert abs(est.value - en) <= 3 * est.std_error


def test_restricted_fe_validation():
    h = corner_instance()
    rng = np.random.default_rng(0)
    for delta in (-0.1, math.nan):
        with pytest.raises(ValueError):
            restricted_fe(h, corner_center(), delta, [0.0, 1.0], 10, rng)
    with pytest.raises(ValueError):
        log_band_volume(CORNER_LAYOUT, [0.25] * 4, math.nan)
    # NaN widths and a fractional replica count are refused; an integral
    # float count is read as an int
    for widths in ({"rho": math.nan}, {"n": 2.5}, {"n": 0}):
        with pytest.raises(ValueError):
            BandSpec(corner_center(), 0.5, **{"n": 2, **widths})
    assert type(BandSpec(corner_center(), 0.5, n=2.0).n) is int
    outside = Configuration(np.array([1.2, 0.0, 0.0, 0.0]), CORNER_LAYOUT)
    with pytest.raises(ValueError):
        restricted_fe(h, outside, 0.1, [0.0, 1.0], 10, rng)
    # the coupled-replica estimator applies the same checks for every n; at
    # delta 0.5 the band around the outside center is not empty
    for spec in (BandSpec(outside, 0.5, n=1), BandSpec(outside, 0.5, n=2, rho=1.5),
                 BandSpec(corner_center(), 0.0, n=2, rho=1.5)):
        with pytest.raises(ValueError):
            multi_replica_fe(h, spec, [0.0, 1.0], 10, rng)


def test_restricted_fe_flags_frozen_chain():
    lay = SpeciesLayout(("s",), (16,))
    h = build_instance(Mixture.from_terms({(2,): 0.6}), lay, seed=4)
    m = Configuration(np.full(16, math.sqrt(0.5)), lay)
    est = restricted_fe(h, m, 1e-7, [0.0, 0.5, 1.0], 60, np.random.default_rng(6))
    assert "move-acceptance-low" in est.meta["flags"]


# --- coupled replicas ---------------------------------------------------------

def test_multi_replica_single_replica_delegates_exactly():
    h = corner_instance()
    m = corner_center()
    spec = BandSpec(m, delta=0.8, n=1, rho=0.0)
    grid = np.linspace(0, 1, 11)
    a = multi_replica_fe(h, spec, grid, 400, np.random.default_rng(3))
    b = restricted_fe(h, m, 0.8, grid, 400, np.random.default_rng(3))
    assert a.value == b.value and a.std_error == b.std_error


def test_multi_replica_enumeration_monotone_in_widths():
    h = corner_instance()
    m = corner_center()
    vals_delta = [exact_multi_replica_fe_enumeration(h, BandSpec(m, d, 2, 1.5)).value
                  for d in (0.5, 0.8, 1.2, 1.6)]
    assert all(a <= b + 1e-12 for a, b in zip(vals_delta, vals_delta[1:]))
    vals_rho = [exact_multi_replica_fe_enumeration(h, BandSpec(m, 0.8, 2, r)).value
                for r in (0.95, 1.2, 1.5)]
    assert all(a <= b + 1e-12 for a, b in zip(vals_rho, vals_rho[1:]))


def test_multi_replica_enumeration_subadditive_and_empty():
    h = corner_instance()
    m = corner_center()
    single = exact_restricted_fe_enumeration(h, m, 0.8).value
    pair = exact_multi_replica_fe_enumeration(h, BandSpec(m, 0.8, 2, 1.2)).value
    assert pair <= single + 1e-12
    # rho below the tightest same-sign overlap gap leaves no admissible pair
    empty = exact_multi_replica_fe_enumeration(h, BandSpec(m, 0.8, 2, 0.9))
    assert empty.value == -math.inf
    # a zero-width band around an interior center holds no sign pattern
    assert exact_restricted_fe_enumeration(h, m, 0.0).value == -math.inf
    with pytest.raises(ValueError):
        exact_penalty_enumeration(h, BandSpec(m, 0.0, 2, 1.5))


def _count_pair_matrices(monkeypatch) -> list:
    """Calls to BandSpec.pairs_within from here on, one entry each."""
    calls, real = [], BandSpec.pairs_within
    monkeypatch.setattr(BandSpec, "pairs_within",
                        lambda self, a, b: calls.append(1) or real(self, a, b))
    return calls


def _criterion_7_corner(seed):
    corner = SpeciesLayout(("a", "b"), (1, 1))
    h = build_instance(Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.3}), corner, seed=seed)
    return h, Configuration(np.array([0.5, -0.4]), corner)


def test_one_replica_enumeration_builds_no_pair_matrix(monkeypatch):
    # n = 1 reads no pairwise constraint, so it builds no band x band pair
    # matrix, and its values on criterion 7's corner are unchanged
    calls = _count_pair_matrices(monkeypatch)
    for seed, want in ((79, 0.005872329243688634), (80, 0.30761405486770477)):
        h, m = _criterion_7_corner(seed)
        assert exact_restricted_fe_enumeration(h, m, 0.9).value == want
    assert calls == []


@pytest.mark.parametrize("n, budget", [(2, 31), (3, 63)])
def test_replica_enumeration_over_budget_refused_before_the_pair_matrix(monkeypatch, n, budget):
    # all 4 patterns of the corner are in the band: the pair matrix holds
    # 4^2 * 2 = 32 entries and the 3-replica broadcast 4^3 = 64, so each
    # budget sits one entry below what its case needs
    h, m = _criterion_7_corner(79)
    calls = _count_pair_matrices(monkeypatch)
    monkeypatch.setattr(thermo, "DEFAULT_MEMORY_BUDGET", budget)
    with pytest.raises(ValueError, match=f"budget of {budget}"):
        exact_multi_replica_fe_enumeration(h, BandSpec(m, 0.9, n, 1.3))
    assert calls == []


def test_penalty_identity_exact_at_corner_scale():
    h = corner_instance()
    m = corner_center()
    single = exact_restricted_fe_enumeration(h, m, 0.8).value
    for n_rep in (2, 3):
        spec = BandSpec(m, delta=0.8, n=n_rep, rho=1.2)
        joint = exact_multi_replica_fe_enumeration(h, spec).value
        penalty = exact_penalty_enumeration(h, spec)
        assert penalty <= 1e-12
        assert joint == pytest.approx(single + penalty, abs=1e-10)


def test_multi_replica_matches_enumeration_oracle():
    h = corner_instance()
    spec = BandSpec(corner_center(), delta=0.8, n=2, rho=1.2)
    en = exact_multi_replica_fe_enumeration(h, spec).value
    est = multi_replica_fe(h, spec, np.linspace(0, 1, 21), 1500,
                           np.random.default_rng(20))
    assert abs(est.value - en) <= 3 * est.std_error
    assert est.meta["pairwise_hits"] > 0
    assert est.meta["log_band_volume"] < 0.0


def continuous_band_spec():
    # criterion-7 shape: 8+8 blocks, q = (0.3, 0.3), delta = rho = 0.15
    lay = SpeciesLayout(("a", "b"), (8, 8))
    h = build_instance(Mixture.from_terms({(1, 1): 1.0, (2, 0): 0.5}), lay, seed=12)
    m = sample_on_shell(lay, [0.3, 0.3], np.random.default_rng(13))
    return h, BandSpec(m, delta=0.15, n=2, rho=0.15)


def band_starts(spec, n_chains, rng):
    """n_chains i.i.d. band tuples that pass the pairwise rule."""
    n = spec.center.layout.n
    tuples = sample_uniform_in_band_batch(spec.center, spec.delta, 200 * spec.n, rng).reshape(
        200, spec.n, n)
    kept = tuples[spec.tuples_within(tuples)]
    assert len(kept) >= n_chains
    return kept[:n_chains]


@pytest.mark.parametrize("case", ["corner", "continuous"])
def test_constrained_chains_keep_every_tuple_in_multi_band(case):
    if case == "corner":
        h, spec = corner_instance(), BandSpec(corner_center(), delta=0.8, n=2, rho=1.2)
    else:
        h, spec = continuous_band_spec()
    starts = band_starts(spec, 5, np.random.default_rng(13))
    run, = _run_group([h], np.linspace(0, 1, 5), 150, [np.random.default_rng(14)],
                      band=spec, starts=starts)
    tuples = np.concatenate([run.snapshots.reshape(-1, 2, h.layout.n), run.final_coords])
    for tup in tuples:
        assert in_multi_band([Configuration(x, h.layout) for x in tup], spec)
    assert min(run.accept_rates) > 0.0


def test_band_run_without_starts_refused():
    h, spec = continuous_band_spec()
    grid = np.linspace(0, 1, 5)
    for starts in (None, band_starts(spec, 4, np.random.default_rng(13))):
        with pytest.raises(ValueError, match="starting tuples"):
            _run_group([h], grid, 10, [np.random.default_rng(14)], band=spec, starts=starts)


def start_of_estimate(monkeypatch, h, spec, n_chains, seed):
    """Run multi_replica_fe; return its chain starts and its band-sampler calls."""
    calls, starts = [], []

    def counted(*args):
        calls.append(args)
        return sample_uniform_in_band_batch(*args)

    def started(hs, beta_grid, steps, rngs, band, start, **kwargs):
        starts.append(start)
        return _run_group(hs, beta_grid, steps, rngs, band, start, **kwargs)

    monkeypatch.setattr(thermo, "sample_uniform_in_band_batch", counted)
    monkeypatch.setattr(thermo, "_run_group", started)
    multi_replica_fe(h, spec, np.linspace(0, 1, n_chains), 10, np.random.default_rng(seed))
    assert len(starts) == 1
    return starts[0], calls


def test_one_replica_band_start_is_one_band_draw(monkeypatch):
    h, spec = continuous_band_spec()
    start, calls = start_of_estimate(monkeypatch, h, BandSpec(spec.center, spec.delta), 11, 15)
    assert len(calls) == 1
    draw = sample_uniform_in_band_batch(spec.center, spec.delta, 11, np.random.default_rng(15))
    np.testing.assert_array_equal(start, draw[:, None])


def test_coupled_start_draws_batched_tuples(monkeypatch):
    # three replicas at rho = 0.5 pass the pairwise rule about half the time;
    # the pair term's passing tuples start the 11 chains, with no further draw
    h, spec = continuous_band_spec()
    spec = BandSpec(spec.center, spec.delta, n=3, rho=0.5)
    start, calls = start_of_estimate(monkeypatch, h, spec, 11, 16)
    assert start.shape == (11, 3, h.layout.n)
    for tup in start:
        assert in_multi_band([Configuration(x, h.layout) for x in tup], spec)
    assert len(calls) == 1


def test_coupled_estimate_starts_from_a_rare_pair_term_hit():
    # on criterion 7's 8+8 center, two replicas at rho = 0.004 pass the
    # pairwise rule at a rate of about 1e-4: at this seed the pair term finds
    # one hit in 4000 tuples, and that tuple starts every chain (the next
    # 20,000 band tuples of the stream hold no hit)
    layout = SpeciesLayout(("a", "b"), (8, 8))
    h = build_instance(Mixture.from_terms({(1, 1): 0.7, (2, 0): 0.4}), layout, seed=600)
    m = sample_on_shell(layout, [0.3, 0.3], np.random.default_rng(700))
    spec = BandSpec(m, delta=0.15, n=2, rho=0.004)
    est = multi_replica_fe(h, spec, np.linspace(0, 1, 11), 60, np.random.default_rng(21))
    assert est.meta["pairwise_hits"] == 1
    assert "initialization-skipped" not in est.meta["flags"]
    assert math.isfinite(est.value) and math.isfinite(est.std_error)


def test_multi_replica_infeasible_pairing_hits_floor():
    h = corner_instance()
    spec = BandSpec(corner_center(), delta=0.8, n=2, rho=0.9)
    est = multi_replica_fe(h, spec, np.linspace(0, 1, 5), 50, np.random.default_rng(2))
    assert "zero-hit-floor" in est.meta["flags"]
    assert est.meta["pairwise_hits"] == 0
    assert est.value < est.meta["log_band_volume"]


# --- multisamplability ---------------------------------------------------------

def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_multisamplability_vacuous_and_validation():
    lay = SpeciesLayout(("s",), (8,))
    h = build_instance(Mixture.from_terms({(2,): 0.5}), lay, seed=1)
    rng = np.random.default_rng(0)
    rec, = multisamplability_records(h, [0.0], 2, [2.0], [0.0, 0.5], 50, rng)
    assert rec["value"] == 0.0
    with pytest.raises(ValueError):
        multisamplability_records(h, [0.0], 1, [0.5], [0.0, 0.5], 50, rng)


def test_multisamplability_monotone_in_eps_and_floor():
    lay = SpeciesLayout(("s",), (8,))
    h = build_instance(Mixture.from_terms({(2,): 0.5}), lay, seed=1)
    grid = [0.0, 0.5]
    wide, = multisamplability_records(h, [0.0], 2, [0.5], grid, 600, np.random.default_rng(4))
    narrow, = multisamplability_records(h, [0.0], 2, [0.2], grid, 600, np.random.default_rng(4))
    assert wide["hits"] >= narrow["hits"]
    assert wide["value"] >= narrow["value"]
    assert wide["value"] <= 0.0
    tiny, = multisamplability_records(h, [0.0], 2, [1e-9], grid, 200, np.random.default_rng(4))
    assert "zero-hit-floor" in tiny["flags"]
    assert tiny["value"] == pytest.approx(math.log(0.5 / tiny["samples"]) / 8)


def _field_instance():
    lay = SpeciesLayout(("a", "b"), (4, 6))
    q = [0.3, 0.4]
    mix = Mixture.from_terms({(1, 1): 1.0, (2, 0): 0.5, (0, 3): 0.3})
    return attach_external_field(build_instance(xi_q(mix, q), lay, seed=8), q, seed=9)


REPLICA_CASES = {
    "corner": corner_instance,
    "8+8": lambda: build_instance(Mixture.from_terms({(1, 1): 1.0, (2, 0): 0.5}),
                                  SpeciesLayout(("a", "b"), (8, 8)), seed=6),
    "field": _field_instance,
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("case", sorted(REPLICA_CASES))
def test_grouped_replicas_equal_per_replica_samplers(case, n):
    # n replicas of one instance as one group of shared-block rows give the
    # snapshots, energy series and flags of n separate pt_sampler runs
    h = REPLICA_CASES[case]()
    grid = np.array([0.0, 0.5, 1.0])
    runs = _run_group([h] * n, grid, 150, np.random.default_rng(21).spawn(n))
    refs = [pt_sampler(h, grid, 150, rng) for rng in np.random.default_rng(21).spawn(n)]
    for run, ref in zip(runs, refs):
        assert np.array_equal(run.snapshots[:, :, 0], ref.snapshots[:, :, 0])
        assert np.array_equal(run.series, ref.series)
        assert run.flags == ref.flags


def test_multisamplability_records_score_one_draw_per_eps_grid():
    # the grid call equals one one-eps call per eps on a same-seeded
    # generator, and its hits never decrease as eps grows
    h = REPLICA_CASES["8+8"]()
    eps_grid = [0.1, 0.3, 0.6, 0.9, 2.5]
    grid = [0.0, 0.5, 1.0]
    records = multisamplability_records(h, [0.0, 0.0], 3, eps_grid, grid, 300,
                                        np.random.default_rng(4))
    for eps, rec in zip(eps_grid, records):
        assert [rec] == multisamplability_records(h, [0.0, 0.0], 3, [eps], grid, 300,
                                                  np.random.default_rng(4))
    hits = [rec["hits"] for rec in records[:-1]]
    assert hits == sorted(hits) and hits[0] < hits[-1]
    assert records[-1]["flags"] == ["vacuous"] and records[-1]["value"] == 0.0


ORACLE_CASES = [
    (Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.3}), SpeciesLayout(("a", "b"), (1, 1)), 5),
    (Mixture.from_terms({(1, 1, 0): 0.6, (0, 1, 1): 0.9, (1, 0, 1): 0.4}),
     SpeciesLayout(("a", "b", "c"), (1, 1, 1)), 17),
]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_multisamplability_hit_rate_matches_sign_pattern_oracle(case, n):
    # at corner scale every species overlap is +-1, so with q = 0.5 and
    # eps = 0.6 a tuple hits exactly when all n replicas share one sign
    # pattern: probability sum_sigma G_1(sigma)^n.  The pooled hit rate of
    # three runs (1200 thinned samples) must lie within 4 binomial SEs.
    mix, lay, seed = ORACLE_CASES[case]
    h = build_instance(mix, lay, seed=seed)
    energies = energy_many(h, sign_patterns(lay.n))
    p = math.exp(logsumexp(n * (energies - logsumexp(energies))))
    hits = samples = 0
    for k in range(3):
        rec, = multisamplability_records(h, [0.5] * lay.n_species, n, [0.6],
                                         [0.0, 0.5, 1.0], 1200, np.random.default_rng(k))
        hits += rec["hits"]
        samples += rec["samples"]
    assert abs(hits / samples - p) <= 4.0 * math.sqrt(p * (1.0 - p) / samples)


@pytest.mark.parametrize("n_rep", [1, 2, 3])
@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_enumeration_matches_plain_tuple_loop(case, n_rep):
    # the joint value, the penalty and the pattern count against a loop over
    # every n-tuple of band sign patterns, one pair check at a time
    mix, lay, seed = ORACLE_CASES[case]
    h = build_instance(mix, lay, seed=seed)
    m = Configuration(np.linspace(0.5, -0.4, lay.n), lay)
    q = m.coords**2
    n = lay.n
    for delta, rho in ((0.8, 1.5), (0.8, 1.2), (0.6, 1.01), (0.7, 0.95), (0.3, 1.5)):
        band = [s for s in sign_patterns(n) if np.all(np.abs(s * m.coords - q) <= delta)]
        single = [energy(h, Configuration(s, lay)) - energy(h, m) for s in band]
        joint = [sum(single[k] for k in tup)
                 for tup in itertools.product(range(len(band)), repeat=n_rep)
                 if all(np.all(np.abs(band[a] * band[b] - q) <= rho)
                        for a, b in itertools.combinations(tup, 2))]
        log_joint = float(logsumexp(joint)) if joint else -math.inf
        spec = BandSpec(m, delta, n_rep, rho)
        est = exact_multi_replica_fe_enumeration(h, spec)
        penalty = exact_penalty_enumeration(h, spec)
        assert est.meta["n_configurations"] == len(band) > 0
        if not joint:
            assert est.value == penalty == -math.inf
            continue
        expected = (log_joint - n_rep * n * math.log(2.0)) / (n * n_rep)
        assert abs(est.value - expected) <= 1e-12
        expected = (log_joint - n_rep * float(logsumexp(single))) / (n * n_rep)
        assert abs(penalty - expected) <= 1e-12


# --- chain of inequalities ------------------------------------------------------

def test_free_energy_chain_inequality_exact():
    h = corner_instance()
    m = corner_center()
    n = CORNER_LAYOUT.n
    full = exact_fe_enumeration(h).value
    single = exact_restricted_fe_enumeration(h, m, 0.8).value
    joint = exact_multi_replica_fe_enumeration(h, BandSpec(m, 0.8, 2, 1.2)).value
    h_m = energy(h, m) / n
    assert h_m + joint <= h_m + single + 1e-12
    assert h_m + single <= full + 1e-12


# --- random stream layout and band moves -----------------------------------

@pytest.mark.parametrize("steps", [1, 16, 17, 33])
@pytest.mark.parametrize("case", ["one replica", "coupled"])
def test_tempering_draws_its_randomness_in_chunks_of_16_sweeps(case, steps):
    # every 16 sweeps (fewer in the last chunk) an instance draws its normals,
    # (sweeps, replicas, chains, N), then its uniforms, (sweeps, rows, chains):
    # per replica a flip row for each of the S1 one-coordinate blocks and an
    # accept row for each of the S blocks, two rows per one-coordinate block
    # for coupled flips, and one swap row
    grid = np.linspace(0, 1, 4)
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    if case == "one replica":
        lay = SpeciesLayout(("a", "b"), (1, 3))
        h = build_instance(Mixture.from_terms({(1, 1): 1.0, (0, 2): 0.5}), lay, seed=3)
        pt_sampler(h, grid, steps, rng)
        thermo._init_replicas(lay, grid.size, ref)
        replicas, rows = 1, 1 * (2 + 1) + 1
    else:
        h, spec = corner_instance(), BandSpec(corner_center(), delta=0.8, n=2, rho=1.2)
        lay = h.layout
        _run_group([h], grid, steps, [rng], band=spec,
                   starts=band_starts(spec, grid.size, np.random.default_rng(13)))
        replicas, rows = 2, 2 * (4 + 4) + 2 * 4 + 1
    for lo in range(0, steps, 16):
        size = min(16, steps - lo)
        ref.standard_normal((size, replicas, grid.size, lay.n))
        ref.random((size, rows, grid.size))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_tempering_group_needs_one_generator_per_instance():
    h = corner_instance()
    grid = np.linspace(0, 1, 3)
    with pytest.raises(ValueError, match="one generator per instance"):
        _run_group([h, h], grid, 5, [np.random.default_rng(0)])
    with pytest.raises(ValueError, match="one generator per instance"):
        _run_group([h], grid, 5, np.random.default_rng(0).spawn(2))


def test_band_run_refuses_starts_outside_the_band_or_the_pair_rule():
    h, spec = continuous_band_spec()
    grid = np.linspace(0, 1, 5)
    starts = band_starts(spec, 5, np.random.default_rng(13))
    outside = starts.copy()
    outside[2, 1] *= -1.0  # R_s(-x, m) = -R_s(x, m), about 0.6 from q = 0.3
    tuples = sample_uniform_in_band_batch(spec.center, spec.delta, 400, np.random.default_rng(3))
    tuples = tuples.reshape(200, 2, h.layout.n)
    unpaired = tuples[~spec.tuples_within(tuples)][:5]
    for bad in (outside, unpaired):
        with pytest.raises(ValueError, match="band starts"):
            _run_group([h], grid, 10, [np.random.default_rng(14)], band=spec, starts=bad)


@pytest.mark.parametrize("case", ["corner", "continuous"])
def test_block_band_check_decides_as_the_whole_tuple_check(case):
    # in every round, each move of one block of one replica, from a tuple that
    # holds the band and the pair rule, is decided by the round's band test
    # exactly as contains and pairs_within decide on the whole proposed tuple
    if case == "corner":
        h, spec = corner_instance(), BandSpec(corner_center(), delta=0.8, n=3, rho=1.2)
    else:
        h, spec = continuous_band_spec()
        spec = BandSpec(spec.center, spec.delta, n=3, rho=0.5)
    lay = h.layout
    rng = np.random.default_rng(5)
    tuples = band_starts(spec, 40, np.random.default_rng(13))
    center = np.broadcast_to(spec.center.coords, tuples[:, :1].shape)
    held = np.concatenate([center, tuples], axis=1)  # the center in front of the tuple
    decided = []
    for moves in thermo._rounds(spec.n, lay.n_species):
        props = tuples.copy()
        for r, s in moves:
            sl = lay.slices[s]
            x = tuples[:, r, sl]
            scale = np.repeat([0.05, 0.3, 1.0, 3.0], 10)[:, None]
            y = -x if lay.sizes[s] == 1 else x + scale * rng.standard_normal(x.shape)
            if lay.sizes[s] > 1:
                y *= np.sqrt(lay.sizes[s] / np.einsum("ij,ij->i", y, y))[:, None]
            props[:, r, sl] = y
        within = thermo._round_within(spec, props, held)
        for r, s in moves:
            others = [r2 for r2 in range(spec.n) if r2 != r]
            whole = spec.contains(props[:, [r]]).all(axis=1) & spec.pairs_within(
                props[:, [r], None], tuples[:, None, others]).all(axis=(1, 2))
            np.testing.assert_array_equal(within[:, r], whole)
            decided.append(whole)
    decided = np.concatenate(decided)
    assert decided.any() and not decided.all()


@pytest.mark.parametrize("n_species", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rounds_move_each_block_of_each_replica_once_per_sweep(n, n_species):
    rounds = thermo._rounds(n, n_species)
    assert len(rounds) == max(n, n_species)
    assert sorted(m for moves in rounds for m in moves) == sorted(
        itertools.product(range(n), range(n_species)))
    for moves in rounds:
        replicas, blocks = zip(*moves)
        assert list(replicas) == sorted(set(replicas))
        assert len(set(blocks)) == len(blocks)
    if n == 1:
        assert rounds == [[(0, s)] for s in range(n_species)]


@pytest.mark.parametrize("sizes", [(8, 8), (3, 1, 5), (4, 2, 4), (1, 1), (2, 2, 1, 2)])
def test_block_runs_cover_each_wide_block_once_in_order(sizes):
    lay = SpeciesLayout(tuple("abcd"[:len(sizes)]), sizes)
    runs = thermo._block_runs(lay)
    wide = [s for s, d in enumerate(sizes) if d > 1]
    assert [s for _, blocks, _ in runs for s in range(blocks.start, blocks.stop)] == wide
    covered = []
    for d, blocks, cols in runs:
        assert {sizes[s] for s in range(blocks.start, blocks.stop)} == {d}
        assert cols == slice(lay.slices[blocks.start].start, lay.slices[blocks.stop - 1].stop)
        covered += range(cols.start, cols.stop)
    assert covered == [i for s in wide for i in range(lay.slices[s].start, lay.slices[s].stop)]
    # a run ends where the size changes or a one-coordinate block sits
    for (d, blocks, _), (d2, blocks2, _) in zip(runs, runs[1:]):
        assert d != d2 or blocks.stop < blocks2.start


def one_move_at_a_time(h, spec, beta, start, rng):
    """One sweep of a one-chain band run from the tuple start, with the
    stream layout and proposals of _run_group, but its moves applied one at a
    time in round order and the energies recomputed after each: the final
    tuple, the block moves proposed and the block moves accepted."""
    lay, n = h.layout, spec.n
    flips = [s for s, d in enumerate(lay.sizes) if d == 1]
    z = rng.standard_normal((1, n, 1, lay.n))[0, :, 0]
    u = rng.random((1, n * (lay.n_species + len(flips)) + 2 * len(flips) * (n > 1) + 1, 1))
    draws = iter(u[0, :, 0])
    tup, proposed, accepted = start.copy(), 0, 0

    def metropolis(prop, ok):
        log_u = math.log(max(next(draws), 1e-300))
        return ok and log_u < beta * (energy_many(h, prop).sum() - energy_many(h, tup).sum())

    for moves in thermo._rounds(n, lay.n_species):
        for r, s in moves:
            sl, d = lay.slices[s], lay.sizes[s]
            x, g = start[r, sl], z[r, sl]
            moved = next(draws) < 0.5 if d == 1 else True
            prop = tup.copy()
            prop[r, sl] = -x if d == 1 else x + 0.5 * (g - (g @ x / d) * x)
            prop[r, sl] *= math.sqrt(d / (prop[r, sl] @ prop[r, sl]))
            ok = moved and spec.contains(prop).all() and spec.tuples_within(prop)
            if metropolis(prop, ok):
                tup, accepted = prop, accepted + 1
            proposed += moved
    for s in flips:
        prop = tup.copy()
        prop[:, lay.slices[s]] *= -1.0
        moved = next(draws) < 0.5
        if metropolis(prop, moved and spec.contains(prop).all()):
            tup = prop
    return tup, proposed, accepted


@pytest.mark.parametrize("case, n", [("continuous", 2), ("continuous", 3), ("corner", 3),
                                     ("split", 2), ("split", 3)])
def test_round_decides_as_its_moves_one_at_a_time(case, n):
    # one sweep of 40 one-chain instances (no swap pairs) equals, per chain,
    # its moves applied one at a time with the energies recomputed after each;
    # the split layout's two 3-blocks are two runs, split by a one-coordinate block
    if case == "corner":
        h, spec = corner_instance(), BandSpec(corner_center(), delta=0.8, n=n, rho=1.2)
    elif case == "split":
        lay = SpeciesLayout(("a", "b", "c"), (3, 1, 3))
        h = build_instance(Mixture.from_terms({(1, 1, 0): 0.8, (0, 1, 1): 0.5, (2, 0, 1): 0.3,
                                               (1, 1, 1): 0.4}), lay, seed=17)
        m = sample_on_shell(lay, [0.3, 0.3, 0.3], np.random.default_rng(18))
        spec = BandSpec(m, delta=0.9, n=n, rho=1.25)
    else:
        h, spec = continuous_band_spec()
        spec = BandSpec(spec.center, spec.delta, n=n, rho=0.5)
    starts = band_starts(spec, 40, np.random.default_rng(13))
    beta = 3.0
    runs = _run_group([h] * 40, np.array([beta]), 1, np.random.default_rng(8).spawn(40),
                      band=spec, starts=starts)
    proposed = []
    for run, start, rng in zip(runs, starts, np.random.default_rng(8).spawn(40)):
        tup, moves, accepts = one_move_at_a_time(h, spec, beta, start, rng)
        np.testing.assert_allclose(run.final_coords[0], tup, rtol=0, atol=1e-12)
        assert run.proposal_counts[0] == moves
        assert run.accept_rates[0] * moves == pytest.approx(accepts)
        assert run.series[0, 0] == pytest.approx(energy_many(h, tup).sum(), abs=1e-10)
        proposed.append((moves, accepts))
    moves, accepts = np.array(proposed).T
    assert 0 < accepts.sum() < moves.sum()


class SwapUniforms:
    """A generator whose draws come from a default_rng, except the swap row
    of each sweep: 1.0 (refused: log 1 is not below 0) or 0.5 (accepted,
    where the energy gap is 0), each with probability one half; keeps them."""

    def __init__(self, seed):
        self.rng, self.swap = np.random.default_rng(seed), []

    def standard_normal(self, shape):
        return self.rng.standard_normal(shape)

    def random(self, shape):
        u = self.rng.random(shape)
        u[:, -1] = np.where(self.rng.random(u[:, -1].shape) < 0.5, 1.0, 0.5)
        self.swap.append(u[:, -1])
        return u


@pytest.mark.parametrize("steps", [1, 2, 3, 5, 17])
def test_swap_rates_count_each_sweep(steps):
    # with H = 0 every swap whose uniform is below 1 is accepted, so the
    # rates follow from the swap rows alone, counted here sweep by sweep
    h = build_instance(Mixture.from_terms({}, n_species=2), SpeciesLayout(("a", "b"), (1, 3)),
                       seed=0)
    n_chains, rng = 6, SwapUniforms(4)
    run = pt_sampler(h, np.linspace(0, 1, n_chains), steps, rng)
    swap = np.concatenate(rng.swap)
    tries, accepts = np.zeros((2, n_chains - 1), dtype=int)
    for t in range(steps // 3, steps):
        for j, lo in enumerate(range(t % 2, n_chains - 1, 2)):
            tries[lo] += 1
            accepts[lo] += swap[t, j] < 1.0
    expected = np.where(tries > 0, accepts / np.maximum(tries, 1), 1.0)
    np.testing.assert_array_equal(run.swap_rates, expected)
    if steps >= 5:
        assert 0 < accepts.sum() < tries.sum()
