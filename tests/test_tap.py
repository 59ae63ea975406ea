"""Free-energy decomposition reports, inequality scan, nesting, diagnostics."""

import math

import numpy as np
import pytest

from multispin import tap, thermo
from multispin.geometry import uniform_overlap_tail
from multispin.ground_state import ascend
from multispin.hamiltonian import block_entries, build_instance
from multispin.mixture import (
    Mixture,
    SpeciesLayout,
    log_volume_term,
    onsager_term,
    scale_mixture,
    xi_q,
)
from multispin.seeding import derive_seed
from multispin.tap import (
    EstimatorConfig,
    TapReport,
    candidate_multisamplable,
    fe_per_seed,
    nesting_experiment,
    onsager_check,
    replica_symmetry_diagnostic,
    tap_evaluate,
    tap_inequality_scan,
)
from multispin.thermo import fe_thermo_integration

CORNER = SpeciesLayout(("a", "b"), (1, 1))
CORNER_MIX = Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.3})
CONFIG = EstimatorConfig(seeds=20, master_seed=7)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(method="magic")
    with pytest.raises(ValueError):
        EstimatorConfig(sweeps=0)
    with pytest.raises(ValueError):
        EstimatorConfig(gs_bias_allowance=-0.1)
    with pytest.raises(ValueError):
        EstimatorConfig(restarts=0)


def test_report_parts_are_consistent():
    rep = tap_evaluate(CORNER_MIX, CORNER, [0.3, 0.5], CONFIG)
    assert rep.gap == pytest.approx(
        rep.lhs.value - rep.gs - rep.logvol - rep.fq.value, abs=1e-12)
    assert rep.logvol == log_volume_term(CORNER, [0.3, 0.5])
    assert rep.onsager == onsager_term(CORNER_MIX, [0.3, 0.5])
    assert rep.lhs.method == "enumeration"
    assert rep.lhs.meta["mean_mc_std_error"] == 0.0  # corner scale is exact per seed
    assert len(rep.lhs.meta["instance_seeds"]) == 20
    rec = rep.to_record()
    assert rec["q"] == [0.3, 0.5] and "gap_std_error" in rec


def test_zero_mixture_gives_zero_report():
    xi0 = Mixture.from_terms({}, n_species=2)
    rep = tap_evaluate(xi0, CORNER, [0.4, 0.2], CONFIG)
    assert rep.lhs.value == 0.0 and rep.fq.value == 0.0 and rep.gs == 0.0
    assert rep.gap == pytest.approx(-rep.logvol, abs=1e-15)
    assert rep.logvol < 0.0
    assert rep.onsager == 0.0


def test_q_zero_closes_the_gap_at_corner_scale():
    # with no single-coordinate terms the recentered mixture at q=0 is the
    # mixture itself, so lhs and fq estimate the same expectation
    rep = tap_evaluate(CORNER_MIX, CORNER, [0.0, 0.0], CONFIG)
    assert rep.gs == 0.0 and rep.logvol == 0.0
    assert abs(rep.gap) <= 3.0 * rep.gap_std_error


def test_inequality_scan_has_no_violations_and_flags_best_point():
    grid = [(a, b) for a in (0.0, 0.4, 0.7) for b in (0.0, 0.4, 0.7)]
    reports = tap_inequality_scan(CORNER_MIX, CORNER, grid, CONFIG)
    assert len(reports) == 9
    assert all("tap-inequality-violated" not in r.flags for r in reports)
    tol = CONFIG.gs_bias_allowance
    assert all(r.gap >= -(3 * r.gap_std_error + tol) for r in reports)
    best = candidate_multisamplable(reports)
    assert best.q == (0.0, 0.0)


def test_candidate_requires_nonempty_scan():
    with pytest.raises(ValueError):
        candidate_multisamplable([])


def test_evaluate_quadrature_path_on_small_blocks():
    lay = SpeciesLayout(("a", "b"), (2, 2))
    xi = Mixture.from_terms({(2, 0): 0.4, (1, 1): 0.5})
    cfg = EstimatorConfig(seeds=8, quadrature_nodes=12, restarts=4,
                          max_iters=150, master_seed=3)
    rep = tap_evaluate(xi, lay, [0.2, 0.3], cfg)
    assert rep.lhs.method == "quadrature"
    assert rep.gap >= -(3 * rep.gap_std_error + cfg.gs_bias_allowance)
    assert all(np.isfinite([rep.lhs.value, rep.gs, rep.logvol, rep.fq.value]))


def test_onsager_weak_disorder_trend():
    diffs = []
    for eps in (0.2, 0.1, 0.05):
        oc = onsager_check(scale_mixture(CORNER_MIX, eps), CORNER, [0.0, 0.0], CONFIG)
        assert oc["within_3se"]
        diffs.append(abs(oc["difference"]))
    assert diffs[0] > diffs[1] > diffs[2]


def test_onsager_zero_mixture():
    oc = onsager_check(Mixture.from_terms({}, n_species=2), CORNER, [0.0, 0.0], CONFIG)
    assert oc["fq"] == 0.0 and oc["onsager"] == 0.0 and oc["difference"] == 0.0


def test_replica_symmetry_diagnostic_limits():
    lay = SpeciesLayout(("s",), (10,))
    h = build_instance(Mixture.from_terms({(2,): 0.01}), lay, seed=3)
    cfg = EstimatorConfig(seeds=20, sweeps=600, beta_grid=(0.0, 0.5, 1.0), master_seed=1)
    assert replica_symmetry_diagnostic(h, 2, 1.0 + 1e-6, cfg) == 0.0
    with pytest.raises(ValueError):
        replica_symmetry_diagnostic(h, 1, 0.5, cfg)
    freq = replica_symmetry_diagnostic(h, 2, 0.6, cfg)
    reference = uniform_overlap_tail(10, 0.6)
    assert freq <= 2.0 * reference  # weak disorder stays near the uniform tail
    assert freq >= 0.0


def test_replica_symmetry_diagnostic_pairs_over_budget_refused(monkeypatch):
    # the pair budget of multisamplability_records: 20000 replicas keeping
    # 20 states of N = 2 coordinates are refused before any chain is tempered
    def no_tempering(*args, **kwargs):
        raise AssertionError("tempered")

    monkeypatch.setattr(thermo, "_run_group", no_tempering)
    h = build_instance(CORNER_MIX, CORNER, seed=1)
    cfg = EstimatorConfig(sweeps=30, beta_grid=(0.0, 1.0))
    with pytest.raises(ValueError, match="budget"):
        replica_symmetry_diagnostic(h, 20000, 0.5, cfg)


def test_nesting_identities_exact_and_gs_one_sided():
    nest = nesting_experiment(CORNER_MIX, CORNER, [0.3, 0.2], [0.4, 0.5], CONFIG)
    assert nest["log_additivity_gap"] <= 1e-12
    assert nest["mixture_coefficient_gap"] <= 1e-10
    assert nest["gs_inequality_holds"]
    np.testing.assert_allclose(nest["q_hat"], [0.3 + 0.7 * 0.4, 0.2 + 0.8 * 0.5])


def test_nesting_identity_composition_with_zero():
    nest = nesting_experiment(CORNER_MIX, CORNER, [0.3, 0.2], [0.0, 0.0], CONFIG)
    np.testing.assert_allclose(nest["q_hat"], [0.3, 0.2])
    assert nest["log_additivity_gap"] == 0.0
    assert nest["mixture_coefficient_gap"] <= 1e-12
    assert nest["gs_inequality_holds"]


@pytest.mark.parametrize("check", [tap_evaluate, onsager_check])
def test_ti_grid_must_end_at_beta_one(check):
    # gs and the Onsager term belong to beta 1, so lhs and fq integrated to
    # beta 0.5 would mix temperatures
    lay = SpeciesLayout(("a", "b"), (2, 2))
    cfg = EstimatorConfig(method="ti", beta_grid=(0.0, 0.25, 0.5), sweeps=20, seeds=2,
                          restarts=1, max_iters=5)
    with pytest.raises(ValueError, match="beta 1"):
        check(Mixture.from_terms({(1, 1): 1.0}), lay, [0.3, 0.3], cfg)


def test_flags_propagate_from_estimators():
    # force the sampler into a poorly-swapping regime and expect the flag;
    # the decomposition is taken at beta 1, so the grid ends there and the
    # coefficient carries the factor beta^2 = 16 of the old grid end beta 4
    lay = SpeciesLayout(("s",), (20,))
    xi = Mixture.from_terms({(4,): 24.0})
    cfg = EstimatorConfig(method="ti", beta_grid=(0.0, 1.0), sweeps=150,
                          seeds=2, restarts=1, max_iters=20, master_seed=5)
    rep = tap_evaluate(xi, lay, [0.2], cfg)
    assert "swap-acceptance-low" in rep.flags


@pytest.mark.parametrize("terms, sizes", [
    ({(1, 1): 1.0}, (4, 4)),
    ({(2, 1): 1.0, (1, 1): 0.5}, (1, 6)),
    ({(2, 0): 0.5, (1, 1): 1.0}, (3, 2)),
])
@pytest.mark.parametrize("split", [False, True])
def test_grouped_ti_matches_one_instance_at_a_time(terms, sizes, split, monkeypatch):
    xi = Mixture.from_terms(terms)
    lay = SpeciesLayout(("a", "b"), sizes)
    cfg = EstimatorConfig(method="ti", beta_grid=(0.0, 0.25, 0.5, 1.0), sweeps=60)
    seeds = [31 + i for i in range(5)]
    groups = []
    grouped_ti = tap.fe_thermo_integration_many

    def spy(hs, *args):
        groups.append(len(hs))
        return grouped_ti(hs, *args)

    monkeypatch.setattr(tap, "fe_thermo_integration_many", spy)
    if split:  # room for two instances per group
        monkeypatch.setattr(tap, "_BATCH_ELEMENT_CAP", 2 * block_entries(xi, lay) + 1)
    grouped = fe_per_seed(xi, lay, cfg, seeds,
                          [np.random.default_rng(100 + s) for s in seeds])
    assert groups == ([2, 2, 1] if split else [5])
    for seed, est in zip(seeds, grouped):
        alone = fe_thermo_integration(build_instance(xi, lay, seed=seed), cfg.beta_grid,
                                      cfg.sweeps, np.random.default_rng(100 + seed))
        assert est.value == alone.value
        assert est.std_error == alone.std_error
        assert est.meta["accept_rates"] == alone.meta["accept_rates"]
        assert est.meta["swap_rates"] == alone.meta["swap_rates"]


@pytest.mark.parametrize("terms, sizes", [
    ({(1, 1): 1.0}, (4, 4)),
    ({(2, 1): 1.0, (1, 1): 0.5}, (1, 6)),
    ({(2, 0): 0.5, (1, 1): 1.0}, (3, 2)),
])
@pytest.mark.parametrize("split", [False, True])
def test_grouped_gs_pass_matches_one_instance_at_a_time(terms, sizes, split, monkeypatch):
    xi = Mixture.from_terms(terms)
    lay = SpeciesLayout(("a", "b"), sizes)
    cfg = EstimatorConfig(restarts=3, max_iters=40, master_seed=5)
    qv = np.array([0.3, 0.4])
    groups, results = [], []
    grouped_ascent = tap.ascend_many

    def spy(hs, *args):
        out = grouped_ascent(hs, *args)
        groups.append(len(hs))
        results.extend(out)
        return out

    monkeypatch.setattr(tap, "ascend_many", spy)
    if split:  # room for two instances per group
        monkeypatch.setattr(tap, "_BATCH_ELEMENT_CAP", 2 * block_entries(xi, lay) + 1)
    _, [(mean, _, _, _)] = tap._over_seeds([xi], lay, ["tap-base"], cfg, 5, qs=[qv],
                                           gs_streams=[np.random.default_rng(8).spawn(5)])
    assert groups == ([2, 2, 1] if split else [5])
    streams = np.random.default_rng(8).spawn(5)
    for i, (res, stream) in enumerate(zip(results, streams)):
        h = build_instance(xi, lay, seed=derive_seed(cfg.master_seed, "tap-base", i))
        alone = ascend(h, qv, cfg.restarts, cfg.max_iters, stream)
        assert res.energy_per_spin == alone.energy_per_spin
        assert np.array_equal(res.maximizer.coords, alone.maximizer.coords)
        assert res.iteration_counts == alone.iteration_counts
        assert res.best_restart == alone.best_restart
    assert mean == np.mean([res.energy_per_spin for res in results])


def test_tap_evaluate_builds_each_instance_once(monkeypatch):
    # lhs and gs share the "tap-base" instances; fq draws its own
    built = []
    build = tap.build_instance

    def counting(*args, **kwargs):
        built.append(kwargs["seed"])
        return build(*args, **kwargs)

    monkeypatch.setattr(tap, "build_instance", counting)
    lay = SpeciesLayout(("a", "b"), (2, 2))
    xi = Mixture.from_terms({(2, 0): 0.4, (1, 1): 0.5})
    cfg = EstimatorConfig(seeds=3, quadrature_nodes=6, restarts=2, max_iters=20,
                          master_seed=3)
    tap_evaluate(xi, lay, [0.2, 0.3], cfg)
    assert len(built) == 2 * cfg.seeds
    assert len(set(built)) == len(built)


def test_tap_evaluate_stream_layout():
    # lhs, gs and fq take the generator's first, second and third spawn of
    # one stream per seed, and lhs and gs read the same "tap-base" instances
    lay = SpeciesLayout(("a", "b"), (2, 3))
    xi = Mixture.from_terms({(2, 0): 0.4, (1, 1): 0.5})
    cfg = EstimatorConfig(method="ti", beta_grid=(0.0, 0.5, 1.0), sweeps=30, seeds=3,
                          restarts=2, max_iters=30, master_seed=6)
    qv = np.array([0.3, 0.4])
    rep = tap_evaluate(xi, lay, qv, cfg, rng=np.random.default_rng(5))
    ref = np.random.default_rng(5)
    lhs_streams, gs_streams, fq_streams = ref.spawn(3), ref.spawn(3), ref.spawn(3)
    base = [derive_seed(6, "tap-base", i) for i in range(3)]
    recentered = [derive_seed(6, "tap-recentered", i) for i in range(3)]
    assert rep.lhs.meta["seed_values"] == [
        est.value for est in fe_per_seed(xi, lay, cfg, base, lhs_streams)]
    assert rep.gs == np.mean([
        ascend(build_instance(xi, lay, seed=seed), qv, 2, 30, stream).energy_per_spin
        for seed, stream in zip(base, gs_streams)])
    assert rep.fq.meta["seed_values"] == [
        est.value for est in fe_per_seed(xi_q(xi, qv), lay, cfg, recentered, fq_streams)]


@pytest.mark.parametrize("terms, sizes", [
    ({(2, 0): 0.4, (1, 1): 0.5}, [9]),
    ({(1, 0): 0.2, (1, 1): 0.8}, [3, 6]),  # xi_q drops the one-spin term
])
def test_scan_runs_lhs_and_fq_rows_as_one_ti_group(terms, sizes, monkeypatch):
    lay = SpeciesLayout(("a", "b"), (2, 3))
    xi = Mixture.from_terms(terms)
    cfg = EstimatorConfig(method="ti", beta_grid=(0.0, 0.5, 1.0), sweeps=30, seeds=3,
                          restarts=1, max_iters=10, master_seed=6)
    grid = [(0.3, 0.4), (0.5, 0.2)]
    groups = []
    grouped_ti = tap.fe_thermo_integration_many

    def spy(hs, *args):
        groups.append(len(hs))
        return grouped_ti(hs, *args)

    monkeypatch.setattr(tap, "fe_thermo_integration_many", spy)
    reports = tap_inequality_scan(xi, lay, grid, cfg)
    assert groups == sizes
    # the stream layout of test_tap_evaluate_stream_layout, point k on its own generator
    for k, (q, rep) in enumerate(zip(grid, reports)):
        streams = np.random.default_rng(derive_seed(6, "tap-scan", k)).spawn(9)
        for i in range(cfg.seeds):
            fq = fe_thermo_integration(
                build_instance(xi_q(xi, q), lay, seed=derive_seed(6, "tap-recentered", i)),
                cfg.beta_grid, cfg.sweeps, streams[6 + i])
            assert rep.fq.meta["seed_values"][i] == fq.value
            if k == 0:
                lhs = fe_thermo_integration(
                    build_instance(xi, lay, seed=derive_seed(6, "tap-base", i)),
                    cfg.beta_grid, cfg.sweeps, streams[i])
                assert rep.lhs.meta["seed_values"][i] == lhs.value


def test_paired_gap_std_error():
    # lhs and gs read the same instances, so the gap's SE pairs them per seed
    lay = SpeciesLayout(("a", "b"), (2, 3))
    xi = Mixture.from_terms({(2, 0): 0.4, (1, 1): 0.5})
    cfg = EstimatorConfig(method="ti", beta_grid=(0.0, 0.5, 1.0), sweeps=30, seeds=4,
                          restarts=2, max_iters=30, master_seed=6)
    qv = np.array([0.3, 0.4])
    rep = tap_evaluate(xi, lay, qv, cfg, rng=np.random.default_rng(5))
    gs_streams = np.random.default_rng(5).spawn(12)[4:8]
    gs_values = [ascend(build_instance(xi, lay, seed=derive_seed(6, "tap-base", i)),
                        qv, 2, 30, stream).energy_per_spin
                 for i, stream in enumerate(gs_streams)]
    diffs = np.subtract(rep.lhs.meta["seed_values"], gs_values)
    paired = diffs.std(ddof=1) / math.sqrt(len(diffs))
    assert rep.gap_std_error == math.sqrt(paired**2 + rep.fq.std_error**2)
    assert rep.gap_std_error != math.sqrt(
        rep.lhs.std_error**2 + rep.gs_std_error**2 + rep.fq.std_error**2)


def test_scan_point_is_tap_evaluate_with_its_generator():
    lay = SpeciesLayout(("a", "b"), (2, 3))
    xi = Mixture.from_terms({(2, 1): 1.0})
    cfg = EstimatorConfig(method="ti", beta_grid=(0.0, 0.5, 1.0), sweeps=30, seeds=3,
                          restarts=2, max_iters=30, master_seed=4)
    grid = [(0.0, 0.3), (0.3, 0.3), (0.5, 0.2)]
    reports = tap_inequality_scan(xi, lay, grid, cfg)
    for k, (q, rep) in enumerate(zip(grid, reports)):
        alone = tap_evaluate(xi, lay, q, cfg,
                             rng=np.random.default_rng(derive_seed(4, "tap-scan", k)))
        assert (rep.gs, rep.gs_std_error) == (alone.gs, alone.gs_std_error)
        assert rep.fq == alone.fq
        assert rep.lhs == reports[0].lhs
    assert reports[0].lhs == tap_evaluate(
        xi, lay, grid[0], cfg, rng=np.random.default_rng(derive_seed(4, "tap-scan", 0))).lhs


def _count_builds(monkeypatch):
    built = []
    build = tap.build_instance

    def counting(*args, **kwargs):
        built.append((args[0], kwargs["seed"]))
        return build(*args, **kwargs)

    monkeypatch.setattr(tap, "build_instance", counting)
    return built


def test_scan_builds_each_base_instance_once(monkeypatch):
    built = _count_builds(monkeypatch)
    lay = SpeciesLayout(("a", "b"), (2, 2))
    xi = Mixture.from_terms({(2, 0): 0.4, (1, 1): 0.5})
    cfg = EstimatorConfig(seeds=3, quadrature_nodes=6, restarts=2, max_iters=20,
                          master_seed=3)
    grid = [(0.2, 0.3), (0.5, 0.1), (0.0, 0.4), (0.6, 0.6)]
    tap_inequality_scan(xi, lay, grid, cfg)
    assert len(built) == (1 + len(grid)) * cfg.seeds
    base = [derive_seed(3, "tap-base", i) for i in range(cfg.seeds)]
    assert [seed for mix, seed in built if mix is xi] == base


def test_nesting_builds_each_instance_once(monkeypatch):
    built = _count_builds(monkeypatch)
    nesting_experiment(CORNER_MIX, CORNER, [0.3, 0.2], [0.4, 0.5], CONFIG)
    assert len(built) == 2 * CONFIG.seeds


@pytest.mark.parametrize("split", [False, True])
def test_fq_rows_group_across_overlaps(split, monkeypatch):
    # (2,1) recentered at (0, q_b) keeps keys {(2,0),(2,1)}; at (0.3, 0.3)
    # it gains (1,1), so the rows of the last overlap start a new group
    lay = SpeciesLayout(("a", "b"), (2, 3))
    xi = Mixture.from_terms({(2, 1): 1.0})
    cfg = EstimatorConfig(method="ti", beta_grid=(0.0, 0.5, 1.0), sweeps=30, seeds=3,
                          restarts=1, max_iters=10, master_seed=8)
    grid = [(0.0, 0.3), (0.0, 0.5), (0.3, 0.3)]
    fq_groups = []
    grouped_ti = tap.fe_thermo_integration_many

    def spy(hs, *args):
        if hs[0].mixture.degrees != xi.degrees:  # not the lhs pass
            fq_groups.append([h.mixture.degrees for h in hs])
        return grouped_ti(hs, *args)

    monkeypatch.setattr(tap, "fe_thermo_integration_many", spy)
    if split:  # room for two of the largest recentered instances per group
        monkeypatch.setattr(tap, "_BATCH_ELEMENT_CAP",
                            2 * block_entries(xi_q(xi, grid[2]), lay) + 1)
    reports = tap_inequality_scan(xi, lay, grid, cfg)
    assert [len(g) for g in fq_groups] == ([2, 2, 2, 2, 1] if split else [6, 3])
    assert all(len(set(g)) == 1 for g in fq_groups)
    for k, (q, rep) in enumerate(zip(grid, reports)):
        streams = np.random.default_rng(derive_seed(8, "tap-scan", k)).spawn(9)[6:]
        for i, stream in enumerate(streams):
            h = build_instance(xi_q(xi, q), lay, seed=derive_seed(8, "tap-recentered", i))
            alone = fe_thermo_integration(h, cfg.beta_grid, cfg.sweeps, stream)
            assert rep.fq.meta["seed_values"][i] == alone.value


@pytest.mark.parametrize("split", [False, True])
def test_gs_pass_runs_its_overlaps_as_one_batch(split, monkeypatch):
    # the (overlap, row) ascents of a group are one ascend_many call, split
    # under _BATCH_ELEMENT_CAP like instance_groups, and give every overlap
    # the values of one ascend_many per overlap
    xi = Mixture.from_terms({(2, 0): 0.5, (1, 1): 1.0})
    lay = SpeciesLayout(("a", "b"), (3, 2))
    cfg = EstimatorConfig(restarts=3, max_iters=40, master_seed=5)
    qs = [np.array([0.3, 0.4]), np.array([0.6, 0.0]), np.array([0.2, 0.5])]
    calls = []
    grouped_ascent = tap.ascend_many

    def spy(hs, *args):
        calls.append(len(hs))
        return grouped_ascent(hs, *args)

    monkeypatch.setattr(tap, "ascend_many", spy)
    if split:  # room for two instances per group and per batch
        monkeypatch.setattr(tap, "_BATCH_ELEMENT_CAP", 2 * block_entries(xi, lay) + 1)
    _, passes = tap._over_seeds([xi], lay, ["tap-base"], cfg, 4, qs=qs, gs_streams=[
        np.random.default_rng(8 + j).spawn(4) for j in range(len(qs))])
    assert calls == ([2] * 6 if split else [12])
    hs = [build_instance(xi, lay, seed=derive_seed(cfg.master_seed, "tap-base", i))
          for i in range(4)]
    for j, (qv, (_, _, values, _)) in enumerate(zip(qs, passes)):
        alone = grouped_ascent(hs, qv, cfg.restarts, cfg.max_iters,
                               np.random.default_rng(8 + j).spawn(4))
        assert values == [res.energy_per_spin for res in alone]
