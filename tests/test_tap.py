"""Free-energy decomposition reports, inequality scan, nesting, diagnostics."""

import math

import numpy as np
import pytest

from multispin import tap
from multispin.geometry import uniform_overlap_tail
from multispin.hamiltonian import block_entries, build_instance
from multispin.mixture import (
    Mixture,
    SpeciesLayout,
    log_volume_term,
    onsager_term,
    scale_mixture,
)
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
    assert best.q.values == (0.0, 0.0)


def test_candidate_requires_nonempty_scan():
    with pytest.raises(ValueError):
        candidate_multisamplable([])


def test_evaluate_quadrature_path_on_small_blocks():
    lay = SpeciesLayout(("a", "b"), (2, 2))
    xi = Mixture.from_terms({(2, 0): 0.4, (1, 1): 0.5})
    cfg = EstimatorConfig(seeds=8, quadrature_nodes=12, restarts=4,
                          max_iters=150, master_seed=3)
    rep = tap_evaluate(xi, lay, [0.2, 0.3], cfg, seeds=8)
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


def test_flags_propagate_from_estimators():
    # force the sampler into a poorly-swapping regime and expect the flag
    lay = SpeciesLayout(("s",), (20,))
    xi = Mixture.from_terms({(4,): 1.5})
    cfg = EstimatorConfig(method="ti", beta_grid=(0.0, 4.0), sweeps=150,
                          seeds=2, restarts=1, max_iters=20, master_seed=5)
    rep = tap_evaluate(xi, lay, [0.2], cfg, seeds=2)
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
