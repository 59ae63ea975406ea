"""Shell-constrained ascent, its exact quadratic oracle, concentration probe."""

import math

import numpy as np
import pytest

from multispin import ground_state
from multispin.geometry import Configuration, sample_on_shell, sign_patterns, species_overlaps
from multispin.hamiltonian import (
    attach_external_field,
    build_instance,
    energy,
    energy_many,
    gradient,
)
from multispin.ground_state import (
    ascend,
    ascend_many,
    eigen_oracle_2spin,
    gs_concentration_probe,
)
from multispin.mixture import Mixture, SpeciesLayout
from multispin.seeding import derive_seed
from multispin.thermo import exact_fe_quadrature

PURE_2SPIN = Mixture.from_terms({(2,): 1.0})


def test_restarts_over_budget_refused():
    # 10^9 restarts of 8 coordinates exceed the budget; the check runs before
    # the restart streams are spawned
    h = build_instance(Mixture.from_terms({(1, 1): 1.0}),
                       SpeciesLayout(("a", "b"), (4, 4)), seed=1)
    with pytest.raises(ValueError, match="budget"):
        ascend(h, [0.3, 0.3], 10**9, 10, np.random.default_rng(0))


def test_ascent_result_invariants():
    lay = SpeciesLayout(("a", "b"), (6, 10))
    xi = Mixture.from_terms({(2, 0): 0.4, (1, 1): 0.6, (0, 3): 0.3})
    h = build_instance(xi, lay, seed=3)
    res = ascend(h, [0.5, 0.8], restarts=4, max_iters=200, rng=np.random.default_rng(2))
    np.testing.assert_allclose(res.maximizer.self_overlap(),
                               [0.5, 0.8], atol=1e-9)
    assert res.energy_per_spin == pytest.approx(energy(h, res.maximizer) / 16, abs=1e-10)
    assert res.restarts == 4 and len(res.iteration_counts) == 4
    assert 0.0 <= res.converged_fraction <= 1.0
    rec = res.to_record()
    assert rec["restarts"] == 4 and "iterations_mean" in rec


def _ascend_one_restart(h, qv, max_iters, rng):
    """Reference: one restart on its own, Armijo rule written out per step."""
    lay = h.layout
    n = lay.n

    def on_shell(x):
        x = np.array(x)
        for s, sl in enumerate(lay.slices):
            x[sl] *= math.sqrt(lay.sizes[s] * qv[s]) / np.linalg.norm(x[sl])
        return x

    x = sample_on_shell(lay, qv, rng).coords
    value = energy(h, Configuration(x, lay))
    step0 = step = 1.0 / math.sqrt(n)
    for it in range(1, max_iters + 1):
        g = gradient(h, Configuration(x, lay))
        t = np.array(g)
        for s, sl in enumerate(lay.slices):
            t[sl] -= (g[sl] @ x[sl]) * x[sl] / (lay.sizes[s] * qv[s])
        t_norm_sq = float(t @ t)
        if math.sqrt(t_norm_sq) / n < 1e-8:
            return value, it - 1
        trial = min(2.0 * step, step0)
        for _ in range(40):
            cand = on_shell(x + trial * t)
            cand_value = energy(h, Configuration(cand, lay))
            floor = 32 * np.spacing(abs(value))
            if cand_value >= value + max(1e-4 * trial * t_norm_sq, floor):
                x, value, step = cand, cand_value, trial
                break
            trial *= 0.5
            if trial * t_norm_sq < floor:
                return value, it
        else:
            return value, it
    return value, max_iters


@pytest.mark.parametrize("terms, sizes, q, restarts, max_iters", [
    ({(2, 1): 1.0, (1, 1): 0.5}, (1, 6), (0.3, 0.4), 5, 300),
    ({(2, 0): 0.4, (1, 1): 0.6, (0, 3): 0.3}, (6, 10), (0.5, 0.8), 4, 25),
    ({(2, 1): 1.0, (1, 2): 1.0, (1, 1): 1.0}, (12, 12), (0.5, 0.5), 3, 60),
])
def test_batched_ascent_matches_restarts_run_alone(terms, sizes, q, restarts, max_iters):
    lay = SpeciesLayout(("a", "b"), sizes)
    h = build_instance(Mixture.from_terms(terms), lay, seed=17)
    res = ascend(h, q, restarts, max_iters, np.random.default_rng(5))
    streams = np.random.default_rng(5).spawn(restarts)
    alone = [_ascend_one_restart(h, np.array(q), max_iters, st) for st in streams]
    # the two project onto the shell with different roundoff, which can move
    # the stop by one iteration and reorder restarts tied at the maximum
    assert all(abs(a - b) <= 1 for a, (_, b) in zip(res.iteration_counts, alone))
    values = [v for v, _ in alone]
    assert values[res.best_restart] == pytest.approx(max(values), rel=1e-12)
    assert res.energy_per_spin * lay.n == pytest.approx(max(values), rel=1e-12)


def _assert_same_ascent(res, alone):
    assert res.energy_per_spin == alone.energy_per_spin
    assert np.array_equal(res.maximizer.coords, alone.maximizer.coords)
    assert res.iteration_counts == alone.iteration_counts
    assert res.best_restart == alone.best_restart
    assert res.converged_fraction == alone.converged_fraction


@pytest.mark.parametrize("terms, sizes, q, field", [
    ({(2, 1): 1.0, (1, 1): 0.5}, (1, 6), (0.3, 0.4), False),
    ({(2, 1): 1.0, (0, 2): 0.5}, (5, 6), (0.5, 0.6), True),
    ({(2, 1): 1.0, (1, 2): 1.0, (1, 1): 1.0}, (12, 12), (0.5, 0.5), False),
])
def test_grouped_ascent_matches_each_instance_alone(terms, sizes, q, field):
    # every (instance, restart) row of the fixed-shape batch follows the path
    # it follows alone, stopped rows included; one instance may carry a field
    lay = SpeciesLayout(("a", "b"), sizes)
    hs = [build_instance(Mixture.from_terms(terms), lay, seed=20 + k) for k in range(3)]
    if field:
        hs[1] = attach_external_field(hs[1], [0.2, 0.4], seed=9)
    grouped = ascend_many(hs, q, 4, 60, [np.random.default_rng(40 + k) for k in range(3)])
    assert len(grouped) == 3
    for k, (h, res) in enumerate(zip(hs, grouped)):
        _assert_same_ascent(res, ascend(h, q, 4, 60, np.random.default_rng(40 + k)))


def test_tied_restarts_pick_the_lowest_index():
    # H(x) = H(-x) for a pure even-degree model, so restarts reaching v and
    # -v tie up to rounding; the pick is the first restart within 64 ulps of
    # the best, whatever group the instance runs in
    lay = SpeciesLayout(("s",), (8,))
    other = build_instance(PURE_2SPIN, lay, seed=99)
    for seed in range(6):
        h = build_instance(PURE_2SPIN, lay, seed=seed)
        res = ascend(h, [0.7], 8, 500, np.random.default_rng(seed))
        assert res.converged_fraction == 1.0
        assert res.best_restart == 0
        assert res.energy_per_spin == pytest.approx(eigen_oracle_2spin(h, [0.7]), rel=1e-9)
        grouped = ascend_many([other, h], [0.7], 8, 500,
                              [np.random.default_rng(1), np.random.default_rng(seed)])
        _assert_same_ascent(grouped[1], res)


def test_ascend_many_needs_one_generator_per_instance():
    h = build_instance(PURE_2SPIN, SpeciesLayout(("s",), (8,)), seed=5)
    with pytest.raises(ValueError):
        ascend_many([h, h], [0.5], 2, 10, [np.random.default_rng(0)])


def test_zero_hamiltonian_gives_zero_energy():
    lay = SpeciesLayout(("s",), (12,))
    h = build_instance(Mixture.from_terms({}, n_species=1), lay, seed=0)
    res = ascend(h, [0.7], restarts=2, max_iters=10, rng=np.random.default_rng(0))
    assert res.energy_per_spin == 0.0
    assert res.converged_fraction == 1.0
    assert res.maximizer.self_overlap() == pytest.approx([0.7], abs=1e-9)


def test_zero_shell_is_the_origin():
    lay = SpeciesLayout(("s",), (12,))
    h = build_instance(PURE_2SPIN, lay, seed=12)
    res = ascend(h, [0.0], restarts=2, max_iters=10, rng=np.random.default_rng(0))
    assert res.energy_per_spin == 0.0
    np.testing.assert_array_equal(res.maximizer.coords, np.zeros(12))


def test_pure_quadratic_matches_eigen_oracle():
    lay = SpeciesLayout(("s",), (32,))
    h = build_instance(PURE_2SPIN, lay, seed=12)
    res = ascend(h, [0.99], restarts=8, max_iters=400, rng=np.random.default_rng(1))
    oracle = eigen_oracle_2spin(h, [0.99])
    assert abs(res.energy_per_spin - oracle) / abs(oracle) <= 1e-6
    assert res.converged_fraction == 1.0


def test_eigen_oracle_is_linear_in_q():
    lay = SpeciesLayout(("s",), (24,))
    h = build_instance(PURE_2SPIN, lay, seed=7)
    v1 = eigen_oracle_2spin(h, [0.9])
    v2 = eigen_oracle_2spin(h, [0.45])
    assert v2 == pytest.approx(0.5 * v1, rel=1e-12)


def test_eigen_oracle_rejects_other_shapes():
    lay = SpeciesLayout(("a", "b"), (4, 4))
    for terms in ({(2, 0): 0.5, (0, 2): 0.5}, {(3, 0): 0.5}):
        h = build_instance(Mixture.from_terms(terms), lay, seed=1)
        with pytest.raises(ValueError):
            eigen_oracle_2spin(h, [0.5, 0.5])


def test_bilinear_eigen_oracle_matches_ascent():
    # sqrt(N) x_a^T B x_b on ||x_a||^2 = N_a q_a, ||x_b||^2 = N_b q_b peaks at
    # sqrt(N) sigma_max(B) sqrt(N_a q_a N_b q_b): criterion 10's 8+8 model,
    # with a third species outside the term
    for lay, term in ((SpeciesLayout(("a", "b"), (8, 8)), (1, 1)),
                      (SpeciesLayout(("a", "b", "c"), (5, 3, 4)), (1, 0, 1))):
        xi = Mixture.from_terms({term: 1.0})
        q = [0.3, 0.5, 0.7][:lay.n_species]
        for seed in range(3):
            h = build_instance(xi, lay, seed=seed)
            # the benchmark gate's 2000 iterations: 300 leave a slow restart
            # short of the maximum on some instances
            res = ascend(h, q, 6, 2000, np.random.default_rng(seed))
            oracle = eigen_oracle_2spin(h, q)
            assert res.converged_fraction == 1.0
            assert res.energy_per_spin == pytest.approx(oracle, rel=1e-9)
            assert oracle > 0.0


def test_bilinear_eigen_oracle_is_zero_on_an_empty_block():
    lay = SpeciesLayout(("a", "b"), (4, 6))
    h = build_instance(Mixture.from_terms({(1, 1): 1.0}), lay, seed=2)
    for q in ([0.0, 0.5], [0.5, 0.0], [0.0, 0.0]):
        assert eigen_oracle_2spin(h, q) == 0.0
        assert ascend(h, q, 2, 20, np.random.default_rng(0)).energy_per_spin == 0.0


CORNER_6 = Mixture.from_terms({(1, 1, 0, 0, 0, 0): 0.8, (0, 1, 1, 0, 0, 0): 0.6,
                               (0, 0, 1, 1, 0, 0): 0.7, (0, 0, 0, 1, 1, 0): 0.5,
                               (0, 0, 0, 0, 1, 1): 0.9, (1, 0, 1, 0, 1, 0): 0.3,
                               (2, 0, 0, 0, 0, 1): 0.4})


def test_corner_shell_is_enumerated():
    # single-coordinate blocks have no tangent directions: the shell is the
    # 64 sign patterns scaled by sqrt(q), and every instance gets the exact
    # maximum, whatever its group and without drawing from its generator
    lay = SpeciesLayout(tuple("abcdef"), (1,) * 6)
    q = [0.5, 0.2, 0.0, 0.7, 0.4, 0.9]
    hs = [build_instance(CORNER_6, lay, seed=seed) for seed in range(4)]
    rngs = [np.random.default_rng(seed) for seed in range(4)]
    states = [rng.bit_generator.state for rng in rngs]
    patterns = sign_patterns(6) * np.sqrt(q)
    for h, res in zip(hs, ascend_many(hs, q, 2, 50, rngs)):
        values = energy_many(h, patterns)
        assert res.energy_per_spin == values.max() / 6
        assert energy(h, res.maximizer) == pytest.approx(values.max(), rel=1e-12)
        assert res.restarts == 2 and res.iteration_counts == (0, 0)
        assert res.converged_fraction == 1.0 and res.best_restart == 0
        alone = ascend(h, q, 2, 50, np.random.default_rng(9))
        assert alone.energy_per_spin == res.energy_per_spin
        assert np.array_equal(alone.maximizer.coords, res.maximizer.coords)
    assert [rng.bit_generator.state for rng in rngs] == states
    # each restart still reports its iteration count, so restarts stay bounded
    with pytest.raises(ValueError, match="budget"):
        ascend(hs[0], q, 10**9, 50, np.random.default_rng(0))


def test_corner_shell_over_pattern_budget_refused():
    # 2^24 sign patterns of 24 coordinates would hold 4e8 entries; the refusal
    # comes before the patterns are built
    lay = SpeciesLayout(tuple(f"s{k}" for k in range(24)), (1,) * 24)
    h = build_instance(Mixture.from_terms({(1, 1) + (0,) * 22: 1.0}), lay, seed=0)
    with pytest.raises(ValueError, match="budget"):
        ascend(h, [0.5] * 24, 2, 10, np.random.default_rng(0))


def _shell_scale_by_root_ratio(coords, layout, q):
    """geometry._to_shell with its scale written as sqrt(q) / sqrt(r)."""
    r = species_overlaps(coords, coords, layout)
    scale = np.sqrt(q) / np.sqrt(np.where(q > 0.0, r, 1.0))
    return coords * np.repeat(scale, layout.sizes, axis=-1) + 0.0


def test_roundoff_in_the_shell_scale_does_not_decide_convergence(monkeypatch):
    # the 6+6 ground-state config of tools/compare_cli_outputs.py: writing
    # the shell scale another way changes only roundoff, so it must leave the
    # converged fractions alone and move each stop by at most one iteration
    xi = Mixture.from_terms({(2, 1): 1.0, (1, 2): 1.0, (1, 1): 1.0})
    lay = SpeciesLayout(("a", "b"), (6, 6))
    hs = [build_instance(xi, lay, seed=derive_seed(8501, "ground-state", "instance", i))
          for i in range(3)]

    def run():
        return ascend_many(hs, [0.5, 0.5], 4, 200, [
            np.random.default_rng(derive_seed(8501, "ground-state", "mc", i))
            for i in range(3)])
    base = run()
    monkeypatch.setattr(ground_state, "_to_shell", _shell_scale_by_root_ratio)
    for a, b in zip(base, run()):
        assert a.converged_fraction == b.converged_fraction == 1.0
        assert max(abs(x - y) for x, y in zip(a.iteration_counts, b.iteration_counts)) <= 1
        assert a.energy_per_spin == pytest.approx(b.energy_per_spin, rel=1e-12)


def test_eigen_oracle_large_n_drift_levels_off():
    # per-spin quadratic optimum approaches its size limit from below,
    # with shrinking increments (edge fluctuations decay with N)
    means = []
    for n in (64, 128, 256):
        lay = SpeciesLayout(("s",), (n,))
        vals = [eigen_oracle_2spin(build_instance(PURE_2SPIN, lay, seed=s), [0.999])
                for s in range(5)]
        means.append(float(np.mean(vals)))
    assert means[0] < means[1] < means[2]
    assert means[2] - means[1] < means[1] - means[0]


def test_ascent_beats_random_shell_cloud():
    lay = SpeciesLayout(("a", "b"), (6, 10))
    xi = Mixture.from_terms({(2, 0): 0.4, (1, 1): 0.6, (0, 3): 0.3})
    h = build_instance(xi, lay, seed=3)
    res = ascend(h, [0.5, 0.8], restarts=16, max_iters=300, rng=np.random.default_rng(2))
    rng = np.random.default_rng(99)
    pts = np.array([sample_on_shell(lay, [0.5, 0.8], rng).coords for _ in range(10**4)])
    assert res.energy_per_spin >= energy_many(h, pts).max() / 16


def test_ascend_deterministic():
    lay = SpeciesLayout(("s",), (16,))
    h = build_instance(PURE_2SPIN, lay, seed=5)
    a = ascend(h, [0.5], 4, 100, np.random.default_rng(11))
    b = ascend(h, [0.5], 4, 100, np.random.default_rng(11))
    np.testing.assert_array_equal(a.maximizer.coords, b.maximizer.coords)
    assert a.energy_per_spin == b.energy_per_spin
    assert a.iteration_counts == b.iteration_counts


def test_ascend_validation():
    lay = SpeciesLayout(("s",), (8,))
    h = build_instance(PURE_2SPIN, lay, seed=5)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ascend(h, [0.5], 0, 10, rng)
    with pytest.raises(ValueError):
        ascend(h, [1.0], 2, 10, rng)  # shell parameter must stay below 1


def test_probe_zero_hamiltonian_has_zero_variance():
    rep = gs_concentration_probe(Mixture.from_terms({}, n_species=1),
                                 SpeciesLayout(("s",), (8,)), [0.5], seeds=20,
                                 scale_factors=(1, 2), restarts=1, max_iters=5)
    assert rep["variances"] == [0.0, 0.0]
    assert rep["sizes"] == [8, 16]


def test_probe_scaled_variance_stays_in_band():
    rep = gs_concentration_probe(PURE_2SPIN, SpeciesLayout(("s",), (16,)), [0.6],
                                 seeds=20, scale_factors=(1, 2, 4),
                                 restarts=2, max_iters=250)
    nv = rep["n_times_variance"]
    assert rep["sizes"] == [16, 32, 64]
    assert max(nv) <= 10 * min(nv)


def test_probe_requires_enough_seeds():
    with pytest.raises(ValueError):
        gs_concentration_probe(PURE_2SPIN, SpeciesLayout(("s",), (8,)), [0.5], seeds=5)


def test_probe_shared_harness_on_free_energy():
    lay = SpeciesLayout(("a", "b"), (1, 1))
    xi = Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.3})

    def fe_stat(h, q, rng):
        return exact_fe_quadrature(h, 16).value

    rep = gs_concentration_probe(xi, lay, [0.5, 0.5], seeds=20,
                                 scale_factors=(1, 2, 3), statistic=fe_stat)
    assert rep["sizes"] == [2, 4, 6]
    assert all(v >= 0.0 for v in rep["variances"])
    assert all(np.isfinite(rep["n_times_variance"]))


@pytest.mark.parametrize("sizes", [(5, 6), (1, 1)])
def test_ascend_many_takes_one_overlap_per_instance(sizes):
    # one row of q per instance gives each instance its own ascent at its own
    # overlap, bit for bit; a zero q_s and the enumerated shell included
    lay = SpeciesLayout(("a", "b"), sizes)
    mix = Mixture.from_terms({(1, 1): 1.0, (2, 0): 0.5})
    hs = [build_instance(mix, lay, seed=20 + k) for k in range(3)]
    qs = [[0.3, 0.4], [0.6, 0.0], [0.2, 0.9]]
    grouped = ascend_many(hs, qs, 4, 60, [np.random.default_rng(40 + k) for k in range(3)])
    for k, (h, q, res) in enumerate(zip(hs, qs, grouped)):
        _assert_same_ascent(res, ascend(h, q, 4, 60, np.random.default_rng(40 + k)))
    with pytest.raises(ValueError, match="one overlap per instance"):
        ascend_many(hs, qs[:2], 4, 60, [np.random.default_rng(40 + k) for k in range(3)])
