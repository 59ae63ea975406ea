"""Acceptance gate: one check per release criterion, with pinned tolerances.

Each test prints a single ``criterion NN: PASS/FAIL`` line (visible under
``pytest -s``) and then asserts it.  Every random input is fixed, so each
line's outcome is reproducible bit-for-bit.
"""

import json
import math

import numpy as np
import pytest

from multispin.cli import main
from multispin.geometry import BandSpec, log_band_volume, sample_on_shell, sample_uniform
from multispin.ground_state import ascend, eigen_oracle_2spin
from multispin.hamiltonian import build_instance, energy, energy_many, gradient, realize_on_points
from multispin.mixture import (
    Mixture,
    SpeciesLayout,
    eval_mixture,
    grad_mixture,
    nesting_compose,
    random_mixture,
    shifted_coefficients,
    xi_q,
)
from multispin.tap import EstimatorConfig, onsager_check, tap_evaluate, tap_inequality_scan
from multispin.thermo import (
    exact_fe_enumeration,
    exact_fe_quadrature,
    exact_multi_replica_fe_enumeration,
    exact_penalty_enumeration,
    exact_restricted_fe_enumeration,
    fe_thermo_integration,
    multi_replica_fe,
    restricted_fe,
)
from multispin.geometry import Configuration


def report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_mixture_identities():
    rng = np.random.default_rng(101)
    worst_shift = worst_reduced = worst_nest = 0.0
    for _ in range(200):
        n_species = int(rng.integers(1, 4))
        xi = random_mixture(rng, n_species)
        q = rng.uniform(0.0, 0.95, n_species)
        x = rng.uniform(-1.0, 1.0, n_species)
        direct = eval_mixture(xi, q + (1.0 - q) * x) - eval_mixture(xi, q)
        worst_shift = max(worst_shift,
                          abs(eval_mixture(shifted_coefficients(xi, q), x) - direct))
        linear = float(((1.0 - q) * grad_mixture(xi, q)) @ x)
        worst_reduced = max(worst_reduced,
                            abs(eval_mixture(xi_q(xi, q), x) - (direct - linear)))
        qp = rng.uniform(0.0, 0.95, n_species)
        nested = xi_q(xi_q(xi, q), qp)
        flat = xi_q(xi, nesting_compose(q, qp))
        keys = {p for p, _ in nested.terms} | {p for p, _ in flat.terms}
        worst_nest = max(worst_nest,
                         max((abs(nested.coefficient(p) - flat.coefficient(p))
                              for p in keys), default=0.0))
    ok = worst_shift <= 1e-10 and worst_reduced <= 1e-10 and worst_nest <= 1e-10
    report(1, "recentered-mixture closed forms and nesting, 200 random cases", ok,
           f"max deviations {worst_shift:.2e}/{worst_reduced:.2e}/{worst_nest:.2e}")


def test_criterion_02_covariance_tensor_backend():
    layout = SpeciesLayout(("a", "b"), (4, 4))
    xi = Mixture.from_terms({(1, 1): 0.5, (2, 0): 0.3, (2, 1): 0.2})
    rng = np.random.default_rng(2024)
    pairs = [(sample_uniform(layout, rng), sample_uniform(layout, rng))
             for _ in range(5)]
    pts = np.array([c.coords for pair in pairs for c in pair])
    n_inst = 20000
    prods = np.empty((n_inst, 5))
    for i in range(n_inst):
        e = energy_many(build_instance(xi, layout, seed=i), pts)
        prods[i] = e[0::2] * e[1::2] / layout.n
    worst = 0.0
    for j, (a, b) in enumerate(pairs):
        target = eval_mixture(xi, np.array([
            float(a.coords[sl] @ b.coords[sl]) / layout.sizes[s]
            for s, sl in enumerate(layout.slices)]))
        se = prods[:, j].std(ddof=1) / math.sqrt(n_inst)
        worst = max(worst, abs(prods[:, j].mean() - target) / se)
    report(2, "empirical energy covariance matches the mixture at 5 point pairs",
           worst <= 3.0, f"worst deviation {worst:.2f} SE over 20000 instances")


def test_criterion_03_backend_equivalence():
    layout = SpeciesLayout(("a", "b"), (3, 3))
    xi = Mixture.from_terms({(1, 1): 0.6, (2, 0): 0.4})
    rng = np.random.default_rng(7)
    points = [sample_uniform(layout, rng) for _ in range(4)]
    pts = np.array([p.coords for p in points])
    k = 20000
    tens = np.array([energy_many(build_instance(xi, layout, seed=i), pts)
                     for i in range(k)])
    cov = np.array([realize_on_points(xi, layout, points, seed=100000 + i)
                    for i in range(k)])
    worst = 0.0
    for i in range(4):
        for j in range(i, 4):
            pt = tens[:, i] * tens[:, j] / layout.n
            pc = cov[:, i] * cov[:, j] / layout.n
            se = math.hypot(pt.std(ddof=1) / math.sqrt(k),
                            pc.std(ddof=1) / math.sqrt(k))
            worst = max(worst, abs(pt.mean() - pc.mean()) / se)
    report(3, "tensor and covariance backends agree on 4-point covariances",
           worst <= 3.0, f"worst entry deviation {worst:.2f} combined SE")


def test_criterion_04_gradient_finite_differences():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        n_species = int(rng.integers(1, 3))
        sizes = tuple(int(d) for d in rng.integers(2, 5, n_species))
        layout = SpeciesLayout(tuple(f"s{i}" for i in range(n_species)), sizes)
        xi = random_mixture(rng, n_species, n_terms=3)
        h = build_instance(xi, layout, seed=int(rng.integers(2**32)))
        sigma = sample_uniform(layout, rng)
        g = gradient(h, sigma)
        eps = 1e-5
        for idx in rng.choice(layout.n, size=min(3, layout.n), replace=False):
            up = np.array(sigma.coords)
            dn = np.array(sigma.coords)
            up[idx] += eps
            dn[idx] -= eps
            fd = (energy(h, Configuration(up, layout))
                  - energy(h, Configuration(dn, layout))) / (2 * eps)
            worst = max(worst, abs(g[idx] - fd) / max(1.0, abs(fd)))
    report(4, "analytic gradient matches central differences, 50 random models",
           worst <= 1e-6, f"worst relative error {worst:.2e}")


def test_criterion_05_free_energy_oracle_equivalence():
    grid = np.linspace(0.0, 1.0, 11)
    corner = SpeciesLayout(("a", "b"), (1, 1))
    corner_xi = Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.3})
    worst_enum = 0.0
    for i in range(20):
        h = build_instance(corner_xi, corner, seed=100 + i)
        exact = exact_fe_enumeration(h).value
        ti = fe_thermo_integration(h, grid, 500, np.random.default_rng(1000 + i))
        worst_enum = max(worst_enum, abs(ti.value - exact) / ti.std_error)
    quad_layout = SpeciesLayout(("a", "b"), (2, 2))
    quad_xi = Mixture.from_terms({(1, 1): 0.5, (2, 0): 0.4})
    worst_quad = 0.0
    for i in range(20):
        h = build_instance(quad_xi, quad_layout, seed=300 + i)
        exact = exact_fe_quadrature(h, 24).value
        ti = fe_thermo_integration(h, grid, 800, np.random.default_rng(4000 + i))
        worst_quad = max(worst_quad, abs(ti.value - exact) / ti.std_error)
    ok = worst_enum <= 3.0 and worst_quad <= 3.0
    report(5, "thermodynamic integration matches enumeration and quadrature, 20 seeds each",
           ok, f"worst {worst_enum:.2f} SE (enumeration), {worst_quad:.2f} SE (quadrature)")


def test_criterion_06_jensen_bound():
    cases = [
        ("x^2", SpeciesLayout(("s",), (16,)), Mixture.from_terms({(2,): 1.0})),
        ("x_a*x_b", SpeciesLayout(("a", "b"), (8, 8)), Mixture.from_terms({(1, 1): 1.0})),
        ("x_a^2*x_b", SpeciesLayout(("a", "b"), (8, 8)), Mixture.from_terms({(2, 1): 1.0})),
    ]
    grid = np.linspace(0.0, 1.0, 11)
    min_slack = math.inf
    for _, layout, xi in cases:
        bound = 0.5 * eval_mixture(xi, np.ones(layout.n_species))
        prefixes = []
        for i in range(6):
            h = build_instance(xi, layout, seed=1500 + i)
            est = fe_thermo_integration(h, grid, 500, np.random.default_rng(1600 + i))
            means = np.asarray(est.meta["node_means"])
            prefixes.append(np.concatenate(
                [[0.0], np.cumsum((means[1:] + means[:-1]) / 2 * np.diff(grid))]))
        prefixes = np.array(prefixes)
        f_mean = prefixes.mean(axis=0)
        f_se = prefixes.std(axis=0, ddof=1) / math.sqrt(len(prefixes))
        min_slack = min(min_slack, float(np.min(bound + 3 * f_se - f_mean)))
    report(6, "seed-averaged free energy respects the annealed bound at every beta",
           min_slack >= 0.0, f"min slack {min_slack:.4f} across 3 mixtures")


def test_criterion_07_penalty_identity_and_chain():
    corner = SpeciesLayout(("a", "b"), (1, 1))
    corner_xi = Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.3})
    worst_exact = 0.0
    for n in (2, 3):
        h = build_instance(corner_xi, corner, seed=77 + n)
        m = Configuration(np.array([0.5, -0.4]), corner)
        spec = BandSpec(m, delta=0.9, n=n, rho=1.3)
        joint = exact_multi_replica_fe_enumeration(h, spec).value
        single = exact_restricted_fe_enumeration(h, m, 0.9).value
        worst_exact = max(worst_exact,
                          abs(joint - single - exact_penalty_enumeration(h, spec)))
    layout = SpeciesLayout(("a", "b"), (8, 8))
    xi = Mixture.from_terms({(1, 1): 0.7, (2, 0): 0.4})
    grid = np.linspace(0.0, 1.0, 11)
    chain_ok = True
    details = []
    for k in range(3):
        h = build_instance(xi, layout, seed=600 + k)
        m = sample_on_shell(layout, [0.3, 0.3], np.random.default_rng(700 + k))
        spec = BandSpec(m, delta=0.15, n=2, rho=0.15)
        full = fe_thermo_integration(h, grid, 600, np.random.default_rng(800 + k))
        single = restricted_fe(h, m, 0.15, grid, 600, np.random.default_rng(900 + k))
        joint = multi_replica_fe(h, spec, grid, 600, np.random.default_rng(1000 + k))
        s1 = joint.value - single.value
        s2 = single.value - full.value
        chain_ok &= s1 <= 3 * (joint.std_error + single.std_error)
        chain_ok &= s2 <= 3 * (single.std_error + full.std_error)
        details.append(f"{s1:+.3f}/{s2:+.3f}")
    ok = worst_exact <= 1e-10 and chain_ok
    report(7, "penalty identity exact at corner scale; restriction chain ordered at N=16",
           ok, f"exact gap {worst_exact:.2e}; chain slacks {', '.join(details)}")


def test_criterion_08_ground_state_eigen_oracle():
    layout = SpeciesLayout(("s",), (32,))
    xi = Mixture.from_terms({(2,): 1.0})
    worst = 0.0
    for i in range(20):
        h = build_instance(xi, layout, seed=2000 + i)
        res = ascend(h, [0.9], 8, 400, np.random.default_rng(2100 + i))
        oracle = eigen_oracle_2spin(h, [0.9])
        worst = max(worst, abs(res.energy_per_spin - oracle) / abs(oracle))
    report(8, "shell ascent matches the dense eigensolve oracle, 20 seeds",
           worst <= 1e-6, f"worst relative error {worst:.2e}")


def test_criterion_09_tap_consistency_at_zero_overlap():
    corner = SpeciesLayout(("a", "b"), (1, 1))
    corner_xi = Mixture.from_terms({(1, 1): 0.8, (2, 0): 0.3})
    rep_corner = tap_evaluate(corner_xi, corner, [0.0, 0.0],
                              EstimatorConfig(seeds=20, master_seed=7))
    tol_corner = 3 * rep_corner.gap_std_error + 0.02
    layout = SpeciesLayout(("s",), (16,))
    xi = Mixture.from_terms({(2,): 0.5, (3,): 0.3})
    cfg = EstimatorConfig(beta_grid=tuple(np.linspace(0, 1, 11)), sweeps=500,
                          seeds=12, restarts=4, max_iters=200, master_seed=5)
    rep_n16 = tap_evaluate(xi, layout, [0.0], cfg)
    tol_n16 = 3 * rep_n16.gap_std_error + 0.02
    ok = abs(rep_corner.gap) <= tol_corner and abs(rep_n16.gap) <= tol_n16
    report(9, "free-energy decomposition closes at q=0 (corner scale and N=16)", ok,
           f"|gap| {abs(rep_corner.gap):.3f}<={tol_corner:.3f}, "
           f"{abs(rep_n16.gap):.3f}<={tol_n16:.3f}")


def test_criterion_10_tap_inequality_scan():
    layout = SpeciesLayout(("a", "b"), (8, 8))
    xi = Mixture.from_terms({(1, 1): 1.0})
    cfg = EstimatorConfig(beta_grid=tuple(np.linspace(0, 1, 11)), sweeps=400,
                          seeds=6, restarts=6, max_iters=200, master_seed=13)
    values = (0.0, 0.2, 0.4, 0.6, 0.8)
    grid = [(qa, qb) for qa in values for qb in values]
    reports = tap_inequality_scan(xi, layout, grid, cfg)
    min_margin = min(r.gap + 3 * r.gap_std_error for r in reports)
    violations = sum("tap-inequality-violated" in r.flags for r in reports)
    ok = min_margin >= 0.0 and violations == 0
    report(10, "decomposition inequality holds across a 5x5 overlap grid at N=16",
           ok, f"min gap+3SE {min_margin:+.4f}, {violations} flagged violations")


def test_criterion_11_onsager_weak_disorder():
    layout = SpeciesLayout(("s",), (16,))
    cfg = EstimatorConfig(beta_grid=tuple(np.linspace(0, 1, 11)), sweeps=500,
                          seeds=12, restarts=4, max_iters=200, master_seed=21)
    diffs = []
    all_within = True
    for eps in (0.2, 0.1, 0.05):
        out = onsager_check(Mixture.from_terms({(2,): eps}), layout, [0.0], cfg)
        diffs.append(abs(out["difference"]))
        all_within &= bool(out["within_3se"])
    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))
    ok = decreasing and all_within
    report(11, "recentered free energy approaches its quadratic value as disorder weakens",
           ok, "|diff| " + " > ".join(f"{d:.4f}" for d in diffs))


def test_criterion_12_log_volume_convergence():
    # Fixed-width bands converge to the measure of the widened shell, which
    # sits above the zero-width entropy (1/2)log(1-q); with delta pinned at
    # 0.01 the error sequence bottoms out near N=200 and grows again, so the
    # literal convergence claim fails and is reported red here.
    target = 0.5 * math.log(0.5)
    errors = []
    for n in (50, 100, 200, 400):
        layout = SpeciesLayout(("s",), (n,))
        errors.append(abs(log_band_volume(layout, [0.5], 0.01) - target))
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    ok = decreasing and errors[-1] < 0.01
    report(12, "fixed-width band volume converges to the zero-width entropy", ok,
           "|error| " + ", ".join(f"{e:.4f}" for e in errors))


def test_fixed_width_band_volume_converges_to_the_widened_shell():
    # the positive counterpart of criterion 12: at fixed delta the band
    # measure tends to the widened-shell entropy (1/2) log(1 - (q-delta)^2/q),
    # set by the band edge nearest the equator
    q, delta = 0.5, 0.01
    target = 0.5 * math.log(1.0 - (q - delta) ** 2 / q)
    errors = [abs(log_band_volume(SpeciesLayout(("s",), (n,)), [q], delta) - target)
              for n in (50, 100, 200, 400, 800, 1600)]
    assert all(b < a for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] < 0.003, errors


def test_criterion_13_determinism_across_workers(tmp_path):
    doc = {
        "master_seed": 11,
        "model": {
            "species": ["a", "b"],
            "sizes": [1, 1],
            "terms": [{"p": [1, 1], "delta_sq": 0.8},
                      {"p": [2, 0], "delta_sq": 0.3}],
        },
        "free_energy": {"seeds": 4},
        "ground_state": {"q": [0.4, 0.6], "seeds": 4},
        "tap_scan": {"q_grid": [[0.0, 0.0], [0.3, 0.3]], "seeds": 4},
        "multisamp": {"q": [0.0, 0.0], "eps_grid": [0.6], "sweeps": 150, "seeds": 2},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    commands = ("verify", "free-energy", "ground-state", "tap-scan", "multisamp")
    mismatched = []
    for command in commands:
        outputs = []
        for workers in ("1", "4"):
            out = tmp_path / f"{command}-w{workers}"
            code = main([command, "--config", str(config), "--out", str(out),
                         "--workers", workers])
            assert code == 0, f"{command} exited {code}"
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        if outputs[0] != outputs[1]:
            mismatched.append(command)
    report(13, "every command is byte-identical across worker counts",
           not mismatched, f"commands checked: {', '.join(commands)}")
