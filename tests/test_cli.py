"""Config parsing, verification suite, and batch-command behavior."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multispin.cli import (
    _SECTIONS,
    ConfigError,
    _estimator_config,
    _write_json,
    dump_config,
    main,
    parse_config,
    run_verification_suite,
)
from multispin.geometry import sign_patterns
from multispin.hamiltonian import build_instance, energy_many
from multispin.mixture import Mixture, SpeciesLayout
from multispin.seeding import derive_seed


def corner_doc(**overrides):
    doc = {
        "schema": 1,
        "master_seed": 11,
        "model": {
            "species": ["a", "b"],
            "sizes": [1, 1],
            "terms": [
                {"p": [1, 1], "delta_sq": 0.8},
                {"p": [2, 0], "delta_sq": 0.3},
            ],
        },
        "free_energy": {"seeds": 5},
        "ground_state": {"q": [0.4, 0.6], "seeds": 5},
        "tap_scan": {"q_grid": [[0.0, 0.0], [0.3, 0.3]], "seeds": 5},
        "multisamp": {"q": [0.0, 0.0], "eps_grid": [0.6], "sweeps": 150, "seeds": 2},
    }
    doc.update(overrides)
    return doc


# every section field, plus the top-level and model fields a config may change
MUTABLE_FIELDS = [(section, name) for section, (fields, _) in _SECTIONS.items()
                  for name in fields] + [(None, "master_seed"), (None, "out_dir"),
                                         ("model", "sizes")]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**64) | st.floats()
    | st.sampled_from(["", "x", "auto", "enumeration", "quadrature", "ti"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.floats(0.0, 0.99), min_size=2, max_size=2),
    max_leaves=6) | st.integers(1, 40) | st.lists(st.integers(1, 5), min_size=2, max_size=2)


# ground_state field values, bounded so that every run they allow stays
# small; each field is valid about half of the time
SMALL_NUMBERS = st.integers(-2, 6) | st.floats(-1.0, 1.5)
SHELL_Q = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=2)
GROUND_STATE_FIELDS = {
    "q": SHELL_Q | st.lists(SMALL_NUMBERS, max_size=3),
    **{name: st.integers(1, 6) | SMALL_NUMBERS for name in ("restarts", "max_iters", "seeds")},
}

# the remaining sections' field values are bounded the same way: at most
# 3 overlaps, 4 betas, 3 eps values, 4 replicas, 6 sweeps, 6 quadrature
# nodes, 6 seeds and 6 ascent iterations per restart; each field is valid
# three times in four, so most runs get past the parser and reach the
# estimators
def mostly(valid, invalid=SMALL_NUMBERS):
    return st.sampled_from([valid, valid, valid, invalid]).flatmap(lambda strategy: strategy)


ANY_BETAS = (st.lists(st.floats(-0.5, 1.5), max_size=4)
             | st.sampled_from([[0.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.5]]) | SMALL_NUMBERS)
ASCENDING_BETAS = st.lists(st.floats(0.01, 1.5), min_size=1, max_size=3,
                           unique=True).map(lambda b: [0.0] + sorted(b))
# thermodynamic integration in tap_scan takes gs at beta 1, so its grid ends there
BETAS_TO_ONE = st.lists(st.floats(0.01, 0.99), max_size=2,
                        unique=True).map(lambda b: [0.0] + sorted(b) + [1.0])
TAP_SCAN_FIELDS = {
    "q_grid": mostly(st.lists(SHELL_Q, min_size=1, max_size=3),
                     st.lists(GROUND_STATE_FIELDS["q"], max_size=3) | SMALL_NUMBERS),
    "method": mostly(st.sampled_from(["auto", "enumeration", "quadrature", "ti"]),
                     st.just("x") | SMALL_NUMBERS),
    "beta_grid": mostly(BETAS_TO_ONE, ANY_BETAS),
    "quadrature_nodes": mostly(st.integers(2, 6)),
    "seeds": mostly(st.integers(2, 6)),
    **{name: mostly(st.integers(1, 6)) for name in ("sweeps", "restarts", "max_iters")},
    "gs_bias_allowance": mostly(st.floats(0.0, 1.0)),
}
FREE_ENERGY_FIELDS = {
    "method": mostly(st.sampled_from(["auto", "enumeration", "quadrature", "ti"]),
                     st.just("x") | SMALL_NUMBERS),
    "beta_grid": mostly(ASCENDING_BETAS, ANY_BETAS),
    **{name: mostly(st.integers(1, 6)) for name in ("sweeps", "quadrature_nodes", "seeds")},
}
MULTISAMP_FIELDS = {
    "q": mostly(SHELL_Q, st.lists(SMALL_NUMBERS, max_size=3) | SMALL_NUMBERS),
    "n": mostly(st.integers(2, 4)),
    "eps_grid": mostly(st.lists(st.floats(0.01, 2.5), min_size=1, max_size=3),
                       st.lists(SMALL_NUMBERS, max_size=3) | SMALL_NUMBERS),
    "beta_grid": mostly(ASCENDING_BETAS),
    **{name: mostly(st.integers(1, 6)) for name in ("sweeps", "seeds")},
}


@st.composite
def small_models(draw):
    """Model sections for verify: 1-3 species of 1-4 coordinates and up to
    three terms of total degree at most 3 (an empty mixture included)."""
    k = draw(st.integers(1, 3))
    degrees = st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(
        lambda p: 1 <= sum(p) <= 3)
    terms = draw(st.lists(st.tuples(degrees, st.floats(0.05, 2.0)), max_size=3,
                          unique_by=lambda term: tuple(term[0])))
    return {"species": [f"s{i}" for i in range(k)],
            "sizes": draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)),
            "terms": [{"p": p, "delta_sq": c} for p, c in terms]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestConfigParsing:
    def test_round_trip_identity(self):
        cfg = parse_config(json.dumps(corner_doc()))
        text = dump_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert dump_config(again) == text

    def test_defaults_are_materialized_per_species(self):
        doc = {
            "model": {
                "species": ["x", "y", "z"],
                "sizes": [2, 2, 2],
                "terms": [{"p": [1, 1, 0], "delta_sq": 1.0}],
            }
        }
        cfg = parse_config(json.dumps(doc))
        assert cfg.master_seed == 0
        assert cfg.ground_state.q == (0.3, 0.3, 0.3)
        assert cfg.multisamp.q == (0.0, 0.0, 0.0)
        assert all(len(point) == 3 for point in cfg.tap_scan.q_grid)
        assert cfg.free_energy.beta_grid[0] == 0.0
        # every default is spelled out in the serialized form
        doc2 = json.loads(dump_config(cfg))
        assert doc2["ground_state"]["q"] == [0.3, 0.3, 0.3]
        assert doc2["free_energy"]["sweeps"] == 800

    @pytest.mark.parametrize(
        "mangle, path_fragment",
        [
            (lambda d: d.pop("model"), "model"),
            (lambda d: d["model"].pop("sizes"), "model.sizes"),
            (lambda d: d["model"].__setitem__("sizes", [1]), "model.sizes"),
            (lambda d: d["model"]["sizes"].__setitem__(1, 0), "model.sizes[1]"),
            (lambda d: d["model"]["species"].__setitem__(1, "a"), "model.species"),
            (lambda d: d["model"]["terms"][0].__setitem__("delta_sq", -1.0),
             "model.terms[0].delta_sq"),
            (lambda d: d["model"]["terms"][1].__setitem__("p", [1, 1]),
             "model.terms[1].p"),
            (lambda d: d["free_energy"].__setitem__("sweeps", 0),
             "free_energy.sweeps"),
            (lambda d: d["free_energy"].__setitem__("quadrature_nodes", 1),
             "free_energy.quadrature_nodes"),
            (lambda d: d["free_energy"].__setitem__("beta_grid", [0.5, 1.0]),
             "free_energy.beta_grid[0]"),
            (lambda d: d["free_energy"].__setitem__("beta_grid", [0.0, 1.0, 1.0]),
             "free_energy.beta_grid"),
            (lambda d: d["tap_scan"].__setitem__("q_grid", [[0.0, 1.5]]),
             "tap_scan.q_grid[0][1]"),
            (lambda d: d["multisamp"].__setitem__("eps_grid", [0.5, -0.1]),
             "multisamp.eps_grid"),
            (lambda d: d["ground_state"].__setitem__("window", 3),
             "ground_state.window"),
            (lambda d: d["model"].__setitem__("proportions", [0.5, 0.5]),
             "model.proportions: unknown field"),
            (lambda d: d["model"]["terms"][0].__setitem__("delta", 0.8),
             "model.terms[0].delta: unknown field"),
            (lambda d: d.__setitem__("extra_section", {}), "extra_section"),
            (lambda d: d.__setitem__("schema", 99), "schema"),
            (lambda d: d.__setitem__("schema", True), "schema: expected an integer"),
            (lambda d: d.__setitem__("schema", 1.0), "schema: expected an integer"),
            (lambda d: d["tap_scan"].update(method="ti", beta_grid=[0.0, 0.5]),
             "tap_scan.beta_grid"),
            (lambda d: d["tap_scan"].__setitem__("seeds", 1), "tap_scan.seeds"),
            (lambda d: d["multisamp"].__setitem__("n", 1), "multisamp.n"),
            (lambda d: (d["model"].__setitem__("sizes", [2, 1]),
                        d["free_energy"].__setitem__("method", "enumeration")),
             "free_energy.method"),
            (lambda d: (d["model"].__setitem__("sizes", [2, 1]),
                        d["tap_scan"].__setitem__("method", "enumeration")),
             "tap_scan.method"),
            (lambda d: (d["model"].__setitem__("sizes", [4, 1]),
                        d["free_energy"].__setitem__("method", "quadrature")),
             "free_energy.method"),
            (lambda d: (d["model"].__setitem__("sizes", [4, 1]),
                        d["tap_scan"].__setitem__("method", "quadrature")),
             "tap_scan.method"),
        ],
    )
    def test_field_path_diagnostics(self, mangle, path_fragment):
        doc = corner_doc()
        mangle(doc)
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert path_fragment in str(err.value)

    def test_free_energy_keeps_any_last_beta(self):
        # free_energy reports the beta it integrates to, so its grid may end
        # below 1; tap_scan may too when its method is not ti
        doc = corner_doc()
        doc["free_energy"].update(method="ti", beta_grid=[0.0, 0.5])
        doc["tap_scan"]["beta_grid"] = [0.0, 0.5]
        cfg = parse_config(json.dumps(doc))
        assert cfg.free_energy.beta_grid[-1] == 0.5
        assert cfg.tap_scan.beta_grid[-1] == 0.5

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(MUTABLE_FIELDS), JSON_VALUES),
                    min_size=1, max_size=3))
    def test_mutated_docs_fail_cleanly_or_round_trip(self, mutations):
        doc = corner_doc()
        for (section, name), value in mutations:
            (doc if section is None else doc.setdefault(section, {}))[name] = value
        try:
            cfg = parse_config(json.dumps(doc))
        except ConfigError:
            return
        text = dump_config(cfg)
        assert dump_config(parse_config(text)) == text
        _estimator_config(cfg.free_energy)
        _estimator_config(cfg.tap_scan, cfg.master_seed)

    def test_invalid_json_reports_document(self):
        with pytest.raises(ConfigError) as err:
            parse_config("{not json")
        assert "<document>" in str(err.value)

    def test_duplicate_term_rejected(self):
        doc = corner_doc()
        doc["model"]["terms"].append({"p": [1, 1], "delta_sq": 0.1})
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(json.dumps(doc))

    def test_recentered_mixture_over_budget_rejected(self):
        # 128^4 = 2^28 entries fit the budget, but recentering at q = 0.3
        # adds lower-degree terms; parsing refuses it without drawing disorder
        doc = {"model": {"species": ["a"], "sizes": [128],
                         "terms": [{"p": [4], "delta_sq": 1.0}]},
               "tap_scan": {"q_grid": [[0.0], [0.3]]}}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == "tap_scan.q_grid[1]"
        assert "budget" in str(err.value)
        doc["tap_scan"]["q_grid"] = [[0.0]]
        assert parse_config(json.dumps(doc)).tap_scan.q_grid == ((0.0,),)

    @pytest.mark.parametrize("sizes, nodes", [([2, 2], 8192), ([1, 3], 5792)])
    def test_quadrature_grid_over_budget_rejected(self, tmp_path, sizes, nodes):
        # auto resolves to quadrature on these blocks, whose grids have
        # nodes^2 and 2 nodes^2 points of 4 coordinates: `nodes` is the largest
        # count within the budget of 2^28 entries, and parsing refuses one
        # more without building the grid
        doc = corner_doc(model={"species": ["a", "b"], "sizes": sizes,
                                "terms": [{"p": [1, 1], "delta_sq": 1.0}]})
        for section in ("free_energy", "tap_scan"):
            bad = json.loads(json.dumps(doc))
            bad[section]["quadrature_nodes"] = nodes
            assert getattr(parse_config(json.dumps(bad)), section).quadrature_nodes == nodes
            bad[section]["quadrature_nodes"] = nodes + 1
            with pytest.raises(ConfigError) as err:
                parse_config(json.dumps(bad))
            assert err.value.path == f"{section}.quadrature_nodes"
            assert "budget" in str(err.value)
            bad[section]["method"] = "ti"
            assert getattr(parse_config(json.dumps(bad)), section).quadrature_nodes == nodes + 1
        doc["free_energy"]["quadrature_nodes"] = 100000
        config = write_config(tmp_path, doc)
        assert main(["free-energy", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2


    def test_sweeps_and_restarts_over_budget_rejected(self, tmp_path):
        # auto sends 4+4 blocks to thermodynamic integration.  A run keeps
        # ceil(2 sweeps / 3) energies on each of its chains and ascends seeds x
        # restarts rows of N = 8 coordinates; with every seed in one group, the
        # largest admissible count fills the budget of 2^28 entries and parsing
        # refuses one more without allocating
        budget = 2**28
        doc = corner_doc(model={"species": ["a", "b"], "sizes": [4, 4],
                                "terms": [{"p": [1, 1], "delta_sq": 1.0}]})
        cases = [("free_energy", "sweeps", 3 * (budget // (5 * 21)) // 2),
                 ("tap_scan", "sweeps", 3 * (budget // (3 * 5 * 21)) // 2),
                 ("multisamp", "sweeps", 3 * (budget // (2 * 21)) // 2),
                 ("ground_state", "restarts", budget // (5 * 8)),
                 ("tap_scan", "restarts", budget // (5 * 8))]
        for section, field, largest in cases:
            bad = json.loads(json.dumps(doc))
            bad[section][field] = largest
            assert getattr(parse_config(json.dumps(bad)), section)._asdict()[field] == largest
            bad[section][field] = largest + 1
            with pytest.raises(ConfigError) as err:
                parse_config(json.dumps(bad))
            assert err.value.path == f"{section}.{field}"
            assert "budget" in str(err.value)
        # the corner model's free energy is enumerated, so no sweep count is too many
        corner = corner_doc()
        corner["free_energy"]["sweeps"] = 10**9
        assert parse_config(json.dumps(corner)).free_energy.sweeps == 10**9
        for command, section, fields in (
                ("free-energy", "free_energy", {"method": "ti", "sweeps": 10**9}),
                ("ground-state", "ground_state", {"restarts": 10**9, "seeds": 2})):
            config = write_config(tmp_path, {**doc, section: fields})
            assert main([command, "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 2

    def test_replica_pairs_over_budget_rejected(self, tmp_path):
        # multisamp overlaps every pair of its n replicas at each state they
        # keep: 30 sweeps keep 20 states of N = 2 coordinates, so n = 3664
        # (6,710,616 pairs) fills the budget of 2^28 entries, and parsing
        # refuses n = 3665 before the command writes anything
        doc = corner_doc()
        doc["multisamp"].update({"n": 3664, "beta_grid": [0, 1], "sweeps": 30, "seeds": 1})
        assert parse_config(json.dumps(doc)).multisamp.n == 3664
        for n in (3665, 20000):
            doc["multisamp"]["n"] = n
            with pytest.raises(ConfigError) as err:
                parse_config(json.dumps(doc))
            assert err.value.path == "multisamp.n"
            assert "budget" in str(err.value)
        out = tmp_path / "out"
        assert main(["multisamp", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_corner_shell_over_pattern_budget_rejected(self, tmp_path, capsys):
        # ground-state enumerates a shell of single-coordinate blocks: 2^23
        # sign patterns of 23 coordinates fit the budget of 2^28 entries and
        # 2^24 of 24 do not, so parsing refuses the model for every command;
        # free_energy's auto method passes over enumeration and quadrature
        def corner(n):
            return {"model": {"species": [f"s{k}" for k in range(n)], "sizes": [1] * n,
                              "terms": [{"p": [1, 1] + [0] * (n - 2), "delta_sq": 1.0}]}}
        assert parse_config(json.dumps(corner(23))).layout.n == 23
        for n in (24, 30):
            with pytest.raises(ConfigError) as err:
                parse_config(json.dumps(corner(n)))
            assert err.value.path == "ground_state"
            assert "budget" in str(err.value)
        config = write_config(tmp_path, corner(30))
        for command in ("free-energy", "ground-state"):
            out = tmp_path / command
            assert main([command, "--config", str(config), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ground_state: ") and "Traceback" not in err
            assert not out.exists()

    def test_replica_snapshots_over_budget_rejected(self, tmp_path, capsys):
        # each of n x len(beta_grid) chains keeps its thinned states: 20 x 21
        # chains keeping 512 states of 2000 coordinates exceed the budget,
        # while the 190 replica pairs fit it
        doc = {"model": {"species": ["a", "b"], "sizes": [1000, 1000],
                         "terms": [{"p": [1, 1], "delta_sq": 1.0}]},
               "multisamp": {"n": 20, "sweeps": 768, "seeds": 1}}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == "multisamp.n"
        assert "kept states" in str(err.value)
        out = tmp_path / "out"
        assert main(["multisamp", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: multisamp.n: ")
        assert not out.exists()

    @pytest.mark.parametrize("section", list(_SECTIONS))
    def test_seeds_over_limit_rejected(self, tmp_path, section):
        # every command builds one instance and one output row per seed;
        # the corner model has no sweep or restart budget that a huge seed
        # count would trip first, so only the seed limit names the field
        doc = corner_doc()
        doc[section]["seeds"] = 10_000
        assert getattr(parse_config(json.dumps(doc)), section).seeds == 10_000
        doc[section]["seeds"] = 10_001
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == f"{section}.seeds"
        doc[section]["seeds"] = 10**9
        config = write_config(tmp_path, doc)
        command = section.replace("_", "-")
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2


class TestVerificationSuite:
    def test_default_config_passes(self):
        cfg = parse_config(json.dumps(corner_doc()))
        report = run_verification_suite(cfg)
        assert report["passed"] is True
        assert report["mutation"] is None
        assert len(report["checks"]) == 15
        assert all(c["passed"] for c in report["checks"])

    def test_empty_mixture_still_passes(self):
        doc = corner_doc()
        doc["model"]["terms"] = []
        cfg = parse_config(json.dumps(doc))
        report = run_verification_suite(cfg)
        assert report["passed"] is True

    def test_mutation_is_detected(self):
        cfg = parse_config(json.dumps(corner_doc()))
        report = run_verification_suite(cfg, mutation="shifted-coefficients")
        assert report["passed"] is False
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == ["mixture-recentering-identity"]

    def test_unknown_mutation_rejected(self):
        cfg = parse_config(json.dumps(corner_doc()))
        with pytest.raises(ConfigError, match="mutation"):
            run_verification_suite(cfg, mutation="nonsense")


class TestCommands:
    def test_verify_exit_codes_and_report(self, tmp_path):
        config = write_config(tmp_path, corner_doc())
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["schema"] == 1
        assert report["passed"] is True
        bad = tmp_path / "bad"
        code = main(["verify", "--config", str(config), "--out", str(bad),
                     "--mutate", "shifted-coefficients"])
        assert code == 1
        report = json.loads((bad / "verify_report.json").read_text())
        assert report["mutation"] == "shifted-coefficients"

    def test_config_error_exit_code(self, tmp_path, capsys):
        doc = corner_doc()
        doc["model"]["sizes"] = [1]
        config = write_config(tmp_path, doc)
        assert main(["free-energy", "--config", str(config)]) == 2
        assert "model.sizes" in capsys.readouterr().err

    def test_undecodable_config_exit_code(self, tmp_path, capsys):
        # a config file that is not UTF-8 is a document error, not a traceback
        config = tmp_path / "config.json"
        config.write_bytes(json.dumps(corner_doc()).encode().replace(b'"a"', b'"\xff"', 1))
        assert main(["free-energy", "--config", str(config)]) == 2
        assert "<document>" in capsys.readouterr().err

    @pytest.mark.parametrize("mangle, path", [
        (lambda model: model.__setitem__("proportions", [0.5, 0.5]), "model.proportions"),
        (lambda model: model["terms"][0].__setitem__("delta", 0.8), "model.terms[0].delta"),
    ])
    def test_unknown_model_key_exit_code(self, tmp_path, capsys, mangle, path):
        doc = corner_doc()
        mangle(doc["model"])
        config = write_config(tmp_path, doc)
        assert main(["free-energy", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"{path}: unknown field" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_model_over_disorder_budget_exit_code(self, tmp_path, capsys):
        # 40^6 block entries exceed the default budget of 2^28: refused at
        # parse time, before any command draws disorder
        doc = {"model": {"species": ["a"], "sizes": [40],
                         "terms": [{"p": [6], "delta_sq": 1.0}]},
               "ground_state": {"q": [0.5], "seeds": 1}}
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["ground-state", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "model: " in err and "budget" in err
        assert not out.exists()

    def test_block_budget_admits_many_species_cross_terms(self, tmp_path, capsys):
        # the budget counts block entries: 40^4 for (1,1,1,1) on 4 x 40 passes,
        # although the 160^4 dense index tuples exceed 2^28; 129^4 blocks do not
        doc = {"model": {"species": ["a", "b", "c", "d"], "sizes": [40] * 4,
                         "terms": [{"p": [1, 1, 1, 1], "delta_sq": 1.0}]},
               "ground_state": {"q": [0.5] * 4, "seeds": 1}}
        assert parse_config(json.dumps(doc)).layout.sizes == (40,) * 4
        doc["model"]["sizes"] = [129] * 4
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["ground-state", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "model: " in err and "block entries" in err and "budget" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mangle, path_fragment",
        [
            (lambda d: d["model"]["terms"][0].__setitem__("delta_sq", math.inf),
             "model.terms[0].delta_sq"),
            (lambda d: d["free_energy"].__setitem__("beta_grid", [0.0, math.nan]),
             "free_energy.beta_grid[1]"),
        ],
    )
    def test_non_finite_number_exit_code(self, tmp_path, capsys, mangle, path_fragment):
        doc = corner_doc()
        mangle(doc)
        config = write_config(tmp_path, doc)  # json writes Infinity / NaN literals
        out = tmp_path / "out"
        assert main(["free-energy", "--config", str(config), "--out", str(out)]) == 2
        assert path_fragment in capsys.readouterr().err
        assert not out.exists()

    def test_json_output_rejects_non_finite_values(self, tmp_path):
        path = tmp_path / "x.json"
        with pytest.raises(ValueError):
            _write_json(path, {"mean": math.nan})
        assert not path.exists()

    def test_free_energy_outputs(self, tmp_path):
        config = write_config(tmp_path, corner_doc())
        out = tmp_path / "out"
        assert main(["free-energy", "--config", str(config), "--out", str(out)]) == 0
        rows = (out / "free_energy.csv").read_text().splitlines()
        assert rows[0] == "seed,value,std_error,method,flags"
        assert len(rows) == 6  # header + one row per seed
        payload = json.loads((out / "free_energy.json").read_text())
        assert payload["estimator"] == "enumeration"
        assert payload["mean"] == pytest.approx(np.mean(payload["values"]))
        assert all(se == 0.0 for se in payload["per_seed_std_errors"])

    def test_ground_state_reports_eigen_oracle(self, tmp_path):
        doc = {
            "master_seed": 4,
            "model": {
                "species": ["s"],
                "sizes": [16],
                "terms": [{"p": [2], "delta_sq": 1.0}],
            },
            "ground_state": {"q": [0.9], "seeds": 4, "restarts": 4,
                             "max_iters": 300},
        }
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["ground-state", "--config", str(config), "--out", str(out)]) == 0
        rows = (out / "ground_state.csv").read_text().splitlines()
        header = rows[0].split(",")
        oracle_col = header.index("eigen_oracle")
        value_col = header.index("energy_per_spin")
        for row in rows[1:]:
            cells = row.split(",")
            assert float(cells[value_col]) == pytest.approx(
                float(cells[oracle_col]), rel=1e-6)
        payload = json.loads((out / "ground_state.json").read_text())
        assert payload["eigen_oracle_mean"] == pytest.approx(payload["mean"],
                                                             rel=1e-6)

    def test_ground_state_enumerates_a_corner_shell(self, tmp_path):
        # six single-coordinate species: the shell holds 64 sign patterns,
        # more than the 2 restarts, and each seed's row is their maximum
        species = list("abcdef")
        terms = {(1, 1, 0, 0, 0, 0): 0.8, (0, 1, 1, 0, 0, 0): 0.6, (0, 0, 1, 1, 0, 0): 0.7,
                 (0, 0, 0, 1, 1, 0): 0.5, (0, 0, 0, 0, 1, 1): 0.9, (1, 0, 0, 0, 0, 1): 0.4,
                 (1, 0, 1, 0, 1, 0): 0.3}
        doc = {"master_seed": 3,
               "model": {"species": species, "sizes": [1] * 6,
                         "terms": [{"p": list(p), "delta_sq": c} for p, c in terms.items()]},
               "ground_state": {"q": [0.5] * 6, "restarts": 2, "seeds": 4}}
        out = tmp_path / "out"
        assert main(["ground-state", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 0
        layout = SpeciesLayout(tuple(species), (1,) * 6)
        patterns = sign_patterns(6) * math.sqrt(0.5)
        rows = (out / "ground_state.csv").read_text().splitlines()[1:]
        for i, row in enumerate(rows):
            h = build_instance(Mixture.from_terms(terms), layout,
                               seed=derive_seed(3, "ground-state", "instance", i))
            seed, value, _, converged, iterations, _ = row.split(",")
            assert float(value) == energy_many(h, patterns).max() / 6
            assert int(seed) == i and float(converged) == 1.0 and float(iterations) == 0.0
        assert len(rows) == 4

    def test_tap_scan_outputs(self, tmp_path):
        config = write_config(tmp_path, corner_doc())
        out = tmp_path / "out"
        assert main(["tap-scan", "--config", str(config), "--out", str(out)]) == 0
        rows = (out / "tap_scan.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert header[:2] == ["q_a", "q_b"]
        assert "gap" in header and "onsager" in header
        assert len(rows) == 3  # header + two grid points
        payload = json.loads((out / "tap_scan.json").read_text())
        assert payload["violations"] == 0
        assert len(payload["reports"]) == 2
        assert payload["candidate"]["q"] in ([0.0, 0.0], [0.3, 0.3])

    def test_multisamp_reports_both_aggregations(self, tmp_path):
        config = write_config(tmp_path, corner_doc())
        out = tmp_path / "out"
        assert main(["multisamp", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads((out / "multisamp.json").read_text())
        entry = payload["per_eps"][0]
        assert {"eps", "mean_of_log", "log_of_mean", "flags"} <= set(entry)
        rows = (out / "multisamp.csv").read_text().splitlines()
        values = [float(r.split(",")[2]) for r in rows[1:]]
        assert entry["mean_of_log"] == pytest.approx(np.mean(values))

    def test_multisamp_vacuous_eps_aggregates_to_zero(self, tmp_path):
        # eps >= 2 admits every tuple: log probability 0 both ways, next to
        # a scored eps from the same sampling pass
        doc = corner_doc()
        doc["multisamp"]["eps_grid"] = [3.0, 0.6]
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["multisamp", "--config", str(config), "--out", str(out)]) == 0
        vacuous, scored = json.loads((out / "multisamp.json").read_text())["per_eps"]
        assert vacuous["mean_of_log"] == 0.0 and vacuous["log_of_mean"] == 0.0
        assert vacuous["flags"] == ["vacuous"]
        rows = [r.split(",") for r in (out / "multisamp.csv").read_text().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [3.0, 3.0, 0.6, 0.6]
        assert all(int(r[4]) > 0 for r in rows[2:])
        assert scored["mean_of_log"] == pytest.approx(np.mean([float(r[2]) for r in rows[2:]]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.fixed_dictionaries({}, optional=GROUND_STATE_FIELDS))
    def test_mutated_ground_state_runs_or_exits_2(self, fields):
        doc = corner_doc()
        doc["ground_state"].update(fields)
        with tempfile.TemporaryDirectory() as tmp:
            config = write_config(Path(tmp), doc)
            code = main(["ground-state", "--config", str(config), "--out", str(Path(tmp) / "out")])
        assert code in (0, 2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.fixed_dictionaries({}, optional=TAP_SCAN_FIELDS))
    def test_mutated_tap_scan_runs_or_exits_with_a_code(self, fields):
        doc = corner_doc()
        doc["tap_scan"].update(fields)
        with tempfile.TemporaryDirectory() as tmp:
            config = write_config(Path(tmp), doc)
            code = main(["tap-scan", "--config", str(config), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.fixed_dictionaries({}, optional=FREE_ENERGY_FIELDS))
    def test_mutated_free_energy_runs_or_exits_with_a_code(self, fields):
        doc = corner_doc()
        doc["free_energy"].update(fields)
        with tempfile.TemporaryDirectory() as tmp:
            config = write_config(Path(tmp), doc)
            code = main(["free-energy", "--config", str(config), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.fixed_dictionaries({}, optional=MULTISAMP_FIELDS))
    def test_mutated_multisamp_runs_or_exits_with_a_code(self, fields):
        doc = corner_doc()
        doc["multisamp"].update(fields)
        with tempfile.TemporaryDirectory() as tmp:
            config = write_config(Path(tmp), doc)
            code = main(["multisamp", "--config", str(config), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mostly(small_models()), mostly(st.integers(0, 2**32)))
    def test_mutated_verify_runs_or_exits_with_a_code(self, model, master_seed):
        # the other sections keep their per-species defaults
        doc = {"schema": 1, "master_seed": master_seed, "model": model}
        with tempfile.TemporaryDirectory() as tmp:
            config = write_config(Path(tmp), doc)
            code = main(["verify", "--config", str(config), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)

    def test_outputs_do_not_depend_on_workers(self, tmp_path):
        config = write_config(tmp_path, corner_doc())
        for command in ("free-energy", "tap-scan", "multisamp"):
            runs = []
            for label, workers in (("w1", "1"), ("w3", "3")):
                out = tmp_path / f"{command}-{label}"
                assert main([command, "--config", str(config),
                             "--out", str(out), "--workers", workers]) in (0, 1)
                runs.append({p.name: p.read_bytes() for p in out.iterdir()})
            assert runs[0] == runs[1]

    @pytest.mark.parametrize("flags, path", [
        (["--seed", "-5"], "--seed"),
        (["--out", ""], "--out"),
    ])
    def test_overrides_follow_the_config_rules(self, tmp_path, capsys, flags, path):
        # the doc's master_seed -5 and out_dir "" exit 2; so do the flags
        config = write_config(tmp_path, corner_doc())
        argv = ["free-energy", "--config", str(config), "--out", str(tmp_path / "out")]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("under", [False, True])
    def test_unmakeable_out_dir_exits_before_any_estimate(self, tmp_path, capsys,
                                                          monkeypatch, under):
        # a file where the output directory, or one of its parents, should be
        def estimator(*args, **kwargs):
            raise AssertionError("estimator called")

        monkeypatch.setattr("multispin.cli.fe_per_seed", estimator)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        for doc, flags, path in ((corner_doc(), ["--out", str(out)], "--out"),
                                 ({**corner_doc(), "out_dir": str(out)}, [], "out_dir")):
            config = write_config(tmp_path, doc)
            assert main(["free-energy", "--config", str(config)] + flags) == 2
            err = capsys.readouterr().err
            assert f"config error: {path}: " in err and "Traceback" not in err

    def test_seed_override_changes_results(self, tmp_path):
        config = write_config(tmp_path, corner_doc())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        for out, seed in ((out_a, "1"), (out_b, "2"), (out_c, "1")):
            assert main(["free-energy", "--config", str(config),
                         "--out", str(out), "--seed", seed]) == 0
        read = lambda d: (d / "free_energy.csv").read_bytes()
        assert read(out_a) != read(out_b)
        assert read(out_a) == read(out_c)
