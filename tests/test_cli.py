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
GROUND_STATE_FIELDS = {
    "q": (st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=2)
          | st.lists(SMALL_NUMBERS, max_size=3)),
    **{name: st.integers(1, 6) | SMALL_NUMBERS for name in ("restarts", "max_iters", "seeds")},
}


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

    def test_model_over_disorder_budget_exit_code(self, tmp_path, capsys):
        # 40^6 dense entries exceed the default budget of 2^28: refused at
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
