import json

import pytest

from scgates import presets
from scgates.cli import (
    ConfigError,
    load_config,
    main,
    parse_config,
    run,
    run_config,
    validate_summary,
)

GATE_CONFIG = {
    "mode": "gate",
    "system": {
        "kind": "direct",
        "qubit_a": {"freq": 5.5, "anharm": 0.15},
        "qubit_b": {"freq": 5.5, "anharm": 0.10},
        "g": 0.011,
    },
    "gate": "iswap",
}

EFFECTIVE_CONFIG = {
    "mode": "effective",
    "system": {
        "kind": "indirect",
        "qubit_a": {"freq": 8.2, "anharm": 0.2},
        "qubit_b": {"freq": 8.45, "anharm": 0.25},
        "cavity_freq": 6.9,
        "g_qc": 0.2,
    },
}

SWEEP_CONFIG = {
    "mode": "sweep1d",
    "system": GATE_CONFIG["system"],
    "gate": "iswap",
    "axes": [{"name": "g_over_delta_b", "start": 0.1, "stop": 0.2, "n_points": 5}],
}


class TestParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({**GATE_CONFIG, "bogus": 1})

    def test_unknown_nested_keys(self):
        bad = json.loads(json.dumps(GATE_CONFIG))
        bad["system"]["qubit_a"]["color"] = "blue"
        with pytest.raises(ConfigError, match="qubit_a"):
            parse_config(bad)
        bad = json.loads(json.dumps(GATE_CONFIG))
        bad["system"]["n_photons"] = 5  # indirect-only key on a direct system
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(bad)

    def test_wrong_types(self):
        bad = json.loads(json.dumps(GATE_CONFIG))
        bad["system"]["g"] = "0.011"
        with pytest.raises(ConfigError, match="wrong type"):
            parse_config(bad)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config({"system": GATE_CONFIG["system"]})
        with pytest.raises(ConfigError, match="gate"):
            parse_config({"mode": "gate", "system": GATE_CONFIG["system"]})

    def test_invalid_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config({**GATE_CONFIG, "mode": "dance"})

    def test_axes_count_enforced(self):
        with pytest.raises(ConfigError, match="axes"):
            parse_config({**SWEEP_CONFIG, "mode": "sweep2d"})
        with pytest.raises(ConfigError, match="axes"):
            parse_config({**GATE_CONFIG, "axes": SWEEP_CONFIG["axes"]})

    def test_threshold_needs_level(self):
        cfg = {**SWEEP_CONFIG, "mode": "threshold"}
        with pytest.raises(ConfigError, match="level"):
            parse_config(cfg)
        parse_config({**cfg, "level": 0.99})
        with pytest.raises(ConfigError, match="level"):
            parse_config({**cfg, "level": 1.5})

    def test_level_rejected_outside_threshold_mode(self):
        with pytest.raises(ConfigError, match="level"):
            parse_config({**SWEEP_CONFIG, "level": 0.99})

    def test_ramp_list_validation(self):
        cfg = {
            "mode": "ramp",
            "system": {
                "kind": "direct",
                "qubit_a": {"freq": 7.16, "anharm": 0.087},
                "qubit_b": {"freq": 7.274, "anharm": 0.114},
                "g": 0.0091,
            },
            "gate": "cz",
            "axes": SWEEP_CONFIG["axes"],
        }
        with pytest.raises(ConfigError, match="tau_d_list"):
            parse_config(cfg)
        with pytest.raises(ConfigError, match="tau_d_list"):
            parse_config({**cfg, "tau_d_list": [-1.0]})
        with pytest.raises(ConfigError, match="tau_d_list"):
            parse_config({**cfg, "tau_d_list": [0.0, float("inf")]})
        parse_config({**cfg, "tau_d_list": [0, 5]})

    def test_effective_requires_indirect(self):
        with pytest.raises(ConfigError, match="indirect"):
            parse_config({"mode": "effective", "system": GATE_CONFIG["system"]})

    def test_schedule_keys(self):
        parse_config({**GATE_CONFIG, "schedule": {"tau_d": 5.0, "dt": 0.01}})
        with pytest.raises(ConfigError, match="schedule"):
            parse_config({**GATE_CONFIG, "schedule": {"tau": 5.0}})

    def test_all_presets_parse(self):
        for figure_id in presets.FIGURE_IDS:
            cfg = parse_config(presets.figure_config(figure_id))
            validate_presets_mode = cfg.mode in (
                "sweep1d", "sweep2d", "truncation", "ramp",
            )
            assert validate_presets_mode


class TestRunArtifacts:
    def test_gate_mode(self, tmp_path):
        cfg = parse_config(GATE_CONFIG)
        summary = run_config(cfg, tmp_path)
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "plot.gp").exists()
        assert summary["fidelity"] == pytest.approx(0.9952, abs=0.001)
        validate_summary(json.loads((tmp_path / "summary.json").read_text()))

    def test_effective_mode_value(self, tmp_path):
        summary = run_config(parse_config(EFFECTIVE_CONFIG), tmp_path)
        assert summary["g_eff_1"] == pytest.approx(0.030769, abs=1e-5)

    def test_effective_mode_prints_json(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(EFFECTIVE_CONFIG))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
        printed = json.loads(capsys.readouterr().out.strip())
        assert printed["g_eff_1"] == pytest.approx(0.030769, abs=1e-5)

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # qubit A resonant with the cavity: the dispersive reduction must refuse
        bad = json.loads(json.dumps(EFFECTIVE_CONFIG))
        bad["system"]["qubit_a"]["freq"] = 6.9
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bad))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["kind"] == "numerical"

    def test_sweep_csv_layout(self, tmp_path):
        run_config(parse_config(SWEEP_CONFIG), tmp_path)
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0] == "g_over_delta_b,fidelity,t_g_ns,leakage,theta_a,theta_b,theta_global,status"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[-1] == "ok"
        # full double precision round-trip
        assert float(first[0]) == 0.1

    def test_csv_bodies_identical_across_jobs(self, tmp_path):
        cfg = parse_config(SWEEP_CONFIG)
        run_config(cfg, tmp_path / "a", jobs=1)
        run_config(cfg, tmp_path / "b", jobs=4)
        assert (tmp_path / "a/results.csv").read_bytes() == (tmp_path / "b/results.csv").read_bytes()

    def test_threshold_mode(self, tmp_path):
        cfg = parse_config(
            {
                **SWEEP_CONFIG,
                "mode": "threshold",
                "level": 0.99,
                "axes": [{"name": "g_over_delta_b", "start": 0.1, "stop": 0.2, "n_points": 6}],
            }
        )
        summary = run_config(cfg, tmp_path)
        assert summary["crossed"] is True
        assert summary["value"] == pytest.approx(0.1523, abs=0.002)

    def test_truncation_mode_has_label_column(self, tmp_path):
        cfg = parse_config(
            {
                "mode": "truncation",
                "system": GATE_CONFIG["system"],
                "gate": "iswap",
                "axes": [{"name": "g_over_delta_b", "start": 0.1, "stop": 0.2, "n_points": 3}],
                "n_levels_list": [3, 4],
            }
        )
        summary = run_config(cfg, tmp_path)
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0].startswith("n_levels,g_over_delta_b,")
        assert len(lines) == 1 + 2 * 3
        assert summary["max_abs_fidelity_diff"]["3-4"] < 0.01


class TestCliEntry:
    def test_config_error_exit_code_and_no_artifacts(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert run(bad, out) == 1
        assert not out.exists()

    def test_missing_output_dir_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(GATE_CONFIG))
        assert run(path) == 1

    def test_main_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(GATE_CONFIG))
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "summary.json").exists()

    def test_main_reproduce_names_artifacts_by_figure(self, tmp_path):
        code = main(["--reproduce", "fig7a", "--out", str(tmp_path), "--jobs", "2"])
        assert code == 0
        assert (tmp_path / "fig7a.csv").exists()
        assert (tmp_path / "fig7a_summary.json").exists()
        assert (tmp_path / "fig7a_plot.gp").exists()

    def test_main_rejects_bad_jobs(self, tmp_path, capsys):
        assert main(["--reproduce", "fig7a", "--jobs", "0"]) == 1
        err = capsys.readouterr().err
        assert json.loads(err.strip())["kind"] == "config"

    def test_dt_must_be_positive(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(GATE_CONFIG))
        assert main(["--config", str(path), "--out", str(tmp_path / "o"), "--dt", "-0.1"]) == 1

    def test_reproduce_rejects_nonpositive_dt_before_running(self, tmp_path, capsys):
        assert main(["--reproduce", "fig3b", "--out", str(tmp_path / "o"), "--dt", "0"]) == 1
        err = capsys.readouterr().err
        assert json.loads(err) == {"kind": "config", "error": "--dt must be positive, got 0.0"}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "schedule, argv",
        [
            ({"tau_d": 5.0}, ["--dt", "inf"]),
            ({"tau_d": 5.0}, ["--dt", "nan"]),
            ({"tau_d": float("inf")}, []),
            ({"tau_d": 5.0, "dt": float("nan")}, []),
        ],
    )
    def test_non_finite_numbers_are_config_errors(self, tmp_path, capsys, schedule, argv):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**GATE_CONFIG, "schedule": schedule}))
        assert main(["--config", str(path), "--out", str(tmp_path / "o"), *argv]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["kind"] == "config"
        assert not (tmp_path / "o").exists()

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(GATE_CONFIG))
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory")
        assert main(["--config", str(path), "--out", str(blocker / "sub")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["kind"] == "io"


class TestSummaryValidation:
    def test_rejects_missing_mode(self):
        with pytest.raises(ValueError):
            validate_summary({"fidelity": 1.0})

    def test_rejects_incomplete_summary(self):
        with pytest.raises(ValueError, match="missing"):
            validate_summary({"mode": "gate", "fidelity": 1.0})

    def test_loader_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")
