import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scgates
from scgates import cli as cli_module
from scgates import presets
from scgates import sweeps as sweeps_module
from scgates.cli import (
    ConfigError,
    _grid_rows,
    load_config,
    main,
    parse_config,
    run,
    run_config,
    validate_summary,
)
from scgates.sweeps import SweepGrid, SweepPoint

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


RAMP_CONFIG = {
    "mode": "ramp",
    "system": {
        "kind": "direct",
        "qubit_a": {"freq": 7.16, "anharm": 0.087},
        "qubit_b": {"freq": 7.274, "anharm": 0.114},
        "g": 0.0091,
    },
    "gate": "cz",
    "axes": [{"name": "g_over_delta_b", "start": 0.1, "stop": 0.3, "n_points": 5}],
    "tau_d_list": [0.0, 2.0],
}

TRUNCATION_CONFIG = {**SWEEP_CONFIG, "mode": "truncation", "n_levels_list": [3, 4]}

MODES_TEXT = "('gate', 'sweep1d', 'sweep2d', 'effective', 'threshold', 'truncation', 'ramp')"

# Each mode rule's full message; where a config breaks two rules, the pinned
# message is the one that fires first.
MODE_RULE_MESSAGES = {
    "unknown-mode": ({**GATE_CONFIG, "mode": "dance"}, f"mode must be one of {MODES_TEXT}, got 'dance'"),
    "null-gate": ({**SWEEP_CONFIG, "gate": None}, "key 'gate' in config has wrong type NoneType"),
    "gate-required": (
        {"mode": "sweep1d", "system": GATE_CONFIG["system"], "axes": SWEEP_CONFIG["axes"]},
        "mode 'sweep1d' requires a gate",
    ),
    "effective-on-direct": (
        {"mode": "effective", "system": GATE_CONFIG["system"]},
        "mode 'effective' needs an indirect system",
    ),
    "too-few-axes": ({**SWEEP_CONFIG, "mode": "sweep2d"}, "mode 'sweep2d' needs exactly 2 axes, got 1"),
    "axes-on-gate": ({**GATE_CONFIG, "axes": SWEEP_CONFIG["axes"]}, "mode 'gate' needs exactly 0 axes, got 1"),
    "no-axes-on-ramp": ({**RAMP_CONFIG, "axes": []}, "mode 'ramp' needs exactly 1 axes, got 0"),
    "axes-before-level": (
        {**GATE_CONFIG, "axes": SWEEP_CONFIG["axes"], "level": 0.5},
        "mode 'gate' needs exactly 0 axes, got 1",
    ),
    "level-outside-threshold": ({**SWEEP_CONFIG, "level": 0.99}, "key 'level' only applies to mode 'threshold'"),
    "wrong-typed-level-outside-threshold": (
        {**SWEEP_CONFIG, "level": "high"},
        "key 'level' in config has wrong type str",
    ),
    "boolean-level-outside-threshold": ({**SWEEP_CONFIG, "level": True}, "key 'level' in config has wrong type bool"),
    "wrong-typed-level-in-truncation": (
        {**TRUNCATION_CONFIG, "n_levels_list": [1], "level": [0.5]},
        "key 'level' in config has wrong type list",
    ),
    "level-before-own-list": (
        {**TRUNCATION_CONFIG, "n_levels_list": [1], "level": 0.5},
        "key 'level' only applies to mode 'threshold'",
    ),
    "threshold-without-level": (
        {**SWEEP_CONFIG, "mode": "threshold"},
        "mode 'threshold' needs a level strictly between 0 and 1",
    ),
    "threshold-level-out-of-range": (
        {**SWEEP_CONFIG, "mode": "threshold", "level": 1.0},
        "mode 'threshold' needs a level strictly between 0 and 1",
    ),
    "own-level-before-stray-list": (
        {**SWEEP_CONFIG, "mode": "threshold", "tau_d_list": [0.0]},
        "mode 'threshold' needs a level strictly between 0 and 1",
    ),
    "n_levels_list-outside-truncation": (
        {**SWEEP_CONFIG, "n_levels_list": [3, 4]},
        "key 'n_levels_list' only applies to mode 'truncation'",
    ),
    "tau_d_list-outside-ramp": (
        {**SWEEP_CONFIG, "tau_d_list": [0.0]},
        "key 'tau_d_list' only applies to mode 'ramp'",
    ),
    "wrong-typed-tau_d_list-outside-ramp": (
        {**SWEEP_CONFIG, "tau_d_list": "none"},
        "key 'tau_d_list' only applies to mode 'ramp'",
    ),
    "truncation-without-list": (
        {**SWEEP_CONFIG, "mode": "truncation"},
        "mode 'truncation' needs n_levels_list of integers >= 2",
    ),
    "truncation-list-too-small": (
        {**TRUNCATION_CONFIG, "n_levels_list": [3, 1]},
        "mode 'truncation' needs n_levels_list of integers >= 2",
    ),
    "truncation-list-of-booleans": (
        {**TRUNCATION_CONFIG, "n_levels_list": [True, 3]},
        "mode 'truncation' needs n_levels_list of integers >= 2",
    ),
    "truncation-empty-list": (
        {**TRUNCATION_CONFIG, "n_levels_list": []},
        "mode 'truncation' needs n_levels_list of integers >= 2",
    ),
    "own-list-before-stray-list": (
        {**TRUNCATION_CONFIG, "n_levels_list": "3", "tau_d_list": [0.0]},
        "mode 'truncation' needs n_levels_list of integers >= 2",
    ),
    "ramp-without-list": (
        {**RAMP_CONFIG, "tau_d_list": None},
        "mode 'ramp' needs tau_d_list of non-negative finite durations",
    ),
    "ramp-negative-duration": (
        {**RAMP_CONFIG, "tau_d_list": [-1.0]},
        "mode 'ramp' needs tau_d_list of non-negative finite durations",
    ),
    "ramp-infinite-duration": (
        {**RAMP_CONFIG, "tau_d_list": [0.0, float("inf")]},
        "mode 'ramp' needs tau_d_list of non-negative finite durations",
    ),
    "stray-list-before-own-list": (
        {**RAMP_CONFIG, "tau_d_list": [], "n_levels_list": [3]},
        "key 'n_levels_list' only applies to mode 'truncation'",
    ),
}



def _with_system(config: dict, **system) -> dict:
    """``config`` with its system's keys updated; a key set to None is removed."""
    merged = {**config["system"], **system}
    return {**config, "system": {k: v for k, v in merged.items() if v is not None}}


def _with_qubit(config: dict, name: str, **qubit) -> dict:
    merged = {**config["system"][name], **qubit}
    return _with_system(config, **{name: {k: v for k, v in merged.items() if v is not None}})


def _with_axis(**axis) -> dict:
    merged = {**SWEEP_CONFIG["axes"][0], **axis}
    return {**SWEEP_CONFIG, "axes": [{k: v for k, v in merged.items() if v is not None}]}


AXIS_NAMES_TEXT = (
    "['delta_a_over_g', 'delta_b_abs', 'delta_b_over_g', 'g_abs', 'g_over_delta_b', 'geff_abs', 'geff_over_delta_b']"
)

# The full message of each error in the system, qubit, axis and schedule
# objects; where a config breaks two rules, the pinned message is the one
# that fires first.  A spec's own ValueError carries its location as a
# prefix, except SweepBase's, which has none.
SPEC_ERROR_MESSAGES = {
    "system-not-an-object": ({**GATE_CONFIG, "system": []}, "system must be an object"),
    "qubit-not-an-object": (_with_system(GATE_CONFIG, qubit_a=5), "system.qubit_a must be an object"),
    "axis-not-an-object": ({**SWEEP_CONFIG, "axes": [3]}, "axes[0] must be an object"),
    "schedule-not-an-object": ({**GATE_CONFIG, "schedule": [1]}, "schedule must be an object"),
    "axes-not-a-list": ({**SWEEP_CONFIG, "axes": {}}, "axes must be a list"),
    "unknown-system-key": (_with_system(GATE_CONFIG, n_photons=5), "unknown key(s) ['n_photons'] in system"),
    "unknown-indirect-system-key": (
        _with_system(EFFECTIVE_CONFIG, g=0.01),
        "unknown key(s) ['g'] in system",
    ),
    "unknown-qubit-key": (
        _with_qubit(GATE_CONFIG, "qubit_a", color="blue"),
        "unknown key(s) ['color'] in system.qubit_a",
    ),
    "unknown-axis-key": (_with_axis(step=0.1), "unknown key(s) ['step'] in axes[0]"),
    "unknown-schedule-key": ({**GATE_CONFIG, "schedule": {"tau": 5.0}}, "unknown key(s) ['tau'] in schedule"),
    "missing-kind": (_with_system(GATE_CONFIG, kind=None), "missing required key 'kind' in system"),
    "missing-g": (_with_system(GATE_CONFIG, g=None), "missing required key 'g' in system"),
    "missing-g_qc": (_with_system(EFFECTIVE_CONFIG, g_qc=None), "missing required key 'g_qc' in system"),
    "missing-qubit-freq": (
        _with_qubit(GATE_CONFIG, "qubit_a", freq=None),
        "missing required key 'freq' in system.qubit_a",
    ),
    "missing-axis-n_points": (_with_axis(n_points=None), "missing required key 'n_points' in axes[0]"),
    "wrong-typed-kind": (_with_system(GATE_CONFIG, kind=3), "key 'kind' in system has wrong type int"),
    "wrong-typed-g": (_with_system(GATE_CONFIG, g="0.011"), "key 'g' in system has wrong type str"),
    "wrong-typed-n_photons": (
        _with_system(EFFECTIVE_CONFIG, n_photons=4.5),
        "key 'n_photons' in system has wrong type float",
    ),
    "wrong-typed-qubit-n_levels": (
        _with_qubit(GATE_CONFIG, "qubit_a", n_levels=3.0),
        "key 'n_levels' in system.qubit_a has wrong type float",
    ),
    "boolean-qubit-anharm": (
        _with_qubit(GATE_CONFIG, "qubit_b", anharm=True),
        "key 'anharm' in system.qubit_b has wrong type bool",
    ),
    "wrong-typed-axis-n_points": (_with_axis(n_points=2.5), "key 'n_points' in axes[0] has wrong type float"),
    "wrong-typed-axis-name": (_with_axis(name=3), "key 'name' in axes[0] has wrong type int"),
    "wrong-typed-schedule-dt": (
        {**GATE_CONFIG, "schedule": {"dt": "0.01"}},
        "key 'dt' in schedule has wrong type str",
    ),
    "wrong-typed-tie_anharm": ({**GATE_CONFIG, "tie_anharm": "yes"}, "key 'tie_anharm' in config has wrong type str"),
    "non-finite-g": (_with_system(GATE_CONFIG, g=float("nan")), "key 'g' in system must be finite, got nan"),
    "non-finite-qubit-freq": (
        _with_qubit(GATE_CONFIG, "qubit_a", freq=float("inf")),
        "key 'freq' in system.qubit_a must be finite, got inf",
    ),
    "non-finite-axis-start": (_with_axis(start=float("-inf")), "key 'start' in axes[0] must be finite, got -inf"),
    "non-finite-schedule-tau_d": (
        {**GATE_CONFIG, "schedule": {"tau_d": float("inf")}},
        "key 'tau_d' in schedule must be finite, got inf",
    ),
    "direct-spec-error": (
        _with_system(GATE_CONFIG, g=-0.1),
        "system: coupling g must be non-negative and finite, got -0.1",
    ),
    "indirect-spec-error": (
        _with_system(EFFECTIVE_CONFIG, cavity_freq=0),
        "system: cavity_freq must be positive and finite, got 0.0",
    ),
    "cavity-truncation-error": (
        _with_system(EFFECTIVE_CONFIG, n_photons=1),
        "system: cavity truncation must be at least 2, got 1",
    ),
    "qubit-spec-error": (
        _with_qubit(GATE_CONFIG, "qubit_a", freq=-1),
        "system.qubit_a: qubit freq must be positive and finite, got -1.0",
    ),
    "qubit-levels-error": (
        _with_qubit(GATE_CONFIG, "qubit_b", n_levels=1),
        "system.qubit_b: a qubit needs at least two levels, got 1",
    ),
    "axis-name-error": (
        _with_axis(name="bogus"),
        f"axes[0]: unknown axis 'bogus'; expected one of {AXIS_NAMES_TEXT}",
    ),
    "axis-order-error": (_with_axis(start=0.2, stop=0.1), "axes[0]: axis needs start < stop, got [0.2, 0.1]"),
    "axis-points-error": (_with_axis(n_points=1), "axes[0]: axis needs at least 2 points, got 1"),
    "bad-kind": (
        _with_system(GATE_CONFIG, kind="capacitive"),
        "system.kind must be 'direct' or 'indirect', got 'capacitive'",
    ),
    "base-dt-error": ({**GATE_CONFIG, "schedule": {"dt": -0.01}}, "dt must be positive and finite, got -0.01"),
    "base-tau_d-error": (
        {**GATE_CONFIG, "schedule": {"tau_d": -1}},
        "ramp duration tau_d must be non-negative and finite, got -1.0",
    ),
    "base-gate-error": (
        {**GATE_CONFIG, "gate": "cnot"},
        "unknown gate kind 'cnot'; expected one of ['cz', 'iswap']",
    ),
    "kind-before-unknown-keys": (
        _with_system(GATE_CONFIG, kind="capacitive", bogus=1),
        "system.kind must be 'direct' or 'indirect', got 'capacitive'",
    ),
    "unknown-keys-before-qubit-errors": (
        _with_system(_with_qubit(GATE_CONFIG, "qubit_a", freq=-1), bogus=1),
        "unknown key(s) ['bogus'] in system",
    ),
    "qubit_a-before-qubit_b": (
        _with_qubit(_with_qubit(GATE_CONFIG, "qubit_a", freq=-1), "qubit_b", freq=None),
        "system.qubit_a: qubit freq must be positive and finite, got -1.0",
    ),
    "qubit_b-before-missing-g": (
        _with_qubit(_with_system(GATE_CONFIG, g=None), "qubit_b", anharm=-0.1),
        "system.qubit_b: qubit anharm must be non-negative and finite, got -0.1",
    ),
    "missing-qubit_a": (_with_system(GATE_CONFIG, qubit_a=None), "system.qubit_a must be an object"),
    "system-before-schedule": (
        {**_with_system(GATE_CONFIG, g=-0.1), "schedule": {"tau": 1.0}},
        "system: coupling g must be non-negative and finite, got -0.1",
    ),
    "schedule-before-gate": (
        {**GATE_CONFIG, "gate": "cnot", "schedule": {"dt": "0.01"}},
        "key 'dt' in schedule has wrong type str",
    ),
    "gate-before-axes": (
        {**_with_axis(n_points=1), "gate": "cnot"},
        "unknown gate kind 'cnot'; expected one of ['cz', 'iswap']",
    ),
    "first-axis-first": (
        {**SWEEP_CONFIG, "mode": "sweep2d", "axes": [{"name": "g_abs"}, 3]},
        "missing required key 'start' in axes[0]",
    ),
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

    @pytest.mark.parametrize("config, message", MODE_RULE_MESSAGES.values(), ids=MODE_RULE_MESSAGES.keys())
    def test_mode_rule_messages(self, config, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(config)
        assert str(exc.value) == message

    @pytest.mark.parametrize("config, message", SPEC_ERROR_MESSAGES.values(), ids=SPEC_ERROR_MESSAGES.keys())
    def test_spec_error_messages(self, config, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(config)
        assert str(exc.value) == message

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


    def test_sweep2d_mode(self, tmp_path):
        cfg = parse_config(
            {
                **SWEEP_CONFIG,
                "mode": "sweep2d",
                "axes": [
                    {"name": "delta_a_over_g", "start": 2.0, "stop": 8.0, "n_points": 2},
                    {"name": "delta_b_over_g", "start": 2.0, "stop": 8.0, "n_points": 3},
                ],
            }
        )
        summary = run_config(cfg, tmp_path)
        assert sorted(summary) == ["gate", "max_fidelity", "min_fidelity", "mode", "n_rows"]
        assert summary["mode"] == "sweep2d" and summary["n_rows"] == 6
        assert sorted(summary["max_fidelity"]) == ["delta_a_over_g", "delta_b_over_g", "fidelity", "leakage", "t_g_ns"]
        assert json.loads((tmp_path / "summary.json").read_text()) == summary
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0] == (
            "delta_a_over_g,delta_b_over_g,fidelity,t_g_ns,leakage,theta_a,theta_b,theta_global,status"
        )
        assert [line.split(",")[:2] for line in lines[1:]] == [
            [a, b] for a in ("2.0", "8.0") for b in ("2.0", "5.0", "8.0")
        ]
        assert (tmp_path / "plot.gp").read_text() == (
            "set datafile separator ','\n"
            "set key off\n"
            "set xlabel 'delta_a_over_g'\n"
            "set ylabel 'delta_b_over_g'\n"
            "set cblabel 'fidelity'\n"
            "set view map\n"
            "splot 'results.csv' every ::1 using 1:2:3 with points palette pt 5 ps 2\n"
        )

    def test_ramp_mode(self, tmp_path):
        summary = run_config(parse_config(RAMP_CONFIG), tmp_path)
        assert sorted(summary) == ["detrended_amplitudes", "gate", "mode", "tau_d_list"]
        assert summary["mode"] == "ramp" and summary["tau_d_list"] == [0.0, 2.0]
        assert sorted(summary["detrended_amplitudes"]) == ["0.0", "2.0"]
        assert json.loads((tmp_path / "summary.json").read_text()) == summary
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0] == (
            "tau_d_ns,g_over_delta_b,fidelity,t_g_ns,leakage,theta_a,theta_b,theta_global,status"
        )
        assert [line.split(",")[0] for line in lines[1:]] == ["0.0"] * 5 + ["2.0"] * 5
        assert (tmp_path / "plot.gp").read_text() == (
            "set datafile separator ','\n"
            "set key autotitle columnhead\n"
            "set xlabel 'g_over_delta_b'\n"
            "set ylabel 'fidelity'\n"
            "set grid\n"
            "plot for [label in \"0.0 2.0\"] 'results.csv' \\\n"
            "    using (strcol(1) eq label ? column(2) : NaN):3 with linespoints \\\n"
            "    title 'tau_d_ns = '.label\n"
        )


    @pytest.mark.parametrize(
        "label, head", [(None, []), (3, ["3"]), (np.int64(5), ["5"]), (np.float64(2.5), ["2.5"]), (-0.0, ["-0.0"])]
    )
    def test_grid_rows_keep_the_formatted_bytes(self, label, head):
        # each field as _fmt spelled it: repr of its float, NaN as 'nan', ints as ints
        nan, inf = float("nan"), float("inf")
        rows = (
            SweepPoint((np.float64(0.1), -0.0), nan, inf, -inf, nan, nan, nan, "error:ValueError"),
            SweepPoint((np.float64(1e-300), np.float64(-2.0)), np.float64(0.9), 12.5, -0.0, 0.1, 3.0, 6.25, "ok"),
        )
        grid = SweepGrid(None, (), rows)
        got = list(_grid_rows(grid, ("tau_d", label) if label is not None else None))
        assert got == [
            head + ["0.1", "-0.0", "nan", "inf", "-inf", "nan", "nan", "nan", "error:ValueError"],
            head + ["1e-300", "-2.0", "0.9", "12.5", "-0.0", "0.1", "3.0", "6.25", "ok"],
        ]


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

    def test_the_parser_is_built_once_and_parses_as_a_fresh_one(self, tmp_path, capsys):
        # a bad --jobs, a run and a usage error in one process give what each gives with a parser of its own
        argvs = [
            ["--reproduce", "fig7a", "--jobs", "0"],
            ["--reproduce", "fig7a", "--out", str(tmp_path / "run")],
            ["--reproduce", "fig7a", "--config", "c.json"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exit:
                code = ("exit", exit.code)
            files = sorted((path.name, path.read_bytes()) for path in (tmp_path / "run").glob("*"))
            for path in (tmp_path / "run").glob("*"):
                path.unlink()
            return code, capsys.readouterr(), files

        fresh = []
        for argv in argvs:
            cli_module._parser.cache_clear()
            fresh.append(outcome(argv))
        cli_module._parser.cache_clear()
        assert [outcome(argv) for argv in argvs] == fresh
        assert [code for code, _, _ in fresh] == [1, 0, ("exit", 2)]
        assert cli_module._parser.cache_info().misses == 1

    @pytest.mark.parametrize("config", [
        # the fig4b preset on a 2 x 2 grid: qubit B is retuned along its anharmonicity
        {**presets.figure_config("fig4b"), "axes": [{**axis, "n_points": 2} for axis in presets.figure_config("fig4b")["axes"]]},
        RAMP_CONFIG,
    ], ids=["sweep2d", "ramp"])
    def test_an_uppercase_gate_runs_the_lowercase_one(self, tmp_path, config):
        for gate in ("cz", "CZ"):
            path = tmp_path / f"{gate}.json"
            path.write_text(json.dumps({**config, "gate": gate}))
            assert main(["--config", str(path), "--out", str(tmp_path / gate)]) == 0
        for name in ("results.csv", "summary.json", "plot.gp"):
            assert (tmp_path / "CZ" / name).read_bytes() == (tmp_path / "cz" / name).read_bytes()
        assert json.loads((tmp_path / "CZ" / "summary.json").read_text())["gate"] == "cz"

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

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {**RAMP_CONFIG, "tau_d_list": [0.0, 5, 0]},
                "mode 'ramp' needs tau_d_list without repeated entries, got [0.0, 5, 0]",
            ),
            (
                {**TRUNCATION_CONFIG, "n_levels_list": [3, 4, 3]},
                "mode 'truncation' needs n_levels_list without repeated entries, got [3, 4, 3]",
            ),
        ],
        ids=["tau_d_list", "n_levels_list"],
    )
    def test_repeated_list_entries_are_config_errors(self, tmp_path, capsys, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().err) == {"kind": "config", "error": message}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "config",
        [
            {**RAMP_CONFIG, "system": EFFECTIVE_CONFIG["system"]},
            {**RAMP_CONFIG, "gate": "iswap"},
            {**RAMP_CONFIG, "axes": [{**RAMP_CONFIG["axes"][0], "n_points": 4}]},
        ],
        ids=["indirect-system", "iswap", "four-points"],
    )
    def test_a_ramp_config_that_cannot_run_is_a_config_error(self, tmp_path, capsys, config):
        # ramp studies take directly coupled CZ systems, and each curve's cubic detrend 5 points:
        # the run is refused before it starts, and writes nothing
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "kind": "config",
            "error": "mode 'ramp' needs a direct system, gate 'cz' and an axis of at least 5 points",
        }
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", ["gate", "effective"])
    def test_an_overflow_is_a_numerical_error(self, tmp_path, capsys, mode):
        # g_qc**2 overflows in the effective couplings, which the gate time takes too
        config = {"mode": mode, "system": {**EFFECTIVE_CONFIG["system"], "g_qc": 1e200}, "gate": "cz"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        line = json.loads(err)
        assert line["kind"] == "numerical"
        # the message names the coupling that overflowed and its value
        assert "g_qc" in line["error"] and "1e+200" in line["error"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dt", ["1e-300", "5e-324"])
    def test_a_ramp_that_no_array_can_step_is_a_numerical_error_naming_dt(self, tmp_path, capsys, dt):
        # a 5 ns cavity ramp of 5e300 CF4 steps, or of infinitely many
        config = {**GATE_CONFIG, "system": EFFECTIVE_CONFIG["system"], "gate": "cz", "schedule": {"tau_d": 5.0}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path / "o"), "--dt", dt]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        line = json.loads(err)
        assert line["kind"] == "numerical"
        assert f"dt = {float(dt)} ns" in line["error"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {**GATE_CONFIG, "system": {**GATE_CONFIG["system"], "qubit_a": {"freq": 10**400, "anharm": 0.15}}},
                "key 'freq' in system.qubit_a must be finite, got inf",
            ),
            (
                {**SWEEP_CONFIG, "axes": [{**SWEEP_CONFIG["axes"][0], "start": -(10**400)}]},
                "key 'start' in axes[0] must be finite, got -inf",
            ),
            (
                {**RAMP_CONFIG, "tau_d_list": [0.0, 10**400]},
                "mode 'ramp' needs tau_d_list of non-negative finite durations",
            ),
        ],
        ids=["qubit-freq", "axis-start", "tau_d_list"],
    )
    def test_an_integer_too_large_for_a_float_is_a_config_error(self, tmp_path, capsys, config, message):
        # JSON integers are unbounded, and no float holds one above about 1.8e308
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"kind": "config", "error": message}
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

    def test_a_memory_error_in_a_sweep_is_a_json_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(sizes, rows, scales, durations, dt):
            raise MemoryError("forced")

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SWEEP_CONFIG))
        monkeypatch.setattr(sweeps_module, "_blocks", exhausted)
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"kind": "memory", "error": "forced"}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "config, argv",
        [
            # the parity blocks of a 10^10-state system: np.indices asks for 149 GiB
            (
                {**GATE_CONFIG, "system": {
                    **GATE_CONFIG["system"],
                    "qubit_a": {"freq": 5.5, "anharm": 0.15, "n_levels": 100_000},
                    "qubit_b": {"freq": 5.5, "anharm": 0.10, "n_levels": 100_000},
                }},
                [],
            ),
            # the 40 ns CZ trapezoid at dt = 1e-9: 4 * 10^10 CF4 steps, 298 GiB of step indices
            ({**GATE_CONFIG, "system": RAMP_CONFIG["system"], "gate": "cz", "schedule": {"tau_d": 40.0}}, ["--dt", "1e-9"]),
        ],
        ids=["100000-levels", "cz-40ns-dt-1e-9"],
    )
    def test_a_run_that_cannot_fit_is_a_json_error(self, tmp_path, config, argv):
        # the address-space limit is set in the child only, so nothing large is ever allocated
        path, out = tmp_path / "cfg.json", tmp_path / "o"
        path.write_text(json.dumps(config))
        limit = 3 * 1024**3

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(scgates.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "scgates", "--config", str(path), "--out", str(out), *argv],
            env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit_address_space,
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.count("\n") == 1
        assert json.loads(done.stderr)["kind"] == "memory"
        assert not out.exists()

    @staticmethod
    def fail_plot_writes(monkeypatch):
        write_text = Path.write_text

        def failing_write_text(self, *args, **kwargs):
            if "plot" in self.name:
                raise OSError(28, "No space left on device")
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_write_text)

    @pytest.mark.parametrize("config", [GATE_CONFIG, SWEEP_CONFIG], ids=["gate", "sweep1d"])
    def test_failed_plot_write_leaves_no_artifacts(self, tmp_path, capsys, monkeypatch, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        self.fail_plot_writes(monkeypatch)
        assert main(["--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"kind": "io", "error": "[Errno 28] No space left on device"}
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]

    def test_failed_write_keeps_the_previous_runs_artifacts(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(GATE_CONFIG))
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["plot.gp", "results.csv", "summary.json"]
        system = {**GATE_CONFIG["system"], "g": 0.012}
        path.write_text(json.dumps({**GATE_CONFIG, "system": system}))
        self.fail_plot_writes(monkeypatch)
        assert main(["--config", str(path), "--out", str(out)]) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestSummaryValidation:
    def test_rejects_missing_mode(self):
        with pytest.raises(ValueError):
            validate_summary({"fidelity": 1.0})

    def test_rejects_incomplete_summary(self):
        with pytest.raises(ValueError, match="missing"):
            validate_summary({"mode": "gate", "fidelity": 1.0})

    @pytest.mark.parametrize("mode", [[], {}, ["gate"], {"gate": 1}, None, 3], ids=repr)
    def test_rejects_a_mode_that_is_not_a_known_name(self, mode):
        # unhashable modes used to escape as TypeError from the table lookup
        with pytest.raises(ValueError, match="unknown mode"):
            validate_summary({"mode": mode})

    def test_loader_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")
