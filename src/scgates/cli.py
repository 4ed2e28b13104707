"""Command-line entry point: JSON configs in, CSV/JSON/plot-script artifacts out.

A run is described either by a JSON config file (``--config``) or by a named
built-in figure preset (``--reproduce``).  Every run writes three artifacts
into the output directory: a CSV table of results, a JSON summary and a
gnuplot script that plots the CSV without further dependencies.  Config
parsing is strict: unknown keys anywhere in the file are rejected, which
catches unit mistakes and typos before any computation starts.

Exit codes: 0 success, 1 config error (nothing is written), 2 numerical
failure (nothing is written), 3 the output directory or an artifact could
not be written (artifacts written before the failure are left in place).
Errors are also emitted as single-line JSON on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import presets
from .dispersive import DispersiveRegimeError, effective_couplings
from .evolution import DEFAULT_DT, UnitarityError, trapezoid_schedule
from .gates import gate_target, gate_time, run_gate
from .hamiltonians import DirectSystemSpec, IndirectSystemSpec, QubitSpec
from .sweeps import (
    SweepAxis,
    SweepBase,
    SweepGrid,
    detrended_amplitude,
    ramp_study,
    sweep,
    threshold,
    truncation_study,
)

MODES = ("gate", "sweep1d", "sweep2d", "effective", "threshold", "truncation", "ramp")

#: Levels reported in 1D sweep summaries (skipped when the curve starts below).
SUMMARY_THRESHOLD_LEVELS = (0.95, 0.99)

CSV_VALUE_COLUMNS = ("fidelity", "t_g_ns", "leakage", "theta_a", "theta_b", "theta_global", "status")


class ConfigError(ValueError):
    """The configuration file is malformed or inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    mode: str
    base: SweepBase
    axes: tuple[SweepAxis, ...]
    level: float | None = None
    n_levels_list: tuple[int, ...] | None = None
    tau_d_list: tuple[float, ...] | None = None
    output: str | None = None


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _get(obj: dict, key: str, types, where: str, default=None, required: bool = False):
    if key not in obj:
        if required:
            raise ConfigError(f"missing required key {key!r} in {where}")
        return default
    value = obj[key]
    if types is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        raise ConfigError(f"key {key!r} in {where} has wrong type {type(value).__name__}")
    if types is float and not math.isfinite(value):
        raise ConfigError(f"key {key!r} in {where} must be finite, got {value}")
    return value


def _parse_qubit(obj, where: str) -> QubitSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(obj, {"freq", "anharm", "n_levels"}, where)
    try:
        return QubitSpec(
            freq=_get(obj, "freq", float, where, required=True),
            anharm=_get(obj, "anharm", float, where, required=True),
            n_levels=_get(obj, "n_levels", int, where, default=3),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_system(obj, where: str = "system"):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    kind = _get(obj, "kind", str, where, required=True)
    try:
        if kind == "direct":
            _check_keys(obj, {"kind", "qubit_a", "qubit_b", "g"}, where)
            return DirectSystemSpec(
                qubit_a=_parse_qubit(obj.get("qubit_a"), f"{where}.qubit_a"),
                qubit_b=_parse_qubit(obj.get("qubit_b"), f"{where}.qubit_b"),
                g=_get(obj, "g", float, where, required=True),
            )
        if kind == "indirect":
            _check_keys(obj, {"kind", "qubit_a", "qubit_b", "cavity_freq", "g_qc", "n_photons"}, where)
            return IndirectSystemSpec(
                qubit_a=_parse_qubit(obj.get("qubit_a"), f"{where}.qubit_a"),
                qubit_b=_parse_qubit(obj.get("qubit_b"), f"{where}.qubit_b"),
                cavity_freq=_get(obj, "cavity_freq", float, where, required=True),
                g_qc=_get(obj, "g_qc", float, where, required=True),
                n_photons=_get(obj, "n_photons", int, where, default=5),
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}.kind must be 'direct' or 'indirect', got {kind!r}")


def _parse_axis(obj, where: str) -> SweepAxis:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(obj, {"name", "start", "stop", "n_points"}, where)
    try:
        return SweepAxis(
            name=_get(obj, "name", str, where, required=True),
            start=_get(obj, "start", float, where, required=True),
            stop=_get(obj, "stop", float, where, required=True),
            n_points=_get(obj, "n_points", int, where, required=True),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


_AXES_REQUIRED = {"sweep1d": 1, "sweep2d": 2, "threshold": 1, "truncation": 1, "ramp": 1}

_TOP_KEYS = {
    "mode", "system", "gate", "schedule", "axes", "tie_anharm",
    "level", "n_levels_list", "tau_d_list", "output",
}


def parse_config(obj: dict) -> RunConfig:
    """Validate a config dict (strict schema) and build the run description."""
    if not isinstance(obj, dict):
        raise ConfigError("top-level config must be a JSON object")
    _check_keys(obj, _TOP_KEYS, "config")
    mode = _get(obj, "mode", str, "config", required=True)
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if "system" not in obj:
        raise ConfigError("missing required key 'system' in config")
    system = _parse_system(obj["system"])

    schedule_obj = obj.get("schedule", {})
    if not isinstance(schedule_obj, dict):
        raise ConfigError("schedule must be an object")
    _check_keys(schedule_obj, {"tau_d", "dt"}, "schedule")
    tau_d = _get(schedule_obj, "tau_d", float, "schedule", default=0.0)
    dt = _get(schedule_obj, "dt", float, "schedule", default=DEFAULT_DT)

    gate = _get(obj, "gate", str, "config", default=None)
    if mode == "effective":
        if not isinstance(system, IndirectSystemSpec):
            raise ConfigError("mode 'effective' needs an indirect system")
        gate = gate or "cz"
    elif gate is None:
        raise ConfigError(f"mode {mode!r} requires a gate")
    try:
        base = SweepBase(
            system=system,
            gate=gate,
            tau_d=tau_d,
            dt=dt,
            tie_anharm=_get(obj, "tie_anharm", bool, "config", default=False),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    axes_obj = obj.get("axes", [])
    if not isinstance(axes_obj, list):
        raise ConfigError("axes must be a list")
    axes = tuple(_parse_axis(a, f"axes[{i}]") for i, a in enumerate(axes_obj))
    expected = _AXES_REQUIRED.get(mode, 0)
    if len(axes) != expected:
        raise ConfigError(f"mode {mode!r} needs exactly {expected} axes, got {len(axes)}")

    level = _get(obj, "level", float, "config", default=None)
    if mode == "threshold":
        if level is None or not 0.0 < level < 1.0:
            raise ConfigError("mode 'threshold' needs a level strictly between 0 and 1")
    elif level is not None:
        raise ConfigError("key 'level' only applies to mode 'threshold'")

    n_levels_list = obj.get("n_levels_list")
    if mode == "truncation":
        if not isinstance(n_levels_list, list) or not n_levels_list or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 2 for n in n_levels_list
        ):
            raise ConfigError("mode 'truncation' needs n_levels_list of integers >= 2")
        n_levels_list = tuple(n_levels_list)
    elif n_levels_list is not None:
        raise ConfigError("key 'n_levels_list' only applies to mode 'truncation'")

    tau_d_list = obj.get("tau_d_list")
    if mode == "ramp":
        if not isinstance(tau_d_list, list) or not tau_d_list or not all(
            isinstance(t, (int, float)) and not isinstance(t, bool) and 0 <= t < math.inf
            for t in tau_d_list
        ):
            raise ConfigError("mode 'ramp' needs tau_d_list of non-negative finite durations")
        tau_d_list = tuple(float(t) for t in tau_d_list)
    elif tau_d_list is not None:
        raise ConfigError("key 'tau_d_list' only applies to mode 'ramp'")

    return RunConfig(
        mode=mode,
        base=base,
        axes=axes,
        level=level,
        n_levels_list=n_levels_list,
        tau_d_list=tau_d_list,
        output=_get(obj, "output", str, "config", default=None),
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return parse_config(obj)


# --------------------------------------------------------------------------
# artifact writers


def _fmt(value) -> str:
    """Round-trip-exact decimal formatting; NaN spells 'nan'."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    value = float(value)
    return "nan" if math.isnan(value) else repr(value)


def _grid_rows(grid: SweepGrid, label: tuple[str, float] | None = None):
    for row in grid.rows:
        head = [_fmt(label[1])] if label else []
        yield head + [_fmt(v) for v in row.values] + [
            _fmt(row.fidelity), _fmt(row.t_g_ns), _fmt(row.leakage),
            _fmt(row.theta_a), _fmt(row.theta_b), _fmt(row.theta_global), row.status,
        ]


def write_grids_csv(path: Path, grids, label_name: str | None = None, label_values=None) -> None:
    """One CSV for a single grid or a labelled family of same-axis grids."""
    axis_names = [ax.name for ax in grids[0].axes]
    header = ([label_name] if label_name else []) + axis_names + list(CSV_VALUE_COLUMNS)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, grid in enumerate(grids):
            label = (label_name, label_values[i]) if label_name else None
            writer.writerows(_grid_rows(grid, label))


def _extremal_rows(grid: SweepGrid) -> dict:
    ok = [row for row in grid.rows if row.status == "ok"]
    if not ok:
        return {"max_fidelity": None, "min_fidelity": None}

    def row_dict(row):
        axes = {ax.name: v for ax, v in zip(grid.axes, row.values)}
        return {**axes, "fidelity": row.fidelity, "t_g_ns": row.t_g_ns, "leakage": row.leakage}

    return {
        "max_fidelity": row_dict(max(ok, key=lambda r: r.fidelity)),
        "min_fidelity": row_dict(min(ok, key=lambda r: r.fidelity)),
    }


def _threshold_entries(grid: SweepGrid, levels) -> list[dict]:
    entries = []
    for level in levels:
        try:
            result = threshold(grid, level)
        except ValueError as exc:
            entries.append({"level": level, "crossed": None, "note": str(exc)})
            continue
        entries.append(
            {
                "level": result.level,
                "crossed": result.crossed,
                "value": result.value,
                "t_g_ns": result.t_g_ns,
            }
        )
    return entries


_PLOT_1D = """set datafile separator ','
set key autotitle columnhead
set xlabel '{xlabel}'
set ylabel 'fidelity'
set grid
plot '{csv}' using 1:2 with linespoints pt 7 ps 0.5 title 'fidelity'
"""

_PLOT_2D = """set datafile separator ','
set key off
set xlabel '{xlabel}'
set ylabel '{ylabel}'
set cblabel 'fidelity'
set view map
splot '{csv}' every ::1 using 1:2:3 with points palette pt 5 ps 2
"""

_PLOT_FAMILY = """set datafile separator ','
set key autotitle columnhead
set xlabel '{xlabel}'
set ylabel 'fidelity'
set grid
plot for [label in "{labels}"] '{csv}' \\
    using (strcol(1) eq label ? column(2) : NaN):3 with linespoints \\
    title '{label_name} = '.label
"""

_PLOT_NONE = """# No curve to draw for this mode; see summary.json next to this file.
"""


def _plot_script(cfg: RunConfig, csv_name: str, label_values=None) -> str:
    if cfg.mode in ("gate", "effective"):
        return _PLOT_NONE
    xlabel = cfg.axes[0].name
    if cfg.mode == "sweep2d":
        return _PLOT_2D.format(csv=csv_name, xlabel=xlabel, ylabel=cfg.axes[1].name)
    if cfg.mode in ("truncation", "ramp"):
        label_name = "n_levels" if cfg.mode == "truncation" else "tau_d_ns"
        labels = " ".join(_fmt(v) for v in label_values)
        return _PLOT_FAMILY.format(csv=csv_name, xlabel=xlabel, labels=labels, label_name=label_name)
    return _PLOT_1D.format(csv=csv_name, xlabel=xlabel)


# --------------------------------------------------------------------------
# per-mode execution


def _gate_summary(cfg: RunConfig) -> tuple[dict, list[SweepGrid], None]:
    target = gate_target(cfg.base.gate)
    t_g = gate_time(cfg.base.system, target)
    schedule = trapezoid_schedule(cfg.base.tau_d, t_g)
    result = run_gate(cfg.base.system, target, schedule, cfg.base.dt)
    summary = {
        "mode": "gate",
        "gate": cfg.base.gate,
        "t_g_ns": t_g,
        "tau_d_ns": cfg.base.tau_d,
        **result.as_dict(),
    }
    return summary, [], None


def _effective_summary(cfg: RunConfig) -> tuple[dict, list[SweepGrid], None]:
    couplings = effective_couplings(cfg.base.system)
    return {"mode": "effective", **couplings.as_dict()}, [], None


def execute(cfg: RunConfig):
    """Run one config; returns (summary, grids, label spec) without writing."""
    if cfg.mode == "gate":
        return _gate_summary(cfg)
    if cfg.mode == "effective":
        return _effective_summary(cfg)
    if cfg.mode in ("sweep1d", "sweep2d"):
        grid = sweep(cfg.base, cfg.axes)
        summary = {
            "mode": cfg.mode,
            "gate": cfg.base.gate,
            "n_rows": len(grid.rows),
            **_extremal_rows(grid),
        }
        if cfg.mode == "sweep1d":
            summary["thresholds"] = _threshold_entries(grid, SUMMARY_THRESHOLD_LEVELS)
        return summary, [grid], None
    if cfg.mode == "threshold":
        grid = sweep(cfg.base, cfg.axes)
        result = threshold(grid, cfg.level)
        summary = {
            "mode": "threshold",
            "gate": cfg.base.gate,
            "level": result.level,
            "crossed": result.crossed,
            "value": result.value,
            "t_g_ns": result.t_g_ns,
        }
        return summary, [grid], None
    if cfg.mode == "truncation":
        grids = truncation_study(cfg.base, cfg.n_levels_list, cfg.axes[0])
        diffs = {
            f"{a}-{b}": float(np.max(np.abs(ga.fidelity_array() - gb.fidelity_array())))
            for (a, ga), (b, gb) in zip(
                zip(cfg.n_levels_list, grids), zip(cfg.n_levels_list[1:], grids[1:])
            )
        }
        summary = {
            "mode": "truncation",
            "gate": cfg.base.gate,
            "n_levels_list": list(cfg.n_levels_list),
            "max_abs_fidelity_diff": diffs,
        }
        return summary, grids, ("n_levels", list(cfg.n_levels_list))
    if cfg.mode == "ramp":
        grids = ramp_study(cfg.base, cfg.tau_d_list, cfg.axes[0])
        summary = {
            "mode": "ramp",
            "gate": cfg.base.gate,
            "tau_d_list": list(cfg.tau_d_list),
            "detrended_amplitudes": {
                _fmt(tau): detrended_amplitude(grid)
                for tau, grid in zip(cfg.tau_d_list, grids)
            },
        }
        return summary, grids, ("tau_d_ns", list(cfg.tau_d_list))
    raise ConfigError(f"unhandled mode {cfg.mode!r}")


_SUMMARY_REQUIRED = {
    "gate": {"gate", "t_g_ns", "fidelity", "leakage", "theta_a", "theta_b", "theta_global", "projected_block"},
    "effective": {
        "g_eff_1", "g_eff_2", "g_eff_3", "g_eff_4",
        "dressed_freq_a1", "dressed_freq_b1", "dressed_freq_a2", "dressed_freq_b2",
        "detuning_a", "detuning_b",
    },
    "sweep1d": {"gate", "n_rows", "max_fidelity", "min_fidelity", "thresholds"},
    "sweep2d": {"gate", "n_rows", "max_fidelity", "min_fidelity"},
    "threshold": {"gate", "level", "crossed", "value", "t_g_ns"},
    "truncation": {"gate", "n_levels_list", "max_abs_fidelity_diff"},
    "ramp": {"gate", "tau_d_list", "detrended_amplitudes"},
}


def validate_summary(summary: dict) -> None:
    """Check an emitted summary against the documented result schema."""
    if not isinstance(summary, dict) or "mode" not in summary:
        raise ValueError("summary must be an object with a 'mode' key")
    mode = summary["mode"]
    if mode not in _SUMMARY_REQUIRED:
        raise ValueError(f"summary has unknown mode {mode!r}")
    missing = _SUMMARY_REQUIRED[mode] - set(summary)
    if missing:
        raise ValueError(f"summary for mode {mode!r} is missing keys {sorted(missing)}")


def run_config(cfg: RunConfig, out_dir: str | Path, jobs: int = 1, stem: str = "results") -> dict:
    """Execute a config and write csv/summary/plot artifacts into ``out_dir``.

    ``jobs`` is accepted for compatibility and ignored, as in ``sweeps.sweep``.
    """
    summary, grids, label = execute(cfg)
    validate_summary(summary)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_name = f"{stem}.csv"
    summary_name = "summary.json" if stem == "results" else f"{stem}_summary.json"
    plot_name = "plot.gp" if stem == "results" else f"{stem}_plot.gp"
    if grids:
        if label:
            write_grids_csv(out / csv_name, grids, label_name=label[0], label_values=label[1])
        else:
            write_grids_csv(out / csv_name, grids)
    else:
        # gate/effective runs still emit a one-row CSV for uniform tooling
        with open(out / csv_name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            keys = [k for k in summary if k != "mode" and not isinstance(summary[k], dict)]
            writer.writerow(keys)
            writer.writerow([_fmt(summary[k]) for k in keys])
    (out / summary_name).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out / plot_name).write_text(
        _plot_script(cfg, csv_name, label[1] if label else None), encoding="utf-8"
    )
    return summary


def run(config_path: str | Path, out_dir=None, dt=None, jobs: int = 1) -> int:
    """CLI behaviour for ``--config``: parse, execute, write, map exit codes."""
    try:
        cfg = _with_dt(load_config(config_path), dt)
        out = out_dir or cfg.output
        if out is None:
            raise ConfigError("no output directory: set 'output' in the config or pass --out")
    except ConfigError as exc:
        _emit_error("config", exc)
        return 1
    return _guarded_run(cfg, out, "results")


def reproduce(figure_id: str, out_dir=None, dt=None, jobs: int = 1) -> int:
    """CLI behaviour for ``--reproduce``: run a built-in preset."""
    try:
        cfg = _with_dt(parse_config(presets.figure_config(figure_id)), dt)
    except (ConfigError, ValueError) as exc:
        _emit_error("config", exc)
        return 1
    return _guarded_run(cfg, out_dir or f"{figure_id}_out", figure_id)


def _with_dt(cfg: RunConfig, dt: float | None) -> RunConfig:
    """``cfg`` with the ``--dt`` override applied, if one was given."""
    if dt is None:
        return cfg
    if dt <= 0:
        raise ConfigError(f"--dt must be positive, got {dt}")
    if not math.isfinite(dt):
        raise ConfigError(f"--dt must be finite, got {dt}")
    return replace(cfg, base=replace(cfg.base, dt=float(dt)))


def _guarded_run(cfg: RunConfig, out, stem: str) -> int:
    try:
        summary = run_config(cfg, out, stem=stem)
    except (UnitarityError, DispersiveRegimeError, FloatingPointError, np.linalg.LinAlgError, ValueError, RuntimeError) as exc:
        _emit_error("numerical", exc)
        return 2
    except OSError as exc:
        _emit_error("io", exc)
        return 3
    if cfg.mode == "effective":
        print(json.dumps(summary, sort_keys=True))
    return 0


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"kind": kind, "error": str(exc)}), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scgates",
        description="Two-qubit gate fidelity sweeps for weakly anharmonic superconducting qubits.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", metavar="PATH", help="JSON run configuration")
    group.add_argument(
        "--reproduce",
        metavar="FIGURE",
        choices=presets.FIGURE_IDS,
        help=f"built-in figure preset, one of: {', '.join(presets.FIGURE_IDS)}",
    )
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--dt", type=float, help="ramp discretization override, ns")
    parser.add_argument("--jobs", type=int, default=1, help="ignored, kept for compatibility")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        _emit_error("config", ValueError(f"--jobs must be at least 1, got {args.jobs}"))
        return 1
    if args.config is not None:
        return run(args.config, args.out, args.dt, args.jobs)
    return reproduce(args.reproduce, args.out, args.dt, args.jobs)


if __name__ == "__main__":
    sys.exit(main())
