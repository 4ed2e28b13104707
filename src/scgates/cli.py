"""Command-line entry point: JSON configs in, CSV/JSON/plot-script artifacts out.

A run is described either by a JSON config file (``--config``) or by a named
built-in figure preset (``--reproduce``).  Every run writes three artifacts
into the output directory: a CSV table of results, a JSON summary and a
gnuplot script that plots the CSV without further dependencies.  Config
parsing is strict: unknown keys anywhere in the file are rejected, which
catches unit mistakes and typos before any computation starts.  The system,
qubit, axis and schedule objects are read from the fields of the dataclasses
they build, and the CSV columns and summary keys from those of the result
types, so each schema is stated once, by its dataclass.

What a run mode is lives in one place, ``_MODE_TABLE``: for each mode, the
number of sweep axes it takes, the runner that computes its summary and grids,
and the keys its summary must carry.  ``MODES``, the config's axis count,
``execute`` and ``validate_summary`` all read it.

Exit codes: 0 success, 1 config error (nothing is written), 2 numerical
failure, or a run that needs more memory than it can get (error kind
``memory``; nothing is written), 3 the output directory or an artifact could
not be written.  The artifacts are written under temporary names and renamed
only once all three are written, so a failed write leaves none of them.
Errors are also emitted as single-line JSON on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Callable
from contextlib import suppress
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from functools import cache
from itertools import pairwise
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import presets
from .dispersive import DispersiveRegimeError, EffectiveCouplings, effective_couplings
from .evolution import UnitarityError, trapezoid_schedule
from .gates import GateResult, gate_target, gate_time, run_gate
from .hamiltonians import DirectSystemSpec, IndirectSystemSpec
from .sweeps import (
    SweepAxis,
    SweepBase,
    SweepGrid,
    SweepPoint,
    ThresholdResult,
    detrended_amplitude,
    ramp_study,
    sweep,
    threshold,
    truncation_study,
)

#: Levels reported in 1D sweep summaries (skipped when the curve starts below).
SUMMARY_THRESHOLD_LEVELS = (0.95, 0.99)

#: A sweep row's columns after its axis values: the fields of ``SweepPoint`` after ``values``.
CSV_VALUE_COLUMNS = tuple(field.name for field in fields(SweepPoint))[1:]


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
    if type(value) is not types:  # a value of exactly the field's type needs neither step
        if types is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
            raise ConfigError(f"key {key!r} in {where} has wrong type {type(value).__name__}")
    if types is float and not math.isfinite(value):
        raise ConfigError(f"key {key!r} in {where} must be finite, got {value}")
    return value


@cache
def _schema(cls, extra: frozenset[str] = frozenset(), only: tuple[str, ...] | None = None):
    """``(keys, fields)`` of a JSON object read into dataclass ``cls``, resolved once per class.

    ``fields`` holds ``(name, type, default, required, nested)`` for each
    field of ``cls``, or each named in ``only``, in field order.  A field
    without a default is required; a dataclass-typed field is read from its
    own object, and ``nested`` is that dataclass's schema, else None.
    ``keys`` are the field names and ``extra``.
    """
    types = get_type_hints(cls)
    specs = tuple(
        (f.name, types[f.name], f.default, f.default is MISSING,
         _schema(types[f.name]) if is_dataclass(types[f.name]) else None)
        for f in fields(cls)
        if only is None or f.name in only
    )
    return frozenset(spec[0] for spec in specs) | extra, specs


def _parse(obj, cls, where: str, schema=None):
    """``cls`` called with the typed values of the fields of ``schema`` in the JSON object ``obj``.

    ``schema`` defaults to ``_schema(cls)``.  Fields are read in order and
    passed by position; with ``cls`` None they are returned as a list.  Only
    the call's own ``ValueError`` is prefixed with ``where``.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    keys, specs = schema or _schema(cls)
    _check_keys(obj, keys, where)
    values = []
    for name, kind, default, required, nested in specs:
        if nested is None:
            values.append(_get(obj, name, kind, where, default, required))
        else:
            values.append(_parse(obj.get(name), kind, f"{where}.{name}", nested))
    if cls is None:
        return values
    try:
        return cls(*values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


#: Each system kind's spec and the schema of its object, which also holds ``kind``.
_SYSTEMS = {
    "direct": (DirectSystemSpec, _schema(DirectSystemSpec, frozenset({"kind"}))),
    "indirect": (IndirectSystemSpec, _schema(IndirectSystemSpec, frozenset({"kind"}))),
}

#: The schedule object holds the pulse fields of ``SweepBase``, which follow its gate.
_SCHEDULE = _schema(SweepBase, only=("tau_d", "dt"))


def _parse_system(obj, where: str = "system"):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    kind = _get(obj, "kind", str, where, required=True)
    if kind not in _SYSTEMS:
        raise ConfigError(f"{where}.kind must be 'direct' or 'indirect', got {kind!r}")
    cls, schema = _SYSTEMS[kind]
    return _parse(obj, cls, where, schema)


_TOP_KEYS = {
    "mode", "system", "gate", "schedule", "axes", "tie_anharm",
    "level", "n_levels_list", "tau_d_list", "output",
}


def _threshold_level(level) -> float:
    if level is None or not 0.0 < level < 1.0:
        raise ConfigError("mode 'threshold' needs a level strictly between 0 and 1")
    return level


def _n_levels_list(value) -> tuple[int, ...]:
    if not isinstance(value, list) or not value or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 2 for n in value
    ):
        raise ConfigError("mode 'truncation' needs n_levels_list of integers >= 2")
    if len(set(value)) < len(value):
        raise ConfigError(f"mode 'truncation' needs n_levels_list without repeated entries, got {value}")
    return tuple(value)


def _tau_d_list(value) -> tuple[float, ...]:
    if not isinstance(value, list) or not value or not all(
        isinstance(t, (int, float)) and not isinstance(t, bool) and 0 <= t < math.inf
        for t in value
    ):
        raise ConfigError("mode 'ramp' needs tau_d_list of non-negative finite durations")
    if len(set(value)) < len(value):
        raise ConfigError(f"mode 'ramp' needs tau_d_list without repeated entries, got {value}")
    return tuple(float(t) for t in value)


#: Config keys that only one mode takes: key -> (that mode, parser of the key's value).
#: The lists may not repeat an entry, because summaries key their results by entry.
_MODE_KEYS = {
    "level": ("threshold", _threshold_level),
    "n_levels_list": ("truncation", _n_levels_list),
    "tau_d_list": ("ramp", _tau_d_list),
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

    schedule = _parse(obj.get("schedule", {}), None, "schedule", _SCHEDULE)

    gate = _get(obj, "gate", str, "config", default=None)
    if mode == "effective":
        if not isinstance(system, IndirectSystemSpec):
            raise ConfigError("mode 'effective' needs an indirect system")
        gate = gate or "cz"
    elif gate is None:
        raise ConfigError(f"mode {mode!r} requires a gate")
    try:
        base = SweepBase(
            system,
            gate,
            *schedule,
            tie_anharm=_get(obj, "tie_anharm", bool, "config", default=False),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    axes_obj = obj.get("axes", [])
    if not isinstance(axes_obj, list):
        raise ConfigError("axes must be a list")
    axes = tuple(_parse(a, SweepAxis, f"axes[{i}]") for i, a in enumerate(axes_obj))
    expected = _MODE_TABLE[mode].n_axes
    if len(axes) != expected:
        raise ConfigError(f"mode {mode!r} needs exactly {expected} axes, got {len(axes)}")

    # A wrong-typed level is a type error in every mode, before any mode rule.
    _get(obj, "level", float, "config")
    mode_values = {}
    for key, (owner, parse) in _MODE_KEYS.items():
        if mode == owner:
            mode_values[key] = parse(obj.get(key))
        elif obj.get(key) is not None:
            raise ConfigError(f"key {key!r} only applies to mode {owner!r}")

    return RunConfig(
        mode=mode,
        base=base,
        axes=axes,
        **mode_values,
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
    """Round-trip-exact decimal formatting; NaN spells 'nan', as ``repr`` spells it."""
    if type(value) is float:
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


_CSV_VALUES = attrgetter(*CSV_VALUE_COLUMNS)


def _grid_rows(grid: SweepGrid, label: tuple[str, float] | None = None):
    """CSV rows of ``grid``, each led by the label's value if given; grid axis values are floats."""
    head = [_fmt(label[1])] if label else []
    for row in grid.rows:
        yield head + [repr(float(v)) for v in row.values] + [_fmt(v) for v in _CSV_VALUES(row)]


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


def _write_summary_csv(path: Path, summary: dict) -> None:
    """One-row CSV of a gate or effective run's scalar results, for uniform tooling."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        keys = [k for k in summary if k != "mode" and not isinstance(summary[k], dict)]
        writer.writerow(keys)
        writer.writerow([_fmt(summary[k]) for k in keys])


def _write_atomically(out: Path, writers) -> None:
    """Run each ``(name, write)`` on a temporary file in ``out``, then rename all to their names.

    The renames start only once every write has succeeded.  If a write
    fails, the temporaries are removed and the files already in ``out``
    stay as they were, so a failed run leaves none of its artifacts.
    """
    staged = []
    try:
        for name, write in writers:
            staged.append((out / f".{name}.{os.getpid()}.tmp", out / name))
            write(staged[-1][0])
        for tmp, final in staged:
            os.replace(tmp, final)
    except BaseException:
        for tmp, _ in staged:
            with suppress(OSError):
                tmp.unlink(missing_ok=True)
        raise


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
            entries.append(asdict(threshold(grid, level)))
        except ValueError as exc:
            entries.append({"level": level, "crossed": None, "note": str(exc)})
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


def _plot_script(csv_name: str, grids, label_name, label_values) -> str:
    """The gnuplot script for what a run returned: no grid, a labelled family, a map or a curve."""
    if not grids:
        return _PLOT_NONE
    axes = grids[0].axes
    if label_name:
        labels = " ".join(_fmt(v) for v in label_values)
        return _PLOT_FAMILY.format(csv=csv_name, xlabel=axes[0].name, labels=labels, label_name=label_name)
    if len(axes) == 2:
        return _PLOT_2D.format(csv=csv_name, xlabel=axes[0].name, ylabel=axes[1].name)
    return _PLOT_1D.format(csv=csv_name, xlabel=axes[0].name)


# --------------------------------------------------------------------------
# per-mode execution
#
# A runner takes a parsed config and returns (summary, grids, label): the
# summary without its "mode" key, the result grids, and for a family of grids
# the (name, values) of the column that tells them apart, else None.  Runners
# look the library functions up as module globals at call time, so wrapping
# those globals (as the benchmark's tracing does) sees every call.


def _run_gate(cfg: RunConfig):
    target = gate_target(cfg.base.gate)
    t_g = gate_time(cfg.base.system, target)
    schedule = trapezoid_schedule(cfg.base.tau_d, t_g)
    result = run_gate(cfg.base.system, target, schedule, cfg.base.dt)
    summary = {
        "gate": cfg.base.gate,
        "t_g_ns": t_g,
        "tau_d_ns": cfg.base.tau_d,
        **result.as_dict(),
    }
    return summary, [], None


def _run_effective(cfg: RunConfig):
    return effective_couplings(cfg.base.system).as_dict(), [], None


def _run_sweep(cfg: RunConfig):
    grid = sweep(cfg.base, cfg.axes)
    summary = {
        "gate": cfg.base.gate,
        "n_rows": len(grid.rows),
        **_extremal_rows(grid),
    }
    if len(cfg.axes) == 1:
        summary["thresholds"] = _threshold_entries(grid, SUMMARY_THRESHOLD_LEVELS)
    return summary, [grid], None


def _run_threshold(cfg: RunConfig):
    grid = sweep(cfg.base, cfg.axes)
    return {"gate": cfg.base.gate, **asdict(threshold(grid, cfg.level))}, [grid], None


def _run_truncation(cfg: RunConfig):
    grids = truncation_study(cfg.base, cfg.n_levels_list, cfg.axes[0])
    diffs = {
        f"{a}-{b}": float(np.max(np.abs(ga.fidelity_array() - gb.fidelity_array())))
        for (a, ga), (b, gb) in pairwise(zip(cfg.n_levels_list, grids))
    }
    summary = {
        "gate": cfg.base.gate,
        "n_levels_list": list(cfg.n_levels_list),
        "max_abs_fidelity_diff": diffs,
    }
    return summary, grids, ("n_levels", list(cfg.n_levels_list))


def _run_ramp(cfg: RunConfig):
    grids = ramp_study(cfg.base, cfg.tau_d_list, cfg.axes[0])
    summary = {
        "gate": cfg.base.gate,
        "tau_d_list": list(cfg.tau_d_list),
        "detrended_amplitudes": {
            _fmt(tau): detrended_amplitude(grid)
            for tau, grid in zip(cfg.tau_d_list, grids)
        },
    }
    return summary, grids, ("tau_d_ns", list(cfg.tau_d_list))


@dataclass(frozen=True)
class _Mode:
    n_axes: int
    run: Callable[[RunConfig], tuple[dict, list[SweepGrid], tuple[str, list] | None]]
    summary_keys: set[str]


def _field_names(cls) -> set[str]:
    return {field.name for field in fields(cls)}


#: Every run mode; its order is that of ``MODES``, which the unknown-mode error prints.
_MODE_TABLE = {
    "gate": _Mode(0, _run_gate, {"gate", "t_g_ns", *_field_names(GateResult)}),
    "sweep1d": _Mode(1, _run_sweep, {"gate", "n_rows", "max_fidelity", "min_fidelity", "thresholds"}),
    "sweep2d": _Mode(2, _run_sweep, {"gate", "n_rows", "max_fidelity", "min_fidelity"}),
    "effective": _Mode(0, _run_effective, _field_names(EffectiveCouplings)),
    "threshold": _Mode(1, _run_threshold, {"gate", *_field_names(ThresholdResult)}),
    "truncation": _Mode(1, _run_truncation, {"gate", "n_levels_list", "max_abs_fidelity_diff"}),
    "ramp": _Mode(1, _run_ramp, {"gate", "tau_d_list", "detrended_amplitudes"}),
}

MODES = tuple(_MODE_TABLE)


def execute(cfg: RunConfig):
    """Run one config; returns (summary, grids, label spec) without writing."""
    summary, grids, label = _MODE_TABLE[cfg.mode].run(cfg)
    return {"mode": cfg.mode, **summary}, grids, label


def validate_summary(summary: dict) -> None:
    """Check an emitted summary against the documented result schema."""
    if not isinstance(summary, dict) or "mode" not in summary:
        raise ValueError("summary must be an object with a 'mode' key")
    mode = summary["mode"]
    if not isinstance(mode, str) or mode not in _MODE_TABLE:
        raise ValueError(f"summary has unknown mode {mode!r}")
    missing = _MODE_TABLE[mode].summary_keys - set(summary)
    if missing:
        raise ValueError(f"summary for mode {mode!r} is missing keys {sorted(missing)}")


def run_config(cfg: RunConfig, out_dir: str | Path, jobs: int = 1, stem: str = "results") -> dict:
    """Execute a config and write csv/summary/plot artifacts into ``out_dir``, all or none.

    ``jobs`` is accepted for compatibility and ignored, as in ``sweeps.sweep``.
    """
    summary, grids, label = execute(cfg)
    validate_summary(summary)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_name = f"{stem}.csv"
    summary_name = "summary.json" if stem == "results" else f"{stem}_summary.json"
    plot_name = "plot.gp" if stem == "results" else f"{stem}_plot.gp"
    label_name, label_values = label or (None, None)
    summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    plot_text = _plot_script(csv_name, grids, label_name, label_values)

    def write_csv(path: Path) -> None:
        if grids:
            write_grids_csv(path, grids, label_name, label_values)
        else:
            _write_summary_csv(path, summary)

    _write_atomically(
        out,
        [
            (csv_name, write_csv),
            (summary_name, lambda path: path.write_text(summary_text, encoding="utf-8")),
            (plot_name, lambda path: path.write_text(plot_text, encoding="utf-8")),
        ],
    )
    return summary


def run(config_path: str | Path, out_dir=None, dt=None, jobs: int = 1) -> int:
    """CLI behaviour for ``--config``: parse, execute, write, map exit codes."""
    return _run_cli(lambda: load_config(config_path), out_dir, dt, "results")


def reproduce(figure_id: str, out_dir=None, dt=None, jobs: int = 1) -> int:
    """CLI behaviour for ``--reproduce``: run a built-in preset."""
    return _run_cli(
        lambda: parse_config(presets.figure_config(figure_id)), out_dir, dt, figure_id, f"{figure_id}_out"
    )


def _with_dt(cfg: RunConfig, dt: float | None) -> RunConfig:
    """``cfg`` with the ``--dt`` override applied, if one was given."""
    if dt is None:
        return cfg
    if dt <= 0:
        raise ConfigError(f"--dt must be positive, got {dt}")
    if not math.isfinite(dt):
        raise ConfigError(f"--dt must be finite, got {dt}")
    return replace(cfg, base=replace(cfg.base, dt=float(dt)))


def _run_cli(load, out_dir, dt, stem: str, default_out=None) -> int:
    """Load a config, apply ``--dt``, run it into the output directory, map errors to exit codes.

    The directory is ``out_dir``, else the config's ``output``, else
    ``default_out``; with none of them it is a config error.
    """
    try:
        cfg = _with_dt(load(), dt)
        out = out_dir or cfg.output or default_out
        if out is None:
            raise ConfigError("no output directory: set 'output' in the config or pass --out")
    except ValueError as exc:  # ConfigError is a ValueError
        _emit_error("config", exc)
        return 1
    try:
        summary = run_config(cfg, out, stem=stem)
    except (UnitarityError, DispersiveRegimeError, FloatingPointError, np.linalg.LinAlgError, ValueError, RuntimeError) as exc:
        _emit_error("numerical", exc)
        return 2
    except MemoryError as exc:
        _emit_error("memory", exc)
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
