"""Correctness checks of each workload's outputs, run after the timed rounds.

The first round's outputs are compared with ``oracles``, which share no code
with ``scgates``; every later round must repeat the first exactly.  Each
check returns (attempted, failed, problems).  ``failed`` counts only the
operation a workload keeps on purpose as a known fault; any other mismatch
is a problem and makes the run incorrect.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import oracles
from workloads import rows_of

F_TOL = 1e-8  # every fidelity, leakage and gate time against its oracle
SYMMETRY_TOL = 1e-9  # fig4a under exchange of the two anharmonicity axes
TRUNCATION_TOL = 0.01  # successive level counts in a truncation family
BISECTION_WIDTH = 1e-4  # axis resolution of the program's threshold bisection


def _close(a: float, b: float, tol: float = F_TOL) -> bool:
    return abs(a - b) <= tol


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _check_row(row: dict, system: dict, gate: str, tau_d: float, where: str) -> tuple[float, list[str]]:
    """One CSV row against the oracle; returns the oracle's F and the problems found."""
    if row["status"] != "ok":
        return float("nan"), [f"{where}: status {row['status']}"]
    problems = []
    fid, leak = float(row["fidelity"]), float(row["leakage"])
    if not (0.0 <= fid <= 1.0 and 0.0 <= leak <= 1.0):
        problems.append(f"{where}: F={fid} or leakage={leak} outside [0, 1]")
    m = oracles.gate_block(system, gate, tau_d)
    f_ref = oracles.best_fidelity(m, gate)
    if not _close(fid, f_ref):
        problems.append(f"{where}: F={fid!r}, oracle {f_ref!r}")
    if not _close(leak, oracles.leakage(m)):
        problems.append(f"{where}: leakage={leak!r}, oracle {oracles.leakage(m)!r}")
    t_ref = oracles.gate_time(system, gate)
    if not _close(float(row["t_g_ns"]), t_ref):
        problems.append(f"{where}: t_g={row['t_g_ns']}, closed form {t_ref!r}")
    phases = (float(row["theta_a"]), float(row["theta_b"]), float(row["theta_global"]))
    f_phases = oracles.explicit_fidelity(m, gate, *phases)
    if not _close(f_phases, fid):
        problems.append(f"{where}: reported phases give F={f_phases!r}, reported {fid!r}")
    return f_ref, problems


def _check_repeats(workload) -> list[str]:
    """Exit codes, and every later round's artifacts byte-identical to the first's."""
    problems = [f"exit code {c}" for c in workload.exit_codes if c != 0]
    first = workload.rounds[0]
    names = sorted(p.name for p in first.iterdir())
    for other in workload.rounds[1:]:
        if names != sorted(p.name for p in other.iterdir()):
            problems.append(f"{other.name}: artifact names differ from {first.name}")
            continue
        problems += [
            f"{other.name}/{n}: differs from {first.name}"
            for n in names
            if (first / n).read_bytes() != (other / n).read_bytes()
        ]
    return problems


def check_presets(workload) -> tuple[int, int, list[str]]:
    problems = _check_repeats(workload)
    attempted = 0
    first = workload.rounds[0]
    for fig in workload.figures:
        cfg = workload.configs[fig]
        rows = _read_csv(first / f"{fig}.csv")
        summary = _read_json(first / f"{fig}_summary.json")
        if len(rows) != rows_of(cfg):
            problems.append(f"{fig}: {len(rows)} rows, expected {rows_of(cfg)}")
        names = [ax["name"] for ax in cfg["axes"]]
        f_lib, f_ref = [], []
        for i, row in enumerate(rows):
            n_levels = int(row["n_levels"]) if "n_levels" in row else None
            system = oracles.point_system(cfg, {n: float(row[n]) for n in names}, n_levels)
            ref, found = _check_row(row, system, cfg["gate"], 0.0, f"{fig} row {i}")
            problems += found
            f_lib.append(float(row["fidelity"]))
            f_ref.append(ref)
        problems += _check_summary(fig, cfg, rows, summary, np.array(f_lib), np.array(f_ref))
        attempted += len(rows) + len(summary.get("thresholds", ()))
    return attempted * len(workload.rounds), 0, problems


def _check_summary(fig, cfg, rows, summary, f_lib, f_ref) -> list[str]:
    """Method properties and the summary entries of one preset."""
    problems = []
    mode = cfg["mode"]
    if fig == "fig4a":
        grid = f_lib.reshape(cfg["axes"][0]["n_points"], cfg["axes"][1]["n_points"])
        asym = float(np.max(np.abs(grid - grid.T)))
        if asym > SYMMETRY_TOL:
            problems.append(f"fig4a: exchange asymmetry {asym:.3e} > {SYMMETRY_TOL:g}")
    if mode == "truncation":
        levels = cfg["n_levels_list"]
        lib, ref = f_lib.reshape(len(levels), -1), f_ref.reshape(len(levels), -1)
        for k, (a, b) in enumerate(zip(levels, levels[1:])):
            if float(np.max(np.abs(lib[k] - lib[k + 1]))) >= TRUNCATION_TOL:
                problems.append(f"{fig}: levels {a} and {b} differ by {TRUNCATION_TOL:g} or more")
            diff = float(np.max(np.abs(ref[k] - ref[k + 1])))
            reported = summary["max_abs_fidelity_diff"][f"{a}-{b}"]
            if not _close(reported, diff):
                problems.append(f"{fig}: summary diff {a}-{b} {reported!r}, oracle {diff!r}")
    if mode in ("sweep1d", "sweep2d"):
        if summary["n_rows"] != len(rows):
            problems.append(f"{fig}: summary n_rows {summary['n_rows']}")
        for key, pick in (("max_fidelity", np.max), ("min_fidelity", np.min)):
            if not _close(summary[key]["fidelity"], float(pick(f_ref))):
                problems.append(f"{fig}: summary {key} {summary[key]['fidelity']!r}")
    if mode == "sweep1d":
        problems += _check_thresholds(fig, cfg, f_ref, summary["thresholds"])
    return problems


def _check_thresholds(fig, cfg, f_ref, entries) -> list[str]:
    """Replay each summary threshold's bisection on oracle fidelities.

    The program halves the first grid interval that crosses the level until
    it is no wider than 1e-4 and reports its midpoint; with the oracle's
    fidelities the same steps must land on the same value.
    """
    problems = []
    axis = cfg["axes"][0]
    x = np.linspace(axis["start"], axis["stop"], axis["n_points"])

    def system_at(value):
        return oracles.point_system(cfg, {axis["name"]: value})

    for entry in entries:
        level = entry["level"]
        if f_ref[0] <= level:
            if entry["crossed"] is not None:
                problems.append(f"{fig}: threshold {level} reported on a curve starting below it")
            continue
        below = np.flatnonzero(f_ref < level)
        if not len(below):
            if entry["crossed"] is not False:
                problems.append(f"{fig}: threshold {level} reported crossed, oracle never crosses")
            continue
        lo, hi = x[below[0] - 1], x[below[0]]
        while hi - lo > BISECTION_WIDTH:
            mid = 0.5 * (lo + hi)
            block = oracles.gate_block(system_at(mid), cfg["gate"])
            if oracles.best_fidelity(block, cfg["gate"]) >= level:
                lo = mid
            else:
                hi = mid
        value = 0.5 * (lo + hi)
        if not entry["crossed"] or entry["value"] is None or abs(entry["value"] - value) > 1e-12:
            problems.append(f"{fig}: threshold {level} at {entry.get('value')!r}, oracle {value!r}")
            continue
        t_ref = oracles.gate_time(system_at(value), cfg["gate"])
        if not _close(entry["t_g_ns"], t_ref):
            problems.append(f"{fig}: threshold {level} t_g {entry['t_g_ns']!r}, closed form {t_ref!r}")
    return problems


def check_ramp(workload) -> tuple[int, int, list[str]]:
    problems = _check_repeats(workload)
    cfg = workload.config
    first = workload.rounds[0]
    rows = _read_csv(first / "results.csv")
    summary = _read_json(first / "summary.json")
    if len(rows) != rows_of(cfg):
        problems.append(f"ramp: {len(rows)} rows, expected {rows_of(cfg)}")
    name = cfg["axes"][0]["name"]
    curves: dict[float, tuple[list, list]] = {}
    for i, row in enumerate(rows):
        tau, value = float(row["tau_d_ns"]), float(row[name])
        ref, found = _check_row(
            row, oracles.point_system(cfg, {name: value}), cfg["gate"], tau, f"ramp row {i}"
        )
        problems += found
        xs, fs = curves.setdefault(tau, ([], []))
        xs.append(value)
        fs.append(ref)
    for tau, (xs, fs) in curves.items():
        amp = oracles.detrended_amplitude(np.array(xs), np.array(fs))
        reported = summary["detrended_amplitudes"].get(repr(tau))
        if reported is None or not _close(reported, amp):
            problems.append(f"ramp: amplitude at tau_d={tau} {reported!r}, oracle {amp!r}")
    return (len(rows) + len(curves)) * len(workload.rounds), 0, problems


def check_single(workload) -> tuple[int, int, list[str]]:
    problems, failed = [], 0
    first = workload.results[0]
    blocks = {}
    for (op, i, kind, _), result in zip(workload.ops, first):
        if op == "fidelity":
            m, gate, where = workload.pool[i], kind, f"contraction {i} vs {kind}"
        else:
            system, gate, _, _ = workload.points[i]
            if i not in blocks:
                blocks[i] = oracles.gate_block(system, gate)
            m, where = blocks[i], f"run_gate at operating point {i}"
        if not 0.0 <= result.leakage <= 1.0 or not _close(result.leakage, oracles.leakage(m)):
            problems.append(f"{where}: leakage {result.leakage!r}")
        phases = (result.theta_a, result.theta_b, result.theta_global)
        if not _close(oracles.explicit_fidelity(m, gate, *phases), result.fidelity):
            problems.append(f"{where}: reported phases do not give the reported F")
        f_ref = oracles.best_fidelity(m, gate)
        if _close(result.fidelity, f_ref):
            continue
        if op == "fidelity" and (i, kind) == workload.KNOWN_FAULT:
            failed += 1
        else:
            problems.append(f"{where}: F={result.fidelity!r}, oracle {f_ref!r}")
    for later in workload.results[1:]:
        if [r.fidelity for r in later] != [r.fidelity for r in first]:
            problems.append("a later round gave other fidelities than the first")
    rounds = len(workload.results)
    return len(workload.ops) * rounds, failed * rounds, problems


CHECKS = {"presets-square": check_presets, "ramp-cz": check_ramp, "single-gate": check_single}
