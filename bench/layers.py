"""Which ``scgates`` functions the traced run wraps, and the per-layer metrics.

Each public function is wrapped under every module-level name its callers
look it up by (``run_gate`` in ``sweeps``, ``cli`` and the package namespace,
``propagate_schedule`` in ``gates``, ...), and each keeps one span name,
``<layer>.<function>``, wherever it is called from.  Per-layer metrics are
per round of the workload: counts and ``_s`` totals are divided by the
number of rounds, ``_ms`` values are medians per call unless named as a
percentile.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import self_times

FIGURES = ("fig3a", "fig4a", "fig4b", "fig5", "fig6a", "fig6b", "fig7a", "fig7b")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("gates.fidelity_calls", "count", "lower"),
    ("gates.fidelity_ms_p50", "ms", "lower"),
    ("gates.fidelity_ms_p99", "ms", "lower"),
    ("gates.fidelity_s", "s", "lower"),
    ("gates.project_ms", "ms", "lower"),
    ("gates.run_gate_self_ms", "ms", "lower"),
    ("evolution.ramp_ms_per_ns", "ms/ns", "lower"),
    ("evolution.steps", "count", "lower"),
    ("evolution.schedule_calls", "count", "lower"),
    ("evolution.constant_ms", "ms", "lower"),
    ("evolution.self_s", "s", "lower"),
    ("hamiltonians.parts_calls", "count", "lower"),
    ("hamiltonians.parts_ms", "ms", "lower"),
    ("dispersive.couplings_calls", "count", "lower"),
    ("dispersive.couplings_s", "s", "lower"),
    ("sweeps.points", "count", "lower"),
    ("sweeps.threshold_points", "count", "lower"),
    ("sweeps.point_self_ms", "ms", "lower"),
    ("sweeps.sweep_s", "s", "lower"),
    ("sweeps.worker_busy_s", "s", "lower"),
    ("sweeps.orchestration_s", "s", "lower"),
    ("cli.parse_ms", "ms", "lower"),
    ("cli.write_ms", "ms", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
) + tuple((f"cli.reproduce_s.{fig}", "s", "lower") for fig in FIGURES)


def _schedule_attrs(span, args, result) -> None:
    span.attrs["ramp_ns"] = sum(s.duration for s in args[1].segments if not s.is_constant)
    span.attrs["steps"] = result.steps_used


def _figure_attr(span, args, result) -> None:
    span.attrs["figure"] = args[0]


def trace_targets(scgates):
    """``(module, attr, span name, annotate)`` for every wrapped lookup site."""
    from scgates import cli, evolution, gates, sweeps

    sites = {
        "gates.run_gate": [scgates, cli, sweeps],
        "gates.gate_fidelity": [scgates, gates],
        "gates.gate_time": [cli, sweeps, gates],
        "gates.project_computational": [gates],
        "evolution.propagate_schedule": [gates],
        "hamiltonians.hamiltonian_parts": [evolution],
        "dispersive.effective_couplings": [cli, sweeps, gates],
        "sweeps.sweep": [cli, sweeps],
        "sweeps.evaluate_point": [sweeps],
        "sweeps.threshold": [cli],
        "sweeps.truncation_study": [cli],
        "sweeps.ramp_study": [cli],
        "sweeps.detrended_amplitude": [cli],
        "cli.parse_config": [cli],
        "cli.run_config": [cli],
        "cli.reproduce": [cli],
        "cli.run": [cli],
    }
    annotate = {"evolution.propagate_schedule": _schedule_attrs, "cli.reproduce": _figure_attr}
    return [
        (module, name.split(".")[1], name, annotate.get(name))
        for name, modules in sites.items()
        for module in modules
    ]


def install(tracer, scgates) -> None:
    from scgates import sweeps

    tracer.install(trace_targets(scgates))
    tracer.patch(sweeps, "ThreadPoolExecutor", tracer.pool_class())


def _median_ms(values) -> float:
    return float(np.median(values)) * 1e3 if len(values) else 0.0


def layer_metrics(spans, rounds: int, artifact_bytes: float) -> dict[str, float]:
    """Per-layer metrics of one run's spans, per round of the workload."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    name_of = {s.id: s.name for s in spans}

    def durations(name):
        return [s.duration for s in by_name[name]]

    def selfs(items):
        return [own[s.id] for s in items]

    fid = durations("gates.gate_fidelity")
    schedules = by_name["evolution.propagate_schedule"]
    ramped = [s for s in schedules if s.attrs.get("ramp_ns", 0) > 0]
    ramp_ns = sum(s.attrs["ramp_ns"] for s in ramped)
    points = by_name["sweeps.evaluate_point"]
    swept = [s for s in points if name_of.get(s.parent) == "sweeps.sweep"]
    sweeps_ = by_name["sweeps.sweep"]
    metrics = {
        "gates.fidelity_calls": len(fid) / rounds,
        "gates.fidelity_ms_p50": float(np.percentile(fid, 50)) * 1e3 if fid else 0.0,
        "gates.fidelity_ms_p99": float(np.percentile(fid, 99)) * 1e3 if fid else 0.0,
        "gates.fidelity_s": sum(fid) / rounds,
        "gates.project_ms": _median_ms(durations("gates.project_computational")),
        "gates.run_gate_self_ms": _median_ms(selfs(by_name["gates.run_gate"])),
        "evolution.ramp_ms_per_ns": sum(selfs(ramped)) * 1e3 / ramp_ns if ramp_ns else 0.0,
        "evolution.steps": sum(s.attrs.get("steps", 0) for s in schedules) / rounds,
        "evolution.schedule_calls": len(schedules) / rounds,
        "evolution.constant_ms": _median_ms(
            selfs([s for s in schedules if s.attrs.get("ramp_ns", 0) == 0])
        ),
        "evolution.self_s": sum(selfs(schedules)) / rounds,
        "hamiltonians.parts_calls": len(by_name["hamiltonians.hamiltonian_parts"]) / rounds,
        "hamiltonians.parts_ms": _median_ms(durations("hamiltonians.hamiltonian_parts")),
        "dispersive.couplings_calls": len(by_name["dispersive.effective_couplings"]) / rounds,
        "dispersive.couplings_s": sum(durations("dispersive.effective_couplings")) / rounds,
        "sweeps.points": len(swept) / rounds,
        "sweeps.threshold_points": sum(
            name_of.get(s.parent) == "sweeps.threshold" for s in points
        ) / rounds,
        "sweeps.point_self_ms": _median_ms(selfs(points)),
        "sweeps.sweep_s": sum(s.duration for s in sweeps_) / rounds,
        "sweeps.worker_busy_s": sum(s.duration for s in swept) / rounds,
        "sweeps.orchestration_s": sum(selfs(sweeps_)) / rounds,
        "cli.parse_ms": _median_ms(durations("cli.parse_config")),
        "cli.write_ms": _median_ms(selfs(by_name["cli.run_config"])),
        "cli.artifact_bytes": artifact_bytes,
    }
    for fig in FIGURES:
        metrics[f"cli.reproduce_s.{fig}"] = _median_ms(
            [s.duration for s in by_name["cli.reproduce"] if s.attrs.get("figure") == fig]
        ) / 1e3
    return metrics
