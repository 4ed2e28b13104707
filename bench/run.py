"""Run one benchmark workload and print its result as one JSON line.

From the repository root:

    python3 bench/run.py --workload presets-square --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the current directory.  A run sets
up the workload, then runs whole rounds until ``--seconds`` have passed (at
least the workload's minimum), then checks the outputs against independent oracles.  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1`` the
package's public functions are wrapped and the result holds per-layer
metrics instead.  The BLAS thread count is fixed to 1 before numpy loads.
Progress and provenance go to stderr; the last stdout line is the result.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
TRACES = ROOT / "bench" / "traces"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def import_program():
    """Import ``scgates`` from this checkout's ``src/`` and nowhere else."""
    package = SRC / "scgates"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: {package} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    import scgates

    if Path(scgates.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: scgates was imported from {scgates.__file__}")
    return scgates


def measure_setup(args) -> float:
    """Median time from spawning a fresh interpreter to a set-up workload."""
    samples = []
    for k in range(SETUP_PROBES):
        argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                "--setup-probe", str(k)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout.startswith("ready"):
            raise SystemExit(f"bench: set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[1]) - t0)
    return statistics.median(samples)


def provenance() -> str:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"{blas.get('name')} {blas.get('version')}, "
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, cpus {os.cpu_count()}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe is not None:
        out = OUT / f"probe-{os.getpid()}"
        try:
            import_program()
            WORKLOADS[args.workload](out).setup(args.seed)
            print("ready", time.perf_counter(), flush=True)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return 0

    setup_s = measure_setup(args)
    out = OUT / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, setup_s, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _run(args, setup_s: float, out: Path) -> int:
    scgates = import_program()
    print(f"bench: {args.workload} seed {args.seed}: {provenance()}", file=sys.stderr)
    tracer = None
    if args.trace:  # before set-up, which parses the single-gate configs
        tracer = Tracer()
        layers.install(tracer, scgates)
    workload = WORKLOADS[args.workload](out)
    workload.setup(args.seed)

    rounds = []
    start = time.perf_counter()
    while len(rounds) < workload.min_rounds or time.perf_counter() - start < args.seconds:
        rounds.append(workload.run_round())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    from checks import CHECKS  # loads scipy, which the program itself does not use

    # Each call's least time over the rounds: the host's speed drifts by tens
    # of percent for seconds at a time, and a repeat spared by such a spell
    # is the one that measures the program.
    per_call = np.min(np.array(rounds), axis=0)
    wall_s = float(per_call.sum())
    attempted, failed, problems = CHECKS[args.workload](workload)
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(f"bench: {len(rounds)} rounds of {len(rounds[0])} timed calls, wall_s {wall_s:.3f}, "
          f"{attempted} operations, {failed} failed, {len(problems)} problems", file=sys.stderr)

    if tracer is None:
        latency_ms = per_call / np.array(workload.call_rows) * 1e3
        values = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "gate_ms_p50": (float(np.percentile(latency_ms, 50)), "ms"),
            "gate_ms_p99": (float(np.percentile(latency_ms, 99)), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        TRACES.mkdir(parents=True, exist_ok=True)
        tracer.write(TRACES / f"{args.workload}-seed{args.seed}.jsonl")
        artifact_bytes = workload.artifact_bytes() if hasattr(workload, "artifact_bytes") else 0.0
        per_layer = layers.layer_metrics(tracer.spans, len(rounds), artifact_bytes)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        values = {name: (per_layer[name], units[name]) for name in units}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
