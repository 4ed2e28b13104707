"""The benchmark's three workloads: inputs from the seed, and one timed round.

Each workload is set up once, then runs whole rounds of the same
operations.  ``run_round`` is the only timed code; it returns the wall time
of each call in the round, always in the same order, and keeps the outputs
for ``checks``.  ``call_rows`` gives, per call, the number of results it
produces, which turns a call's time into a latency per result.  Nothing
here imports scipy or the oracles, so a set-up probe loads only what the
program itself needs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from layers import FIGURES

JOBS = 2


def rows_of(cfg: dict) -> int:
    """CSV rows a sweep, truncation or ramp config writes."""
    n = int(np.prod([ax["n_points"] for ax in cfg["axes"]]))
    return n * len(cfg.get("n_levels_list") or cfg.get("tau_d_list") or [1])


class _CliWorkload:
    """Common part of the two workloads that drive the command line in-process.

    Each round writes its artifacts into a directory of its own under ``out``.
    A call is one command-line invocation, and its results are the CSV rows
    it writes: an untraced run cannot time single gate evaluations without
    wrapping them.
    """

    min_rounds = 1

    def __init__(self, out: Path):
        self.out = out
        self.rounds: list[Path] = []
        self.exit_codes: list[int] = []

    def _main(self, argv) -> float:
        t0 = time.perf_counter()
        code = self.cli.main(argv)
        elapsed = time.perf_counter() - t0
        self.exit_codes.append(code)
        return elapsed

    def _next_round_dir(self) -> Path:
        out = self.out / f"round{len(self.rounds)}"
        self.rounds.append(out)
        return out

    def artifact_bytes(self) -> float:
        sizes = [sum(p.stat().st_size for p in d.iterdir()) for d in self.rounds]
        return float(np.mean(sizes))


class PresetsSquare(_CliWorkload):
    """The eight square-pulse figure presets through ``scgates --reproduce``.

    The seed sets the order of the presets within a round.
    """

    name = "presets-square"

    def setup(self, seed: int) -> None:
        from scgates import cli, presets

        self.cli = cli
        self.figures = list(FIGURES)
        np.random.default_rng(seed).shuffle(self.figures)
        self.configs = {fig: presets.figure_config(fig) for fig in self.figures}
        self.call_rows = [rows_of(self.configs[fig]) for fig in self.figures]

    def run_round(self) -> list[float]:
        out = self._next_round_dir()
        argv = ["--out", str(out), "--jobs", str(JOBS)]
        return [self._main(["--reproduce", fig, *argv]) for fig in self.figures]


class RampCz(_CliWorkload):
    """A ramp study of the fig3b system: five ramp durations on five couplings.

    Five points are what the cubic detrend needs.  The seed moves each end of
    the fig3b coupling axis inward by up to 0.02; the cost of a ramp depends
    on its duration, not on the coupling.
    """

    name = "ramp-cz"

    def setup(self, seed: int) -> None:
        from scgates import cli, presets

        self.cli = cli
        rng = np.random.default_rng(seed)
        cfg = presets.figure_config("fig3b")
        axis = cfg["axes"][0]
        axis["start"] += 0.02 * float(rng.random())
        axis["stop"] -= 0.02 * float(rng.random())
        axis["n_points"] = 5
        self.config = cfg
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_path = self.out / "ramp.json"
        self.config_path.write_text(json.dumps(cfg), encoding="utf-8")
        self.call_rows = [rows_of(cfg)]

    def run_round(self) -> list[float]:
        out = self._next_round_dir()
        return [self._main(["--config", str(self.config_path), "--out", str(out), "--jobs", str(JOBS)])]


class SingleGate:
    """Closed loop of single calls from one caller: ``run_gate`` and ``gate_fidelity``.

    ``run_gate`` runs square pulses at the three published operating points,
    each coupling moved by up to 1% with the seed.  ``gate_fidelity`` scores
    250 contractions against both targets.  The contractions are always the
    first 250 drawn from ``default_rng(1)``: number 50 scored against CZ is
    under-reported by 9.0e-5 by the program's phase search, the one known
    fault kept as a failed operation, and it must fall on the same operation
    at every seed.  Other generator seeds give contractions on which the
    search fails too, which would make the failed share depend on the seed.
    The seed sets the call order.  A round is 525 calls; two rounds, the
    least a run makes, are over 1,000 timed calls.
    """

    name = "single-gate"
    min_rounds = 2
    POOL_SEED = 1
    POOL_SIZE = 250
    KNOWN_FAULT = (50, "cz")
    RUN_GATE_EVERY = 10  # one run_gate call after every ten contractions

    def __init__(self, out: Path):
        self.out = out
        self.results: list[list] = []

    def setup(self, seed: int) -> None:
        import scgates
        from scgates import cli, presets

        self.scgates = scgates
        rng = np.random.default_rng(seed)
        self.points = []
        for fig in ("fig3a", "fig3b", "fig6b"):  # direct iSWAP, direct CZ, cavity CZ
            cfg = presets.figure_config(fig)
            system = cfg["system"]
            key = "g" if system["kind"] == "direct" else "g_qc"
            system[key] *= 1.0 + 0.01 * (2.0 * float(rng.random()) - 1.0)
            parsed = cli.parse_config({"mode": "gate", "system": system, "gate": cfg["gate"]})
            self.points.append((system, cfg["gate"], parsed.base.system, scgates.gate_target(cfg["gate"])))
        pool = np.random.default_rng(self.POOL_SEED)
        self.pool = []
        for _ in range(self.POOL_SIZE):
            z = pool.normal(size=(4, 4)) + 1j * pool.normal(size=(4, 4))
            self.pool.append(z / max(1.0, np.linalg.svd(z, compute_uv=False)[0]))
        targets = {kind: scgates.gate_target(kind) for kind in ("iswap", "cz")}
        self.ops = []
        for n, i in enumerate(rng.permutation(self.POOL_SIZE)):
            for kind in rng.permutation(["iswap", "cz"]):
                self.ops.append(("fidelity", int(i), str(kind), targets[str(kind)]))
            if n % self.RUN_GATE_EVERY == self.RUN_GATE_EVERY - 1:
                self.ops.append(("gate", (n // self.RUN_GATE_EVERY) % len(self.points), None, None))
        self.call_rows = [1] * len(self.ops)

    def run_round(self) -> list[float]:
        run_gate, gate_fidelity = self.scgates.run_gate, self.scgates.gate_fidelity
        results, samples = [], []
        clock = time.perf_counter
        for op, i, _, target in self.ops:
            t0 = clock()
            if op == "fidelity":
                result = gate_fidelity(self.pool[i], target)
            else:
                _, _, spec, gate = self.points[i]
                result = run_gate(spec, gate)
            samples.append(clock() - t0)
            results.append(result)
        self.results.append(results)
        return samples


WORKLOADS = {w.name: w for w in (PresetsSquare, RampCz, SingleGate)}
