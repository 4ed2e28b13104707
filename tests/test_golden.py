"""Every preset's artifacts, and one small config each for gate and threshold mode, pinned.

``tests/golden/<case>/`` holds the CSV, summary and plot script that each
case wrote when the files were generated.  The test reruns every case in
process and compares:

* headers, row order, statuses, ``t_g_ns`` and every non-float field exactly;
* plot scripts byte for byte;
* every other float, fidelities and leakages included, to an absolute 1e-11;
  ``theta_a`` and ``theta_b`` modulo pi and ``theta_global`` modulo 2 pi.

This is a change detector, not an accuracy target: the oracles of the
acceptance suite say whether the numbers are right.  A change may regenerate
the files only when it means to move the numbers, and it then states the
numeric change and its largest deltas in CHANGES.md.  Never regenerate them to
hide a failure.  To regenerate::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

from scgates import cli, presets

GOLDEN = Path(__file__).parent / "golden"

TOL = 1e-11

#: Float fields compared modulo a period rather than absolutely.
PERIODS = {"theta_a": math.pi, "theta_b": math.pi, "theta_global": 2 * math.pi}

#: Float fields compared exactly.
EXACT = {"t_g_ns"}

_DIRECT_CZ = {
    "kind": "direct",
    "qubit_a": {"freq": 7.16, "anharm": 0.087},
    "qubit_b": {"freq": 7.274, "anharm": 0.114},
    "g": 0.0091,
}

#: Small configs for the modes no preset runs; ``effective`` has a preset.
CONFIGS = {
    "gate": {"mode": "gate", "system": _DIRECT_CZ, "gate": "cz", "schedule": {"tau_d": 1.0}},
    "threshold": {
        "mode": "threshold",
        "system": {
            "kind": "direct",
            "qubit_a": {"freq": 5.5, "anharm": 0.15},
            "qubit_b": {"freq": 5.5, "anharm": 0.10},
            "g": 0.011,
        },
        "gate": "iswap",
        "level": 0.99,
        "axes": [{"name": "g_over_delta_b", "start": 0.05, "stop": 0.5, "n_points": 10}],
    },
}

CASES = (*presets.FIGURE_IDS, "effective", *CONFIGS)


def _write_case(case: str, out: Path) -> None:
    """Run one case into ``out`` through the CLI's own entry points."""
    if case in CONFIGS:
        path = out / "config.json"
        out.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(CONFIGS[case]), encoding="utf-8")
        code = cli.run(path, out)
        path.unlink()
    else:
        code = cli.reproduce(case, out)
    assert code == 0, f"{case} exited {code}"


def _close(name: str, golden, actual) -> bool:
    if not isinstance(golden, float) or not isinstance(actual, float):
        return type(golden) is type(actual) and golden == actual
    if math.isnan(golden) or math.isnan(actual):
        return math.isnan(golden) and math.isnan(actual)
    if name in EXACT:
        return golden == actual
    delta = abs(golden - actual)
    if name in PERIODS:
        delta %= PERIODS[name]
        delta = min(delta, PERIODS[name] - delta)
    return delta <= TOL


def _compare_json(golden, actual, where: str, name: str = "") -> None:
    if isinstance(golden, dict):
        assert isinstance(actual, dict) and list(golden) == list(actual), f"{where}: keys differ"
        for key in golden:
            _compare_json(golden[key], actual[key], f"{where}.{key}", key)
    elif isinstance(golden, list):
        assert isinstance(actual, list) and len(golden) == len(actual), f"{where}: lengths differ"
        for i, (g, a) in enumerate(zip(golden, actual)):
            _compare_json(g, a, f"{where}[{i}]", name)
    else:
        assert _close(name, golden, actual), f"{where}: {golden!r} != {actual!r}"


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _compare_csv(golden: Path, actual: Path) -> None:
    with open(golden, encoding="utf-8", newline="") as g, open(actual, encoding="utf-8", newline="") as a:
        g_rows, a_rows = list(csv.reader(g)), list(csv.reader(a))
    assert g_rows[0] == a_rows[0], f"{golden.name}: header differs"
    assert len(g_rows) == len(a_rows), f"{golden.name}: row count differs"
    header = g_rows[0]
    for i, (g_row, a_row) in enumerate(zip(g_rows[1:], a_rows[1:]), start=1):
        assert len(g_row) == len(a_row) == len(header), f"{golden.name} row {i}: width differs"
        for name, g_text, a_text in zip(header, g_row, a_row):
            assert _close(name, _cell(g_text), _cell(a_text)), f"{golden.name} row {i} {name}: {g_text} != {a_text}"


@pytest.mark.parametrize("case", CASES)
def test_artifacts_match_the_golden_files(case, tmp_path):
    _write_case(case, tmp_path)
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        golden, actual = GOLDEN / case / name, tmp_path / name
        if name.endswith(".csv"):
            _compare_csv(golden, actual)
        elif name.endswith(".json"):
            _compare_json(json.loads(golden.read_text()), json.loads(actual.read_text()), name)
        else:
            assert actual.read_bytes() == golden.read_bytes(), f"{case}/{name} differs"


def test_every_case_has_golden_files():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case in CASES:
        _write_case(case, GOLDEN / case)
    sys.exit(0)
