"""A probe of the CLI's configs: every leaf of one config at a time, at extreme values.

Each template below is a small config of one run mode, square-pulsed or
ramped.  Each leaf of its ``system`` and ``schedule`` objects, each
``n_levels_list`` and ``tau_d_list`` entry, and each axis ``start``, ``stop``
and ``n_points`` is replaced in turn: a float leaf by each of ``FLOATS`` and
a count by each of ``COUNTS``.  Every such config runs through ``cli.main``
in process, and whatever it does, the CLI's contract must hold:

* nothing is raised, and the exit code is 0 to 3;
* a failed run prints exactly one stderr line, a JSON object of a documented
  ``kind`` and a non-empty ``error``, and writes nothing;
* a run that succeeds writes its three artifacts, its summary is RFC 8259
  JSON (no ``NaN`` or ``Infinity``) and passes ``validate_summary``, and so
  is the line an ``effective`` run prints;
* no warning is issued but the documented resonance ``UserWarning``, and
  nothing reaches stdout or stderr from below Python.

A few runs must also fail in a given way, naming what failed
(``NAMED``).
"""

from __future__ import annotations

import copy
import json
import warnings

import pytest

from scgates import cli

_DIRECT_ISWAP = {
    "kind": "direct",
    "qubit_a": {"freq": 5.5, "anharm": 0.15, "n_levels": 3},
    "qubit_b": {"freq": 5.5, "anharm": 0.10, "n_levels": 3},
    "g": 0.011,
}

_DIRECT_CZ = {
    "kind": "direct",
    "qubit_a": {"freq": 7.16, "anharm": 0.087, "n_levels": 3},
    "qubit_b": {"freq": 7.274, "anharm": 0.114, "n_levels": 3},
    "g": 0.0091,
}

_CAVITY_CZ = {
    "kind": "indirect",
    "qubit_a": {"freq": 8.2, "anharm": 0.20, "n_levels": 3},
    "qubit_b": {"freq": 8.45, "anharm": 0.25, "n_levels": 3},
    "cavity_freq": 6.9,
    "g_qc": 0.199,
    "n_photons": 5,
}

_SQUARE = {"tau_d": 0.0, "dt": 0.01}

_RATIO_AXIS = {"name": "g_over_delta_b", "start": 0.05, "stop": 0.5, "n_points": 3}

#: A 1 ns ramp on either side of the CZ pulse.
_RAMPED = {"tau_d": 1.0, "dt": 0.01}

TEMPLATES = {
    "gate-iswap": {"mode": "gate", "system": _DIRECT_ISWAP, "gate": "iswap", "schedule": _SQUARE},
    "gate-cz": {"mode": "gate", "system": _DIRECT_CZ, "gate": "cz", "schedule": _SQUARE},
    "gate-cavity-cz": {"mode": "gate", "system": _CAVITY_CZ, "gate": "cz", "schedule": _SQUARE},
    "gate-ramp-cz": {"mode": "gate", "system": _DIRECT_CZ, "gate": "cz", "schedule": _RAMPED},
    "sweep1d": {"mode": "sweep1d", "system": _DIRECT_ISWAP, "gate": "iswap", "schedule": _SQUARE, "axes": [_RATIO_AXIS]},
    "sweep2d": {
        "mode": "sweep2d",
        "system": {**_DIRECT_CZ, "g": 0.2},
        "gate": "cz",
        "schedule": _SQUARE,
        "axes": [
            {"name": "delta_a_over_g", "start": 0.5, "stop": 8.0, "n_points": 2},
            {"name": "delta_b_over_g", "start": 0.5, "stop": 8.0, "n_points": 2},
        ],
    },
    "threshold": {
        "mode": "threshold", "system": _DIRECT_ISWAP, "gate": "iswap", "schedule": _SQUARE,
        "axes": [_RATIO_AXIS], "level": 0.99,
    },
    "truncation": {
        "mode": "truncation", "system": _DIRECT_ISWAP, "gate": "iswap", "schedule": _SQUARE,
        "axes": [_RATIO_AXIS], "n_levels_list": [3, 4],
    },
    "effective": {"mode": "effective", "system": _CAVITY_CZ},
    "ramp": {
        "mode": "ramp", "system": _DIRECT_CZ, "gate": "cz", "schedule": {"dt": 0.01},
        "axes": [{"name": "g_over_delta_b", "start": 0.10, "stop": 0.45, "n_points": 5}], "tau_d_list": [0.0, 1.0],
    },
}

FLOATS = (0, -0.0, 5e-324, 1e-300, -1, 1e154, 1e200, 1e308, -1e308, 10**400)

COUNTS = (0, 1, -1, 2**63, 10**400)

#: The keys whose leaves are counts; every other leaf is a float.
COUNT_KEYS = {"n_levels", "n_photons", "n_levels_list", "n_points"}

KINDS = {"config", "numerical", "memory", "io"}

#: Runs that must fail in a given way: (template, leaf path, value) -> (exit code, text in the
#: stderr line of a failed run, or in the CSV or summary of one that succeeds, whose rows may fail).
NAMED = {
    ("gate-iswap", ("system", "qubit_b", "freq"), 1e308): (2, "freq_b = 1e+308 GHz"),
    ("gate-cz", ("system", "qubit_a", "freq"), 1e308): (2, "freq_a = 1e+308 GHz"),
    ("gate-cz", ("system", "qubit_b", "anharm"), 1e308): (2, "anharm_b = 1e+308 GHz"),
    ("gate-cavity-cz", ("system", "qubit_a", "freq"), 1e308): (2, "freq_a = 1e+308 GHz"),
    ("sweep1d", ("system", "qubit_b", "freq"), 1e308): (0, "error:OverflowError"),
    ("gate-iswap", ("system", "g"), 5e-324): (2, "g = 5e-324 GHz"),
    ("gate-iswap", ("system", "g"), 1e308): (2, "g = 1e+308 GHz"),
    ("gate-cz", ("system", "g"), 5e-324): (2, "g = 5e-324 GHz"),
    ("gate-cavity-cz", ("system", "g_qc"), 1e154): (2, "g_eff_1 = 7.692307692307698e+307 GHz (g_qc = 1e+154 GHz)"),
    ("sweep1d", ("system", "qubit_a", "n_levels"), 10**400): (1, "n_levels"),
    ("gate-cz", ("system", "qubit_b", "n_levels"), 2**63): (1, "n_levels"),
    ("effective", ("system", "n_photons"), 2**63): (1, "n_photons"),
    ("truncation", ("n_levels_list", 1), 10**400): (2, "n_levels"),
    ("gate-ramp-cz", ("system", "qubit_b", "freq"), 1e154): (2, "takes 507 squarings, more than 26"),
    ("sweep2d", ("axes", 0, "stop"), 1e308): (0, "1e+308,0.5,nan,nan,nan,nan,nan,nan,error:UnitarityError"),
    ("sweep1d", ("axes", 0, "stop"), 1e308): (0, '"note": "gate evaluation failed during bisection'),
    ("truncation", ("system", "qubit_b", "freq"), 1e308): (0, '"3-4": null'),
    ("effective", ("system", "qubit_a", "freq"), 1e308): (2, "dressed_freq_a2 = inf GHz"),
    ("effective", ("system", "g_qc"), 1e154): (2, "dressed_freq_a2 = inf GHz"),
    ("ramp", ("axes", 0, "stop"), 1e154): (2, "cannot detrend at degree 3 over axis values [0.1, 2.5e+153"),
}


def _leaves(obj, path=()):
    """The paths of the number leaves of ``obj``, a JSON object or list, in order."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, (*path, key))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield (*path, key)


def _probes(name):
    """``(path, values)`` of each leaf the probe replaces in template ``name``."""
    config = TEMPLATES[name]
    for top in ("system", "schedule", "n_levels_list", "tau_d_list", "axes"):
        if top in config:
            for path in _leaves({top: config[top]}):
                yield path, COUNTS if COUNT_KEYS.intersection(map(str, path)) else FLOATS


CASES = [(name, path, values) for name in TEMPLATES for path, values in _probes(name)]


def _replaced(config: dict, path, value) -> dict:
    config = copy.deepcopy(config)
    *head, last = path
    obj = config
    for key in head:
        obj = obj[key]
    obj[last] = value
    return config


def _strict(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def _outcome(tmp_path, capfd, config):
    """Run ``config`` through ``cli.main``; returns (exit code, stdout, stderr, warnings issued, out dir)."""
    tmp_path.mkdir()
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as issued:
        warnings.simplefilter("always")
        code = cli.main(["--config", str(path), "--out", str(out)])
    stdout, stderr = capfd.readouterr()
    return code, stdout, stderr, issued, out


def test_the_probe_covers_every_leaf_of_every_template():
    assert sum(len(values) for _, _, values in CASES) == 980
    assert {(name, path) for name, path, _ in NAMED} <= {(name, path) for name, path, _ in CASES}


@pytest.mark.parametrize(
    "name, path, values", CASES, ids=[f"{name}-{'.'.join(map(str, path))}" for name, path, _ in CASES]
)
def test_every_extreme_leaf_keeps_the_cli_contract(tmp_path, capfd, name, path, values):
    broken = []
    for i, value in enumerate(values):
        config = _replaced(TEMPLATES[name], path, value)
        code, stdout, stderr, issued, out = _outcome(tmp_path / str(i), capfd, config)
        faults = [
            f"{w.category.__name__}: {w.message}"
            for w in issued
            if not (w.category is UserWarning and "resonance condition" in str(w.message))
        ]
        lines = stderr.splitlines()
        if code == 0:
            written = sorted(p.name for p in out.iterdir()) if out.exists() else []
            if written != ["plot.gp", "results.csv", "summary.json"]:
                faults.append(f"wrote {written}")
            else:
                try:
                    cli.validate_summary(json.loads((out / "summary.json").read_text(), parse_constant=_strict))
                    if config["mode"] == "effective":
                        json.loads(stdout, parse_constant=_strict)
                except ValueError as exc:
                    faults.append(f"summary: {exc}")
            if lines or stdout and config["mode"] != "effective":
                faults.append(f"printed {stdout!r} {stderr!r}")
        elif code in (1, 2, 3):
            try:
                (error,) = map(json.loads, lines)
            except ValueError:  # not one line, or not JSON
                error = {}
            if not isinstance(error, dict) or set(error) != {"kind", "error"} or error["kind"] not in KINDS or not error["error"]:
                faults.append(f"stderr {stderr!r}")
            if stdout or out.exists():
                faults.append(f"printed {stdout!r} or wrote {out}")
        else:
            faults.append(f"exit code {code!r}")
        expected = NAMED.get((name, path, value))
        shown = ("results.csv", "summary.json") if code == 0 and out.exists() else ()
        found = stderr + "".join((out / artifact).read_text() for artifact in shown)
        if expected and (code != expected[0] or expected[1] not in found):
            faults.append(f"exit {code} {stderr!r}, expected exit {expected[0]} naming {expected[1]!r}")
        if faults:
            broken.append((value, faults))
    assert not broken
