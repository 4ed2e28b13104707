"""Tests of the benchmark's own arithmetic: span self times and the oracles."""

import math
import threading
import types

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize

import layers
import oracles
from spans import Span, Tracer, covered, self_times


def _span(id_, name, parent, start, end, **attrs):
    return Span(id_, name, parent, 0, start, end, attrs)


def test_covered_takes_the_union_of_overlapping_intervals_clipped_to_the_span():
    assert covered(0.0, 10.0, [(1, 4), (3, 6), (8, 9)]) == pytest.approx(6.0)
    assert covered(0.0, 10.0, [(2, 9), (3, 4)]) == pytest.approx(7.0)
    assert covered(2.0, 5.0, [(0, 3), (4, 12)]) == pytest.approx(2.0)
    assert covered(0.0, 1.0, []) == 0.0


def test_self_time_subtracts_overlapping_worker_children_once():
    spans = [
        _span(1, "sweeps.sweep", None, 0.0, 10.0),
        _span(2, "sweeps.evaluate_point", 1, 1.0, 6.0),  # worker 1
        _span(3, "sweeps.evaluate_point", 1, 2.0, 9.0),  # worker 2, overlapping
        _span(4, "gates.run_gate", 3, 2.5, 8.5),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(5.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(6.0)


def test_layer_metrics_attribute_worker_spans_to_their_sweep():
    spans = [
        _span(1, "sweeps.sweep", None, 0.0, 10.0),
        _span(2, "sweeps.evaluate_point", 1, 1.0, 6.0),
        _span(3, "sweeps.evaluate_point", 1, 2.0, 9.0),
        _span(4, "sweeps.threshold", None, 10.0, 12.0),
        _span(5, "sweeps.evaluate_point", 4, 10.5, 11.5),
        _span(6, "evolution.propagate_schedule", 2, 1.0, 3.0, ramp_ns=10.0, steps=40),
        _span(7, "hamiltonians.hamiltonian_parts", 6, 1.0, 1.5),
        _span(8, "evolution.propagate_schedule", 3, 2.0, 3.0, ramp_ns=0.0, steps=1),
    ]
    m = layers.layer_metrics(spans, rounds=2, artifact_bytes=10.0)
    assert m["sweeps.points"] == 1.0
    assert m["sweeps.threshold_points"] == 0.5
    assert m["sweeps.sweep_s"] == pytest.approx(5.0)
    assert m["sweeps.worker_busy_s"] == pytest.approx(6.0)
    assert m["sweeps.orchestration_s"] == pytest.approx(1.0)
    assert m["evolution.ramp_ms_per_ns"] == pytest.approx(1.5e3 / 10.0)
    assert m["evolution.steps"] == pytest.approx(20.5)
    assert m["evolution.constant_ms"] == pytest.approx(1e3)
    assert m["evolution.self_s"] == pytest.approx(1.25)
    assert set(m) == {name for name, _, _ in layers.PER_LAYER}


def test_tracer_parents_pool_tasks_to_the_submitting_span_and_restores_names():
    from concurrent.futures import ThreadPoolExecutor

    def leaf(x):
        return x * 2

    def fan_out(xs):
        with module.ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda x: module.leaf(x), xs))

    module = types.SimpleNamespace(leaf=leaf, fan_out=fan_out, ThreadPoolExecutor=ThreadPoolExecutor)
    tracer = Tracer()
    tracer.install([(module, "leaf", "m.leaf", None), (module, "fan_out", "m.fan_out", None)])
    tracer.patch(module, "ThreadPoolExecutor", tracer.pool_class())
    assert module.fan_out([1, 2, 3, 4]) == [2, 4, 6, 8]
    tracer.uninstall()
    assert module.leaf is leaf and module.fan_out is fan_out
    assert module.ThreadPoolExecutor is ThreadPoolExecutor

    (root,) = [s for s in tracer.spans if s.name == "m.fan_out"]
    leaves = [s for s in tracer.spans if s.name == "m.leaf"]
    assert len(leaves) == 4 and all(s.parent == root.id for s in leaves)
    assert any(s.thread != threading.get_ident() for s in leaves)
    assert self_times(tracer.spans)[root.id] >= 0.0


def _two_level_direct(freq, g):
    qubit = {"freq": freq, "anharm": 0.0, "n_levels": 2}
    return {"kind": "direct", "qubit_a": dict(qubit), "qubit_b": dict(qubit), "g": g}


def test_two_level_exchange_matches_its_closed_form():
    freq, g = 5.0, 0.05
    system = _two_level_direct(freq, g)
    t = oracles.gate_time(system, "iswap")
    assert t == pytest.approx(1.0 / (4.0 * g))
    # |01>,|10>: resonant exchange; |00>,|11>: counter-rotating pair detuned by 2 freq.
    w, c = 2 * math.pi * freq, 2 * math.pi * g
    exch = np.exp(-1j * w * t) * np.array(
        [[math.cos(c * t), -1j * math.sin(c * t)], [-1j * math.sin(c * t), math.cos(c * t)]]
    )
    big = math.hypot(w, c)
    pair = np.exp(-1j * w * t) * (
        math.cos(big * t) * np.eye(2) - 1j * math.sin(big * t) / big * np.array([[-w, c], [c, w]])
    )
    expected = np.zeros((4, 4), dtype=complex)
    expected[np.ix_([1, 2], [1, 2])] = exch
    expected[np.ix_([0, 3], [0, 3])] = pair
    np.testing.assert_allclose(oracles.gate_block(system, "iswap"), expected, atol=1e-10)


def _brute_force_fidelity(m, gate, n=48):
    grid = np.arange(n) * (2 * math.pi / n)
    ta, tb, tg = np.meshgrid(grid, grid, grid, indexing="ij")
    signs_a, signs_b = np.array([1, 1, -1, -1]), np.array([1, -1, 1, -1])
    d = np.exp(1j * (tg[..., None] + signs_a * ta[..., None] + signs_b * tb[..., None]))
    diff = oracles.TARGETS[gate] - d[..., None] * m
    f = 1.0 - (np.abs(diff) ** 2).sum(axis=(-2, -1)) / 16.0
    start = np.array([g[np.unravel_index(np.argmax(f), f.shape)] for g in (ta, tb, tg)])
    res = minimize(
        lambda x: -oracles.explicit_fidelity(m, gate, *x), start, method="Nelder-Mead",
        options={"xatol": 1e-11, "fatol": 1e-15, "maxiter": 4000},
    )
    return max(float(f.max()), -float(res.fun))


def test_phase_maximum_of_the_exchange_gate_matches_a_brute_force_scan():
    system = _two_level_direct(5.0, 0.05)
    m = oracles.gate_block(system, "iswap")
    for gate in ("iswap", "cz"):
        assert oracles.best_fidelity(m, gate) == pytest.approx(_brute_force_fidelity(m, gate), abs=1e-9)


@pytest.mark.parametrize("gate", ["iswap", "cz"])
def test_phase_maximum_of_a_compensated_scaled_target_is_closed_form(gate):
    # A compensation-form phase e^{i(theta + sa theta_a + sb theta_b)} is undone exactly.
    d = np.diag(np.exp(1j * (0.4 + 0.9 * np.array([1, 1, -1, -1]) - 1.3 * np.array([1, -1, 1, -1]))))
    for scale in (1.0, 0.8):
        m = scale * d @ oracles.TARGETS[gate]
        assert oracles.best_fidelity(m, gate) == pytest.approx(1.0 - (1.0 - scale) ** 2 / 4.0, abs=1e-12)


def test_known_under_reported_contraction_has_its_documented_maximum():
    rng = np.random.default_rng(1)
    for _ in range(51):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = z / max(1.0, np.linalg.svd(z, compute_uv=False)[0])
    assert oracles.best_fidelity(m, "cz") == pytest.approx(0.759294183, abs=1e-9)
    assert oracles.best_fidelity(m, "cz") == pytest.approx(_brute_force_fidelity(m, "cz"), abs=1e-9)


def test_cf4_ramp_is_exact_for_commuting_parts():
    h_rest = np.diag([0.0, 1.0, 2.5])
    h_b = np.diag([0.0, 3.0, 7.0])
    u = oracles.cf4_ramp(h_rest, h_b, 1.1, 1.0, 2.0, step=0.1)
    np.testing.assert_allclose(u, expm(-1j * (2.0 * h_rest + 2.0 * 1.05 * h_b)), atol=1e-12)


def test_point_system_follows_the_documented_axis_order():
    config = {
        "mode": "sweep2d",
        "gate": "cz",
        "tie_anharm": True,
        "system": {
            "kind": "indirect",
            "qubit_a": {"freq": 8.2, "anharm": 0.2},
            "qubit_b": {"freq": 8.45, "anharm": 0.25},
            "cavity_freq": 6.9,
            "g_qc": 0.199,
        },
    }
    system = oracles.point_system(config, {"geff_over_delta_b": 0.2, "delta_b_abs": 0.1})
    qa, qb = system["qubit_a"], system["qubit_b"]
    assert qb["anharm"] == 0.1 and qa["anharm"] == 0.1
    assert qb["freq"] == pytest.approx(8.3)
    assert system["g_qc"] ** 2 == pytest.approx(0.2 * 0.1 * (8.2 - 6.9))
    assert config["system"]["qubit_b"]["anharm"] == 0.25  # the config is not modified
