"""Property tests of the phase-compensated fidelity on random contractions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scgates import CZ, ISWAP, gate_fidelity, phase_diagonal
from scgates.gates import score_blocks

entries = arrays(np.float64, (2, 4, 4), elements=st.floats(-1.0, 1.0, allow_nan=False))
angles = st.floats(0.0, 2 * np.pi, allow_nan=False)
phase_triples = st.tuples(angles, angles, angles)
targets = st.sampled_from([ISWAP, CZ])
fast = settings(derandomize=True, max_examples=100, deadline=None)


def contraction(parts):
    """A 4x4 complex block with largest singular value at most 1."""
    z = parts[0] + 1j * parts[1]
    return z / max(1.0, np.linalg.svd(z, compute_uv=False)[0])


def explicit_fidelity(m, target, theta_a, theta_b, theta_global):
    d = phase_diagonal(theta_a, theta_b, theta_global)
    return 1 - np.linalg.norm(target.matrix - d @ m, "fro") ** 2 / 16


@fast
@given(entries, targets)
def test_fidelity_and_leakage_are_in_unit_interval(parts, target):
    res = gate_fidelity(contraction(parts), target)
    assert 0.0 <= res.fidelity <= 1.0
    assert 0.0 <= res.leakage <= 1.0


@fast
@given(entries, targets, phase_triples)
def test_invariant_under_compensation(parts, target, phases):
    m = contraction(parts)
    compensated = gate_fidelity(phase_diagonal(*phases) @ m, target).fidelity
    assert compensated == pytest.approx(gate_fidelity(m, target).fidelity, abs=1e-12)


@fast
@given(entries, targets)
def test_reported_phases_reproduce_fidelity(parts, target):
    m = contraction(parts)
    res = gate_fidelity(m, target)
    f_direct = explicit_fidelity(m, target, res.theta_a, res.theta_b, res.theta_global)
    assert res.fidelity == pytest.approx(f_direct, abs=1e-12)


@fast
@given(entries, targets)
def test_phases_are_canonical(parts, target):
    res = gate_fidelity(contraction(parts), target)
    assert 0.0 <= res.theta_a < np.pi
    assert 0.0 <= res.theta_b < np.pi
    assert 0.0 <= res.theta_global < 2 * np.pi


@fast
@given(entries, targets, phase_triples)
def test_fidelity_is_the_maximum_over_phases(parts, target, phases):
    m = contraction(parts)
    assert gate_fidelity(m, target).fidelity >= explicit_fidelity(m, target, *phases) - 1e-12


@fast
@given(st.lists(entries, min_size=1, max_size=6), targets, phase_triples, st.data())
def test_stacked_solve_equals_per_block_solve(parts_list, target, phases, data):
    blocks = [contraction(parts) for parts in parts_list]
    negligible = blocks[0].copy()
    negligible[data.draw(st.sampled_from([[0, 1], [2, 3], [1]]))] *= 1e-160
    blocks += [
        target.matrix,
        phase_diagonal(*phases) @ (data.draw(st.floats(0.05, 1.0)) * target.matrix),
        np.zeros((4, 4)),
        negligible,
    ]
    stack = np.stack([blocks[i] for i in data.draw(st.permutations(range(len(blocks))))])
    stacked = np.stack(score_blocks(stack, target), axis=1)
    for got, m in zip(stacked, stack):
        res = gate_fidelity(m, target)
        assert tuple(got) == (res.fidelity, res.theta_a, res.theta_b, res.theta_global, res.leakage)
