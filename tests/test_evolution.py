import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgates import (
    CZ,
    DEFAULT_DT,
    TWOPI,
    DirectSystemSpec,
    PulseSchedule,
    QubitSpec,
    ScheduleSegment,
    build_direct_hamiltonian,
    gate_time,
    propagate_constant,
    propagate_schedule,
    square_schedule,
    trapezoid_schedule,
)
from scgates import presets
from scgates.cli import parse_config
from scgates.evolution import SCHEDULE_UNITARITY_TOL

CZ_SPEC = DirectSystemSpec(QubitSpec(7.16, 0.087, 3), QubitSpec(7.274, 0.114, 3), 0.0274)


class TestSchedules:
    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            PulseSchedule(())
        with pytest.raises(ValueError):
            ScheduleSegment(0.0)
        with pytest.raises(ValueError):
            ScheduleSegment(1.0, scale_start=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_numbers_are_rejected_by_name(self, value):
        with pytest.raises(ValueError, match="duration"):
            ScheduleSegment(value, 1.0, 1.1)
        with pytest.raises(ValueError, match="scale_end"):
            ScheduleSegment(5.0, 1.0, value)
        with pytest.raises(ValueError, match="tau_d"):
            trapezoid_schedule(value, 10.0)
        with pytest.raises(ValueError, match="dt must be"):
            propagate_schedule(CZ_SPEC, trapezoid_schedule(5.0, 10.0), dt=value)

    def test_total_time(self):
        sched = trapezoid_schedule(5.0, 12.0)
        assert sched.total_time == pytest.approx(22.0)
        assert [seg.is_constant for seg in sched.segments] == [False, True, False]

    def test_zero_ramp_is_square(self):
        assert trapezoid_schedule(0.0, 7.0) == square_schedule(7.0)


class TestPropagateConstant:
    def test_zero_hamiltonian_gives_identity(self):
        res = propagate_constant(np.zeros((4, 4)), 3.7)
        assert np.array_equal(res.unitary, np.eye(4))

    def test_diagonal_phase(self):
        h = np.diag([0.0, TWOPI * 5.5]).astype(complex)
        res = propagate_constant(h, 1.0)
        expected = np.diag([1.0, np.exp(-1j * TWOPI * 5.5)])
        assert res.unitary == pytest.approx(expected, abs=1e-12)

    def test_resonant_exchange_block(self):
        # half an exchange cycle maps |0> -> -i|1> on a 2x2 transverse block
        g = 0.013
        h = TWOPI * g * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        res = propagate_constant(h, 1.0 / (4.0 * g))
        assert res.unitary == pytest.approx(-1j * np.array([[0, 1], [1, 0]]), abs=1e-12)

    def test_rejects_non_hermitian(self):
        h = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            propagate_constant(h, 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            propagate_constant(np.zeros((2, 2)), -1.0)

    def test_unitarity_defect_recorded(self):
        h = build_direct_hamiltonian(CZ_SPEC)
        res = propagate_constant(h, 12.9)
        assert res.unitarity_defect < 1e-10
        assert res.steps_used == 1

    def test_composition(self):
        h = build_direct_hamiltonian(CZ_SPEC)
        u12 = propagate_constant(h, 7.3).unitary
        u1 = propagate_constant(h, 3.1).unitary
        u2 = propagate_constant(h, 4.2).unitary
        assert np.max(np.abs(u12 - u2 @ u1)) < 1e-10

    def test_adjoint_is_inverse(self):
        h = build_direct_hamiltonian(CZ_SPEC)
        u = propagate_constant(h, 9.4).unitary
        assert np.max(np.abs(u @ u.conj().T - np.eye(9))) < 1e-10

    def test_energy_conservation(self):
        h = build_direct_hamiltonian(CZ_SPEC)
        rng = np.random.default_rng(7)
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi /= np.linalg.norm(psi)
        e0 = (psi.conj() @ h @ psi).real
        for t in (1.0, 5.0, 25.0):
            phi = propagate_constant(h, t).unitary @ psi
            et = (phi.conj() @ h @ phi).real
            assert et == pytest.approx(e0, rel=1e-9)


class TestPropagateSchedule:
    def test_constant_segment_matches_propagate_constant(self):
        # the two paths differ only by real- versus complex-LAPACK round-off
        res_sched = propagate_schedule(CZ_SPEC, square_schedule(12.9))
        res_const = propagate_constant(build_direct_hamiltonian(CZ_SPEC), 12.9)
        assert np.max(np.abs(res_sched.unitary - res_const.unitary)) < 1e-10

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            propagate_schedule(CZ_SPEC, square_schedule(1.0), dt=0.0)

    def test_step_count(self):
        sched = trapezoid_schedule(1.0, 2.0)
        res = propagate_schedule(CZ_SPEC, sched, dt=0.3)
        # ceil(1.0/0.3) = 4 steps per ramp plus one constant segment
        assert res.steps_used == 9

    def test_unitarity_of_ramped_schedule(self):
        res = propagate_schedule(CZ_SPEC, trapezoid_schedule(5.0, 12.9), dt=0.002)
        assert res.unitarity_defect < 1e-8

    def test_trapezoid_converges_to_square_with_short_ramps(self):
        h = build_direct_hamiltonian(CZ_SPEC, 1.1)
        hnorm = np.linalg.norm(h, 2)
        u_square = propagate_schedule(CZ_SPEC, square_schedule(12.9)).unitary
        diffs = []
        for tau in (1e-3, 1e-4):
            u_trap = propagate_schedule(CZ_SPEC, trapezoid_schedule(tau, 12.9), dt=1e-5).unitary
            diff = np.max(np.abs(u_trap - u_square))
            # the extra evolution is bounded by the integrated Hamiltonian norm
            assert diff <= 2 * tau * hnorm
            diffs.append(diff)
        assert diffs[1] < diffs[0]

    def test_halving_dt_is_converged_on_ramp_schedules(self):
        # contract check at the default discretization on a short ramp; the
        # full-length (40 ns) version runs in the acceptance suite
        sched = trapezoid_schedule(2.0, 12.9)
        u1 = propagate_schedule(CZ_SPEC, sched).unitary
        u2 = propagate_schedule(CZ_SPEC, sched, dt=0.5 * 2.5e-4).unitary
        assert np.max(np.abs(u1 - u2)) < 1e-8

    def test_ramp_error_is_fourth_order_in_dt(self):
        # sampling H at 1/6 and 5/6 of each step makes the ramp CF4, so halving
        # dt divides the error by about 16; the midpoint rule divides it by 4
        sched = trapezoid_schedule(2.0, 12.9)
        ref = propagate_schedule(CZ_SPEC, sched, dt=0.001).unitary
        coarse, fine = (
            np.max(np.abs(propagate_schedule(CZ_SPEC, sched, dt=dt).unitary - ref))
            for dt in (0.025, 0.0125)
        )
        assert coarse / fine >= 12

    @pytest.mark.parametrize("figure", ["fig3b", "fig6b"])
    def test_trapezoid_equals_its_segments_propagated_alone(self, figure):
        # the ramp back up reuses the transposed ramp down; it must agree with
        # the ramp up propagated on its own
        system = parse_config(presets.figure_config(figure)).base.system
        sched = trapezoid_schedule(5.0, gate_time(system, CZ))
        res = propagate_schedule(system, sched)
        u = np.eye(res.unitary.shape[0])
        for seg in sched.segments:
            u = propagate_schedule(system, PulseSchedule((seg,))).unitary @ u
        assert np.max(np.abs(res.unitary - u)) < 1e-12
        assert res.steps_used == 2 * math.ceil(5.0 / DEFAULT_DT) + 1


qubits = st.builds(
    QubitSpec,
    freq=st.floats(4.0, 8.0),
    anharm=st.floats(0.05, 0.3),
    n_levels=st.integers(2, 4),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    qubit_a=qubits,
    qubit_b=qubits,
    g=st.floats(0.001, 0.1),
    tau_d=st.floats(0.01, 3.0),
    hold=st.floats(0.1, 20.0),
    park_scale=st.floats(1.01, 1.3),
    dt=st.floats(0.002, 0.5),
)
def test_ramped_schedules_are_unitary_and_count_steps(qubit_a, qubit_b, g, tau_d, hold, park_scale, dt):
    spec = DirectSystemSpec(qubit_a, qubit_b, g)
    res = propagate_schedule(spec, trapezoid_schedule(tau_d, hold, park_scale), dt=dt)
    assert res.unitarity_defect < SCHEDULE_UNITARITY_TOL
    assert res.steps_used == 2 * math.ceil(tau_d / dt) + 1
