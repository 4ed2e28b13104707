import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from scgates import (
    CZ,
    DEFAULT_DT,
    TWOPI,
    DirectSystemSpec,
    IndirectSystemSpec,
    PulseSchedule,
    QubitSpec,
    ScheduleSegment,
    build_direct_hamiltonian,
    build_indirect_hamiltonian,
    gate_time,
    propagate_constant,
    propagate_schedule,
    square_schedule,
    trapezoid_schedule,
)
from scgates import evolution, presets
from scgates.cli import parse_config
from scgates.evolution import SCHEDULE_UNITARITY_TOL, UnitarityError, _scatter, schedule_segments, segment_columns
from scgates.hamiltonians import hamiltonian_parts, hamiltonian_parts_rows, parameter_rows, parity_blocks

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

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_negative_time(self, t):
        with pytest.raises(ValueError, match="propagation time must be non-negative"):
            propagate_constant(np.diag([0.0, 1.0]), t)

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
        # contract check at the default discretization (0.01) on a short ramp,
        # against dt = 0.5 * 2.5e-4, half of an earlier, finer default; the
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

    @pytest.mark.parametrize("tau_d, dt", [(5.0, 1e-300), (5.0, 5e-324), (1e308, DEFAULT_DT), (1.0, 3e-19)])
    def test_a_ramp_that_no_array_can_step_names_its_duration_and_dt(self, tau_d, dt):
        # 5e300, infinitely many, 1e310 and 3.3e18 CF4 steps, whose 2n float64 scales no array can index:
        # numpy would raise its own "Maximum allowed size exceeded", OverflowError and "array is too big"
        message = re.escape(f"a ramp of {tau_d} ns at dt = {dt} ns")
        with pytest.raises(ValueError, match=message):
            evolution._cf4_scales(tau_d, (1.1, 1.0), dt)
        with pytest.raises(ValueError, match=message):
            propagate_schedule(CZ_SPEC, trapezoid_schedule(tau_d, 12.9), dt=dt)

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


SPLIT_SPECS = {
    "direct-3": DirectSystemSpec(QubitSpec(5.5, 0.15, 3), QubitSpec(5.5, 0.10, 3), 0.011),
    "direct-5x4": DirectSystemSpec(QubitSpec(5.5, 0.15, 5), QubitSpec(5.6, 0.10, 4), 0.05),
    "direct-uncoupled": DirectSystemSpec(QubitSpec(5.5, 0.15, 4), QubitSpec(5.6, 0.10, 2), 0.0),
    "cavity-3": IndirectSystemSpec(QubitSpec(8.2, 0.2, 3), QubitSpec(8.45, 0.25, 3), 6.9, 0.199),
    "cavity-5": IndirectSystemSpec(QubitSpec(8.2, 0.2, 5), QubitSpec(8.45, 0.25, 5), 6.9, 0.199),
}


class TestParitySplit:
    """Propagators are formed one excitation-parity block at a time; the full result must not change."""

    @pytest.mark.parametrize("name", sorted(SPLIT_SPECS))
    def test_block_propagators_match_full_matrix_expm(self, name):
        # times of at most 2 ns keep expm's own round-off, which grows with t ||H||, below 1e-12
        spec = SPLIT_SPECS[name]
        t = np.array([0.05, 0.7, 2.0])
        h0, d1 = hamiltonian_parts_rows(spec.sizes, parameter_rows([spec] * len(t)))
        schedules = [square_schedule(t_k) for t_k in t]
        us, defects = segment_columns(h0, d1, *schedule_segments(schedules), parity_blocks(spec), None, DEFAULT_DT)
        u = _scatter(us, parity_blocks(spec))
        h = h0[0] + np.diag(d1[0])  # what a square segment exponentiates
        for u_k, t_k in zip(u, t):
            assert np.max(np.abs(u_k - scipy.linalg.expm(-1j * t_k * h))) < 1e-12
        assert np.all(defects < 1e-13)
        square = propagate_schedule(spec, square_schedule(2.0)).unitary
        assert np.max(np.abs(square - scipy.linalg.expm(-2j * h))) < 1e-12

    @pytest.mark.parametrize("name", sorted(SPLIT_SPECS))
    @pytest.mark.parametrize("tau_d", [0.0, 1.5])
    def test_stacked_schedules_equal_single_schedules_entry_for_entry(self, name, tau_d):
        # two points of one truncation, each with its own coupling and hold time
        spec = SPLIT_SPECS[name]
        other = replace(spec, qubit_b=replace(spec.qubit_b, freq=spec.qubit_b.freq + 0.01))
        schedules = [trapezoid_schedule(tau_d, 7.3), trapezoid_schedule(tau_d, 3.1)]
        blocks = parity_blocks(spec)
        parts = hamiltonian_parts_rows(spec.sizes, parameter_rows([spec, other]))
        us, defects = segment_columns(*parts, *schedule_segments(schedules), blocks, None, 0.05)
        u = _scatter(us, blocks)
        for u_k, defect, s_k, sched in zip(u, defects, [spec, other], schedules):
            res = propagate_schedule(s_k, sched, 0.05)
            assert np.array_equal(u_k, res.unitary)
            assert defect == res.unitarity_defect < SCHEDULE_UNITARITY_TOL

    @pytest.mark.parametrize("name", sorted(SPLIT_SPECS))
    @pytest.mark.parametrize("tau_d", [0.0, 1.5])
    def test_given_columns_are_the_columns_of_the_full_propagators(self, name, tau_d):
        # two columns per block, as a gate's computational states take; every column gives the full matrix
        spec = SPLIT_SPECS[name]
        other = replace(spec, qubit_b=replace(spec.qubit_b, freq=spec.qubit_b.freq + 0.01))
        parts, blocks = hamiltonian_parts_rows(spec.sizes, parameter_rows([spec, other])), parity_blocks(spec)
        schedules = [trapezoid_schedule(tau_d, 7.3), trapezoid_schedule(tau_d, 3.1)]
        columns = [np.array([0, len(ix) - 1]) for ix in blocks]
        xs, defects = segment_columns(*parts, *schedule_segments(schedules), blocks, columns, 0.05)
        us, full_defects = segment_columns(*parts, *schedule_segments(schedules), blocks, None, 0.05)
        u = _scatter(us, blocks)
        for x, ix, cols in zip(xs, blocks, columns):
            assert x.shape == (2, len(ix), 2)
            assert np.max(np.abs(x - u[:, ix[:, None], ix[cols]])) < 1e-12
        assert np.all(defects <= full_defects + 1e-15)

    @pytest.mark.parametrize("name", sorted(SPLIT_SPECS))
    @pytest.mark.parametrize("tau_d", [0.0, 1.5])
    def test_cross_parity_entries_are_exactly_zero(self, name, tau_d):
        spec = SPLIT_SPECS[name]
        even, odd = parity_blocks(spec)
        res = propagate_schedule(spec, trapezoid_schedule(tau_d, 4.0), dt=0.05)
        assert res.unitary.shape == (spec.dim, spec.dim)
        assert not res.unitary[np.ix_(even, odd)].any()
        assert not res.unitary[np.ix_(odd, even)].any()
        assert res.unitarity_defect < SCHEDULE_UNITARITY_TOL

    @pytest.mark.parametrize("spoiled", [0, 1], ids=["even", "odd"])
    def test_unitarity_check_covers_every_block(self, spoiled, monkeypatch):
        # eigenvectors 1e-6 too long in one block only: the defect must see it
        spec = SPLIT_SPECS["cavity-3"]
        size = len(parity_blocks(spec)[spoiled])
        eigh = np.linalg.eigh

        def spoiled_eigh(h):
            w, v = eigh(h)
            return w, v * (1 + 1e-6) if h.shape[-1] == size else v

        monkeypatch.setattr(np.linalg, "eigh", spoiled_eigh)
        parts = hamiltonian_parts_rows(spec.sizes, parameter_rows([spec]))
        _, defects = segment_columns(*parts, *schedule_segments([square_schedule(3.0)]), parity_blocks(spec), None, DEFAULT_DT)
        assert defects[0] > SCHEDULE_UNITARITY_TOL
        with pytest.raises(UnitarityError):
            propagate_schedule(spec, trapezoid_schedule(0.5, 3.0))

    @pytest.mark.parametrize("spoiled", [0, 1], ids=["even", "odd"])
    def test_unitarity_check_covers_every_ramp_block(self, spoiled, monkeypatch):
        # ramp exponentials 1e-6 too long in one block only: the defect must see it.  A 0.5 ns ramp
        # of the 45-level system is one run of 100 exponentials per block, multiplied one at a time
        assert spoil_ramp_block(SPLIT_SPECS["cavity-3"], 0.5, spoiled, monkeypatch) == {0}

    @pytest.mark.parametrize("spoiled", [0, 1], ids=["even", "odd"])
    def test_unitarity_check_covers_every_polynomial_ramp_block(self, spoiled, monkeypatch):
        # a 5 ns ramp of a 9-level pair: one run of 1,000 exponentials per block, multiplied in groups
        assert 0 not in spoil_ramp_block(SPLIT_SPECS["direct-3"], 5.0, spoiled, monkeypatch)

    def test_an_arbitrary_hermitian_matrix_is_one_block(self):
        # a complex matrix that couples every state to every other
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = a + a.conj().T
        res = propagate_constant(h, 0.4)
        assert np.max(np.abs(res.unitary - scipy.linalg.expm(-0.4j * h))) < 1e-12


def spoil_ramp_block(spec, duration: float, spoiled: int, monkeypatch) -> set[int]:
    """Spoil one block's ramp exponentials by 1 + 1e-6 and expect ``UnitarityError``.

    Every ramp chunk is a polynomial run, so the exponentials are spoiled in
    the run's coefficients, where ``_ramp_coefficients`` returns them,
    before its groups are built from them.  The segment is ramp-only, from
    scale 1.1 to 1.  Returns the doublings L of the runs' groups of 2^L.
    """
    size = len(parity_blocks(spec)[spoiled])
    calls = []
    ramp_coefficients = evolution._ramp_coefficients
    factor = {size: 1 + 1e-6}

    def spoiled_coefficients(h0, d1, ends, step, degree):
        images, *means = ramp_coefficients(h0, d1, ends, step, degree)
        calls.append(h0.shape[-1])
        return images * factor.get(h0.shape[-1], 1.0), *means

    monkeypatch.setattr(evolution, "_ramp_coefficients", spoiled_coefficients)
    grouped = evolution._grouped
    groups = []

    def recording_grouped(images, delta, degrees):
        groups.append((images.shape[-1] // 2, len(degrees)))
        return grouped(images, delta, degrees)

    monkeypatch.setattr(evolution, "_grouped", recording_grouped)
    with pytest.raises(UnitarityError):
        propagate_schedule(spec, PulseSchedule((ScheduleSegment(duration, 1.1, 1.0),)))
    assert set(calls) == {len(ix) for ix in parity_blocks(spec)}
    # every run is multiplied from the spoiled coefficients
    assert {k for k, _ in groups} == set(calls)
    return {levels for _, levels in groups}


def _shifted_norm(h: np.ndarray) -> float:
    """Largest ||h - mean(diag h) I||_1 over a stack of square matrices."""
    shift = np.diagonal(h, axis1=-2, axis2=-1).mean(axis=-1)
    return float(np.abs(h - shift[:, None, None] * np.eye(h.shape[-1])).sum(axis=-2).max())


@pytest.fixture
def chunk_sizes(monkeypatch):
    """(block size, exponentials, degree) of each ramp run cut during the test."""
    sizes = []
    ramp_chunks = evolution._ramp_chunks

    def recording_ramp_chunks(d1, scales, step, ends):
        for chunk, degree, degrees, run in ramp_chunks(d1, scales, step, ends):
            sizes.append((len(d1), len(chunk), degree))
            yield chunk, degree, degrees, run

    monkeypatch.setattr(evolution, "_ramp_chunks", recording_ramp_chunks)
    return sizes


@pytest.fixture
def tree_inputs(monkeypatch):
    """(matrices, matrix size, real or not) of each stack handed to the ramp product tree during the test."""
    stacks = []
    product_in_order = evolution._product_in_order

    def recording_product_in_order(us, spare):
        stacks.append((us.shape[-3], us.shape[-1], not np.iscomplexobj(us)))
        return product_in_order(us, spare)

    monkeypatch.setattr(evolution, "_product_in_order", recording_product_in_order)
    return stacks


def _run_exponentials(h0, d1, scales, step, degree, ends=None):
    """u_s of a polynomial ramp run at ``scales``, expanded about ``ends`` (by default the scales' first and last),
    as the product of their Vandermonde matrix in delta with the run's coefficient images (real (2k, 2k) images
    [[Re, -Im], [Im, Re]], as the propagator forms them in slices), and their shifts mu_s: each exponential of the
    run is exp(-i step mu_s) u_s (``evolution._ramp_coefficients``)."""
    k, ends = len(d1), (scales[0], scales[-1]) if ends is None else ends
    images, shift, mean = evolution._ramp_coefficients(h0, d1, ends, step, degree)
    return (evolution._powers(evolution._delta(scales, ends), degree) @ images).reshape(-1, 2 * k, 2 * k), shift + scales * mean


def _least_degree(w: float) -> int:
    """Least M whose remainder bound sum_{m > M} w^m / m! is 2^-53 or less."""
    return next(m for m in range(64) if sum(w**j / math.factorial(j) for j in range(m + 1, m + 40)) <= 2.0**-53)


class TestRampExponentials:
    """Ramp chunks are polynomial runs in the scale, whose coefficients are a Taylor series
    on the coefficients; their exponentials must agree with the eigensolver."""

    @staticmethod
    def exponentials(h0, d1, chunks, step):
        # each (scales, degree, group degrees, interval) run through the kernel, back to complex
        # with its phases; the group degrees are the propagator's, not the kernel's
        k, us = len(d1), []
        for scales, degree, _, ends in chunks:
            u, mu = _run_exponentials(h0, d1, scales, step, degree, ends)
            us.append((u[:, :k, :k] + 1j * u[:, k:, :k]) * np.exp(-1j * step * mu)[:, None, None])
        return np.concatenate(us)

    @staticmethod
    def one_at_a_time(h0, d1, scales, step):
        # each exponential as a run of degree 0 about its own scale, the scales a points axis:
        # h0 + s diag(d1) over the interval (0, 0), each point at its own scaling power
        k, h = len(d1), h0 + scales[:, None, None] * np.diag(d1)
        images, shift, _ = evolution._ramp_coefficients(h, np.broadcast_to(d1, (len(scales), k)), (0.0, 0.0), step, 0)
        u = images.reshape(-1, 2 * k, 2 * k)
        return (u[:, :k, :k] + 1j * u[:, k:, :k]) * np.exp(-1j * step * shift)[:, :, None]

    @classmethod
    def cuts(cls, h0, d1, scales, step):
        # the exponentials of the runs the propagator cuts from a segment over the scales' span, of
        # each exponential on its own, and, where ||W||_max <= theta, of the whole stack as one
        # polynomial of the least degree
        w = step * np.ptp(scales) / 2 * np.abs(d1 - d1.mean()).max()
        runs = [list(evolution._ramp_chunks(d1, scales, step, (scales[0], scales[-1])))]
        runs += [[(scales, _least_degree(w), None, None)]] if w <= evolution._THETA else []
        return [cls.exponentials(h0, d1, chunks, step) for chunks in runs] + [cls.one_at_a_time(h0, d1, scales, step)]

    @classmethod
    def assert_matches_eigh(cls, h0, d1, scales, step):
        # squaring amplifies round-off, so the bound grows with step ||X||_1
        h = h0 + scales[:, None, None] * np.diag(d1)
        (ref,) = evolution._exponentials([h], step)
        bound = 1e-13 * max(1.0, step * _shifted_norm(h))
        for u in cls.cuts(h0, d1, scales, step):
            assert np.max(np.abs(u - ref)) <= bound

    @pytest.mark.parametrize("norm", [1e-3, 0.5, 1.0, 3.0, 40.0, 300.0])
    def test_random_symmetric_stacks_match_eigh(self, norm):
        rng = np.random.default_rng(11)
        for k in [*range(1, 24), 30, 63]:
            a = rng.normal(size=(k, k))
            h0, d1 = a + a.T, rng.normal(size=k)
            # chunks are cut from a ramp, so the scales come in order
            scales = np.sort(rng.uniform(0.9, 1.2, size=7))
            # a 1x1 block has X = 0: only its phase is left to check
            step = norm / (_shifted_norm(h0 + scales[:, None, None] * np.diag(d1)) or 1.0)
            self.assert_matches_eigh(h0, d1, scales, step)

    @pytest.mark.parametrize("norm", [1e-3, 1.0, 300.0])
    def test_uncoupled_stacks_stay_diagonal_and_match_eigh(self, norm):
        rng = np.random.default_rng(5)
        h0, d1 = np.diag(rng.normal(size=6)), rng.normal(size=6)
        scales = np.linspace(1.1, 1.0, 5)
        step = norm / _shifted_norm(h0 + scales[:, None, None] * np.diag(d1))
        cuts = self.cuts(h0, d1, scales, step)
        # at norm 300 the five scales span ||W||_max > theta: no one-polynomial cut
        assert len(cuts) == (2 if norm > 1 else 3)
        for u in cuts:
            assert not (u * (1 - np.eye(6))).any()
        self.assert_matches_eigh(h0, d1, scales, step)

    def test_runs_a_hundred_times_apart_in_norm_match_eigh(self):
        # a 30-level block whose six scales, at step 1, lie thousands of theta apart: each is a run
        # of its own; the last exponential has 100 times the norm of the first
        rng = np.random.default_rng(3)
        a = rng.normal(size=(30, 30))
        h0, d1 = a + a.T, 50 * rng.normal(size=30)
        scales = np.linspace(0.1, 10.0, 6)
        chunks = list(evolution._ramp_chunks(d1, scales, 1.0, (0.1, 10.0)))
        assert [chunk.tolist() for chunk, *_ in chunks] == [[s] for s in scales.tolist()]
        self.assert_matches_eigh(h0, d1, scales, 40.0 / _shifted_norm((h0 + 10.0 * np.diag(d1))[None]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11])
    def test_the_product_tree_multiplies_in_time_order(self, n):
        # with a spare stack of half as many matrices the tree writes its levels
        # there and back into the stack, and allocates none of its own
        rng = np.random.default_rng(n)
        us = rng.normal(size=(n, 4, 4)) / 2
        ref = np.eye(4)
        for u in us:
            ref = u @ ref
        work = np.concatenate([us, np.empty((n // 2, 4, 4))])
        for p in evolution._product_in_order(us.copy(), np.empty((n // 2, 4, 4))), evolution._product_in_order(work[:n], work[n:]):
            assert np.max(np.abs(p - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.shares_memory(p, work)

    def test_zero_stack_gives_identity(self):
        u, mu = _run_exponentials(np.zeros((4, 4)), np.zeros(4), np.ones(3), 0.7, 0)
        assert np.array_equal(u, np.broadcast_to(np.eye(8), (3, 8, 8)))
        assert not mu.any()

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_a_chunk_at_the_widest_span_matches_eigh(self, k):
        # the scales span just under 2 theta / (step max|b|), so ||W||_max is
        # theta to round-off: the rule's widest chunk, which takes degree 8
        rng = np.random.default_rng(k)
        a = rng.normal(size=(k, k))
        h0, d1 = 20 * (a + a.T), 40 * rng.normal(size=k)
        step = 0.01
        half = evolution._THETA / (step * (np.abs(d1 - d1.mean()).max() or 1.0)) * (1 - 1e-12)
        n = evolution._CHUNK_ENTRIES // (2 * k) ** 2
        scales = np.linspace(1.0 - half, 1.0 + half, n)
        ((chunk, degree, _, run),) = evolution._ramp_chunks(d1, scales, step, (scales[0], scales[-1]))
        assert np.array_equal(chunk, scales) and degree == (0 if k == 1 else 8) and run == (scales[0], scales[-1])
        self.assert_matches_eigh(h0, d1, scales, step)
        # 1 % wider: the widest interval within theta, then the 2 % left over, a run of degree 4
        wider = np.linspace(1.0 - 1.01 * half, 1.0 + 1.01 * half, n)
        chunks = list(evolution._ramp_chunks(d1, wider, step, (wider[0], wider[-1])))
        assert [degree for _, degree, _, _ in chunks] == ([0] if k == 1 else [8, 4])
        assert _least_degree(0.02 * evolution._THETA) == 4
        self.assert_matches_eigh(h0, d1, wider, step)

    @pytest.mark.parametrize("w, n, degree", [(1e-4, 100, 3), (1e-3, 100, 4), (1e-3, 2, 4)])
    def test_an_interval_is_one_run_of_its_least_degree_however_few_exponentials_it_holds(self, w, n, degree):
        assert _least_degree(1e-4) == 3 and _least_degree(1e-3) == 4
        rng = np.random.default_rng(9)
        a = rng.normal(size=(5, 5))
        h0, d1 = a + a.T, rng.normal(size=5)
        step = 0.05
        half = w / (step * np.abs(d1 - d1.mean()).max())
        scales = np.linspace(1.0 + half, 1.0 - half, n)
        ((chunk, got, _, _),) = evolution._ramp_chunks(d1, scales, step, (scales[0], scales[-1]))
        assert len(chunk) == n and got == degree
        self.assert_matches_eigh(h0, d1, scales, step)

    @pytest.mark.parametrize("levels", [3, 5], ids=["45-level", "125-level"])
    def test_cavity_chunks_stay_within_the_entry_cap(self, levels, chunk_sizes, tree_inputs):
        # the cap binds the slices of each polynomial run
        spec = IndirectSystemSpec(QubitSpec(8.2, 0.2, levels), QubitSpec(8.45, 0.25, levels), 6.9, 0.199)
        seg = ScheduleSegment(0.5 if levels == 5 else 2.0, 1.1, 1.0)
        assert propagate_schedule(spec, PulseSchedule((seg,))).unitarity_defect < 1e-12
        blocks = sorted(len(ix) for ix in parity_blocks(spec))
        assert sorted({k for k, _, _ in chunk_sizes}) == blocks
        for k in blocks:
            chunks = [(n, degree) for block, n, degree in chunk_sizes if block == k]
            cap = evolution._CHUNK_ENTRIES // (2 * k) ** 2
            assert cap == {23: 48, 22: 52, 63: 6, 62: 6}[k]
            assert sum(n for n, _ in chunks) == 2 * math.ceil(seg.duration / DEFAULT_DT)
            # every stack the product tree takes is full but the last of its block
            sizes = [n for n, size, _ in tree_inputs if size in (k, 2 * k)]
            assert sizes[:-1] == [cap] * (len(sizes) - 1) and 0 < sizes[-1] <= cap
            # the segment is within theta: one polynomial run per block, of degree 6 for the 2 ns ramp
            # and 7 for the 0.5 ns one, whose step is larger, taken in real slices
            assert chunks == ([(400, 6)] if levels == 3 else [(100, 7)])
            assert {(size, real) for _, size, real in tree_inputs if size in (k, 2 * k)} == {(2 * k, True)}

    def test_polynomial_slices_stay_within_the_entry_cap(self, monkeypatch, tree_inputs):
        # a 5 ns fig3b ramp is one polynomial run per block, multiplied as 125 groups of
        # 8 exponentials; a cap of six 5-level images cuts the groups' anchors into
        # slices of 6 (5 levels) and 9 (4 levels)
        # (a stack of one point)
        parts = [(h0[None], d1[None]) for h0, d1 in _ramp_blocks(parse_config(presets.figure_config("fig3b")).base.system)]
        n = math.ceil(5.0 / DEFAULT_DT)
        full = evolution._ramp_propagator(parts, [5.0], (1.1, 1.0), DEFAULT_DT)
        assert {real for _, _, real in tree_inputs} == {True}
        tree_inputs.clear()
        monkeypatch.setattr(evolution, "_CHUNK_ENTRIES", 6 * 10**2)
        sliced = evolution._ramp_propagator(parts, [5.0], (1.1, 1.0), DEFAULT_DT)
        for u, v in zip(full, sliced):
            assert np.max(np.abs(u - v)) < 1e-13
        assert {(size, real) for _, size, real in tree_inputs} == {(10, True), (8, True)}
        assert max(m * size**2 for m, size, _ in tree_inputs) <= 600
        assert sum(m for m, _, _ in tree_inputs) == 2 * 2 * n // 8

    def test_stacked_ramps_stay_within_the_entry_cap_and_equal_each_point_alone(self, monkeypatch):
        # five fig3b points, each with its own coupling and one with its own qubit-B frequency,
        # through one 5 ns ramp: one polynomial run per block of 125 anchors of 8 exponentials.
        # Under a cap of 25,000 entries a point counts 125 (2k)^2, so sub-stacks hold 2 points
        # of the 5-level block and 3 of the 4-level one; each tree input stays within the cap.
        # The coefficients, counted at ((6 + 1) k)^2 entries each, take all five points in one stack
        system = parse_config(presets.figure_config("fig3b")).base.system
        specs = [replace(system, g=g) for g in (0.02, 0.03, 0.04, 0.05)]
        specs.append(replace(system, qubit_b=replace(system.qubit_b, freq=system.qubit_b.freq + 0.05)))
        h0, d1 = hamiltonian_parts_rows(system.sizes, parameter_rows(specs))
        parts = [(h0[np.ix_(range(5), ix, ix)], d1[:, ix]) for ix in parity_blocks(system)]
        n = math.ceil(5.0 / DEFAULT_DT)
        alone = [evolution._ramp_propagator([(h[[p]], b[[p]]) for h, b in parts], [5.0], (1.1, 1.0), DEFAULT_DT) for p in range(5)]
        tree, stacks = [], []
        product_in_order, coefficients = evolution._product_in_order, evolution._ramp_coefficients

        def recording_product_in_order(us, spare):
            tree.append(us.shape)
            return product_in_order(us, spare)

        def recording_coefficients(h0, d1, ends, step, degree):
            stacks.append(h0.shape[:2])
            return coefficients(h0, d1, ends, step, degree)

        monkeypatch.setattr(evolution, "_product_in_order", recording_product_in_order)
        monkeypatch.setattr(evolution, "_ramp_coefficients", recording_coefficients)
        monkeypatch.setattr(evolution, "_CHUNK_ENTRIES", 25_000)
        stacked = evolution._ramp_propagator(parts, [5.0] * 5, (1.1, 1.0), DEFAULT_DT)
        assert stacks == [(5, 5), (5, 4)]
        assert {shape[:2] for shape in tree} == {(2, n // 4), (1, n // 4), (3, n // 4)}
        assert max(math.prod(shape) for shape in tree) <= 25_000
        for p, blocks in enumerate(alone):
            for u, (v,) in zip(stacked, blocks):
                assert np.array_equal(u[p], v)

    @pytest.mark.parametrize(
        "cap, ramps, stacks",
        [
            (None, [5.0, 10.0, 20.0], [(2, 5), (2, 4)]),
            (1000, [5.0, 10.0, 20.0], [(1, 5), (1, 5), (1, 4), (1, 4)]),
            (2500, [5.0, 5.003], [(1, 5)] * 4 + [(2, 4)] * 2),
        ],
        ids=["shared", "capped", "batched"],
    )
    def test_ramps_of_one_point_share_its_coefficients_and_equal_each_ramp_alone(self, cap, ramps, stacks, monkeypatch):
        # two fig3b couplings, each ramped over the given durations, and the first again over the
        # first: every ramp is one run of degree 6 over the whole segment, so each distinct point and
        # step takes one coefficient series, and each propagator is that of its ramp alone, bit for bit.
        # 5, 10 and 20 ns ramps have the step 0.005: one stack per block of the two distinct points.
        # Under a cap of 1,000 entries each point's coefficients, counted at (7 k)^2 entries, are a
        # stack of their own.  A 5.003 ns ramp has its own step, so a point holds two runs' images,
        # counted at 9 (2k)^2 entries each: under a cap of 2,500 the 5-level block's points (1,800
        # entries) go in batches of one, though a coefficient stack would hold two, and the 4-level
        # block's (1,152) in one batch
        system = parse_config(presets.figure_config("fig3b")).base.system
        specs = [replace(system, g=g) for g in (0.02, 0.03)]
        points = [(i, tau) for tau in ramps for i in (0, 1)] + [(0, ramps[0])]
        h0, d1 = hamiltonian_parts_rows(system.sizes, parameter_rows([specs[i] for i, _ in points]))
        parts = [(h0[np.ix_(range(len(points)), ix, ix)], d1[:, ix]) for ix in parity_blocks(system)]
        lengths = [tau for _, tau in points]
        if cap is not None:
            monkeypatch.setattr(evolution, "_CHUNK_ENTRIES", cap)
        alone = [
            evolution._ramp_propagator([(h[[p]], b[[p]]) for h, b in parts], [lengths[p]], (1.1, 1.0), DEFAULT_DT)
            for p in range(len(points))
        ]
        calls, coefficients = [], evolution._ramp_coefficients

        def recording_coefficients(h0, d1, ends, step, degree):
            calls.append(h0.shape[:-1])
            return coefficients(h0, d1, ends, step, degree)

        monkeypatch.setattr(evolution, "_ramp_coefficients", recording_coefficients)
        stacked = evolution._ramp_propagator(parts, lengths, (1.1, 1.0), DEFAULT_DT)
        assert calls == stacks
        for p, blocks in enumerate(alone):
            for u, (v,) in zip(stacked, blocks):
                assert np.array_equal(u[p], v)

    @pytest.mark.parametrize("dt", [0.05, 0.3])
    @pytest.mark.parametrize("figure", ["fig3b", "fig6b"])
    def test_short_ramps_match_a_cf4_product_of_expm(self, figure, dt):
        assert_matches_cf4_expm(figure, 1.0, dt)

    @pytest.mark.parametrize("levels", [3, 4], ids=["45-level", "80-level"])
    def test_short_cavity_ramps_match_a_cf4_product_of_expm(self, levels, chunk_sizes):
        # 1 ns at the default dt: 200 exponentials per block, one run of degree 6 or 7 each
        spec = IndirectSystemSpec(QubitSpec(8.2, 0.2, levels), QubitSpec(8.45, 0.25, levels), 6.9, 0.199)
        assert_matches_cf4_expm(spec, 1.0, DEFAULT_DT)
        assert [n for _, n, _ in chunk_sizes] == [200, 200]

    def test_a_ramp_cut_into_two_runs_matches_a_cf4_product_of_expm(self, chunk_sizes):
        assert_matches_cf4_expm("fig3b", 30.0, 0.06)
        # 1,000 exponentials per block on a segment of ||W||_max = 1.097 theta: the first
        # interval, theta wide from the segment's start, holds 911 of them, a run of degree 8,
        # and the second, 0.097 theta wide, the other 89, a run of degree 6
        assert chunk_sizes == [(5, 911, 8), (5, 89, 6), (4, 911, 8), (4, 89, 6)]

    def test_a_long_ramp_matches_a_cf4_product_of_expm(self, chunk_sizes):
        # one polynomial reused for 8,000 exponentials per block: round-off may add
        # up coherently, so the bound is 8,000 unit round-offs of 2^-52
        assert_matches_cf4_expm("fig3b", 40.0, DEFAULT_DT, bound=8000 * 2.0**-52)
        assert chunk_sizes == [(5, 8000, 6), (4, 8000, 6)]


def _system(name: str):
    """A figure preset's system, or one of SPLIT_SPECS (cavity-3 has 45 levels)."""
    return SPLIT_SPECS[name] if name in SPLIT_SPECS else parse_config(presets.figure_config(name)).base.system


def _ramp_blocks(system):
    """(h0, diagonal of h1) of each parity block of ``system``."""
    h0, h1 = hamiltonian_parts(system)
    return [(h0[np.ix_(ix, ix)], np.diagonal(h1)[ix]) for ix in parity_blocks(system)]


def _ramp_down(duration: float):
    """The CF4 scales and step of a ramp from scale 1.1 to 1 at the default dt."""
    n = math.ceil(duration / DEFAULT_DT)
    return 1.1 - 0.1 * (np.arange(n)[:, None] + evolution._CF4_NODES).ravel() / n, duration / (2 * n)


def _run(h0, d1, scales, step):
    """A polynomial run over all of ``scales``, expanded about their span: its images, delta, degree and ||W||_max."""
    width = step * np.abs(d1 - d1.mean()).max() * abs(scales[-1] - scales[0]) / 2
    degree, ends = evolution._degree(width), (scales[0], scales[-1])
    images, _, _ = evolution._ramp_coefficients(h0, d1, ends, step, degree)
    return images, evolution._delta(scales, ends), degree, width


class TestGroupedRuns:
    """A polynomial run is multiplied in groups of 2^L exponentials, each one polynomial in
    its first exponential's delta; the products must be those of the exponentials one at a time."""

    @pytest.mark.parametrize("system", ["fig3b", "cavity-3"])
    def test_run_coefficients_equal_the_eye_diag_and_block_formulas(self, system):
        # the images are written in place; they must be bitwise those of the formulas they replace:
        # the series of Xc + delta W scaled by 2^-q, with q the least that takes
        # ||Xc||_1 + ||W||_max below 1 and the term count from what is left, laid out as
        # [[Re, -Im], [Im, Re]].  They are expanded about the
        # segment's interval, here all of it, from scale 1.1 to 1
        spec = _system(system)
        scales, step = _ramp_down(5.0)
        ends = (1.1, 1.0)
        for h0, d1 in _ramp_blocks(spec):
            k, degree = len(d1), 6
            shift = np.mean(np.diagonal(h0))
            a, b = step * (h0 - shift * np.eye(k)), step * (d1 - d1.mean())
            mid, half = (1.1 + 1.0) / 2, (1.1 - 1.0) / 2
            xc = a + mid * np.diag(b)
            norm = np.abs(xc).sum(axis=0).max() + np.abs(half * b).max()
            q = max(0, math.frexp(norm)[1])
            (f,) = evolution._taylor(xc[None], half * b[None], q, evolution._degree(norm / 2**q), degree)
            images, shift_, mean = evolution._ramp_coefficients(h0, d1, ends, step, degree)
            assert shift_ == shift and mean == d1.mean()
            assert evolution._expansion(ends) == (mid, half)
            assert np.array_equal(images, np.block([[f.real, -f.imag], [f.imag, f.real]]).reshape(degree + 1, -1))
            assert np.array_equal(evolution._delta(scales, ends), (scales - mid) / half)
            # and the exponentials' shifts
            _, mu = _run_exponentials(h0, d1, scales[:7], step, degree, ends)
            assert np.array_equal(mu, shift + scales[:7] * d1.mean())

    @pytest.mark.parametrize("step", [0.005, 0.02])
    @pytest.mark.parametrize("system", ["fig3b", "cavity-3", "cavity-5"])
    def test_run_coefficients_are_the_first_block_row_of_the_block_exponential(self, system, step):
        # F_0 ... F_M are the first block row of exp(-i N), N the block upper bidiagonal matrix of
        # M + 1 blocks Xc on the diagonal and W above it (Van Loan), at k = 5 and 4, 23 and 22,
        # 63 and 62; the larger step takes ||N||_1 to 1-6, so up to q = 3 squarings.  Within 8 unit
        # round-offs of 2^-52 times max(1, ||N||_1)
        for h0, d1 in _ramp_blocks(_system(system)):
            k = len(d1)
            degree = evolution._degree(step * np.abs(d1 - d1.mean()).max() * 0.05)
            shift = np.mean(np.diagonal(h0))
            a, b = step * (h0 - shift * np.eye(k)), step * np.diag(d1 - d1.mean())
            n_mat, m = np.zeros((degree + 1, k, degree + 1, k)), np.arange(degree + 1)
            n_mat[m, :, m], n_mat[m[:-1], :, m[1:]] = a + 1.05 * b, 0.05 * b
            n_mat = n_mat.reshape((degree + 1) * k, -1)
            f = scipy.linalg.expm(-1j * n_mat)[:k].reshape(k, degree + 1, k).swapaxes(0, 1)
            ref = np.block([[f.real, -f.imag], [f.imag, f.real]]).reshape(degree + 1, -1)
            images, _, _ = evolution._ramp_coefficients(h0, d1, (1.1, 1.0), step, degree)
            norm = np.abs(n_mat).sum(axis=0).max()
            assert np.max(np.abs(images - ref)) <= 8 * 2.0**-52 * max(1.0, norm)

    def test_stacked_coefficients_of_different_scaling_powers_equal_each_point_alone(self, monkeypatch):
        # six 6-level points whose ||N||_1 spans two orders of magnitude take four scaling powers
        # and five (q, term count) pairs, the first two points sharing one; the stack groups them by
        # both, so each point's images are bit for bit those of the point alone
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 6, 6))
        a[1] = a[0]
        h0 = (a + a.transpose(0, 2, 1)) * np.array([0.1, 0.1001, 0.3, 1.0, 3.0, 10.0])[:, None, None]
        d1 = rng.normal(size=(6, 6))
        ends, step, degree = (1.1, 1.0), 0.1, 4
        alone = [evolution._ramp_coefficients(h0[[p]], d1[[p]], ends, step, degree) for p in range(6)]
        calls, taylor = [], evolution._taylor

        def recording_taylor(xc, w, q, terms, degree):
            calls.append((len(xc), q, terms))
            return taylor(xc, w, q, terms, degree)

        monkeypatch.setattr(evolution, "_taylor", recording_taylor)
        stacked = evolution._ramp_coefficients(h0, d1, ends, step, degree)
        assert sorted(calls) == [(1, 0, 13), (1, 1, 15), (1, 2, 16), (1, 4, 17), (2, 0, 11)]
        for p, point in enumerate(alone):
            for x, y in zip(stacked, point):
                assert np.array_equal(x[p], y[0])

    @pytest.mark.parametrize(
        "system, duration, groups",
        [("fig3b", 5.0, 8), ("fig3b", 40.0, 16), ("cavity-3", 5.0, 8)],
    )
    def test_grouped_ramps_equal_their_exponentials_one_at_a_time(self, system, duration, groups, monkeypatch):
        # both sides are within n round-offs of the exact CF4 product, n exponentials per block
        # (the model of test_a_long_ramp_matches_a_cf4_product_of_expm), so they differ by 2n
        spec = _system(system)
        segment = PulseSchedule((ScheduleSegment(duration, 1.1, 1.0),))
        grouped = evolution._grouped
        sizes = []

        def recording_grouped(images, delta, degrees):
            sizes.append(1 << len(degrees))
            return grouped(images, delta, degrees)

        monkeypatch.setattr(evolution, "_grouped", recording_grouped)
        u = propagate_schedule(spec, segment).unitary
        assert sizes == [groups, groups]
        monkeypatch.setattr(evolution, "_group_degrees", lambda n, width, degree: [])
        one_at_a_time = propagate_schedule(spec, segment).unitary
        assert sizes == [groups, groups, 1, 1]
        n = 2 * math.ceil(duration / DEFAULT_DT)
        assert np.max(np.abs(u - one_at_a_time)) < 2 * n * 2.0**-52

    def test_a_run_from_mid_step_with_exponentials_left_over(self, monkeypatch, tree_inputs):
        # a run that starts at the second exponential of a CF4 step and holds 1,003:
        # 125 groups of 8 whose offsets start with the short half of a step, and 3 left over;
        # under a cap of six 5-level images the anchors go in slices of 6 and the 3 in one more
        h0, d1 = _ramp_blocks(_system("fig3b"))[0]
        scales, step = _ramp_down(5.1)
        images, delta, degree, width = _run(h0, d1, scales[1:1004], step)
        assert len(delta) == 1003 and len(evolution._group_degrees(1003, width, degree)) == 3
        monkeypatch.setattr(evolution, "_CHUNK_ENTRIES", 6 * 10**2)
        p = evolution._run_product(images, delta, 5, evolution._group_degrees(1003, width, degree))
        assert [m for m, _, _ in tree_inputs] == [6] * 20 + [5, 3]
        assert max(m * size**2 for m, size, _ in tree_inputs) <= 600
        us, _ = _run_exponentials(h0, d1, scales[1:1004], step, degree)
        ref = np.eye(10)
        for u in us:
            ref = u @ ref
        assert np.max(np.abs(p - (ref[:5, :5] + 1j * ref[5:, :5]))) < 2 * 1003 * 2.0**-52

    @pytest.mark.parametrize("system, duration", [("fig3b", 5.0), ("fig3b", 40.0), ("cavity-3", 5.0)])
    def test_truncated_groups_match_the_full_product_at_every_anchor(self, system, duration):
        # each doubling cuts its product with a remainder of at most 2^-53 on [-1, 1], and
        # doubles the error it is given, so a group of g is off by at most (g - 1) 2^-53;
        # one 2^-53 more covers round-off
        spec = _system(system)
        scales, step = _ramp_down(duration)
        for h0, d1 in _ramp_blocks(spec):
            k = len(d1)
            images, delta, degree, width = _run(h0, d1, scales, step)
            degrees = evolution._group_degrees(len(delta), width, degree)
            g = 1 << len(degrees)
            images = images.reshape(-1, 2 * k, 2 * k)
            cut = evolution._grouped(images, delta, degrees)
            full = evolution._grouped(images, delta, [degree << level for level in range(1, len(degrees) + 1)])
            assert len(full) == g * degree + 1 and len(cut) == degrees[-1] + 1 < len(full)
            anchors = delta[::g]
            values = [np.einsum("nm,mij->nij", evolution._powers(anchors, len(c) - 1), c) for c in (cut, full)]
            assert np.max(np.abs(values[0] - values[1])) <= g * 2.0**-53


def assert_matches_cf4_expm(system, duration: float, dt: float, bound: float = 1e-12):
    """A ramp-only segment from scale 1.1 to 1 of ``system``, or of a figure preset's, against a CF4 product of ``scipy.linalg.expm``."""
    # two half-step exponentials per step, H frozen at 1/6 and 5/6 of it
    system = _system(system) if isinstance(system, str) else system
    direct = isinstance(system, DirectSystemSpec)
    build = build_direct_hamiltonian if direct else build_indirect_hamiltonian
    seg = ScheduleSegment(duration, 1.1, 1.0)
    n = math.ceil(seg.duration / dt)
    ref = np.eye(system.dim)
    for j in range(n):
        for node in (1 / 6, 5 / 6):
            s = seg.scale_start + (seg.scale_end - seg.scale_start) * (j + node) / n
            ref = scipy.linalg.expm(-0.5j * seg.duration / n * build(system, s)) @ ref
    res = propagate_schedule(system, PulseSchedule((seg,)), dt=dt)
    assert np.max(np.abs(res.unitary - ref)) < bound
    assert res.steps_used == n


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


@st.composite
def trapezoid_stacks(draw):
    """A stack of 1-4 points of one truncation, each over a trapezoid of the shared park scale and dt: ``(specs, taus, holds, park, dt)``.

    The system is direct, with 2-4 levels per qubit, or cavity-coupled, with
    2-5 cavity levels.  Each point has its own coupling, ramp and hold; a
    ramp takes at most 150 CF4 steps, 300 exponentials, and may repeat an
    earlier point's, so that points share ramp plans too.
    """
    levels = st.integers(2, 4)
    qubit_a, qubit_b = (QubitSpec(draw(st.floats(4.0, 8.0)), draw(st.floats(0.05, 0.3)), draw(levels)) for _ in range(2))
    dt, park, n = draw(st.floats(0.005, 0.2)), draw(st.floats(1.01, 1.3)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        system = IndirectSystemSpec(qubit_a, qubit_b, draw(st.floats(4.0, 9.0)), 0.1, draw(st.integers(2, 5)))
        specs = [replace(system, g_qc=draw(st.floats(0.01, 0.2))) for _ in range(n)]
    else:
        specs = [DirectSystemSpec(qubit_a, qubit_b, draw(st.floats(0.001, 0.1))) for _ in range(n)]
    # drawn by their CF4 steps, so that long ramps are as likely as short ones
    ramps, taus = st.integers(math.ceil(0.05 / dt), min(150, math.floor(3.0 / dt))).map(lambda k: min(3.0, k * dt)), []
    for _ in range(n):
        taus.append(draw(st.one_of(st.sampled_from(taus), ramps) if taus else ramps))
    holds = [draw(st.floats(0.05, 2.0)) for _ in range(n)]
    return specs, taus, holds, park, dt


def cf4_trapezoid(spec, tau_d: float, hold: float, park: float, dt: float) -> np.ndarray:
    """The propagator of ``trapezoid_schedule(tau_d, hold, park)``: a CF4 product of ``scipy.linalg.expm`` over each ramp, the ramp up built anew, and one ``expm`` over the hold.

    Every H is checked to vanish exactly between states of opposite
    excitation parity, so each parity block is exponentiated on its own,
    which is the exponential of the whole matrix at a fraction of its cost.
    """
    n = math.ceil(tau_d / dt)
    frac = (np.arange(n)[:, None] + np.array([1 / 6, 5 / 6])).ravel() / n
    # (duration, scale) of each exponential in time order: two half steps per CF4 step
    pieces = [(tau_d / (2 * n), park + (1.0 - park) * f) for f in frac] + [(hold, 1.0)]
    pieces += [(tau_d / (2 * n), 1.0 + (park - 1.0) * f) for f in frac]
    times = np.array([t for t, _ in pieces])[:, None, None]
    hs = np.array([build_direct_hamiltonian(spec, s) for _, s in pieces])
    parity = np.indices(spec.sizes).sum(axis=0).ravel() % 2
    assert not hs[:, parity[:, None] != parity].any()
    u = np.zeros((spec.dim, spec.dim), dtype=complex)
    for ix in (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)):
        block = np.eye(len(ix))
        for step in scipy.linalg.expm(-1j * times * hs[:, ix[:, None], ix]):
            block = step @ block
        u[ix[:, None], ix] = block
    return u


@settings(derandomize=True, max_examples=25, deadline=None)
@given(stack=trapezoid_stacks())
def test_stacked_trapezoids_match_a_cf4_product_of_expm_and_each_point_alone(stack):
    # every column of every point through one segment_columns call, whose ramp up reuses the
    # transposes of the ramp down: each point is bit for bit the stack of that point alone, and
    # within 1e-12 of its own CF4 product of expm
    specs, taus, holds, park, dt = stack
    rows, blocks = parameter_rows(specs), parity_blocks(specs[0])
    scales, durations = schedule_segments([trapezoid_schedule(tau, hold, park) for tau, hold in zip(taus, holds)])
    stacked, defects = segment_columns(*hamiltonian_parts_rows(specs[0].sizes, rows), scales, durations, blocks, None, dt)
    assert np.all(defects < SCHEDULE_UNITARITY_TOL)
    for p, (spec, tau, hold) in enumerate(zip(specs, taus, holds)):
        alone, (defect,) = segment_columns(
            *hamiltonian_parts_rows(spec.sizes, rows[[p]]), scales, durations[[p]], blocks, None, dt
        )
        assert all(np.array_equal(x[p], y[0]) for x, y in zip(stacked, alone)) and defect == defects[p]
        u = _scatter([x[p] for x in stacked], blocks)
        assert np.max(np.abs(u - cf4_trapezoid(spec, tau, hold, park, dt))) < 1e-12
