import math
import threading
import warnings

import numpy as np
import pytest

from scgates import sweeps as sweeps_module
from scgates.hamiltonians import hamiltonian_stack, parity_blocks
from scgates import (
    CZ,
    ISWAP,
    DirectSystemSpec,
    IndirectSystemSpec,
    QubitSpec,
    SweepAxis,
    SweepBase,
    SweepGrid,
    SweepPoint,
    derive_point_spec,
    detrended_amplitude,
    effective_couplings,
    evaluate_point,
    gate_target,
    gate_time,
    ramp_study,
    run_gate,
    sweep,
    threshold,
    trapezoid_schedule,
    truncation_study,
)

ISWAP_BASE = SweepBase(
    system=DirectSystemSpec(QubitSpec(5.5, 0.15, 3), QubitSpec(5.5, 0.10, 3), 0.011),
    gate="iswap",
)
CZ_BASE = SweepBase(
    system=DirectSystemSpec(QubitSpec(7.16, 0.087, 3), QubitSpec(7.274, 0.114, 3), 0.0091),
    gate="cz",
)
INDIRECT_BASE = SweepBase(
    system=IndirectSystemSpec(QubitSpec(8.2, 0.2, 3), QubitSpec(8.45, 0.25, 3), 6.9, 0.199),
    gate="cz",
)


def synthetic_grid(x, f, base=ISWAP_BASE, name="g_over_delta_b"):
    axis = SweepAxis(name, float(x[0]), float(x[-1]), len(x))
    rows = tuple(
        SweepPoint((float(xi),), float(fi), 1.0, 0.0, 0.0, 0.0, 0.0, "ok")
        for xi, fi in zip(x, f)
    )
    return SweepGrid(base, (axis,), rows)


class TestAxis:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepAxis("nonsense", 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            SweepAxis("g_abs", 1.0, 0.5, 5)
        with pytest.raises(ValueError):
            SweepAxis("g_abs", 0.0, 1.0, 1)
        with pytest.raises(ValueError, match="axis n_points must be an integer, got 2.5"):
            SweepAxis("g_over_delta_b", 0.1, 0.2, 2.5)

    @pytest.mark.parametrize("field", ["start", "stop"])
    @pytest.mark.parametrize("value", [-math.inf, math.inf, math.nan])
    def test_rejects_non_finite_ends_by_name(self, field, value):
        ends = {"start": 0.0, "stop": 0.01, field: value}
        with pytest.raises(ValueError, match=f"axis {field} must be finite"):
            SweepAxis("g_abs", ends["start"], ends["stop"], 3)

    def test_values_are_uniform(self):
        ax = SweepAxis("g_abs", 0.0, 1.0, 5)
        assert np.array_equal(ax.values(), np.linspace(0.0, 1.0, 5))


class TestBase:
    @pytest.mark.parametrize("field", ["tau_d", "dt"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_numbers_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            SweepBase(CZ_BASE.system, "cz", **{field: value})


class TestDerive:
    def test_g_over_delta_b(self):
        axes = (SweepAxis("g_over_delta_b", 0.01, 0.5, 2),)
        spec = derive_point_spec(ISWAP_BASE, axes, (0.3,))
        assert spec.g == pytest.approx(0.3 * 0.10)

    def test_delta_b_change_rederives_cz_resonance(self):
        axes = (SweepAxis("delta_b_abs", 0.05, 0.3, 2),)
        spec = derive_point_spec(CZ_BASE, axes, (0.2,))
        assert spec.qubit_b.anharm == pytest.approx(0.2)
        assert spec.qubit_b.freq == pytest.approx(7.16 + 0.2)

    def test_delta_b_change_keeps_iswap_frequency(self):
        axes = (SweepAxis("delta_b_abs", 0.05, 0.3, 2),)
        spec = derive_point_spec(ISWAP_BASE, axes, (0.2,))
        assert spec.qubit_b.freq == 5.5

    def test_tie_anharm(self):
        base = SweepBase(ISWAP_BASE.system, "iswap", tie_anharm=True)
        axes = (SweepAxis("delta_b_abs", 0.05, 0.3, 2),)
        spec = derive_point_spec(base, axes, (0.17,))
        assert spec.qubit_a.anharm == spec.qubit_b.anharm == pytest.approx(0.17)

    def test_delta_ratios_use_base_coupling(self):
        base = SweepBase(
            DirectSystemSpec(QubitSpec(5.5, 0.15, 3), QubitSpec(5.5, 0.10, 3), 0.2), "iswap"
        )
        axes = (
            SweepAxis("delta_a_over_g", 0.5, 5.0, 2),
            SweepAxis("delta_b_over_g", 0.5, 5.0, 2),
        )
        spec = derive_point_spec(base, axes, (2.0, 3.0))
        assert spec.qubit_a.anharm == pytest.approx(0.4)
        assert spec.qubit_b.anharm == pytest.approx(0.6)
        assert spec.g == 0.2

    def test_geff_inversion_round_trips(self):
        axes = (SweepAxis("geff_abs", 0.005, 0.05, 2),)
        spec = derive_point_spec(INDIRECT_BASE, axes, (0.02,))
        assert effective_couplings(spec).g_eff_1 == pytest.approx(0.02, rel=1e-12)

    def test_geff_over_delta_b(self):
        axes = (SweepAxis("geff_over_delta_b", 0.05, 0.5, 2),)
        spec = derive_point_spec(INDIRECT_BASE, axes, (0.1,))
        assert effective_couplings(spec).g_eff_1 == pytest.approx(0.1 * 0.25, rel=1e-12)

    def test_axis_system_mismatch(self):
        with pytest.raises(ValueError, match="directly coupled"):
            sweep(INDIRECT_BASE, (SweepAxis("g_abs", 0.01, 0.1, 2),))
        with pytest.raises(ValueError, match="cavity-coupled"):
            sweep(ISWAP_BASE, (SweepAxis("geff_abs", 0.01, 0.1, 2),))

    def test_conflicting_axes_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            sweep(
                ISWAP_BASE,
                (SweepAxis("g_abs", 0.01, 0.1, 2), SweepAxis("g_over_delta_b", 0.1, 0.5, 2)),
            )


class TestSweep:
    def test_rows_match_individual_gate_runs(self):
        cases = [
            (ISWAP_BASE, (SweepAxis("g_over_delta_b", 0.1, 0.2, 2),)),
            (INDIRECT_BASE, (SweepAxis("geff_over_delta_b", 0.05, 0.5, 19),)),  # 3 stacks
        ]
        for base, axes in cases:
            target = gate_target(base.gate)
            for row in sweep(base, axes).rows:
                spec = derive_point_spec(base, axes, row.values)
                res = run_gate(spec, target)
                got = (row.fidelity, row.leakage, row.theta_a, row.theta_b, row.theta_global)
                assert got == (res.fidelity, res.leakage, res.theta_a, res.theta_b, res.theta_global)
                assert row.t_g_ns == gate_time(spec, target)
                assert row.status == "ok"

    def test_lexicographic_row_order(self):
        axes = (
            SweepAxis("delta_a_over_g", 1.0, 2.0, 2),
            SweepAxis("delta_b_over_g", 3.0, 5.0, 3),
        )
        base = SweepBase(
            DirectSystemSpec(QubitSpec(5.5, 0.15, 3), QubitSpec(5.5, 0.10, 3), 0.05), "iswap"
        )
        grid = sweep(base, axes)
        values = [row.values for row in grid.rows]
        assert values == [(a, b) for a in (1.0, 2.0) for b in (3.0, 4.0, 5.0)]

    def test_parallel_evaluation_is_deterministic(self):
        axes = (SweepAxis("g_over_delta_b", 0.05, 0.3, 6),)
        rows1 = sweep(ISWAP_BASE, axes, jobs=1).rows
        rows4 = sweep(ISWAP_BASE, axes, jobs=4).rows
        assert rows1 == rows4

    def test_threaded_sweeps_leave_warning_filters_alone(self):
        axes = (SweepAxis("g_over_delta_b", 0.05, 0.3, 20),)
        for _ in range(30):
            before = list(warnings.filters)
            sweep(ISWAP_BASE, axes, jobs=2)
            assert list(warnings.filters) == before

    def test_sweep_runs_every_point_in_the_calling_thread(self, monkeypatch):
        # square-pulse points are evaluated in stacks: record the thread of
        # each stacked evaluation once per point it evaluates
        threads = []
        square_rows = sweeps_module._square_rows

        def recording_square_rows(chunk, target):
            threads.extend([threading.get_ident()] * len(chunk))
            return square_rows(chunk, target)

        monkeypatch.setattr(sweeps_module, "_square_rows", recording_square_rows)
        sweep(ISWAP_BASE, (SweepAxis("g_over_delta_b", 0.05, 0.3, 8),), jobs=4)
        assert threads == [threading.get_ident()] * 8

    def test_detuned_base_warns_once_per_sweep(self):
        detuned = SweepBase(
            DirectSystemSpec(QubitSpec(5.5, 0.15, 3), QubitSpec(5.52, 0.10, 3), 0.011), "iswap"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grid = sweep(detuned, (SweepAxis("g_over_delta_b", 0.05, 0.3, 5),))
        assert [str(w.message).split(" is ")[0] for w in caught] == [
            "iswap resonance condition freq_a = freq_b"
        ]
        assert all(row.status == "ok" for row in grid.rows)

    def test_failed_points_recorded_in_row(self):
        # negative anharmonicity values cannot build a qubit; the sweep keeps going
        axes = (SweepAxis("delta_b_abs", -0.1, 0.1, 3),)
        grid = sweep(ISWAP_BASE, axes)
        statuses = [row.status for row in grid.rows]
        assert statuses[0].startswith("error:")
        assert statuses[-1] == "ok"
        assert np.isnan(grid.rows[0].fidelity)

    def test_fidelity_array_shape(self):
        axes = (
            SweepAxis("delta_a_over_g", 1.0, 2.0, 2),
            SweepAxis("delta_b_over_g", 3.0, 5.0, 3),
        )
        base = SweepBase(
            DirectSystemSpec(QubitSpec(5.5, 0.15, 3), QubitSpec(5.5, 0.10, 3), 0.05), "iswap"
        )
        assert sweep(base, axes).fidelity_array().shape == (2, 3)


DIRECT_2D = SweepBase(
    DirectSystemSpec(QubitSpec(5.5, 0.15, 3), QubitSpec(5.5, 0.10, 3), 0.05), "iswap"
)
FIVE_LEVEL = SweepBase(
    DirectSystemSpec(QubitSpec(5.5, 0.15, 5), QubitSpec(5.5, 0.10, 5), 0.011), "iswap"
)
BATCH_CASES = {
    # 250 points of dimension 9: two stacks of at most 16384 // 81 = 202
    "direct-1d": (ISWAP_BASE, (SweepAxis("g_over_delta_b", 0.01, 0.5, 250),)),
    "direct-2d": (
        DIRECT_2D,
        (SweepAxis("delta_a_over_g", 0.5, 8.0, 4), SweepAxis("delta_b_over_g", 0.5, 8.0, 5)),
    ),
    "cz-2d": (
        CZ_BASE,
        (SweepAxis("g_abs", 0.005, 0.06, 3), SweepAxis("delta_b_abs", 0.05, 0.25, 4)),
    ),
    # dimension 45: stacks of 8
    "cavity": (INDIRECT_BASE, (SweepAxis("geff_over_delta_b", 0.05, 0.5, 19),)),
    "cavity-iswap": (
        SweepBase(
            IndirectSystemSpec(QubitSpec(8.2, 0.2, 3), QubitSpec(8.2, 0.25, 3), 6.9, 0.199), "iswap"
        ),
        (SweepAxis("geff_abs", 0.005, 0.05, 10),),
    ),
    # dimension 25, the largest grid of a truncation study
    "five-levels": (FIVE_LEVEL, (SweepAxis("g_over_delta_b", 0.05, 0.5, 30),)),
}


def assert_rows_are_single_point_rows(base, axes, rows):
    assert all(row.status == "ok" for row in rows)
    assert rows == tuple(evaluate_point(base, axes, row.values) for row in rows)


class TestBatching:
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_sweep_rows_equal_single_point_rows(self, case):
        base, axes = BATCH_CASES[case]
        assert_rows_are_single_point_rows(base, axes, sweep(base, axes).rows)

    def test_truncation_study_rows_equal_single_point_rows(self):
        axis = SweepAxis("g_over_delta_b", 0.05, 0.5, 19)
        for grid in truncation_study(ISWAP_BASE, [3, 4, 5], axis):
            assert_rows_are_single_point_rows(grid.base, grid.axes, grid.rows)

    def test_chunks_hold_at_most_the_stack_bound(self, monkeypatch):
        sizes = []
        square_rows = sweeps_module._square_rows

        def recording_square_rows(chunk, target):
            sizes.append(len(chunk))
            return square_rows(chunk, target)

        monkeypatch.setattr(sweeps_module, "_square_rows", recording_square_rows)
        sweep(*BATCH_CASES["direct-1d"])
        sweep(*BATCH_CASES["cavity"])
        assert sizes == [202, 48, 8, 8, 3]

    def test_derivation_failure_stays_in_its_row(self):
        axes = (SweepAxis("delta_b_abs", -0.1, 0.2, 4),)
        rows = sweep(CZ_BASE, axes).rows
        assert rows[0].status == "error:ValueError"
        assert_rows_are_single_point_rows(CZ_BASE, axes, rows[1:])

    def test_infinite_gate_time_stays_in_its_row(self):
        # 1 / (4 g) overflows for a subnormal g; a square segment rejects it
        axes = (SweepAxis("g_abs", 1e-320, 0.011, 2),)
        with np.errstate(over="ignore"):
            rows = sweep(ISWAP_BASE, axes).rows
        assert rows[0].status == "error:ValueError"
        assert_rows_are_single_point_rows(ISWAP_BASE, axes, rows[1:])

    def test_stacked_eigensolver_failure_falls_back_to_single_points(self, monkeypatch):
        base, axes = BATCH_CASES["cavity"]
        expected = sweep(base, axes).rows
        spec = derive_point_spec(base, axes, expected[10].values)
        even, _ = parity_blocks(spec)
        bad = hamiltonian_stack([spec])[0][np.ix_(even, even)]
        eigh = np.linalg.eigh

        def failing_eigh(h):
            if any(np.array_equal(m, bad) for m in h):
                raise np.linalg.LinAlgError("forced")
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        rows = sweep(base, axes).rows
        assert rows[10].status == "error:LinAlgError"
        assert np.isnan(rows[10].fidelity)
        assert rows[:10] + rows[11:] == expected[:10] + expected[11:]

    def test_unitarity_failure_stays_in_its_row(self, monkeypatch):
        base, axes = BATCH_CASES["cavity"]
        expected = sweep(base, axes).rows
        bad = hamiltonian_stack([derive_point_spec(base, axes, expected[3].values)])[0]
        constant_propagators = sweeps_module.constant_propagators

        def leaky_propagators(h, *args):
            u, defects = constant_propagators(h, *args)
            hit = np.array([np.array_equal(m, bad) for m in h])
            return u, np.where(hit, 1e-6, defects)

        monkeypatch.setattr(sweeps_module, "constant_propagators", leaky_propagators)
        rows = sweep(base, axes).rows
        assert rows[3].status == "error:UnitarityError"
        assert rows[:3] + rows[4:] == expected[:3] + expected[4:]


def sweep_case(name):
    """Run one batching case; returns the dimension of its systems."""
    base, axes = BATCH_CASES[name]
    sweep(base, axes)
    return base.system.dim


def ramped_cz_gate():
    spec = CZ_BASE.system
    run_gate(spec, CZ, trapezoid_schedule(2.0, gate_time(spec, CZ)), 0.05)
    return spec.dim


class TestParitySplit:
    @pytest.mark.parametrize(
        "run",
        [lambda: sweep_case("cavity"), lambda: sweep_case("five-levels"), ramped_cz_gate],
        ids=["cavity-sweep", "five-level-sweep", "ramped-run-gate"],
    )
    def test_eigensolver_sees_at_most_half_the_space(self, run, monkeypatch):
        # the propagators diagonalize each excitation-parity block on its own
        sides = []
        eigh = np.linalg.eigh

        def spying_eigh(h):
            sides.append(h.shape[-1])
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", spying_eigh)
        dim = run()
        assert sides and max(sides) <= math.ceil(dim / 2)

    def test_ramps_bypass_the_eigensolver(self, monkeypatch):
        # only the hold of the trapezoid is diagonalized, as one stack of one
        # matrix per parity block; its ramps take the Taylor series
        shapes = []
        eigh = np.linalg.eigh

        def spying_eigh(h):
            shapes.append(h.shape)
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", spying_eigh)
        ramped_cz_gate()
        assert shapes == [(1, len(ix), len(ix)) for ix in parity_blocks(CZ_BASE.system)]


class TestThreshold:
    def test_crossing_location_and_gate_time(self):
        axes = (SweepAxis("g_over_delta_b", 0.10, 0.20, 11),)
        grid = sweep(ISWAP_BASE, axes)
        result = threshold(grid, 0.99)
        assert result.crossed
        assert result.value == pytest.approx(0.1523, abs=0.002)
        assert result.t_g_ns == pytest.approx(1 / (4 * result.value * 0.10), rel=1e-6)

    def test_result_invariant_to_grid_density(self):
        coarse = sweep(ISWAP_BASE, (SweepAxis("g_over_delta_b", 0.10, 0.20, 50),), jobs=2)
        fine = sweep(ISWAP_BASE, (SweepAxis("g_over_delta_b", 0.10, 0.20, 200),), jobs=2)
        t1 = threshold(coarse, 0.99).value
        t2 = threshold(fine, 0.99).value
        assert abs(t1 - t2) <= 2e-4  # both bisected to 1e-4 axis resolution

    def test_not_crossed(self):
        grid = synthetic_grid(np.linspace(0.1, 0.2, 5), np.ones(5))
        result = threshold(grid, 0.99)
        assert not result.crossed
        assert result.value is None

    def test_rejects_curve_starting_below_level(self):
        grid = synthetic_grid(np.linspace(0.1, 0.2, 5), np.full(5, 0.5))
        with pytest.raises(ValueError, match="below level"):
            threshold(grid, 0.99)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_level(self, level):
        grid = synthetic_grid(np.linspace(0.1, 0.2, 5), np.ones(5))
        with pytest.raises(ValueError, match=f"threshold level must be finite, got {level}"):
            threshold(grid, level)

    def test_needs_1d_grid(self):
        axes = (
            SweepAxis("delta_a_over_g", 1.0, 2.0, 2),
            SweepAxis("delta_b_over_g", 3.0, 5.0, 2),
        )
        base = SweepBase(
            DirectSystemSpec(QubitSpec(5.5, 0.15, 3), QubitSpec(5.5, 0.10, 3), 0.05), "iswap"
        )
        with pytest.raises(ValueError, match="1D"):
            threshold(sweep(base, axes), 0.99)


class TestStudies:
    def test_truncation_matches_plain_sweep(self):
        axis = SweepAxis("g_over_delta_b", 0.1, 0.2, 3)
        grids = truncation_study(ISWAP_BASE, [3], axis)
        assert len(grids) == 1
        assert grids[0].rows == sweep(ISWAP_BASE, (axis,)).rows

    def test_truncation_sets_both_qubits(self):
        axis = SweepAxis("g_over_delta_b", 0.1, 0.2, 2)
        grids = truncation_study(ISWAP_BASE, [3, 5], axis)
        assert grids[1].base.system.qubit_a.n_levels == 5
        assert grids[1].base.system.qubit_b.n_levels == 5
        with pytest.raises(ValueError, match="qubit n_levels must be an integer, got 3.7"):
            truncation_study(ISWAP_BASE, [3.7], axis)

    def test_ramp_study_requires_direct_cz(self):
        axis = SweepAxis("g_over_delta_b", 0.1, 0.2, 2)
        with pytest.raises(ValueError, match="CZ"):
            ramp_study(ISWAP_BASE, [0.0, 5.0], axis)
        with pytest.raises(ValueError, match="CZ"):
            ramp_study(INDIRECT_BASE, [0.0, 5.0], axis)

    def test_ramp_study_zero_tau_matches_square(self):
        axis = SweepAxis("g_over_delta_b", 0.1, 0.15, 2)
        grids = ramp_study(CZ_BASE, [0.0], axis)
        assert grids[0].rows == sweep(CZ_BASE, (axis,)).rows

    def test_ramped_points_run_the_trapezoid(self):
        base = SweepBase(CZ_BASE.system, "cz", tau_d=5.0)
        axes = (SweepAxis("g_over_delta_b", 0.1, 0.15, 2),)
        row = evaluate_point(base, axes, (0.15,))
        spec = derive_point_spec(base, axes, (0.15,))
        t_g = gate_time(spec, CZ)
        assert row.fidelity == run_gate(spec, CZ, trapezoid_schedule(5.0, t_g)).fidelity
        assert row.fidelity != run_gate(spec, CZ).fidelity

    def test_zero_coupling_cz_is_phase_compensated_identity(self):
        # no entangling dynamics: the evolution is diagonal and Z-compensable,
        # so the ramped gate fidelity only reflects the missing pi phase
        base = SweepBase(CZ_BASE.system, "cz", tau_d=5.0)
        axes = (SweepAxis("g_over_delta_b", 1e-6, 1.0, 2),)
        row = evaluate_point(base, axes, (1e-6,))
        assert row.fidelity == pytest.approx(1.0, abs=1e-4)


class TestDetrending:
    def test_recovers_injected_oscillation(self):
        x = np.linspace(0.1, 0.5, 60)
        trend = 1.0 - 0.05 * x - 0.2 * x**2
        wiggle = 0.004 * np.sin(80 * x)
        grid = synthetic_grid(x, trend + wiggle)
        amp = detrended_amplitude(grid, degree=3)
        assert amp == pytest.approx(0.008, rel=0.15)

    def test_smooth_curve_has_tiny_residual(self):
        x = np.linspace(0.1, 0.5, 60)
        grid = synthetic_grid(x, 1.0 - 0.05 * x - 0.2 * x**2)
        assert detrended_amplitude(grid, degree=3) < 1e-12

    def test_needs_enough_points(self):
        grid = synthetic_grid(np.linspace(0, 1, 4), np.ones(4))
        with pytest.raises(ValueError, match="points"):
            detrended_amplitude(grid, degree=3)
