import threading
import warnings

import numpy as np
import pytest

from scgates import sweeps as sweeps_module
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
    gate_time,
    ramp_study,
    run_gate,
    sweep,
    threshold,
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

    def test_values_are_uniform(self):
        ax = SweepAxis("g_abs", 0.0, 1.0, 5)
        assert np.array_equal(ax.values(), np.linspace(0.0, 1.0, 5))


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
        axes = (SweepAxis("g_over_delta_b", 0.1, 0.2, 2),)
        grid = sweep(ISWAP_BASE, axes)
        for row in grid.rows:
            spec = derive_point_spec(ISWAP_BASE, axes, row.values)
            res = run_gate(spec, ISWAP)
            assert row.fidelity == res.fidelity
            assert row.t_g_ns == gate_time(spec, ISWAP)
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
        threads = []

        def recording_run_gate(*args, **kwargs):
            threads.append(threading.get_ident())
            return run_gate(*args, **kwargs)

        monkeypatch.setattr(sweeps_module, "run_gate", recording_run_gate)
        sweep(ISWAP_BASE, (SweepAxis("g_over_delta_b", 0.05, 0.3, 8),), jobs=4)
        assert threads == [threading.get_ident()] * 8

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
