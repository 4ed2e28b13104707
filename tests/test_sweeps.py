import itertools
import math
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgates import sweeps as sweeps_module
from scgates import evolution, presets
from scgates.cli import parse_config
from scgates.hamiltonians import hamiltonian_parts, parameter_rows, parity_blocks
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
    ThresholdResult,
    UnitarityError,
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


def oracle_point(base, names, values):
    """``(spec, t_g, error)`` at one grid point, built one point at a time as the module docstring's axis semantics say.

    ``spec`` is None if building it raised and ``t_g`` None if it or the
    gate's schedule raised; ``error`` is the class of what raised, or None.
    """
    system, qa, qb = base.system, base.system.qubit_a, base.system.qubit_b
    by_name, target, spec = dict(zip(names, values)), gate_target(base.gate), None
    try:
        indirect = isinstance(system, IndirectSystemSpec)
        if "delta_a_over_g" in by_name or "delta_b_over_g" in by_name:
            coupling = effective_couplings(system).g_eff_1 if indirect else system.g
        anharm_a, anharm_b = qa.anharm, qb.anharm
        if "delta_b_abs" in by_name:
            anharm_b = by_name["delta_b_abs"]
        if "delta_b_over_g" in by_name:
            anharm_b = by_name["delta_b_over_g"] * coupling
        if "delta_a_over_g" in by_name:
            anharm_a = by_name["delta_a_over_g"] * coupling
        changed = "delta_b_abs" in by_name or "delta_b_over_g" in by_name
        if base.tie_anharm and changed:
            anharm_a = anharm_b
        freq_b = qa.freq + anharm_b if changed and target.kind == "cz" else qb.freq
        new_qa, new_qb = QubitSpec(qa.freq, anharm_a, qa.n_levels), QubitSpec(freq_b, anharm_b, qb.n_levels)
        if indirect:
            g_qc = system.g_qc
            geff = by_name.get("geff_abs", by_name.get("geff_over_delta_b", 0.0) * anharm_b)
            if "geff_abs" in by_name or "geff_over_delta_b" in by_name:
                product = geff * (qa.freq - system.cavity_freq)
                if product <= 0:
                    raise ValueError("opposite signs")
                g_qc = math.sqrt(product)
            spec = IndirectSystemSpec(new_qa, new_qb, system.cavity_freq, g_qc, system.n_photons)
        else:
            g = system.g
            if "g_over_delta_b" in by_name:
                g = by_name["g_over_delta_b"] * anharm_b
            elif "g_abs" in by_name:
                g = by_name["g_abs"]
            spec = DirectSystemSpec(new_qa, new_qb, g)
        t_g = gate_time(spec, target)
        trapezoid_schedule(base.tau_d, t_g)
    except (ValueError, ArithmeticError) as exc:
        return spec, None, type(exc)
    return spec, t_g, None


def _bases():
    # frequencies on the cavity, or an anharmonicity away from it, leave a dispersive denominator
    # near zero, and g_qc = 1e200 overflows its square
    freq, anharm = st.one_of(st.floats(4.0, 9.0), st.sampled_from([6.9, 8.0, 8.2])), st.one_of(st.floats(0.0, 0.3), st.just(0.2))
    qubit = st.builds(QubitSpec, freq, anharm, st.integers(2, 4))
    direct = st.builds(DirectSystemSpec, qubit, qubit, st.sampled_from([0.0, 5e-324, 0.01, 0.04]))
    # a cavity between, below or above the qubits, so that detunings take either sign or nearly vanish
    g_qc = st.one_of(st.floats(0.0, 0.3), st.sampled_from([0.0, 1e200]))
    cavity = st.builds(IndirectSystemSpec, qubit, qubit, st.sampled_from([4.0, 6.9, 8.2, 10.0]), g_qc, st.just(3))
    return st.builds(
        SweepBase,
        st.one_of(direct, cavity),
        st.sampled_from(["iswap", "cz", "ISWAP", "CZ"]),
        st.sampled_from([0.0, 2.0]),
        tie_anharm=st.booleans(),
    )


#: Axis values that fail as well as ones that work: negative and subnormal values, zero, and a
#: g_eff whose sign is opposite to qubit A's detuning from the cavity; 0.2 retunes qubit B of
#: frequency 8.0 onto a cavity at 8.2.
AXIS_STARTS = st.sampled_from([-0.3, -1e-3, 0.0, 5e-324, 1e-3, 0.02, 0.1, 0.2, 0.5, 2.0])


class TestDerivationArrays:
    """A grid's points are derived as arrays (``_derive``); each entry is what one point's derivation gives."""

    @staticmethod
    def axis_names(base, count: int):
        """Every tuple of ``count`` axis names that a sweep of ``base`` takes, in either order."""
        allowed = []
        for names in itertools.permutations(sorted(sweeps_module.AXIS_NAMES), count):
            try:
                sweeps_module._validate_axes(base, tuple(SweepAxis(name, 0.0, 1.0, 2) for name in names))
            except ValueError:
                continue
            allowed.append(names)
        return allowed

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(base=_bases(), data=st.data())
    def test_each_point_is_its_one_point_derivation_bit_for_bit(self, base, data):
        names = data.draw(st.sampled_from(self.axis_names(base, data.draw(st.integers(1, 2)))))
        axes = tuple(
            SweepAxis(name, start, start + data.draw(st.sampled_from([1e-3, 0.05, 1.0])), data.draw(st.integers(2, 3)))
            for name, start in zip(names, [data.draw(AXIS_STARTS) for _ in names])
        )
        values = sweeps_module._grid_points([base], axes)
        with np.errstate(over="ignore"):  # gate_time divides by a subnormal coupling in numpy
            expected = [oracle_point(base, names, point) for point in values.tolist()]
        try:
            rows, t_g, errors = sweeps_module._derive(base, names, values)
        except (ValueError, ArithmeticError) as exc:
            # only the base coupling of the ratio axes raises, and every point fails with it
            with pytest.raises(type(exc)):
                sweeps_module._base_coupling(base, names)
            assert {error for _, _, error in expected} == {type(exc)}
        else:
            for (spec, time, error), row, got_time, got_error in zip(expected, rows, t_g.tolist(), errors.tolist()):
                assert got_error is error
                if spec is not None:
                    assert row.tobytes() == parameter_rows([spec]).tobytes()
                if time is not None:
                    assert got_time == time
                else:
                    assert math.isnan(got_time)
        spec, _, error = expected[0]
        if spec is None:
            with pytest.raises(error):
                derive_point_spec(base, axes, values[0])
        else:
            assert derive_point_spec(base, axes, values[0]) == spec
        if data.draw(st.integers(0, 9)) == 0:  # a few draws run the grid too
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rows = sweep(base, axes).rows
                assert rows == tuple(evaluate_point(base, axes, row.values) for row in rows)
            assert [row.status for row in rows] == ["ok" if e is None else f"error:{e.__name__}" for _, _, e in expected]


    def test_a_squared_g_qc_that_overflows_fails_its_point_as_gate_time_does(self):
        # Python's float power raises OverflowError; the arrays square with np.float_power
        system = replace(INDIRECT_BASE.system, g_qc=1e200)
        axes = (SweepAxis("delta_b_abs", 0.1, 0.2, 3),)
        rows = sweep(SweepBase(system, "cz"), axes).rows
        assert [row.status for row in rows] == ["error:OverflowError"] * 3
        with pytest.raises(OverflowError):
            gate_time(derive_point_spec(SweepBase(system, "cz"), axes, (0.1,)), CZ)


class TestGateNames:
    """Gate names are read case-blind, as ``gate_target`` reads them: an uppercase name runs the lowercase gate."""

    def test_an_uppercase_cz_sweep_retunes_qubit_b(self):
        # a missed retune leaves qubit B detuned, which only warns
        base = SweepBase(CZ_BASE.system, "cz")
        axes = (SweepAxis("delta_a_over_g", 0.5, 8.0, 2), SweepAxis("delta_b_over_g", 0.5, 8.0, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            upper = sweep(replace(base, gate="CZ"), axes)
        assert upper.rows == sweep(base, axes).rows

    def test_an_uppercase_ramp_study_runs(self):
        axis = SweepAxis("g_over_delta_b", 0.1, 0.3, 5)
        grids = ramp_study(replace(CZ_BASE, gate="CZ"), [0.0, 2.0], axis)
        assert [grid.rows for grid in grids] == [grid.rows for grid in ramp_study(CZ_BASE, [0.0, 2.0], axis)]


POINT_FUNCTIONS = pytest.mark.parametrize("point", [derive_point_spec, evaluate_point], ids=["derive", "evaluate"])


class TestPointChecks:
    """A single point is checked as a sweep checks its grid, on the fig3a base, rather than answered for another point."""

    @staticmethod
    def fig3a():
        cfg = parse_config(presets.figure_config("fig3a"))
        return cfg.base, cfg.axes

    @POINT_FUNCTIONS
    def test_rejects_more_values_than_axes(self, point):
        base, axes = self.fig3a()
        with pytest.raises(ValueError, match="one value per axis, 1 in all, got 2"):
            point(base, axes, (0.2, 0.7))

    @POINT_FUNCTIONS
    def test_rejects_no_values(self, point):
        base, axes = self.fig3a()
        with pytest.raises(ValueError, match="one value per axis, 1 in all, got 0"):
            point(base, axes, ())

    @POINT_FUNCTIONS
    def test_rejects_a_cavity_axis_on_a_direct_base(self, point):
        base, _ = self.fig3a()
        with pytest.raises(ValueError, match="cavity-coupled"):
            point(base, (SweepAxis("geff_abs", 0.01, 0.05, 5),), (0.02,))

    @POINT_FUNCTIONS
    def test_rejects_conflicting_coupling_axes(self, point):
        base, _ = self.fig3a()
        axes = (SweepAxis("g_abs", 0.01, 0.05, 5), SweepAxis("g_over_delta_b", 0.1, 0.5, 5))
        with pytest.raises(ValueError, match="conflicting coupling axes"):
            point(base, axes, (0.02, 0.3))


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
        # points are evaluated in stacks: record the thread of each stacked
        # evaluation once per point it evaluates
        threads = []
        blocks = sweeps_module._blocks

        def recording_blocks(sizes, rows, scales, durations, dt):
            threads.extend([threading.get_ident()] * len(rows))
            return blocks(sizes, rows, scales, durations, dt)

        monkeypatch.setattr(sweeps_module, "_blocks", recording_blocks)
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

    def test_the_base_coupling_is_computed_once_per_sweep(self, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec)
            return effective_couplings(spec)

        monkeypatch.setattr(sweeps_module, "effective_couplings", counted)
        axes = (SweepAxis("delta_a_over_g", 1.0, 2.0, 3), SweepAxis("delta_b_over_g", 1.0, 2.0, 3))
        rows = sweep(INDIRECT_BASE, axes).rows
        assert calls == [INDIRECT_BASE.system]
        assert_rows_are_single_point_rows(INDIRECT_BASE, axes, rows)
        # qubit A at the cavity: the base coupling fails, and with it every row, as each would alone
        calls.clear()
        system = replace(INDIRECT_BASE.system, qubit_a=replace(INDIRECT_BASE.system.qubit_a, freq=6.9))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = sweep(SweepBase(system, "cz"), axes[1:]).rows
        assert [row.status for row in rows] == ["error:DispersiveRegimeError"] * 3
        assert len(calls) == 1

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
    # 250 points of dimension 9: one stack
    "direct-1d": (ISWAP_BASE, (SweepAxis("g_over_delta_b", 0.01, 0.5, 250),)),
    "direct-2d": (
        DIRECT_2D,
        (SweepAxis("delta_a_over_g", 0.5, 8.0, 4), SweepAxis("delta_b_over_g", 0.5, 8.0, 5)),
    ),
    "cz-2d": (
        CZ_BASE,
        (SweepAxis("g_abs", 0.005, 0.06, 3), SweepAxis("delta_b_abs", 0.05, 0.25, 4)),
    ),
    # dimension 45: one stack
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


RAMPED_CASES = {
    # 2 ns ramps at dt 0.05: six points of dimension 9, one stack
    "direct-cz": (replace(CZ_BASE, tau_d=2.0, dt=0.05), (SweepAxis("g_over_delta_b", 0.1, 0.3, 6),)),
    # 1 ns ramps of dimension 45 at the default dt: one stack
    "cavity-1ns": (replace(INDIRECT_BASE, tau_d=1.0), (SweepAxis("geff_over_delta_b", 0.05, 0.5, 18),)),
    # qubit B's anharmonicity, and with it its frequency and d1, differ from point to point
    "direct-cz-detuning": (replace(CZ_BASE, tau_d=2.0, dt=0.05), (SweepAxis("delta_b_abs", 0.06, 0.3, 6),)),
    # 5 ns ramps at the default dt, one polynomial run per block: qubit B's frequency
    # crosses 5.57 GHz, where the run's group degrees change, so the stack splits in two plans
    "direct-cz-plans": (
        SweepBase(DirectSystemSpec(QubitSpec(5.5, 0.15, 3), QubitSpec(5.6, 0.10, 3), 0.01), "cz", tau_d=5.0),
        (SweepAxis("delta_b_abs", 0.05, 0.3, 6),),
    ),
}


def cavity_base(levels: int) -> SweepBase:
    """The cavity CZ base with both qubits truncated to ``levels``: dimension 45, 80 or 125 for 3, 4 or 5."""
    system = INDIRECT_BASE.system
    qubits = {name: replace(getattr(system, name), n_levels=levels) for name in ("qubit_a", "qubit_b")}
    return replace(INDIRECT_BASE, system=replace(system, **qubits))


SQUARE_CASES = {
    # dimension 45: one stack of 10
    "cavity-45": (cavity_base(3), (SweepAxis("geff_over_delta_b", 0.05, 0.5, 10),)),
    # dimension 125: stacks of 5 and 2 (test_chunks_hold_at_most_the_stack_bound)
    "cavity-125": (cavity_base(5), (SweepAxis("geff_over_delta_b", 0.05, 0.5, 7),)),
}


def assert_rows_are_run_gate_rows(base, axes, rows):
    # evaluate_point shares the stacked path, so compare with run_gate itself
    target = gate_target(base.gate)
    for row in rows:
        spec = derive_point_spec(base, axes, row.values)
        t_g = gate_time(spec, target)
        res = run_gate(spec, target, trapezoid_schedule(base.tau_d, t_g), base.dt)
        phases = (res.theta_a, res.theta_b, res.theta_global)
        assert row == SweepPoint(row.values, res.fidelity, t_g, res.leakage, *phases, "ok")


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
        blocks = sweeps_module._blocks

        def recording_blocks(stack_sizes, rows, scales, durations, dt):
            sizes.append(len(rows))
            return blocks(stack_sizes, rows, scales, durations, dt)

        monkeypatch.setattr(sweeps_module, "_blocks", recording_blocks)
        sweep(*BATCH_CASES["direct-1d"])
        sweep(*BATCH_CASES["cavity"])
        sweep(*SQUARE_CASES["cavity-125"])
        assert sizes == [250, 19, 5, 2]

    @pytest.mark.parametrize("levels", [3, 5])
    def test_a_full_chunk_holds_at_most_what_the_bound_promises(self, levels, monkeypatch):
        # numpy reports its array allocations to tracemalloc; the chunk runs once to fill the caches
        base = cavity_base(levels)
        dim, peaks = base.system.dim, []
        size = sweeps_module._STACK_ENTRIES // sweeps_module._point_entries(dim)
        blocks = sweeps_module._blocks

        def measured_blocks(sizes, rows, scales, durations, dt):
            blocks(sizes, rows, scales, durations, dt)
            tracemalloc.start()
            try:
                found = blocks(sizes, rows, scales, durations, dt)
                peaks.append((len(rows), tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            return found

        monkeypatch.setattr(sweeps_module, "_blocks", measured_blocks)
        grid = sweep(base, (SweepAxis("geff_over_delta_b", 0.05, 0.5, size),))
        assert all(row.status == "ok" for row in grid.rows)
        ((n, peak),) = peaks
        assert n == size > 1
        assert peak <= 8 * n * sweeps_module._point_entries(dim) <= 8 * sweeps_module._STACK_ENTRIES

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
        h0, h1 = hamiltonian_parts(spec)
        bad = (h0 + 1.0 * h1)[np.ix_(even, even)]  # what the square segment exponentiates
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
        (bad,) = parameter_rows([derive_point_spec(base, axes, expected[3].values)])
        stack_blocks = sweeps_module.stack_blocks

        def leaky_blocks(sizes, rows, *args):
            m, defects = stack_blocks(sizes, rows, *args)
            hit = (rows == bad).all(axis=1)
            return m, np.where(hit, 1e-6, defects)

        monkeypatch.setattr(sweeps_module, "stack_blocks", leaky_blocks)
        rows = sweep(base, axes).rows
        assert rows[3].status == "error:UnitarityError"
        assert rows[:3] + rows[4:] == expected[:3] + expected[4:]

    def test_a_failed_phase_solve_stays_in_its_row(self, monkeypatch):
        # 40 points of the 45-level cavity system: chunks of 38 and 2, scored in one phase solve;
        # one point's block is NaN, so that solve raises and each block is scored alone
        base, axes = cavity_base(3), (SweepAxis("geff_over_delta_b", 0.05, 0.5, 40),)
        expected = sweep(base, axes).rows
        (bad,) = parameter_rows([derive_point_spec(base, axes, expected[20].values)])
        stack_blocks, score_blocks = sweeps_module.stack_blocks, sweeps_module.score_blocks
        chunks, scored = [], []

        def nan_blocks(sizes, rows, scales, durations, dt):
            chunks.append(len(rows))
            m, defects = stack_blocks(sizes, rows, scales, durations, dt)
            m[(rows == bad).all(axis=1)] = np.nan
            return m, defects

        def counted_scores(m, target):
            scored.append(len(m))
            return score_blocks(m, target)

        monkeypatch.setattr(sweeps_module, "stack_blocks", nan_blocks)
        monkeypatch.setattr(sweeps_module, "score_blocks", counted_scores)
        with np.errstate(invalid="ignore"):
            rows = sweep(base, axes).rows
        assert chunks == [38, 2]
        assert scored == [40] + [1] * 40
        assert rows[20].status == "error:LinAlgError"
        assert rows[:20] + rows[21:] == expected[:20] + expected[21:]
        assert_rows_are_run_gate_rows(base, axes, rows[:20] + rows[21:])

    @pytest.mark.parametrize("run, sizes", [
        (lambda: sweep(*SQUARE_CASES["cavity-125"]), [7]),  # chunks of 5 and 2
        (lambda: ramp_study(CZ_BASE, STUDY_TAUS, STUDY_AXIS), [20]),  # a square and a ramped stack
        (lambda: truncation_study(INDIRECT_BASE, [3, 4], SweepAxis("geff_over_delta_b", 0.05, 0.5, 13)), [26]),
    ], ids=["chunks", "ramp-study", "truncation-study"])
    def test_a_run_takes_one_phase_solve(self, run, sizes, monkeypatch):
        scored, score_blocks = [], sweeps_module.score_blocks

        def counted_scores(m, target):
            scored.append(len(m))
            return score_blocks(m, target)

        monkeypatch.setattr(sweeps_module, "score_blocks", counted_scores)
        run()
        assert scored == sizes

    @pytest.mark.parametrize("case", sorted(SQUARE_CASES))
    def test_square_rows_equal_run_gate_rows(self, case):
        base, axes = SQUARE_CASES[case]
        assert_rows_are_run_gate_rows(base, axes, sweep(base, axes).rows)

    @pytest.mark.parametrize("spoiled", [0, 1], ids=["even", "odd"])
    def test_sweep_unitarity_check_covers_every_block(self, spoiled, monkeypatch):
        # eigenvectors 1e-6 too long in one block only: the defect over the propagated columns must see it
        base, axes = SQUARE_CASES["cavity-45"]
        size = len(parity_blocks(base.system)[spoiled])
        eigh = np.linalg.eigh

        def spoiled_eigh(h):
            w, v = eigh(h)
            return w, v * (1 + 1e-6) if h.shape[-1] == size else v

        sizes, blocks = [], sweeps_module._blocks

        def recording_blocks(stack_sizes, rows, scales, durations, dt):
            sizes.append(len(rows))
            return blocks(stack_sizes, rows, scales, durations, dt)

        monkeypatch.setattr(np.linalg, "eigh", spoiled_eigh)
        monkeypatch.setattr(sweeps_module, "_blocks", recording_blocks)
        assert {row.status for row in sweep(base, axes).rows} == {"error:UnitarityError"}
        assert sizes == [axes[0].n_points]  # the stack's own defects failed it, not a point-by-point rerun
        spec = derive_point_spec(base, axes, (0.2,))
        with pytest.raises(UnitarityError):
            run_gate(spec, CZ)

    @pytest.mark.parametrize("case", sorted(RAMPED_CASES))
    def test_ramped_rows_equal_run_gate_rows(self, case, monkeypatch):
        base, axes = RAMPED_CASES[case]
        degrees = []
        chunks = evolution._ramp_chunks

        def recording_chunks(*args):
            for chunk, degree, group_degrees, run in chunks(*args):
                degrees.append(degree)
                yield chunk, degree, group_degrees, run

        monkeypatch.setattr(evolution, "_ramp_chunks", recording_chunks)
        rows = sweep(base, axes).rows
        if case == "cavity-1ns":
            # 200 exponentials per block within theta: one polynomial run of degree 6 each
            assert degrees and set(degrees) == {6}
        assert_rows_are_run_gate_rows(base, axes, rows)

    def test_a_ramped_stack_takes_one_ramp_kernel_call_per_block(self, monkeypatch):
        # the ramp back up retraces the ramp down, so each block's six points take one call
        base, axes = RAMPED_CASES["direct-cz"]
        stacks = []

        def record(name):
            kernel = getattr(evolution, name)

            def recording_kernel(h0, d1, scales, step, degree):
                stacks.append(h0.shape[:-1])
                return kernel(h0, d1, scales, step, degree)

            monkeypatch.setattr(evolution, name, recording_kernel)

        record("_ramp_coefficients")
        assert all(row.status == "ok" for row in sweep(base, axes).rows)
        assert sorted(stacks) == sorted((6, len(ix)) for ix in parity_blocks(base.system))

    def test_a_ramped_stack_splits_by_ramp_plan(self, monkeypatch):
        base, axes = RAMPED_CASES["direct-cz-plans"]
        plans = []
        ramp_plans = evolution._ramp_plans

        def recording_plans(*args):
            found = ramp_plans(*args)
            plans.append([(points, [degrees for _, _, degrees, _ in chunks]) for points, _, chunks in found])
            return found

        monkeypatch.setattr(evolution, "_ramp_plans", recording_plans)
        assert all(row.status == "ok" for row in sweep(base, axes).rows)
        assert plans == [[([0], [(7, 7, 9)]), ([1, 2, 3, 4, 5], [(7, 8, 9)])]] * 2

    def test_ramp_failure_stays_in_its_row(self, monkeypatch):
        base, axes = RAMPED_CASES["direct-cz"]
        expected = sweep(base, axes).rows
        h0, _ = hamiltonian_parts(derive_point_spec(base, axes, expected[2].values))
        even, _ = parity_blocks(base.system)
        bad = h0[np.ix_(even, even)]
        ramp_propagator = evolution._ramp_propagator

        def failing_ramp_propagator(parts, lengths, ends, dt):
            # a stack that holds the point fails as a whole, and is then run point by point
            if any(np.array_equal(h0, bad) for h0 in parts[0][0]):
                raise np.linalg.LinAlgError("forced")
            return ramp_propagator(parts, lengths, ends, dt)

        monkeypatch.setattr(evolution, "_ramp_propagator", failing_ramp_propagator)
        rows = sweep(base, axes).rows
        assert rows[2].status == "error:LinAlgError"
        assert np.isnan(rows[2].fidelity)
        assert rows[:2] + rows[3:] == expected[:2] + expected[3:]

    def test_detuned_ramped_sweep_warns_once(self):
        system = replace(CZ_BASE.system, qubit_b=replace(CZ_BASE.system.qubit_b, freq=7.3))
        base = SweepBase(system, "cz", tau_d=1.0, dt=0.05)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grid = sweep(base, (SweepAxis("g_over_delta_b", 0.1, 0.3, 4),))
        assert [str(w.message).split(" is ")[0] for w in caught] == [
            "cz resonance condition freq_b = freq_a + anharm_b"
        ]
        assert all(row.status == "ok" for row in grid.rows)

    def test_a_failed_detuned_stack_warns_once(self, monkeypatch):
        # the stack's ramp fails once, so its points are run again one by one through run_gate
        system = replace(CZ_BASE.system, qubit_b=replace(CZ_BASE.system.qubit_b, freq=7.3))
        base, axes = SweepBase(system, "cz", tau_d=1.0, dt=0.05), (SweepAxis("g_over_delta_b", 0.1, 0.3, 4),)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = sweep(base, axes).rows
        ramp_propagator, calls = evolution._ramp_propagator, []

        def failing_once(parts, lengths, ends, dt):
            calls.append(len(parts[0][0]))
            if len(calls) == 1:
                raise np.linalg.LinAlgError("forced")
            return ramp_propagator(parts, lengths, ends, dt)

        monkeypatch.setattr(evolution, "_ramp_propagator", failing_once)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = sweep(base, axes).rows
        assert calls == [4, 1, 1, 1, 1]
        assert [str(w.message).split(" is ")[0] for w in caught] == [
            "cz resonance condition freq_b = freq_a + anharm_b"
        ]
        assert rows == expected


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


def plain_threshold(grid, level, row_at):
    """``threshold`` by plain bisection, one point at a time, with ``row_at(x)`` the row at x."""
    ok = [row for row in grid.rows if row.status == "ok"]
    crossings = [(a.values[0], b.values[0]) for a, b in zip(ok, ok[1:]) if a.fidelity >= level > b.fidelity]
    if not crossings:
        return ThresholdResult(level, False, None, None)
    lo, hi = crossings[0]
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        row = row_at(mid)
        if row.status != "ok":
            raise RuntimeError(f"gate evaluation failed during bisection at {mid}")
        if row.fidelity >= level:
            lo = mid
        else:
            hi = mid
    value = 0.5 * (lo + hi)
    spec = derive_point_spec(grid.base, grid.axes, (value,))
    return ThresholdResult(level, True, value, gate_time(spec, gate_target(grid.base.gate)))


class TestThreshold:
    def test_crossing_location_and_gate_time(self):
        axes = (SweepAxis("g_over_delta_b", 0.10, 0.20, 11),)
        grid = sweep(ISWAP_BASE, axes)
        result = threshold(grid, 0.99)
        assert result.crossed
        assert result.value == pytest.approx(0.1523, abs=0.002)
        assert result.t_g_ns == pytest.approx(1 / (4 * result.value * 0.10), rel=1e-6)

    def test_the_crossing_gate_time_is_derived_not_propagated(self, monkeypatch):
        # 7 bisection steps, in rounds of _look_ahead(9) steps; the crossing's gate time is that
        # of its row, and the crossing itself is never evaluated
        grid = sweep(ISWAP_BASE, (SweepAxis("g_over_delta_b", 0.10, 0.20, 11),))
        calls = []
        evaluate = sweeps_module._evaluate

        def counted(bases, axes, points):
            calls.append(points)
            return evaluate(bases, axes, points)

        monkeypatch.setattr(sweeps_module, "_evaluate", counted)
        result = threshold(grid, 0.99)
        depth = sweeps_module._look_ahead(ISWAP_BASE.system.dim)
        assert [len(points) for points in calls] == [2**depth - 1] * (7 // depth) + [2 ** (7 % depth) - 1] * (7 % depth > 0)
        assert (result.value,) not in [point for points in calls for point in points]
        row = evaluate_point(grid.base, grid.axes, (result.value,))
        assert row.status == "ok"
        assert result == ThresholdResult(0.99, True, result.value, row.t_g_ns)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        start=st.floats(0.01, 0.3),
        width=st.floats(1e-3, 0.3),
        n_points=st.integers(2, 12),
        level=st.floats(0.5, 0.999),
        amplitude=st.floats(1e-3, 0.4),
        frequency=st.floats(1.0, 500.0),
        phase=st.floats(-1.5, 1.5),
        drop=st.floats(1e-3, 0.1),
        every=st.sampled_from([0, 2, 7, 50]),
        depth=st.integers(1, 5),
    )
    def test_look_ahead_equals_plain_bisection(
        self, start, width, n_points, level, amplitude, frequency, phase, drop, every, depth
    ):
        # a synthetic curve that starts above the level, oscillates through it and ends below it,
        # with failed points wherever floor(x 10^9) is a multiple of ``every``
        def curve(x):
            wave = amplitude * math.cos(frequency * (x - start) + phase)
            fidelity = level + wave - (amplitude + drop) * (x - start) / width
            return SweepPoint((x,), fidelity, *[0.0] * 5, "ok")

        def row_at(x):
            if every and math.floor(x * 1e9) % every == 0:
                return SweepPoint((x,), *[math.nan] * 6, "error:ValueError")
            return curve(x)

        axis = SweepAxis("g_over_delta_b", start, start + width, n_points)
        grid = SweepGrid(ISWAP_BASE, (axis,), tuple(curve(x) for x in axis.values()))
        try:
            expected = plain_threshold(grid, level, row_at)
        except RuntimeError as exc:
            expected = exc
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweeps_module, "_look_ahead", lambda dim: depth)
            patch.setattr(sweeps_module, "_evaluate", lambda bases, axes, points: [[row_at(x) for (x,) in points]])
            if isinstance(expected, RuntimeError):
                with pytest.raises(RuntimeError) as raised:
                    threshold(grid, level)
                assert str(raised.value) == str(expected)
            else:
                assert threshold(grid, level) == expected

    def test_a_failed_row_beside_the_crossing_does_not_hide_it(self):
        # the crossing is bracketed by the successful rows on either side of the failed one
        grid = sweep(ISWAP_BASE, (SweepAxis("g_over_delta_b", 0.10, 0.20, 11),))
        after = next(i for i, row in enumerate(grid.rows) if row.fidelity < 0.99)
        rows = list(grid.rows)
        rows[after] = SweepPoint(rows[after].values, *[math.nan] * 6, "error:ValueError")
        result = threshold(replace(grid, rows=tuple(rows)), 0.99)
        assert result.crossed
        assert result.value == pytest.approx(0.1523, abs=0.002)
        assert abs(result.value - threshold(grid, 0.99).value) <= 2e-4

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


#: One ramp study whose ramped curves form one stack of polynomial runs, 100 to 8,000 exponentials
#: long; the square curve is a stack of its own.
STUDY_TAUS = [0.0, 0.5, 1.0, 5.0, 40.0]
STUDY_AXIS = SweepAxis("g_over_delta_b", 0.1, 0.3, 4)


class TestStudyStacks:
    def test_ramp_study_grids_equal_their_own_sweeps_bit_for_bit(self):
        grids = ramp_study(CZ_BASE, STUDY_TAUS, STUDY_AXIS)
        assert all(row.status == "ok" for grid in grids for row in grid.rows)
        assert grids == [sweep(replace(CZ_BASE, tau_d=tau), (STUDY_AXIS,)) for tau in STUDY_TAUS]

    def test_the_ramped_curves_share_one_ramp_propagation(self, monkeypatch):
        # 4 ramped curves of 4 points: one call for all 16, and one grouping by plan per block
        calls, plans = [], []
        ramp_propagator, ramp_plans = evolution._ramp_propagator, evolution._ramp_plans

        def recording_propagator(parts, lengths, ends, dt):
            calls.append([len(h0) for h0, _ in parts])
            return ramp_propagator(parts, lengths, ends, dt)

        def recording_plans(*args):
            found = ramp_plans(*args)
            plans.append(sorted(len(points) for points, _, _ in found))
            return found

        monkeypatch.setattr(evolution, "_ramp_propagator", recording_propagator)
        monkeypatch.setattr(evolution, "_ramp_plans", recording_plans)
        ramp_study(CZ_BASE, STUDY_TAUS, STUDY_AXIS)
        assert calls == [[16, 16]]
        assert plans == [[4, 4, 4, 4]] * 2

    @staticmethod
    def record_runs(monkeypatch):
        """(points, block size) of each coefficient stack, and (exponentials, degree, interval) of each run cut."""
        stacks, chunks = [], []
        ramp_coefficients, ramp_chunks = evolution._ramp_coefficients, evolution._ramp_chunks

        def recording_coefficients(h0, d1, ends, step, degree):
            stacks.append(h0.shape[:-1])
            return ramp_coefficients(h0, d1, ends, step, degree)

        def recording_chunks(*args):
            for chunk, degree, group_degrees, run in ramp_chunks(*args):
                chunks.append((len(chunk), degree, run))
                yield chunk, degree, group_degrees, run

        monkeypatch.setattr(evolution, "_ramp_coefficients", recording_coefficients)
        monkeypatch.setattr(evolution, "_ramp_chunks", recording_chunks)
        return stacks, chunks

    def test_a_ramp_cz_study_forms_one_coefficient_stack_per_block(self, monkeypatch):
        # five couplings at four ramp durations: every ramp is one run of degree 6 over the
        # segment's whole interval, with the step 0.005 at every duration, so each block's
        # five couplings take one coefficient stack for all twenty ramps
        stacks, chunks = self.record_runs(monkeypatch)
        axis = SweepAxis("g_over_delta_b", 0.12, 0.43, 5)
        grids = ramp_study(CZ_BASE, [0.0, 5.0, 10.0, 20.0, 40.0], axis)
        assert all(row.status == "ok" for grid in grids for row in grid.rows)
        assert stacks == [(5, 5), (5, 4)]
        assert {(degree, run) for _, degree, run in chunks} == {(6, (1.1, 1.0))}
        assert sorted(n for n, _, _ in chunks) == sorted([1000, 2000, 4000, 8000] * 2)

    def test_ramps_cut_into_two_intervals_share_their_polynomial_run(self, monkeypatch):
        # at dt 0.06, 30 and 60 ns ramps both have the step 0.03, and their segment spans
        # ||W||_max = 1.097 theta: a first interval of theta, a run of degree 8, and a second of
        # 0.097 theta, a run of degree 6, each taken by both durations. One stack per block and
        # interval, and each grid is still that of its own sweep
        stacks, chunks = self.record_runs(monkeypatch)
        base, axis, taus = replace(CZ_BASE, dt=0.06), SweepAxis("g_over_delta_b", 0.12, 0.43, 5), [0.0, 30.0, 60.0]
        grids = ramp_study(base, taus, axis)
        assert stacks == [(5, 5), (5, 5), (5, 4), (5, 4)]
        assert len({run for _, _, run in chunks}) == 2
        assert sorted((n, degree) for n, degree, _ in chunks) == [(89, 6)] * 2 + [(177, 6)] * 2 + [(911, 8)] * 2 + [(1823, 8)] * 2
        assert all(row.status == "ok" for grid in grids for row in grid.rows)
        assert grids == [sweep(replace(base, tau_d=tau), (axis,)) for tau in taus]

    @pytest.mark.parametrize("failure", ["ramp", "unitarity", "score"])
    def test_a_failure_in_a_shared_stack_stays_in_its_grid_and_row(self, failure, monkeypatch):
        # the 5 ns curve's third point fails: its ramp raises, so the stack is run again point
        # by point, or its defect is spoiled in the stack, or its block is NaN, so the study's
        # one phase solve raises and every block is scored alone
        expected = ramp_study(CZ_BASE, STUDY_TAUS, STUDY_AXIS)
        bad_spec = derive_point_spec(CZ_BASE, (STUDY_AXIS,), expected[3].rows[2].values)
        if failure == "ramp":
            h0, _ = hamiltonian_parts(bad_spec)
            even, _ = parity_blocks(CZ_BASE.system)
            bad = h0[np.ix_(even, even)]
            ramp_propagator = evolution._ramp_propagator

            def failing_ramp_propagator(parts, lengths, ends, dt):
                if any(np.array_equal(h0, bad) and length == 5.0 for h0, length in zip(parts[0][0], lengths)):
                    raise np.linalg.LinAlgError("forced")
                return ramp_propagator(parts, lengths, ends, dt)

            monkeypatch.setattr(evolution, "_ramp_propagator", failing_ramp_propagator)
        else:
            stack_blocks, (bad_row,) = sweeps_module.stack_blocks, parameter_rows([bad_spec])
            score_blocks, scored = sweeps_module.score_blocks, []

            def leaky_blocks(sizes, rows, scales, durations, dt):
                m, defects = stack_blocks(sizes, rows, scales, durations, dt)
                hit = (rows == bad_row).all(axis=1) & (durations[:, 0] == 5.0)
                if failure == "score":
                    m[hit] = np.nan
                    return m, defects
                return m, np.where(hit, 1e-6, defects)

            def counted_scores(m, target):
                scored.append(len(m))
                return score_blocks(m, target)

            monkeypatch.setattr(sweeps_module, "stack_blocks", leaky_blocks)
            monkeypatch.setattr(sweeps_module, "score_blocks", counted_scores)
        with np.errstate(invalid="ignore"):
            grids = ramp_study(CZ_BASE, STUDY_TAUS, STUDY_AXIS)
        if failure == "score":
            points = sum(len(grid.rows) for grid in grids)
            assert scored == [points] + [1] * points
        status = "error:UnitarityError" if failure == "unitarity" else "error:LinAlgError"
        assert grids[3].rows[2].status == status
        assert grids[3].rows[:2] + grids[3].rows[3:] == expected[3].rows[:2] + expected[3].rows[3:]
        assert grids[:3] + grids[4:] == expected[:3] + expected[4:]

    def test_a_detuned_study_warns_once_per_grid(self):
        system = replace(CZ_BASE.system, qubit_b=replace(CZ_BASE.system.qubit_b, freq=7.3))
        base, taus = SweepBase(system, "cz", dt=0.05), [0.0, 1.0, 2.0]
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            for tau in taus:
                sweep(replace(base, tau_d=tau), (STUDY_AXIS,))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grids = ramp_study(base, taus, STUDY_AXIS)
        assert len(alone) == 3
        assert [str(w.message) for w in caught] == [str(w.message) for w in alone]
        assert all(row.status == "ok" for grid in grids for row in grid.rows)

    def test_truncation_study_chunks_are_those_of_its_own_sweeps(self, monkeypatch):
        # 13 points of 45, 80 and 125 levels: chunks of 13; 12 and 1; 5, 5 and 3
        axis, sizes = SweepAxis("geff_over_delta_b", 0.05, 0.5, 13), []
        blocks = sweeps_module._blocks

        def recording_blocks(stack_sizes, rows, scales, durations, dt):
            sizes.append(len(rows))
            return blocks(stack_sizes, rows, scales, durations, dt)

        grids = truncation_study(INDIRECT_BASE, [3, 4, 5], axis)
        monkeypatch.setattr(sweeps_module, "_blocks", recording_blocks)
        assert truncation_study(INDIRECT_BASE, [3, 4, 5], axis) == grids
        assert sizes == [13, 12, 1, 5, 5, 3]
        assert grids == [sweep(grid.base, (axis,)) for grid in grids]


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
