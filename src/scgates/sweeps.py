"""Parameter sweeps over coupling strength and anharmonicity.

A sweep takes a fully specified base system plus one or two axes and produces
a dense table of gate fidelities, gate times and leakage.  Axis values modify
the base system point by point; everything not named by an axis is taken from
the base.  Every point's system and gate time are derived first.  Square-pulse
points are then evaluated as stacks, in chunks of at most ``_STACK_ENTRIES``
matrix entries: one Hamiltonian stack, one stacked propagation, projection and
phase solve per chunk.  Ramped points (``tau_d > 0``) run one at a time through
``run_gate``.  Everything runs in the calling thread, rows come out in
lexicographic axis order, and failed points are recorded in-row rather than
aborting the sweep; a chunk whose stacked evaluation raises is evaluated again
point by point, so that a failure stays in its own row.  A single point
(``evaluate_point``) is a chunk of one.  The ``jobs`` keywords of the sweep
functions are kept for compatibility and change nothing.

Axis semantics (ratios are resolved in a fixed order so that combined axes
are well defined):

1. Anharmonicity axes are applied first: ``delta_b_abs`` sets qubit B's
   anharmonicity directly, ``delta_a_over_g`` and ``delta_b_over_g`` set the
   anharmonicities as multiples of the *base* coupling (``g`` for direct
   systems, the |02><11| effective coupling for indirect ones).  If the base
   has ``tie_anharm`` set, qubit A follows qubit B.
2. If qubit B's anharmonicity changed and the gate is a CZ, qubit B's
   frequency is re-derived from the resonance condition
   ``freq_b = freq_a + anharm_b``.
3. Coupling axes are applied last: ``g_over_delta_b`` and
   ``geff_over_delta_b`` are relative to the anharmonicity of qubit B *after*
   step 1, ``g_abs`` and ``geff_abs`` are absolute GHz values.  Effective
   couplings are inverted through g_qc = sqrt(g_eff * detuning_a), the
   resonant-CZ relation between the two.
"""

from __future__ import annotations

import math
import warnings

# Not used here: bench/layers.py patches this name when tracing (--trace 1).
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .dispersive import effective_couplings
from .evolution import (
    DEFAULT_DT,
    SCHEDULE_UNITARITY_TOL,
    UnitarityError,
    constant_propagators,
    trapezoid_schedule,
)
from .gates import (
    gate_target,
    gate_time,
    project_computational,
    resonance_violation,
    run_gate,
    score_blocks,
)
from .hamiltonians import (
    DirectSystemSpec,
    IndirectSystemSpec,
    QubitSpec,
    hamiltonian_stack,
    parity_blocks,
)

DIRECT_COUPLING_AXES = frozenset({"g_over_delta_b", "g_abs"})
INDIRECT_COUPLING_AXES = frozenset({"geff_over_delta_b", "geff_abs"})
ANHARM_AXES = frozenset({"delta_a_over_g", "delta_b_over_g", "delta_b_abs"})
AXIS_NAMES = DIRECT_COUPLING_AXES | INDIRECT_COUPLING_AXES | ANHARM_AXES


@dataclass(frozen=True)
class SweepAxis:
    """A uniformly gridded sweep variable."""

    name: str
    start: float
    stop: float
    n_points: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis {self.name!r}; expected one of {sorted(AXIS_NAMES)}")
        for field in ("start", "stop"):
            if not math.isfinite(getattr(self, field)):
                raise ValueError(f"axis {field} must be finite, got {getattr(self, field)}")
        if not self.start < self.stop:
            raise ValueError(f"axis needs start < stop, got [{self.start}, {self.stop}]")
        if not isinstance(self.n_points, (int, np.integer)):
            raise ValueError(f"axis n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 2:
            raise ValueError(f"axis needs at least 2 points, got {self.n_points}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.n_points)


@dataclass(frozen=True)
class SweepBase:
    """Everything about a sweep that is not an axis: system, gate and pulse."""

    system: DirectSystemSpec | IndirectSystemSpec
    gate: str
    tau_d: float = 0.0
    dt: float = DEFAULT_DT
    tie_anharm: bool = False

    def __post_init__(self):
        gate_target(self.gate)  # validates the name
        if not 0 <= self.tau_d < math.inf:
            raise ValueError(f"ramp duration tau_d must be non-negative and finite, got {self.tau_d}")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated grid point; non-finite fields and a status tag on failure."""

    values: tuple[float, ...]
    fidelity: float
    t_g_ns: float
    leakage: float
    theta_a: float
    theta_b: float
    theta_global: float
    status: str


@dataclass(frozen=True)
class SweepGrid:
    base: SweepBase
    axes: tuple[SweepAxis, ...]
    rows: tuple[SweepPoint, ...]

    def axis_values(self, i: int = 0) -> np.ndarray:
        return self.axes[i].values()

    def fidelity_array(self) -> np.ndarray:
        """Fidelities shaped like the grid, (n1,) for 1D or (n1, n2) for 2D."""
        shape = tuple(ax.n_points for ax in self.axes)
        return np.array([row.fidelity for row in self.rows]).reshape(shape)


@dataclass(frozen=True)
class ThresholdResult:
    level: float
    crossed: bool
    value: float | None
    t_g_ns: float | None


def _base_coupling(base: SweepBase) -> float:
    if isinstance(base.system, IndirectSystemSpec):
        return effective_couplings(base.system).g_eff_1
    return base.system.g


def _validate_axes(base: SweepBase, axes: tuple[SweepAxis, ...]) -> None:
    names = [ax.name for ax in axes]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate axis names in {names}")
    indirect = isinstance(base.system, IndirectSystemSpec)
    for name in names:
        if name in DIRECT_COUPLING_AXES and indirect:
            raise ValueError(f"axis {name!r} applies to directly coupled systems only")
        if name in INDIRECT_COUPLING_AXES and not indirect:
            raise ValueError(f"axis {name!r} applies to cavity-coupled systems only")
    coupling = [n for n in names if n in DIRECT_COUPLING_AXES | INDIRECT_COUPLING_AXES]
    if len(coupling) > 1:
        raise ValueError(f"conflicting coupling axes {coupling}")
    delta_b = [n for n in names if n in ("delta_b_abs", "delta_b_over_g")]
    if len(delta_b) > 1:
        raise ValueError(f"conflicting anharmonicity axes {delta_b}")


def derive_point_spec(
    base: SweepBase, axes: tuple[SweepAxis, ...], values: tuple[float, ...]
) -> DirectSystemSpec | IndirectSystemSpec:
    """Concrete system at one grid point, per the module-level axis semantics."""
    system = base.system
    qa, qb = system.qubit_a, system.qubit_b
    by_name = dict(zip([ax.name for ax in axes], values))

    anharm_a, anharm_b = qa.anharm, qb.anharm
    anharm_b_changed = False
    if "delta_b_abs" in by_name:
        anharm_b = by_name["delta_b_abs"]
        anharm_b_changed = True
    if "delta_b_over_g" in by_name:
        anharm_b = by_name["delta_b_over_g"] * _base_coupling(base)
        anharm_b_changed = True
    if "delta_a_over_g" in by_name:
        anharm_a = by_name["delta_a_over_g"] * _base_coupling(base)
    if base.tie_anharm and anharm_b_changed:
        anharm_a = anharm_b

    freq_b = qb.freq
    if anharm_b_changed and base.gate == "cz":
        freq_b = qa.freq + anharm_b

    new_qa = replace(qa, anharm=anharm_a)
    new_qb = replace(qb, anharm=anharm_b, freq=freq_b)

    if isinstance(system, IndirectSystemSpec):
        g_qc = system.g_qc
        geff = by_name.get("geff_abs")
        if "geff_over_delta_b" in by_name:
            geff = by_name["geff_over_delta_b"] * anharm_b
        if geff is not None:
            product_ = geff * (qa.freq - system.cavity_freq)
            if product_ <= 0:
                raise ValueError(
                    f"cannot invert effective coupling {geff!r} with detuning "
                    f"{qa.freq - system.cavity_freq!r}: opposite signs"
                )
            g_qc = float(np.sqrt(product_))
        return replace(system, qubit_a=new_qa, qubit_b=new_qb, g_qc=g_qc)

    g = system.g
    if "g_over_delta_b" in by_name:
        g = by_name["g_over_delta_b"] * anharm_b
    elif "g_abs" in by_name:
        g = by_name["g_abs"]
    return replace(system, qubit_a=new_qa, qubit_b=new_qb, g=g)


_FAILED = float("nan")

#: Most matrix entries (points times dim**2) evaluated as one stack.  This
#: bounds the memory of a chunk's temporaries to about a megabyte at every
#: truncation, so a sweep's peak memory stays that of a single point.
_STACK_ENTRIES = 16384

_POINT_ERRORS = (ValueError, ArithmeticError, np.linalg.LinAlgError, RuntimeError)


def _failed(values, error: type[Exception]) -> SweepPoint:
    return SweepPoint(tuple(values), *[_FAILED] * 6, f"error:{error.__name__}")


def _ramped_row(base: SweepBase, target, values, spec, t_g: float, schedule) -> SweepPoint:
    try:
        result = run_gate(spec, target, schedule, base.dt)
    except _POINT_ERRORS as exc:
        return _failed(values, type(exc))
    return SweepPoint(
        tuple(values), result.fidelity, t_g, result.leakage,
        result.theta_a, result.theta_b, result.theta_global, "ok",
    )


def _square_rows(chunk, target) -> list[SweepPoint]:
    """Rows of square-pulse points ``(values, spec, t_g, schedule)`` sharing one truncation.

    The chunk is propagated, one stack per parity block, then projected and
    scored as one stack.  A point whose propagator fails the unitarity bound
    of ``propagate_schedule`` is an ``error:UnitarityError`` row; if the
    stacked evaluation raises, each point is evaluated on its own.
    """
    specs = [point[1] for point in chunk]
    try:
        u, defects = constant_propagators(
            hamiltonian_stack(specs), [point[2] for point in chunk], parity_blocks(specs[0])
        )
        scores = score_blocks(project_computational(u, specs[0]), target)
    except _POINT_ERRORS as exc:
        if len(chunk) == 1:
            return [_failed(chunk[0][0], type(exc))]
        return [row for point in chunk for row in _square_rows([point], target)]
    fidelity, theta_a, theta_b, theta, leakage = (x.tolist() for x in scores)
    return [
        _failed(values, UnitarityError)
        if defect > SCHEDULE_UNITARITY_TOL
        else SweepPoint(
            tuple(values), fidelity[k], t_g, leakage[k], theta_a[k], theta_b[k], theta[k], "ok"
        )
        for k, ((values, _, t_g, _), defect) in enumerate(zip(chunk, defects))
    ]


def _derive(base: SweepBase, axes, target, values):
    """``(values, spec, t_g, schedule)`` of one grid point, or its failed row.

    The schedule also checks the gate time, as a segment duration.
    """
    try:
        spec = derive_point_spec(base, axes, values)
        t_g = gate_time(spec, target)
        return values, spec, t_g, trapezoid_schedule(base.tau_d, t_g)
    except _POINT_ERRORS as exc:
        return _failed(values, type(exc))


def _evaluate(base: SweepBase, axes: tuple[SweepAxis, ...], points) -> list[SweepPoint]:
    """Rows of the given grid points, in order; failures become status tags.

    Every point's system and gate time are derived before any is run.  A
    detuned square pulse warns once, for the first detuned point, as
    ``run_gate`` would.
    """
    target = gate_target(base.gate)
    derived = [_derive(base, axes, target, values) for values in points]
    good = [point for point in derived if not isinstance(point, SweepPoint)]
    if base.tau_d > 0:
        evaluated = [_ramped_row(base, target, *point) for point in good]
    else:
        detuned = (resonance_violation(point[1], target) for point in good)
        message = next((m for m in detuned if m), None)
        if message:
            warnings.warn(message, stacklevel=3)
        size = max(1, _STACK_ENTRIES // base.system.dim**2)
        chunks = (good[start : start + size] for start in range(0, len(good), size))
        evaluated = [row for chunk in chunks for row in _square_rows(chunk, target)]
    rows = iter(evaluated)
    return [point if isinstance(point, SweepPoint) else next(rows) for point in derived]


def evaluate_point(
    base: SweepBase, axes: tuple[SweepAxis, ...], values: tuple[float, ...]
) -> SweepPoint:
    """Derive, run and score a single grid point; failures become a status tag."""
    return _evaluate(base, axes, [tuple(values)])[0]


def sweep(base: SweepBase, axes, jobs: int = 1) -> SweepGrid:
    """Evaluate the full grid in the calling thread; rows in lexicographic axis order.

    ``jobs`` is accepted for compatibility and ignored.
    """
    axes = tuple(axes)
    if not 1 <= len(axes) <= 2:
        raise ValueError(f"sweeps take one or two axes, got {len(axes)}")
    _validate_axes(base, axes)
    points = list(product(*(ax.values() for ax in axes)))
    return SweepGrid(base, axes, tuple(_evaluate(base, axes, points)))


def threshold(grid: SweepGrid, level: float) -> ThresholdResult:
    """First crossing of ``level`` scanning a 1D grid from the low end.

    The grid must start above ``level``.  The bracketing pair of grid points
    is refined by bisection on fresh gate evaluations down to an axis
    resolution of 1e-4; oscillating curves may re-cross later, but the first
    crossing is what bounds the safe operating regime.  Returns an explicit
    not-crossed result when the curve never drops below ``level``.
    """
    if not math.isfinite(level):
        raise ValueError(f"threshold level must be finite, got {level}")
    if len(grid.axes) != 1:
        raise ValueError("threshold extraction needs a 1D grid")
    ok_rows = [row for row in grid.rows if row.status == "ok"]
    if not ok_rows:
        raise ValueError("no successful rows in grid")
    if ok_rows[0].fidelity <= level:
        raise ValueError(
            f"curve starts at fidelity {ok_rows[0].fidelity:.6f}, already below level {level}"
        )
    bracket = None
    for row_lo, row_hi in zip(grid.rows, grid.rows[1:]):
        if row_lo.status != "ok" or row_hi.status != "ok":
            continue
        if row_lo.fidelity >= level > row_hi.fidelity:
            bracket = (row_lo.values[0], row_hi.values[0])
            break
    if bracket is None:
        return ThresholdResult(level, False, None, None)

    lo, hi = bracket
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        row = evaluate_point(grid.base, grid.axes, (mid,))
        if row.status != "ok":
            raise RuntimeError(f"gate evaluation failed during bisection at {mid}")
        if row.fidelity >= level:
            lo = mid
        else:
            hi = mid
    value = 0.5 * (lo + hi)
    final = evaluate_point(grid.base, grid.axes, (value,))
    return ThresholdResult(level, True, value, final.t_g_ns)


def truncation_study(base: SweepBase, n_levels_list, axis: SweepAxis, jobs: int = 1) -> list[SweepGrid]:
    """Repeat one sweep with both qubits truncated to each level count."""
    grids = []
    for n in n_levels_list:
        system = replace(
            base.system,
            qubit_a=replace(base.system.qubit_a, n_levels=n),
            qubit_b=replace(base.system.qubit_b, n_levels=n),
        )
        grids.append(sweep(replace(base, system=system), (axis,)))
    return grids


def ramp_study(base: SweepBase, tau_d_list, axis: SweepAxis, jobs: int = 1) -> list[SweepGrid]:
    """One fidelity curve per ramp duration, for a directly coupled CZ base.

    Each curve uses the trapezoid schedule (park scale 1.1 down to 1.0 over
    tau_d, hold for the gate time, back up over tau_d); tau_d = 0 is the
    square pulse.
    """
    if base.gate != "cz" or isinstance(base.system, IndirectSystemSpec):
        raise ValueError("ramp studies are defined for directly coupled CZ configurations")
    if any(tau < 0 for tau in tau_d_list):
        raise ValueError("ramp durations must be non-negative")
    return [sweep(replace(base, tau_d=float(tau)), (axis,)) for tau in tau_d_list]


def detrended_amplitude(grid: SweepGrid, degree: int = 3) -> float:
    """Peak-to-trough amplitude of a 1D fidelity curve after removing a trend.

    The trend is a least-squares polynomial of the given degree, and the
    amplitude is the spread of what remains.  That residual is the
    oscillatory part only while the trend itself is close to such a
    polynomial.  A curve that falls steeply, such as the CZ curve with 40 ns
    ramps over g/anharm_b in [0.10, 0.30], which loses 9.4% of its fidelity,
    leaves part of its trend in the residual: raising the degree from 3 to 4
    shrinks that residual by a third.  Compare amplitudes across curves at
    one fixed degree.
    """
    if len(grid.axes) != 1:
        raise ValueError("detrending needs a 1D grid")
    if any(row.status != "ok" for row in grid.rows):
        raise ValueError("detrending needs a fully successful grid")
    x = grid.axis_values()
    f = grid.fidelity_array()
    if len(x) < degree + 2:
        raise ValueError(f"need at least {degree + 2} points to detrend at degree {degree}")
    residual = f - np.polyval(np.polyfit(x, f, degree), x)
    return float(residual.max() - residual.min())
