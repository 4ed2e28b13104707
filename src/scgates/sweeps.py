"""Parameter sweeps over coupling strength and anharmonicity.

A sweep takes a fully specified base system plus one or two axes and produces
a dense table of gate fidelities, gate times and leakage.  Axis values modify
the base system point by point; everything not named by an axis is taken from
the base.  Every point's system and gate time are derived first, with the
base coupling of the ratio axes computed once per sweep.  The points are
then propagated as stacks, in chunks that hold at most ``_STACK_ENTRIES``
float64 entries: one Hamiltonian stack and one stacked propagation of the
computational columns per chunk (``gates.computational_blocks``, which
``run_gate`` shares).  The blocks of all chunks are then scored together, in
one phase solve.  Square and ramped points take the same path: each ramped
segment is one stacked ramp propagation, shared by the points whose ramp
plans agree.  A ramp or truncation study is one such run over all its grids
(``_evaluate``): points of different grids share a stack where the gate,
system kind and truncation, segment scales and dt agree, whatever their
durations, so the ramped curves of a ramp study form one stack, and all its
points one phase solve.
Everything runs in the calling thread, rows come out in lexicographic axis
order, and failed points are recorded in-row rather than aborting the sweep:
a chunk whose propagation raises is propagated again as one-point chunks,
and a phase solve that raises is done again block by block, so that a
failure stays in its own row.  A single point (``evaluate_point``) is a
chunk of one.  ``threshold`` bisects with look-ahead: each of its rounds is
one such run over the midpoints of the next few bisection steps, as many as
pay for the run's fixed cost (``_look_ahead``).  The ``jobs`` keywords of
the sweep functions are kept for compatibility and change nothing.

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
    trapezoid_schedule,
)
from .gates import (
    computational_blocks,
    gate_target,
    gate_time,
    resonance_violation,
    score_blocks,
)

# Not used here: bench/layers.py patches this name when tracing (--trace 1).
from .gates import run_gate  # noqa: F401
from .hamiltonians import (
    DirectSystemSpec,
    IndirectSystemSpec,
    QubitSpec,
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


_RATIO_AXES = frozenset({"delta_a_over_g", "delta_b_over_g"})


def _base_coupling(base: SweepBase, names) -> float | None:
    """The base coupling that the ratio axes among ``names`` multiply, or None if there are none."""
    if _RATIO_AXES.isdisjoint(names):
        return None
    if isinstance(base.system, IndirectSystemSpec):
        return effective_couplings(base.system).g_eff_1
    return base.system.g


def _validate_axes(base: SweepBase, axes: tuple[SweepAxis, ...]) -> None:
    if not 1 <= len(axes) <= 2:
        raise ValueError(f"sweeps take one or two axes, got {len(axes)}")
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


def _point_values(base: SweepBase, axes: tuple[SweepAxis, ...], values: tuple[float, ...]) -> dict:
    """One point's axis values by name, once ``axes`` are checked as ``sweep`` checks them and ``values`` hold one per axis."""
    _validate_axes(base, axes)
    if len(values) != len(axes):
        raise ValueError(f"expected one value per axis, {len(axes)} in all, got {len(values)}")
    return dict(zip([ax.name for ax in axes], values))


def derive_point_spec(
    base: SweepBase, axes: tuple[SweepAxis, ...], values: tuple[float, ...]
) -> DirectSystemSpec | IndirectSystemSpec:
    """Concrete system at one grid point, per the module-level axis semantics.

    ``axes`` are checked as ``sweep`` checks them, and ``values`` must hold
    one value per axis; either fault raises ``ValueError``.
    """
    by_name = _point_values(base, axes, values)
    return _point_spec(base, by_name, _base_coupling(base, by_name))


def _point_spec(base: SweepBase, by_name: dict, coupling: float | None):
    """``derive_point_spec`` of the axis values ``by_name``, given the base coupling of its ratio axes."""
    system = base.system
    qa, qb = system.qubit_a, system.qubit_b

    anharm_a, anharm_b = qa.anharm, qb.anharm
    anharm_b_changed = False
    if "delta_b_abs" in by_name:
        anharm_b = by_name["delta_b_abs"]
        anharm_b_changed = True
    if "delta_b_over_g" in by_name:
        anharm_b = by_name["delta_b_over_g"] * coupling
        anharm_b_changed = True
    if "delta_a_over_g" in by_name:
        anharm_a = by_name["delta_a_over_g"] * coupling
    if base.tie_anharm and anharm_b_changed:
        anharm_a = anharm_b

    freq_b = qb.freq
    if anharm_b_changed and base.gate == "cz":
        freq_b = qa.freq + anharm_b

    new_qa = QubitSpec(qa.freq, anharm_a, qa.n_levels)
    new_qb = QubitSpec(freq_b, anharm_b, qb.n_levels)

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
        return IndirectSystemSpec(new_qa, new_qb, system.cavity_freq, g_qc, system.n_photons)

    g = system.g
    if "g_over_delta_b" in by_name:
        g = by_name["g_over_delta_b"] * anharm_b
    elif "g_abs" in by_name:
        g = by_name["g_abs"]
    return DirectSystemSpec(new_qa, new_qb, g)


_FAILED = float("nan")

#: Most float64 entries a chunk of points holds at once, 1.875 MiB, with each
#: point counted at ``_point_entries``.  A point holds its h0 and, while it is
#: assembled or one of its parity blocks is exponentiated, about as much again
#: in temporaries: 1.9 to 2.0 d^2 entries in all for d = 45 to 125, a full
#: chunk's peak under ``tracemalloc``.  Of its propagator only the columns of
#: the computational states are kept, and its phase solve holds a few hundred
#: entries.  So a chunk holds 5 points of the 125-level cavity system, 12 of
#: the 80-level one, 38 of the 45-level one and 492 of a 9-level pair.  A
#: ramped point holds about as much, beside the ramp kernel's own workspace,
#: which ``evolution._CHUNK_ENTRIES`` bounds.
_STACK_ENTRIES = 240 * 1024


def _point_entries(dim: int) -> int:
    """The float64 entries one point of dimension ``dim`` is counted at in a chunk (see ``_STACK_ENTRIES``)."""
    return 3 * dim * dim + 256


_POINT_ERRORS = (ValueError, ArithmeticError, np.linalg.LinAlgError, RuntimeError)


def _failed(values, error: type[Exception]) -> SweepPoint:
    return SweepPoint(tuple(values), *[_FAILED] * 6, f"error:{error.__name__}")


def _blocks(chunk, dt: float) -> list[tuple]:
    """Computational blocks of points ``(values, spec, t_g, schedule)`` sharing one truncation and one schedule shape, in parts.

    The chunk is propagated as one stack (``computational_blocks``) and is
    one part, ``(m, defects)``.  If that raises, each point is propagated
    again as a chunk of its own, so that the failure stays with its point:
    a one-point chunk that raises is the part ``(None, error type)``.
    """
    try:
        return [computational_blocks([point[1] for point in chunk], [point[3] for point in chunk], dt)]
    except _POINT_ERRORS as exc:
        if len(chunk) == 1:
            return [(None, type(exc))]
        return [part for point in chunk for part in _blocks([point], dt)]


def _scores(m: np.ndarray, target) -> list:
    """``(fidelity, theta_a, theta_b, theta, leakage)`` of each block of ``m`` against ``target``, or the type of the error it raised.

    The blocks are scored as one stack (``score_blocks``), whose rows equal
    those of each block alone.  If that raises, each block is scored alone.
    """
    try:
        return list(zip(*(x.tolist() for x in score_blocks(m, target))))
    except _POINT_ERRORS as exc:
        if len(m) == 1:
            return [type(exc)]
        return [score for k in range(len(m)) for score in _scores(m[k : k + 1], target)]


def _row(point, score) -> SweepPoint:
    """The row of a propagated point ``(values, spec, t_g, schedule)`` from its score (``_scores``) or its error's type."""
    values, _, t_g, _ = point
    if isinstance(score, type):
        return _failed(values, score)
    fidelity, theta_a, theta_b, theta, leakage = score
    return SweepPoint(tuple(values), fidelity, t_g, leakage, theta_a, theta_b, theta, "ok")


def _derive(base: SweepBase, names, coupling, target, values):
    """``(values, spec, t_g, schedule)`` of one grid point, or its failed row.

    ``names`` are the axis names and ``coupling`` the base coupling of the
    sweep's ratio axes.  The schedule also checks the gate time, as a
    segment duration.
    """
    try:
        spec = _point_spec(base, dict(zip(names, values)), coupling)
        t_g = gate_time(spec, target)
        return values, spec, t_g, trapezoid_schedule(base.tau_d, t_g)
    except _POINT_ERRORS as exc:
        return _failed(values, type(exc))


def _stack_key(base: SweepBase, target, schedule) -> tuple:
    """What the points of one stack share: the target, the system kind and truncation, the segment scales and dt."""
    scales = tuple((seg.scale_start, seg.scale_end) for seg in schedule.segments)
    return target, type(base.system), base.system.sizes, scales, base.dt


def _evaluate(bases, axes: tuple[SweepAxis, ...], points) -> list[list[SweepPoint]]:
    """Rows of the given grid points under each base, one list per base, in order; failures become status tags.

    Every point of every grid is derived before any is run, with the base
    coupling of the ratio axes computed once per base; if that fails, every
    point of its grid fails with it, as each would alone.  A detuned grid
    warns once, for its first detuned point, as ``run_gate`` would.  The good
    points of all grids are then stacked by what a stack must share
    (``_stack_key``), their durations free, in grid order, and each stack
    goes in chunks of at most ``_STACK_ENTRIES``; the rows go back to their
    grids.  A single grid so keeps the chunks of a sweep of its own, and the
    ramped curves of a ramp study share theirs.  A chunk whose propagation
    raises is propagated again point by point (``_blocks``).  Every point
    that passes the unitarity bound is then scored in one ``score_blocks``
    call per target, whose rows equal those of each block alone; if that
    raises, each block is scored alone (``_scores``).
    """
    names = [ax.name for ax in axes]
    grids, keys, stacks = [], [], {}
    for base in bases:
        target = gate_target(base.gate)
        try:
            coupling = _base_coupling(base, names)
            derived = [_derive(base, names, coupling, target, values) for values in points]
        except _POINT_ERRORS as exc:
            derived = [_failed(values, type(exc)) for values in points]
        good = [point for point in derived if not isinstance(point, SweepPoint)]
        detuned = (resonance_violation(point[1], target) for point in good)
        message = next((m for m in detuned if m), None)
        if message:
            warnings.warn(message, stacklevel=3)
        grids.append(derived)
        keys.append(_stack_key(base, target, good[0][3]) if good else None)
        if good:
            stacks.setdefault(keys[-1], []).extend(good)
    errors, blocks = {}, {}
    for key, stack in stacks.items():
        size = max(1, _STACK_ENTRIES // _point_entries(stack[0][1].dim))
        errors[key] = []
        for start in range(0, len(stack), size):
            for m, defects in _blocks(stack[start : start + size], key[-1]):
                if m is None:  # a point whose propagation raised; ``defects`` holds the error's type
                    errors[key].append(defects)
                    continue
                spoiled = defects > SCHEDULE_UNITARITY_TOL
                blocks.setdefault(key[0], []).append(m[~spoiled])
                errors[key].extend(UnitarityError if bad else None for bad in spoiled.tolist())
    scores = {target: iter(_scores(np.concatenate(ms), target)) for target, ms in blocks.items()}
    rows = {
        key: iter([_row(point, error or next(scores[key[0]])) for point, error in zip(stack, errors[key])])
        for key, stack in stacks.items()
    }
    return [
        [point if isinstance(point, SweepPoint) else next(rows[key]) for point in derived]
        for key, derived in zip(keys, grids)
    ]


def _grid_points(bases, axes: tuple[SweepAxis, ...]) -> list[tuple[float, ...]]:
    """Every point of the grid over ``axes``, in lexicographic order, once the axes are checked against each base."""
    for base in bases:
        _validate_axes(base, axes)
    return list(product(*(ax.values() for ax in axes)))


def evaluate_point(
    base: SweepBase, axes: tuple[SweepAxis, ...], values: tuple[float, ...]
) -> SweepPoint:
    """Derive, run and score a single grid point; failures become a status tag.

    ``axes`` and ``values`` are checked as ``derive_point_spec`` checks
    them, and a fault raises ``ValueError`` rather than a failed row.
    """
    _point_values(base, axes, values)
    return _evaluate([base], axes, [tuple(values)])[0][0]


def sweep(base: SweepBase, axes, jobs: int = 1) -> SweepGrid:
    """Evaluate the full grid in the calling thread; rows in lexicographic axis order.

    ``jobs`` is accepted for compatibility and ignored.
    """
    axes = tuple(axes)
    (rows,) = _evaluate([base], axes, _grid_points([base], axes))
    return SweepGrid(base, axes, tuple(rows))


def _study(bases, axes: tuple[SweepAxis, ...]) -> list[SweepGrid]:
    """One grid over ``axes`` per base, all evaluated together; a detuned grid's warning points at the study."""
    grids = _evaluate(bases, axes, _grid_points(bases, axes))
    return [SweepGrid(base, axes, tuple(rows)) for base, rows in zip(bases, grids)]


#: Cost of one point of a stack, in float64 entries (``_point_entries``),
#: that is about one ``_evaluate`` call's fixed cost: its one-point
#: Hamiltonian build, eigensolves, phase solve and Python work.
_CALL_ENTRIES = 12_000


def _look_ahead(dim: int) -> int:
    """Bisection levels that ``threshold`` evaluates as one stack, for points of dimension ``dim``.

    A round of j levels costs one call's fixed cost and 2^j - 1 points, for
    j levels of bisection; j is the one of least cost per level, at a
    point's cost read from its entries (``_CALL_ENTRIES``).  Plain
    bisection, j = 1, is that of the 80- and 125-level cavity systems.
    """
    ratio = _point_entries(dim) / _CALL_ENTRIES
    return min(range(1, 6), key=lambda j: (1 + (2**j - 1) * ratio) / j)


def _midpoints(lo: float, hi: float, levels: int) -> list[float]:
    """The midpoints that bisecting [lo, hi] can visit in its next ``levels`` steps, each formed as a step forms it.

    An interval of 1e-4 or less is not split, as ``threshold`` splits none.
    """
    if not levels or not hi - lo > 1e-4:
        return []
    mid = 0.5 * (lo + hi)
    return [mid, *_midpoints(lo, mid, levels - 1), *_midpoints(mid, hi, levels - 1)]


def threshold(grid: SweepGrid, level: float) -> ThresholdResult:
    """First crossing of ``level`` scanning a 1D grid from the low end.

    The grid must start above ``level``.  Failed rows are skipped: the
    crossing is bracketed by consecutive successful rows, and that pair is
    refined by bisection on fresh gate evaluations down to an axis
    resolution of 1e-4; oscillating curves may re-cross later, but the first
    crossing is what bounds the safe operating regime.  The bisection looks
    ahead: each round evaluates, as one stack (``_evaluate``), every
    midpoint of the next ``_look_ahead`` steps, formed as those steps form
    them, and then takes the steps.  Since a stacked row equals the row
    alone, the result is that of one-point bisection bit for bit; a failed
    point off the bisection's path is never looked at, and one on it raises
    ``RuntimeError`` at its midpoint, as one-point bisection would.  The
    crossing's gate time is the resonant one derived at its value, as its
    row would report it, without propagating the gate there.  Returns an
    explicit not-crossed result when the curve never drops below ``level``.
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
    for row_lo, row_hi in zip(ok_rows, ok_rows[1:]):
        if row_lo.fidelity >= level > row_hi.fidelity:
            bracket = (row_lo.values[0], row_hi.values[0])
            break
    if bracket is None:
        return ThresholdResult(level, False, None, None)

    lo, hi = bracket
    depth, found = _look_ahead(grid.base.system.dim), {}
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if mid not in found:  # a new round
            mids = _midpoints(lo, hi, depth)
            found = dict(zip(mids, _evaluate([grid.base], grid.axes, [(x,) for x in mids])[0]))
        row = found[mid]
        if row.status != "ok":
            raise RuntimeError(f"gate evaluation failed during bisection at {mid}")
        if row.fidelity >= level:
            lo = mid
        else:
            hi = mid
    value = 0.5 * (lo + hi)
    names = [ax.name for ax in grid.axes]
    coupling = _base_coupling(grid.base, names)
    point = _derive(grid.base, names, coupling, gate_target(grid.base.gate), (value,))
    return ThresholdResult(level, True, value, point.t_g_ns if isinstance(point, SweepPoint) else point[2])


def truncation_study(base: SweepBase, n_levels_list, axis: SweepAxis, jobs: int = 1) -> list[SweepGrid]:
    """Repeat one sweep with both qubits truncated to each level count.

    The grids are evaluated together (``_evaluate``); each truncation is a
    stack of its own, so each grid has the chunks, and the rows, of a sweep
    of its own.
    """
    bases = [
        replace(
            base,
            system=replace(
                base.system,
                qubit_a=replace(base.system.qubit_a, n_levels=n),
                qubit_b=replace(base.system.qubit_b, n_levels=n),
            ),
        )
        for n in n_levels_list
    ]
    return _study(bases, (axis,))


def ramp_study(base: SweepBase, tau_d_list, axis: SweepAxis, jobs: int = 1) -> list[SweepGrid]:
    """One fidelity curve per ramp duration, for a directly coupled CZ base.

    Each curve uses the trapezoid schedule (park scale 1.1 down to 1.0 over
    tau_d, hold for the gate time, back up over tau_d); tau_d = 0 is the
    square pulse.  The curves are evaluated together (``_evaluate``): the
    ramped ones share their stacks, each point at its own durations, and
    the square one is a stack of its own.  Every row equals that of a
    sweep of its own curve.
    """
    if base.gate != "cz" or isinstance(base.system, IndirectSystemSpec):
        raise ValueError("ramp studies are defined for directly coupled CZ configurations")
    if any(tau < 0 for tau in tau_d_list):
        raise ValueError("ramp durations must be non-negative")
    return _study([replace(base, tau_d=float(tau)) for tau in tau_d_list], (axis,))


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
