"""Parameter sweeps over coupling strength and anharmonicity.

A sweep takes a fully specified base system plus one or two axes and produces
a dense table of gate fidelities, gate times and leakage.  Axis values modify
the base system point by point; everything not named by an axis is taken from
the base.  Every point's system and gate time are derived first, as arrays
over the whole grid (``_derive``): each point's parameter row
(``hamiltonians.parameter_rows``), its gate time and the class of the first
error its derivation would raise, with the base coupling of the ratio axes
computed once per sweep.  No spec or schedule object is made per point.
``derive_point_spec`` is the one-point case, and so is the gate time that
``threshold`` reports.  The points are then propagated as stacks, in chunks
that hold at most ``_STACK_ENTRIES`` float64 entries: one Hamiltonian stack
and one stacked propagation of the computational columns per chunk, read
from the arrays (``gates.stack_blocks``, which ``run_gate`` calls with a
stack of one).  The blocks of all chunks are then scored together, in one
phase solve.  Square and ramped points take the same path: each ramped
segment is one stacked ramp propagation, shared by the points whose ramp
plans agree.  A ramp or truncation study is one such run over all its grids
(``_evaluate``): points of different grids share a stack where the gate,
system kind and truncation, segment scales and dt agree, whatever their
durations, so the ramped curves of a ramp study form one stack, and all its
points one phase solve.
Everything runs in the calling thread, rows come out in lexicographic axis
order, and failed points are recorded in-row rather than aborting the sweep.
One failure rule holds for both stacked stages (``_parts``): a chunk whose
propagation raises, or a phase solve that raises, is run again point by
point, so that a failure stays in its own row.  Each point's outcome, its
scores or the class of the error that failed it, is written at its index
into one table over the points of all grids, and the rows are read off it.
A single point (``evaluate_point``) is a chunk of one.  ``threshold``
bisects with look-ahead: each of its rounds is one such run over the
midpoints of the next few bisection steps, as many as pay for the run's
fixed cost (``_look_ahead``).  The ``jobs`` keywords of the sweep functions
are kept for compatibility and change nothing.

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

import numpy as np

from .dispersive import (
    MIN_DENOMINATOR,
    DispersiveRegimeError,
    denominators,
    effective_couplings,
    exchange_couplings,
)
from .evolution import (
    DEFAULT_DT,
    SCHEDULE_UNITARITY_TOL,
    UnitarityError,
    trapezoid_segments,
)
from .gates import (
    gate_coupling,
    gate_target,
    resonance_violation,
    resonant_time,
    score_blocks,
    stack_blocks,
)

# Not used here: bench/layers.py patches these names when tracing (--trace 1).
from .gates import gate_time, run_gate  # noqa: F401
from .hamiltonians import (
    DirectSystemSpec,
    IndirectSystemSpec,
    spec_of_row,
    stack_rows,
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


def _point_grid(base: SweepBase, axes: tuple[SweepAxis, ...], values: tuple[float, ...]) -> np.ndarray:
    """One point's axis values as a grid of one point, (1, axes), once ``axes`` are checked as ``sweep`` checks them and ``values`` hold one per axis."""
    _validate_axes(base, axes)
    if len(values) != len(axes):
        raise ValueError(f"expected one value per axis, {len(axes)} in all, got {len(values)}")
    return np.array([values], dtype=float)


def derive_point_spec(
    base: SweepBase, axes: tuple[SweepAxis, ...], values: tuple[float, ...]
) -> DirectSystemSpec | IndirectSystemSpec:
    """Concrete system at one grid point, per the module-level axis semantics.

    This is the one-point case of a sweep's derivation (``_derive``).
    ``axes`` are checked as ``sweep`` checks them, and ``values`` must hold
    one value per axis; either fault raises ``ValueError``, and so does a
    system that cannot be built at the point.
    """
    rows, _, _ = _derive(base, [ax.name for ax in axes], _point_grid(base, axes, values))
    return spec_of_row(base.system, rows[0])


def _derive(base: SweepBase, names, values: np.ndarray):
    """``(rows, t_g, errors)`` of the grid points ``values`` (n, axes), per the module-level axis semantics.

    ``names`` are the axis names.  The gate target and the base coupling of
    the ratio axes (``_base_coupling``) are found once for all points; where
    the coupling cannot be found, its error is raised, and nothing else is
    raised.  ``rows`` are the points' parameter rows
    (``hamiltonians.stack_rows``), g_qc NaN where an effective coupling
    cannot be inverted, and ``t_g`` their gate times, NaN at a failed point.
    ``errors`` holds the class of the error a point's derivation raises, or
    None: the first of the checks that building its spec, ``gate_time`` and
    the schedule's segments make, taken on the arrays in that order.  A spec
    takes finite, non-negative parameters and a positive qubit frequency.
    Each formula keeps the operation order of its one-point form, so every
    entry is what that form gives bit for bit; g_qc is squared as
    ``effective_couplings`` squares it (C ``pow``), through
    ``np.float_power``.
    """
    system, qa, qb = base.system, base.system.qubit_a, base.system.qubit_b
    target, coupling = gate_target(base.gate), _base_coupling(base, names)
    by_name, n = dict(zip(names, values.T)), len(values)
    freq_a = np.full(n, qa.freq, dtype=float)
    anharm_a, anharm_b = np.full(n, qa.anharm, dtype=float), np.full(n, qb.anharm, dtype=float)
    if "delta_b_abs" in by_name:
        anharm_b = by_name["delta_b_abs"]
    if "delta_b_over_g" in by_name:
        anharm_b = by_name["delta_b_over_g"] * coupling
    if "delta_a_over_g" in by_name:
        anharm_a = by_name["delta_a_over_g"] * coupling
    retuned = not {"delta_b_abs", "delta_b_over_g"}.isdisjoint(by_name)
    if base.tie_anharm and retuned:
        anharm_a = anharm_b
    freq_b = freq_a + anharm_b if retuned and target.kind == "cz" else np.full(n, qb.freq, dtype=float)
    with np.errstate(all="ignore"):
        if isinstance(system, IndirectSystemSpec):
            g_qc, geff = np.full(n, system.g_qc, dtype=float), by_name.get("geff_abs")
            if "geff_over_delta_b" in by_name:
                geff = by_name["geff_over_delta_b"] * anharm_b
            if geff is not None:
                product = geff * (qa.freq - system.cavity_freq)
                g_qc = np.where(product > 0, np.sqrt(product), np.nan)
            rows = stack_rows(freq_a, freq_b, anharm_a, anharm_b, g_qc, system.cavity_freq)
            found = denominators(freq_a, freq_b, anharm_a, anharm_b, system.cavity_freq)
            delta_a, delta_b, *_ = found.values()
            g2 = np.float_power(g_qc, 2.0)
            g_eff_1, _, g_eff_3, _ = exchange_couplings(g2, delta_a, delta_b, anharm_a, anharm_b)
            gate_g = gate_coupling(target, g_eff_1, g_eff_3)
            regime = np.logical_or.reduce([np.abs(denom) < MIN_DENOMINATOR for denom in found.values()])
            checks = [(DispersiveRegimeError, regime), (OverflowError, np.isinf(g2))]
        else:
            g = np.full(n, system.g, dtype=float)
            if "g_over_delta_b" in by_name:
                g = by_name["g_over_delta_b"] * anharm_b
            elif "g_abs" in by_name:
                g = by_name["g_abs"]
            rows, gate_g, checks = stack_rows(freq_a, freq_b, anharm_a, anharm_b, g), g, []
        t_g = resonant_time(gate_g, target)
    bad_spec = ~(np.isfinite(rows) & (rows >= 0)).all(axis=1) | (freq_b == 0)
    checks = [(ValueError, bad_spec), *checks, (ValueError, (gate_g <= 0) | ~((t_g > 0) & (t_g < math.inf)))]
    errors, failed = np.full(n, None, dtype=object), np.zeros(n, dtype=bool)
    for error, bad in reversed(checks):  # the first check a point fails names its error
        errors[bad] = error
        failed |= bad
    return rows, np.where(failed, np.nan, t_g), errors


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


#: The errors of a numerical failure: a failed point in a sweep, and exit 2 in the CLI.
_NUMERICAL_ERRORS = (ValueError, ArithmeticError, np.linalg.LinAlgError, RuntimeError)


def _parts(run, *stack, again=None) -> list[tuple]:
    """``run`` over a stack of points, each of ``stack`` an array with one point per entry, as ``(indices, outcome)`` parts.

    The stack is run as one part, its indices those of all its points.  If
    that raises, each point is run again as a stack of its own, through
    ``again`` (by default ``_parts`` of ``run``), so that a failure stays
    with its point: a point whose run raises is the part ``([k], error type)``.
    """
    try:
        return [(np.arange(len(stack[0])), run(*stack))]
    except _NUMERICAL_ERRORS as exc:
        if len(stack[0]) == 1:
            return [(np.arange(1), type(exc))]
    again = again or (lambda *point: _parts(run, *point))
    return [([k], outcome) for k in range(len(stack[0])) for _, outcome in again(*(x[k : k + 1] for x in stack))]


def _blocks(sizes: tuple[int, ...], rows: np.ndarray, scales, durations: np.ndarray, dt: float) -> list[tuple]:
    """Computational blocks of a chunk of points, as ``_parts`` of ``stack_blocks``: ``(indices, (m, defects))``, or ``(indices, error type)`` where a point's propagation raises.

    The arguments are those of ``stack_blocks``, one point per entry of
    ``rows`` and ``durations``.
    """

    def again(rows, durations):  # a point run again after its chunk raised is a one-point chunk of ``_blocks`` itself
        return _blocks(sizes, rows, scales, durations, dt)

    return _parts(lambda rows, durations: stack_blocks(sizes, rows, scales, durations, dt), rows, durations, again=again)


def _evaluate(bases, axes: tuple[SweepAxis, ...], values: np.ndarray) -> list[list[SweepPoint]]:
    """Rows of the grid points ``values`` (n, axes) under each base, one list per base, in order; failures become status tags.

    Every point of every grid is derived before any is run, as arrays
    (``_derive``), with the base coupling of the ratio axes computed once
    per base; if that fails, every point of its grid fails with it, as each
    would alone.  Bases that differ only in their pulse share one
    derivation.  A detuned grid warns once, for its first detuned point, as
    ``run_gate`` would.  The good points of all grids are then stacked by
    what a stack must share (the target, the truncation, whose length tells
    the system kind, the segment scales and dt), their durations free, in
    grid order, and each stack goes in chunks of at most ``_STACK_ENTRIES``.
    A single grid so keeps the chunks of a sweep of its own, and the ramped
    curves of a ramp study share theirs.  Every point that passes the
    unitarity bound is then scored in one ``score_blocks`` call per target,
    whose rows equal those of each block alone.  One failure rule holds for
    both stages (``_parts``): a stack that raises is run again point by
    point.  Each point's outcome is written at its index, over the points of
    all grids, into one table: its score row, or the class of its
    derivation error, propagation error, unitarity failure or scoring
    error; the rows are read off it.
    """
    names, n, total = [ax.name for ax in axes], len(values), len(bases) * len(values)
    # the outcome table, over the points of all grids in grid order
    t_g, errors, scores = np.empty(total), np.empty(total, dtype=object), np.full((total, 5), np.nan)
    stacks, derived, blocks = {}, {}, {}
    for g, base in enumerate(bases):
        target = gate_target(base.gate)
        # bases that differ only in their pulse, as the curves of a ramp study do, share one derivation
        shared = base.system, target, base.tie_anharm
        if shared not in derived:
            try:
                derived[shared] = _derive(base, names, values)
            except _NUMERICAL_ERRORS as exc:  # the base coupling of the ratio axes
                derived[shared] = np.full((n, 6), np.nan), np.full(n, np.nan), np.full(n, type(exc), dtype=object)
        rows, times, found = derived[shared]
        t_g[g * n : (g + 1) * n], errors[g * n : (g + 1) * n] = times, found
        good = ~np.isnan(times)
        message = resonance_violation(rows[good], target)
        if message:
            warnings.warn(message, stacklevel=3)
        scales, durations = trapezoid_segments(base.tau_d, times[good])
        if good.any():
            key = target, base.system.sizes, scales, base.dt
            stacks.setdefault(key, []).append((g * n + np.flatnonzero(good), rows[good], durations))
    for (target, sizes, scales, dt), parts in stacks.items():
        points, rows, durations = (np.concatenate(x) for x in zip(*parts))
        size = max(1, _STACK_ENTRIES // _point_entries(math.prod(sizes)))
        for start in range(0, len(rows), size):
            chunk = slice(start, start + size)
            for index, outcome in _blocks(sizes, rows[chunk], scales, durations[chunk], dt):
                at = points[chunk][index]
                if isinstance(outcome, type):  # the point's propagation raised
                    errors[at] = outcome
                    continue
                m, defects = outcome
                spoiled = defects > SCHEDULE_UNITARITY_TOL
                errors[at[spoiled]] = UnitarityError
                blocks.setdefault(target, []).append((at[~spoiled], m[~spoiled]))
    for target, found in blocks.items():
        points, m = (np.concatenate(x) for x in zip(*found))
        for index, outcome in _parts(lambda m: score_blocks(m, target), m):
            if isinstance(outcome, type):
                errors[points[index]] = outcome
            else:
                scores[points[index]] = np.column_stack(outcome)
    rows = [
        SweepPoint(tuple(point), fidelity, time, leakage, theta_a, theta_b, theta, "ok")
        if error is None
        else SweepPoint(tuple(point), *[math.nan] * 6, f"error:{error.__name__}")
        for point, time, (fidelity, theta_a, theta_b, theta, leakage), error in zip(
            values.tolist() * len(bases), t_g.tolist(), scores.tolist(), errors.tolist()
        )
    ]
    return [rows[g * n : (g + 1) * n] for g in range(len(bases))]


def _grid_points(bases, axes: tuple[SweepAxis, ...]) -> np.ndarray:
    """Every point of the grid over ``axes``, (n, axes) in lexicographic order, once the axes are checked against each base."""
    for base in bases:
        _validate_axes(base, axes)
    return np.stack(np.meshgrid(*(ax.values() for ax in axes), indexing="ij"), axis=-1).reshape(-1, len(axes))


def evaluate_point(
    base: SweepBase, axes: tuple[SweepAxis, ...], values: tuple[float, ...]
) -> SweepPoint:
    """Derive, run and score a single grid point; failures become a status tag.

    ``axes`` and ``values`` are checked as ``derive_point_spec`` checks
    them, and a fault raises ``ValueError`` rather than a failed row.
    """
    return _evaluate([base], axes, _point_grid(base, axes, values))[0][0]


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
            found = dict(zip(mids, _evaluate([grid.base], grid.axes, np.array(mids)[:, None])[0]))
        row = found[mid]
        if row.status != "ok":
            raise RuntimeError(f"gate evaluation failed during bisection at {mid}")
        if row.fidelity >= level:
            lo = mid
        else:
            hi = mid
    value = 0.5 * (lo + hi)
    _, (t_g,), _ = _derive(grid.base, [ax.name for ax in grid.axes], np.array([[value]]))
    return ThresholdResult(level, True, value, float(t_g))


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
    if gate_target(base.gate).kind != "cz" or isinstance(base.system, IndirectSystemSpec):
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
