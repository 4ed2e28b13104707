"""Unitary time evolution for constant Hamiltonians and frequency schedules.

Every propagator here is a time-ordered product of exponentials
exp(-i step (h0 + s h1)) of the Hamiltonian frozen at a list of scales s,
each taken exactly (up to eigensolver accuracy) through a Hermitian
eigendecomposition.  A constant segment is one such exponential over its whole
duration.  A ramped segment, where qubit B's frequency moves linearly between
two scale factors, is cut into n = ceil(duration / dt) equal steps, each
propagated by the fourth-order commutator-free Magnus scheme (CF4; Blanes &
Moan, Appl. Numer. Math. 56, 1519 (2006); Alvermann & Fehske, J. Comput.
Phys. 230, 5930 (2011)).  Because H is affine in the scale and the ramp is
linear in time, a CF4 step is exactly two half-step exponentials with H frozen
at 1/6 and 5/6 of the step, so the error falls as ``dt**4``.  Exponentials
within a chunk are diagonalized as one stacked LAPACK call per parity block
(below) and combined with a pairwise product tree, which keeps the cost near
the eigensolver floor.
Sweeps propagate many square pulses at once through the same stacked
exponential (``constant_propagators``), one Hamiltonian per grid point.

The exponentials and their products are formed block by block, one block per
parity of the total excitation number (``hamiltonians.parity_blocks``).  The
split is exact, with no rotating-wave approximation: a coupling term
Jx_i Jx_j, counter-rotating part included, changes n_a + n_b (+ n_c) by 0 or
+-2, and h1 is diagonal, so h0 + s h1 has exact zeros between the two parities
at every scale s, and so has every product of its exponentials.  Two
half-size eigensolves cost about a quarter of one full-size eigensolve.  The
unitarity defect of a propagator is the largest over its blocks, which is the
full-matrix defect, since the entries between blocks are exact zeros.  Full
propagators are assembled from their blocks only where they are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import DirectSystemSpec, IndirectSystemSpec, hamiltonian_parts, parity_blocks

#: Default ramp discretization (ns): the length of one CF4 step, which costs
#: two exponentials.  Verified by the convergence suite: halving it changes no
#: propagator entry by more than 1e-8 for the schedules used in the
#: acceptance runs (the worst case being 40 ns ramps).
DEFAULT_DT = 0.01

#: Unitarity tolerances declared per method.
CONSTANT_UNITARITY_TOL = 1e-10
SCHEDULE_UNITARITY_TOL = 1e-8

#: Exponentials per stacked eigendecomposition; bounds the memory of a ramp.
_CHUNK = 1024

#: Fractions of a CF4 step at which its two half-step exponentials freeze H.
_CF4_NODES = np.array([1.0 / 6.0, 5.0 / 6.0])


class UnitarityError(RuntimeError):
    """The assembled propagator failed its unitarity bound."""


@dataclass(frozen=True)
class ScheduleSegment:
    """One piece of the drive: constant if the two scales match, else linear."""

    duration: float
    scale_start: float = 1.0
    scale_end: float = 1.0

    def __post_init__(self):
        for name in ("duration", "scale_start", "scale_end"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"segment {name} must be positive and finite, got {value}")

    @property
    def is_constant(self) -> bool:
        return self.scale_start == self.scale_end


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered segments describing qubit B's frequency scale versus time."""

    segments: tuple[ScheduleSegment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a schedule needs at least one segment")

    @property
    def total_time(self) -> float:
        return sum(seg.duration for seg in self.segments)


def square_schedule(hold: float) -> PulseSchedule:
    """Constant evolution at the nominal frequency (scale 1) for ``hold`` ns."""
    return PulseSchedule((ScheduleSegment(hold, 1.0, 1.0),))


def trapezoid_schedule(tau_d: float, hold: float, park_scale: float = 1.1) -> PulseSchedule:
    """Ramp qubit B from ``park_scale`` down to 1, hold, and ramp back up.

    ``tau_d`` is the duration of each ramp; zero gives a plain square pulse.
    """
    if not 0 <= tau_d < math.inf:
        raise ValueError(f"ramp duration tau_d must be non-negative and finite, got {tau_d}")
    if tau_d == 0:
        return square_schedule(hold)
    return PulseSchedule(
        (
            ScheduleSegment(tau_d, park_scale, 1.0),
            ScheduleSegment(hold, 1.0, 1.0),
            ScheduleSegment(tau_d, 1.0, park_scale),
        )
    )


@dataclass(frozen=True)
class PropagationResult:
    """Propagator over the full Hilbert space plus bookkeeping."""

    unitary: np.ndarray
    total_time: float
    unitarity_defect: float
    steps_used: int


def _unitarity_defects(u: np.ndarray) -> np.ndarray:
    """max |U^dag U - I| of each propagator in a stack (n, d, d)."""
    gram = np.matmul(u.conj().transpose(0, 2, 1), u)
    gram.reshape(len(u), -1)[:, :: u.shape[-1] + 1] -= 1.0  # the diagonal, in place
    return np.abs(gram).reshape(len(u), -1).max(axis=1)


def _unitarity_defect(u: np.ndarray) -> float:
    return float(_unitarity_defects(u[None])[0])


def _product_in_order(us: np.ndarray) -> np.ndarray:
    """Product us[-1] @ ... @ us[0] by pairwise tree reduction."""
    while us.shape[0] > 1:
        pairs = us.shape[0] // 2
        head = np.matmul(us[1 : 2 * pairs : 2], us[0 : 2 * pairs : 2])
        us = np.concatenate([head, us[-1:]]) if us.shape[0] % 2 else head
    return us[0]


def _exponentials(hs: list[np.ndarray], step) -> list[np.ndarray]:
    """exp(-i step h) for each Hermitian matrix of each block stack of ``hs``.

    ``hs`` holds one (n, k, k) stack per block; ``step`` is one duration for
    all or an (n, 1) column of them.  Each block takes one stacked ``eigh``.
    This is the only place a Hamiltonian is exponentiated.
    """
    us = []
    for h in hs:
        w, v = np.linalg.eigh(h)
        us.append(np.matmul(v * np.exp(-1j * w * step)[:, None, :], v.conj().transpose(0, 2, 1)))
    return us


def _gather(h: np.ndarray, blocks) -> list[np.ndarray]:
    """The diagonal blocks ``h[..., ix, ix]`` of a matrix or stack, one per index set."""
    return [h[..., ix[:, None], ix] for ix in blocks]


def _scatter(us: list[np.ndarray], blocks) -> np.ndarray:
    """Full complex matrices (or stacks) with the given diagonal blocks and zeros elsewhere."""
    d = sum(len(ix) for ix in blocks)
    u = np.zeros(us[0].shape[:-2] + (d, d), dtype=complex)
    for ix, block in zip(blocks, us):
        u[..., ix[:, None], ix] = block
    return u


def _propagator(parts: list[tuple[np.ndarray, np.ndarray]], scales: np.ndarray, step: float):
    """Blocks of the time-ordered product of exp(-i step (h0 + s h1)) over ``scales``.

    ``parts`` holds the (h0, h1) of each block; the earliest scale acts first.
    """
    chunks = [[] for _ in parts]
    for start in range(0, len(scales), _CHUNK):
        s = scales[start : start + _CHUNK, None, None]
        # Holding ``us`` until the next chunk replaces it keeps its memory in
        # use; freed at once, it is handed back to the system and faulted in
        # again by the next chunk, which costs a ramp 10–20 %.
        us = _exponentials([h0 + s * h1 for h0, h1 in parts], step)
        for chunk, u in zip(chunks, us):
            chunk.append(_product_in_order(u))
    return [_product_in_order(np.stack(chunk)) for chunk in chunks]


def constant_propagators(h: np.ndarray, t: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i t_k h_k) for a stack of real symmetric ``h`` (n, d, d) and times ``t`` (n,).

    ``blocks`` are index sets that partition range(d), with no entries of
    any ``h_k`` between two sets, such as ``hamiltonians.parity_blocks``;
    each block is exponentiated on its own.  Returns the full propagators
    and the unitarity defect max |U^dag U - I| of each.  For ``h`` from
    ``hamiltonians.hamiltonian_stack`` and the spec's parity blocks, every
    propagator equals, entry for entry, what ``propagate_schedule`` gives for
    that spec's square schedule of duration t_k; checking each defect against
    ``SCHEDULE_UNITARITY_TOL`` is left to the caller, so that one failing
    entry does not fail the stack.
    """
    us = _exponentials(_gather(h, blocks), np.asarray(t, dtype=float)[:, None])
    return _scatter(us, blocks), np.max([_unitarity_defects(u) for u in us], axis=0)


def propagate_constant(h: np.ndarray, t: float) -> PropagationResult:
    """Propagator exp(-i h t) for a constant Hermitian ``h`` (rad/ns, ns).

    Rejects matrices whose Hermiticity defect exceeds 1e-9 of their largest
    entry, and negative times (use the adjoint of the result instead of
    evolving backwards).
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if t < 0:
        raise ValueError(f"propagation time must be non-negative, got {t}")
    scale = np.max(np.abs(h))
    if scale > 0 and np.max(np.abs(h - h.conj().T)) > 1e-9 * scale:
        raise ValueError("matrix is not Hermitian within 1e-9 of its norm")
    (u,) = _propagator([(h, np.zeros_like(h))], np.ones(1), t)
    defect = _unitarity_defect(u)
    if defect > CONSTANT_UNITARITY_TOL:
        raise UnitarityError(f"unitarity defect {defect:.3e} exceeds {CONSTANT_UNITARITY_TOL:g}")
    return PropagationResult(u, float(t), defect, 1)


def _samples(seg: ScheduleSegment, dt: float) -> tuple[np.ndarray, float, int]:
    """Scales and step length of one segment's exponentials, and its step count.

    A constant segment is one exponential over its whole duration; a ramp of
    n steps takes two half-step exponentials per step at the CF4 nodes.
    """
    if seg.is_constant:
        return np.array([seg.scale_start]), seg.duration, 1
    n = math.ceil(seg.duration / dt)
    frac = (np.arange(n)[:, None] + _CF4_NODES).ravel() / n
    return seg.scale_start + (seg.scale_end - seg.scale_start) * frac, seg.duration / (2 * n), n


def propagate_schedule(
    spec: DirectSystemSpec | IndirectSystemSpec,
    schedule: PulseSchedule,
    dt: float = DEFAULT_DT,
) -> PropagationResult:
    """Propagator of the full system over a frequency schedule for qubit B.

    Constant segments are evolved exactly; ramped segments are discretized as
    described in the module docstring.  Segment propagators are multiplied in
    time order, and ``steps_used`` counts one per constant segment plus the
    CF4 steps of each ramp.

    A segment that retraces an earlier one (same duration, start and end
    scales swapped, as the ramp back up of a trapezoid) reuses the transpose
    of the earlier propagator.  This is exact: h0 and h1 are real symmetric,
    so each exponential is symmetric, and the CF4 nodes {1/6, 5/6} map onto
    each other under f -> 1 - f, so the retraced segment's exponentials are
    the earlier ones in reverse order.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    h0, h1 = hamiltonian_parts(spec)
    blocks = parity_blocks(spec)
    parts = list(zip(_gather(h0, blocks), _gather(h1, blocks)))
    us = [np.eye(len(ix), dtype=complex) for ix in blocks]
    steps = 0
    done = {}
    for seg in schedule.segments:
        scales, step, n_steps = _samples(seg, dt)
        earlier = done.get((seg.duration, seg.scale_end, seg.scale_start))
        seg_us = _propagator(parts, scales, step) if earlier is None else [u.T for u in earlier]
        done[seg.duration, seg.scale_start, seg.scale_end] = seg_us
        us = [seg_u @ u for seg_u, u in zip(seg_us, us)]
        steps += n_steps
    defect = max(_unitarity_defect(u) for u in us)
    if defect > SCHEDULE_UNITARITY_TOL:
        raise UnitarityError(f"unitarity defect {defect:.3e} exceeds {SCHEDULE_UNITARITY_TOL:g}")
    return PropagationResult(_scatter(us, blocks), schedule.total_time, defect, steps)
