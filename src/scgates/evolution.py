"""Unitary time evolution for constant Hamiltonians and frequency schedules.

Every propagator here is a time-ordered product of exponentials
exp(-i step (h0 + s h1)) of the Hamiltonian frozen at a list of scales s.  A
constant segment is one such exponential over its whole duration.  A ramped
segment, where qubit B's frequency moves linearly between two scale factors,
is cut into n = ceil(duration / dt) equal steps, each propagated by the
fourth-order commutator-free Magnus scheme (CF4; Blanes & Moan, Appl. Numer.
Math. 56, 1519 (2006); Alvermann & Fehske, J. Comput. Phys. 230, 5930
(2011)).  Because H is affine in the scale and the ramp is linear in time, a
CF4 step is exactly two half-step exponentials with H frozen at 1/6 and 5/6
of the step, so the error falls as ``dt**4``.
One propagator, ``segment_columns``, takes a stack of points that share a
truncation and a schedule shape, such as a sweep's grid points, as arrays:
the segments' scales and each point's durations.  It propagates given
columns of each parity block: each constant segment, at each point's own
duration, is one stacked exponential, and each ramped segment is one
stacked ramp propagation, in which the points of one ramp plan
(``_ramp_plans``: the same chunks, degrees and group degrees) share every
call and each point does exactly the arithmetic it would do alone.  A
gate is scored on the columns of its four computational states alone
(``gates.stack_blocks``); ``propagate_schedule`` is the one-point case with
every column, assembled into the full propagator, its schedule read into the
arrays by ``schedule_segments``.

The exponentials are taken in one of two ways, chosen by the segment kind:

* Constant segments and sweep stacks (``_exponentials``) take a Hermitian
  eigendecomposition, one stacked LAPACK ``eigh`` per block.  It is exact to
  the eigensolver's round-off however long the segment, and a whole segment
  has t ||H|| of order 10^3 or more.
* Ramp steps take no eigensolver.  The mean of the diagonal is split off as
  a scalar phase, leaving X_s = step (H(s) - mu_s I).  h1 is diagonal, so
  along a ramp only the diagonal of X moves: over a scale interval
  (``_ramp_chunks``), X_s = Xc + delta_s W with Xc at the interval's mid
  scale, W a small diagonal and delta_s in [-1, 1].  Each exponential is then
  an entire function of delta, whose Taylor coefficients F_0 ... F_M are the
  first block row of the exponential of a block matrix of size (M + 1) k
  (Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)), with
  ||F_m|| <= ||W||^m / m!.  An interval keeps ||W||_max <= 1/16, and M is the
  least degree whose remainder bound is 2^-53 or less over it (M <= 8; 6 for
  the fig3b pair at the default dt).  Every interval that holds an
  exponential is such a polynomial run, and the product of the Vandermonde
  matrix of its delta_s with the F_m, each in its real (2k, 2k) image, gives
  its exponentials (``_run_product``).  The F_m are a Taylor series
  with scaling and squaring done on the coefficients themselves
  (``_ramp_coefficients``; Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30,
  1639 (2009)): the argument is halved q times until its 1-norm bound is below
  1, the series of its powers, each a polynomial in delta cut at M,
  runs until its remainder is at most 2^-53, and q Cauchy products square
  it back, round-off growing about as 2^q.  Only accuracy ends an interval:
  the intervals are measured from the segment's start, each as wide as the
  bound allows, so they follow from the segment, the step and d1, not from
  where the exponentials fall.  At the default dt a whole ramp of the fig3b
  pair, or a 1 or 5 ns ramp of a 45- to 125-level cavity system, is one run
  per block, and since every ramp duration of a study has the same step
  there, the ramps of one point share the run's coefficients
  (``_ramp_propagator``).
* A polynomial run is multiplied in groups of g = 2^L consecutive
  exponentials (``_run_product``).  The CF4 nodes repeat with period 2, so
  the offsets e_j of a group's deltas from its first are the same for every
  group of a run, and the group's product G(c) = u(c + e_{g-1}) ... u(c + e_0)
  is one matrix polynomial in c, the first delta.  G comes from the F_m by L
  doublings G_2s(c) = G_s(c + e_s) G_s(c), each a binomial shift and one
  block-Toeplitz GEMM, cut by the same 2^-53 remainder bound
  (``_grouped``).  The Vandermonde product then gives the n / g group
  products at the groups' first deltas, and the tree multiplies those; the
  n mod g exponentials left over are taken as before.  L grows while a
  doubling saves more tree products than it costs and its Toeplitz matrix
  holds at most ten times ((M + 1) k)^2 entries (``_group_degrees``): at
  the default dt g is 8 for a 5 ns ramp of the fig3b pair and 16 for a
  40 ns one.

Memory is bounded apart from accuracy, by _CHUNK_ENTRIES entries of real
(2k, 2k) images: a polynomial run is evaluated in slices of at most that
many group products or exponentials, into one workspace of 1.5 slices.  A
stack of points shares that bound: its points go through a ramp in
sub-stacks whose slices, and ((M + 1) k)^2 entries per point, together fit
it, and the coefficient images it keeps for reuse, (M + 1)(2k)^2 entries per
distinct point and interval, fit it too.  The images of a slice are combined
with a pairwise product tree, and only a run's product is taken back to
complex.  A run's coefficient series is not bounded by it: per point it
holds its at most 19 powers, (M + 1) k^2 entries each, and a squaring's
Toeplitz matrix of ((M + 1) k)^2 complex entries, its points taken in stacks
of at most _CHUNK_ENTRIES / ((M + 1) k)^2 and at least one; a doubling's
Toeplitz matrix, (D + 1)(p + 1)(2k)^2 entries for degrees p before it and D
after, is kept within ten times ((M + 1) k)^2.

The exponentials and their products are formed block by block, one block per
parity of the total excitation number (``hamiltonians.parity_blocks``).  The
split is exact, with no rotating-wave approximation: a coupling term
Jx_i Jx_j, counter-rotating part included, changes n_a + n_b (+ n_c) by 0 or
+-2, and h1 is diagonal, so h0 + s h1 has exact zeros between the two parities
at every scale s, and so has every product of its exponentials.  Two
half-size eigensolves cost about a quarter of one full-size eigensolve.  The
unitarity defect, max |X^dag X - I|, is taken over the propagated columns of
every block.  With every column that is the full-matrix defect, since the
entries between blocks are exact zeros; with some, it is the defect of those
columns, which is what a score read from them relies on.  Full propagators
are assembled from their blocks only where they are returned.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import DirectSystemSpec, IndirectSystemSpec, hamiltonian_parts, parity_blocks

#: Default ramp discretization (ns): the length of one CF4 step, which costs
#: two exponentials.  Halving it moves no entry of a trapezoid's propagator by
#: more than 1e-8 for the fig3b pair (4.9e-10 with 5 ns ramps, 4.1e-11 with
#: 40 ns ones) or for 5 ns ramps of 45- and 125-level cavity systems (3.5e-9
#: and 2.9e-9).  Short ramps of large systems move more: 1.6e-8 for 1 ns ramps
#: of the 125-level cavity system.
DEFAULT_DT = 0.01

#: Unitarity tolerances declared per method.
CONSTANT_UNITARITY_TOL = 1e-10
SCHEDULE_UNITARITY_TOL = 1e-8

#: Largest ||W||_max of a scale interval of a ramp (see ``_ramp_chunks``).  At
#: 1/16 the degree M that bounds the remainder by 2^-53 is at most 8.
_THETA = 1.0 / 16.0

#: Most entries, n (2k)^2, in the real (2k, 2k) images of one slice of a
#: polynomial run (see ``_run_product``), and at least one image: 800 KB of
#: doubles, 1,024 images of a 5-level block, 48 of a 23-level one and 6 of a
#: 63-level one.  It bounds memory only; accuracy alone ends a polynomial run.
_CHUNK_ENTRIES = 100 * 1024

#: Fractions of a CF4 step at which its two half-step exponentials freeze H.
_CF4_NODES = np.array([1.0 / 6.0, 5.0 / 6.0])

#: Real and imaginary parts of (-i)^j / j!, the Taylor coefficients of exp(-i x), for j <= 18.
_EXP_SERIES = np.array([(z.real, z.imag) for z in ((-1j) ** j / math.factorial(j) for j in range(19))]).T


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
    The segments are those of ``trapezoid_segments``.
    """
    if not 0 <= tau_d < math.inf:
        raise ValueError(f"ramp duration tau_d must be non-negative and finite, got {tau_d}")
    scales, (durations,) = trapezoid_segments(tau_d, np.array([hold]), park_scale)
    return PulseSchedule(tuple(ScheduleSegment(d, *ends) for d, ends in zip(durations.tolist(), scales)))


def trapezoid_segments(tau_d: float, holds: np.ndarray, park_scale: float = 1.1):
    """The segments of ``trapezoid_schedule(tau_d, hold)`` for each of ``holds`` as arrays, unchecked.

    Returns each segment's (start, end) scales, shared by every hold, and
    the durations (n, segments), one row per hold: the form
    ``segment_columns`` takes.
    """
    if tau_d == 0:
        return ((1.0, 1.0),), holds[:, None]
    durations = np.full((len(holds), 3), tau_d)
    durations[:, 1] = holds
    return ((park_scale, 1.0), (1.0, 1.0), (1.0, park_scale)), durations


def schedule_segments(schedules):
    """Schedules of one shape as ``segment_columns`` takes them: the first schedule's (start, end) scales, and each one's segment durations (n, segments)."""
    scales = tuple((seg.scale_start, seg.scale_end) for seg in schedules[0].segments)
    return scales, np.array([[seg.duration for seg in schedule.segments] for schedule in schedules], dtype=float)


@dataclass(frozen=True)
class PropagationResult:
    """Propagator over the full Hilbert space plus bookkeeping."""

    unitary: np.ndarray
    total_time: float
    unitarity_defect: float
    steps_used: int


def _unitarity_defects(x: np.ndarray) -> np.ndarray:
    """max |X^dag X - I| of each matrix in a stack (n, d, c): of its c columns, all of a propagator's where c = d."""
    gram = np.matmul(x.conj().transpose(0, 2, 1), x)
    gram.reshape(len(x), -1)[:, :: x.shape[-1] + 1] -= 1.0  # the diagonal, in place
    return np.abs(gram).reshape(len(x), -1).max(axis=1)


def _product_in_order(us: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Product us[-1] @ ... @ us[0] by pairwise tree reduction, of each stack (..., n, r, r) on the leading axes.

    Where a level has an odd matrix out, it is multiplied onto the level's
    last product.  ``spare`` is a stack of at least half as many matrices
    as ``us``; the levels are written into ``spare`` and ``us`` in turn, so
    the tree overwrites ``us`` and allocates no stack.
    """
    while (n := us.shape[-3]) > 1:
        pairs = n // 2
        out = spare[..., :pairs, :, :]
        np.matmul(us[..., 1 : 2 * pairs : 2, :, :], us[..., 0 : 2 * pairs : 2, :, :], out=out)
        if n % 2:
            out[..., -1, :, :] = us[..., -1, :, :] @ out[..., -1, :, :]
        us, spare = out, us
    return us[..., 0, :, :]


def _exponentials(hs, step, columns=None) -> list[np.ndarray]:
    """exp(-i step h) for each Hermitian matrix of each block stack of ``hs``, or the given columns of each.

    ``hs`` yields one (n, k, k) stack per block; ``step`` is one duration for
    all or an (n, 1) column of them.  Each block takes one stacked ``eigh``,
    h = V diag(w) V^dag, and its exponential is (V e^{-i step w}) V^dag.
    ``columns`` holds, per block, the indices of the columns to form, or
    None for all of them: with B = V[cols]^dag, the columns are
    V (cos(step w) B) - i V (sin(step w) B), O(k^2) per matrix after the
    eigensolver instead of a k^3 product.  Both products are one matmul of
    V with cos(step w) B and -sin(step w) B, their columns interleaved, so
    that where h is real the real product is the complex columns' memory
    and no complex copy of V is made.  This is one of the two places a Hamiltonian is
    exponentiated, the one for constant segments and sweep stacks: a whole
    segment has t ||H|| of order 10^3 or more, and the eigendecomposition
    takes it exactly, to the eigensolver's round-off, at any t.  Ramp steps
    go through polynomial runs instead (``_ramp_coefficients``; see the
    module docstring).
    """
    us = []
    for h, cols in zip(hs, columns or itertools.repeat(None)):
        w, v = np.linalg.eigh(h)
        b = v.conj().transpose(0, 2, 1)
        b = (b if cols is None else b[..., cols])[..., None]
        phase = (w * -step)[..., None, None]
        pairs = np.concatenate([np.cos(phase) * b, np.sin(phase) * b], axis=-1)
        r = np.matmul(v, pairs.reshape(*pairs.shape[:-2], -1))
        us.append(r.view(complex) if r.dtype == float else r[..., ::2] + 1j * r[..., 1::2])
    return us


def _shifted(h0: np.ndarray, d1: np.ndarray, step: float):
    """X_s = a + s diag(b) of a ramp block, as (a, b), and the means of h0's diagonal and of d1, (..., 1) each, whose shifts mu_s = shift + s mean are split off it (see ``_ramp_coefficients``).

    ``h0`` (..., k, k) and ``d1`` (..., k) may lead with a points axis.
    """
    # the means as np.mean takes them, a sum and then a division by the count, each over
    # C-ordered data, so that a point's sums run in the order they would for it alone
    k, a = d1.shape[-1], h0.copy()
    shift = np.diagonal(a, axis1=-2, axis2=-1).sum(axis=-1, keepdims=True) / k
    mean = np.ascontiguousarray(d1).sum(axis=-1, keepdims=True) / k
    a.reshape(*a.shape[:-2], -1)[..., :: k + 1] -= shift
    a *= step
    return a, step * (d1 - mean), shift, mean


def _expansion(ends) -> tuple[float, float]:
    """The mid scale and the half-span of a polynomial run's scale interval ``ends``."""
    return (ends[0] + ends[1]) / 2, abs(ends[1] - ends[0]) / 2


def _delta(scales: np.ndarray, ends) -> np.ndarray:
    """The deltas (s - c) / w of ``scales`` in a polynomial run about the interval ``ends`` (mid scale c, half-span w)."""
    mid, half = _expansion(ends)
    return (scales - mid) / (half or 1.0)


def _taylor(xc: np.ndarray, w: np.ndarray, q: int, terms: int, degree: int) -> np.ndarray:
    """exp(-i (Xc + delta W)) as a complex polynomial in delta cut at ``degree``, for a stack of points that share q and ``terms``.

    ``xc`` (P, k, k) and ``w`` (P, k), the diagonal of W, are scaled by 2^-q.
    The powers R_j = (Xc + delta W)^j are real polynomials in delta of degree
    at most j, with R_j[m] = R_(j-1)[m] Xc + R_(j-1)[m - 1] W, each one GEMM
    over the degrees and one column scaling, cut at ``degree``.  Their sum
    sum_(j <= terms) (-i)^j R_j / j! is squared back q times by ``_cauchy``,
    each square cut at ``degree`` too.
    """
    p, k = w.shape
    xc, w = xc * 0.5**q, w[:, None, None, :] * 0.5**q
    powers = np.zeros((p, terms + 1, degree + 1, k, k))
    powers[:, 0, 0].reshape(p, -1)[:, :: k + 1] = 1.0
    rows = powers.reshape(p, terms + 1, -1, k)  # each power's coefficients stacked in a column
    for j in range(1, terms + 1):
        low, top = min(j, degree + 1) * k, min(j, degree)
        np.matmul(rows[:, j - 1, :low], xc, out=rows[:, j, :low])
        powers[:, j, 1 : top + 1] += powers[:, j - 1, :top] * w
    parts = np.matmul(_EXP_SERIES[:, : terms + 1], powers.reshape(p, terms + 1, -1))
    u = (parts[:, 0] + 1j * parts[:, 1]).reshape(p, degree + 1, k, k)
    for _ in range(q):
        u = _cauchy(u, u, degree)
    return u


def _ramp_coefficients(h0: np.ndarray, d1: np.ndarray, ends, step: float, degree: int):
    """The real images of F_0 ... F_M of a polynomial ramp run over the scale interval ``ends`` (lo, hi), and the means that give its shifts mu_s (``_shifted``).

    Each exponential of the run is exp(-i step mu_s) u_s, u_s = exp(-i X_s),
    with X_s = step (h0 + s diag(d1) - mu_s I) and mu_s the mean of that
    diagonal.  With c and w the interval's mid scale and half-span,
    X_s = Xc + delta W, Xc = X at c, W = step w diag(d1 - mean d1) and
    delta = (s - c) / w in [-1, 1], so u_s = sum_{m <= M} delta^m F_m up to
    a remainder of at most sum_{m > M} ||W||^m / m!.  The F_m are the first
    block row of exp(-i N), N the block upper bidiagonal matrix of M + 1
    blocks Xc on the diagonal and W above it (Van Loan, IEEE Trans. Autom.
    Control 23, 395 (1978)).  They are formed by scaling and squaring on the
    coefficients themselves, the degree-M form of Al-Mohy & Higham's
    Frechet-derivative recurrence (SIAM J. Matrix Anal. Appl. 30, 1639
    (2009)): with ||N||_1 <= ||Xc||_1 + ||W||_max = v, q is the least with
    v / 2^q < 1 and the series takes _degree(v / 2^q) + 1 terms, a remainder
    of at most 2^-53 (``_taylor``).  Points of one q and term count are
    taken as one stack, so each point gets the arithmetic it would get
    alone.  The images
    [[Re, -Im], [Im, Re]] of the F_m are the rows of an (M + 1, 4 k^2)
    matrix, so the images of the u_s are the rows of the product of the
    run's Vandermonde matrix in delta (``_delta``) with it.  They depend on
    the interval, not on the scales that fall in it, so every ramp of a
    point with one step and interval shares them.  With a points axis
    leading ``h0`` and ``d1``, the images and means lead with it too.
    """
    k, lead = d1.shape[-1], d1.shape[:-1]
    a, b, shift, mean = _shifted(h0.reshape(-1, k, k), d1.reshape(-1, k), step)
    mid, half = _expansion(ends)
    a.reshape(len(a), -1)[:, :: k + 1] += mid * b  # Xc
    w, keys = half * b, []
    for v in (np.abs(a).sum(axis=-2).max(axis=-1) + np.abs(w).max(axis=-1)).tolist():
        q = max(0, math.frexp(v)[1])
        keys.append((q, _degree(v * 0.5**q)))
    f = np.empty((len(a), degree + 1, k, k), dtype=complex)
    for key in set(keys):
        at = [point for point, other in enumerate(keys) if other == key]
        f[at] = _taylor(a[at], w[at], *key, degree)
    images = np.empty((len(a), degree + 1, 2 * k, 2 * k))
    images[..., :k, :k] = images[..., k:, k:] = f.real
    images[..., k:, :k] = f.imag
    np.negative(f.imag, out=images[..., :k, k:])
    return images.reshape(*lead, degree + 1, -1), shift.reshape(*lead, 1), mean.reshape(*lead, 1)


def _powers(delta: np.ndarray, degree: int) -> np.ndarray:
    """The (n, degree + 1) Vandermonde matrix delta^0 ... delta^degree, as a transposed view."""
    p = np.empty((degree + 1, len(delta)))
    p[0] = 1.0
    for m in range(degree):
        np.multiply(p[m], delta, out=p[m + 1])
    return p.T


def _scatter(us: list[np.ndarray], blocks) -> np.ndarray:
    """Full complex matrices (or stacks) with the given diagonal blocks and zeros elsewhere."""
    d = sum(len(ix) for ix in blocks)
    u = np.zeros(us[0].shape[:-2] + (d, d), dtype=complex)
    for ix, block in zip(blocks, us):
        u[..., ix[:, None], ix] = block
    return u


def _most(k: int) -> int:
    """Most real (2k, 2k) images within _CHUNK_ENTRIES entries, and at least one."""
    return max(1, _CHUNK_ENTRIES // (2 * k) ** 2)


def _degree(width: float) -> int:
    """Least degree M with width^(M + 1) / (M + 1)! <= 2^-54.

    A polynomial whose coefficients are bounded by width^m / m! is then cut
    at M with a remainder of 2^-53 or less on [-1, 1], since the tail is at
    most twice its first term while width <= 1.
    """
    degree, term = 0, width
    while term > 2.0**-54:
        degree += 1
        term *= width / (degree + 1)
    return degree


def _ramp_chunks(d1: np.ndarray, scales: np.ndarray, step: float, ends):
    """One block's ``scales`` of a ramped segment from scale ends[0] to ends[1], cut into polynomial runs: (scales, degree, group degrees, interval).

    The segment is cut into scale intervals measured from its start: each
    is the widest with ||W||_max = step w max|d1 - mean d1| <= _THETA, w its
    half-span of scales, but the last, which ends at the segment's end.  The
    intervals so follow from the segment, the step and d1, not from where
    the samples fall, and the ramps of one point that share a step share
    them.  Each interval that holds a sample is a run expanded about it
    (lo, hi), of the least degree M whose remainder bound is 2^-53 or less
    over its whole width, however few samples it holds; one
    ``searchsorted`` finds its samples.  The cuts do not depend on how a
    run is then multiplied: its group degrees (``_group_degrees``), read
    from its sample count, its degree and its interval's ||W||_max, decide
    only how ``_run_product`` groups it.
    """
    spread = float(step * np.abs(d1 - d1.mean()).max()) / 2
    total = spread * abs(ends[1] - ends[0])
    # ||W||_max from the segment's start to each interval's edge, and the samples' places among them
    count = max(1, math.ceil(total / _THETA))
    edges = [min(_THETA * j, total) for j in range(count + 1)]
    bounds = [0, *np.searchsorted(spread * np.abs(scales - ends[0]), edges[1:-1], "right").tolist(), len(scales)]
    for j in np.flatnonzero(np.diff(bounds)).tolist():
        run = tuple(ends[0] + (ends[1] - ends[0]) * (edges[i] / total if total else i) for i in (j, j + 1))
        chunk, degree = scales[bounds[j] : bounds[j + 1]], _degree(edges[j + 1] - edges[j])
        # the group degrees take ||W||_max as spread |hi - lo|, which can round otherwise than the edges' difference
        yield chunk, degree, tuple(_group_degrees(len(chunk), spread * abs(run[1] - run[0]), degree)), run


@functools.cache
def _binomials(size: int) -> tuple[np.ndarray, np.ndarray]:
    """C(m, n) at [n, m] and the lags max(m - n, 0), for n, m < ``size``: the shift of a polynomial's coefficients; built on first use."""
    n, m = np.indices((size, size))
    return np.vectorize(math.comb, otypes=[float])(m, n), np.maximum(m - n, 0)


def _cauchy(a: np.ndarray, b: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients 0 ... ``degree`` of A(c) B(c), from (..., p + 1, r, r) stacks of A's and B's, real or complex, p <= degree, in one GEMM each.

    Block (n, j) of the block-Toeplitz matrix is A_{n - j}, zero outside 0 ... p,
    so its product with B's coefficients stacked in a column is the column
    of sum_j A_{n - j} B_j.  The matrix is one copy of a strided view, whose
    entry [n, x, j, y] is entry [p + n - j, x, y] of A padded with p zero
    blocks before and degree - p after.
    """
    lead, p, r = a.shape[:-3], a.shape[-3] - 1, a.shape[-1]
    padded = np.zeros(lead + (degree + p + 1, r, r), dtype=a.dtype)
    padded[..., p : 2 * p + 1, :, :] = a
    *outer, block, row, col = padded.strides
    toeplitz = np.ndarray((*lead, degree + 1, r, p + 1, r), a.dtype, padded, p * block, (*outer, block, row, -block, col))
    toeplitz = toeplitz.reshape(*lead, (degree + 1) * r, -1)
    return np.matmul(toeplitz, b.reshape(*lead, -1, r)).reshape(*lead, degree + 1, r, r)


def _group_degrees(n: int, width: float, degree: int) -> list[int]:
    """Degrees D_1 ... D_L of the group products of a polynomial run of ``n`` exponentials, ||W||_max ``width`` and degree M.

    The run is taken in groups of g = 2^L (``_grouped``).  Doubling l, from
    groups of 2^(l - 1) exponentials to groups of 2^l, cuts its product at
    D_l = _degree(2^l width), or at 2 D_(l - 1) where that is less, with
    D_0 = M.  Its block-Toeplitz GEMM costs (D_l + 1)(D_(l - 1) + 1)
    products of real images and saves n / 2^l products of the tree.  The
    doubling is taken while
    * it saves more products than it costs;
    * its Toeplitz matrix, (D_l + 1)(D_(l - 1) + 1)(2k)^2 entries, is at most
      ten times ((M + 1) k)^2, so the doublings hold a few times what the
      coefficient series does (``_ramp_coefficients``);
    * 2^l width <= 1, where a group's coefficients sum to at most e in norm
      and D_l is at most 18.
    At the default dt that gives g = 8 for a 5 ns ramp of the fig3b pair or
    of a 45-level cavity system, and g = 16 for a 40 ns one.
    """
    degrees = [degree]
    while (g := 2 << (len(degrees) - 1)) * width <= 1:
        cut = min(2 * degrees[-1], _degree(g * width))
        cost = (cut + 1) * (degrees[-1] + 1)
        if cost >= n // g or 2 * cost > 5 * (degree + 1) ** 2:
            break
        degrees.append(cut)
    return degrees[1:]


def _grouped(images: np.ndarray, delta: np.ndarray, degrees: list[int]) -> np.ndarray:
    """Coefficients of G(c) = u(c + e_{g - 1}) ... u(c + e_0), g = 2^L, from those of u, as real images.

    ``images`` (..., M + 1, r, r) are the u's of a polynomial run with ``delta``,
    e_j = delta_j - delta_0, and ``degrees`` are the L degrees at which the
    doublings cut their products (``_group_degrees``).  The CF4 nodes repeat
    with period 2, so for every even s the offsets satisfy
    e_{s + j} = e_s + e_j, and G_{2s}(c) = G_s(c + e_s) G_s(c): each doubling
    shifts G_s by e_s (a binomial matrix times its coefficients) and takes
    one ``_cauchy`` product.  A product of s exponentials has
    ||coeff_m|| <= (s ||W||)^m / m!, as one has ||F_m|| <= ||W||^m / m!, so
    with D_l = _degree(2^l ||W||) each cut leaves a remainder of at most
    2^-53 on [-1, 1]; a product of degree 2 D_(l - 1) or less is not cut.
    """
    for level, degree in enumerate(degrees):
        p, s = images.shape[-3] - 1, 1 << level
        comb, lag = _binomials(p + 1)
        shift = comb * (delta[s] - delta[0]) ** lag
        later = np.matmul(shift, images.reshape(*images.shape[:-3], p + 1, -1)).reshape(images.shape)
        images = _cauchy(later, images, degree)
    return images


def _run_product(images: np.ndarray, delta: np.ndarray, k: int, degrees: list[int]) -> np.ndarray:
    """Product u_s[-1] ... u_s[0] of a polynomial run's exponentials, without the shifts mu_s.

    ``images`` and ``delta`` are the run's, from ``_ramp_coefficients``, k
    its block size and ``degrees`` its group degrees (``_group_degrees``).
    The run is taken in groups of g = 2^L consecutive exponentials, each
    group the value of one polynomial G (``_grouped``) at its anchor, the
    delta of its first exponential, and the n mod g exponentials left over
    on their own.  Anchors, then leftovers, are taken in slices of at most
    _CHUNK_ENTRIES image entries.  Each slice's Vandermonde rows times its
    coefficients is formed into one workspace of 1.5 slices, sized by the
    longest slice the run takes, reduced there by a product tree whose
    levels alternate with the workspace's spare half, and multiplied onto
    the real product of the slices before it.  So a run allocates one stack
    of at most 1.5 _CHUNK_ENTRIES doubles however long it is, and only its
    product is taken back to complex.  With g = 1 every slice holds
    exponentials, and nothing is left over.  A points axis may lead
    ``images``: each point then takes the same slices, one batched product
    per step, into a workspace with the same axis.
    """
    lead, g = images.shape[:-2], 1 << len(degrees)
    whole = len(delta) - len(delta) % g
    groups = _grouped(images.reshape(*lead, -1, 2 * k, 2 * k), delta, degrees).reshape(*lead, -1, 4 * k * k)
    most = min(_most(k), max(divmod(len(delta), g)))
    work = np.empty(lead + (most + most // 2, 4 * k * k))
    spare = work[..., most:, :].reshape(*lead, -1, 2 * k, 2 * k)
    p = np.eye(2 * k)
    for coeffs, anchors in (groups, delta[:whole:g]), (images, delta[whole:]):
        for lo in range(0, len(anchors), most):
            rows = _powers(anchors[lo : lo + most], coeffs.shape[-2] - 1)
            v = np.matmul(rows, coeffs, out=work[..., : len(rows), :])
            p = _product_in_order(v.reshape(*lead, -1, 2 * k, 2 * k), spare) @ p
    return p[..., :k, :k] + 1j * p[..., k:, :k]


def _cf4_scales(duration: float, ends, dt: float) -> tuple[np.ndarray, float]:
    """The scales of the exponentials of a ramped segment of ``duration`` from scale ends[0] to ends[1], and their step: n = ceil(duration / dt) CF4 steps, two half steps each, at the CF4 nodes.

    A ramp whose 2n float64 scales, 16 n bytes, are more than an array can
    hold, or whose n is infinite, raises ``ValueError`` naming its duration
    and dt; a smaller one that does not fit in memory raises
    ``MemoryError``.
    """
    if not duration / dt < np.iinfo(np.intp).max / 16:
        raise ValueError(f"a ramp of {duration} ns at dt = {dt} ns takes {duration / dt:.3g} CF4 steps, more than an array holds")
    n = math.ceil(duration / dt)
    frac = (np.arange(n)[:, None] + _CF4_NODES).ravel() / n
    return ends[0] + (ends[1] - ends[0]) * frac, duration / (2 * n)


def _ramp_plans(d1: np.ndarray, lengths: list[float], grids: dict, ends):
    """The points of one block grouped by ramp plan: (indices, step, [(scales, degree, group degrees, interval), ...]), one entry per polynomial run.

    ``d1`` (P, k) holds each point's diagonal of h1, ``lengths`` each
    point's duration of the ramped segment from scale ends[0] to ends[1],
    and ``grids`` the scales and step of each duration (``_cf4_scales``).
    A point's runs (``_ramp_chunks``) follow from its duration and d1, so
    they are cut once per distinct pair, and points of one duration whose
    runs' lengths, degrees, group degrees and intervals all agree share a
    plan.
    """
    plans, found = {}, {}
    for point, (b, length) in enumerate(zip(d1, lengths)):
        if (key := (length, b.tobytes())) not in found:
            scales, step = grids[length]
            chunks = list(_ramp_chunks(b, scales, step, ends))
            found[key] = (length, *((len(chunk), *rest) for chunk, *rest in chunks)), (step, chunks)
        plan, ramp = found[key]
        plans.setdefault(plan, (ramp, []))[1].append(point)
    return [(points, step, chunks) for (step, chunks), points in plans.values()]


def _ramp_propagator(parts: list[tuple[np.ndarray, np.ndarray]], lengths: list[float], ends, dt: float):
    """Blocks of the CF4 propagators of a ramped segment, one per point of a stack.

    ``parts`` holds the (h0, d1) of each block, stacks (P, k, k) and (P, k)
    over the points, d1 the diagonal of h1, ``lengths`` each point's
    duration of the segment and ``ends`` its (start, end) scales, shared by
    every point; the segment is discretized at ``dt`` (``_cf4_scales``).
    Per block, the points are grouped by ramp plan (``_ramp_plans``).  The
    coefficients of a polynomial run depend on the point, the step, the
    scale interval and the degree alone, so the points of one plan or of
    several, such as a ramp study's durations at one coupling, share them:
    they are formed once per distinct (h0, d1) by value and distinct (step,
    interval, degree), as one ``_ramp_coefficients`` per such run, its
    points in sub-stacks whose squaring Toeplitz matrices, ((M + 1) k)^2
    complex entries each, fit _CHUNK_ENTRIES.  The distinct points go in
    batches whose images, at most 9 (2k)^2 entries per point and run, fit it
    too, and the runs are formed and held one batch at a time.  A plan's points go in sub-stacks within
    _CHUNK_ENTRIES entries, each point counted at the larger of its longest
    slice of images, min(_most(k), slice) (2k)^2, and ((M + 1) k)^2 over its
    runs.  A sub-stack's runs are multiplied in time order, all its points
    at once, each run from its points' images by one ``_run_product``, which
    multiplies it in groups of 2^L exponentials, each group one polynomial,
    in memory-capped slices.  Every point so takes the arithmetic of a stack
    of one, batched.  The scalar phases exp(-i step mu_s) of a run's
    exponentials commute with everything, so they are applied once per run
    to its complex product, as exp(-i step sum(mu_s)) with
    sum(mu_s) = n shift + mean sum(s) over its n scales s.
    """
    # each distinct duration's scales and step, shared by every block
    grids, us = {length: _cf4_scales(length, ends, dt) for length in dict.fromkeys(lengths)}, []
    for h0, d1 in parts:
        k = d1.shape[-1]
        u = np.empty(h0.shape, dtype=complex)
        plans = _ramp_plans(d1, lengths, grids, ends)
        # each point takes the coefficients of the first point equal to it
        same, runs = {}, {}
        first = [same.setdefault((a.tobytes(), b.tobytes()), point) for point, (a, b) in enumerate(zip(h0, d1))]
        for points, step, chunks in plans:
            keys = dict.fromkeys((step, run, degree) for _, degree, _, run in chunks)
            for point in points:
                runs.setdefault(first[point], {}).update(keys)
        # the distinct points in batches whose images, (M + 1)(2k)^2 <= 9 (2k)^2 entries a run, fit _CHUNK_ENTRIES
        distinct = list(runs)
        per_batch = max(1, _CHUNK_ENTRIES // (9 * (2 * k) ** 2 * max([1, *map(len, runs.values())])))
        for start in range(0, len(distinct), per_batch):
            # (step, interval, degree): the rows of the batch's points that run it, then their images and means
            batch, coeffs = set(distinct[start : start + per_batch]), {}
            for point in batch:
                for key in runs[point]:
                    rows = coeffs.setdefault(key, {})
                    rows[point] = len(rows)
            for (step, run, degree), rows in coeffs.items():
                size, reps = max(1, _CHUNK_ENTRIES // ((degree + 1) * k) ** 2), list(rows)
                stacks = [_ramp_coefficients(h0[reps[i : i + size]], d1[reps[i : i + size]], run, step, degree) for i in range(0, len(reps), size)]
                coeffs[step, run, degree] = rows, *(np.concatenate(x) if len(x) > 1 else x[0] for x in zip(*stacks))
            for points, step, chunks in plans:
                points = [point for point in points if first[point] in batch]
                # the longest slice of anchors or leftovers
                slices = [min(_most(k), max(divmod(len(chunk), 1 << len(degrees)))) for chunk, _, degrees, _ in chunks]
                size = max(1, _CHUNK_ENTRIES // max(max(n * (2 * k) ** 2, ((d + 1) * k) ** 2) for n, (_, d, _, _) in zip(slices, chunks)))
                # each run's deltas, and its count and sum of scales, which give the sum of its shifts
                sums = [(_delta(chunk, run), len(chunk), chunk.sum()) for chunk, _, _, run in chunks]
                for lo in range(0, len(points), size):
                    at, v = points[lo : lo + size], np.eye(k)
                    for (_, degree, degrees, run), (delta, n, total) in zip(chunks, sums):
                        rows, images, shift, mean = coeffs[step, run, degree]
                        at_rows = np.array([rows[first[point]] for point in at])
                        phase = np.exp(-1j * step * (n * shift[at_rows] + total * mean[at_rows]))
                        v = phase[:, :, None] * _run_product(images[at_rows], delta, k, degrees) @ v
                    u[at] = v
        us.append(u)
    return us


def _with_diagonal(h: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """``h`` (n, k, k) with ``diagonal`` (n, k) added to its diagonal, in place."""
    h.reshape(len(h), -1)[:, :: h.shape[-1] + 1] += diagonal
    return h


def segment_columns(h0: np.ndarray, d1: np.ndarray, scales, durations: np.ndarray, blocks, columns, dt: float):
    """Given columns of the propagators of a stack of points over their segments, and the unitarity defect of each point.

    ``h0`` (n, d, d) and ``d1`` (n, d) are each point's real symmetric h0
    and the diagonal of its h1 (``hamiltonians.hamiltonian_parts_rows``),
    and ``blocks`` are index sets that partition range(d) with no entries of
    any h0 between two sets, such as ``hamiltonians.parity_blocks``; each
    block is propagated on its own.  ``columns`` holds, per block, the
    block-local indices of the columns to propagate, or is None for every
    column of every block.  The points share their segments' (start, end)
    ``scales``, and ``durations`` (n, segments) holds each point's segment
    durations, positive and finite.  Returns one (n, k, c) stack per block,
    the columns of its propagators, and the defect max |X^dag X - I| of each
    point over the columns of all its blocks.  Segment by segment, in time
    order:
    * a constant segment is one stacked ``_exponentials`` per block, each
      point at its own duration.  A first segment forms only the given
      columns, O(k^2) per point after the eigensolver;
    * a ramped segment is one ``_ramp_propagator`` for all points, each at
      its own duration, discretized as the module docstring describes, its
      points grouped by ramp plan.  Its durations and scales are taken as
      given, positive and finite.  As a first segment it is cut to the given
      columns;
    * a segment that retraces an earlier one (the same durations, start and
      end scales swapped, as the ramp back up of a trapezoid) reuses the
      transposes of the earlier propagators.  This is exact: h0 and h1 are
      real symmetric, so each exponential is symmetric, and the CF4 nodes
      {1/6, 5/6} map onto each other under f -> 1 - f, so the retraced
      segment's exponentials are the earlier ones in reverse order.  Only
      whole propagators are kept for this, so a first constant segment that
      forms some columns is not;
    * each later segment's propagators multiply the columns carried forward.
    With every column the arithmetic is that of whole propagators.  Checking
    each defect against ``SCHEDULE_UNITARITY_TOL`` is left to the caller, so
    that one failing point does not fail the stack.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    xs, done = None, {}
    for (start, end), lengths in zip(scales, durations.T):
        key = lengths.tobytes()
        earlier = done.get((key, end, start))
        cut = columns if xs is None else None  # only a first segment starts from the given columns
        if earlier is not None:
            seg_us = [u.transpose(0, 2, 1) for u in earlier]
        elif start == end:
            # each block of h0 + s h1 is taken when its eigensolver needs it, so one is held at a time
            diagonal = start * d1
            hs = (_with_diagonal(h0[:, ix[:, None], ix], diagonal[:, ix]) for ix in blocks)
            seg_us = _exponentials(hs, lengths[:, None], cut)
            if cut is not None:
                xs = seg_us
                continue
        else:
            seg_us = _ramp_propagator([(h0[:, ix[:, None], ix], d1[:, ix]) for ix in blocks], lengths.tolist(), (start, end), dt)
        done[key, start, end] = seg_us
        if xs is None:
            xs = seg_us if cut is None else [u[..., cols] for u, cols in zip(seg_us, cut)]
        else:
            xs = [np.matmul(seg_u, x) for seg_u, x in zip(seg_us, xs)]
    return xs, np.maximum.reduce([_unitarity_defects(x) for x in xs])


def propagate_constant(h: np.ndarray, t: float) -> PropagationResult:
    """Propagator exp(-i h t) for a constant Hermitian ``h`` (rad/ns, ns).

    Rejects matrices whose Hermiticity defect exceeds 1e-9 of their largest
    entry, non-finite times, and negative times (use the adjoint of the
    result instead of evolving backwards).
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not 0 <= t < math.inf:
        raise ValueError(f"propagation time must be non-negative and finite, got {t}")
    scale = np.max(np.abs(h))
    if scale > 0 and np.max(np.abs(h - h.conj().T)) > 1e-9 * scale:
        raise ValueError("matrix is not Hermitian within 1e-9 of its norm")
    ((u,),) = _exponentials([h[None]], t)
    defect = float(_unitarity_defects(u[None])[0])
    if defect > CONSTANT_UNITARITY_TOL:
        raise UnitarityError(f"unitarity defect {defect:.3e} exceeds {CONSTANT_UNITARITY_TOL:g}")
    return PropagationResult(u, float(t), defect, 1)


def propagate_schedule(
    spec: DirectSystemSpec | IndirectSystemSpec,
    schedule: PulseSchedule,
    dt: float = DEFAULT_DT,
) -> PropagationResult:
    """Propagator of the full system over a frequency schedule for qubit B.

    Constant segments are evolved exactly; ramped segments are discretized as
    described in the module docstring.  This is the one-point case of
    ``segment_columns`` with every column, which says how the segments are
    taken; the blocks' propagators are assembled into the full matrix, with
    exact zeros between blocks, and a defect above ``SCHEDULE_UNITARITY_TOL``
    raises ``UnitarityError``.
    ``steps_used`` counts one per constant segment plus the CF4 steps of each
    ramp.
    """
    h0, h1 = hamiltonian_parts(spec)
    blocks = parity_blocks(spec)
    us, (defect,) = segment_columns(h0[None], np.diagonal(h1)[None], *schedule_segments([schedule]), blocks, None, dt)
    if defect > SCHEDULE_UNITARITY_TOL:
        raise UnitarityError(f"unitarity defect {defect:.3e} exceeds {SCHEDULE_UNITARITY_TOL:g}")
    steps = sum(1 if seg.is_constant else math.ceil(seg.duration / dt) for seg in schedule.segments)
    return PropagationResult(_scatter(us, blocks)[0], schedule.total_time, float(defect), steps)
