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
One propagator, ``schedule_columns``, takes a stack of points that share
a truncation and a schedule shape, such as a sweep's grid points, and
propagates given columns of each parity block: each constant segment, at
each point's own duration, is one stacked exponential, and each ramped
segment is one stacked ramp propagation, in which the points of one ramp
plan (``_ramp_plans``: the same chunks, degrees and group degrees) share
every call and each point does exactly the arithmetic it would do alone.  A
gate is scored on the columns of its four computational states alone
(``gates.computational_blocks``); ``schedule_propagators`` is the
every-column case, and ``propagate_schedule`` its one-point case.

The exponentials are taken in one of two ways, chosen by the segment kind:

* Constant segments and sweep stacks (``_exponentials``) take a Hermitian
  eigendecomposition, one stacked LAPACK ``eigh`` per block.  It is exact to
  the eigensolver's round-off however long the segment, and a whole segment
  has t ||H|| of order 10^3 or more.
* Ramp steps (``_ramp_exponentials``) take no eigensolver.  The mean of the
  diagonal is split off as a scalar phase, leaving X_s = step (H(s) - mu_s I),
  and the exponentials are real Taylor series for cos and sin with scaling
  and squaring (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)):
  through X^16 and X^17 the remainder is at most 1/18! ~ 1.6e-16 where the
  1-norm is at most 1, and a longer argument is halved q times and squared
  back, round-off growing about as 2^q.  h1 is diagonal, so along a ramp only
  the diagonal of X moves: over a chunk of consecutive steps
  (``_ramp_chunks``), X_s = Xc + delta_s W with Xc at the chunk's mid scale,
  W a small diagonal and delta_s in [-1, 1].  Each exponential is then an
  entire function of delta, whose Taylor coefficients F_0 ... F_M are the
  first block row of one block-matrix exponential of size (M + 1) k (Van
  Loan, IEEE Trans. Autom. Control 23, 395 (1978)), with
  ||F_m|| <= ||W||^m / m!.  A chunk keeps ||W||_max <= 1/16, and M is the
  least degree whose remainder bound is 2^-53 or less (M <= 8; 4 to 6 for
  the fig3b pair at the default dt).  The product of the Vandermonde matrix
  of the delta_s with the F_m, each in its real (2k, 2k) image, then gives
  every exponential of the chunk.  That block exponential costs about as
  much as (M + 1)^3 exponentials of size k, so a chunk is such a polynomial
  run only where it holds more; elsewhere (wide chunks, short ramps) each
  exponential takes the series on its own, as one complex stack per chunk.
  Only accuracy ends a polynomial run, so at the default dt a whole ramp of
  the fig3b pair, or a 5 ns ramp of a 45-level cavity system, is one run per
  block.
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
  doubling saves more tree products than it costs and holds no more memory
  than the block exponential (``_group_degrees``): at
  the default dt g is 8 for a 5 ns ramp of the fig3b pair and 16 for a
  40 ns one.

Memory is bounded apart from accuracy, by _CHUNK_ENTRIES entries of real
(2k, 2k) images: a chunk taken one exponential at a time holds at most that
many, and a polynomial run is evaluated in slices of at most that many group
products or exponentials, into one workspace of 1.5 slices.  A stack of
points shares that bound: its points go through a ramp in sub-stacks whose
slices and block matrices together fit it.  The
exponentials of a chunk, or the images of a slice, are combined with a
pairwise product tree, over their real images where they come from a
polynomial, and only a chunk's product is taken back to complex.  A run's
coefficients are not bounded by it: the block exponential holds about ten
matrices of ((M + 1) k)^2 entries, and a doubling's Toeplitz matrix,
(D + 1)(p + 1)(2k)^2 entries for degrees p before it and D after, is kept
within ten of those.

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

#: Largest ||W||_max of a ramp chunk taken as a polynomial (see
#: ``_ramp_exponentials``).  At 1/16 the degree M that bounds the remainder by
#: 2^-53 is at most 8.
_THETA = 1.0 / 16.0

#: Most entries, n (2k)^2, in the real (2k, 2k) images of the exponentials of
#: one ramp chunk taken one at a time, or of one slice of a polynomial run
#: (see ``_run_product``), and at least one image: 800 KB of doubles, 1,024
#: exponentials of a 5-level block, 48 of a 23-level one and 6 of a 63-level
#: one.  It bounds memory only; accuracy alone ends a polynomial run.
_CHUNK_ENTRIES = 100 * 1024

#: Fractions of a CF4 step at which its two half-step exponentials freeze H.
_CF4_NODES = np.array([1.0 / 6.0, 5.0 / 6.0])

#: cos X and sin(X) / X as series in Y = X^2, through Y^8.
_COS_SERIES = [(-1) ** k / math.factorial(2 * k) for k in range(9)]
_SINC_SERIES = [(-1) ** k / math.factorial(2 * k + 1) for k in range(9)]


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


def _unitarity_defects(x: np.ndarray) -> np.ndarray:
    """max |X^dag X - I| of each matrix in a stack (n, d, c): of its c columns, all of a propagator's where c = d."""
    gram = np.matmul(x.conj().transpose(0, 2, 1), x)
    gram.reshape(len(x), -1)[:, :: x.shape[-1] + 1] -= 1.0  # the diagonal, in place
    return np.abs(gram).reshape(len(x), -1).max(axis=1)


def _unitarity_defect(u: np.ndarray) -> float:
    return float(_unitarity_defects(u[None])[0])


def _product_in_order(us: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    """Product us[-1] @ ... @ us[0] by pairwise tree reduction, of each stack (..., n, r, r) on the leading axes.

    Where a level has an odd matrix out, it is multiplied onto the level's
    last product.  With ``spare``, a stack of at least half as many matrices
    as ``us``, the levels are written into ``spare`` and ``us`` in turn, so
    the tree overwrites ``us`` and allocates no stack.
    """
    while (n := us.shape[-3]) > 1:
        pairs = n // 2
        out = None if spare is None else spare[..., :pairs, :, :]
        out = np.matmul(us[..., 1 : 2 * pairs : 2, :, :], us[..., 0 : 2 * pairs : 2, :, :], out=out)
        if n % 2:
            out[..., -1, :, :] = us[..., -1, :, :] @ out[..., -1, :, :]
        us, spare = out, None if spare is None else us
    return us[..., 0, :, :]


def _exponentials(hs, step, columns=None) -> list[np.ndarray]:
    """exp(-i step h) for each Hermitian matrix of each block stack of ``hs``, or the given columns of each.

    ``hs`` yields one (n, k, k) stack per block; ``step`` is one duration for
    all or an (n, 1) column of them.  Each block takes one stacked ``eigh``,
    h = V diag(w) V^dag, and its exponential is (V e^{-i step w}) V^dag.
    ``columns`` holds, per block, the indices of the columns to form, or
    None for all of them: the columns are (V e^{-i step w}) V[cols]^dag,
    O(k^2) per matrix after the eigensolver instead of a k^3 product.
    This is one of the two places a Hamiltonian is exponentiated, the one
    for constant segments and sweep stacks: a whole segment has t ||H|| of
    order 10^3 or more, and the eigendecomposition takes it exactly, to the
    eigensolver's round-off, at any t.  Ramp steps go through
    ``_ramp_exponentials`` instead (see the module docstring).
    """
    us = []
    for h, cols in zip(hs, columns or itertools.repeat(None)):
        w, v = np.linalg.eigh(h)
        vh = v.conj().transpose(0, 2, 1)
        us.append(np.matmul(v * np.exp(-1j * w * step)[:, None, :], vh if cols is None else vh[..., cols]))
    return us


def _even_series(coeffs, y: np.ndarray, y2: np.ndarray, y3: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] y^k (k <= 8) for a stack y, by Paterson–Stockmeyer in y^3: two matmuls."""

    def group(c0, c1, c2):
        g = c2 * y2
        g += c1 * y
        g.reshape(-1, g.shape[-1] ** 2)[:, :: g.shape[-1] + 1] += c0  # c0 I, on the diagonal in place
        return g

    p = np.matmul(y3, group(*coeffs[6:9]))
    p += group(*coeffs[3:6])
    p = np.matmul(y3, p)
    p += group(*coeffs[0:3])
    return p


def _series_exponentials(x: np.ndarray, symmetric: bool) -> np.ndarray:
    """exp(-i X) = cos X - i sin X for each real square matrix of a stack, from real matrix products only.

    The stack (..., n, K, K) holds one family per leading index, each one
    matrix or an affine family X_0 + s (X_1 - X_0) in the order of monotone
    s, such as a ramp chunk's X_s.  ||X||_1 is convex along a family, so it
    is largest at one end, and the family is halved q times, q the least
    with ||X||_1 / 2^q <= 1 at both ends.  cos and sin are then summed as
    series in Y = X^2 through Y^8 (remainder at most 1/18! ~ 1.6e-16) and
    squared back q times by (C, S) -> (C^2 - S^2, CS + SC), which takes
    three products where X is ``symmetric``, since SC = (CS)^T there.
    Families of different q are taken apart, so each family gets the
    arithmetic it would get on its own.
    """
    ends = x[..., :: max(1, x.shape[-3] - 1), :, :]  # the first and the last matrix of each family
    norm = np.abs(ends).sum(axis=-2).max(axis=(-2, -1))
    qs = [math.ceil(math.log2(v)) if v > 1 else 0 for v in norm.flat]
    if len(set(qs)) > 1:
        qs, u = np.reshape(qs, norm.shape), np.empty(x.shape, dtype=complex)
        for q in set(qs.flat):
            u[qs == q] = _series_exponentials(x[qs == q], symmetric)
        return u
    q = qs[0]
    x = x * 0.5**q if q else x
    y = np.matmul(x, x)
    y2 = np.matmul(y, y)
    y3 = np.matmul(y2, y)
    c = _even_series(_COS_SERIES, y, y2, y3)
    s = np.matmul(x, _even_series(_SINC_SERIES, y, y2, y3))
    for _ in range(q):
        cs = np.matmul(c, s)
        c, s = np.matmul(c, c) - np.matmul(s, s), cs + (cs.swapaxes(-1, -2) if symmetric else np.matmul(s, c))
    u = np.empty(c.shape, dtype=complex)
    u.real, u.imag = c, -s
    return u


def _shifted(h0: np.ndarray, d1: np.ndarray, scales: np.ndarray, step: float):
    """X_s = a + s diag(b) of one ramp chunk, as (a, b), and the shifts mu_s split off it (see ``_ramp_exponentials``).

    ``h0`` (..., k, k) and ``d1`` (..., k) may lead with a points axis; mu is then (..., n).
    """
    # the means as np.mean takes them, a sum and then a division by the count, each over
    # C-ordered data, so that a point's sums run in the order they would for it alone
    k, a = d1.shape[-1], h0.copy()
    shift = np.diagonal(a, axis1=-2, axis2=-1).sum(axis=-1, keepdims=True) / k
    mean = np.ascontiguousarray(d1).sum(axis=-1, keepdims=True) / k
    a.reshape(*a.shape[:-2], -1)[..., :: k + 1] -= shift
    a *= step
    return a, step * (d1 - mean), shift + scales * mean


def _ramp_coefficients(h0: np.ndarray, d1: np.ndarray, scales: np.ndarray, step: float, degree: int):
    """A polynomial ramp run's coefficients: the real images of F_0 ... F_M, its delta_s and its shifts mu.

    The images [[Re, -Im], [Im, Re]] of the F_m are the rows of an
    (M + 1, 4 k^2) matrix, so the images of the u_s are the rows of the
    product of the run's Vandermonde matrix in delta with it (see
    ``_ramp_exponentials``).  With a points axis leading ``h0`` and ``d1``,
    the images and mu lead with it too; delta is the points' own.
    """
    k, lead = d1.shape[-1], d1.shape[:-1]
    a, b, mu = _shifted(h0, d1, scales, step)
    mid, half = (scales[0] + scales[-1]) / 2, abs(scales[-1] - scales[0]) / 2
    n_mat, m, i = np.zeros(lead + (degree + 1, k, degree + 1, k)), np.arange(degree + 1), np.arange(k)
    a.reshape(*lead, -1)[..., :: k + 1] += mid * b  # Xc
    n_mat[..., m, :, m, :] = a
    n_mat[..., m[:-1, None], i, m[1:, None], i] = half * b[..., None, :]
    n_mat = n_mat.reshape(*lead, 1, (degree + 1) * k, -1)
    f = _series_exponentials(n_mat, symmetric=False)[..., 0, :k, :].reshape(*lead, k, degree + 1, k).swapaxes(-3, -2)
    images = np.empty(lead + (degree + 1, 2 * k, 2 * k))
    images[..., :k, :k] = images[..., k:, k:] = f.real
    images[..., k:, :k] = f.imag
    np.negative(f.imag, out=images[..., :k, k:])
    return images.reshape(*lead, degree + 1, -1), (scales - mid) / (half or 1.0), mu


def _powers(delta: np.ndarray, degree: int) -> np.ndarray:
    """The (n, degree + 1) Vandermonde matrix delta^0 ... delta^degree, as a transposed view."""
    p = np.empty((degree + 1, len(delta)))
    p[0] = 1.0
    for m in range(degree):
        np.multiply(p[m], delta, out=p[m + 1])
    return p.T


def _ramp_exponentials(h0: np.ndarray, d1: np.ndarray, scales: np.ndarray, step: float, degree: int | None):
    """exp(-i step (h0 + s diag(d1))) for the (n,) ``scales`` of one ramp chunk, without an eigensolver.

    ``h0`` is a real symmetric (k, k) block and ``d1`` the diagonal of its h1.
    Returns u_s = exp(-i X_s), with X_s = step (h0 + s diag(d1) - mu_s I) and
    mu_s the mean of that diagonal, and the shifts mu (n,): each exponential
    is exp(-i step mu_s) u_s.  ``scales`` are monotone.  With ``degree``
    None the u_s are a complex (n, k, k) stack, one
    ``_series_exponentials`` of each X_s.  Otherwise they are the
    real (2k, 2k) images [[Re, -Im], [Im, Re]] of a polynomial of that degree
    M in the scale.  With c and w the chunk's mid scale and half-span,
    X_s = Xc + delta W, Xc = X at c, W = step w diag(d1 - mean d1) and
    delta = (s - c) / w in [-1, 1], so u_s = sum_{m <= M} delta^m F_m up to a
    remainder of at most sum_{m > M} ||W||^m / m!.  F_0 ... F_M are the first
    block row of exp(-i N) (Van Loan, IEEE Trans. Autom. Control 23, 395
    (1978)), N the block upper bidiagonal matrix of M + 1 blocks Xc on the
    diagonal and W above it (``_ramp_coefficients``), and one product of the
    Vandermonde matrix of the delta with the images of the F_m gives every
    u_s.  The propagator forms that product in memory-capped slices instead
    (``_run_product``); this form gives all of a chunk's u_s at once.  A
    points axis may lead ``h0`` and ``d1``, and then leads the u_s and mu.
    """
    k, lead = d1.shape[-1], d1.shape[:-1]
    if degree is None:
        a, b, mu = _shifted(h0, d1, scales, step)
        x = np.repeat(a[..., None, :, :], len(scales), axis=-3)
        x.reshape(*lead, len(scales), -1)[..., :: k + 1] += scales[:, None] * b[..., None, :]
        return _series_exponentials(x, symmetric=True), mu
    images, delta, mu = _ramp_coefficients(h0, d1, scales, step, degree)
    return (_powers(delta, degree) @ images).reshape(*lead, len(scales), 2 * k, -1), mu


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


def _ramp_chunks(d1: np.ndarray, scales: np.ndarray, step: float):
    """One block's monotone ``scales`` cut into ramp chunks, each with its degree M or None.

    A chunk starts where the last one ended.  Its polynomial run is the
    longest start of it with ||W||_max = step w max|d1 - mean d1| <= _THETA,
    w the run's half-span of scales, and M the least degree whose remainder
    bound is 2^-53 or less.  The run is found by one ``searchsorted`` on the
    block's ||W||_max from its first scale, which costs O(log n) per run.
    The block exponential of size (M + 1) k costs about as much as
    (M + 1)^3 of the exponentials taken one at a time, so the run is a chunk
    of degree M only where it holds more than (M + 1)^3 of them, however
    many that is.  Otherwise the chunk takes the most exponentials whose
    real (2k, 2k) images fit in _CHUNK_ENTRIES entries one at a time
    (degree None).  The cuts do not depend on how a run is then multiplied
    (``_run_product``, in groups), which only makes runs cheaper.
    """
    # ||W||_max of the run from scales[i] to scales[j] is reach[j] - reach[i]
    reach = step * np.abs(d1 - d1.mean()).max() / 2 * np.abs(scales - scales[0])
    start = 0
    while start < len(scales):
        end = int(np.searchsorted(reach, reach[start] + _THETA, "right"))
        degree = _degree(float(reach[end - 1] - reach[start]))
        if (degree + 1) ** 3 >= end - start:
            end, degree = start + _most(len(d1)), None
        yield scales[start:end], degree
        start = end


@functools.cache
def _binomials(size: int) -> tuple[np.ndarray, np.ndarray]:
    """C(m, n) at [n, m] and the lags max(m - n, 0), for n, m < ``size``: the shift of a polynomial's coefficients; built on first use."""
    n, m = np.indices((size, size))
    return np.vectorize(math.comb, otypes=[float])(m, n), np.maximum(m - n, 0)


def _cauchy(a: np.ndarray, b: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients 0 ... ``degree`` of A(c) B(c), from (..., p + 1, r, r) stacks of A's and B's, p <= degree, in one GEMM each.

    Block (n, j) of the block-Toeplitz matrix is A_{n - j}, zero outside 0 ... p,
    so its product with B's coefficients stacked in a column is the column
    of sum_j A_{n - j} B_j.  The matrix is one copy of a strided view, whose
    entry [n, x, j, y] is entry [p + n - j, x, y] of A padded with p zero
    blocks before and degree - p after.
    """
    lead, p, r = a.shape[:-3], a.shape[-3] - 1, a.shape[-1]
    padded = np.zeros(lead + (degree + p + 1, r, r))
    padded[..., p : 2 * p + 1, :, :] = a
    *outer, block, row, col = padded.strides
    toeplitz = np.ndarray((*lead, degree + 1, r, p + 1, r), float, padded, p * block, (*outer, block, row, -block, col))
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
      ten of the block exponential's ((M + 1) k)^2, about what the
      exponential itself holds, so the doublings take no more memory than
      the coefficients did;
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


def _cf4_scales(seg: ScheduleSegment, dt: float) -> tuple[np.ndarray, float]:
    """The scales of a ramped segment's exponentials and their step: n = ceil(duration / dt) CF4 steps, two half steps each, at the CF4 nodes."""
    n = math.ceil(seg.duration / dt)
    frac = (np.arange(n)[:, None] + _CF4_NODES).ravel() / n
    return seg.scale_start + (seg.scale_end - seg.scale_start) * frac, seg.duration / (2 * n)


def _ramp_plans(d1: np.ndarray, segs: list[int], grids: list[tuple[np.ndarray, float]]):
    """The points of one block grouped by ramp plan: (indices, step, [(chunk, degree, group degrees), ...]).

    ``d1`` (P, k) holds each point's diagonal of h1, ``segs`` the index of
    each point's ramped segment in ``grids``, and ``grids`` the scales and
    step of each segment (``_cf4_scales``).  A point's chunks and degrees
    (``_ramp_chunks``) and each polynomial run's group degrees
    (``_group_degrees``, () for a chunk of degree None) follow from its
    segment and d1, so they are found once per distinct pair, and points
    with one segment whose chunks, degrees and group degrees all agree share
    a plan.
    """
    plans, found = {}, {}
    for point, (b, seg) in enumerate(zip(d1, segs)):
        if (key := (seg, b.tobytes())) not in found:
            scales, step = grids[seg]
            spread = step * np.abs(b - b.mean()).max() / 2
            chunks = [
                (chunk, degree, () if degree is None else tuple(_group_degrees(len(chunk), spread * abs(chunk[-1] - chunk[0]), degree)))
                for chunk, degree in _ramp_chunks(b, scales, step)
            ]
            found[key] = (seg, *((len(chunk), degree, degrees) for chunk, degree, degrees in chunks)), (step, chunks)
        plan, ramp = found[key]
        plans.setdefault(plan, (ramp, []))[1].append(point)
    return [(points, step, chunks) for (step, chunks), points in plans.values()]


def _ramp_propagator(parts: list[tuple[np.ndarray, np.ndarray]], segs, dt: float):
    """Blocks of the CF4 propagators of a ramped segment, one per point of a stack.

    ``parts`` holds the (h0, d1) of each block, stacks (P, k, k) and (P, k)
    over the points, d1 the diagonal of h1, and ``segs`` each point's
    segment, discretized at ``dt`` (``_cf4_scales``).  Per block, the points
    are grouped by ramp plan (``_ramp_plans``), and a plan's points go in
    sub-stacks within _CHUNK_ENTRIES entries, each point counted at the
    larger of its longest slice of images, min(_most(k), slice) (2k)^2, and
    its block matrix, ((M + 1) k)^2, over its chunks.  A sub-stack's chunks
    are multiplied in time order, all its points at once: a chunk of degree
    None takes one ``_ramp_exponentials`` and a product tree; a polynomial
    run takes one ``_ramp_coefficients`` and one ``_run_product``, which
    multiplies it in groups of 2^L exponentials, each group one polynomial,
    in memory-capped slices.  Every point so takes the arithmetic of a stack
    of one, batched.  The scalar phases exp(-i step mu_s) of a chunk's
    exponentials commute with everything, so they are applied once per
    chunk, as exp(-i step sum(mu_s)), to the chunk's complex product.
    """
    index = {}  # each distinct segment, numbered in order of first use
    which = [index.setdefault(seg, len(index)) for seg in segs]
    grids, us = [_cf4_scales(seg, dt) for seg in index], []
    for h0, d1 in parts:
        k = d1.shape[-1]
        u = np.empty(h0.shape, dtype=complex)
        for points, step, chunks in _ramp_plans(d1, which, grids):
            # the longest slice of anchors or leftovers (every exponential, for degree None)
            slices = [min(_most(k), max(divmod(len(chunk), 1 << len(degrees)))) for chunk, _, degrees in chunks]
            entries = max(max(n * (2 * k) ** 2, (((d or 0) + 1) * k) ** 2) for n, (_, d, _) in zip(slices, chunks))
            size = max(1, _CHUNK_ENTRIES // entries)
            for lo in range(0, len(points), size):
                at, v = points[lo : lo + size], np.eye(k)
                for chunk, degree, degrees in chunks:
                    if degree is None:
                        x, mu = _ramp_exponentials(h0[at], d1[at], chunk, step, None)
                        p = _product_in_order(x)
                    else:
                        images, delta, mu = _ramp_coefficients(h0[at], d1[at], chunk, step, degree)
                        p = _run_product(images, delta, k, degrees)
                    v = np.exp(-1j * step * mu.sum(axis=-1))[:, None, None] * p @ v
                u[at] = v
        us.append(u)
    return us


def _with_diagonal(h: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """``h`` (n, k, k) with ``diagonal`` (n, k) added to its diagonal, in place."""
    h.reshape(len(h), -1)[:, :: h.shape[-1] + 1] += diagonal
    return h


def schedule_columns(h0: np.ndarray, d1: np.ndarray, schedules, blocks, columns, dt: float):
    """Given columns of the propagators of a stack of points over their schedules, and the unitarity defect of each point.

    ``h0`` (n, d, d) and ``d1`` (n, d) are each point's real symmetric h0
    and the diagonal of its h1 (``hamiltonians.hamiltonian_parts_stack``),
    and ``blocks`` are index sets that partition range(d) with no entries of
    any h0 between two sets, such as ``hamiltonians.parity_blocks``; each
    block is propagated on its own.  ``columns`` holds, per block, the
    block-local indices of the columns to propagate, or is None for every
    column of every block.  Returns one (n, k, c) stack per block, the
    columns of its propagators, and the defect max |X^dag X - I| of each
    point over the columns of all its blocks.  The ``schedules``, one per
    point, have the same segments but for their durations: the first
    schedule's scales are taken for all.  Segment by segment, in time order:
    * a constant segment is one stacked ``_exponentials`` per block, each
      point at its own duration.  A first segment forms only the given
      columns, O(k^2) per point after the eigensolver;
    * a ramped segment is one ``_ramp_propagator`` for all points, each at
      its own duration, discretized as the module docstring describes, its
      points grouped by ramp plan.  As a first segment it is cut to the
      given columns;
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
    for segs in zip(*(schedule.segments for schedule in schedules)):
        seg, durations = segs[0], tuple(s.duration for s in segs)
        earlier = done.get((durations, seg.scale_end, seg.scale_start))
        cut = columns if xs is None else None  # only a first segment starts from the given columns
        if earlier is not None:
            seg_us = [u.transpose(0, 2, 1) for u in earlier]
        elif seg.is_constant:
            # each block of h0 + s h1 is taken when its eigensolver needs it, so one is held at a time
            diagonal = seg.scale_start * d1
            hs = (_with_diagonal(h0[:, ix[:, None], ix], diagonal[:, ix]) for ix in blocks)
            seg_us = _exponentials(hs, np.array(durations)[:, None], cut)
            if cut is not None:
                xs = seg_us
                continue
        else:
            seg_us = _ramp_propagator([(h0[:, ix[:, None], ix], d1[:, ix]) for ix in blocks], segs, dt)
        done[durations, seg.scale_start, seg.scale_end] = seg_us
        if xs is None:
            xs = seg_us if cut is None else [u[..., cols] for u, cols in zip(seg_us, cut)]
        else:
            xs = [np.matmul(seg_u, x) for seg_u, x in zip(seg_us, xs)]
    return xs, np.maximum.reduce([_unitarity_defects(x) for x in xs])


def schedule_propagators(h0: np.ndarray, d1: np.ndarray, schedules, blocks, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Full propagators (n, d, d) of a stack of points over their schedules, and the unitarity defect max |U^dag U - I| of each.

    This is the every-column case of ``schedule_columns``, which says how
    the segments are taken; the blocks' propagators are assembled into full
    matrices, with exact zeros between blocks.
    """
    us, defects = schedule_columns(h0, d1, schedules, blocks, None, dt)
    return _scatter(us, blocks), defects


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
    defect = _unitarity_defect(u)
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
    ``schedule_propagators``, which says how the segments are taken, and a
    defect above ``SCHEDULE_UNITARITY_TOL`` raises ``UnitarityError``.
    ``steps_used`` counts one per constant segment plus the CF4 steps of each
    ramp.
    """
    h0, h1 = hamiltonian_parts(spec)
    u, defects = schedule_propagators(h0[None], np.diagonal(h1)[None], [schedule], parity_blocks(spec), dt)
    if defects[0] > SCHEDULE_UNITARITY_TOL:
        raise UnitarityError(f"unitarity defect {defects[0]:.3e} exceeds {SCHEDULE_UNITARITY_TOL:g}")
    steps = sum(1 if seg.is_constant else math.ceil(seg.duration / dt) for seg in schedule.segments)
    return PropagationResult(u[0], schedule.total_time, float(defects[0]), steps)
