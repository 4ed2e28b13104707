"""Gate targets, computational-subspace projection and the fidelity metric.

The figure of merit is the squared Frobenius distance between the target and
the projected propagator, F = 1 - ||U_target - D M||_F^2 / 16, where M is the
4x4 computational block of the full propagator and D is a diagonal phase
compensation built from single-qubit Z rotations and a global phase:

    D(theta_a, theta_b, theta) = e^{i theta} diag(
        e^{i(theta_a + theta_b)}, e^{i(theta_a - theta_b)},
        e^{i(-theta_a + theta_b)}, e^{i(-theta_a - theta_b)})

in the basis |00>, |01>, |10>, |11>.  The reported fidelity is the maximum
over the three phases (Pedersen, Moller & Molmer, Phys. Lett. A 367, 47
(2007)), and it reduces exactly to a problem in theta_a alone.  With
w_k = sum_j M_kj conj(U_kj), alpha = theta + theta_b and
beta = theta - theta_b,

    F = 1 - (4 + ||M||^2)/16 + max over theta_a of (|S_1| + |S_2|) / 8,
    S_1 = w_0 e^{i theta_a} + w_2 e^{-i theta_a},
    S_2 = w_1 e^{i theta_a} + w_3 e^{-i theta_a},

with alpha and beta the negative arguments of S_1 and S_2.  ``gate_fidelity``
solves the one-angle problem through the roots of a real degree-6 polynomial
in t = tan theta_a, with no search.  ``score_blocks`` does the same for a
stack of blocks at once, with one real eigenvalue call for all their
polynomials; ``gate_fidelity`` is its one-block case.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .dispersive import effective_couplings
from .evolution import (
    DEFAULT_DT,
    SCHEDULE_UNITARITY_TOL,
    PulseSchedule,
    UnitarityError,
    schedule_segments,
    segment_columns,
    square_schedule,
)

# Not used here: bench/layers.py patches this name when tracing (--trace 1).
from .evolution import propagate_schedule  # noqa: F401
from .hamiltonians import (
    DirectSystemSpec,
    IndirectSystemSpec,
    _computational_indices,
    _parity_blocks,
    computational_indices,
    hamiltonian_parts_rows,
    parameter_rows,
)

__all__ = [
    "GateTarget",
    "GateResult",
    "ISWAP",
    "CZ",
    "gate_target",
    "phase_diagonal",
    "project_computational",
    "gate_fidelity",
    "gate_time",
    "run_gate",
]


@dataclass(frozen=True, eq=False)
class GateTarget:
    """A named two-qubit target unitary in the computational basis."""

    kind: str
    matrix: np.ndarray


ISWAP = GateTarget(
    "iswap",
    np.array(
        [
            [1, 0, 0, 0],
            [0, 0, -1j, 0],
            [0, -1j, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    ),
)

CZ = GateTarget("cz", np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex))

_TARGETS = {"iswap": ISWAP, "cz": CZ}


def gate_target(kind: str) -> GateTarget:
    try:
        return _TARGETS[kind.lower()]
    except KeyError:
        raise ValueError(f"unknown gate kind {kind!r}; expected one of {sorted(_TARGETS)}") from None


@dataclass(frozen=True)
class GateResult:
    """Fidelity of one gate run, with the optimal compensation phases.

    ``projected_block`` is the raw (uncompensated) 4x4 computational block;
    ``leakage`` is the population lost from the computational subspace,
    1 - tr(M^dag M)/4.  ``theta_a`` and ``theta_b`` are reported in [0, pi)
    and ``theta_global`` in [0, 2pi).
    """

    fidelity: float
    theta_a: float
    theta_b: float
    theta_global: float
    projected_block: np.ndarray
    leakage: float

    def as_dict(self) -> dict:
        """Each field by its name, in field order; the block, its one array, as its ``real`` and ``imag`` parts in nested lists."""
        found = {}
        for f in fields(self):
            v = getattr(self, f.name)
            found[f.name] = {"real": v.real.tolist(), "imag": v.imag.tolist()} if isinstance(v, np.ndarray) else v
        return found


_TINY = np.finfo(float).tiny

# Signs of theta_a and theta_b in the four diagonal entries of D.
_SIGN_A = np.array([1.0, 1.0, -1.0, -1.0])
_SIGN_B = np.array([1.0, -1.0, 1.0, -1.0])


def phase_diagonal(theta_a: float, theta_b: float, theta_global: float) -> np.ndarray:
    """The compensation matrix D as a dense 4x4 diagonal."""
    return np.diag(np.exp(1j * (theta_global + _SIGN_A * theta_a + _SIGN_B * theta_b)))


def project_computational(
    u: np.ndarray, spec: DirectSystemSpec | IndirectSystemSpec
) -> np.ndarray:
    """4x4 computational block of a full-space propagator, or of each in a stack.

    ``u`` is (dim, dim) or (n, dim, dim).  Rows and columns are ordered
    |00>, |01>, |10>, |11>; for cavity-coupled systems the computational
    states carry the cavity vacuum.
    """
    u = np.asarray(u)
    if u.ndim not in (2, 3) or u.shape[-2:] != (spec.dim, spec.dim):
        raise ValueError(f"propagator shape {u.shape} does not match system dimension {spec.dim}")
    ix = np.array(computational_indices(spec))
    return np.ascontiguousarray(u[..., ix[:, None], ix], dtype=complex)


@functools.cache
def _computational_columns(sizes: tuple[int, ...]):
    """``(blocks, columns, places)`` of truncation ``sizes``, built once per truncation, as ``parity_blocks`` is.

    ``blocks`` are the parity blocks, and per block ``columns`` holds the
    block-local indices of the computational states it holds and ``places``
    their places among |00> ... |11>, as a (row, column) index pair into M.
    """
    blocks, states = _parity_blocks(sizes), np.array(_computational_indices(sizes))
    places = [np.flatnonzero(np.isin(states, ix)) for ix in blocks]
    columns = [np.searchsorted(ix, states[at]) for ix, at in zip(blocks, places)]
    return blocks, columns, [(at[:, None], at) for at in places]


def stack_blocks(sizes: tuple[int, ...], rows: np.ndarray, scales, durations: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """4x4 computational blocks M (n, 4, 4) of a stack of points, and each point's unitarity defect.

    The points are systems of truncation ``sizes`` and parameter ``rows``
    (``hamiltonians.parameter_rows``), each over segments of the shared
    (start, end) ``scales`` and its own row of ``durations``
    (``evolution.segment_columns``).  Only the columns of the computational
    states are propagated, each in its parity block, and the defect is
    taken over them; M is read off those columns, with exact zeros between
    the parities.  Point k's block and defect are those of the stack of its
    point alone, bit for bit.
    """
    blocks, columns, places = _computational_columns(sizes)
    xs, defects = segment_columns(*hamiltonian_parts_rows(sizes, rows), scales, durations, blocks, columns, dt)
    m = np.zeros((len(rows), 4, 4), dtype=complex)
    for x, cols, at in zip(xs, columns, places):
        m[:, at[0], at[1]] = x[:, cols, :]
    return m, defects


def _principal(x: np.ndarray, period: float) -> np.ndarray:
    """``x`` reduced to [0, period); the float modulo can round up to ``period``."""
    x = np.mod(x, period)
    return np.where(x < period, x, 0.0)


def _pair_sums(w: np.ndarray, theta_a: np.ndarray) -> np.ndarray:
    """(S_1, S_2) along a new last axis, for rows ``w`` (n, 4) and angles (n, k)."""
    e = np.exp(1j * theta_a)[..., None]
    return w[:, None, :2] * e + w[:, None, 2:] / e


def _polymul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise products of coefficient rows (lowest power first) x (..., a) and y (..., b).

    Formed element-wise per row, so that a row of a stack rounds as the row
    alone does.
    """
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + y.shape[-1] - 1,), dtype=np.result_type(x, y))
    for k in range(y.shape[-1]):
        out[..., k : k + x.shape[-1]] += x * y[..., k : k + 1]
    return out


def _companion_roots(c: np.ndarray) -> np.ndarray:
    """Roots of each row of real coefficients ``c`` (k, d + 1), lowest power first and the last nonzero, sorted as ``polyroots`` sorts them.

    One ``eigvals`` on the stack of the rows' companion matrices, built as
    ``polycompanion`` builds them.
    """
    k, d = c.shape[0], c.shape[1] - 1
    companion = np.zeros((k, d, d))
    companion.reshape(k, d * d)[:, d :: d + 1] = 1.0  # the subdiagonal
    companion[:, :, -1] -= c[:, :-1] / c[:, -1:]
    return np.sort(np.linalg.eigvals(companion), axis=1)


def _condition_roots(r: np.ndarray) -> np.ndarray:
    """Roots t of each row of R's real coefficients (n, 7), lowest power first, sorted as ``polyroots`` sorts them.

    Rows of degree 6 are solved together, and no row's roots depend on the
    rest of the stack.  R's degree drops by one for each root of the
    condition at theta_a = pi/2, where t is infinite (``gate_fidelity``):
    a row of degree d < 6 is solved alone, and its last 6 - d slots hold
    t = inf, whose candidate is theta_a = pi/2.  A row that vanishes has no
    roots; its slots hold 0, whose candidate theta_a = 0 repeats the first
    candidate and so can never win a tie against it.
    """
    full = r[:, 6] != 0
    if full.all():
        return _companion_roots(r)
    roots = np.zeros((len(r), 6), dtype=complex)
    roots[full] = _companion_roots(r[full])
    for i in np.flatnonzero(~full):
        nonzero = np.flatnonzero(r[i])
        if nonzero.size:
            d = nonzero[-1]
            roots[i, d:] = np.inf
            if d:
                roots[i, :d] = _companion_roots(r[i : i + 1, : d + 1])[0]
    return roots


def _newton_step(w: np.ndarray, theta_a: np.ndarray, moduli: np.ndarray, value: np.ndarray):
    """Each theta_a (n,) after one guarded Newton step on d(|S_1| + |S_2|)/d theta_a = 0, and |S_1| + |S_2| there.

    ``moduli`` (n, 2) are |S_1| and |S_2| at theta_a and ``value`` their
    sum.  With z = e^{2i theta_a} and p_1, p_2 as in ``gate_fidelity``, the
    slope is f' = -sum_j Im(p_j z) / |S_j| and the curvature
    f'' = -sum_j (2 Re(p_j z) / |S_j| + Im(p_j z)^2 / |S_j|^3).  The step
    -f'/f'' is kept only where |step| <= 1e-6 (so it is finite), f'' < 0 and
    the sum does not drop.  It takes theta_a from a root of R, which is good
    to about 1e-13 only where R's two products nearly cancel, to round-off.
    """
    pz = 2 * w[:, :2] * w[:, 2:].conj() * np.exp(2j * theta_a)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = pz.imag / moduli
        curvature = -((2 * pz.real + slopes**2) / moduli).sum(axis=1)
        step = slopes.sum(axis=1) / curvature
        moved = theta_a + step
        at_moved = np.abs(_pair_sums(w, moved[:, None])[:, 0]).sum(axis=1)
        taken = (np.abs(step) <= 1e-6) & (curvature < 0) & (at_moved >= value)
    return np.where(taken, moved, theta_a), np.where(taken, at_moved, value)


def score_blocks(m: np.ndarray, target: GateTarget) -> tuple[np.ndarray, ...]:
    """Phase-optimized fidelity of each 4x4 block of ``m`` (n, 4, 4) against ``target``.

    Returns the arrays (fidelity, theta_a, theta_b, theta_global, leakage),
    one entry per block, with the meaning and canonical phase ranges of
    ``gate_fidelity``, which is the case n = 1.  Each row is solved as
    described there; the rows share the array operations and one stacked
    real eigenvalue call, and no row's result depends on another's.
    """
    # The row sums below add in memory order: C order makes a block of a
    # stack add in the same order as the block alone.
    m = np.ascontiguousarray(m, dtype=complex)
    n = len(m)
    # Row-wise overlaps with the target: F depends on the phases only through
    # Re sum_k d_k w_k, since ||U_T - D M||^2 = 4 + ||M||^2 - 2 Re tr(U_T^dag D M).
    w = (m * target.matrix.conj()).sum(axis=2)
    norm2 = (np.abs(m) ** 2).reshape(n, 16).sum(axis=1)

    # The argmax does not depend on the scale of w, nor, to round-off, on
    # entries below 1e-50 of the largest; dropping those keeps the cubic
    # coefficients below from under- or overflowing in the root finder.
    u = w / np.maximum(np.abs(w).max(axis=1, keepdims=True), _TINY)
    u[np.abs(u) < 1e-50] = 0.0
    p = 2 * u[:, :2] * u[:, 2:].conj()
    u2 = np.abs(u) ** 2
    a = u2[:, :2] + u2[:, 2:]
    # q_j and m_(3-j) as coefficient rows in t, lowest power first, for
    # j = 1, 2 (``gate_fidelity``); R is the difference of q_j^2 m_(3-j).
    q, m = np.empty((2, n, 2, 3))
    q[..., 0] = p.imag
    q[..., 1] = 2 * p.real
    q[..., 2] = -p.imag
    m[..., 0] = (a + p.real)[:, ::-1]
    m[..., 1] = -2 * p.imag[:, ::-1]
    m[..., 2] = (a - p.real)[:, ::-1]
    products = _polymul(_polymul(q, q), m)
    roots = _condition_roots(products[:, 0] - products[:, 1])
    # theta_a = arg(z)/2 = (arg(1 + it) - arg(1 - it))/2 for each root t,
    # taken from t's parts so that t = inf gives pi/2.
    re, im = roots.real, roots.imag
    candidates = np.zeros((n, 9))
    np.divide(np.arctan2(re, 1 - im) - np.arctan2(-re, 1 + im), 2, out=candidates[:, 1:7])
    np.divide(-np.arctan2(p.imag, p.real), 2, out=candidates[:, 7:])
    moduli = np.abs(_pair_sums(w, candidates))
    values = moduli.sum(axis=2)
    best = np.argmax(values, axis=1)
    rows = np.arange(n)
    theta_a, value = _newton_step(w, candidates[rows, best], moduli[rows, best], values[rows, best])

    theta_a = _principal(theta_a, np.pi)
    sums = _pair_sums(w, theta_a[:, None])[:, 0]
    alpha, beta = -np.arctan2(sums.imag, sums.real).T
    theta_b = _principal((alpha - beta) / 2, np.pi)
    theta = _principal(alpha - theta_b, 2 * np.pi)
    fidelity = 1.0 - (4.0 + norm2) / 16.0 + value / 8.0
    leakage = np.fmin(1.0, np.fmax(0.0, 1.0 - norm2 / 4.0))  # guard float round-off
    return fidelity, theta_a, theta_b, theta, leakage


def gate_fidelity(m: np.ndarray, target: GateTarget) -> GateResult:
    """Phase-optimized fidelity of a projected block against ``target``.

    ``m`` must be a 4x4 contraction (singular values at most 1 up to
    round-off), as produced by projecting a unitary.

    The maximum over theta_a of |S_1| + |S_2| (module docstring) is found
    exactly.  With z = e^{2i theta_a}, p_1 = 2 w_0 conj(w_2),
    p_2 = 2 w_1 conj(w_3), a_1 = |w_0|^2 + |w_2|^2 and
    a_2 = |w_1|^2 + |w_3|^2, |S_j|^2 = a_j + Re(p_j z).  Every maximum
    is a root of the squared stationarity condition
    Im(p_1 z)^2 |S_2|^2 = Im(p_2 z)^2 |S_1|^2.  With t = tan theta_a,
    z = (1 + it)^2 / (1 + t^2), and with coefficient rows lowest power
    first,
    (1 + t^2)^2 Im(p_j z)^2 = q_j(t)^2, q_j = [Im p_j, 2 Re p_j, -Im p_j],
    (1 + t^2) |S_j|^2 = m_j(t), m_j = [a_j + Re p_j, -2 Im p_j, a_j - Re p_j].
    Multiplied by (1 + t^2)^3, the condition becomes the real polynomial
    R = q_1^2 m_2 - q_2^2 m_1 of degree at most 6, formed in real
    arithmetic.  Its real roots are the condition's roots other than
    theta_a = pi/2, and each root at theta_a = pi/2, where t is infinite,
    drops R's degree by one, counted as a root t = inf.  The candidates for
    theta_a are, in this order: 0, (arg(1 + it) - arg(1 - it))/2 for each
    root t of R, and the single-term maxima -arg(p_1)/2 and -arg(p_2)/2.
    The last two are needed where the condition vanishes identically, as
    when both terms peak at the same angle (m a compensated multiple of the
    target).  Ties go to the first candidate, so the exact target and the
    zero block give phases (0, 0, 0).  Where R's two products nearly cancel,
    its roots give theta_a to about 1e-13 only, so the winner takes one
    guarded Newton step on the unsquared condition (``_newton_step``), which
    brings it to round-off.

    Phases are reported in a canonical form: theta_a and theta_b in [0, pi),
    theta_global in [0, 2pi).  Nothing is lost, since shifting theta_a or
    theta_b by pi together with theta_global by pi leaves D unchanged.

    This is the one-block case of ``score_blocks``.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 block, got shape {m.shape}")
    fidelity, theta_a, theta_b, theta, leakage = (x.item() for x in score_blocks(m[None], target))
    return GateResult(fidelity, theta_a, theta_b, theta, m.copy(), leakage)


def gate_time(spec: DirectSystemSpec | IndirectSystemSpec, target: GateTarget) -> float:
    """Gate duration in ns from the resonance conditions.

    An iSWAP completes half an exchange cycle on |01><10|, so t = 1/(4 g);
    a CZ completes a full circulation through the second excited state, so
    t = 1/(2 sqrt(2) g).  For cavity-coupled systems the relevant coupling is
    the effective one (``gate_coupling``).
    """
    if isinstance(spec, IndirectSystemSpec):
        c = effective_couplings(spec)
        coupling = gate_coupling(target, c.g_eff_1, c.g_eff_3)
    else:
        coupling = spec.g
    if coupling <= 0:
        raise ValueError(f"gate time is undefined for coupling {coupling!r}")
    return resonant_time(coupling, target)


def gate_coupling(target: GateTarget, g_eff_1, g_eff_3):
    """The effective coupling that sets ``target``'s gate time on a cavity pair: g_eff_3 (|01><10|) for iSWAP, g_eff_1 (|02><11|) for CZ."""
    return g_eff_3 if target.kind == "iswap" else g_eff_1


def resonant_time(coupling, target: GateTarget):
    """``gate_time`` at gate coupling ``coupling``, a float or an array, unchecked."""
    if target.kind == "iswap":
        return 1.0 / (4.0 * coupling)
    return 1.0 / (2.0 * np.sqrt(2.0) * coupling)


def resonance_violation(rows: np.ndarray, target: GateTarget) -> str | None:
    """The warning that a run of ``target`` gives for the first of parameter ``rows`` (``hamiltonians.parameter_rows``) that misses its resonance, or None."""
    freq_a, freq_b, _, anharm_b = rows[:, :4].T
    if target.kind == "iswap":
        misses = np.abs(freq_a - freq_b)
        condition = "freq_a = freq_b"
    else:
        misses = np.abs(freq_b - (freq_a + anharm_b))
        condition = "freq_b = freq_a + anharm_b"
    missed = misses[misses > 1e-9]
    if missed.size:
        return f"{target.kind} resonance condition {condition} is violated by {missed[0]:.3e} GHz"
    return None


def run_gate(
    spec: DirectSystemSpec | IndirectSystemSpec,
    target: GateTarget,
    schedule: PulseSchedule | None = None,
    dt: float = DEFAULT_DT,
) -> GateResult:
    """Propagate and score one gate.

    With ``schedule=None`` a square pulse of the resonant gate duration is
    used.  The computational block is propagated as a sweep propagates it,
    as a stack of one point (``stack_blocks``), and a unitarity defect above
    ``SCHEDULE_UNITARITY_TOL`` raises ``UnitarityError``, as
    ``propagate_schedule`` does.  A violated resonance condition only
    warns: deliberately detuned runs are legitimate sensitivity studies.
    """
    rows = parameter_rows([spec])
    message = resonance_violation(rows, target)
    if message:
        warnings.warn(message, stacklevel=2)
    if schedule is None:
        schedule = square_schedule(gate_time(spec, target))
    (block,), (defect,) = stack_blocks(spec.sizes, rows, *schedule_segments([schedule]), dt)
    if defect > SCHEDULE_UNITARITY_TOL:
        raise UnitarityError(f"unitarity defect {defect:.3e} exceeds {SCHEDULE_UNITARITY_TOL:g}")
    return gate_fidelity(block, target)
