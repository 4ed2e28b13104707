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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dispersive import effective_couplings
from .evolution import (
    DEFAULT_DT,
    SCHEDULE_UNITARITY_TOL,
    PulseSchedule,
    UnitarityError,
    schedule_columns,
    square_schedule,
)

# Not used here: bench/layers.py patches this name when tracing (--trace 1).
from .evolution import propagate_schedule  # noqa: F401
from .hamiltonians import (
    DirectSystemSpec,
    IndirectSystemSpec,
    computational_indices,
    hamiltonian_parts_stack,
    parity_blocks,
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
        return {
            "fidelity": self.fidelity,
            "theta_a": self.theta_a,
            "theta_b": self.theta_b,
            "theta_global": self.theta_global,
            "leakage": self.leakage,
            "projected_block": {
                "real": self.projected_block.real.tolist(),
                "imag": self.projected_block.imag.tolist(),
            },
        }


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


#: Per truncation: the parity blocks, and per block the block-local indices of
#: the computational states it holds and their places among |00> ... |11>, as
#: a (row, column) index pair into M.
_COMPUTATIONAL_COLUMNS: dict[tuple, tuple] = {}


def _computational_columns(spec: DirectSystemSpec | IndirectSystemSpec):
    """``(blocks, columns, places)`` of ``spec``'s truncation, built once per truncation, as ``parity_blocks`` is."""
    key = spec.qubit_a.n_levels, spec.qubit_b.n_levels, getattr(spec, "n_photons", None)
    if key not in _COMPUTATIONAL_COLUMNS:
        blocks, states = parity_blocks(spec), np.array(computational_indices(spec))
        places = [np.flatnonzero(np.isin(states, ix)) for ix in blocks]
        columns = [np.searchsorted(ix, states[at]) for ix, at in zip(blocks, places)]
        _COMPUTATIONAL_COLUMNS[key] = blocks, columns, [(at[:, None], at) for at in places]
    return _COMPUTATIONAL_COLUMNS[key]


def computational_blocks(specs, schedules, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """4x4 computational blocks M (n, 4, 4) of a stack of points over their schedules, and each point's unitarity defect.

    The ``specs`` share one kind and truncation, and the ``schedules`` one
    shape (``evolution.schedule_columns``).  Only the columns of the
    computational states are propagated, each in its parity block, and the
    defect is taken over them; M is read off those columns, with exact zeros
    between the parities.  Point k's block and defect are those of the stack
    of its point alone, bit for bit.
    """
    blocks, columns, places = _computational_columns(specs[0])
    xs, defects = schedule_columns(*hamiltonian_parts_stack(specs), schedules, blocks, columns, dt)
    m = np.zeros((len(specs), 4, 4), dtype=complex)
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
    """Row-wise products of coefficient rows (lowest power first) x (..., a) and y (..., b)."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + y.shape[-1] - 1,), dtype=complex)
    for k in range(y.shape[-1]):
        out[..., k : k + x.shape[-1]] += x * y[..., k : k + 1]
    return out


def _tan_basis() -> np.ndarray:
    """(14, 7) real rows taking a row [Re c, Im c] of C's coefficients to R's, lowest power first.

    R(t) = sum_j c_j (1 + it)^j (1 - it)^(6-j); the coefficient of t^k in
    (1 + it)^j (1 - it)^(6-j) is i^k times an integer, so the real part of
    c_j times it involves Re c_j for even k and Im c_j for odd k only.
    """
    basis = np.zeros((7, 7), dtype=complex)
    for j in range(7):
        for a in range(j + 1):
            for b in range(7 - j):
                basis[j, a + b] += math.comb(j, a) * math.comb(6 - j, b) * 1j**a * (-1j) ** b
    return np.concatenate([basis.real, -basis.imag])


_TAN_BASIS = _tan_basis()


def _tan_polynomial(condition: np.ndarray) -> np.ndarray:
    """R's real coefficients (n, 7), lowest power first, of each row of C's (n, 7).

    Formed element-wise per row, so that a row of a stack rounds as the row
    alone does.
    """
    x = np.concatenate([condition.real, condition.imag], axis=1)
    return (x[:, :, None] * _TAN_BASIS).sum(axis=1)


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


def _condition_roots(condition: np.ndarray) -> np.ndarray:
    """Roots t of R for each row of C's degree-6 coefficients (n, 7), sorted as ``polyroots`` sorts them.

    Rows of degree 6 are solved together, and no row's roots depend on the
    rest of the stack.  R's degree drops by one for each root of C at
    z = -1: a row of degree d < 6 is solved alone, and its last 6 - d slots
    hold t = inf, whose candidate is theta_a = pi/2.  A row that vanishes
    has no roots; its slots hold 0, whose candidate theta_a = 0 repeats the
    first candidate and so can never win a tie against it.
    """
    r = _tan_polynomial(condition)
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
    # z^2 Im(p_j z)^2 and z |S_(3-j)|^2 as coefficient rows, lowest power
    # first, for j = 1, 2; the condition is the difference of their products.
    im2 = np.zeros((n, 2, 5), dtype=complex)
    im2[..., 0] = -p.conj() ** 2 / 4
    im2[..., 2] = np.abs(p) ** 2 / 2
    im2[..., 4] = -(p**2) / 4
    mod2 = np.empty((n, 2, 3), dtype=complex)
    mod2[..., 0] = p[:, ::-1].conj() / 2
    mod2[..., 1] = u2[:, 1::-1] + u2[:, :1:-1]
    mod2[..., 2] = p[:, ::-1] / 2
    products = _polymul(im2, mod2)
    roots = _condition_roots(products[:, 0] - products[:, 1])
    # theta_a = arg(z)/2 = (arg(1 + it) - arg(1 - it))/2 for each root t,
    # taken from t's parts so that t = inf gives pi/2.
    re, im = roots.real, roots.imag
    candidates = np.zeros((n, 9))
    np.divide(np.arctan2(re, 1 - im) - np.arctan2(-re, 1 + im), 2, out=candidates[:, 1:7])
    np.divide(-np.arctan2(p.imag, p.real), 2, out=candidates[:, 7:])
    values = np.abs(_pair_sums(w, candidates)).sum(axis=2)
    best = np.argmax(values, axis=1)
    rows = np.arange(n)

    theta_a = _principal(candidates[rows, best], np.pi)
    sums = _pair_sums(w, theta_a[:, None])[:, 0]
    alpha, beta = -np.arctan2(sums.imag, sums.real).T
    theta_b = _principal((alpha - beta) / 2, np.pi)
    theta = _principal(alpha - theta_b, 2 * np.pi)
    fidelity = 1.0 - (4.0 + norm2) / 16.0 + values[rows, best] / 8.0
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
    Im(p_1 z)^2 |S_2|^2 = Im(p_2 z)^2 |S_1|^2, a degree-6 polynomial C(z).
    C is self-inversive: z^-3 C(z) is real on |z| = 1.  So with
    z = (1 + it)/(1 - it), that is t = tan theta_a,
    R(t) = (1 - it)^6 C(z) = sum_j c_j (1 + it)^j (1 - it)^(6-j) is a real
    polynomial whose roots map one to one onto C's: the real ones onto
    the unit circle, and each root z = -1 (theta_a = pi/2) onto a drop in
    R's degree, counted as a root t = inf.  The candidates for theta_a are,
    in this order: 0, (arg(1 + it) - arg(1 - it))/2 for each root t of R,
    and the single-term maxima -arg(p_1)/2 and -arg(p_2)/2.  The last two
    are needed where the condition vanishes identically, as when both terms
    peak at the same angle (m a compensated multiple of the target).  Ties
    go to the first candidate, so the exact target and the zero block give
    phases (0, 0, 0).

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
    the effective one (g_eff_3 for iSWAP, g_eff_1 for CZ).
    """
    if isinstance(spec, IndirectSystemSpec):
        c = effective_couplings(spec)
        coupling = c.g_eff_3 if target.kind == "iswap" else c.g_eff_1
    else:
        coupling = spec.g
    if coupling <= 0:
        raise ValueError(f"gate time is undefined for coupling {coupling!r}")
    if target.kind == "iswap":
        return 1.0 / (4.0 * coupling)
    return 1.0 / (2.0 * np.sqrt(2.0) * coupling)


def resonance_violation(spec, target: GateTarget) -> str | None:
    """The warning a run of ``target`` on ``spec`` gives for a missed resonance, or None."""
    wa, wb = spec.qubit_a.freq, spec.qubit_b.freq
    if target.kind == "iswap":
        miss = abs(wa - wb)
        condition = "freq_a = freq_b"
    else:
        miss = abs(wb - (wa + spec.qubit_b.anharm))
        condition = "freq_b = freq_a + anharm_b"
    if miss > 1e-9:
        return f"{target.kind} resonance condition {condition} is violated by {miss:.3e} GHz"
    return None


def run_gate(
    spec: DirectSystemSpec | IndirectSystemSpec,
    target: GateTarget,
    schedule: PulseSchedule | None = None,
    dt: float = DEFAULT_DT,
) -> GateResult:
    """Propagate and score one gate.

    With ``schedule=None`` a square pulse of the resonant gate duration is
    used.  The computational block is propagated as a sweep propagates it
    (``computational_blocks``), and a unitarity defect above
    ``SCHEDULE_UNITARITY_TOL`` raises ``UnitarityError``, as
    ``propagate_schedule`` does.  A violated resonance condition only
    warns: deliberately detuned runs are legitimate sensitivity studies.
    """
    message = resonance_violation(spec, target)
    if message:
        warnings.warn(message, stacklevel=2)
    if schedule is None:
        schedule = square_schedule(gate_time(spec, target))
    (block,), (defect,) = computational_blocks([spec], [schedule], dt)
    if defect > SCHEDULE_UNITARITY_TOL:
        raise UnitarityError(f"unitarity defect {defect:.3e} exceeds {SCHEDULE_UNITARITY_TOL:g}")
    return gate_fidelity(block, target)
