"""Reference computations for the benchmark's correctness checks.

Nothing here imports ``scgates``.  Systems are the plain config dicts the CLI
reads, and everything is rebuilt from the documented model:

* level ``n`` of a qubit sits at ``n*freq - anharm*n*(n-1)/2`` GHz;
* a direct pair couples through ``g (a + a^dag)(b + b^dag)`` with the full
  ladder matrix elements ``<n-1|x|n> = sqrt(n)``, counter-rotating terms kept;
  a cavity pair couples each qubit to the cavity the same way with ``g_qc``;
* basis order is qubit A, qubit B, cavity; computational states carry the
  cavity vacuum;
* gate times are ``1/(4 g)`` for iSWAP and ``1/(2 sqrt(2) g)`` for CZ, with
  the second-order couplings of the cavity pair for indirect systems;
* sweep axes follow the semantics in the ``scgates.sweeps`` module docstring;
* a ramp scales qubit B's ``n*freq`` term linearly from 1.1 to 1 over
  ``tau_d``, holds for the square-pulse gate time, and ramps back.

Constant segments are propagated with ``scipy.linalg.expm``; ramps use a
fourth-order commutator-free Magnus step (Blanes & Moan, Appl. Numer. Math.
56, 1519 (2006)).  The phase-compensated fidelity is maximised through its
exact reduction to a single angle, polished by a bounded scalar search.
"""

from __future__ import annotations

import copy
import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

TWOPI = 2.0 * math.pi
PARK_SCALE = 1.1
RAMP_STEP_NS = 0.01

TARGETS = {
    "iswap": np.array(
        [[1, 0, 0, 0], [0, 0, -1j, 0], [0, -1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    "cz": np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
}

# Signs of theta_a and theta_b in the compensation diag(e^{i(theta + sa*theta_a + sb*theta_b)}).
_SIGN_A = np.array([1.0, 1.0, -1.0, -1.0])
_SIGN_B = np.array([1.0, -1.0, 1.0, -1.0])
_ANGLE_GRID = np.arange(1024) * (math.pi / 1024)  # the one-angle objective has period pi


# --------------------------------------------------------------------------
# systems


def _n_levels(qubit: dict) -> int:
    return int(qubit.get("n_levels", 3))


def _ladder(freq: float, anharm: float, n: int) -> np.ndarray:
    k = np.arange(n, dtype=float)
    return k * freq - anharm * k * (k - 1) / 2.0


def _x(n: int) -> np.ndarray:
    off = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    return off + off.T


def hamiltonian(system: dict) -> tuple[np.ndarray, np.ndarray]:
    """(h_rest, h_b) in rad/ns, with h_b qubit B's ``n*freq`` term, the part a ramp scales."""
    qa, qb = system["qubit_a"], system["qubit_b"]
    na, nb = _n_levels(qa), _n_levels(qb)
    nc = int(system.get("n_photons", 5)) if system["kind"] == "indirect" else 1
    ia, ib, ic = np.eye(na), np.eye(nb), np.eye(nc)

    def embed(a, b, c):
        return np.kron(np.kron(a, b), c)

    rest = embed(np.diag(_ladder(qa["freq"], qa["anharm"], na)), ib, ic)
    rest = rest + embed(ia, np.diag(_ladder(0.0, qb["anharm"], nb)), ic)
    h_b = embed(ia, np.diag(np.arange(nb) * qb["freq"]), ic)
    if system["kind"] == "direct":
        rest = rest + system["g"] * embed(_x(na), _x(nb), ic)
    else:
        rest = rest + embed(ia, ib, np.diag(np.arange(nc) * system["cavity_freq"]))
        rest = rest + system["g_qc"] * (embed(_x(na), ib, _x(nc)) + embed(ia, _x(nb), _x(nc)))
    return TWOPI * rest, TWOPI * h_b


def computational_indices(system: dict) -> list[int]:
    """Indices of |00>, |01>, |10>, |11> (cavity in vacuum)."""
    nb = _n_levels(system["qubit_b"])
    nc = int(system.get("n_photons", 5)) if system["kind"] == "indirect" else 1
    return [(a * nb + b) * nc for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))]


def effective_coupling(system: dict, gate: str) -> float:
    """Second-order exchange coupling of a cavity pair (GHz).

    CZ uses the |02>-|11> coupling g^2/2 (1/(D_b - anharm_b) + 1/D_a), iSWAP
    the |01>-|10> coupling g^2/2 (1/D_a + 1/D_b), with D_j = freq_j - cavity.
    """
    qa, qb = system["qubit_a"], system["qubit_b"]
    d_a = qa["freq"] - system["cavity_freq"]
    d_b = qb["freq"] - system["cavity_freq"]
    g2 = system["g_qc"] ** 2
    if gate == "cz":
        return g2 / 2.0 * (1.0 / (d_b - qb["anharm"]) + 1.0 / d_a)
    return g2 / 2.0 * (1.0 / d_a + 1.0 / d_b)


def gate_time(system: dict, gate: str) -> float:
    g = system["g"] if system["kind"] == "direct" else effective_coupling(system, gate)
    return 1.0 / (4.0 * g) if gate == "iswap" else 1.0 / (2.0 * math.sqrt(2.0) * g)


def point_system(config: dict, values: dict, n_levels: int | None = None) -> dict:
    """System at one sweep point of ``config``, ``values`` keyed by axis name."""
    base = config["system"]
    system = copy.deepcopy(base)
    qa, qb = system["qubit_a"], system["qubit_b"]
    indirect = base["kind"] == "indirect"
    base_g = effective_coupling(base, "cz") if indirect else base["g"]

    b_changed = False
    if "delta_b_abs" in values:
        qb["anharm"], b_changed = values["delta_b_abs"], True
    if "delta_b_over_g" in values:
        qb["anharm"], b_changed = values["delta_b_over_g"] * base_g, True
    if "delta_a_over_g" in values:
        qa["anharm"] = values["delta_a_over_g"] * base_g
    if config.get("tie_anharm") and b_changed:
        qa["anharm"] = qb["anharm"]
    if b_changed and config["gate"] == "cz":
        qb["freq"] = qa["freq"] + qb["anharm"]

    if indirect:
        geff = values.get("geff_abs")
        if "geff_over_delta_b" in values:
            geff = values["geff_over_delta_b"] * qb["anharm"]
        if geff is not None:
            system["g_qc"] = math.sqrt(geff * (qa["freq"] - base["cavity_freq"]))
    elif "g_over_delta_b" in values:
        system["g"] = values["g_over_delta_b"] * qb["anharm"]
    elif "g_abs" in values:
        system["g"] = values["g_abs"]
    if n_levels is not None:
        qa["n_levels"] = qb["n_levels"] = n_levels
    return system


# --------------------------------------------------------------------------
# propagation


def cf4_ramp(h_rest, h_b, s_start, s_end, duration, step=RAMP_STEP_NS) -> np.ndarray:
    """Propagator of h_rest + s(t) h_b with s linear from s_start to s_end.

    Each step of length h applies exp(-ih(c2 H1 + c1 H2)) then
    exp(-ih(c1 H1 + c2 H2)), H1 and H2 taken at the two Gauss points and
    c1,2 = 1/4 -+ sqrt(3)/6.
    """
    n = math.ceil(duration / step)
    h = duration / n
    k = np.arange(n)[:, None, None]
    gauss = math.sqrt(3.0) / 6.0
    s1 = s_start + (s_end - s_start) * (k + 0.5 - gauss) / n
    s2 = s_start + (s_end - s_start) * (k + 0.5 + gauss) / n
    c1, c2 = 0.25 - gauss, 0.25 + gauss
    first = expm(-1j * h * (0.5 * h_rest + (c2 * s1 + c1 * s2) * h_b))
    second = expm(-1j * h * (0.5 * h_rest + (c1 * s1 + c2 * s2) * h_b))
    u = np.eye(h_rest.shape[0], dtype=complex)
    for e1, e2 in zip(first, second):
        u = e2 @ (e1 @ u)
    return u


def gate_block(system: dict, gate: str, tau_d: float = 0.0) -> np.ndarray:
    """4x4 computational block of the gate pulse (square, or trapezoid for tau_d > 0)."""
    h_rest, h_b = hamiltonian(system)
    u = expm(-1j * (h_rest + h_b) * gate_time(system, gate))
    if tau_d > 0:
        down = cf4_ramp(h_rest, h_b, PARK_SCALE, 1.0, tau_d)
        up = cf4_ramp(h_rest, h_b, 1.0, PARK_SCALE, tau_d)
        u = up @ u @ down
    ix = computational_indices(system)
    return u[np.ix_(ix, ix)]


# --------------------------------------------------------------------------
# fidelity


def explicit_fidelity(m: np.ndarray, gate: str, theta_a, theta_b, theta) -> float:
    """1 - ||U_T - D M||_F^2 / 16 with the compensation D built explicitly."""
    d = np.exp(1j * (theta + _SIGN_A * theta_a + _SIGN_B * theta_b))
    return 1.0 - float(np.linalg.norm(TARGETS[gate] - d[:, None] * m) ** 2) / 16.0


def best_fidelity(m: np.ndarray, gate: str) -> float:
    """Maximum of the phase-compensated fidelity over the three phases.

    With w_k = sum_j M_kj conj(U_kj), substituting a = theta + theta_b and
    b = theta - theta_b leaves
    F = 1 - (4 + ||M||^2)/16 + max_x (|w0 e^{ix} + w2 e^{-ix}| + |w1 e^{ix} + w3 e^{-ix}|) / 8,
    x = theta_a.  Each modulus has one peak per period pi, so the sum has at
    most two; every grid peak is polished by a bounded scalar search.
    """
    w = (m * TARGETS[gate].conj()).sum(axis=1)
    base = 1.0 - (4.0 + float((np.abs(m) ** 2).sum())) / 16.0

    def objective(x):
        e = np.exp(1j * x)
        return np.abs(w[0] * e + w[2] / e) + np.abs(w[1] * e + w[3] / e)

    vals = objective(_ANGLE_GRID)
    peaks = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    best = float(vals.max())
    half = _ANGLE_GRID[1]
    for k in peaks:
        x0 = _ANGLE_GRID[k]
        res = minimize_scalar(
            lambda x: -objective(x), bounds=(x0 - half, x0 + half), method="bounded",
            options={"xatol": 1e-13},
        )
        best = max(best, -float(res.fun))
    return base + best / 8.0


def leakage(m: np.ndarray) -> float:
    return 1.0 - float((np.abs(m) ** 2).sum()) / 4.0


def detrended_amplitude(x: np.ndarray, f: np.ndarray, degree: int = 3) -> float:
    residual = f - np.polyval(np.polyfit(x, f, degree), x)
    return float(residual.max() - residual.min())
