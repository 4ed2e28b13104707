"""Dispersive reduction of the cavity-coupled system, plus a reference model.

When both qubits are far detuned from the cavity the photon is only virtually
excited and a Schrieffer-Wolff style second-order transformation turns the
qubit-cavity-qubit chain into an effective qubit-qubit system: each qubit
frequency is dressed by a cavity shift and the four nearest-neighbour ladder
transitions acquire effective exchange couplings proportional to g_qc**2.

``build_rwa_direct_hamiltonian`` plays a similar cross-checking role for the
directly coupled pair: it is the three-level excitation-conserving model that
the full Hamiltonian reduces to once counter-rotating terms are dropped.
Both reduced models exist to be compared dynamically against the full ones.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .hamiltonians import TWOPI, DirectSystemSpec, IndirectSystemSpec

#: Smallest detuning denominator (GHz) for which the second-order couplings
#: are still meaningful; chosen three orders of magnitude below typical
#: qubit-cavity detunings.
MIN_DENOMINATOR = 1e-6


class DispersiveRegimeError(ValueError):
    """A detuning denominator is too small for the dispersive reduction."""


@dataclass(frozen=True)
class EffectiveCouplings:
    """Second-order couplings and dressed frequencies, all linear GHz.

    ``g_eff_1`` couples |02><11|, ``g_eff_2`` couples |20><11|, ``g_eff_3``
    couples |01><10| and ``g_eff_4`` couples |12><21| (numerical prefactors
    sqrt(2), sqrt(2), 1, 2 live in the Hamiltonian, not here).  The dressed
    one- and two-excitation frequencies are stored raw: ``dressed_freq_j2``
    is the full two-photon value ``2*freq_j + 2*g_qc**2/(detuning_j - anharm_j)``.
    """

    g_eff_1: float
    g_eff_2: float
    g_eff_3: float
    g_eff_4: float
    dressed_freq_a1: float
    dressed_freq_b1: float
    dressed_freq_a2: float
    dressed_freq_b2: float
    detuning_a: float
    detuning_b: float

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


def denominators(freq_a, freq_b, anharm_a, anharm_b, cavity_freq) -> dict:
    """The four detuning denominators of the reduction by name, in the order ``effective_couplings`` checks them.

    Each parameter is a float or an array of one entry per system, and so is
    each denominator.
    """
    delta_a = freq_a - cavity_freq
    delta_b = freq_b - cavity_freq
    return {
        "detuning of qubit A": delta_a,
        "detuning of qubit B": delta_b,
        "detuning minus anharmonicity of qubit A": delta_a - anharm_a,
        "detuning minus anharmonicity of qubit B": delta_b - anharm_b,
    }


def exchange_couplings(g2, delta_a, delta_b, anharm_a, anharm_b) -> tuple:
    """``(g_eff_1, g_eff_2, g_eff_3, g_eff_4)`` from g_qc**2 and the qubits' detunings and anharmonicities, floats or arrays alike."""
    return (
        g2 / 2 * (1 / (delta_b - anharm_b) + 1 / delta_a),
        g2 / 2 * (1 / (delta_a - anharm_a) + 1 / delta_b),
        g2 / 2 * (1 / delta_a + 1 / delta_b),
        g2 / 2 * (1 / (delta_a - anharm_a) + 1 / (delta_b - anharm_b)),
    )


def effective_couplings(spec: IndirectSystemSpec) -> EffectiveCouplings:
    """Evaluate the dispersive couplings and dressed frequencies of ``spec``.

    Raises DispersiveRegimeError when any of the four denominators
    ``detuning_j`` or ``detuning_j - anharm_j`` is smaller than
    MIN_DENOMINATOR in magnitude.  ``g_qc**2`` is Python's float power, C
    ``pow``; where it overflows, OverflowError names g_qc and its value.  An
    array taking its place squares with ``np.float_power``, which rounds as
    it does.
    """
    qa, qb = spec.qubit_a, spec.qubit_b
    found = denominators(qa.freq, qb.freq, qa.anharm, qb.anharm, spec.cavity_freq)
    for label, denom in found.items():
        if abs(denom) < MIN_DENOMINATOR:
            raise DispersiveRegimeError(
                f"{label} is {denom:.3e} GHz; dispersive reduction needs "
                f"|denominator| >= {MIN_DENOMINATOR:g} GHz"
            )
    delta_a, delta_b, *_ = found.values()
    try:
        g2 = spec.g_qc**2
    except OverflowError:
        raise OverflowError(f"g_qc**2 overflows a float at g_qc = {spec.g_qc!r} GHz") from None
    return EffectiveCouplings(
        *exchange_couplings(g2, delta_a, delta_b, qa.anharm, qb.anharm),
        dressed_freq_a1=qa.freq + g2 / delta_a,
        dressed_freq_b1=qb.freq + g2 / delta_b,
        dressed_freq_a2=2 * qa.freq + 2 * g2 / (delta_a - qa.anharm),
        dressed_freq_b2=2 * qb.freq + 2 * g2 / (delta_b - qb.anharm),
        detuning_a=delta_a,
        detuning_b=delta_b,
    )


def _two_qutrit_diagonal(levels_a: np.ndarray, levels_b: np.ndarray) -> np.ndarray:
    """9x9 diagonal from per-qubit level energies (rad/ns)."""
    return np.kron(np.diag(levels_a), np.eye(3)) + np.kron(np.eye(3), np.diag(levels_b))


def _add_exchange(h: np.ndarray, bra: tuple[int, int], ket: tuple[int, int], val: float) -> None:
    i = bra[0] * 3 + bra[1]
    j = ket[0] * 3 + ket[1]
    h[i, j] += val
    h[j, i] += val


def build_effective_hamiltonian(spec: IndirectSystemSpec) -> np.ndarray:
    """Effective two-qutrit Hamiltonian of the cavity-coupled pair, rad/ns.

    Both qubits are treated as exactly three levels regardless of the
    truncation carried by ``spec``; that is the regime in which the
    second-order reduction is derived.  The cavity no longer appears: it has
    been eliminated in favour of the dressed frequencies and the four
    effective exchange couplings.
    """
    c = effective_couplings(spec)
    qa, qb = spec.qubit_a, spec.qubit_b
    levels_a = TWOPI * np.array([0.0, c.dressed_freq_a1, c.dressed_freq_a2 - qa.anharm])
    levels_b = TWOPI * np.array([0.0, c.dressed_freq_b1, c.dressed_freq_b2 - qb.anharm])
    h = _two_qutrit_diagonal(levels_a, levels_b).astype(complex)
    _add_exchange(h, (0, 2), (1, 1), TWOPI * np.sqrt(2) * c.g_eff_1)
    _add_exchange(h, (2, 0), (1, 1), TWOPI * np.sqrt(2) * c.g_eff_2)
    _add_exchange(h, (0, 1), (1, 0), TWOPI * c.g_eff_3)
    _add_exchange(h, (1, 2), (2, 1), TWOPI * 2 * c.g_eff_4)
    return h


def build_rwa_direct_hamiltonian(spec: DirectSystemSpec) -> np.ndarray:
    """Excitation-conserving three-level model of the directly coupled pair.

    Keeps the bare ladder diagonal and the four exchange terms
    |01><10|, sqrt(2)|02><11|, sqrt(2)|20><11| and 2|12><21| (plus conjugates),
    dropping the counter-rotating parts of Jx Jx.  Used to confirm that the
    full-model fidelities are not contaminated by counter-rotating effects at
    the couplings studied here.
    """
    qa, qb = spec.qubit_a, spec.qubit_b
    levels_a = TWOPI * np.array([0.0, qa.freq, 2 * qa.freq - qa.anharm])
    levels_b = TWOPI * np.array([0.0, qb.freq, 2 * qb.freq - qb.anharm])
    h = _two_qutrit_diagonal(levels_a, levels_b).astype(complex)
    g = TWOPI * spec.g
    _add_exchange(h, (0, 1), (1, 0), g)
    _add_exchange(h, (0, 2), (1, 1), np.sqrt(2) * g)
    _add_exchange(h, (2, 0), (1, 1), np.sqrt(2) * g)
    _add_exchange(h, (1, 2), (2, 1), 2 * g)
    return h
