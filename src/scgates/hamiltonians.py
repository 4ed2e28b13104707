"""Dense Hamiltonians for pairs of weakly anharmonic multilevel qubits.

Two wiring variants are covered: a direct (capacitive) qubit-qubit coupling,
and an indirect one where both qubits couple to a shared cavity mode.  No
rotating-wave approximation is applied anywhere in this module; the coupling
operators keep their full ladder structure, counter-rotating terms included.

Unit conventions, used consistently across the package:

* Every user-facing frequency (qubit, anharmonicity, cavity, coupling) is a
  linear frequency in GHz.
* Matrix elements are angular frequencies in rad/ns, i.e. linear inputs are
  multiplied by 2*pi exactly once, at construction time.  With hbar = 1 this
  makes time a plain number of nanoseconds.
* Product-basis ordering is qubit A outermost, qubit B next, cavity innermost:
  the flattened index of |n_a, n_b, n_c> is (n_a * N_B + n_b) * N_c + n_c.

Every coupling term Jx_i Jx_j moves the total excitation number
n_a + n_b (+ n_c) by 0 or +-2, counter-rotating terms included, and the
ladders are diagonal.  So every Hamiltonian built here has exact zeros between
states of opposite excitation parity; ``parity_blocks`` gives the two index
sets, which the propagators diagonalize separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

TWOPI = 2.0 * np.pi

__all__ = [
    "TWOPI",
    "QubitSpec",
    "DirectSystemSpec",
    "IndirectSystemSpec",
    "BasisIndex",
    "ladder_diagonal",
    "build_jx",
    "build_direct_hamiltonian",
    "build_indirect_hamiltonian",
    "hamiltonian_parts",
    "parity_blocks",
    "computational_indices",
]


@dataclass(frozen=True)
class QubitSpec:
    """One anharmonic ladder.

    Level ``n`` sits at ``n*freq - anharm*n*(n-1)/2`` in GHz, so a positive
    ``anharm`` pulls the higher transitions below the 0-1 transition.
    """

    freq: float
    anharm: float
    n_levels: int = 3

    def __post_init__(self):
        if not 0 < self.freq < math.inf:
            raise ValueError(f"qubit freq must be positive and finite, got {self.freq}")
        if not 0 <= self.anharm < math.inf:
            raise ValueError(f"qubit anharm must be non-negative and finite, got {self.anharm}")
        if not isinstance(self.n_levels, (int, np.integer)):
            raise ValueError(f"qubit n_levels must be an integer, got {self.n_levels!r}")
        if self.n_levels < 2:
            raise ValueError(f"a qubit needs at least two levels, got {self.n_levels}")


@dataclass(frozen=True)
class DirectSystemSpec:
    """Two qubits with a fixed transverse coupling of strength ``g`` (GHz)."""

    qubit_a: QubitSpec
    qubit_b: QubitSpec
    g: float

    def __post_init__(self):
        if not 0 <= self.g < math.inf:
            raise ValueError(f"coupling g must be non-negative and finite, got {self.g}")

    @property
    def dim(self) -> int:
        return self.qubit_a.n_levels * self.qubit_b.n_levels


@dataclass(frozen=True)
class IndirectSystemSpec:
    """Two qubits coupled through a shared cavity mode.

    Both qubits couple to the cavity with the same strength ``g_qc`` (GHz).
    ``n_photons`` is the cavity truncation dimension (Fock states 0 to
    ``n_photons - 1``); the default of 5 is ample for dispersive operation,
    where the cavity is only virtually populated (doubling it moves gate
    fidelities at the 1e-8 level for the parameter ranges swept here).
    """

    qubit_a: QubitSpec
    qubit_b: QubitSpec
    cavity_freq: float
    g_qc: float
    n_photons: int = 5

    def __post_init__(self):
        if not 0 < self.cavity_freq < math.inf:
            raise ValueError(f"cavity_freq must be positive and finite, got {self.cavity_freq}")
        if not 0 <= self.g_qc < math.inf:
            raise ValueError(f"coupling g_qc must be non-negative and finite, got {self.g_qc}")
        if not isinstance(self.n_photons, (int, np.integer)):
            raise ValueError(f"cavity truncation n_photons must be an integer, got {self.n_photons!r}")
        if self.n_photons < 2:
            raise ValueError(f"cavity truncation must be at least 2, got {self.n_photons}")

    @property
    def dim(self) -> int:
        return self.qubit_a.n_levels * self.qubit_b.n_levels * self.n_photons


@dataclass(frozen=True)
class BasisIndex:
    """Occupation numbers of one product-basis state; ``n_c`` is None for direct systems."""

    n_a: int
    n_b: int
    n_c: int | None = None

    def flatten(self, spec: DirectSystemSpec | IndirectSystemSpec) -> int:
        """Row/column index of this state in the matrices built from ``spec``."""
        nb = spec.qubit_b.n_levels
        if not 0 <= self.n_a < spec.qubit_a.n_levels:
            raise ValueError(f"n_a={self.n_a} outside qubit A ladder")
        if not 0 <= self.n_b < nb:
            raise ValueError(f"n_b={self.n_b} outside qubit B ladder")
        if isinstance(spec, IndirectSystemSpec):
            n_c = 0 if self.n_c is None else self.n_c
            if not 0 <= n_c < spec.n_photons:
                raise ValueError(f"n_c={n_c} outside cavity truncation")
            return (self.n_a * nb + self.n_b) * spec.n_photons + n_c
        if self.n_c is not None:
            raise ValueError("direct systems have no cavity index")
        return self.n_a * nb + self.n_b


def _level_energies(freq, anharm, n_levels: int, freq_scale: float = 1.0) -> np.ndarray:
    """Angular ladder energies; ``freq_scale`` multiplies only the n*freq term.

    ``freq`` and ``anharm`` may be column arrays, one row of energies per entry.
    """
    n = np.arange(n_levels, dtype=float)
    return TWOPI * (n * freq * freq_scale - anharm * n * (n - 1) / 2.0)


def ladder_diagonal(qubit: QubitSpec) -> np.ndarray:
    """Diagonal ladder Hamiltonian of one qubit, rad/ns.

    Entry ``n`` equals ``2*pi*(n*freq - anharm*n*(n-1)/2)``; the ground-state
    entry is exactly zero.  Returned as a real (n_levels, n_levels) array.
    """
    return np.diag(_level_energies(qubit.freq, qubit.anharm, qubit.n_levels))


def build_jx(n_levels: int) -> np.ndarray:
    """Transverse ladder coupling operator with <n-1|Jx|n> = sqrt(n).

    Real symmetric and dimensionless; for two levels this is the Pauli X.
    """
    if n_levels < 2:
        raise ValueError(f"coupling operator needs at least two levels, got {n_levels}")
    jx = np.zeros((n_levels, n_levels))
    n = np.arange(1, n_levels)
    jx[n - 1, n] = np.sqrt(n)
    jx[n, n - 1] = np.sqrt(n)
    return jx


def _column(values) -> np.ndarray:
    """An iterable of numbers as an (n, 1) float column, one row per spec."""
    return np.fromiter(values, dtype=float)[:, None]


def _modes(
    specs, freq_scale_b: float = 1.0
) -> tuple[list[np.ndarray], list[tuple[int, int, np.ndarray]]]:
    """Angular level energies of each mode (A, B, then the cavity if present) and the couplings.

    ``specs`` share one kind and truncation; each mode's energies are an
    (n, levels) array with one row per spec.  A coupling ``(i, j, g)`` joins
    modes i and j through ``g`` Jx_i Jx_j, with ``g`` one strength per spec;
    a direct pair has one, a cavity pair one from each qubit to the cavity.
    """
    if not 0 < freq_scale_b < math.inf:
        raise ValueError(f"freq_scale_b must be positive and finite, got {freq_scale_b}")
    first = specs[0]
    qubits = ([s.qubit_a for s in specs], [s.qubit_b for s in specs])
    levels = [
        _level_energies(
            _column(q.freq for q in qs), _column(q.anharm for q in qs), qs[0].n_levels, scale
        )
        for qs, scale in zip(qubits, (1.0, freq_scale_b))
    ]
    if isinstance(first, IndirectSystemSpec):
        cavity = _column(s.cavity_freq for s in specs)
        levels.append(TWOPI * cavity * np.arange(first.n_photons, dtype=float))
        g_qc = _column(s.g_qc for s in specs)[:, 0]
        return levels, [(0, 2, g_qc), (1, 2, g_qc)]
    return levels, [(0, 1, _column(s.g for s in specs)[:, 0])]


def _outer_sum(levels: list[np.ndarray]) -> np.ndarray:
    """Product-basis energies (n, d): the outer sum of each row of the mode ladders."""
    diag = levels[0]
    for e in levels[1:]:
        diag = (diag[:, :, None] + e[:, None, :]).reshape(len(e), -1)
    return diag


@lru_cache
def _coupling_factor(sizes: tuple[int, ...], i: int, j: int) -> np.ndarray:
    """Read-only Kronecker product of ``build_jx`` on modes i and j and identities elsewhere."""
    ops = [build_jx(size) if k in (i, j) else np.eye(size) for k, size in enumerate(sizes)]
    factor = reduce(np.kron, ops)
    factor.flags.writeable = False
    return factor


@lru_cache
def _coupling_support(sizes: tuple[int, ...], i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the nonzero entries of ``_coupling_factor(sizes, i, j)``."""
    support = np.nonzero(_coupling_factor(sizes, i, j))
    for ix in support:
        ix.flags.writeable = False
    return support


def _assemble(levels: list[np.ndarray], couplings: list[tuple[int, int, np.ndarray]]) -> np.ndarray:
    """Real Hamiltonians (n, d, d): the ladders' outer sum on the diagonal, plus the couplings.

    Each coupling adds 2*pi*g times the Kronecker product of ``build_jx`` on
    its two modes and identities elsewhere; for the cavity, a + a^dag has the
    same sqrt(n) off-diagonal structure as Jx.  The Kronecker factors depend
    on the truncation only, so each, and the indices of its nonzero entries,
    is built once per truncation and pair.
    A coupling is added at the nonzero entries of its factor only, so no
    (n, d, d) temporary is formed beside ``h``; each entry gets the sum the
    dense formula gives it.
    """
    diag = _outer_sum(levels)
    n, d = diag.shape
    h = np.zeros((n, d, d))
    h[:, np.arange(d), np.arange(d)] = diag
    sizes = tuple(e.shape[1] for e in levels)
    for i, j, g in couplings:
        r, c = _coupling_support(sizes, i, j)
        h[:, r, c] += (TWOPI * g)[:, None] * _coupling_factor(sizes, i, j)[r, c]
    return h


def _scaled_levels(specs) -> list[np.ndarray]:
    """The part of each mode's energies that ``freq_scale_b`` multiplies: qubit B's n*freq."""
    first = specs[0]
    n_b = first.qubit_b.n_levels
    scaled = [np.zeros((len(specs), first.qubit_a.n_levels))]
    scaled.append(TWOPI * _column(s.qubit_b.freq for s in specs) * np.arange(n_b, dtype=float))
    if isinstance(first, IndirectSystemSpec):
        scaled.append(np.zeros((len(specs), first.n_photons)))
    return scaled


def build_direct_hamiltonian(spec: DirectSystemSpec | IndirectSystemSpec, freq_scale_b: float = 1.0) -> np.ndarray:
    """Full Hamiltonian of a directly or a cavity-coupled pair, rad/ns.

    ``freq_scale_b`` multiplies qubit B's bare frequency term ``n*freq`` only;
    the anharmonicity is a junction property and stays fixed while the qubit
    is flux-tuned.  Scale 1.0 is the nominal operating point.  A cavity pair's
    qubit-cavity coupling enters as (a + a^dag) Jx for each qubit, with both
    rotating and counter-rotating terms kept.  ``build_indirect_hamiltonian``
    is the same function.
    """
    return _assemble(*_modes([spec], freq_scale_b))[0].astype(complex)


build_indirect_hamiltonian = build_direct_hamiltonian


def hamiltonian_parts_stack(specs) -> tuple[np.ndarray, np.ndarray]:
    """The parts h0 (n, d, d) and the diagonals d1 (n, d) of h1 of specs sharing one kind and truncation.

    Entry k is ``hamiltonian_parts(specs[k])`` bit for bit, with h1 given by
    its diagonal, which is all of it.  The stack is assembled as one: one row
    of level energies and one coupling strength per spec.
    """
    h0 = _assemble(*_modes(specs))
    d1 = _outer_sum(_scaled_levels(specs))
    i = np.arange(h0.shape[1])
    h0[:, i, i] -= d1
    return h0, d1


def hamiltonian_parts(spec: DirectSystemSpec | IndirectSystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Split H(scale) = h0 + scale * h1, with h1 the scaled part of qubit B.

    Returns real float64 arrays (the Hamiltonians here are real symmetric),
    which keeps the time stepper on real arithmetic.  The identity
    ``h0 + s*h1 == build_*_hamiltonian(spec, s)`` holds to round-off.  h1 is
    diagonal, since the scale multiplies only qubit B's level energies; the
    ramp propagator relies on that, so along a ramp only the diagonal moves.
    This is the one-spec case of ``hamiltonian_parts_stack``.
    """
    h0, d1 = hamiltonian_parts_stack([spec])
    return h0[0], np.diag(d1[0])


@lru_cache
def _parity_blocks(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    excitations = sum(np.indices(sizes)).ravel()
    blocks = tuple(np.flatnonzero(excitations % 2 == parity) for parity in (0, 1))
    for block in blocks:
        block.flags.writeable = False
    return blocks


def parity_blocks(spec: DirectSystemSpec | IndirectSystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Flattened indices of the states with even and with odd n_a + n_b (+ n_c).

    The Hamiltonians of ``spec`` have exact zeros between the two sets at
    every scale (module docstring).  The sets follow from the mode sizes
    alone, not from a matrix's nonzero pattern, which falls apart further
    when a coupling is zero.  Both are read-only and built once per
    truncation.
    """
    sizes = (spec.qubit_a.n_levels, spec.qubit_b.n_levels)
    if isinstance(spec, IndirectSystemSpec):
        sizes += (spec.n_photons,)
    return _parity_blocks(sizes)


def computational_indices(spec: DirectSystemSpec | IndirectSystemSpec) -> tuple[int, int, int, int]:
    """Flattened indices of |00>, |01>, |10>, |11> (cavity in vacuum if present)."""
    n_c = 0 if isinstance(spec, IndirectSystemSpec) else None
    states = ((0, 0), (0, 1), (1, 0), (1, 1))
    i00, i01, i10, i11 = (BasisIndex(a, b, n_c).flatten(spec) for a, b in states)
    return i00, i01, i10, i11
