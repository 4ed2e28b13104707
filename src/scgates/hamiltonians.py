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
    def sizes(self) -> tuple[int, ...]:
        """Levels of each mode in product-basis order: qubit A, then qubit B."""
        return self.qubit_a.n_levels, self.qubit_b.n_levels

    @property
    def dim(self) -> int:
        return math.prod(self.sizes)


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
    def sizes(self) -> tuple[int, ...]:
        """Levels of each mode in product-basis order: qubit A, qubit B, then the cavity."""
        return self.qubit_a.n_levels, self.qubit_b.n_levels, self.n_photons

    @property
    def dim(self) -> int:
        return math.prod(self.sizes)


_MODE_NAMES = ("qubit A ladder", "qubit B ladder", "cavity truncation")


@dataclass(frozen=True)
class BasisIndex:
    """Occupation numbers of one product-basis state; ``n_c`` is None for direct systems."""

    n_a: int
    n_b: int
    n_c: int | None = None

    def flatten(self, spec: DirectSystemSpec | IndirectSystemSpec) -> int:
        """Row/column index of this state in the matrices built from ``spec``: its place in the mode grid ``spec.sizes``."""
        if self.n_c is not None and isinstance(spec, DirectSystemSpec):
            raise ValueError("direct systems have no cavity index")
        index = (self.n_a, self.n_b, self.n_c or 0)[: len(spec.sizes)]
        for name, n, size, mode in zip(("n_a", "n_b", "n_c"), index, spec.sizes, _MODE_NAMES):
            if not 0 <= n < size:
                raise ValueError(f"{name}={n} outside {mode}")
        return int(np.ravel_multi_index(index, spec.sizes))


def _level_energies(freq, anharm, n_levels: int) -> np.ndarray:
    """Angular ladder energies.

    ``freq`` and ``anharm`` may be arrays with a last axis of one, one row of
    energies per entry.
    """
    n = np.arange(n_levels, dtype=float)
    return TWOPI * (n * freq - anharm * n * (n - 1) / 2.0)


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


def parameter_rows(specs) -> np.ndarray:
    """The parameters of specs of one kind as float rows, the form the stacked functions take: (n, 5) for direct pairs, (n, 6) for cavity pairs.

    A row holds freq_a, freq_b, anharm_a, anharm_b and the coupling (``g``,
    or a cavity pair's ``g_qc``), then a cavity pair's ``cavity_freq``
    (``stack_rows``).  The truncation is not part of a row: the stacked
    functions take it as ``sizes``, whose length also tells the kind.
    """

    def row(s):
        coupling = (s.g_qc, s.cavity_freq) if isinstance(s, IndirectSystemSpec) else (s.g,)
        return (s.qubit_a.freq, s.qubit_b.freq, s.qubit_a.anharm, s.qubit_b.anharm, *coupling)

    return np.array([row(s) for s in specs], dtype=float)


def stack_rows(freq_a, freq_b, anharm_a, anharm_b, coupling, cavity_freq=None) -> np.ndarray:
    """Parameter rows (``parameter_rows``) from each parameter: ``freq_a`` an array of one entry per system, the rest such arrays or one value for all.

    ``coupling`` is g, or a cavity pair's g_qc, and ``cavity_freq`` is given
    for cavity pairs only.
    """
    columns = (freq_a, freq_b, anharm_a, anharm_b, coupling) + (() if cavity_freq is None else (cavity_freq,))
    rows = np.empty((len(freq_a), len(columns)))
    for k, column in enumerate(columns):
        rows[:, k] = column
    return rows


def spec_of_row(system: DirectSystemSpec | IndirectSystemSpec, row: np.ndarray):
    """The spec of ``system``'s kind and truncation with the parameters of ``row`` (``parameter_rows``), checked by its constructors."""
    freq_a, freq_b, anharm_a, anharm_b, coupling, *cavity = row.tolist()
    qubit_a = QubitSpec(freq_a, anharm_a, system.qubit_a.n_levels)
    qubit_b = QubitSpec(freq_b, anharm_b, system.qubit_b.n_levels)
    if isinstance(system, IndirectSystemSpec):
        return IndirectSystemSpec(qubit_a, qubit_b, *cavity, coupling, system.n_photons)
    return DirectSystemSpec(qubit_a, qubit_b, coupling)


def _row_modes(sizes: tuple[int, ...], rows: np.ndarray) -> tuple[list[np.ndarray], list[tuple[int, int, np.ndarray]]]:
    """Angular level energies of each mode (``sizes`` order) and the couplings of the systems of parameter ``rows``.

    Each mode's energies are an (n, levels) array with one row per system.
    A coupling ``(i, j, g)`` joins modes i and j through ``g`` Jx_i Jx_j,
    with ``g`` one strength per system; a direct pair has one, a cavity pair
    one from each qubit to the cavity.
    """
    # both ladders at once, to the longer one's length: row [k, q] holds qubit q's energies
    ladders = _level_energies(rows[:, :2, None], rows[:, 2:4, None], max(sizes[:2]))
    levels = [ladders[:, 0, : sizes[0]], ladders[:, 1, : sizes[1]]]
    if len(sizes) == 3:
        levels.append(TWOPI * rows[:, 5:6] * np.arange(sizes[2], dtype=float))
        return levels, [(0, 2, rows[:, 4]), (1, 2, rows[:, 4])]
    return levels, [(0, 1, rows[:, 4])]


def _outer_sum(levels: list[np.ndarray]) -> np.ndarray:
    """Product-basis energies (n, d): the outer sum of each row of the mode ladders."""
    diag = levels[0]
    for e in levels[1:]:
        diag = (diag[:, :, None] + e[:, None, :]).reshape(len(e), -1)
    return diag


@lru_cache
def _coupling(sizes: tuple[int, ...], i: int, j: int) -> tuple[np.ndarray, ...]:
    """The read-only coupling operator of modes i and j, and the rows, columns and values of its nonzero entries.

    The operator is the Kronecker product of ``build_jx`` on modes i and j
    and identities elsewhere; it depends on the truncation only, so it is
    built once per truncation and pair.  ``_assemble`` uses only the
    entries, but the dense operator, d^2 doubles, is kept with them: with
    it freed after the first build, glibc gave the heap top back to the
    system after the chunks of every cavity sweep and faulted it in again,
    about 4,900 minor page faults and 4-15 % of the wall time of a round
    of the eight square presets (glibc 2.36, 2 vCPUs).
    """
    factor = reduce(np.kron, [build_jx(size) if k in (i, j) else np.eye(size) for k, size in enumerate(sizes)])
    rows, cols = np.nonzero(factor)
    entries = factor, rows, cols, factor[rows, cols]
    for x in entries:
        x.flags.writeable = False
    return entries


def _assemble(levels: list[np.ndarray], couplings: list[tuple[int, int, np.ndarray]]) -> np.ndarray:
    """Real Hamiltonians (n, d, d): the ladders' outer sum on the diagonal, plus the couplings.

    Each coupling adds 2*pi*g times its operator (``_coupling``); for the
    cavity, a + a^dag has the same sqrt(n) off-diagonal structure as Jx.
    A coupling is added at the nonzero entries of its operator only, so no
    (n, d, d) temporary is formed beside ``h``; each entry gets the sum the
    dense formula gives it.
    """
    diag = _outer_sum(levels)
    n, d = diag.shape
    h = np.zeros((n, d, d))
    h.reshape(n, d * d)[:, :: d + 1] = diag
    sizes = tuple(e.shape[1] for e in levels)
    for i, j, g in couplings:
        _, r, c, v = _coupling(sizes, i, j)
        h[:, r, c] += (TWOPI * g)[:, None] * v
    return h


def build_direct_hamiltonian(spec: DirectSystemSpec | IndirectSystemSpec, freq_scale_b: float = 1.0) -> np.ndarray:
    """Full Hamiltonian h0 + freq_scale_b * h1 of a directly or a cavity-coupled pair, rad/ns.

    ``freq_scale_b`` multiplies qubit B's bare frequency term ``n*freq`` only;
    the anharmonicity is a junction property and stays fixed while the qubit
    is flux-tuned.  Scale 1.0 is the nominal operating point.  A cavity pair's
    qubit-cavity coupling enters as (a + a^dag) Jx for each qubit, with both
    rotating and counter-rotating terms kept.  The parts are those of
    ``hamiltonian_parts``, so the result is ``h0 + freq_scale_b * h1`` bit
    for bit.  ``build_indirect_hamiltonian`` is the same function.
    """
    if not 0 < freq_scale_b < math.inf:
        raise ValueError(f"freq_scale_b must be positive and finite, got {freq_scale_b}")
    (h,), (d1,) = hamiltonian_parts_rows(spec.sizes, parameter_rows([spec]))
    h.reshape(-1)[:: spec.dim + 1] += freq_scale_b * d1
    return h.astype(complex)


build_indirect_hamiltonian = build_direct_hamiltonian


def hamiltonian_parts_rows(sizes: tuple[int, ...], rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The parts h0 (n, d, d) and the diagonals d1 (n, d) of h1 of the systems of truncation ``sizes`` and parameter ``rows``.

    Entry k is ``hamiltonian_parts`` of row k's spec bit for bit, with h1
    given by its diagonal, which is all of it.  The stack is assembled as
    one: one row of level energies and one coupling strength per system.  d1
    is qubit B's scaled ladder, 2*pi*n*freq_b, broadcast over the mode grid,
    and h0 is the full Hamiltonian at scale 1 less it.
    """
    n, dim = len(rows), math.prod(sizes)
    h0 = _assemble(*_row_modes(sizes, rows))
    n_a, n_b = sizes[:2]
    d1 = np.empty((n, n_a, n_b, dim // (n_a * n_b)))  # the modes after B folded into one axis
    d1[:] = (TWOPI * rows[:, 1:2] * np.arange(n_b, dtype=float))[:, None, :, None]
    d1 = d1.reshape(n, -1)
    h0.reshape(n, -1)[:, :: dim + 1] -= d1
    return h0, d1


def hamiltonian_parts(spec: DirectSystemSpec | IndirectSystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Split H(scale) = h0 + scale * h1, with h1 the scaled part of qubit B.

    Returns real float64 arrays (the Hamiltonians here are real symmetric),
    which keeps the time stepper on real arithmetic.  ``build_*_hamiltonian``
    is ``h0 + s*h1`` formed from these parts, so the identity holds bit for
    bit.  h1 is diagonal, since the scale multiplies only qubit B's level
    energies; the ramp propagator relies on that, so along a ramp only the
    diagonal moves.  This is the one-spec case of ``hamiltonian_parts_rows``.
    """
    h0, d1 = hamiltonian_parts_rows(spec.sizes, parameter_rows([spec]))
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
    return _parity_blocks(spec.sizes)


def computational_indices(spec: DirectSystemSpec | IndirectSystemSpec) -> tuple[int, int, int, int]:
    """Flattened indices of |00>, |01>, |10>, |11> (cavity in vacuum if present)."""
    return _computational_indices(spec.sizes)


def _computational_indices(sizes: tuple[int, ...]) -> tuple[int, int, int, int]:
    """``computational_indices`` of the systems of truncation ``sizes``."""
    vacuum = (0,) * (len(sizes) - 2)
    return tuple(int(np.ravel_multi_index((a, b, *vacuum), sizes)) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)))
