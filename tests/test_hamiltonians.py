import functools
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgates import (
    TWOPI,
    BasisIndex,
    DirectSystemSpec,
    IndirectSystemSpec,
    QubitSpec,
    build_direct_hamiltonian,
    build_indirect_hamiltonian,
    build_jx,
    computational_indices,
    hamiltonian_parts,
    ladder_diagonal,
)
from scgates import hamiltonians
from scgates.hamiltonians import hamiltonian_parts_rows, parameter_rows, parity_blocks

QA = QubitSpec(freq=5.5, anharm=0.15, n_levels=3)
QB = QubitSpec(freq=5.5, anharm=0.10, n_levels=3)


def hermiticity_defect(h):
    return np.max(np.abs(h - h.conj().T))


def dense_coupling(sizes, i, j):
    """The coupling operator of modes i and j: ``build_jx`` on both, identities elsewhere, as a dense Kronecker product."""
    return functools.reduce(np.kron, [build_jx(size) if k in (i, j) else np.eye(size) for k, size in enumerate(sizes)])


NON_FINITE_FIELDS = {
    "freq": lambda v: QubitSpec(v, 0.1),
    "anharm": lambda v: QubitSpec(5.0, v),
    "g": lambda v: DirectSystemSpec(QA, QB, v),
    "cavity_freq": lambda v: IndirectSystemSpec(QA, QB, v, 0.1),
    "g_qc": lambda v: IndirectSystemSpec(QA, QB, 6.9, v),
}


class TestQubitSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            QubitSpec(freq=-1.0, anharm=0.1)
        with pytest.raises(ValueError):
            QubitSpec(freq=5.0, anharm=-0.1)
        with pytest.raises(ValueError):
            QubitSpec(freq=5.0, anharm=0.1, n_levels=1)
        with pytest.raises(ValueError, match="qubit n_levels must be an integer, got 2.5"):
            QubitSpec(5.5, 0.15, 2.5)
        with pytest.raises(ValueError, match="cavity truncation n_photons must be an integer, got 4.5"):
            IndirectSystemSpec(QA, QB, 6.9, 0.1, n_photons=4.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
    def test_specs_reject_non_finite_numbers_by_name(self, field, value):
        with pytest.raises(ValueError, match=rf"\b{field} must be"):
            NON_FINITE_FIELDS[field](value)

    @pytest.mark.parametrize("count", [2**60, 2**63, 10**400], ids=["2^60", "2^63", "10^400"])
    def test_specs_reject_a_count_no_array_holds_by_name(self, count):
        bound = np.iinfo(np.intp).max // 8
        assert QubitSpec(5.5, 0.15, bound).n_levels == bound  # the bound itself is accepted
        with pytest.raises(ValueError, match=rf"^qubit n_levels must be at most {bound}, got {count}$"):
            QubitSpec(5.5, 0.15, count)
        with pytest.raises(ValueError, match=rf"^cavity truncation n_photons must be at most {bound}, got {count}$"):
            IndirectSystemSpec(QA, QB, 6.9, 0.1, n_photons=count)


class TestLadderDiagonal:
    def test_ground_state_is_exactly_zero(self):
        d = ladder_diagonal(QubitSpec(5.5, 0.1, 4))
        assert d[0, 0] == 0.0

    def test_second_level(self):
        # level 2 of a (5.5, 0.1) ladder: 2*5.5 - 0.1*2*1/2 = 10.9 GHz
        d = ladder_diagonal(QubitSpec(5.5, 0.1, 3))
        assert d[2, 2] == pytest.approx(TWOPI * 10.9, rel=1e-14)

    def test_third_level_of_four(self):
        # level 3: 3*5.5 - 0.1*3*2/2 = 16.5 - 0.3
        d = ladder_diagonal(QubitSpec(5.5, 0.1, 4))
        assert d[3, 3] == pytest.approx(TWOPI * 16.2, rel=1e-14)

    def test_is_diagonal(self):
        d = ladder_diagonal(QubitSpec(5.5, 0.1, 5))
        assert np.count_nonzero(d - np.diag(np.diag(d))) == 0


class TestBuildJx:
    def test_two_levels_is_pauli_x(self):
        assert np.array_equal(build_jx(2), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_three_levels(self):
        jx = build_jx(3)
        assert jx[0, 1] == 1.0
        assert jx[1, 2] == pytest.approx(np.sqrt(2), rel=1e-15)

    def test_five_level_offdiagonals(self):
        jx = build_jx(5)
        off = np.array([jx[n - 1, n] for n in range(1, 5)])
        assert off == pytest.approx([1.0, np.sqrt(2), np.sqrt(3), 2.0], rel=1e-15)

    def test_symmetric(self):
        jx = build_jx(4)
        assert np.array_equal(jx, jx.T)

    def test_rejects_single_level(self):
        with pytest.raises(ValueError):
            build_jx(1)


class TestDirectHamiltonian:
    def test_uncoupled_eigenvalues_are_pairwise_sums(self):
        spec = DirectSystemSpec(QA, QB, g=0.0)
        h = build_direct_hamiltonian(spec)
        got = np.sort(np.linalg.eigvalsh(h))
        ea = np.diag(ladder_diagonal(QA))
        eb = np.diag(ladder_diagonal(QB))
        expected = np.sort(np.add.outer(ea, eb).ravel())
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_two_level_resonant_doublet_splitting(self):
        # the |01>,|10> block decouples by excitation parity; splitting is 2*(2*pi*g)
        q = QubitSpec(5.0, 0.0, 2)
        g = 0.003
        h = build_direct_hamiltonian(DirectSystemSpec(q, q, g))
        w = np.sort(np.linalg.eigvalsh(h))
        assert w[2] - w[1] == pytest.approx(2 * TWOPI * g, rel=1e-9)

    def test_dimension_and_hermiticity(self):
        spec = DirectSystemSpec(QA, QB, g=0.0152)
        h = build_direct_hamiltonian(spec)
        assert h.shape == (9, 9)
        assert hermiticity_defect(h) == 0.0

    def test_scale_moves_only_harmonic_part(self):
        spec = DirectSystemSpec(QA, QB, g=0.01)
        h1 = build_direct_hamiltonian(spec, 1.0)
        h2 = build_direct_hamiltonian(spec, 1.1)
        diff = np.diag(h2 - h1).real
        nb = np.arange(3)
        expected = np.kron(np.ones(3), TWOPI * 0.1 * QB.freq * nb)
        assert diff == pytest.approx(expected, rel=1e-12)
        # off-diagonal coupling untouched
        assert np.array_equal(h2 - np.diag(np.diag(h2)), h1 - np.diag(np.diag(h1)))

    @pytest.mark.parametrize("scale", [0.8, 1.0, 1.1, 1.37])
    @pytest.mark.parametrize("kind", ["direct", "cavity"])
    def test_full_hamiltonian_is_h0_plus_scaled_h1_bit_for_bit(self, kind, scale):
        spec = DirectSystemSpec(QA, replace(QB, freq=5.7), 0.02)
        if kind == "cavity":
            spec = IndirectSystemSpec(QA, replace(QB, freq=5.7, n_levels=4), 6.9, 0.1)
        h0, h1 = hamiltonian_parts(spec)
        assert np.array_equal(build_direct_hamiltonian(spec, scale), h0 + scale * h1)

    def test_rejects_nonpositive_scale(self):
        spec = DirectSystemSpec(QA, QB, g=0.01)
        with pytest.raises(ValueError):
            build_direct_hamiltonian(spec, 0.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_rejects_non_finite_scale_by_name(self, scale):
        direct = DirectSystemSpec(QA, QB, g=0.01)
        cavity = IndirectSystemSpec(QA, QB, 6.9, 0.1)
        with pytest.raises(ValueError, match="freq_scale_b must be"):
            build_direct_hamiltonian(direct, scale)
        with pytest.raises(ValueError, match="freq_scale_b must be"):
            build_indirect_hamiltonian(cavity, scale)

    def test_exchange_symmetry_under_qubit_swap(self):
        qa = QubitSpec(5.5, 0.15, 3)
        qb = QubitSpec(5.7, 0.10, 4)
        h = build_direct_hamiltonian(DirectSystemSpec(qa, qb, 0.02))
        h_swapped = build_direct_hamiltonian(DirectSystemSpec(qb, qa, 0.02))
        # permutation (n_a, n_b) -> (n_b, n_a)
        na, nb = 3, 4
        perm = np.zeros(na * nb, dtype=int)
        for a in range(na):
            for b in range(nb):
                perm[b * na + a] = a * nb + b
        assert np.array_equal(h_swapped, h[np.ix_(perm, perm)])

    def test_two_level_parity_commutes(self):
        q = QubitSpec(5.0, 0.0, 2)
        h = build_direct_hamiltonian(DirectSystemSpec(q, q, 0.01))
        parity = np.diag([1.0, -1.0, -1.0, 1.0])
        assert np.max(np.abs(parity @ h @ parity - h)) == 0.0


class TestIndirectHamiltonian:
    def test_uncoupled_eigenvalues(self):
        spec = IndirectSystemSpec(QA, QB, cavity_freq=6.9, g_qc=0.0, n_photons=4)
        h = build_indirect_hamiltonian(spec)
        got = np.sort(np.linalg.eigvalsh(h))
        ea = np.diag(ladder_diagonal(QA))
        eb = np.diag(ladder_diagonal(QB))
        ec = TWOPI * 6.9 * np.arange(4)
        expected = np.sort((ea[:, None, None] + eb[None, :, None] + ec[None, None, :]).ravel())
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)

    def test_dimension_and_hermiticity(self):
        spec = IndirectSystemSpec(QubitSpec(8.2, 0.2, 3), QubitSpec(8.45, 0.25, 3), 6.9, 0.2, 5)
        h = build_indirect_hamiltonian(spec)
        assert h.shape == (45, 45)
        assert hermiticity_defect(h) == 0.0

    def test_vacuum_rabi_splitting(self):
        # resonant 2-level qubit A; qubit B parked far away so it is a spectator
        qa = QubitSpec(6.0, 0.0, 2)
        qb = QubitSpec(50.0, 0.0, 2)
        G = 0.001
        spec = IndirectSystemSpec(qa, qb, cavity_freq=6.0, g_qc=G, n_photons=4)
        w = np.linalg.eigvalsh(build_indirect_hamiltonian(spec))
        doublet = np.sort(w[np.argsort(np.abs(w - TWOPI * 6.0))[:2]])
        assert doublet[1] - doublet[0] == pytest.approx(2 * TWOPI * G, rel=1e-3)


class TestBasisBookkeeping:
    def test_flatten_direct(self):
        spec = DirectSystemSpec(QA, QB, 0.01)
        assert BasisIndex(1, 2).flatten(spec) == 5
        assert computational_indices(spec) == (0, 1, 3, 4)

    def test_flatten_indirect(self):
        spec = IndirectSystemSpec(QA, QB, 6.9, 0.1, n_photons=5)
        assert BasisIndex(1, 0, 2).flatten(spec) == 17
        assert computational_indices(spec) == (0, 5, 15, 20)

    def test_flatten_bounds(self):
        spec = DirectSystemSpec(QA, QB, 0.01)
        with pytest.raises(ValueError):
            BasisIndex(3, 0).flatten(spec)
        with pytest.raises(ValueError):
            BasisIndex(0, 0, 1).flatten(spec)


class TestHamiltonianParts:
    @pytest.mark.parametrize("scale", [0.35, 1.0, 1.1])
    def test_direct_split_matches_builder(self, scale):
        spec = DirectSystemSpec(QA, QB, 0.0152)
        h0, h1 = hamiltonian_parts(spec)
        assert h0 + scale * h1 == pytest.approx(
            build_direct_hamiltonian(spec, scale).real, rel=1e-14, abs=1e-12
        )

    def test_indirect_split_matches_builder(self):
        spec = IndirectSystemSpec(QubitSpec(8.2, 0.2, 3), QubitSpec(8.45, 0.25, 3), 6.9, 0.2, 4)
        h0, h1 = hamiltonian_parts(spec)
        assert h0 + 1.07 * h1 == pytest.approx(
            build_indirect_hamiltonian(spec, 1.07).real, rel=1e-14, abs=1e-12
        )


def _reference_hamiltonian(spec, scale: float) -> np.ndarray:
    """H(scale) filled element by element from the level formula and the ladder matrix elements.

    Diagonal: n*freq - anharm*n*(n-1)/2 per qubit (qubit B's n*freq times
    ``scale``) plus n_c*cavity_freq.  Off the diagonal: g*sqrt(max(n, n'))
    per mode for each coupled pair that both change by one quantum while the
    other mode stays put.
    """
    cavity = isinstance(spec, IndirectSystemSpec)
    qubits = (spec.qubit_a, spec.qubit_b)
    dims = (qubits[0].n_levels, qubits[1].n_levels, spec.n_photons if cavity else 1)
    pairs = [(0, 2, spec.g_qc), (1, 2, spec.g_qc)] if cavity else [(0, 1, spec.g)]
    states = list(itertools.product(*(range(d) for d in dims)))  # cavity innermost
    h = np.zeros((len(states), len(states)))
    for row, bra in enumerate(states):
        for col, ket in enumerate(states):
            if bra == ket:
                energy = sum(
                    n * q.freq * s - q.anharm * n * (n - 1) / 2
                    for q, n, s in zip(qubits, bra, (1.0, scale))
                )
                h[row, col] = TWOPI * (energy + (bra[2] * spec.cavity_freq if cavity else 0.0))
                continue
            for i, j, g in pairs:
                (k,) = set(range(3)) - {i, j}
                if bra[k] == ket[k] and abs(bra[i] - ket[i]) == 1 and abs(bra[j] - ket[j]) == 1:
                    h[row, col] += TWOPI * g * math.sqrt(max(bra[i], ket[i]) * max(bra[j], ket[j]))
    return h


class TestAssemblyAgainstReference:
    SPECS = {
        "direct": (
            DirectSystemSpec(QubitSpec(5.5, 0.15, 3), QubitSpec(5.7, 0.10, 4), 0.02),
            build_direct_hamiltonian,
        ),
        "cavity": (
            IndirectSystemSpec(QubitSpec(8.2, 0.2, 3), QubitSpec(8.45, 0.25, 3), 6.9, 0.2, 4),
            build_indirect_hamiltonian,
        ),
    }

    @pytest.mark.parametrize("scale", [0.35, 1.0, 1.1, 1.4])
    @pytest.mark.parametrize("kind", ["direct", "cavity"])
    def test_parts_and_builders_match_elementwise_reference(self, kind, scale):
        spec, build = self.SPECS[kind]
        ref = _reference_hamiltonian(spec, scale)
        assert ref.shape == (spec.dim, spec.dim)
        h0, h1 = hamiltonian_parts(spec)
        tol = 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(h0 + scale * h1 - ref)) <= tol
        assert np.max(np.abs(build(spec, scale) - ref)) <= tol

    @pytest.mark.parametrize("kind", ["direct", "cavity"])
    def test_parts_are_real_and_exactly_symmetric(self, kind):
        # propagate_schedule reuses a retraced segment's transpose, which needs both
        for h in hamiltonian_parts(self.SPECS[kind][0]):
            assert h.dtype == np.float64
            assert np.array_equal(h, h.T)


class TestHamiltonianPartsStack:
    @pytest.mark.parametrize("kind", ["direct", "cavity"])
    def test_entries_are_the_single_spec_parts_bit_for_bit(self, kind):
        # a sweep stack and a single gate run must propagate the same matrices
        spec = TestAssemblyAgainstReference.SPECS[kind][0]
        specs = [
            replace(spec, qubit_b=QubitSpec(spec.qubit_b.freq + 0.01 * k, 0.05 * k, spec.qubit_b.n_levels))
            for k in range(4)
        ]
        h0s, d1s = hamiltonian_parts_rows(spec.sizes, parameter_rows(specs))
        assert h0s.shape == (4, spec.dim, spec.dim) and d1s.shape == (4, spec.dim)
        assert h0s.dtype == d1s.dtype == np.float64
        for h0_k, d1_k, s in zip(h0s, d1s, specs):
            h0, h1 = hamiltonian_parts(s)
            assert np.array_equal(h0_k, h0) and np.array_equal(np.diag(d1_k), h1)
            assert np.array_equal(h0_k, h0_k.T)

    @staticmethod
    def cavity_specs(levels: int, n: int):
        """``n`` cavity specs with both qubits at ``levels`` levels (d = 5 levels^2) and their own couplings and qubit B."""
        qubit = QubitSpec(8.2, 0.2, levels)
        return [
            IndirectSystemSpec(qubit, QubitSpec(8.45 + 0.01 * k, 0.25, levels), 6.9, 0.05 + 0.01 * k)
            for k in range(n)
        ]

    @staticmethod
    def dense_parts_stack(specs):
        """``hamiltonian_parts_rows`` with each coupling added as a dense (n, d, d) product and d1 as an outer sum."""
        levels, couplings = hamiltonians._row_modes(specs[0].sizes, parameter_rows(specs))
        diag = hamiltonians._outer_sum(levels)
        n, d = diag.shape
        h0 = np.zeros((n, d, d))
        h0[:, np.arange(d), np.arange(d)] = diag
        sizes = specs[0].sizes
        for i, j, g in couplings:
            h0 += (TWOPI * g)[:, None, None] * dense_coupling(sizes, i, j)
        # qubit B's scaled ladder on the product basis, with zero ladders for the other modes
        scaled = [np.zeros((n, size)) for size in sizes]
        scaled[1] = TWOPI * np.array([[s.qubit_b.freq] for s in specs]) * np.arange(sizes[1], dtype=float)
        d1 = hamiltonians._outer_sum(scaled)
        h0[:, np.arange(d), np.arange(d)] -= d1
        return h0, d1

    @pytest.mark.parametrize(
        "sizes, row, named",
        [
            ((3, 3), [5.5, 1e308, 0.15, 0.1, 0.011], ["freq_b = 1e+308 GHz"]),
            ((3, 3), [1e308, 1e308, 0.15, 0.1, 0.011], ["freq_a = 1e+308 GHz", "freq_b = 1e+308 GHz"]),
            # the anharmonicity enters from the third level on: at two levels 1e308 is harmless
            ((3, 2), [5.5, 5.5, 0.15, 1e308, 0.011], None),
            ((3, 3), [5.5, 5.5, 0.15, 1e308, 0.011], ["anharm_b = 1e+308 GHz"]),
            # each term alone is finite, and their sum on the top level is not
            ((3, 3), [1e307, 1e307, 0.15, 0.1, 0.011], ["freq_a = 1e+307 GHz", "freq_b = 1e+307 GHz"]),
            ((3, 3), [5.5, 5.5, 0.15, 0.1, 1e308], ["g = 1e+308 GHz"]),
            ((3, 3, 5), [8.2, 8.45, 0.2, 0.25, 0.199, 1e308], ["cavity_freq = 1e+308 GHz"]),
            ((3, 3, 5), [8.2, 8.45, 0.2, 0.25, 1e308, 6.9], ["g_qc = 1e+308 GHz"]),
        ],
        ids=["freq_b", "both-freqs", "anharm-at-two-levels", "anharm_b", "sum", "g", "cavity_freq", "g_qc"],
    )
    def test_a_system_that_overflows_is_named_at_its_point_without_a_warning(self, sizes, row, named):
        fine = [8.2, 8.45, 0.2, 0.25, 0.199, 6.9][: len(row)]
        rows = np.array([fine, row, fine])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if named is None:
                h0, d1 = hamiltonian_parts_rows(sizes, rows)
                assert np.isfinite(h0).all() and np.isfinite(d1).all()
                return
            with pytest.raises(OverflowError) as exc:
                hamiltonian_parts_rows(sizes, rows)
        assert str(exc.value) == f"the Hamiltonian overflows a float at {', '.join(named)}"

    def test_an_overflowing_spec_raises_from_every_builder(self):
        spec = DirectSystemSpec(QA, QubitSpec(1e308, 0.1), 0.011)
        for build in (hamiltonian_parts, build_direct_hamiltonian):
            with pytest.raises(OverflowError, match="freq_b = 1e\\+308 GHz"):
                build(spec)

    @pytest.mark.parametrize("specs", [
        [TestAssemblyAgainstReference.SPECS["direct"][0], replace(TestAssemblyAgainstReference.SPECS["direct"][0], g=0.0)],
        cavity_specs(3, 4),
        cavity_specs(5, 3),
    ], ids=["direct", "cavity-45", "cavity-125"])
    def test_sparse_couplings_equal_the_dense_sum_bit_for_bit(self, specs):
        h0, d1 = hamiltonian_parts_rows(specs[0].sizes, parameter_rows(specs))
        dense_h0, dense_d1 = self.dense_parts_stack(specs)
        assert np.array_equal(h0, dense_h0) and np.array_equal(d1, dense_d1)

    @pytest.mark.parametrize("levels", [3, 5])
    def test_a_stack_peaks_near_its_own_size(self, levels):
        # numpy reports its allocations to tracemalloc; the first call builds the cached coupling factors
        specs = self.cavity_specs(levels, 20)
        d = specs[0].dim
        hamiltonian_parts_rows(specs[0].sizes, parameter_rows(specs))
        tracemalloc.start()
        try:
            hamiltonian_parts_rows(specs[0].sizes, parameter_rows(specs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * d * d * 8 * len(specs)


levels = st.integers(2, 5)
qubits = st.builds(
    QubitSpec,
    freq=st.floats(4.0, 9.0),
    anharm=st.one_of(st.just(0.0), st.floats(0.0, 0.4)),
    n_levels=levels,
)
couplings = st.one_of(st.just(0.0), st.floats(0.0, 0.3))
direct_specs = st.builds(DirectSystemSpec, qubits, qubits, couplings)
cavity_specs = st.builds(IndirectSystemSpec, qubits, qubits, st.floats(4.0, 9.0), couplings, levels)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(spec=st.one_of(direct_specs, cavity_specs))
def test_scaled_part_is_diagonal(spec):
    # the ramp exponentials in ``evolution`` vary only the diagonal along a ramp
    _, h1 = hamiltonian_parts(spec)
    assert np.array_equal(h1, np.diag(np.diagonal(h1)))


class TestParityBlocks:
    @staticmethod
    def excitation_parity(spec):
        """Parity of n_a + n_b (+ n_c) of each flattened index, through ``BasisIndex``."""
        cavity = range(spec.n_photons) if isinstance(spec, IndirectSystemSpec) else [None]
        parity = np.full(spec.dim, -1)
        for n_a, n_b, n_c in itertools.product(
            range(spec.qubit_a.n_levels), range(spec.qubit_b.n_levels), cavity
        ):
            parity[BasisIndex(n_a, n_b, n_c).flatten(spec)] = (n_a + n_b + (n_c or 0)) % 2
        return parity

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(spec=st.one_of(direct_specs, cavity_specs), scale=st.floats(0.5, 1.5))
    def test_hamiltonians_vanish_exactly_between_parities(self, spec, scale):
        even, odd = parity_blocks(spec)
        parity = self.excitation_parity(spec)
        assert np.array_equal(even, np.flatnonzero(parity == 0))
        assert np.array_equal(odd, np.flatnonzero(parity == 1))
        cross = np.ix_(even, odd)
        h0, h1 = hamiltonian_parts(spec)
        for h in (h0, h1, h0 + scale * h1, hamiltonian_parts_rows(spec.sizes, parameter_rows([spec, spec]))[0][1]):
            assert not h[cross].any() and not h.T[cross].any()

    def test_blocks_follow_the_mode_sizes_not_the_couplings(self):
        # with g = 0 the matrix is diagonal, yet the blocks are the same two sets
        coupled = DirectSystemSpec(QA, replace(QB, n_levels=4), 0.02)
        uncoupled = replace(coupled, g=0.0)
        assert parity_blocks(coupled) is parity_blocks(uncoupled)
        even, odd = parity_blocks(coupled)
        assert even.tolist() == [0, 2, 5, 7, 8, 10]
        assert odd.tolist() == [1, 3, 4, 6, 9, 11]
        assert not even.flags.writeable and not odd.flags.writeable

    def test_cavity_blocks_are_half_the_space(self):
        spec = IndirectSystemSpec(QubitSpec(8.2, 0.2, 5), QubitSpec(8.45, 0.25, 5), 6.9, 0.2)
        assert [len(block) for block in parity_blocks(spec)] == [63, 62]


class TestCouplingFactors:
    def test_built_once_per_truncation_and_pair_and_read_only(self):
        spec = TestAssemblyAgainstReference.SPECS["cavity"][0]
        hamiltonians._coupling.cache_clear()
        hamiltonian_parts(spec)
        other = replace(spec, g_qc=0.1, qubit_a=replace(spec.qubit_a, freq=8.0))
        hamiltonian_parts(other)
        hamiltonian_parts_rows(spec.sizes, parameter_rows([spec, other]))
        info = hamiltonians._coupling.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        operator, rows, cols, values = hamiltonians._coupling((3, 3, 4), 0, 2)
        dense = dense_coupling((3, 3, 4), 0, 2)
        assert np.array_equal(operator, dense)
        assert np.array_equal(np.argwhere(dense), np.column_stack([rows, cols]))
        assert np.array_equal(values, dense[rows, cols])
        for x in (operator, rows, cols, values):
            with pytest.raises(ValueError):
                x[0] = 1
