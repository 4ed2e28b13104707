import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.optimize import minimize_scalar

from scgates import (
    CZ,
    ISWAP,
    DirectSystemSpec,
    IndirectSystemSpec,
    QubitSpec,
    effective_couplings,
    gate_fidelity,
    gate_target,
    gate_time,
    phase_diagonal,
    project_computational,
    run_gate,
)
from scgates import gates
from scgates.gates import _condition_roots, _polymul, score_blocks

ISWAP_SPEC = DirectSystemSpec(QubitSpec(5.5, 0.15, 3), QubitSpec(5.5, 0.10, 3), 0.011)


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_contraction(rng):
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return z / max(1.0, np.linalg.svd(z, compute_uv=False)[0])


class TestTargets:
    def test_matrices_are_unitary(self):
        for target in (ISWAP, CZ):
            u = target.matrix
            assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-15)

    def test_lookup(self):
        assert gate_target("ISWAP") is ISWAP
        assert gate_target("cz") is CZ
        with pytest.raises(ValueError):
            gate_target("cnot")


class TestProjection:
    def test_identity_projects_to_identity(self):
        assert np.array_equal(project_computational(np.eye(9), ISWAP_SPEC), np.eye(4))

    def test_permutation_block(self):
        u = np.eye(9)
        u[[1, 3]] = u[[3, 1]]  # swap |01> and |10| rows in the full space
        m = project_computational(u, ISWAP_SPEC)
        expected = np.eye(4)
        expected[[1, 2]] = expected[[2, 1]]
        assert np.array_equal(m, expected)

    def test_indirect_projection_uses_cavity_vacuum(self):
        spec = IndirectSystemSpec(QubitSpec(8.2, 0.2, 3), QubitSpec(8.45, 0.25, 3), 6.9, 0.1, 5)
        u = np.diag(np.arange(45, dtype=complex))
        m = project_computational(u, spec)
        assert np.array_equal(np.diag(m).real, [0, 5, 15, 20])

    def test_submatrix_of_unitary_is_contraction(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = project_computational(random_unitary(9, rng), ISWAP_SPEC)
            assert np.linalg.svd(m, compute_uv=False)[0] <= 1 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project_computational(np.eye(8), ISWAP_SPEC)


class TestGateFidelity:
    def test_exact_target_gives_unity_at_zero_phases(self):
        res = gate_fidelity(ISWAP.matrix, ISWAP)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert (res.theta_a, res.theta_b, res.theta_global) == (0.0, 0.0, 0.0)

    def test_total_leakage_floor(self):
        res = gate_fidelity(np.zeros((4, 4)), CZ)
        assert res.fidelity == pytest.approx(0.75, abs=1e-15)
        assert res.leakage == pytest.approx(1.0, abs=1e-15)
        # degenerate maximum resolves to the first grid point
        assert (res.theta_a, res.theta_b, res.theta_global) == (0.0, 0.0, 0.0)

    def test_global_phase_is_absorbed(self):
        for phi in (0.3, 2.1, 4.9):
            res = gate_fidelity(np.exp(1j * phi) * CZ.matrix, CZ)
            assert res.fidelity == pytest.approx(1.0, abs=1e-11)

    def test_global_phase_invariance_on_random_blocks(self):
        rng = np.random.default_rng(11)
        m = random_contraction(rng)
        f0 = gate_fidelity(m, ISWAP).fidelity
        for phi in rng.uniform(0, 2 * np.pi, size=5):
            assert gate_fidelity(np.exp(1j * phi) * m, ISWAP).fidelity == pytest.approx(
                f0, abs=1e-10
            )

    def test_optimum_beats_random_phase_triples(self):
        rng = np.random.default_rng(23)
        m = random_contraction(rng)
        res = gate_fidelity(m, CZ)
        w = (m * CZ.matrix.conj()).sum(axis=1)
        base = 1 - (4 + (np.abs(m) ** 2).sum()) / 16
        f_zero = base + w.real.sum() / 8
        assert res.fidelity >= f_zero
        for _ in range(1000):
            ta, tb, tg = rng.uniform(0, 2 * np.pi, size=3)
            d = np.diag(phase_diagonal(ta, tb, tg))
            f = base + (d @ w).real / 8
            assert res.fidelity >= f - 1e-12

    def test_matches_explicit_norm_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_contraction(rng)
            res = gate_fidelity(m, ISWAP)
            d = phase_diagonal(res.theta_a, res.theta_b, res.theta_global)
            f_direct = 1 - np.linalg.norm(ISWAP.matrix - d @ m, "fro") ** 2 / 16
            assert res.fidelity == pytest.approx(f_direct, abs=1e-12)
            assert 0.0 <= res.fidelity <= 1.0
            assert 0.0 <= res.leakage <= 1.0

    def test_phases_reported_in_principal_range(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            res = gate_fidelity(random_contraction(rng), CZ)
            for th in (res.theta_a, res.theta_b, res.theta_global):
                assert 0.0 <= th < 2 * np.pi

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            gate_fidelity(np.eye(3), CZ)

    def test_contraction_where_a_local_search_stops_short(self):
        # the 51st contraction drawn from default_rng(1); a grid plus cyclic
        # golden-section search reported 0.759204523 here
        rng = np.random.default_rng(1)
        for _ in range(51):
            m = random_contraction(rng)
        assert gate_fidelity(m, CZ).fidelity == pytest.approx(0.759294183, abs=1e-9)

    @pytest.mark.parametrize("target", [ISWAP, CZ], ids=["iswap", "cz"])
    def test_compensated_scaled_target_is_closed_form(self, target):
        # both terms of the one-angle objective peak together here, so the
        # stationarity polynomial vanishes identically
        for theta_a in (0.0, 0.4, 1.3, 2.9, 4.2):
            for s in (0.3, 0.8, 0.99):
                m = phase_diagonal(theta_a, 1.1, 2.5) @ (s * target.matrix)
                res = gate_fidelity(m, target)
                assert res.fidelity == pytest.approx(1 - (1 - s) ** 2 / 4, abs=1e-12)

    def test_negligible_rows_are_scored_like_zero_rows(self):
        # rows of 1e-160 would underflow the cubic coefficients of the root finder
        rng = np.random.default_rng(29)
        for rows in ([0, 1], [2, 3], [1]):
            m = random_contraction(rng)
            tiny, zeroed = m.copy(), m.copy()
            tiny[rows] *= 1e-160
            zeroed[rows] = 0.0
            for target in (ISWAP, CZ):
                f_zeroed = gate_fidelity(zeroed, target).fidelity
                assert gate_fidelity(tiny, target).fidelity == pytest.approx(f_zeroed, abs=1e-15)


    def test_row_products_match_polymul(self):
        # summed in array order, where polymul sums through np.convolve
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 5)) + 1j * rng.normal(size=(20, 5))
        y = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
        for got, xi, yi in zip(_polymul(x, y), x, y):
            ref = P.polymul(xi, yi)
            assert np.max(np.abs(got - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))

    def test_stacked_roots_are_polyroots_in_its_order(self):
        # the tie rule between candidates depends on the order of the roots
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(12, 7))
        rows[3, 6:] = 0.0  # degree 5: one root t = inf
        rows[5, 5:] = 0.0  # degree 4: two
        rows[7, 1:] = 0.0  # degree 0: six, and no finite root
        rows[9] = 0.0  # no roots
        stacked = _condition_roots(rows)
        for got, r in zip(stacked, rows):
            roots = P.polyroots(r)
            assert np.array_equal(got[: len(roots)], roots)
            assert np.all(got[len(roots) :] == (np.inf if r.any() else 0.0))
        assert [np.sum(np.isinf(got)) for got in stacked[[3, 5, 7, 9]]] == [1, 2, 6, 0]

    @staticmethod
    def condition_rows(m, target, monkeypatch):
        """The rows of R that ``score_blocks`` solves for the blocks ``m``, and the scaled overlaps u they come from."""
        seen = []
        solve = gates._condition_roots
        monkeypatch.setattr(gates, "_condition_roots", lambda r: seen.append(r) or solve(r))
        score_blocks(m, target)
        w = (m * target.matrix.conj()).sum(axis=2)
        return seen[0], w / np.abs(w).max(axis=1, keepdims=True)

    @staticmethod
    def stationarity_terms(u, theta_a):
        """Im(p_j z) and |S_j| at each angle, for j = 1, 2 along the last axis."""
        e = np.exp(1j * theta_a)[:, None]
        p = 2 * u[:2] * u[2:].conj()
        return (p * e**2).imag, np.abs(u[:2] * e + u[2:] / e)

    @pytest.mark.parametrize("target", [ISWAP, CZ], ids=["iswap", "cz"])
    def test_tan_polynomial_is_the_squared_condition(self, target, monkeypatch):
        # R(t) = (1 + t^2)^3 (Im(p_1 z)^2 |S_2|^2 - Im(p_2 z)^2 |S_1|^2) at z = e^{2i theta_a}, t = tan theta_a
        rng = np.random.default_rng(8)
        m = np.array([random_contraction(rng) for _ in range(6)])
        rows, u = self.condition_rows(m, target, monkeypatch)
        t = np.linspace(-3.0, 3.0, 13)
        for r, u_k in zip(rows, u):
            im, mod = self.stationarity_terms(u_k, np.arctan(t))
            ref = (1 + t**2) ** 3 * (im[:, 0] ** 2 * mod[:, 1] ** 2 - im[:, 1] ** 2 * mod[:, 0] ** 2)
            assert np.max(np.abs(P.polyval(t, r) - ref)) <= 1e-13 * np.max((1 + t**2) ** 3)

    @pytest.mark.parametrize("target", [ISWAP, CZ], ids=["iswap", "cz"])
    def test_real_tan_roots_are_stationary_points(self, target, monkeypatch):
        # the squared condition holds where d/dtheta_a of |S_1| + |S_2| or of |S_1| - |S_2| vanishes,
        # d|S_j|/dtheta_a being -Im(p_j z)/|S_j|; the maximum of |S_1| + |S_2| is at one of them
        rng = np.random.default_rng(11)
        m = np.array([random_contraction(rng) for _ in range(40)])
        rows, u = self.condition_rows(m, target, monkeypatch)
        scan = np.linspace(0.0, np.pi, 4097)
        matched = 0
        for r, u_k in zip(rows, u):
            t = P.polyroots(r)
            theta_a = np.arctan(t[t.imag == 0].real)
            im, mod = self.stationarity_terms(u_k, theta_a)
            slope = im / mod
            assert np.all(np.minimum(*np.abs([slope.sum(axis=1), slope[:, 0] - slope[:, 1]])) <= 1e-10)
            peak = self.stationarity_terms(u_k, scan)[1].sum(axis=1).max()
            assert mod.sum(axis=1).max() >= peak - 1e-12
            matched += len(theta_a)
        assert matched >= 80

    @pytest.mark.parametrize("target", [ISWAP, CZ], ids=["iswap", "cz"])
    def test_degenerate_overlaps_match_a_phase_scan(self, target):
        # m = diag(w) U_T has the overlaps w.  Real overlaps make p real, so
        # C(-1) = 0 and a stationary point sits at theta_a = pi/2; w_1 = 0
        # makes p_2 = 0, so C loses its degree and R has the root t = -i; and
        # w = (x, conj(x), y, conj(y)) keeps C(-1) = 0 with p complex.
        rng = np.random.default_rng(13)
        rows = []
        for _ in range(30):
            x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
            rows += [rng.normal(size=4), rng.normal(size=4) * [1, 0, 1, 1], [x, x.conjugate(), y, y.conjugate()]]
        w = np.array(rows, dtype=complex)
        w /= 1.01 * np.abs(w).max(axis=1, keepdims=True)
        for overlaps in w:
            m = overlaps[:, None] * target.matrix
            res = gate_fidelity(m, target)
            assert np.isfinite([res.fidelity, res.theta_a, res.theta_b, res.theta_global]).all()
            assert res.fidelity == pytest.approx(_scanned_fidelity(m, target), abs=1e-12)
            assert res.fidelity == pytest.approx(explicit_fidelity(m, target, res), abs=1e-12)


def _scanned_fidelity(m, target):
    """Phase-optimized fidelity from a theta_a scan of |S_1| + |S_2|, polished by a bounded search."""
    w = (m * target.matrix.conj()).sum(axis=1)

    def value(theta_a):
        e = np.exp(1j * theta_a)
        return abs(w[0] * e + w[2] / e) + abs(w[1] * e + w[3] / e)

    grid = np.linspace(0.0, np.pi, 4097)
    i = int(np.argmax([value(x) for x in grid]))
    polish = minimize_scalar(
        lambda x: -value(x), bounds=(grid[max(i - 1, 0)], grid[min(i + 1, 4096)]),
        method="bounded", options={"xatol": 1e-12},
    )
    best = max(value(grid[i]), -polish.fun)
    return 1 - (4 + np.sum(np.abs(m) ** 2)) / 16 + best / 8


def explicit_fidelity(m, target, res):
    d = phase_diagonal(res.theta_a, res.theta_b, res.theta_global)
    return 1 - np.linalg.norm(target.matrix - d @ m, "fro") ** 2 / 16


class TestGateTime:
    def test_direct_formulas(self):
        assert gate_time(ISWAP_SPEC, ISWAP) == pytest.approx(1 / (4 * 0.011))
        spec = DirectSystemSpec(ISWAP_SPEC.qubit_a, ISWAP_SPEC.qubit_b, 0.0091)
        assert gate_time(spec, CZ) == pytest.approx(1 / (2 * np.sqrt(2) * 0.0091))

    def test_indirect_uses_effective_couplings(self):
        spec = IndirectSystemSpec(QubitSpec(8.2, 0.2, 3), QubitSpec(8.45, 0.25, 3), 6.9, 0.199)
        c = effective_couplings(spec)
        assert gate_time(spec, CZ) == pytest.approx(1 / (2 * np.sqrt(2) * c.g_eff_1))
        assert gate_time(spec, ISWAP) == pytest.approx(1 / (4 * c.g_eff_3))

    def test_zero_coupling_rejected(self):
        spec = DirectSystemSpec(ISWAP_SPEC.qubit_a, ISWAP_SPEC.qubit_b, 0.0)
        with pytest.raises(ValueError):
            gate_time(spec, ISWAP)


class TestRunGate:
    def test_weak_coupling_limit(self):
        # at g a factor 100 below the anharmonicity the exchange is almost ideal
        spec = DirectSystemSpec(ISWAP_SPEC.qubit_a, ISWAP_SPEC.qubit_b, 0.001)
        res = run_gate(spec, ISWAP)
        assert res.fidelity > 0.9999

    def test_near_published_iswap_point(self):
        res = run_gate(ISWAP_SPEC, ISWAP)
        assert res.fidelity == pytest.approx(0.9952, abs=0.001)

    def test_iswap_anharmonicity_exchange_symmetry(self):
        spec_swapped = DirectSystemSpec(
            QubitSpec(5.5, 0.10, 3), QubitSpec(5.5, 0.15, 3), 0.011
        )
        f1 = run_gate(ISWAP_SPEC, ISWAP).fidelity
        f2 = run_gate(spec_swapped, ISWAP).fidelity
        assert abs(f1 - f2) < 1e-9

    def test_detuned_iswap_warns(self):
        spec = DirectSystemSpec(QubitSpec(5.5, 0.15, 3), QubitSpec(5.6, 0.10, 3), 0.011)
        with pytest.warns(UserWarning, match="resonance condition"):
            run_gate(spec, ISWAP)

    def test_detuned_cz_warns(self):
        spec = DirectSystemSpec(QubitSpec(7.16, 0.087, 3), QubitSpec(7.3, 0.114, 3), 0.0091)
        with pytest.warns(UserWarning, match="resonance condition"):
            run_gate(spec, CZ)


def _optimal_theta_a(m: np.ndarray, target, start: float) -> float:
    """The stationary point of |S_1| + |S_2| nearest ``start``, found to 40 digits from the block's exact entries."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        w = [mpmath.fsum(mpmath.mpc(x) * mpmath.conj(mpmath.mpc(y)) for x, y in zip(row, conj_row)) for row, conj_row in zip(m, target.matrix)]
        p = [2 * w[0] * mpmath.conj(w[2]), 2 * w[1] * mpmath.conj(w[3])]

        def slope(theta):
            # d(|S_1| + |S_2|)/d theta_a = -sum_j Im(p_j z) / |S_j|, z = e^{2 i theta_a}
            z = mpmath.expj(2 * theta)
            sums = [abs(w[0] * mpmath.expj(theta) + w[2] * mpmath.expj(-theta)), abs(w[1] * mpmath.expj(theta) + w[3] * mpmath.expj(-theta))]
            return -sum(mpmath.im(pj * z) / s for pj, s in zip(p, sums))

        return float(mpmath.findroot(slope, mpmath.mpf(start)))


class TestPhaseToRoundOff:
    def test_theta_a_of_a_nearly_cancelling_condition_is_the_optimum_to_a_few_ulp(self):
        # the plans_sweep CI config's delta_b = 0.3 row: a nearly compensated CZ block whose two
        # terms peak at close angles, where R's two products nearly cancel and its roots give
        # theta_a to about 1e-13 only
        from scgates.evolution import schedule_segments, trapezoid_schedule
        from scgates.hamiltonians import parameter_rows
        from scgates.sweeps import SweepAxis, SweepBase, derive_point_spec

        base = SweepBase(DirectSystemSpec(QubitSpec(5.5, 0.15, 3), QubitSpec(5.6, 0.10, 3), 0.01), "cz", tau_d=5.0)
        spec = derive_point_spec(base, (SweepAxis("delta_b_abs", 0.05, 0.3, 6),), (0.3,))
        schedule = trapezoid_schedule(5.0, gate_time(spec, CZ))
        (m,), _ = gates.stack_blocks(spec.sizes, parameter_rows([spec]), *schedule_segments([schedule]), base.dt)
        _, (theta_a,), _, _, _ = score_blocks(m[None], CZ)
        optimum = _optimal_theta_a(m, CZ, theta_a)
        assert abs(theta_a - optimum) <= 4 * np.spacing(optimum)

    @pytest.mark.parametrize("target", [ISWAP, CZ], ids=["iswap", "cz"])
    def test_the_newton_step_never_lowers_the_fidelity(self, target, monkeypatch):
        # against theta_a taken from R's roots alone: the step moves theta_a by round-off, and
        # where it would lower |S_1| + |S_2| by an ulp it is not taken
        rng = np.random.default_rng(3)
        m = np.array([random_contraction(rng) for _ in range(2000)])
        polished = score_blocks(m, target)
        monkeypatch.setattr(gates, "_newton_step", lambda w, theta_a, moduli, value: (theta_a, value))
        roots = score_blocks(m, target)
        assert (polished[0] >= roots[0]).all()
        moved = np.abs(polished[1] - roots[1])
        moved = np.minimum(moved, np.pi - moved)
        assert 0 < moved.max() <= 1e-10
