from pathlib import Path

import numpy as np
import pytest

from debye_forge import response as R
from debye_forge.fibers import compute_bands, den_from_matrix, shift_overlap_tensor
from debye_forge.lattice import Lattice, PeriodicField, PlaneWaveBasis, monkhorst_pack
from debye_forge.occupation import OccupationModel
from oracles import all_q_zone_average, m_fiber_apply_contour

LAT = Lattice(np.array([[2 * np.pi]]))
BASIS = PlaneWaveBasis(LAT, ecut=50.0)
PHI = PeriodicField.from_callable(BASIS, lambda x: 2.0 * np.cos(x))
ZERO = PeriodicField.zeros(BASIS)
KGRID = monkhorst_pack(LAT, 8)


def midgap_mu():
    bands = compute_bands(BASIS, PHI, KGRID)
    lo, hi = bands.band_ranges()
    return float(0.5 * (hi[0] + lo[1]))


MU = midgap_mu()


@pytest.fixture(scope="module")
def ws():
    return R.ResponseWorkspace(BASIS, PHI, OccupationModel(T=1 / 20, mu=MU))


@pytest.fixture(scope="module")
def ws_free():
    return R.ResponseWorkspace(BASIS, ZERO, OccupationModel(T=1 / 20, mu=-1.0))


def test_workspace_fiber_at_minus_k_from_k(monkeypatch):
    # -k is the time-reversed fiber of a cached k, not a second eigh
    w = R.ResponseWorkspace(BASIS, PHI, OccupationModel(T=1 / 20, mu=MU))
    calls = []
    direct = R.diagonalize_fiber

    def counted(H):
        calls.append(1)
        return direct(H)

    monkeypatch.setattr(R, "diagonalize_fiber", counted)
    k = np.array([0.3])
    e, U = w.fiber(k)
    e_m, U_m = w.fiber(-k)
    assert len(calls) == 1
    assert e_m is e and np.array_equal(U_m, U[BASIS.negation_index].conj())
    Hm = R.assemble_fiber(BASIS, PHI, -k)
    assert np.abs(Hm @ U_m - U_m * e[None, :]).max() <= 1e-12 * np.abs(e).max()


class TestMFiber:
    def test_hermitian_and_psd(self, ws):
        for k in ([0.0], [0.13], [-0.31]):
            M = R.m_fiber(ws, k)
            assert np.abs(M - M.conj().T).max() < 1e-10
            lam = np.linalg.eigvalsh(M).min()
            assert lam >= -1e-10 * np.linalg.norm(M, 2)

    def test_m0_applied_to_constant_is_V(self, ws):
        M0 = R.m_fiber(ws, [0.0])
        V = R.screening_density_V(ws)
        assert np.abs(M0[:, 0] - V.coeffs).max() < 1e-13

    def test_free_crystal_fiber_diagonal(self, ws_free):
        M = R.m_fiber(ws_free, [0.2])
        off = M - np.diag(np.diag(M))
        assert np.abs(off).max() < 1e-14

    def test_fd_jacobian_of_gamma_density(self, ws):
        from debye_forge.fibers import density_from_potential

        def density(phi):
            return density_from_potential(phi, ws.occ, compute_bands(BASIS, phi, kg), tail_tol=1.0)

        M0 = R.m_fiber(ws, [0.0])
        rng = np.random.default_rng(0)
        c = rng.standard_normal(BASIS.n_pw) + 1j * rng.standard_normal(BASIS.n_pw)
        c = 0.5 * (c + np.conj(c[BASIS.negation_index]))
        c /= np.linalg.norm(c)
        kg = np.zeros((1, 1))
        errs = []
        for h in (2e-3, 1e-3, 5e-4):
            rp = density(PeriodicField(BASIS, PHI.coeffs + h * c))
            rm = density(PeriodicField(BASIS, PHI.coeffs - h * c))
            errs.append(np.linalg.norm((rp.coeffs - rm.coeffs) / (2 * h) - M0 @ c))
        slope = np.polyfit(np.log([2e-3, 1e-3, 5e-4]), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.1

    def test_fiber_periodicity_relabelling(self, ws):
        # phase-conjugated reassembly: the response fiber satisfies
        # M_{k + W}[G + G0, G' + G0] = M_k[G, G'] for W = G0 reciprocal
        # (the k-fiber of the pair relabels while the 0-fiber is pinned).
        # The identity is exact away from the cutoff shell, which
        # truncates differently on the two sides, so compare the
        # interior block |G| <= gmax / 2.
        k = np.array([0.09])
        G0 = np.array([1])
        W = G0 @ LAT.reciprocal
        M1 = R.m_fiber(ws, k + W)
        M0 = R.m_fiber(ws, k)
        perm = np.array([BASIS.index_of(g + G0) for g in BASIS.g_ints])
        keep = perm >= 0
        gmax = int(np.abs(BASIS.g_ints).max())
        keep &= np.abs(BASIS.g_ints[:, 0]) <= gmax // 2
        diff = np.abs(
            M1[np.ix_(perm[keep], perm[keep])] - M0[np.ix_(keep, keep)]
        ).max()
        assert diff < 1e-9

    def test_gamma_grid_fiber_at_minus_k(self, ws):
        # the (0-fiber, k-fiber) pairing is the Gamma-only-grid fiber at -k
        gamma = np.zeros((1, 1))
        for k in (0.03, 0.2, -0.31):
            diff = np.abs(R.m_fiber(ws, [k]) - R.m_fiber_averaged(ws, [-k], gamma)).max()
            assert diff <= 1e-15
        assert np.array_equal(R.m_fiber(ws, [0.0]), R.m_fiber_averaged(ws, [0.0], gamma))

    def test_averaged_fiber_hermitian_psd(self, ws):
        M = R.m_fiber_averaged(ws, [1.0 / 8.0], KGRID)
        assert np.abs(M - M.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(M).min() >= -1e-12

    def test_den_trace_duality(self, ws):
        # int_Omega f den[A] = Tr(f A) for multiplication f and the
        # response integrand A = U (D o (U' W U)) U'^dagger
        rng = np.random.default_rng(2)
        e0, U0 = ws.gamma
        from debye_forge import kernels

        D = kernels.dd1_matrix(e0, e0, ws.occ.T, ws.occ.mu)
        cW = rng.standard_normal(BASIS.n_pw)
        cW = 0.5 * (cW + cW[BASIS.negation_index])
        from debye_forge.fibers import potential_matrix

        Wm = potential_matrix(PeriodicField(BASIS, cW.astype(complex)))
        A = U0 @ (D * (U0.conj().T @ Wm @ U0)) @ U0.conj().T
        dens = den_from_matrix(BASIS, A)
        f = PeriodicField(BASIS, rng.standard_normal(BASIS.n_pw).astype(complex))
        f_bar = np.conj(f.coeffs[BASIS.negation_index])  # coefficients of conj(f)
        lhs = LAT.volume * np.vdot(f_bar, dens)  # int f den[A]
        rhs = np.trace(potential_matrix(f) @ A)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


class TestScreening:
    @pytest.mark.parametrize("beta", [40, 60])
    def test_V_is_M0_constant_column(self, beta):
        # V and the pair blocks of M_0 drop the same diagonal pairs above
        # the pair window, so M_0 1 = V also in cold crystals
        cold = R.ResponseWorkspace(BASIS, PHI, OccupationModel(T=1 / beta, mu=MU))
        V = R.screening_density_V(cold)
        assert np.abs(cold.m0[:, 0] - V.coeffs).max() <= 1e-13
    def test_V_nonnegative_and_mass(self, ws):
        V = R.screening_density_V(ws)
        assert V.values().min() >= -1e-16
        m = R.screening_mass_m(ws)
        assert m > 0
        assert abs(m - V.integral().real) <= 1e-10 * m

    def test_free_V_constant_and_scalar_sum(self, ws_free):
        V = R.screening_density_V(ws_free)
        vals = V.values()
        assert np.abs(vals - vals.mean()).max() < 1e-13 * max(1.0, np.abs(vals).max())
        e = BASIS.kinetic_diagonal(np.zeros(1))
        oracle = np.sum(-ws_free.occ.occ_deriv(e))
        assert R.screening_mass_m(ws_free) == pytest.approx(oracle, rel=1e-13)

    def test_V_upper_bound_sweep(self):
        # ||V||_{L2_per} / (beta e^{-beta eta0}) stays bounded over beta
        ratios = []
        for beta in (5, 10, 20, 40):
            w = R.ResponseWorkspace(BASIS, PHI, OccupationModel(T=1 / beta, mu=MU))
            V = R.screening_density_V(w)
            e0, _ = w.gamma
            eta0 = np.min(np.abs(e0 - MU))
            ratios.append(V.l2_norm() / (beta * np.exp(-beta * eta0)))
        assert max(ratios) / min(ratios) < 10.0

    def test_m_lower_bound_sweep(self):
        for beta in (5, 10, 20, 40, 60):
            w = R.ResponseWorkspace(BASIS, PHI, OccupationModel(T=1 / beta, mu=MU))
            e0, _ = w.gamma
            eta0 = np.min(np.abs(e0 - MU))
            assert R.screening_mass_m(w) >= 0.25 * beta * np.exp(-beta * eta0)


class TestRhoPrime:
    def test_free_crystal_vanishes(self, ws_free):
        for comp in R.rho_prime(ws_free):
            assert comp.dtype == np.complex128
            assert np.abs(comp).max() < 1e-14

    def test_parity_odd_for_even_potential(self, ws):
        rp = R.rho_prime(ws)[0]
        vals = ws.basis.coeffs_to_grid(rp)
        flipped = np.roll(vals[::-1], 1)  # x -> -x on the periodic grid
        assert np.abs(vals + flipped).max() < 1e-10 * max(np.abs(vals).max(), 1e-30)
        # imaginary-valued as a function
        assert np.abs(vals.real).max() < 1e-12 * np.abs(vals).max()

    def test_matches_k_derivative_of_M1(self, ws):
        h = 1e-4
        Mp = R.m_fiber(ws, [h])
        Mm = R.m_fiber(ws, [-h])
        fd = (Mp[:, 0] - Mm[:, 0]) / (2 * h)
        rp = R.rho_prime(ws)[0]
        assert np.abs(fd - rp).max() < 1e-7

    def test_dual_route_contour(self, ws):
        rp_eig = R.rho_prime(ws)[0]
        rp_con = R.prime_terms_contour(ws, tol=1e-10)[1][0]
        assert np.abs(rp_eig - rp_con).max() < 1e-8


class TestEpsilon:
    def test_symmetric(self, ws):
        eps, ep, epp = R.epsilon_matrix(ws)
        assert np.abs(eps - eps.T).max() <= 1e-10

    def test_free_crystal_scalar_oracle(self, ws_free):
        # eps'' = 0 (rho' = 0); eps' from the diagonal momentum sums
        eps, ep, epp = R.epsilon_matrix(ws_free)
        assert abs(epp[0, 0]) < 1e-13
        from debye_forge.occupation import OccupationModel as OM
        from debye_forge import kernels

        e = BASIS.kinetic_diagonal(np.zeros(1))
        g = BASIS.g_cart[:, 0]
        D3 = kernels.dd3_matrix(e, e, ws_free.occ.T, ws_free.occ.mu)
        oracle = -(4.0 / LAT.volume) * np.sum(D3 * np.outer(g, g) * np.eye(len(g)))
        assert ep[0, 0] == pytest.approx(oracle, rel=1e-12, abs=1e-15)

    def test_three_routes_small(self, ws):
        eps_eig = R.epsilon_matrix(ws)[0][0, 0]
        eps_con = R.epsilon_matrix_contour(ws, tol=1e-9)[0, 0]
        kv = 0.1 * np.geomspace(1 / 64, 1, 16)
        samples = np.array([[s * x] for x in kv for s in (1, -1)])
        eps_fit = R.fit_b_expansion(ws, samples)[1][0, 0]
        assert abs(eps_eig - eps_con) < 1e-6
        assert abs(eps_eig - eps_fit) < 1e-5  # coarser basis than acceptance

    def test_contour_route_is_one_quadrature(self, ws, monkeypatch):
        calls = []
        quad = R.contour_quadrature
        monkeypatch.setattr(R, "contour_quadrature", lambda *a, **kw: calls.append(1) or quad(*a, **kw))
        R.epsilon_matrix_contour(ws, tol=1e-9)
        assert len(calls) == 1

    def test_criterion_7_quadrature_node_count(self, monkeypatch):
        # the contour eps of acceptance criterion 7 (Mathieu, beta = 40,
        # tol 1e-9) in at most 400 resolvent solves (744 without nested
        # levels), none repeated
        from debye_forge.acceptance import MathieuContext

        zs = []
        quad = R.contour_quadrature

        def counted(integrand, *args, **kwargs):
            return quad(lambda z: zs.append(z) or integrand(z), *args, **kwargs)

        monkeypatch.setattr(R, "contour_quadrature", counted)
        R.epsilon_matrix_contour(MathieuContext().workspace(40), tol=1e-9)
        assert 0 < len(zs) <= 400
        assert len(set(zs)) == len(zs)

    def test_m_fiber_contour_action(self, ws):
        rng = np.random.default_rng(6)
        c = rng.standard_normal(BASIS.n_pw) + 1j * rng.standard_normal(BASIS.n_pw)
        c = 0.5 * (c + np.conj(c[BASIS.negation_index]))
        w = PeriodicField(BASIS, c)
        k = [0.125]
        direct = R.m_fiber(ws, k) @ c
        via_contour, err = m_fiber_apply_contour(ws, k, w, tol=1e-10)
        assert np.abs(direct - via_contour).max() < 1e-8


class TestZeroTemperature:
    def test_free_no_occupied_states(self, ws_free):
        eps0 = R.epsilon_zero_temperature(ws_free)
        assert np.abs(eps0 - np.eye(1)).max() < 1e-14

    def test_symmetric_and_limit(self, ws):
        eps0 = R.epsilon_zero_temperature(ws)
        assert np.abs(eps0 - eps0.T).max() < 1e-12
        cold = R.ResponseWorkspace(BASIS, PHI, OccupationModel(T=1 / 80, mu=MU))
        eps_cold = R.epsilon_matrix(cold)[0]
        assert np.abs(eps_cold - eps0).max() < 1e-6

    def test_band_edge_refused(self):
        bands = compute_bands(BASIS, PHI, KGRID)
        i0 = bands.gamma_index()
        edge = float(bands.eigenvalues[i0][0])
        w = R.ResponseWorkspace(BASIS, PHI, OccupationModel(T=1 / 20, mu=edge))
        with pytest.raises(R.GaplessCrystalError):
            R.epsilon_zero_temperature(w)


class TestBFunction:
    def test_even(self, ws):
        for k in (0.05, 0.11, 0.23):
            assert abs(R.b_function(ws, [k]) - R.b_function(ws, [-k])) < 1e-10

    def test_b0_closed_form(self, ws):
        b0 = R.b_function(ws, np.zeros(1))
        m = R.screening_mass_m(ws)
        V = R.screening_density_V(ws)
        M0 = R.m_fiber(ws, np.zeros(1))
        sol = R._kbar_solve(R._operator_block(ws, M0), V.coeffs)
        closed = m / LAT.volume - np.vdot(V.coeffs, sol).real
        assert abs(b0 - closed) <= 1e-9 * abs(b0)
        assert R.b0_closed_form(ws, m, V) == pytest.approx(closed, rel=1e-12)

    def test_positive_at_small_k(self, ws):
        for k in (0.02, 0.08, 0.15):
            assert R.b_function(ws, [k]) > (1 - 1e-6) * k**2

    def test_fit_recovers_b0(self, ws):
        kv = 0.1 * np.geomspace(1 / 64, 1, 16)
        samples = np.array([[s * x] for x in kv for s in (1, -1)])
        b0f, epsf, quart = R.fit_b_expansion(ws, samples)
        b0 = R.b_function(ws, np.zeros(1))
        assert abs(b0f - b0) < 1e-10
        assert quart > 0

    def test_quartic_residual_scaling(self, ws):
        def qr(kmax):
            kv = kmax * np.geomspace(1 / 64, 1, 16)
            samples = np.array([[s * x] for x in kv for s in (1, -1)])
            return R.fit_b_expansion(ws, samples)[2]

        q1, q2 = qr(0.1), qr(0.05)
        slope = np.log2(q1 / q2)
        assert abs(slope - 4.0) <= 0.3

    @pytest.mark.parametrize("basis", [
        [[2 * np.pi]],
        [[2 * np.pi, 0.0], [0.0, 2 * np.pi]],
        [[2 * np.pi, 0.0], [np.pi, np.pi * np.sqrt(3.0)]],
        [[2 * np.pi, 0.0], [2.0, 5.5]],
        2 * np.pi * np.eye(3),
        [[2 * np.pi, 0.0, 0.0], [1.0, 5.5, 0.0], [0.7, 1.3, 5.0]],
    ], ids=["1d", "square", "hexagonal", "oblique", "cubic", "triclinic"])
    def test_fit_samples_design(self, basis):
        """The response stage's sample set is a full fit design on every
        lattice: the fit accepts it before any b(k) is evaluated."""
        from math import comb
        from types import SimpleNamespace

        lat = Lattice(np.array(basis, dtype=float))
        d, n = lat.d, 16
        kmax = 0.1 * np.linalg.norm(lat.reciprocal, axis=1).min()
        samples = R.b_fit_samples(lat, kmax, n)
        assert samples.shape == (2 * n * (d + comb(d, 2) + comb(d, 3)), d)
        ks, _ = R._b_fit(SimpleNamespace(basis=SimpleNamespace(lattice=lat)), samples)
        assert np.array_equal(ks, samples)
        keys = {k.tobytes() for k in samples}
        assert all((-k).tobytes() in keys for k in samples)

    def test_fit_samples_1d_match_the_axis_list(self):
        kv = 0.1 * np.geomspace(1 / 64, 1, 16)
        former = np.array([[s * x] for x in kv for s in (1, -1)])
        assert R.b_fit_samples(LAT, 0.1, 16).tobytes() == former.tobytes()

    def test_fit_preconditions(self, ws):
        with pytest.raises(ValueError, match="at least 12"):
            R.fit_b_expansion(ws, np.array([[0.01], [0.02]]))
        big = np.array([[x] for x in np.linspace(0.01, 0.5, 14)])
        with pytest.raises(ValueError, match="0.2"):
            R.fit_b_expansion(ws, big)


def test_one_coefficient_pass_builds_m0_and_rho_prime_once(monkeypatch):
    """M_0 and rho' are built once per pass and shared by eps'' and b(0)."""
    w = R.ResponseWorkspace(BASIS, PHI, OccupationModel(T=1 / 20, mu=MU))
    m0_builds, rho_builds = [], []
    averaged, rho_prime = R.m_fiber_averaged, R.rho_prime

    def counted_averaged(ws, k, k_grid):
        if not np.any(np.asarray(k)):
            m0_builds.append(1)
        return averaged(ws, k, k_grid)

    def counted_rho_prime(ws):
        rho_builds.append(1)
        return rho_prime(ws)

    monkeypatch.setattr(R, "m_fiber_averaged", counted_averaged)
    monkeypatch.setattr(R, "rho_prime", counted_rho_prime)
    coeffs = R.homogenized_coefficients(w, 0.05, eta0=0.8)
    assert (len(m0_builds), len(rho_builds)) == (1, 1)
    assert coeffs.b0 == R.b_function(w, np.zeros(1))
    eps, ep, epp = R.epsilon_matrix(w)
    assert np.array_equal(coeffs.eps, eps) and np.array_equal(coeffs.eps_dprime, epp)


class TestFeshbachEll:
    # the low-momentum symbol ell(k) = delta^-2 b(delta k)
    delta = 1.0 / 8.0

    def test_ell_chain(self, ws):
        nu = R.homogenized_coefficients(ws, self.delta, eta0=0.8).nu
        ell0 = self.delta**-2 * R.b_function(ws, [0.0])
        assert ell0 == pytest.approx(nu, rel=1e-12)

    def test_ell_lower_bound_scan(self, ws):
        for k in np.linspace(0.2, 3.0, 8):
            ell = self.delta**-2 * R.b_function(ws, [self.delta * k])
            assert ell >= (1 - 1e-6) * k**2


class TestRegime:
    def test_nu_definition(self, ws):
        info = R.homogenized_coefficients(ws, 0.05, eta0=0.8)
        assert info.nu == pytest.approx(info.b0 / 0.05**2, rel=1e-14)
        assert info.debye_length == pytest.approx(1 / np.sqrt(info.nu), rel=1e-14)

    def test_delta_one(self, ws):
        info = R.homogenized_coefficients(ws, 1.0, eta0=0.8)
        assert info.nu == pytest.approx(R.b_function(ws, np.zeros(1)), rel=1e-12)

    def test_m_within_cT_band(self):
        # 0 < c m_ratio <= m/(c_T) <= C over the beta sweep
        ratios = []
        for beta in (5, 10, 20, 40, 60):
            w = R.ResponseWorkspace(BASIS, PHI, OccupationModel(T=1 / beta, mu=MU))
            e0, _ = w.gamma
            eta0 = float(np.min(np.abs(e0 - MU)))
            info = R.homogenized_coefficients(w, 0.1, eta0=eta0)
            ratios.append(info.m / info.c_T)
        assert min(ratios) > 0.02
        assert max(ratios) < 50.0

    def test_nu_vanishes_at_low_T(self):
        nus = []
        for beta in (10, 20, 40, 80):
            w = R.ResponseWorkspace(BASIS, PHI, OccupationModel(T=1 / beta, mu=MU))
            nus.append(R.homogenized_coefficients(w, 0.1, eta0=0.8).nu)
        assert all(nus[i + 1] < nus[i] for i in range(len(nus) - 1))

    def test_nu_vanishes_at_high_T(self):
        # nu -> 0 on the hot side as well (|f_T'| <= 1/4T kills m)
        def nu_at(beta):
            w = R.ResponseWorkspace(BASIS, PHI, OccupationModel(T=1 / beta, mu=MU))
            return R.homogenized_coefficients(w, 0.1, eta0=0.8).nu

        assert nu_at(0.01) < nu_at(1.0)
        assert nu_at(0.001) < nu_at(0.01)

    def test_other_delta_by_replace(self, ws):
        # nu and the regime diagnostics follow delta; the measured fields stay
        from dataclasses import replace

        coeffs = R.homogenized_coefficients(ws, 0.05, eta0=0.8)
        other = R.homogenized_coefficients(ws, 0.1, eta0=0.8)
        moved = replace(coeffs, delta=0.1)
        for name in ("nu", "debye_length", "c_T", "s_beta", "zeta", "theta", "regime_ok",
                     "b0", "m"):
            assert getattr(moved, name) == getattr(other, name), name

    def test_gapless_crystal_refused(self):
        class FakeCrystal:
            basis = BASIS
            phi = PHI
            occ = OccupationModel(T=1 / 20, mu=MU)
            dielectric_flag = False

        with pytest.raises(R.GaplessCrystalError):
            R.ResponseWorkspace.of(FakeCrystal())


def test_eps_fit_converges_to_eigen_route_in_beta():
    # the residual between the quadratic-fit permittivity and the
    # divided-difference one carries the k . O(s_beta) k contamination,
    # so it must shrink as beta grows
    kv = 0.1 * np.geomspace(1 / 16, 1, 10)
    samples = np.array([[s * x] for x in kv for s in (1, -1)])
    gaps = []
    for beta in (10, 20, 40):
        w = R.ResponseWorkspace(BASIS, PHI, OccupationModel(T=1 / beta, mu=MU))
        eps = R.epsilon_matrix(w)[0][0, 0]
        eps_fit = R.fit_b_expansion(w, samples)[1][0, 0]
        gaps.append(abs(eps_fit - eps))
    assert gaps[1] < gaps[0]
    assert gaps[2] <= gaps[1] + 1e-9


def _full_pair_block(ws, e_row, U_row, e_col, U_col, wrap=None):
    """Every band pair contracted: the pair block before the window."""
    A = shift_overlap_tensor(ws.basis, U_row, U_col, offset=wrap)
    D = ws.weights(1, e_row, e_col, ws.occ)
    B = A.reshape(ws.basis.n_pw, -1)
    return -(B.conj() * D.ravel()[None, :]) @ B.T / ws.basis.lattice.volume


class TestPairWindow:
    # (row momentum, column momentum, umklapp): row 0.7 folded to -0.3
    PAIRS = [([0.1], [0.05], None), ([-0.3], [0.4], np.array([1]))]

    @pytest.mark.parametrize("weights", [R.thermal_weights, R.step_weights])
    @pytest.mark.parametrize("beta", [5.0, 20.0, 40.0])
    def test_window_against_full_contraction(self, beta, weights):
        w = R.ResponseWorkspace(BASIS, PHI, OccupationModel(T=1 / beta, mu=MU), weights)
        m = R.screening_mass_m(w)
        eps = np.finfo(float).eps
        assert w.pair_window == pytest.approx(
            MU + np.log(BASIS.n_pw / (eps * m / beta)) / beta, rel=1e-14)
        assert w.pair_window_bound == pytest.approx(eps * m / LAT.volume, rel=1e-14)
        for k_row, k_col, wrap in self.PAIRS:
            e_r, U_r = w.fiber(k_row)
            e_c, U_c = w.fiber(k_col)
            assert e_r[-1] > w.pair_window and e_c[-1] > w.pair_window  # pairs dropped
            got = R._pair_block(w, e_r, U_r, e_c, U_c, wrap=wrap)
            full = _full_pair_block(w, e_r, U_r, e_c, U_c, wrap=wrap)
            assert np.abs(got - full).max() <= (
                w.pair_window_bound + 1e-14 * np.abs(full).max())

    def test_no_truncation_when_mass_underflows(self):
        w = R.ResponseWorkspace(BASIS, PHI, OccupationModel(T=1e-4, mu=MU))
        assert R.screening_mass_m(w) == 0.0
        assert w.pair_window == np.inf and w.pair_window_bound == 0.0
        for k_row, k_col, wrap in self.PAIRS:
            e_r, U_r = w.fiber(k_row)
            e_c, U_c = w.fiber(k_col)
            got = R._pair_block(w, e_r, U_r, e_c, U_c, wrap=wrap)
            assert np.array_equal(got, _full_pair_block(w, e_r, U_r, e_c, U_c, wrap=wrap))

    def test_window_is_the_occupation_edge(self, ws):
        m = R.screening_mass_m(ws)
        tol = np.finfo(float).eps * ws.occ.T * m
        assert ws.pair_window == ws.occ.window(ws.basis.n_pw, tol)

    def test_step_workspace_shares_the_window(self, ws):
        assert ws.with_weights(R.step_weights).pair_window == ws.pair_window


SQUARE = Lattice(2 * np.pi * np.eye(2))


@pytest.fixture(scope="module")
def ws_square():
    """The square crystal 2 (cos x + cos y) at ecut 8, mu mid-gap on a 4x4 grid."""
    basis = PlaneWaveBasis(SQUARE, ecut=8.0)
    phi = PeriodicField.from_callable(basis, lambda x: 2.0 * (np.cos(x[..., 0]) + np.cos(x[..., 1])))
    lo, hi = compute_bands(basis, phi, monkhorst_pack(SQUARE, [4, 4])).band_ranges()
    return R.ResponseWorkspace(basis, phi, OccupationModel(T=0.05, mu=float(0.5 * (hi[0] + lo[1]))))


class TestZoneAverage:
    """`m_fiber_averaged` contracts one block of each time-reversal pair
    (a, q) ~ (-q, -a) twice; the all-q sum contracts every block."""

    # 1D grids: odd (no zone face), even (a face point), fine; the 2D 4x4
    # grid, 7 of whose 16 points lie on a -1/2 face
    @pytest.mark.parametrize("N", [5, 8, 16, (4, 4)], ids=["1d-N5", "1d-N8-face", "1d-N16", "2d-4x4"])
    def test_paired_average_against_all_q_oracle(self, N, request, monkeypatch):
        w = request.getfixturevalue("ws" if np.isscalar(N) else "ws_square")
        lat = w.basis.lattice
        kgrid = monkhorst_pack(lat, N)
        step = kgrid[1]  # one grid step along the last axis
        blocks = []
        direct = R._pair_block

        def counted(*args, **kwargs):
            blocks.append(1)
            return direct(*args, **kwargs)

        # every grid momentum, and off the grid by half a step (no partners)
        for k in list(kgrid) + [0.5 * step, kgrid[-1] + 0.5 * step]:
            ref = all_q_zone_average(w, k, kgrid)
            blocks.clear()
            monkeypatch.setattr(R, "_pair_block", counted)
            got = R.m_fiber_averaged(w, k, kgrid)
            monkeypatch.undo()
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
            on_grid = any(np.allclose(k, q, atol=1e-14) for q in kgrid)
            if on_grid and lat.d == 1:
                assert len(blocks) <= N // 2 + 2
            elif not on_grid:
                assert len(blocks) == len(kgrid)


@pytest.mark.parametrize("name", ["mathieu", "square", "oblique"])
def test_translated_crystal_matches_on_the_complex_path(name):
    """Translation oracle: the crystal shifted by x0, phihat(G) e^{-i G.x0},
    runs on complex fibers; every coefficient is translation invariant, so
    the mid-gap mu, m, b0, eps and b(k) match the centred crystal, which
    runs on real fibers, to 1e-12 relative."""
    from debye_forge.config import build_basis, build_potential, parse_config
    from debye_forge.pipeline import first_gap_mu

    cfg = parse_config(str(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"))
    basis = build_basis(cfg)
    phi = build_potential(basis, cfg["crystal"]["potential"])
    x0 = np.full(basis.d, 0.37)
    shifted = PeriodicField(basis, phi.coeffs * np.exp(-1j * basis.g_cart @ x0))
    kgrid = monkhorst_pack(basis.lattice, cfg["kgrid"])
    k = 0.5 * cfg["response"]["kmax"] * R.fit_directions(basis.lattice, 2)[-1]
    got = []
    for field in (phi, shifted):
        bands = compute_bands(basis, field, kgrid)
        mu = first_gap_mu(bands)
        w = R.ResponseWorkspace(basis, field, OccupationModel(T=cfg["temperature"], mu=mu))
        c = R.homogenized_coefficients(w, cfg["response"]["delta"], 1.0)
        got.append((w.gamma[1].dtype, mu, c.m, c.b0, c.eps, R.b_function(w, k)))
    (dt, *ref), (dt_s, *new) = got
    assert dt == np.float64 and dt_s == np.complex128
    for a, b in zip(ref, new):
        assert np.abs(np.asarray(b) - a).max() <= 1e-12 * np.abs(a).max()
