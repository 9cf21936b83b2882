import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from debye_forge.fibers import (
    ContourConvergenceError,
    ContourGeometryError,
    EigensolverError,
    assemble_fiber,
    compute_bands,
    contour_quadrature,
    density_from_potential,
    diagonalize_fiber,
    spectral_gap,
    shift_overlap_tensor,
    time_reversal_partners,
    time_reversed_pairs,
    _difference_table,
    _ellipk,
    _fermi_complex,
    _hht_nodes,
    _jacobi,
    _shift_table,
)
from debye_forge.lattice import Lattice, PeriodicField, PlaneWaveBasis, monkhorst_pack
from debye_forge import fibers as F
from debye_forge.multiscale import SupercellPWBasis
from debye_forge.occupation import OccupationModel
from oracles import (all_band_density, all_k_bands, den_by_definition, diff_pos, hermitian_defect,
                     shift_overlap_by_definition)

REPO = Path(__file__).resolve().parent.parent
LAT = Lattice(np.array([[2 * np.pi]]))
BASIS = PlaneWaveBasis(LAT, ecut=50.0)
MATHIEU = PeriodicField.from_callable(BASIS, lambda x: 2.0 * np.cos(x))
ZERO = PeriodicField.zeros(BASIS)


def cubic_crystal(ecut):
    """(phi, occ, k-grid, bands) of the configs/cubic.json crystal: simple
    cubic 1.5 sum_i cos x_i, 2^3 k-grid, T = 0.05, mu mid-gap."""
    lat = Lattice(2 * np.pi * np.eye(3))
    basis = PlaneWaveBasis(lat, ecut=ecut)
    phi = PeriodicField.from_callable(basis, lambda x: 1.5 * np.cos(x).sum(axis=-1))
    kgrid = monkhorst_pack(lat, [2, 2, 2])
    bands = compute_bands(basis, phi, kgrid)
    lo, hi = bands.band_ranges()
    return phi, OccupationModel(T=0.05, mu=float(0.5 * (hi[0] + lo[1]))), kgrid, bands


def mathieu_reference_eigs(k, ecut, n=2):
    """Independent dense oracle: the tridiagonal Mathieu fiber at a much
    higher cutoff, built with plain numpy."""
    gmax = int(np.floor(np.sqrt(2 * ecut)))
    g = np.arange(-gmax, gmax + 1, dtype=float)
    H = np.diag((g + k) ** 2)
    off = -np.ones(len(g) - 1)
    H += np.diag(off, 1) + np.diag(off, -1)
    return np.sort(np.linalg.eigvalsh(H))[:n]


class TestAssembly:
    def test_free_gamma_diagonal(self):
        H = assemble_fiber(BASIS, ZERO, [0.0])
        assert np.abs(H - np.diag(BASIS.g_norm2)).max() == 0.0

    def test_cosine_is_tridiagonal(self):
        A = 1.5
        phi = PeriodicField.from_callable(BASIS, lambda x: 2 * A * np.cos(x))
        H = assemble_fiber(BASIS, phi, [0.0])
        order = np.argsort(BASIS.g_ints[:, 0])
        Hs = H[np.ix_(order, order)]
        assert np.allclose(np.diag(Hs, 1), -A, atol=1e-13)
        assert np.allclose(np.diag(Hs, -1), -A, atol=1e-13)
        band2 = Hs.copy()
        for off in (-1, 0, 1):
            band2 -= np.diag(np.diag(band2, off), off)
        assert np.abs(band2).max() < 1e-13

    def test_mathieu_vs_high_cutoff_oracle(self):
        basis200 = PlaneWaveBasis(LAT, ecut=200.0)
        phi = PeriodicField.from_callable(basis200, lambda x: 2.0 * np.cos(x))
        ev, _ = diagonalize_fiber(assemble_fiber(basis200, phi, [0.0]))
        ref = mathieu_reference_eigs(0.0, ecut=2000.0, n=2)
        assert np.abs(ev[:2] - ref).max() < 1e-8

    def test_bands_match_response_fibers(self):
        # one fiber convention: the band structure and the response
        # workspace diagonalise the same matrix at every grid momentum
        from debye_forge.response import ResponseWorkspace

        kgrid = monkhorst_pack(LAT, 8)
        bands = compute_bands(BASIS, MATHIEU, kgrid)
        ws = ResponseWorkspace(BASIS, MATHIEU, OccupationModel(T=0.05, mu=0.0))
        for i, k in enumerate(kgrid):
            e, U = ws.fiber(k)
            assert np.array_equal(bands.eigenvalues[i], e)
            assert np.array_equal(bands.eigenvectors[i], U)

    @pytest.mark.parametrize("name", ["cubic", "mathieu", "mathieu_fine", "oblique", "square"])
    def test_fiber_dtype_follows_the_potential(self, name):
        # an inversion-symmetric potential (every shipped config) gives a
        # real fiber and real eigenvectors; the same crystal shifted by x0,
        # phihat(G) e^{-i G.x0}, gives complex ones with the same spectrum
        from debye_forge.config import build_basis, build_potential, parse_config

        cfg = parse_config(str(REPO / "configs" / f"{name}.json"))
        basis = build_basis(cfg)
        phi = build_potential(basis, cfg["crystal"]["potential"])
        shifted = PeriodicField(basis, phi.coeffs * np.exp(-1j * basis.g_cart @ np.full(basis.d, 0.37)))
        assert phi.inversion_symmetric and not shifted.inversion_symmetric
        k = np.full(basis.d, 0.1)
        H, H_s = assemble_fiber(basis, phi, k), assemble_fiber(basis, shifted, k)
        assert H.dtype == np.float64 and H_s.dtype == np.complex128
        (e, U), (e_s, U_s) = diagonalize_fiber(H), diagonalize_fiber(H_s)
        assert U.dtype == np.float64 and U_s.dtype == np.complex128
        assert np.abs(e - e_s).max() <= 1e-12 * np.abs(e).max()

    def test_complex_potential_rejected(self):
        # coefficients built in code that are not those of a real function
        # (e^{ix}) give a fiber that is not Hermitian, refused by the solver
        c = np.zeros(BASIS.n_pw, dtype=complex)
        c[BASIS.index_of([1])] = 1.0
        with pytest.raises(EigensolverError, match="not Hermitian"):
            diagonalize_fiber(assemble_fiber(BASIS, PeriodicField(BASIS, c), [0.0]))

    def test_phase_conjugation_relation(self):
        # fibers at k and k + G0 coincide after relabelling G -> G + G0
        # (Bloch fibers of a periodic operator are periodic in k up to
        # the phase conjugation)
        k = np.array([0.17])
        G0 = np.array([1])
        H1 = assemble_fiber(BASIS, MATHIEU, k + G0 @ LAT.reciprocal)
        H0 = assemble_fiber(BASIS, MATHIEU, k)
        perm = np.array([BASIS.index_of(g - G0) for g in BASIS.g_ints])
        keep = perm >= 0
        sub = np.ix_(keep, keep)
        assert np.abs(H1[np.ix_(perm[keep], perm[keep])] - H0[sub]).max() < 1e-12


class TestDiagonalize:
    def test_diagonal_input_sorted(self):
        fib = assemble_fiber(BASIS, ZERO, [0.2])
        ev, U = diagonalize_fiber(fib)
        assert np.all(np.diff(ev) >= 0)
        assert np.abs(U.conj().T @ U - np.eye(BASIS.n_pw)).max() < 1e-10

    def test_reconstruction(self):
        H = assemble_fiber(BASIS, MATHIEU, [0.11])
        ev, U = diagonalize_fiber(H)
        assert np.abs(U @ np.diag(ev) @ U.conj().T - H).max() <= 1e-10 * np.abs(H).max()

    def test_free_degenerate_pair(self):
        ev, _ = diagonalize_fiber(assemble_fiber(BASIS, ZERO, [0.0]))
        # +-G give equal kinetic energies
        assert abs(ev[1] - ev[2]) < 1e-13
        assert abs(ev[1] - 1.0) < 1e-13

    def test_non_hermitian_rejected(self):
        H = assemble_fiber(BASIS, MATHIEU, [0.0])
        H[0, 1] += 1.0
        with pytest.raises(EigensolverError):
            diagonalize_fiber(H)


class TestDensity:
    occ = OccupationModel(T=0.05, mu=-1.0)
    kgrid = monkhorst_pack(LAT, 8)

    def test_free_density_constant_and_value(self):
        rho = density_from_potential(ZERO, self.occ, compute_bands(BASIS, ZERO, self.kgrid),
                                     tail_tol=1.0)
        vals = rho.values()
        assert np.abs(vals - vals.mean()).max() < 1e-13
        # independent scalar oracle: |Omega|^{-1} mean_k sum_G f(|G+k|^2 + 1)
        acc = 0.0
        for k in self.kgrid:
            e = BASIS.kinetic_diagonal(k)
            acc += np.sum(1.0 / (np.exp((e + 1.0) / self.occ.T) + 1.0))
        oracle = acc / len(self.kgrid) / LAT.volume
        assert vals.mean() == pytest.approx(oracle, rel=1e-12)

    def test_square_designer_density_exactly_real(self):
        # the density of an inversion-symmetric potential is even: its
        # coefficients are kept exactly real, so is the designer kappa
        from debye_forge.config import build_basis, build_potential, parse_config
        from debye_forge.pipeline import first_gap_mu
        from debye_forge.scf import designer_crystal

        cfg = parse_config(str(REPO / "configs" / "square.json"))
        basis = build_basis(cfg)
        phi = build_potential(basis, cfg["crystal"]["potential"])
        kgrid = monkhorst_pack(basis.lattice, cfg["kgrid"])
        bands = compute_bands(basis, phi, kgrid)
        state = designer_crystal(phi, first_gap_mu(bands), cfg["temperature"], bands)
        assert not np.any(state.rho.coeffs.imag) and not np.any(state.kappa.coeffs.imag)
        assert state.rho.inversion_symmetric and state.kappa.inversion_symmetric

    def test_density_positive_real_charge(self):
        occ = OccupationModel(T=0.05, mu=0.5)
        bands = compute_bands(BASIS, MATHIEU, self.kgrid)
        rho = density_from_potential(MATHIEU, occ, bands)
        assert hermitian_defect(rho) <= 1e-12
        assert rho.values().min() > 0
        expect = np.mean(np.sum(occ.occ(bands.eigenvalues), axis=1))
        assert rho.integral().real == pytest.approx(expect, rel=1e-12)

    def test_tail_flag(self):
        hot = OccupationModel(T=20.0, mu=30.0)
        with pytest.warns(UserWarning, match="cutoff"):
            density_from_potential(ZERO, hot, compute_bands(BASIS, ZERO, self.kgrid))

    @pytest.mark.parametrize("case", ["mathieu", "cubic"])
    def test_window_matches_all_band_oracle(self, case):
        # the bands above occ.window(n_pw, eps^2) carry at most eps^2 / |Omega|
        # per point, so dropping them is invisible against the all-band sum
        if case == "mathieu":
            occ = OccupationModel(T=0.05, mu=0.5)
            phi, kgrid, bands = MATHIEU, self.kgrid, compute_bands(BASIS, MATHIEU, self.kgrid)
        else:
            phi, occ, kgrid, bands = cubic_crystal(4.0)
        basis = phi.basis
        e_w = occ.window(basis.n_pw, np.finfo(float).eps ** 2)
        assert all(np.searchsorted(e, e_w) < basis.n_pw for e in bands.eigenvalues)
        rho = density_from_potential(phi, occ, bands, tail_tol=1.0)
        full = all_band_density(phi, occ, bands)
        bound = np.finfo(float).eps ** 2 / basis.lattice.volume
        assert np.abs(rho.coeffs - basis.grid_to_coeffs(full)).max() <= bound
        assert abs(rho.grid_min - full.min()) <= bound

    def test_cubic_density_memory(self):
        # configs/cubic.json at its own cutoff (n_pw = 179, 15^3 grid): at
        # most 23 of the 179 bands per k lie inside the window, so the band
        # grids take a few MB, not the 37 MB of all 179
        phi, occ, kgrid, bands = cubic_crystal(6.0)
        assert phi.basis.n_pw == 179
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            density_from_potential(phi, occ, bands)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


SQUARE = Lattice(2 * np.pi * np.eye(2))


def square_potential(ecut):
    """The square crystal 2 (cos x + cos y) on its basis at ecut."""
    basis = PlaneWaveBasis(SQUARE, ecut=ecut)
    return PeriodicField.from_callable(basis, lambda x: 2.0 * (np.cos(x[..., 0]) + np.cos(x[..., 1])))


# (potential, k-grid, fibers diagonalised): a centred grid pairs every k
# with -k except k = 0 and the zone face, whose -k lies outside it
TR_CASES = {
    "1d-16": (lambda: MATHIEU, lambda: monkhorst_pack(LAT, 16), 9),
    "2d-4x4": (lambda: square_potential(16.0), lambda: monkhorst_pack(SQUARE, [4, 4]), 12),
}


class TestTimeReversal:
    @pytest.mark.parametrize("case", list(TR_CASES))
    def test_partner_fibers_against_all_k_oracle(self, case):
        phi_of, kgrid_of, _ = TR_CASES[case]
        phi, kgrid = phi_of(), kgrid_of()
        basis = phi.basis
        bands = compute_bands(basis, phi, kgrid)
        ref = all_k_bands(basis, phi, kgrid)
        partners = time_reversal_partners(basis.lattice, kgrid)
        for i in np.flatnonzero(partners >= 0):
            e, U = bands.eigenvalues[i], bands.eigenvectors[i]
            scale = np.abs(ref.eigenvalues[i]).max()
            assert np.abs(e - ref.eigenvalues[i]).max() <= 1e-13 * scale
            H = assemble_fiber(basis, phi, kgrid[i])
            assert np.abs(H @ U - U * e[None, :]).max() <= 1e-12 * scale
            assert np.abs(U.conj().T @ U - np.eye(basis.n_pw)).max() <= 1e-12
        # the density of the partner fibers: the window drops at most
        # eps^2 / |Omega| per point, and a partner differs from a direct
        # eigh at -k by the eigensolver's rounding, n_pw eps of the density
        # (a direct eigh of the same fiber with its basis permuted moves
        # the 2D density by 1.9e-16 of its 0.05 peak coefficient as well)
        occ = OccupationModel(T=0.05, mu=float(np.median(bands.eigenvalues[:, 1])))
        rho = density_from_potential(phi, occ, bands, tail_tol=1.0)
        full = basis.grid_to_coeffs(all_band_density(phi, occ, ref))
        eps = np.finfo(float).eps
        bound = eps**2 / basis.lattice.volume + basis.n_pw * eps * np.abs(full).max()
        assert np.abs(rho.coeffs - full).max() <= bound

    @pytest.mark.parametrize("case", list(TR_CASES))
    def test_one_diagonalisation_per_pair(self, case, monkeypatch):
        phi_of, kgrid_of, n_direct = TR_CASES[case]
        phi, kgrid = phi_of(), kgrid_of()
        calls = []
        direct = F.diagonalize_fiber

        def counted(H):
            calls.append(1)
            return direct(H)

        monkeypatch.setattr(F, "diagonalize_fiber", counted)
        bands = compute_bands(phi.basis, phi, kgrid)
        assert len(calls) == n_direct and bands.nk == len(kgrid)
        partners = time_reversal_partners(phi.basis.lattice, kgrid)
        assert np.count_nonzero(partners < 0) == n_direct and partners[0] == -1  # k = 0
        for i, p in enumerate(partners):
            assert p < i
            if p >= 0:
                assert np.abs(kgrid[p] + kgrid[i]).max() <= 1e-15


def test_time_reversed_pairs_of_a_zone_average():
    # the pair blocks (fold(q + k), q) of the 1D 8-point grid at k = 1/4:
    # (a, q) meets (-q, -a), an involution; a pair with q or fold(q + k) on
    # the -1/2 face has none, since +1/2 is not on the grid
    lat = Lattice(np.array([[1.0]]))  # reciprocal vector 2 pi
    cols = monkhorst_pack(lat, 8)
    frac = cols[:, 0] / (2 * np.pi) + 0.25
    rows = 2 * np.pi * (frac - np.floor(frac + 0.5))[:, None]
    p = time_reversed_pairs(lat, rows, cols)
    for i, j in enumerate(p):
        face = np.isclose(cols[i, 0], -np.pi) or np.isclose(rows[i, 0], -np.pi)
        assert (j < 0) == face
        if j >= 0:
            assert p[j] == i
            assert np.allclose([rows[j], cols[j]], [-cols[i], -rows[i]], atol=1e-14)
    assert np.count_nonzero(p < 0) == 2 and np.count_nonzero(p == np.arange(8)) == 2


class TestGap:
    kgrid = monkhorst_pack(LAT, 8)

    def test_free_particle_below_spectrum(self):
        bands = compute_bands(BASIS, ZERO, self.kgrid)
        rep = spectral_gap(bands, -1.0)
        assert rep.in_gap
        assert rep.eta == pytest.approx(1.0, abs=1e-12)

    def test_mathieu_edges_vs_oracle(self):
        basis200 = PlaneWaveBasis(LAT, ecut=200.0)
        phi = PeriodicField.from_callable(basis200, lambda x: 2.0 * np.cos(x))
        kgrid = monkhorst_pack(LAT, 16)
        bands = compute_bands(basis200, phi, kgrid)
        lo, hi = bands.band_ranges()
        # 1D band extrema sit at k = 0 and the zone boundary: oracle there
        ref_lo = mathieu_reference_eigs(0.5, ecut=2000.0, n=2)
        assert abs(hi[0] - ref_lo[0]) < 1e-6
        assert abs(lo[1] - ref_lo[1]) < 1e-6

    def test_band_edge_flag(self):
        bands = compute_bands(BASIS, MATHIEU, self.kgrid)
        lo, hi = bands.band_ranges()
        rep = spectral_gap(bands, float(hi[0]))
        assert rep.eta == 0.0
        assert not rep.in_gap

    def test_eta_monotone_under_refinement(self):
        mu = 0.0
        coarse = spectral_gap(compute_bands(BASIS, MATHIEU, monkhorst_pack(LAT, 8)), mu)
        fine = spectral_gap(compute_bands(BASIS, MATHIEU, monkhorst_pack(LAT, 16)), mu)
        assert fine.eta <= coarse.eta + 1e-14


class TestContour:
    occ = OccupationModel(T=0.05, mu=-0.24)

    def gapped_fiber(self, k=0.0):
        basis = PlaneWaveBasis(LAT, ecut=50.0)
        phi = PeriodicField.from_callable(basis, lambda x: 2.0 * np.cos(x))
        return diagonalize_fiber(assemble_fiber(basis, phi, [k])), basis

    def test_resolvent_matches_eigen_calculus(self):
        (ev, U), basis = self.gapped_fiber()
        H = U @ np.diag(ev) @ U.conj().T
        eye = np.eye(len(ev))

        val, err = contour_quadrature(
            lambda z: np.linalg.solve(z * eye - H, eye), self.occ, ev, tol=1e-11
        )
        ref = U @ np.diag(self.occ.occ(ev)) @ U.conj().T
        assert np.abs(val - ref).max() < 1e-8

    def test_squared_resolvent_gives_derivative(self):
        (ev, U), basis = self.gapped_fiber()
        H = U @ np.diag(ev) @ U.conj().T
        eye = np.eye(len(ev))

        def integrand(z):
            R = np.linalg.solve(z * eye - H, eye)
            return R @ R

        val, err = contour_quadrature(integrand, self.occ, ev, tol=1e-11)
        ref = U @ np.diag(self.occ.occ_deriv(ev)) @ U.conj().T
        assert np.abs(val - ref).max() < 1e-8

    def test_scalar_cauchy(self):
        occ = OccupationModel(T=0.05, mu=1.0)
        val, err = contour_quadrature(
            lambda z: np.array([[1.0 / z]]), occ, np.array([0.0]), tol=1e-12
        )
        assert abs(val[0, 0] - occ.occ(0.0)) < 1e-9

    def test_mu_on_spectrum_refused(self):
        occ = OccupationModel(T=0.05, mu=0.0)
        with pytest.raises(ContourGeometryError):
            contour_quadrature(lambda z: np.eye(1), occ, np.array([0.0]))

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
    def test_estimate_bounds_true_error(self, tol):
        (ev, U), basis = self.gapped_fiber()
        H = U @ np.diag(ev) @ U.conj().T
        eye = np.eye(len(ev))

        val, err = contour_quadrature(
            lambda z: np.linalg.solve(z * eye - H, eye), self.occ, ev, tol=tol
        )
        ref = U @ np.diag(self.occ.occ(ev)) @ U.conj().T
        assert np.abs(val - ref).max() <= err

    def test_each_node_evaluated_once(self):
        # nested levels: every node of level N is a node of level 2N, so
        # the calls are the live nodes of the final level, each once
        (ev, U), basis = self.gapped_fiber()
        H = U @ np.diag(ev) @ U.conj().T
        eye = np.eye(len(ev))
        zs = []

        def integrand(z):
            zs.append(z)
            return np.linalg.solve(z * eye - H, eye)

        contour_quadrature(integrand, self.occ, ev, tol=1e-9)
        assert len(set(zs)) == len(zs)
        levels = {}
        for N in 16 * 2 ** np.arange(8):
            xi, c = _hht_nodes(ev - self.occ.mu, N, np.arange(N + 1))
            live = c * _fermi_complex(xi, self.occ.T) != 0.0
            levels[int(N)] = set((self.occ.mu + xi[live]).tolist())
        final = [N for N, nodes in levels.items() if nodes == set(zs)]
        assert len(final) == 1 and final[0] > 16

    def test_unreachable_tol_raises(self):
        occ = OccupationModel(T=0.05, mu=1.0)
        with pytest.raises(ContourConvergenceError):
            contour_quadrature(
                lambda z: np.array([[1.0 / z]]), occ, np.array([0.0]), tol=1e-30
            )


@pytest.mark.parametrize("k", [0.3, 0.9, 0.99, 0.999, 0.9999])
def test_elliptic_functions_match_mpmath_at_contour_nodes(k):
    # K(k^2), K(1 - k^2) and sn, cn, dn(t | k^2) on the contour line
    # Im t = K'/2 at the nodes of N = 16 and N = 128, the endpoints
    # t = +-K + iK'/2 (where the real argument is |u| = K) included
    mp = pytest.importorskip("mpmath")
    m = k * k
    m1 = 1.0 - m
    K, Kp = _ellipk(m, m1), _ellipk(m1, m)
    assert K == pytest.approx(float(mp.ellipk(m)), rel=1e-15)
    assert Kp == pytest.approx(float(mp.ellipk(m1)), rel=1e-15)
    with mp.workdps(30):
        for N in (16, 128):
            t = -K + np.arange(N + 1) * 2.0 * K / N + 0.5j * Kp
            for name, got in zip(("sn", "cn", "dn"), _jacobi(t, m, m1)):
                ref = np.array([complex(mp.ellipfun(name, mp.mpc(z.real, z.imag), m=m)) for z in t])
                assert np.abs(got - ref).max() <= 1e-15 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("x", [[-0.5, 0.7, 55.0], [0.3, 0.31], [-2.0, -1e-3, 40.0]])
def test_contour_crosses_real_axis_outside_spectrum(x):
    # w = xi^2 at the endpoints j = 0, N is real, in (0, m) on the left and
    # above M on the right; no node of the level lies on w <= 0, the image
    # of the Matsubara line
    x = np.array(x)
    m = float(np.min(x * x))
    M = max(float(np.max(x * x)), 4.0 * m)
    for N in (16, 128):
        xi, c = _hht_nodes(x, N, np.array([0, N]))
        assert np.all(xi.imag == 0.0) and np.all(c.imag == 0.0)
        w_left, w_right = xi[:2].real ** 2
        assert 0.0 < w_left < m and w_right > M
        w = _hht_nodes(x, N, np.arange(N + 1))[0] ** 2
        assert np.all((w.imag != 0.0) | (w.real > 0.0))


def test_threaded_bands_bitwise_deterministic():
    # reductions over k use a fixed order, so worker count cannot change
    # a single bit of the results
    kgrid = monkhorst_pack(LAT, 8)
    b1 = compute_bands(BASIS, MATHIEU, kgrid, threads=1)
    b4 = compute_bands(BASIS, MATHIEU, kgrid, threads=4)
    assert np.array_equal(b1.eigenvalues, b4.eigenvalues)
    occ = OccupationModel(T=0.05, mu=0.2)
    r1 = density_from_potential(MATHIEU, occ, b1)
    r4 = density_from_potential(MATHIEU, occ, b4)
    assert np.array_equal(r1.coeffs, r4.coeffs)


def test_contour_matches_eigen_calculus_random_gapped_fibers():
    # random gapped fibers: random lattice-periodic distortions of the
    # cosine crystal, with mu placed mid-way across the widest low-lying
    # level spacing of each draw; the contour route must reproduce the
    # eigen-route f_T(H - mu) on every one
    rng = np.random.default_rng(12)
    for trial in range(3):
        c = np.zeros(BASIS.n_pw, dtype=complex)
        c[BASIS.index_of([1])] = c[BASIS.index_of([-1])] = 1.0
        for n in (2, 3):
            amp = 0.15 * rng.standard_normal()
            c[BASIS.index_of([n])] += 0.5 * amp
            c[BASIS.index_of([-n])] += 0.5 * amp
        phi = PeriodicField(BASIS, 2.0 * c)
        k = rng.uniform(-0.5, 0.5)
        ev, U = diagonalize_fiber(assemble_fiber(BASIS, phi, [k]))
        spacings = np.diff(ev[:6])
        j = int(np.argmax(spacings))
        mu = float(0.5 * (ev[j] + ev[j + 1]))
        occ = OccupationModel(T=0.05, mu=mu)
        assert np.min(np.abs(ev - mu)) > 0.2  # a genuine gap per draw
        H = U @ np.diag(ev) @ U.conj().T
        eye = np.eye(len(ev))
        val, err = contour_quadrature(
            lambda z: np.linalg.solve(z * eye - H, eye), occ, ev, tol=1e-11
        )
        ref = U @ np.diag(occ.occ(ev)) @ U.conj().T
        assert np.abs(val - ref).max() < 1e-8


def dict_loop_table(basis, rows, cols, sign=1):
    """Oracle: the per-entry dict lookup the vectorised tables replaced."""
    index = {tuple(g): i for i, g in enumerate(basis.g_ints)}
    n = basis.n_pw
    tab = np.full((len(rows), len(cols)), n, dtype=np.int64)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            tab[i, j] = index.get(tuple(int(x) for x in r + sign * c), n)
    return tab


HEX = Lattice(2 * np.pi * np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]]))
INDEX_BASES = {
    "1d": lambda: BASIS,
    "2d-hex": lambda: PlaneWaveBasis(HEX, ecut=6.0),
    "3d-cubic": lambda: PlaneWaveBasis(Lattice(2 * np.pi * np.eye(3)), ecut=4.0),
    "2d-hex-fft-9x11": lambda: PlaneWaveBasis(HEX, ecut=6.0, fft_shape=(9, 11)),
}


class TestIndexTables:
    @pytest.mark.parametrize("name", list(INDEX_BASES))
    def test_tables_match_dict_loop(self, name):
        basis = INDEX_BASES[name]()
        g = basis.g_ints
        index = {tuple(v): i for i, v in enumerate(g)}
        assert [basis.index_of(v) for v in g] == list(range(basis.n_pw))
        neg = [index.get(tuple(-v), -1) for v in g]
        assert np.array_equal(basis.negation_index, neg)
        assert np.array_equal(np.sort(basis.negation_index), np.arange(basis.n_pw))
        assert np.array_equal(_difference_table(basis), dict_loop_table(basis, g, g, sign=-1))
        assert np.array_equal(_shift_table(basis), dict_loop_table(basis, g, g))

    @pytest.mark.parametrize("name", ["1d", "2d-hex", "3d-cubic"])
    def test_umklapp_offset_table(self, name):
        basis = INDEX_BASES[name]()
        g = basis.g_ints
        off = np.array([1, -1, 1][: basis.d])
        U = np.eye(basis.n_pw)[:, :2]
        shift_overlap_tensor(basis, U, U, offset=off)
        tab = basis._shift_tab_offsets[tuple(off)]
        assert np.array_equal(tab, dict_loop_table(basis, g + off, g))
        assert (tab < basis.n_pw).any() and (tab == basis.n_pw).any()

    @pytest.mark.parametrize("name", ["1d", "2d-hex", "3d-cubic"])
    def test_shift_overlap_against_defining_sum(self, name):
        # distinct row and column sets of several bands; the umklapp offset
        # sends some shifted slots out of the ball, where nothing is gathered
        basis = INDEX_BASES[name]()
        rng = np.random.default_rng(7)
        U_row, U_col = (rng.standard_normal((basis.n_pw, nb)) + 1j * rng.standard_normal((basis.n_pw, nb))
                        for nb in (3, 4))
        for off in (np.zeros(basis.d, dtype=int), np.array([1, -1, 1][: basis.d])):
            got = shift_overlap_tensor(basis, U_row, U_col, offset=off)
            ref = shift_overlap_by_definition(basis, U_row, U_col, off)
            assert got.shape == (basis.n_pw, 3, 4)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("name", ["1d", "2d-hex", "3d-cubic"])
    def test_den_from_matrix_against_defining_sum(self, name):
        # one matrix and a stack of three; each slice of the stack keeps
        # the bits of its own single-matrix result
        basis = INDEX_BASES[name]()
        rng = np.random.default_rng(11)
        n = basis.n_pw
        B = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        stack = F.den_from_matrix(basis, B)
        assert stack.shape == (3, n)
        for b, got in zip(B, stack):
            one = F.den_from_matrix(basis, b)
            assert np.array_equal(got, one)
            assert np.abs(one - den_by_definition(basis, b)).max() <= 1e-14 * np.abs(b).max()

    @pytest.mark.parametrize(
        "micro, N",
        [(PlaneWaveBasis(LAT, ecut=8.0), 4), (PlaneWaveBasis(HEX, ecut=3.0), 2)],
        ids=["1d", "2d-hex"],
    )
    def test_supercell_difference_positions(self, micro, N):
        sb = SupercellPWBasis(micro, N)
        shape = sb.fft_shape
        oracle = np.empty((sb.n_pw, sb.n_pw), dtype=np.int64)
        for i, qi in enumerate(sb.q_ints):
            for j, qj in enumerate(sb.q_ints):
                oracle[i, j] = np.ravel_multi_index(tuple(np.mod(qi - qj, shape)), shape)
        assert np.array_equal(diff_pos(sb), oracle)
