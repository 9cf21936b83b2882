"""Reduced-size 2D/3D smoke coverage of the d-general code paths."""

import numpy as np
import pytest

from debye_forge import response as R
from debye_forge.fibers import (
    compute_bands,
    density_from_potential,
    shift_overlap_tensor,
    spectral_gap,
)
from debye_forge.lattice import (
    Lattice,
    PeriodicField,
    PlaneWaveBasis,
    SupercellField,
    bloch_decompose,
    bloch_reconstruct,
    monkhorst_pack,
)
from debye_forge.occupation import OccupationModel
from debye_forge.scf import SCFConfig, _poisson_mean_free, construct_dielectric_kappa, designer_crystal, scf_solve
from oracles import hermitian_defect


@pytest.fixture(scope="module")
def square():
    lat = Lattice(2 * np.pi * np.eye(2))
    basis = PlaneWaveBasis(lat, ecut=8.0)
    phi = PeriodicField.from_callable(
        basis, lambda x: 2.0 * (np.cos(x[..., 0]) + np.cos(x[..., 1]))
    )
    kgrid = monkhorst_pack(lat, [4, 4])
    bands = compute_bands(basis, phi, kgrid)
    lo, hi = bands.band_ranges()
    mu = float(0.5 * (hi[0] + lo[1]))
    return lat, basis, phi, kgrid, bands, mu


@pytest.fixture(scope="module")
def square_ws(square):
    lat, basis, phi, kgrid, bands, mu = square
    return R.ResponseWorkspace(basis, phi, OccupationModel(T=0.05, mu=mu))


class TestSquareLattice:
    def test_gap_exists(self, square):
        *_, bands, mu = square
        rep = spectral_gap(bands, mu)
        assert rep.in_gap and rep.eta > 0.05

    def test_density_real_positive(self, square):
        lat, basis, phi, kgrid, bands, mu = square
        occ = OccupationModel(T=0.05, mu=mu)
        rho = density_from_potential(phi, occ, bands)
        assert hermitian_defect(rho) <= 1e-12
        # exact grid values are positive; the ball-truncated field may
        # ring slightly negative at this coarse cutoff
        assert rho.grid_min > 0
        assert rho.values().min() > -0.02 * rho.values().max()

    def test_scf_round_trip(self, square):
        lat, basis, phi, kgrid, bands, mu = square
        kappa, _ = construct_dielectric_kappa(phi, mu, 0.05, kgrid)
        st = scf_solve(kappa, SCFConfig(), 0.05, kgrid)
        assert st.converged
        assert (st.phi - phi).l2_norm() < 1e-8

    def test_m0_constant_is_V(self, square_ws):
        M0 = R.m_fiber(square_ws, np.zeros(2))
        V = R.screening_density_V(square_ws)
        assert np.abs(M0[:, 0] - V.coeffs).max() < 1e-13
        assert V.grid_min >= 0.0
        m = R.screening_mass_m(square_ws)
        assert abs(m - V.integral().real) < 1e-10 * m

    def test_eps_symmetric_2x2_and_square_symmetry(self, square_ws):
        eps, ep, epp = R.epsilon_matrix(square_ws)
        assert eps.shape == (2, 2)
        assert np.abs(eps - eps.T).max() < 1e-10
        # four-fold symmetry of the square crystal: eps_xx = eps_yy,
        # eps_xy = 0
        assert eps[0, 0] == pytest.approx(eps[1, 1], rel=1e-9)
        assert abs(eps[0, 1]) < 1e-9
        assert eps[0, 0] > 1.0

    def test_b_even_and_fit(self, square_ws):
        for k in ([0.05, 0.02], [0.0, 0.07]):
            kv = np.asarray(k)
            assert R.b_function(square_ws, kv) == pytest.approx(
                R.b_function(square_ws, -kv), abs=1e-12
            )
        # full 2D quartic fit across both axes and the diagonal
        dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                np.array([1.0, 1.0]) / np.sqrt(2)]
        samples = []
        for e in dirs:
            for x in 0.1 * np.geomspace(1 / 16, 1, 6):
                samples += [x * e, -x * e]
        b0f, eps_fit, quart = R.fit_b_expansion(square_ws, np.array(samples))
        eps = R.epsilon_matrix(square_ws)[0]
        assert np.abs(eps_fit - eps).max() < 5e-4  # coarse cutoff, coarse tol
        assert quart >= 0

    def test_b_fit_evaluates_b_once_per_pair(self, square_ws, monkeypatch):
        # 48 samples as the benchmark's square-crystal fit draws them: both
        # axes and one off-axis direction, 8 magnitudes each, at +-k
        dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                np.array([np.cos(0.5), np.sin(0.5)])]
        samples = np.array([s * x * e for e in dirs
                            for x in 0.1 * np.geomspace(1 / 64, 1, 8) for s in (1, -1)])
        ks, solve = R._b_fit(square_ws, samples)
        eps_all = solve(np.array([R.b_function(square_ws, k) for k in ks]))[1]
        calls = []
        direct = R.b_function

        def counted(ws, k, k_grid=None):
            calls.append(1)
            return direct(ws, k, k_grid)

        monkeypatch.setattr(R, "b_function", counted)
        eps_fit = R.fit_b_expansion(square_ws, samples)[1]
        assert len(samples) == 48 and len(calls) == 24
        assert np.abs(eps_fit - eps_all).max() <= 1e-12 * np.abs(eps_all).max()

    def test_contour_route_matches_eigen_route_2d(self, square_ws):
        eps = R.epsilon_matrix(square_ws)[0]
        eps_con = R.epsilon_matrix_contour(square_ws, tol=1e-10)
        assert np.abs(eps_con - eps).max() < 1e-8

    def test_zero_temperature_limit_2d(self, square_ws):
        eps0 = R.epsilon_zero_temperature(square_ws)
        assert eps0.shape == (2, 2)
        assert np.abs(eps0 - eps0.T).max() < 1e-10

    def test_bloch_round_trip_2d(self):
        lat = Lattice(2 * np.pi * np.eye(2))
        rng = np.random.default_rng(0)
        N = 3
        shape = (18 * N, 18 * N)
        f = SupercellField(lat, np.full(2, N), rng.standard_normal(shape))
        kpts, fibers = bloch_decompose(f)
        assert len(fibers) == N * N
        rec = bloch_reconstruct(kpts, fibers, lat, np.full(2, N), shape)
        assert np.abs(rec.values - f.values).max() < 1e-10
        for k, fib in zip(kpts[:4], fibers[:4]):
            assert abs(fib.mean() * fib.volume - f.fourier(k)) < 1e-10

    def test_inverse_laplacian_2d(self):
        lat = Lattice(2 * np.pi * np.eye(2))
        basis = PlaneWaveBasis(lat, ecut=8.0)
        f = PeriodicField.from_callable(
            basis, lambda x: np.cos(x[..., 0]) + np.cos(2 * x[..., 1])
        )
        phi = _poisson_mean_free(basis, f.coeffs)
        i10 = basis.index_of([1, 0])
        i02 = basis.index_of([0, 2])
        assert phi[i10] == pytest.approx(0.5, abs=1e-13)
        assert phi[i02] == pytest.approx(0.5 / 4.0, abs=1e-13)


class TestHexLattice:
    def test_fibers_and_gap_report(self):
        a = 2 * np.pi
        lat = Lattice(a * np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]]))
        basis = PlaneWaveBasis(lat, ecut=6.0)
        # potential built from the first reciprocal star (real by symmetry)
        coeffs = np.zeros(basis.n_pw, dtype=complex)
        for n in ([1, 0], [-1, 0], [0, 1], [0, -1], [1, -1], [-1, 1]):
            coeffs[basis.index_of(n)] = 0.6
        phi = PeriodicField(basis, coeffs)
        kgrid = monkhorst_pack(lat, [3, 3])
        bands = compute_bands(basis, phi, kgrid)
        assert np.all(np.diff(bands.eigenvalues, axis=1) >= -1e-12)
        rho = density_from_potential(
            phi, OccupationModel(T=0.2, mu=float(bands.eigenvalues[:, 0].max()) + 0.2),
            bands, tail_tol=1.0,
        )
        assert hermitian_defect(rho) <= 1e-12
        assert abs(rho.integral().imag) < 1e-12


class TestMultiscale2D:
    def test_tiny_2d_multiscale_runs(self):
        from debye_forge.macro import gaussian_source
        from debye_forge.multiscale import (
            build_deformed_kappa,
            effective_coefficients,
            expansion_decompose,
            micro_solve_perturbation,
        )

        lat = Lattice(2 * np.pi * np.eye(2))
        basis = PlaneWaveBasis(lat, ecut=4.0)
        phi = PeriodicField.from_callable(
            basis, lambda x: 2.0 * (np.cos(x[..., 0]) + np.cos(x[..., 1]))
        )
        N = 2
        kgrid = monkhorst_pack(lat, [N, N])
        bands = compute_bands(basis, phi, kgrid)
        lo, hi = bands.band_ranges()
        mu = float(0.5 * (hi[0] + lo[1]))
        st = designer_crystal(phi, mu, 1 / 10, bands)
        box = Lattice(lat.basis.copy())
        shape = tuple(s * N for s in basis.fft_shape)
        src = gaussian_source(
            box, shape, center=[np.pi, np.pi], width=0.45, amplitude=0.02,
            mean_free=True,
        )
        dc = build_deformed_kappa(st, 1.0 / N, src)
        phid, psim, info = micro_solve_perturbation(dc)
        assert info["residuals"][-1] <= max(
            1e-10 * 0.02, 10 * info["noise_floor"]
        ) or info["relative_residual"] < 1e-6
        ws = R.ResponseWorkspace(basis, phi, st.occ)
        coeffs = R.homogenized_coefficients(ws, 1.0 / N, st.eta0)
        ceff = effective_coefficients(dc, coeffs)
        assert ceff.eps.shape == (2, 2)
        rep = expansion_decompose(dc, psim, ceff, newton_info=info)
        recon = rep.macro_term.values + rep.phi_rem.values
        assert np.abs(recon - psim.values).max() < 1e-12
        # the remainder should not dominate the decomposition
        assert rep.norms["rem_l2"] < rep.norms["macro_term_l2"]

    def test_oblique_effective_eps_is_cartesian(self):
        """On an oblique cell the unit reciprocal axes are not the Cartesian
        axes: the effective eps of the supercell operator must still be the
        Cartesian tensor of the eigen route, and the momentum split radius
        half the shortest reciprocal basis vector."""
        from debye_forge.config import build_potential
        from debye_forge.macro import gaussian_source
        from debye_forge.multiscale import (
            build_deformed_kappa,
            effective_coefficients,
            expansion_decompose,
            micro_solve_perturbation,
        )

        lat = Lattice(np.array([[2 * np.pi, 0.0], [2.0, 5.5]]))
        basis = PlaneWaveBasis(lat, ecut=6.0)
        phi = build_potential(basis, {"family": "cosine", "terms": [
            {"n": [1, 0], "amplitude": 2.0},
            {"n": [0, 1], "amplitude": 1.2},
            {"n": [1, 1], "amplitude": 0.8},
        ]})
        N = 2
        kgrid = monkhorst_pack(lat, [N, N])
        bands = compute_bands(basis, phi, kgrid)
        lo, hi = bands.band_ranges()
        st = designer_crystal(phi, float(0.5 * (hi[0] + lo[1])), 0.05, bands)
        coeffs = R.homogenized_coefficients(R.ResponseWorkspace.of(st), 1.0 / N, st.eta0)
        assert abs(coeffs.eps[0, 1]) > 1e-4  # a genuinely non-diagonal tensor
        src = gaussian_source(
            Lattice(lat.basis.copy()), tuple(s * N for s in basis.fft_shape),
            center=list(0.5 * lat.basis.sum(axis=0)), width=0.3, amplitude=0.02,
            mean_free=True,
        )
        dc = build_deformed_kappa(st, 1.0 / N, src)
        _, psim, info = micro_solve_perturbation(dc)
        ceff = effective_coefficients(dc, coeffs)
        assert np.abs(ceff.eps - coeffs.eps).max() <= 1e-2
        assert np.array_equal(ceff.eps, ceff.eps.T)
        rep = expansion_decompose(dc, psim, ceff, newton_info=info)
        a = 0.5 * float(np.min(np.linalg.norm(lat.reciprocal, axis=1)))
        assert a != 0.5  # not the 2 pi-cubic value
        assert rep.momentum_split["a"] == a
        assert rep.momentum_split["r"] == a * N


class TestCubic3D:
    def test_fibers_density_and_b_smoke(self):
        lat = Lattice(2 * np.pi * np.eye(3))
        basis = PlaneWaveBasis(lat, ecut=1.6)
        phi = PeriodicField.from_callable(
            basis,
            lambda x: 1.5 * (np.cos(x[..., 0]) + np.cos(x[..., 1]) + np.cos(x[..., 2])),
        )
        kgrid = monkhorst_pack(lat, [2, 2, 2])
        bands = compute_bands(basis, phi, kgrid)
        assert basis.n_pw == 27  # shells |G|^2 = 0, 1, 2, 3 at this cutoff
        lo, hi = bands.band_ranges()
        mu = float(0.5 * (hi[0] + lo[1]))
        occ = OccupationModel(T=0.1, mu=mu)
        rho = density_from_potential(phi, occ, bands, tail_tol=1.0)
        assert rho.grid_min > 0
        ws = R.ResponseWorkspace(basis, phi, occ)
        M0 = R.m_fiber(ws, np.zeros(3))
        V = R.screening_density_V(ws)
        assert np.abs(M0[:, 0] - V.coeffs).max() < 1e-13
        k = np.array([0.05, 0.02, -0.03])
        assert R.b_function(ws, k) == pytest.approx(R.b_function(ws, -k), abs=1e-12)
        eps, ep, epp = R.epsilon_matrix(ws)
        assert eps.shape == (3, 3)
        assert np.abs(eps - eps.T).max() < 1e-10
        # cubic symmetry: isotropic permittivity
        assert eps[0, 0] == pytest.approx(eps[1, 1], rel=1e-9)
        assert eps[1, 1] == pytest.approx(eps[2, 2], rel=1e-9)
        assert np.abs(eps - np.diag(np.diag(eps))).max() < 1e-9


def _mid_gap_workspace(basis, phi, kgrid, T):
    bands = compute_bands(basis, phi, kgrid)
    lo, hi = bands.band_ranges()
    return R.ResponseWorkspace(basis, phi, OccupationModel(T=T, mu=float(0.5 * (hi[0] + lo[1]))))


def _mathieu(beta):
    lat = Lattice(np.array([[2 * np.pi]]))
    basis = PlaneWaveBasis(lat, ecut=200.0)
    phi = PeriodicField.from_callable(basis, lambda x: 2.0 * np.cos(x))
    return _mid_gap_workspace(basis, phi, monkhorst_pack(lat, 16), 1.0 / beta)


def _square():
    lat = Lattice(2 * np.pi * np.eye(2))
    basis = PlaneWaveBasis(lat, ecut=8.0)
    phi = PeriodicField.from_callable(
        basis, lambda x: 2.0 * (np.cos(x[..., 0]) + np.cos(x[..., 1]))
    )
    return _mid_gap_workspace(basis, phi, monkhorst_pack(lat, [4, 4]), 0.05)


def _hexagonal():
    a = 2 * np.pi
    lat = Lattice(a * np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]]))
    basis = PlaneWaveBasis(lat, ecut=6.0)
    coeffs = np.zeros(basis.n_pw, dtype=complex)
    for n in ([1, 0], [-1, 0], [0, 1], [0, -1], [1, -1], [-1, 1]):
        coeffs[basis.index_of(n)] = 0.6
    phi = PeriodicField(basis, coeffs)
    kgrid = monkhorst_pack(lat, [3, 3])
    mu = float(compute_bands(basis, phi, kgrid).eigenvalues[:, 0].max()) + 0.2
    return R.ResponseWorkspace(basis, phi, OccupationModel(T=0.2, mu=mu))


def _cubic():
    lat = Lattice(2 * np.pi * np.eye(3))
    basis = PlaneWaveBasis(lat, ecut=1.6)
    phi = PeriodicField.from_callable(
        basis, lambda x: 1.5 * (np.cos(x[..., 0]) + np.cos(x[..., 1]) + np.cos(x[..., 2]))
    )
    return _mid_gap_workspace(basis, phi, monkhorst_pack(lat, [2, 2, 2]), 0.1)


@pytest.mark.parametrize(
    "build",
    [lambda: _mathieu(20), lambda: _mathieu(40), lambda: _mathieu(60), _square, _hexagonal,
     _cubic],
    ids=["mathieu-beta20", "mathieu-beta40", "mathieu-beta60", "square", "hexagonal", "cubic"],
)
def test_rho_prime_matches_shift_tensor_contraction(build):
    """rho' as the density of U0 (D2 o P_j) U0^dagger against the contraction
    of the (n_pw, n_pw, n_pw) shift-overlap tensor, kept as the oracle."""
    ws = build()
    e0, U0 = ws.gamma
    A = shift_overlap_tensor(ws.basis, U0, U0)
    D2 = ws.weights(2, e0, e0, ws.occ)
    oracle = [
        -2.0 * np.einsum("pnm,nm->p", A.conj(), D2 * P) / ws.basis.lattice.volume
        for P in ws.momentum_matrices(U0)
    ]
    got = R.rho_prime(ws)
    assert all(g.dtype == np.complex128 for g in got)
    scale = max(np.abs(c).max() for c in oracle)
    assert scale > 0.0
    assert max(np.abs(g - c).max() for g, c in zip(got, oracle)) <= 1e-13 * scale


def test_pair_block_memory_scales_with_the_window():
    """One m_fiber on the 2D square basis at n_pw = 101 allocates
    O(n_pw^2 n_window): the overlap gathers index only the bands inside the
    occupied window, where a gather over the bands above it would take
    n_pw^2 (n_pw - n_window) complex entries (16 MB here)."""
    import tracemalloc

    lat = Lattice(2 * np.pi * np.eye(2))
    basis = PlaneWaveBasis(lat, ecut=16.0)
    assert basis.n_pw == 101
    phi = PeriodicField.from_callable(
        basis, lambda x: 2.0 * (np.cos(x[..., 0]) + np.cos(x[..., 1]))
    )
    lo, hi = compute_bands(basis, phi, monkhorst_pack(lat, [4, 4])).band_ranges()
    ws = R.ResponseWorkspace(basis, phi, OccupationModel(T=0.05, mu=float(0.5 * (hi[0] + lo[1]))))
    k = np.array([0.1, 0.05])
    # m_fiber pairs 0-fiber rows with k-fiber columns; both are diagonalized
    # before the measurement
    n_win = max(int(np.searchsorted(ws.fiber(q)[0], ws.pair_window, side="right"))
                for q in (np.zeros(2), k))
    assert 0 < n_win < 10
    tracemalloc.start()
    try:
        R.m_fiber(ws, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # at most six complex arrays of n_pw^2 n_window: a gather, its
    # conjugate, the overlaps and their weighted copies
    assert peak <= 6 * 16 * basis.n_pw**2 * n_win


def test_pair_blocks_hold_two_gathers_on_the_cubic_basis():
    """M_0 and one m_fiber at k != 0 on the configs/cubic.json crystal
    (n_pw = 179, r = 10 window bands): `_pair_block` holds at most two
    arrays of n_pw^2 r complex entries at once (a gather, the overlap, its
    weighted conjugate), plus n_pw^2 blocks, so the traced peak stays at
    or below 2.5 such arrays (4.1 when the gather, its conjugate copy, the
    overlap and its weighted conjugate were alive together)."""
    import tracemalloc

    lat = Lattice(2 * np.pi * np.eye(3))
    basis = PlaneWaveBasis(lat, ecut=6.0)
    assert basis.n_pw == 179
    phi = PeriodicField.from_callable(basis, lambda x: 1.5 * np.cos(x).sum(axis=-1))
    lo, hi = compute_bands(basis, phi, monkhorst_pack(lat, [2, 2, 2])).band_ranges()
    ws = R.ResponseWorkspace(basis, phi, OccupationModel(T=0.05, mu=float(0.5 * (hi[0] + lo[1]))))
    k = np.array([0.1, 0.05, 0.02])
    # the fibers and the window are built before the measurement
    r = int(np.searchsorted(ws.gamma[0], ws.pair_window, side="right"))
    assert r == 10 and np.searchsorted(ws.fiber(k)[0], ws.pair_window, side="right") == r
    gather = 16 * basis.n_pw**2 * r
    for build in (lambda: ws.m0, lambda: R.m_fiber(ws, k)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * gather
