import json
from pathlib import Path

import numpy as np
import pytest

from debye_forge.fibers import compute_bands, spectral_gap
from debye_forge.lattice import Lattice, PeriodicField, PlaneWaveBasis, SupercellField, monkhorst_pack
from debye_forge.macro import gaussian_source
from debye_forge import multiscale as M
from debye_forge.multiscale import (
    SubspaceConvergenceError,
    SupercellSolver,
    build_deformed_kappa,
    effective_coefficients,
    expansion_decompose,
    micro_solve_perturbation,
    nonlinearity_N,
)
from debye_forge.occupation import OccupationModel
from debye_forge.scf import CrystalState, construct_dielectric_kappa
from oracles import check_manifest, dense_density

REPO = Path(__file__).resolve().parent.parent
LAT = Lattice(np.array([[2 * np.pi]]))
BASIS = PlaneWaveBasis(LAT, ecut=50.0)
PHI = PeriodicField.from_callable(BASIS, lambda x: 2.0 * np.cos(x))


def make_crystal(beta=40.0, N=8, basis=BASIS, phi=PHI):
    kg = monkhorst_pack(LAT, N)
    bands = compute_bands(basis, phi, kg)
    lo, hi = bands.band_ranges()
    mu = float(0.5 * (hi[0] + lo[1]))
    T = 1.0 / beta
    kappa, rho = construct_dielectric_kappa(phi, mu, T, kg)
    return CrystalState(
        basis=basis, k_points=kg, kappa=kappa, rho=rho, phi=phi, mu=mu,
        occ=OccupationModel(T=T, mu=mu), bands=bands, gap=spectral_gap(bands, mu),
    )


def macro_box():
    return Lattice(LAT.basis.copy())


def wave(sol, amplitude=0.05):
    """A smooth real psi on the solver's supercell grid."""
    sb = sol.basis
    N = int(sb.factors[0])
    x = np.arange(sb.fft_shape[0]) * (2 * np.pi * N / sb.fft_shape[0])
    vals = amplitude * np.cos(x / N) + 0.4 * amplitude * np.sin(3 * x / N)
    return SupercellField(LAT, np.full(1, N), vals)


def bump(N, amplitude=0.01, width=0.35, mean_free=True):
    return gaussian_source(
        macro_box(), (BASIS.fft_shape[0] * N,), center=[np.pi],
        width=width, amplitude=amplitude, mean_free=mean_free,
    )


def count_calls(monkeypatch, *names):
    """Record the calls of the named SupercellSolver methods: {name: [args]}."""
    calls = {}
    for name in names:
        method = getattr(SupercellSolver, name)
        calls[name] = []

        def counted(self, *args, _method=method, _log=calls[name]):
            _log.append(args)
            return _method(self, *args)

        monkeypatch.setattr(SupercellSolver, name, counted)
    return calls


class TestBuildDeformed:
    def test_zero_perturbation_tiles_kappa(self):
        st = make_crystal()
        src = bump(8, amplitude=0.0)
        dc = build_deformed_kappa(st, 1 / 8, src)
        tiled = SupercellField.from_periodic(st.kappa, np.full(1, 8))
        assert np.abs(dc.kappa_delta.values - tiled.values).max() < 1e-14

    def test_added_charge_matches_macro_integral(self):
        st = make_crystal()
        src = bump(8, amplitude=0.02, mean_free=False)
        dc = build_deformed_kappa(st, 1 / 8, src)
        added = (dc.kappa_prime_delta.mean() * dc.kappa_prime_delta.volume).real
        macro = (src.mean() * src.volume).real
        assert added == pytest.approx(macro, abs=1e-10)

    def test_center_value_pointwise(self):
        st = make_crystal(N=16)
        delta = 1 / 16
        src = bump(16, amplitude=0.02, mean_free=False)
        dc = build_deformed_kappa(st, delta, src)
        # at supercell point y0 with delta*y0 = macro center x0:
        # kappa_delta(y0) = kappa_per(y0) + delta^d kappa'(x0)
        i_macro = np.argmax(src.values)
        vals_tiled = SupercellField.from_periodic(st.kappa, np.full(1, 16)).values
        got = dc.kappa_delta.values[i_macro]
        expect = vals_tiled[i_macro] + delta * src.values[i_macro]
        assert got == pytest.approx(expect, rel=1e-12)

    def test_noncommensurate_delta_refused(self):
        st = make_crystal()
        with pytest.raises(ValueError, match="1/N"):
            build_deformed_kappa(st, 0.3, bump(8))

    def test_foreign_grid_refused(self):
        # kappa' must be sampled on the supercell grid; no resampling
        st = make_crystal()
        coarse = gaussian_source(
            macro_box(), (BASIS.fft_shape[0] * 4,), center=[np.pi], width=0.35,
            amplitude=0.01, mean_free=True,
        )
        with pytest.raises(ValueError, match="supercell grid"):
            build_deformed_kappa(st, 1 / 8, coarse)

    def test_wide_support_refused(self):
        st = make_crystal()
        src = bump(8, amplitude=0.02, width=2.0, mean_free=False)
        with pytest.raises(ValueError, match="support"):
            build_deformed_kappa(st, 1 / 8, src)


class TestSupercellSolver:
    def test_density_consistent_at_zero(self):
        st = make_crystal()
        sol = SupercellSolver(st, 8)
        zero = SupercellField(LAT, np.full(1, 8), np.zeros(sol.basis.fft_shape))
        drho = sol.delta_density(zero)
        assert np.abs(drho.values).max() < 1e-13

    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_windowed_density_against_full_eigh(self, N):
        st = make_crystal(N=N)
        sol = SupercellSolver(st, N)
        sb = sol.basis
        phi = sol.phi_tiled + wave(sol)
        got = sol.density(phi).values
        full = dense_density(sol, phi)
        win = sol.density_window
        assert win["of"] == sb.n_pw and 0 < win["kept"] < sb.n_pw
        assert 0.0 < win["dropped_bound"] <= np.finfo(float).eps ** 2 / sb.lattice.volume
        assert win["filter_passes"][0] >= 1
        assert np.abs(got - full).max() <= 1e-13 * np.abs(full).max()

    @pytest.mark.parametrize("N", [8, 32])
    def test_reference_density_takes_no_filter_pass(self, N):
        # the fiber-block start is exact at psi = 0
        sol = SupercellSolver(make_crystal(N=N), N)
        rho = sol.rho_tiled.values
        full = dense_density(sol, sol.phi_tiled)
        assert sol.density_window["filter_passes"] == [0]
        assert np.abs(rho - full).max() <= 1e-13 * np.abs(full).max()

    @pytest.mark.parametrize("N", [8, 32])
    def test_reference_density_is_the_fiber_states(self, monkeypatch, N):
        # at psi = 0 the fiber states are exact: one application of h^phi
        # for their residuals, no Rayleigh-Ritz, and no Ritz vectors kept
        sol = SupercellSolver(make_crystal(N=N), N)
        calls = count_calls(monkeypatch, "apply_hamiltonian", "_rayleigh_ritz")
        rho = sol.rho_tiled.values
        assert len(calls["apply_hamiltonian"]) == 1 and not calls["_rayleigh_ritz"]
        assert sol.density_window["starts"] == ["fiber-states"]
        assert sol._ritz_rows is None
        assert np.array_equal(rho, sol.density(sol.phi_tiled).values)
        zero = SupercellField(LAT, np.full(1, N), np.zeros(sol.basis.fft_shape))
        assert np.array_equal(rho, sol.density(sol.phi_tiled + zero).values)

    def test_first_density_after_the_reference_corrects_the_fiber_start(self, monkeypatch):
        # the reference keeps no Ritz vectors, and a potential that is not
        # micro-periodic never takes the fiber states as they are: the
        # first perturbed density has one start, the corrected fiber one
        sol = SupercellSolver(make_crystal(N=8), 8)
        sol.rho_tiled
        calls = count_calls(monkeypatch, "apply_hamiltonian", "_corrected", "_fiber_rows")
        sol.density(sol.phi_tiled + wave(sol, amplitude=0.01))
        win = sol.density_window
        assert win["starts"] == ["fiber-states", "fiber"] and win["filter_passes"] == [0, 0]
        retries = win["corrections"][1]
        assert len(calls["_corrected"]) == 1 + retries
        assert len(calls["_fiber_rows"]) == 1
        assert len(calls["apply_hamiltonian"]) == 2 + retries

    def test_warm_ritz_start_meeting_the_stop_skips_the_fiber_start(self, monkeypatch):
        sol = SupercellSolver(make_crystal(N=8), 8)
        psi = wave(sol, amplitude=0.01)
        sol.rho_tiled
        sol.density(sol.phi_tiled + psi)
        calls = count_calls(monkeypatch, "_corrected", "_fiber_rows")
        sol.density(sol.phi_tiled + psi * (1.0 + 1e-8))
        win = sol.density_window
        assert win["starts"][-1] == "ritz"
        assert win["filter_passes"][-1] == 0 and win["corrections"][-1] == 0
        # the one correction is the Ritz start's; no fiber rows are built
        assert len(calls["_corrected"]) == 1 and not calls["_fiber_rows"]

    def test_fiber_states_need_a_micro_periodic_potential(self):
        # off the micro lattice h^phi couples the fibers, and the fiber
        # states are not Ritz pairs: their residuals need not be orthogonal
        # to the subspace, so their bound would not hold. At this amplitude
        # the bound of the uncorrected fiber states meets the stop test
        sol = SupercellSolver(make_crystal(N=8), 8)
        cell = PeriodicField.from_callable(BASIS, lambda x: 0.3 * np.sin(2 * x))
        for phi in (sol.phi_tiled + wave(sol, amplitude=1e-13),
                    sol.phi_tiled + SupercellField.from_periodic(cell, 8)):
            got = sol.density(phi).values
            full = dense_density(sol, phi)
            assert np.abs(got - full).max() <= 1e-13 * np.abs(full).max()
        assert sol.density_window["starts"] == ["fiber", "fiber-states"]

    def test_subspace_filling_the_basis_goes_through_rayleigh_ritz(self):
        # with the window and its guard as large as the basis nothing lies
        # outside the subspace and the bound is 0 whatever the residuals:
        # only exact Ritz pairs may take it, never the fiber states
        basis = PlaneWaveBasis(LAT, ecut=2.0)
        phi = PeriodicField.from_callable(basis, lambda x: 2.0 * np.cos(x))
        sol = SupercellSolver(make_crystal(N=2, basis=basis, phi=phi), 2)
        sb = sol.basis
        kept = int(np.sum(sol._fiber_eigh(sol.phi_tiled.values)[0] <= sol._e_hi))
        assert sol._subspace_size(kept) == sb.n_pw
        sol.rho_tiled
        x = np.arange(sb.fft_shape[0]) * (2 * np.pi / sb.fft_shape[0])
        phi = sol.phi_tiled + SupercellField(LAT, np.full(1, 2), 0.3 * np.cos(x))
        got = sol.density(phi).values
        full = dense_density(sol, phi)
        assert "fiber-states" not in sol.density_window["starts"]
        assert np.abs(got - full).max() <= 1e-13 * np.abs(full).max()

    @pytest.mark.parametrize("N", [8, 16])
    def test_small_psi_converges_by_corrections_alone(self, N):
        # repeated first-order corrections reach the stop with no filter pass
        sol = SupercellSolver(make_crystal(N=N), N)
        phi = sol.phi_tiled + wave(sol, amplitude=0.01)
        got = sol.density(phi).values
        full = dense_density(sol, phi)
        win = sol.density_window
        assert win["filter_passes"] == [0] and win["corrections"][0] >= 1
        assert np.abs(got - full).max() <= 1e-13 * np.abs(full).max()

    def test_retry_meeting_the_stop_is_kept(self, monkeypatch):
        # N = 32, wave amplitude 0.05: after the first filter pass the
        # retried correction meets the stop test while gaining less than
        # CORRECTION_GAIN; it is kept, and no second filter pass follows
        sol = SupercellSolver(make_crystal(N=32), 32)
        phi = sol.phi_tiled + wave(sol)
        bounds = []
        window = SupercellSolver._ritz_window

        def recorded(self, *args):
            state = window(self, *args)
            bounds.append(state[-1])
            return state

        monkeypatch.setattr(SupercellSolver, "_ritz_window", recorded)
        got = sol.density(phi).values
        monkeypatch.undo()
        win = sol.density_window
        assert win["filter_passes"] == [1] and win["corrections"] == [1]
        # start, dropped retry, filter pass, kept retry
        assert len(bounds) == 4 and bounds[3] > bounds[2] / M.CORRECTION_GAIN
        assert bounds[3] == win["subspace_bound"]
        full = dense_density(sol, phi)
        assert np.abs(got - full).max() <= 1e-13 * np.abs(full).max()

    def test_retry_reuses_the_ritz_pairs(self, monkeypatch):
        # a start costs two h^phi applications (Rayleigh-Ritz before the
        # correction, and after it); a retry corrects the Ritz pairs of
        # the last window, which carry their residuals, so it costs one
        sol = SupercellSolver(make_crystal(N=8), 8)
        applied = []
        apply = SupercellSolver.apply_hamiltonian

        def counted(self, values, rows):
            applied.append(1)
            return apply(self, values, rows)

        monkeypatch.setattr(SupercellSolver, "apply_hamiltonian", counted)
        sol.density(sol.phi_tiled + wave(sol, amplitude=0.01))  # one start
        win = sol.density_window
        assert win["filter_passes"] == [0] and win["corrections"][0] >= 2
        assert len(applied) == 2 + win["corrections"][0]

    def test_warm_start_does_less_work_than_cold(self, monkeypatch):
        sol = SupercellSolver(make_crystal(N=16), 16)
        applied = []  # one entry per application of h^phi to the subspace
        apply = SupercellSolver.apply_hamiltonian

        def counted(self, values, rows):
            applied.append(1)
            return apply(self, values, rows)

        monkeypatch.setattr(SupercellSolver, "apply_hamiltonian", counted)
        psi = wave(sol)
        sol.density(sol.phi_tiled + psi)  # cold: no Ritz vectors yet
        cold_applied = len(applied)
        sol.density(sol.phi_tiled + psi * (1.0 + 1e-4))  # warm: the last Ritz vectors
        win = sol.density_window
        cold, warm = np.add(win["filter_passes"], win["corrections"])
        assert warm < cold
        assert len(applied) - cold_applied < cold_applied

    def test_fresh_solvers_give_bit_identical_densities(self):
        st = make_crystal()
        runs = []
        for _ in range(2):
            sol = SupercellSolver(st, 8)
            psi = wave(sol)
            runs.append([sol.density(sol.phi_tiled + psi * t).values for t in (0.0, 1.0, 0.5)])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("tol", [1e4, 1e8])
    def test_subspace_bound_covers_error(self, monkeypatch, tol):
        # a loose stop, so that the iterate's error stands well above the
        # oracle's own round-off: the reported bound must still cover it
        monkeypatch.setattr(M, "SUBSPACE_TOL", tol)
        for N in (8, 32):
            sol = SupercellSolver(make_crystal(N=N), N)
            phi = sol.phi_tiled + wave(sol)
            err = sol.density(phi).values - dense_density(sol, phi)
            err_l2 = np.sqrt(sol.basis.lattice.volume * np.mean(err**2))
            assert 1e-13 < err_l2 <= sol.density_window["subspace_bound"]

    def test_pass_cap_raises(self, monkeypatch):
        monkeypatch.setattr(M, "MAX_FILTER_PASSES", 1)
        sol = SupercellSolver(make_crystal(), 8)
        # large enough that a repeated correction gains less than
        # CORRECTION_GAIN, so the filter runs (two passes without the cap)
        with pytest.raises(SubspaceConvergenceError, match="filter passes"):
            sol.density(sol.phi_tiled + wave(sol, amplitude=0.1))

    @pytest.mark.parametrize("N", [8, 32])
    def test_constant_shift_grows_the_subspace(self, monkeypatch, N):
        # phi + c lowers every level by c: more states fall below e_hi.
        # Alone the shift keeps h^phi block-diagonal, so the fiber states
        # of the shifted potential are exact
        sol = SupercellSolver(make_crystal(N=N), N)
        sol.rho_tiled
        kept0 = sol.density_window["kept"]
        phi = sol.phi_tiled.copy_with(sol.phi_tiled.values + 2.0)
        got = sol.density(phi).values
        full = dense_density(sol, phi)
        assert sol.density_window["kept"] > 1.5 * kept0
        assert sol.density_window["starts"] == ["fiber-states"] * 2
        assert np.abs(got - full).max() <= 1e-13 * np.abs(full).max()

        # after a perturbed density the shift leaves the Ritz vectors of
        # that call short of the new window: the Ritz start is refilled
        def shifted_after_wave(sol):
            perturbed = sol.phi_tiled + wave(sol)
            sol.density(perturbed)
            kept = sol.density_window["kept"]
            phi = perturbed.copy_with(perturbed.values + 2.0)
            return kept, phi, sol.density(phi).values

        sol = SupercellSolver(make_crystal(N=N), N)
        kept0, phi, got = shifted_after_wave(sol)
        full = dense_density(sol, phi)
        assert sol.density_window["kept"] > 1.5 * kept0
        assert np.abs(got - full).max() <= 1e-13 * np.abs(full).max()
        monkeypatch.setattr(M, "MAX_SUBSPACE_GROWTH", 1)
        with pytest.raises(SubspaceConvergenceError, match="refills"):
            shifted_after_wave(SupercellSolver(make_crystal(N=N), N))

    def test_frozen_jacobian_matches_fd(self):
        # directions must be band-limited to the plane-wave ball: that is
        # the domain of the discretized unknown (the solver synthesizes
        # psi from ball coefficients only)
        st = make_crystal()
        sol = SupercellSolver(st, 8)
        sb = sol.basis
        # Hermitian-closed ball modes only: slots whose negation partner
        # is also inside the ball (real directions without stray
        # out-of-ball content from realification)
        qindex = {tuple(q): i for i, q in enumerate(sb.q_ints)}
        neg = np.array([qindex.get(tuple(-q), -1) for q in sb.q_ints])
        rng = np.random.default_rng(1)
        for _ in range(5):
            vc = rng.standard_normal(sb.n_pw) + 1j * rng.standard_normal(sb.n_pw)
            vc[neg < 0] = 0.0
            ok = neg >= 0
            vc[ok] = 0.5 * (vc[ok] + np.conj(vc[neg[ok]]))
            vc[qindex[tuple(np.zeros(1, dtype=int))]] = 0.0
            arr = np.zeros(sb.fft_shape, dtype=complex)
            arr.flat[sb._fft_pos] = vc
            v = (np.fft.ifftn(arr) * np.prod(sb.fft_shape)).real
            vf = SupercellField(LAT, np.full(1, 8), v)
            vc = sb.grid_to_coeffs(vf.values)
            h = 1e-5
            Rp = sb.q_norm2 * (h * vc) + sb.grid_to_coeffs(sol.delta_density(vf * h).values)
            Rm = sb.q_norm2 * (-h * vc) + sb.grid_to_coeffs(sol.delta_density(vf * (-h)).values)
            fd = (Rp - Rm) / (2 * h)
            Jv = sol.apply_jacobian(vc)
            assert np.abs(fd - Jv).max() <= 1e-6 * np.abs(Jv).max()


    def test_stacked_blocks_match_per_block_loop(self):
        # the per-fiber loop kept as the reference for the batched matmul
        # and the batched solve (with the Gamma block pinned)
        st = make_crystal()
        sol = SupercellSolver(st, 8)
        blocks = sol.jacobian_blocks()
        nf, n, _ = blocks.shape
        assert nf == sol.basis.n_fibers and nf * n == sol.basis.n_pw
        rng = np.random.default_rng(4)
        x = rng.standard_normal(nf * n) + 1j * rng.standard_normal(nf * n)
        cols = x.reshape(nf, n)
        applied = np.concatenate([B @ c for B, c in zip(blocks, cols)])
        assert np.abs(sol.apply_jacobian(x) - applied).max() <= 1e-14 * np.abs(applied).max()
        gamma = int(np.argmin(np.einsum("ij,ij->i", sol.basis.k_points, sol.basis.k_points)))
        solved = []
        for j, (B, c) in enumerate(zip(blocks, cols)):
            if j == gamma:  # the mean is pinned on this crystal
                B, c = B.copy(), c.copy()
                B[0, :] = B[:, 0] = 0.0
                B[0, 0] = 1.0
                c[0] = 0.0
            solved.append(np.linalg.solve(B, c))
        solved = np.concatenate(solved)
        assert np.abs(sol.solve_jacobian(x) - solved).max() <= 1e-13 * np.abs(solved).max()


def square_crystal(N, beta=20.0):
    """The 2D square crystal 2 (cos x + cos y) at ecut 8 on an N x N grid."""
    lat = Lattice(2 * np.pi * np.eye(2))
    basis = PlaneWaveBasis(lat, ecut=8.0)
    phi = PeriodicField.from_callable(
        basis, lambda x: 2.0 * (np.cos(x[..., 0]) + np.cos(x[..., 1])))
    kg = monkhorst_pack(lat, [N, N])
    bands = compute_bands(basis, phi, kg)
    lo, hi = bands.band_ranges()
    mu = float(0.5 * (hi[0] + lo[1]))
    kappa, rho = construct_dielectric_kappa(phi, mu, 1 / beta, kg)
    return CrystalState(
        basis=basis, k_points=kg, kappa=kappa, rho=rho, phi=phi, mu=mu,
        occ=OccupationModel(T=1 / beta, mu=mu), bands=bands, gap=spectral_gap(bands, mu),
    )


# (crystal, fiber count, m_fiber_averaged calls): k = 0 and the points whose
# -k leaves the centred grid (the zone face of an even grid) are computed,
# and one k of each other +-k pair
@pytest.mark.parametrize("case", [("1d", 5, 3), ("1d", 8, 5), ("2d", 4, 12)],
                         ids=["1d-N5", "1d-N8-face", "2d-N4"])
def test_jacobian_blocks_from_half_the_zone(case, monkeypatch):
    dim, N, n_calls = case
    st = make_crystal(N=N) if dim == "1d" else square_crystal(N)
    sol = SupercellSolver(st, N)
    calls = []
    direct = M.m_fiber_averaged

    def counted(ws, k, k_grid):
        calls.append(tuple(k))
        return direct(ws, k, k_grid)

    monkeypatch.setattr(M, "m_fiber_averaged", counted)
    blocks = sol.jacobian_blocks()
    monkeypatch.undo()
    assert len(calls) == n_calls and len(set(calls)) == n_calls
    assert len(blocks) == sol.basis.n_fibers == N ** st.basis.d
    ws = M.ResponseWorkspace.of(st)
    kpts = sol.basis.k_points
    for B, k in zip(blocks, kpts):
        ref = direct(ws, k, kpts)
        ref[np.diag_indices_from(ref)] += st.basis.kinetic_diagonal(k)
        assert np.abs(B - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("case", [("1d", 8, 5), ("1d", 32, 17), ("2d", 4, 12)],
                         ids=["1d-N8", "1d-N32", "2d-N4"])
def test_fiber_eigh_fills_time_reversed_blocks(case, monkeypatch):
    # one batched eigh over the blocks without an earlier partner (k = 0,
    # the zone face of an even grid, one k of each +-k pair); each partner
    # filled from its pair holds the eigenpairs of its own block
    dim, N, n_direct = case
    st = make_crystal(N=N) if dim == "1d" else square_crystal(N)
    sol = SupercellSolver(st, N)
    sb = sol.basis
    rng = np.random.default_rng(7)
    v = sol.phi_tiled.values + 0.05 * rng.standard_normal(sb.fft_shape)
    batched = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kw):
        if np.ndim(a) == 3:
            batched.append(a.shape[0])
        return eigh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    e, U, _ = sol._fiber_eigh(v)
    monkeypatch.undo()
    partners = M.time_reversal_partners(st.basis.lattice, sb.k_points)
    assert batched == [n_direct] == [int(np.sum(partners < 0))]
    nf = sb.micro.n_pw
    V = sb.fiber_block(v)
    tol = 10 * nf * np.finfo(float).eps
    for i in np.flatnonzero(partners >= 0):
        H = -V + np.diag(sb.q_norm2[i * nf:(i + 1) * nf])
        h_norm = np.linalg.norm(H, 2)
        assert np.linalg.norm(H @ U[i] - U[i] * e[i], 2) <= tol * h_norm
        # relative to ||H||: eigh itself rounds an eigenvalue of 100 by ~1e-13
        assert np.abs(e[i] - np.linalg.eigvalsh(H)).max() <= 1e-13 * h_norm


class TestMicroSolve:
    def test_zero_perturbation_zero_solution(self):
        st = make_crystal()
        dc = build_deformed_kappa(st, 1 / 8, bump(8, amplitude=0.0))
        phid, psim, info = micro_solve_perturbation(dc)
        assert np.abs(psim.values).max() == 0.0
        assert info["iterations"] == 0
        assert info["status"] == "converged"

    @pytest.mark.parametrize(
        "amplitude, tol, status",
        [(0.01, 1e-6, "converged"), (0.01, 1e-10, "converged"), (0.01, 1e-16, "noise-floor")],
    )
    def test_status(self, amplitude, tol, status):
        st = make_crystal()
        dc = build_deformed_kappa(st, 1 / 8, bump(8, amplitude=amplitude))
        _, _, info = micro_solve_perturbation(dc, tol=tol)
        assert info["status"] == status
        res = info["residuals"][-1]
        if status == "converged":
            assert info["relative_residual"] <= tol
        else:
            assert info["relative_residual"] > tol and res <= info["noise_floor"]
        # the floor is never below what the density route resolves
        assert info["noise_floor"] >= 2 * info["density_window"]["subspace_bound"]

    def test_floor_is_twice_the_subspace_bound(self):
        # the residual holds the difference of two filtered densities, each
        # within its subspace bound; no dense-eigensolver term props it up
        st = make_crystal()
        dc = build_deformed_kappa(st, 1 / 8, bump(8, amplitude=0.01))
        _, _, info = micro_solve_perturbation(dc)
        assert info["noise_floor"] == 2 * info["density_window"]["subspace_bound"] > 0.0

    def test_floor_follows_a_loose_subspace_bound(self, monkeypatch):
        # densities stopped far above the dense-eigensolver noise: the floor
        # must rise with them, or Newton would chase their error
        monkeypatch.setattr(M, "SUBSPACE_TOL", 1e6)
        st = make_crystal()
        dc = build_deformed_kappa(st, 1 / 8, bump(8, amplitude=0.01))
        _, _, info = micro_solve_perturbation(dc, tol=1e-16)
        ref = SupercellSolver(st, 8)
        eigh_floor = 4 * ref.basis.n_pw * np.finfo(float).eps * (1 + ref.rho_tiled.l2_norm())
        assert info["noise_floor"] == 2 * info["density_window"]["subspace_bound"] > eigh_floor
        assert info["status"] == "noise-floor"

    def test_stall_clause_reports_stagnated(self, monkeypatch):
        """Density noise that grows with every call: no damped step descends
        once the true residual is below it, and the stall clause accepts a
        residual above 10 noise floors but within 1e-6 ||kappa'||."""
        st = make_crystal()
        dc = build_deformed_kappa(st, 1 / 8, bump(8, amplitude=0.01))
        sb = SupercellSolver(st, 8).basis
        kp = sb.grid_to_coeffs(dc.kappa_prime_delta.values)
        kp_norm = np.sqrt(sb.lattice.volume * np.sum(np.abs(kp) ** 2))
        x = np.arange(sb.fft_shape[0]) * (2 * np.pi / sb.fft_shape[0])
        pattern = np.cos(x)  # the longest supercell wave, unit L2 norm
        pattern /= np.sqrt(sb.lattice.volume * np.mean(pattern**2))
        calls = []
        delta_density = SupercellSolver.delta_density

        def noisy(self, psi):
            calls.append(1)
            drho = delta_density(self, psi)
            return drho.copy_with(drho.values + 1e-7 * kp_norm * (1 + 0.1 * len(calls)) * pattern)

        monkeypatch.setattr(SupercellSolver, "delta_density", noisy)
        _, _, info = micro_solve_perturbation(dc)
        assert info["status"] == "stagnated"
        assert 10 * info["noise_floor"] < info["residuals"][-1] <= 1e-6 * kp_norm

    def test_linear_regime_richardson(self):
        st = make_crystal()
        sol = SupercellSolver(st, 8)
        sb = sol.basis
        base = bump(8, amplitude=0.02)
        kp = sb.grid_to_coeffs(
            build_deformed_kappa(st, 1 / 8, base).kappa_prime_delta.values
        )
        lin = sol.solve_jacobian(kp)
        errs = []
        ts = (1.0, 0.5, 0.25)
        for t in ts:
            scaled = bump(8, amplitude=0.02 * t)
            dc = build_deformed_kappa(st, 1 / 8, scaled)
            _, psim, _ = micro_solve_perturbation(dc)
            pc = sb.grid_to_coeffs(psim.values) / t
            errs.append(np.linalg.norm(pc - lin))
        slopes = np.diff(np.log(errs)) / np.diff(np.log(ts))
        assert all(0.7 < s < 1.4 for s in slopes)  # O(t) deviation from linear

    def test_charge_screening_moderate_temperature(self):
        # non-neutral kappa' at beta = 5: the induced density absorbs the
        # added charge as the box grows (perfect screening at T > 0)
        defects = []
        for N in (4, 8, 16):
            st = make_crystal(beta=5.0, N=N)
            src = bump(N, amplitude=0.02, width=0.3, mean_free=False)
            dc = build_deformed_kappa(st, 1.0 / N, src)
            _, psim, _ = micro_solve_perturbation(dc)
            solver = SupercellSolver(st, N)
            drho = solver.delta_density(psim)
            added = dc.kappa_prime_delta.mean() * dc.kappa_prime_delta.volume
            induced = drho.mean() * drho.volume
            defects.append(abs(added - induced) / abs(added))
        assert defects[-1] < 1e-8
        assert defects[-1] <= defects[0] + 1e-12

    def test_decomposition_identity_exact(self):
        st = make_crystal()
        dc = build_deformed_kappa(st, 1 / 8, bump(8, amplitude=0.005))
        phid, psim, info = micro_solve_perturbation(dc)
        from debye_forge.response import ResponseWorkspace, homogenized_coefficients

        ws = ResponseWorkspace(BASIS, PHI, st.occ)
        coeffs = homogenized_coefficients(ws, 1 / 8, st.eta0)
        rep = expansion_decompose(dc, psim, coeffs, newton_info=info)
        # phi_delta = phi_per + macro term + remainder, exactly by construction
        recon = rep.macro_term.values + rep.phi_rem.values
        assert np.abs(recon - psim.values).max() < 1e-14 * max(
            1.0, np.abs(psim.values).max()
        )
        assert np.abs(
            (phid - SupercellField.from_periodic(PHI, np.full(1, 8))).values
            - psim.values
        ).max() < 1e-14

    def test_solution_solves_equation(self):
        # plugging phi_delta back into the full equation leaves a tiny residual
        st = make_crystal()
        dc = build_deformed_kappa(st, 1 / 8, bump(8, amplitude=0.01))
        phid, psim, info = micro_solve_perturbation(dc, tol=1e-11)
        solver = SupercellSolver(st, 8)
        sb = solver.basis
        psi_c = sb.grid_to_coeffs(psim.values)
        res = (
            sb.q_norm2 * psi_c
            - sb.grid_to_coeffs(dc.kappa_prime_delta.values)
            + sb.grid_to_coeffs(solver.delta_density(psim).values)
        )
        rnorm = np.sqrt(sb.lattice.volume * np.sum(np.abs(res) ** 2))
        assert rnorm < 1e-9

    def test_info_is_plain_data(self):
        st = make_crystal()
        dc = build_deformed_kappa(st, 1 / 8, bump(8, amplitude=0.01))
        _, _, info = micro_solve_perturbation(dc)
        assert json.loads(json.dumps(info)) == info
        assert {"iterations", "relative_residual", "noise_floor"} <= set(info)

    def test_zero_source_info_has_the_same_keys(self):
        st = make_crystal()
        _, _, info = micro_solve_perturbation(build_deformed_kappa(st, 1 / 8, bump(8)))
        _, _, info0 = micro_solve_perturbation(
            build_deformed_kappa(st, 1 / 8, bump(8, amplitude=0.0))
        )
        assert set(info0) == set(info)
        assert json.loads(json.dumps(info0)) == info0
        assert info0["relative_residual"] == info0["nonlinearity_l2"] == 0.0
        assert info0["density_window"]["of"] == info["density_window"]["of"]


class TestNonlinearity:
    def test_one_solver_one_reference_density(self, monkeypatch):
        """k calls on one solver: one density for rho_tiled, one per call."""
        st = make_crystal()
        solver = SupercellSolver(st, 8)
        calls = []
        density = SupercellSolver.density

        def counted(self, phi_field):
            calls.append(1)
            return density(self, phi_field)

        monkeypatch.setattr(SupercellSolver, "density", counted)
        x = np.arange(BASIS.fft_shape[0] * 8) * (2 * np.pi / BASIS.fft_shape[0])
        psi = SupercellField(LAT, np.full(1, 8), 0.05 * np.cos(x / 8))
        for t in (1.0, 0.1, 0.01):
            nonlinearity_N(solver, psi * t)
        assert len(calls) == 1 + 3

    def test_zero_input(self):
        st = make_crystal()
        psi = SupercellField(LAT, np.full(1, 8), np.zeros(BASIS.fft_shape[0] * 8))
        assert nonlinearity_N(SupercellSolver(st, 8), psi).l2_norm() < 1e-13

    def test_quadratic_scaling(self):
        st = make_crystal()
        N = 8
        L = 2 * np.pi * N
        x = np.arange(BASIS.fft_shape[0] * N) / (BASIS.fft_shape[0] * N) * L
        psi = SupercellField(
            LAT, np.full(1, N), 0.4 * np.cos(2 * np.pi * x / L) + 0.2 * np.sin(4 * np.pi * x / L)
        )
        ts = np.array([1e-1, 1e-2, 1e-3])
        solver = SupercellSolver(st, N)
        norms = [nonlinearity_N(solver, psi * t).l2_norm() for t in ts]
        slope = np.polyfit(np.log(ts), np.log(norms), 1)[0]
        assert abs(slope - 2.0) < 0.1

    def test_total_charge_of_N_matches_subtraction(self):
        st = make_crystal()
        N = 8
        L = 2 * np.pi * N
        x = np.arange(BASIS.fft_shape[0] * N) / (BASIS.fft_shape[0] * N) * L
        psi = SupercellField(LAT, np.full(1, N), 0.05 * np.cos(2 * np.pi * x / L))
        solver = SupercellSolver(st, N)
        nl = nonlinearity_N(solver, psi)
        sb = solver.basis
        drho = solver.delta_density(psi)
        psi_c = sb.grid_to_coeffs(psi.values)
        lin_c = solver.apply_jacobian(psi_c) - sb.q_norm2 * psi_c
        direct = (drho.mean() * drho.volume) - lin_c[
            int(np.argmin(np.abs(sb.q_norm2)))
        ].real * sb.lattice.volume
        assert nl.mean() * nl.volume == pytest.approx(direct, abs=1e-10)


def test_effective_coefficients_close_to_single_pair_form():
    st = make_crystal()
    from debye_forge.response import ResponseWorkspace, homogenized_coefficients

    ws = ResponseWorkspace(BASIS, PHI, st.occ)
    coeffs = homogenized_coefficients(ws, 1 / 8, st.eta0)
    dc = build_deformed_kappa(st, 1 / 8, bump(8, amplitude=0.0))
    ceff = effective_coefficients(dc, coeffs)
    # zone-averaged and single-fiber permittivities differ at the percent
    # level on this crystal, no more
    assert abs(ceff.eps[0, 0] - coeffs.eps[0, 0]) / coeffs.eps[0, 0] < 0.05
    assert ceff.nu > 0
    # every field derived from nu follows the effective nu
    assert ceff.debye_length == 1 / np.sqrt(ceff.nu)
    assert ceff.nu == ceff.b0 / (1 / 8) ** 2


@pytest.mark.parametrize("N", [8, 16])
def test_effective_b0_is_the_jacobian_schur_complement(N, monkeypatch):
    from debye_forge import response as R

    st = make_crystal(N=N)
    ws = R.ResponseWorkspace.of(st)
    coeffs = R.homogenized_coefficients(ws, 1 / N, st.eta0)
    dc = build_deformed_kappa(st, 1 / N, bump(N, amplitude=0.0))
    calls = []
    b_function = R.b_function
    monkeypatch.setattr(R, "b_function", lambda *a, **kw: calls.append(1) or b_function(*a, **kw))
    ceff = effective_coefficients(dc, coeffs)
    # b(k) at k = delta / 2 and delta only; b(0) is the Schur complement of
    # the k = 0 block of the solver's Newton Jacobian
    assert len(calls) == 2
    assert dc.solver is SupercellSolver.of(dc)
    assert ceff.b0 == b_function(ws, 0.0, k_grid=dc.solver.basis.k_points)


def test_oversized_split_radius_warns():
    st = make_crystal()
    dc = build_deformed_kappa(st, 1 / 8, bump(8, amplitude=0.005))
    _, psim, info = micro_solve_perturbation(dc)
    from debye_forge.response import ResponseWorkspace, homogenized_coefficients

    ws = ResponseWorkspace(BASIS, PHI, st.occ)
    coeffs = homogenized_coefficients(ws, 1 / 8, st.eta0)
    with pytest.warns(UserWarning, match="split radius"):
        expansion_decompose(dc, psim, coeffs, a_split=2.0, newton_info=info)


@pytest.mark.parametrize("amplitude", [1.90, 1.917])
def test_mean_pinned_relative_to_gamma_block(tmp_path, amplitude):
    """The reference config at ecut 50 with a weaker cosine: the Gamma-block
    screening entry is about 1e-13, round-off against its block. The mean
    must be pinned, or the remainder loses its order-2 convergence."""
    from debye_forge.config import parse_config
    from debye_forge.pipeline import run_pipeline

    raw = json.loads((REPO / "configs" / "mathieu.json").read_text())
    raw.update(ecut=50.0, output_dir=str(tmp_path))
    raw["crystal"]["potential"]["terms"][0]["amplitude"] = amplitude
    assert run_pipeline(parse_config(raw), {"crystal", "multiscale"}) == 0
    order = json.loads((tmp_path / "multiscale" / "order.json").read_text())
    assert order["l2_slope"] >= 1.8


def test_newton_evaluates_each_density_once(monkeypatch):
    """One supercell density for rho_tiled, then one per residual trial:
    none at psi = 0 (that residual is -kappa'_delta) and no repeat of an
    input (the accepted iterate's density feeds the diagnostics)."""
    st = make_crystal()
    inputs, trials = [], []
    density = SupercellSolver.density
    delta_density = SupercellSolver.delta_density

    def counted_density(self, phi_field):
        inputs.append(np.asarray(phi_field.values).tobytes())
        return density(self, phi_field)

    def counted_delta_density(self, psi):
        trials.append(float(np.abs(psi.values).max()))
        return delta_density(self, psi)

    monkeypatch.setattr(SupercellSolver, "density", counted_density)
    monkeypatch.setattr(SupercellSolver, "delta_density", counted_delta_density)
    _, _, info = micro_solve_perturbation(build_deformed_kappa(st, 1 / 8, bump(8)))
    assert info["iterations"] >= 1
    assert len(trials) >= info["iterations"]
    assert min(trials) > 0.0
    assert len(inputs) == 1 + len(trials)
    assert len(set(inputs)) == len(inputs)
    win = info["density_window"]
    assert 0 < win["kept"] < win["of"] and win["dropped_bound"] > 0.0

    inputs.clear()
    micro_solve_perturbation(build_deformed_kappa(st, 1 / 8, bump(8, amplitude=0.0)))
    assert inputs == []


def test_multiscale_chain_diagonalizes_each_fiber_once(monkeypatch):
    """Coefficients, the supercell Jacobian and the effective coefficients
    of one crystal share its workspace: no momentum is diagonalised twice."""
    from debye_forge import response as R

    st = make_crystal(N=16)
    seen = []
    assemble = R.assemble_fiber

    def counted(basis, phi, k):
        seen.append(tuple(np.round(np.atleast_1d(k), 12)))
        return assemble(basis, phi, k)

    monkeypatch.setattr(R, "assemble_fiber", counted)
    ws = R.ResponseWorkspace.from_crystal(st)
    assert R.ResponseWorkspace.of(st) is ws
    for N in (8, 16):
        coeffs = R.homogenized_coefficients(ws, 1 / N, st.eta0)
        dc = build_deformed_kappa(st, 1 / N, bump(N))
        micro_solve_perturbation(dc)
        effective_coefficients(dc, coeffs)
    assert len(seen) == len(set(seen))


def test_run_multiscale_makes_one_coefficient_pass(tmp_path, monkeypatch):
    """The stage sweeps its deltas over one homogenized-coefficient pass."""
    import sys

    from debye_forge import response as R
    from debye_forge.config import parse_config
    from debye_forge.pipeline import run_pipeline

    passes = []
    original = R.homogenized_coefficients

    def counted(*args, **kwargs):
        passes.append(1)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("debye_forge") and getattr(mod, "homogenized_coefficients", None) is original:
            monkeypatch.setattr(mod, "homogenized_coefficients", counted)
    raw = json.loads((REPO / "configs" / "mathieu.json").read_text())
    raw.update(ecut=50.0, output_dir=str(tmp_path))
    raw["multiscale"]["delta_list"] = [0.125, 0.0625]
    assert run_pipeline(parse_config(raw), {"crystal", "multiscale"}) == 0
    assert len(passes) == 1
    order = json.loads((tmp_path / "multiscale" / "order.json").read_text())
    assert order["deltas"] == raw["multiscale"]["delta_list"]
    for stage in ("crystal", "multiscale"):
        check_manifest(tmp_path / stage)


def test_newton_solve_does_not_import_scipy():
    """The Jacobian solve is numpy only: a Newton solve at N = 8 loads no scipy."""
    import os
    import subprocess
    import sys

    script = """
import sys
import numpy as np
from debye_forge.acceptance import MathieuContext
from debye_forge.macro import gaussian_source
from debye_forge.multiscale import build_deformed_kappa, micro_solve_perturbation
ctx = MathieuContext()
src = gaussian_source(ctx.lattice, (ctx.basis.fft_shape[0] * 8,), center=[np.pi],
                      width=0.35, amplitude=0.05 / 64, mean_free=True)
_, _, info = micro_solve_perturbation(build_deformed_kappa(ctx.crystal(40), 1 / 8, src))
assert info["iterations"] >= 1
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    path = os.pathsep.join([str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
