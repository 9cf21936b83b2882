from pathlib import Path

import numpy as np
import pytest

from debye_forge.fibers import GaplessCrystalError, compute_bands, spectral_gap
from debye_forge.lattice import Lattice, PeriodicField, PlaneWaveBasis, monkhorst_pack
from debye_forge.occupation import OccupationModel
from debye_forge.scf import (
    SCFConfig,
    UnreachableChargeError,
    construct_dielectric_kappa,
    scf_solve,
    solve_chemical_potential,
)

REPO = Path(__file__).resolve().parent.parent
LAT = Lattice(np.array([[2 * np.pi]]))
BASIS = PlaneWaveBasis(LAT, ecut=50.0)
PHI = PeriodicField.from_callable(BASIS, lambda x: 2.0 * np.cos(x))
ZERO = PeriodicField.zeros(BASIS)
KGRID = monkhorst_pack(LAT, 8)
T = 1.0 / 20.0


def midgap_mu(phi=PHI, kgrid=KGRID):
    bands = compute_bands(BASIS, phi, kgrid)
    lo, hi = bands.band_ranges()
    return float(0.5 * (hi[0] + lo[1]))


class TestChemicalPotential:
    def test_free_particle_matches_scalar_oracle(self):
        target = 0.75
        mu = solve_chemical_potential(compute_bands(BASIS, ZERO, KGRID), T, target)

        # independent scalar bisection on the free eigenvalues
        evals = np.array([BASIS.kinetic_diagonal(k) for k in KGRID])

        def charge(m):
            return float(np.mean(np.sum(1.0 / (np.exp((evals - m) / T) + 1.0), axis=1)))

        lo, hi = -10.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if charge(mid) < target:
                lo = mid
            else:
                hi = mid
        assert abs(charge(mu) - target) <= 1e-12 * target
        assert abs(mu - 0.5 * (lo + hi)) < 1e-8

    def test_temperature_doubling_stays_in_gap(self):
        # holding the charge at a gap-centred value, doubling T moves mu
        # by less than T ln 2
        T0 = 0.5
        bands = compute_bands(BASIS, PHI, KGRID)
        mu0 = solve_chemical_potential(bands, T0, 1.0)
        mu1 = solve_chemical_potential(bands, 2 * T0, 1.0)
        assert abs(mu1 - mu0) < 2 * T0 * np.log(2.0)

    def test_saturation_unreachable(self):
        with pytest.raises(UnreachableChargeError):
            solve_chemical_potential(compute_bands(BASIS, ZERO, KGRID), T, float(BASIS.n_pw))

    def test_collapsed_bracket_raises(self):
        # free electrons at k = 0 and T = 1e-9: the two degenerate states at
        # |G|^2 = 1 fill over a width ~T, and at a bracket of 1e-15 around
        # mu = 1 the charge still jumps by ~1e-6, far above the 1.7e-12
        # tolerance; the bisection must say so instead of returning mu
        gamma = compute_bands(BASIS, ZERO, monkhorst_pack(LAT, 1))
        with pytest.raises(UnreachableChargeError, match="bracket closed"):
            solve_chemical_potential(gamma, 1e-9, 1.7)
        # the same states at an ordinary temperature meet the tolerance, at
        # mu just below 1 where each of the pair holds 0.35
        mu = solve_chemical_potential(gamma, T, 1.7)
        assert mu == pytest.approx(1.0 + T * np.log(0.35 / 0.65), abs=1e-6)

    def test_nonpositive_target(self):
        with pytest.raises(UnreachableChargeError):
            solve_chemical_potential(compute_bands(BASIS, ZERO, KGRID), T, 0.0)


class TestConstructDielectric:
    def test_free_constant(self):
        occ = OccupationModel(T=T, mu=-1.0)
        kappa, rho = construct_dielectric_kappa(ZERO, -1.0, T, KGRID)
        assert np.abs(kappa.coeffs - rho.coeffs).max() < 1e-13
        vals = rho.values()
        assert np.abs(vals - vals.mean()).max() < 1e-12

    def test_means_match(self):
        mu = midgap_mu()
        kappa, rho = construct_dielectric_kappa(PHI, mu, T, KGRID)
        assert kappa.integral().real == pytest.approx(rho.integral().real, abs=1e-12)

    def test_mu_in_band_refused(self):
        bands = compute_bands(BASIS, PHI, KGRID)
        lo, hi = bands.band_ranges()
        mu_in_band = float(0.5 * (lo[0] + hi[0]))
        with pytest.raises(GaplessCrystalError):
            construct_dielectric_kappa(PHI, mu_in_band, T, KGRID)


class TestSCF:
    def test_round_trip_recovers_phi(self):
        mu = midgap_mu()
        kappa, _ = construct_dielectric_kappa(PHI, mu, T, KGRID)
        state = scf_solve(kappa, SCFConfig(), T, KGRID)
        assert state.converged
        assert (state.phi - PHI).l2_norm() < 1e-8
        assert state.poisson_defect() < 1e-9
        assert state.charge_defect() < 1e-10

    def test_charge_conserved_every_iterate(self):
        mu = midgap_mu()
        kappa, _ = construct_dielectric_kappa(PHI, mu, T, KGRID)
        state = scf_solve(kappa, SCFConfig(max_iter=40), T, KGRID)
        assert max(state.charge_history) < 1e-10

    def test_translation_covariance(self):
        mu = midgap_mu()
        kappa, _ = construct_dielectric_kappa(PHI, mu, T, KGRID)
        shift = 2 * np.pi / 3.0
        phase = np.exp(-1j * BASIS.g_cart[:, 0] * shift)
        kappa_s = PeriodicField(BASIS, kappa.coeffs * phase)
        st = scf_solve(kappa, SCFConfig(), T, KGRID)
        st_s = scf_solve(kappa_s, SCFConfig(), T, KGRID)
        moved = PeriodicField(BASIS, st.phi.coeffs * phase)
        assert (st_s.phi - moved).l2_norm() < 1e-8
        moved_rho = PeriodicField(BASIS, st.rho.coeffs * phase)
        assert (st_s.rho - moved_rho).l2_norm() < 1e-8

    def test_gauge_invariance(self):
        # only the combination phi + mu enters f_T(h^phi - mu) =
        # f_T(-Lap - (phi + mu)): adding c to phi while taking c off mu
        # leaves rho unchanged
        from debye_forge.fibers import density_from_potential

        mu = midgap_mu()
        c = 0.37
        occ = OccupationModel(T=T, mu=mu)
        occ_shift = OccupationModel(T=T, mu=mu - c)
        shifted = PeriodicField(BASIS, PHI.coeffs + c * np.eye(BASIS.n_pw)[0])
        r1 = density_from_potential(PHI, occ, compute_bands(BASIS, PHI, KGRID))
        r2 = density_from_potential(shifted, occ_shift, compute_bands(BASIS, shifted, KGRID))
        assert np.abs(r1.coeffs - r2.coeffs).max() < 1e-12

    def test_plain_damping_monotone(self):
        mu = midgap_mu()
        kappa, _ = construct_dielectric_kappa(PHI, mu, T, KGRID)
        st = scf_solve(
            kappa,
            SCFConfig(alpha_mix=0.3, anderson_depth=0, max_iter=40, tol_residual=1e-13),
            T,
            KGRID,
        )
        r = st.residual_history
        assert all(r[i + 1] < r[i] for i in range(len(r) - 1))

    def test_linearity_probe_against_response(self):
        # tiny kappa'' added to kappa: dphi agrees with the zone-averaged
        # linear response to O(eps^2)
        from debye_forge.response import ResponseWorkspace, m_fiber_averaged

        mu = midgap_mu()
        kappa, _ = construct_dielectric_kappa(PHI, mu, T, KGRID)
        base = scf_solve(kappa, SCFConfig(tol_residual=1e-13), T, KGRID)
        ws = ResponseWorkspace(BASIS, base.phi, base.occ)
        M0 = m_fiber_averaged(ws, np.zeros(1), KGRID)
        K = M0.copy()
        K[np.diag_indices_from(K)] += BASIS.g_norm2
        rng = np.random.default_rng(4)
        c = rng.standard_normal(BASIS.n_pw) + 1j * rng.standard_normal(BASIS.n_pw)
        c = 0.5 * (c + np.conj(c[BASIS.negation_index]))
        c[0] = 0.0
        c /= np.linalg.norm(c)
        dk = PeriodicField(BASIS, c)
        lin = np.linalg.solve(K[1:, 1:], c[1:])
        errs = []
        for eps in (2e-3, 1e-3):
            pk = PeriodicField(BASIS, kappa.coeffs + eps * c)
            st = scf_solve(pk, SCFConfig(tol_residual=1e-13), T, KGRID)
            dphi = (st.phi.coeffs - base.phi.coeffs)[1:] / eps
            errs.append(np.linalg.norm(dphi - lin))
        # O(eps) convergence of the scaled difference => slope ~ 1
        slope = np.log(errs[0] / errs[1]) / np.log(2.0)
        assert errs[1] < 2e-3
        assert slope > 0.8

    def test_nonconverged_returns_flagged_state(self):
        mu = midgap_mu()
        kappa, _ = construct_dielectric_kappa(PHI, mu, T, KGRID)
        st = scf_solve(kappa, SCFConfig(max_iter=2, anderson_depth=0, alpha_mix=0.05), T, KGRID)
        assert not st.converged
        assert not st.dielectric_flag
        assert len(st.residual_history) == 2

    def test_fixed_mu_mode(self):
        mu = midgap_mu()
        kappa, _ = construct_dielectric_kappa(PHI, mu, T, KGRID)
        st = scf_solve(kappa, SCFConfig(mu_mode="fixed-mu"), T, KGRID, mu=mu)
        assert st.converged
        assert (st.phi - PHI).l2_norm() < 1e-8
        with pytest.raises(ValueError):
            scf_solve(kappa, SCFConfig(mu_mode="fixed-mu"), T, KGRID)

    def test_fixed_charge_refuses_a_given_mu(self):
        # fixed-charge solves for mu; a mu passed alongside is refused, not dropped
        kappa, _ = construct_dielectric_kappa(PHI, midgap_mu(), T, KGRID)
        with pytest.raises(ValueError, match="mu = -0.1.*fixed-charge"):
            scf_solve(kappa, SCFConfig(), T, KGRID, mu=-0.1)

    def test_inversion_symmetric_iterates_stay_real(self, monkeypatch):
        # the designer kappa of configs/square.json is exactly real in
        # coefficients, so every SCF iterate's phi is too (real fibers
        # throughout), and the solve returns phi to criterion 1's bound
        from debye_forge import scf as S
        from debye_forge.config import build_basis, build_potential, parse_config
        from debye_forge.pipeline import first_gap_mu

        cfg = parse_config(str(REPO / "configs" / "square.json"))
        basis = build_basis(cfg)
        phi = build_potential(basis, cfg["crystal"]["potential"])
        kgrid = monkhorst_pack(basis.lattice, cfg["kgrid"])
        T2 = cfg["temperature"]
        kappa, _ = construct_dielectric_kappa(phi, first_gap_mu(compute_bands(basis, phi, kgrid)),
                                              T2, kgrid)
        iterates = []
        bands = S.compute_bands

        def recorded(basis, phi, k_points, threads=1):
            iterates.append(phi.coeffs.copy())
            return bands(basis, phi, k_points, threads)

        monkeypatch.setattr(S, "compute_bands", recorded)
        st = scf_solve(kappa, SCFConfig(**cfg["crystal"]["scf"]), T2, kgrid)
        assert st.converged and len(iterates) == len(st.residual_history)
        assert all(not np.any(c.imag) for c in iterates + [st.phi.coeffs, st.rho.coeffs])
        assert (st.phi - phi).l2_norm() < 1e-8


class TestVerifyDielectricity:
    """The dielectricity data of a solved state: its gap report, and the
    c_T of its homogenized coefficients."""

    def test_free_below_spectrum(self):
        kappa, rho = construct_dielectric_kappa(ZERO, -1.0, T, KGRID)
        st = scf_solve(kappa, SCFConfig(mu_mode="fixed-mu"), T, KGRID, mu=-1.0)
        assert st.gap.in_gap and st.dielectric_flag
        assert st.eta == pytest.approx(1.0, abs=1e-10)

    def test_c_T_matches_scalar_formula(self):
        from debye_forge.response import ResponseWorkspace, homogenized_coefficients

        mu = midgap_mu()
        kappa, _ = construct_dielectric_kappa(PHI, mu, T, KGRID)
        st = scf_solve(kappa, SCFConfig(), 0.02, monkhorst_pack(LAT, 8))
        coeffs = homogenized_coefficients(ResponseWorkspace.of(st), 0.1, st.eta0)
        assert coeffs.c_T == pytest.approx(np.exp(-st.eta0 / 0.02) / 0.02, rel=1e-12)


def test_scf_config_validation():
    with pytest.raises(ValueError):
        SCFConfig(alpha_mix=0.0)
    with pytest.raises(ValueError):
        SCFConfig(anderson_depth=-1)
    with pytest.raises(ValueError):
        SCFConfig(mu_mode="blend")
