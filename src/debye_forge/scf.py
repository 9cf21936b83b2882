"""Self-consistent solution of the periodic electrostatic fixed point.

The unknown is the potential: phi = (-Lap)^{-1}(kappa - rho(phi, mu)),
with mu re-solved from charge neutrality at every iteration in
fixed-charge mode (so the per-cell charge constraint holds at every
iterate, not only at convergence). Mixing acts on phi, either plain
damping or Anderson acceleration over the phi-residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fibers import (BandStructure, GapReport, GaplessCrystalError, compute_bands,
                     density_from_potential, spectral_gap)
from .lattice import PeriodicField, PlaneWaveBasis
from .occupation import OccupationModel, _fermi

__all__ = [
    "SCFConfig",
    "CrystalState",
    "solve_chemical_potential",
    "scf_solve",
    "construct_dielectric_kappa",
    "designer_crystal",
    "UnreachableChargeError",
]


# relative charge tolerance of the mu bisection
MU_REL_TOL = 1e-12


class UnreachableChargeError(ValueError):
    pass


@dataclass
class SCFConfig:
    """Mixing and termination parameters of the fixed-point loop."""

    alpha_mix: float = 0.6
    anderson_depth: int = 5
    tol_residual: float = 1e-10   # on ||rho_out - rho_in||_{L^2_per}
    max_iter: int = 200
    mu_mode: str = "fixed-charge"  # or "fixed-mu"

    def __post_init__(self):
        if not 0.0 < self.alpha_mix <= 1.0:
            raise ValueError("alpha_mix must be in (0, 1]")
        if self.anderson_depth < 0:
            raise ValueError("anderson_depth must be >= 0")
        if self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.mu_mode not in ("fixed-charge", "fixed-mu"):
            raise ValueError("mu_mode must be 'fixed-charge' or 'fixed-mu'")


@dataclass
class CrystalState:
    """Converged (or best-effort) periodic crystal data. Only its inputs are
    stored and the rest is derived; the crystal is dielectric when mu is in
    a spectral gap of its bands and the state converged."""

    kappa: PeriodicField
    rho: PeriodicField
    phi: PeriodicField
    occ: OccupationModel
    bands: BandStructure
    residual_history: list = field(default_factory=list)
    charge_history: list = field(default_factory=list)
    converged: bool = True
    # the crystal's one ResponseWorkspace (`ResponseWorkspace.of`)
    response_ws: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def basis(self) -> PlaneWaveBasis:
        return self.phi.basis

    @property
    def k_points(self) -> np.ndarray:
        return self.bands.k_points

    @property
    def mu(self) -> float:
        return self.occ.mu

    @cached_property
    def gap(self) -> GapReport:
        return spectral_gap(self.bands, self.mu)

    @property
    def dielectric_flag(self) -> bool:
        return bool(self.gap.in_gap) and self.converged

    @property
    def eta(self):
        return self.gap.eta

    @property
    def eta0(self):
        return self.gap.eta0

    def lambda_per(self):
        """||phi||_{H^2_per} + |mu|, the dielectricity size parameter."""
        return self.phi.sobolev_norm(order=2) + abs(self.mu)

    def poisson_defect(self):
        """|| -Lap phi - (kappa - rho) ||_{L^2_per}."""
        lhs = self.phi.coeffs * self.basis.g_norm2
        rhs = self.kappa.coeffs - self.rho.coeffs
        rhs[0] = 0.0  # phi is mean-free; the mean is the mu constraint
        diff = lhs - rhs
        return float(np.sqrt(self.basis.lattice.volume * np.sum(np.abs(diff) ** 2)))

    def charge_defect(self):
        return float(abs(self.rho.integral() - self.kappa.integral()))


def solve_chemical_potential(bands: BandStructure, T: float, target_charge: float):
    """Bisect mu so the per-cell charge over `bands` matches target_charge.

    The charge mean_k sum_n f_T(e_nk - mu) is strictly increasing in mu,
    so the root is unique once bracketed. Saturation (target at or above
    the total number of basis states) is unreachable and raises, and so
    does a bracket that closes to round-off before the charge is within
    MU_REL_TOL of the target (occupations too close to a step for double
    precision in mu).
    """
    if target_charge <= 0:
        raise UnreachableChargeError("target charge must be positive")
    evals = bands.eigenvalues
    n_states = evals.shape[1]
    if target_charge >= n_states * (1.0 - 1e-12):
        raise UnreachableChargeError(
            f"target charge {target_charge} saturates the {n_states} available states"
        )

    def charge(mu):
        return float(np.mean(np.sum(_fermi(evals - mu, T, 0), axis=1)))

    tol = MU_REL_TOL * target_charge
    margin = T * np.log(max(n_states / tol, 10.0))
    lo = float(evals.min()) - margin - 1.0
    hi = float(evals.max()) + margin + 1.0
    if not (charge(lo) < target_charge < charge(hi)):
        raise UnreachableChargeError(
            f"no bracket for charge {target_charge} in [{lo:.3f}, {hi:.3f}]"
        )
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        c = charge(mid)
        if abs(c - target_charge) <= tol:
            return mid
        if c < target_charge:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, abs(mid)):
            break
    raise UnreachableChargeError(
        f"charge {target_charge} not met to {tol:.1e}: the bracket closed at "
        f"mu = {mid:.17g} with charge {c:.17g}"
    )


class _AndersonMixer:
    """Anderson acceleration on the phi-residual (depth 0 = plain damping)."""

    def __init__(self, alpha, depth):
        self.alpha = alpha
        self.depth = depth
        self.xs = []
        self.gs = []

    def step(self, x, g):
        if self.depth == 0:
            return x + self.alpha * g
        self.xs.append(x.copy())
        self.gs.append(g.copy())
        if len(self.xs) > self.depth + 1:
            self.xs.pop(0)
            self.gs.pop(0)
        m = len(self.xs) - 1
        if m == 0:
            return x + self.alpha * g
        dX = np.stack([self.xs[-1] - self.xs[i] for i in range(m)], axis=1)
        dG = np.stack([self.gs[-1] - self.gs[i] for i in range(m)], axis=1)
        gamma, *_ = np.linalg.lstsq(dG, g, rcond=None)
        return x + self.alpha * g - (dX + self.alpha * dG) @ gamma


def _poisson_mean_free(basis: PlaneWaveBasis, coeffs):
    out = coeffs.copy()
    out[0] = 0.0
    out[1:] = out[1:] / basis.g_norm2[1:]
    return out


def scf_solve(
    kappa: PeriodicField,
    config: SCFConfig,
    T: float,
    k_points,
    mu: float | None = None,
    threads=1,
) -> CrystalState:
    """Solve -Lap phi = kappa - den[f_T(h^phi - mu)] on a k-grid.

    In fixed-charge mode the target is int_Omega kappa and mu is
    re-bisected each iteration; phi is kept mean-free (the constant
    gauge lives in mu), and a given mu is refused. A non-converged run
    returns the best state flagged converged=False rather than raising;
    neither it nor a gapless state is dielectric. An `inversion_symmetric`
    kappa keeps every iterate's phi and rho exactly real in coefficients
    (`density_from_potential`), so the fibers stay real throughout.
    """
    basis = kappa.basis
    if config.mu_mode == "fixed-mu" and mu is None:
        raise ValueError("fixed-mu mode needs a chemical potential")
    if config.mu_mode == "fixed-charge" and mu is not None:
        raise ValueError(f"mu = {mu} given with mu_mode 'fixed-charge', which solves for mu")
    target = kappa.integral()
    if config.mu_mode == "fixed-charge" and target <= 0:
        raise ValueError("fixed-charge mode needs a positive mean of kappa")

    phi = PeriodicField.zeros(basis)
    mixer = _AndersonMixer(config.alpha_mix, config.anderson_depth)
    residuals, charges = [], []
    converged = False
    bands = None
    rho = None
    mu_cur = mu

    for _ in range(config.max_iter):
        bands = compute_bands(basis, phi, k_points, threads)
        if config.mu_mode == "fixed-charge":
            mu_cur = solve_chemical_potential(bands, T, target)
        occ = OccupationModel(T=T, mu=mu_cur)
        rho = density_from_potential(phi, occ, bands, tail_tol=1e-12)
        charges.append(float(abs(rho.integral() - target)))

        rhs = kappa.coeffs - rho.coeffs
        phi_new = _poisson_mean_free(basis, rhs)
        g = phi_new - phi.coeffs
        # rho-residual: || -Lap (G(phi) - phi) ||, the density mismatch
        res = float(
            np.sqrt(basis.lattice.volume * np.sum(np.abs(basis.g_norm2 * g) ** 2))
        )
        residuals.append(res)
        if res <= config.tol_residual:
            converged = True
            break
        phi = PeriodicField(basis, mixer.step(phi.coeffs, g))

    return CrystalState(
        kappa=kappa,
        rho=rho,
        phi=phi,
        occ=occ,
        bands=bands,
        residual_history=residuals,
        charge_history=charges,
        converged=converged,
    )


def designer_crystal(phi: PeriodicField, mu: float, T: float, bands: BandStructure) -> CrystalState:
    """Designer dielectric: the crystal whose self-consistent state is (phi, mu).

    rho := den[f_T(h^phi - mu)] and kappa := -Lap phi + rho solve the
    self-consistent equation exactly by construction; mu must lie in a
    spectral gap of h^phi. `bands` are those of phi on the crystal's k-grid.
    """
    basis = phi.basis
    occ = OccupationModel(T=T, mu=mu)
    rho = density_from_potential(phi, occ, bands)
    kappa = PeriodicField(basis, basis.g_norm2 * phi.coeffs + rho.coeffs)
    state = CrystalState(
        kappa=kappa,
        rho=rho,
        phi=phi,
        occ=occ,
        bands=bands,
        charge_history=[float(abs(rho.integral() - kappa.integral()))],
    )
    if not state.dielectric_flag:
        raise GaplessCrystalError(
            f"mu = {mu} is not inside a spectral gap (eta = {state.eta:.3e})"
        )
    return state


def construct_dielectric_kappa(phi: PeriodicField, mu: float, T: float, k_points, threads=1):
    """(kappa, rho) of the designer crystal of (phi, mu) on k_points; see
    `designer_crystal`."""
    bands = compute_bands(phi.basis, phi, k_points, threads)
    state = designer_crystal(phi, mu, T, bands)
    return state.kappa, state.rho
