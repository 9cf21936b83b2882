"""Homogenized linearized Poisson-Boltzmann solver on a periodic macro box.

(nu - div eps grad) psi = kappa' is Fourier-diagonal on the box:
psihat(xi) = kappahat'(xi) / (nu + xi . eps xi). The infinite domain is
replaced by a periodic box of >= 10 Debye lengths; sources are smooth
(narrow Gaussians, never delta functions, which would violate the H^1
source requirement).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import Lattice, SupercellField

__all__ = ["MacroProblem", "solve_pb", "debye_observables", "gaussian_source"]


@dataclass
class MacroProblem:
    """Periodic macro box with screening mass nu and permittivity eps."""

    box: Lattice
    nu: float
    eps: np.ndarray
    source: SupercellField

    def __post_init__(self):
        self.eps = np.atleast_2d(np.asarray(self.eps, dtype=float))
        d = self.box.d
        if self.eps.shape != (d, d):
            raise ValueError(f"eps must be {d} x {d}")
        if np.abs(self.eps - self.eps.T).max() > 1e-10 * max(1.0, np.abs(self.eps).max()):
            raise ValueError("eps must be symmetric")
        if np.linalg.eigvalsh(self.eps).min() <= 0:
            raise ValueError("eps must be positive definite")
        if not self.nu > 0:
            raise ValueError("nu must be positive")


def gaussian_source(box: Lattice, shape, center, width, amplitude=1.0, mean_free=False):
    """Normalized periodic Gaussian bump (total charge = amplitude).

    Summed over periodic images so the profile is smooth across the box
    boundary; width must stay well below the box size. mean_free
    subtracts the box average (needed for unscreened or micro-solve
    sources, where charge balance is a solvability constraint).
    """
    d = box.d
    field = SupercellField(box, np.ones(d, dtype=int), np.zeros(shape))
    x = field.grid_points()
    center = np.atleast_1d(np.asarray(center, dtype=float))
    vals = np.zeros(shape)
    # nearest periodic images are enough for width << box
    ranges = [range(-1, 2)] * d
    import itertools

    for shift in itertools.product(*ranges):
        offs = np.asarray(shift, dtype=float) @ box.basis
        r2 = np.einsum("...i,...i->...", x - center - offs, x - center - offs)
        vals += np.exp(-0.5 * r2 / width**2)
    norm = amplitude / ((2 * np.pi) ** (d / 2.0) * width**d)
    vals *= norm
    if mean_free:
        vals -= vals.mean()
    return SupercellField(box, np.ones(d, dtype=int), vals)


def solve_pb(problem: MacroProblem) -> SupercellField:
    """Spectral solve of (nu - div eps grad) psi = kappa'."""
    src = problem.source
    xi = src.wavevectors()
    denom = problem.nu + np.einsum("...i,ij,...j->...", xi, problem.eps, xi)
    psi_hat = src.coeffs() / denom
    real = not np.iscomplexobj(src.values)
    return SupercellField.from_coeffs(src.micro, src.factors, psi_hat, real=real)


def energy_identity_defect(problem: MacroProblem, psi: SupercellField):
    """Relative defect of <psi, kappa'> = nu ||psi||^2 + <grad psi, eps grad psi>."""
    c = psi.coeffs()
    s = problem.source.coeffs()
    vol = psi.volume
    lhs = vol * np.sum(np.conj(c) * s).real
    xi = psi.wavevectors()
    quad = np.einsum("...i,ij,...j->...", xi, problem.eps, xi)
    rhs = vol * float(np.sum((problem.nu + quad) * np.abs(c) ** 2))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


@dataclass
class DecayFit:
    axis: int
    rate: float
    expected: float
    rel_error: float
    reliable: bool
    window: tuple


def debye_observables(problem: MacroProblem, psi: SupercellField):
    """Debye length and far-field decay fits along the principal eps axes.

    Fits log |psi| against distance on a window [3 w_fit, L/2 - margin]
    per axis; the fitted rate should match sqrt(nu / eps_axis). Boxes
    smaller than ~10 Debye lengths give an unreliable-fit flag instead
    of an error.
    """
    d = psi.d
    L = np.linalg.norm(problem.box.basis, axis=1)
    debye = 1.0 / np.sqrt(problem.nu)
    evals, evecs = np.linalg.eigh(problem.eps)
    x = psi.grid_points()
    center = x[np.unravel_index(np.argmax(np.abs(psi.values)), psi.shape)]
    fits = []
    for ax in range(d):
        direction = evecs[:, ax]
        eps_ax = evals[ax]
        rate_expected = np.sqrt(problem.nu / eps_ax)
        # sample along the +direction ray through the center
        r = np.einsum("...i,i->...", x - center, direction)
        if d == 1:
            prof_r = r.ravel()
            prof_v = np.abs(psi.values).ravel()
        else:
            # take grid points within a thin tube around the ray
            perp = (x - center) - r[..., None] * direction
            dist_perp = np.sqrt(np.einsum("...i,...i->...", perp, perp))
            keep = dist_perp < 0.75 * np.min(L) / max(psi.shape)
            prof_r = r[keep]
            prof_v = np.abs(psi.values[keep])
        half = 0.5 * np.min(L)
        lo, hi = 0.15 * half, 0.85 * half
        sel = (prof_r > lo) & (prof_r < hi) & (prof_v > 1e-280)
        reliable = np.min(L) >= 10.0 * debye and np.count_nonzero(sel) >= 8
        if np.count_nonzero(sel) >= 2:
            coeff = np.polyfit(prof_r[sel], np.log(prof_v[sel]), 1)
            rate = -float(coeff[0])
        else:
            rate, reliable = np.nan, False
        fits.append(
            DecayFit(
                axis=ax,
                rate=rate,
                expected=float(rate_expected),
                rel_error=float(abs(rate - rate_expected) / rate_expected),
                reliable=bool(reliable),
                window=(float(lo), float(hi)),
            )
        )
    return debye, fits


def auto_box(nu: float, d: int, lengths=12.0) -> Lattice:
    """Cubic macro box spanning `lengths` Debye lengths per axis."""
    L = lengths / np.sqrt(nu)
    return Lattice(np.eye(d) * L)
