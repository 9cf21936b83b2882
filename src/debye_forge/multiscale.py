"""End-to-end multiscale verification: deformed crystal, supercell Newton
solve of the perturbation equation, and the macroscopic decomposition.

The supercell plane-wave set is the union of the shifted micro balls
{G + k_j}, so at zero perturbation the supercell Hamiltonian
block-diagonalizes exactly into the micro fibers and the supercell
density reproduces the k-grid crystal density to round-off. The frozen
Newton Jacobian -Lap + M is block-diagonal over micro fibers with the
zone-averaged response blocks (the exact Jacobian of the supercell
density map at psi = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .config import build_macro_source
from .fibers import time_reversal_partners, time_reversed_fiber
from .lattice import (
    GridTransforms,
    Lattice,
    PlaneWaveBasis,
    SupercellField,
    centred_k_grid,
    delta_factor,
    lattice_index_table,
    low_momentum_project,
    supercell_factors,
)
from .macro import MacroProblem, solve_pb
from .response import (ResponseWorkspace, _operator_block, _schur_symbol, fit_b_quadratic,
                       homogenized_coefficients, m_fiber_averaged)
from .scf import CrystalState

__all__ = [
    "DeformedCrystal",
    "MultiscaleReport",
    "MultiscaleSweep",
    "SubspaceConvergenceError",
    "SupercellSolver",
    "build_deformed_kappa",
    "micro_solve_perturbation",
    "nonlinearity_N",
    "expansion_decompose",
    "multiscale_sweep",
]

MAX_NEWTON_ITER = 60
# Chebyshev-filtered subspace iteration of the supercell density
FILTER_DEGREE = 40        # polynomial degree of one filter pass
MAX_FILTER_PASSES = 12    # filter passes allowed per density
MAX_SUBSPACE_GROWTH = 4   # guard refills allowed per density
SUBSPACE_TOL = 2.0        # stopping bound, in units of n eps (1 + ||rho||_L2)
CORRECTION_GAIN = 100.0   # a repeated first-order correction is kept if it cuts the bound this much


class RegimeViolationError(RuntimeError):
    pass


class SubspaceConvergenceError(RuntimeError):
    """The filtered subspace iteration hit its pass or growth cap."""


@dataclass
class DeformedCrystal:
    """The base crystal on the N-supercell with the background charge
    kappa_per + delta^d kappa'(delta y), of which only the added part is kept."""

    base: CrystalState
    delta: float
    kappa_prime: SupercellField       # macro profile on the macro box
    solver: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def macro_box(self) -> Lattice:
        return self.kappa_prime.supercell

    @property
    def factors(self) -> np.ndarray:
        return np.full(self.base.basis.d, delta_factor(self.delta), dtype=int)

    @cached_property
    def kappa_prime_delta(self) -> SupercellField:
        """delta^d kappa'(delta y) on the supercell, in micro units."""
        vals = np.asarray(self.kappa_prime.values, dtype=float)
        return SupercellField(self.base.basis.lattice, self.factors,
                              self.delta ** self.base.basis.d * vals)


def build_deformed_kappa(base: CrystalState, delta: float, kappa_prime) -> DeformedCrystal:
    """Assemble the macroscopically deformed background charge.

    Args:
        base: converged periodic crystal.
        delta: scale ratio 1/N with integer N (commensurate supercells).
        kappa_prime: macro perturbation profile, a SupercellField on the
            macro box delta * (N Omega), sampled on the supercell grid (the
            micro FFT grid times N per axis; another grid is refused). A
            smooth Gaussian-family bump: its non-constant part must decay
            below 1e-8 of its amplitude at the box boundary, otherwise the
            periodic supercell truncates it and the build is refused.
    """
    N = delta_factor(delta)
    basis = base.basis
    d = basis.d

    kp = kappa_prime
    if not isinstance(kp, SupercellField):
        raise TypeError("kappa_prime must be a SupercellField on the macro box")
    # support check: the profile must have settled to a constant at the
    # box boundary (a constant offset from mean subtraction is fine)
    vals = np.asarray(kp.values, dtype=float)
    amp = vals.max() - vals.min()
    if amp > 0:
        bvals = np.concatenate(
            [np.take(vals, [0, -1], axis=ax).ravel() for ax in range(d)]
        )
        spread = bvals.max() - bvals.min()
        if spread > 1e-8 * amp:
            raise ValueError(
                "kappa' support exceeds the supercell: boundary variation "
                f"{spread:.3e} vs peak-to-peak {amp:.3e}"
            )

    super_shape = tuple(int(s * N) for s in basis.fft_shape)
    if vals.shape != super_shape:
        raise ValueError(
            f"kappa' grid {vals.shape} is not the supercell grid {super_shape}"
        )
    return DeformedCrystal(base=base, delta=delta, kappa_prime=kp)


class SupercellPWBasis(GridTransforms):
    """Plane waves {G + k_j} for G in the micro ball, k_j on the N-grid.

    Fiber-major ordering: flat index = j * n_pw + g. The supercell FFT
    grid is the micro grid scaled by N per axis, alias-free for
    quadratic products by inheritance.
    """

    def __init__(self, micro_basis: PlaneWaveBasis, factors):
        factors = supercell_factors(factors, micro_basis.d)
        self.micro = micro_basis
        self.factors = factors
        self.lattice = micro_basis.lattice.supercell(factors)
        d = micro_basis.d

        self.j_ints, self.k_points = centred_k_grid(micro_basis.lattice, factors)  # (nfib, d)
        self.n_fibers = self.j_ints.shape[0]
        wstar_super = self.lattice.reciprocal

        g = micro_basis.g_ints
        self.q_ints = (
            g[None, :, :] * factors[None, None, :] + self.j_ints[:, None, :]
        ).reshape(-1, d)
        self.q_cart = self.q_ints @ wstar_super
        self.q_norm2 = np.einsum("ij,ij->i", self.q_cart, self.q_cart)
        self.n_pw = self.q_ints.shape[0]

        self._place_on_grid(
            self.q_ints, tuple(int(s * n) for s, n in zip(micro_basis.fft_shape, factors))
        )
        self._block_pos = None

    def _positions(self, pts):
        return np.ravel_multi_index(tuple(np.mod(pts, self.fft_shape).T), self.fft_shape)

    def fiber_block(self, values):
        """The (n_micro, n_micro) block vhat(Q - Q') shared by every fiber:
        within one fiber Q - Q' = N (G - G'), whatever k_j."""
        if self._block_pos is None:
            fiber0 = self.q_ints[: self.micro.n_pw]  # k_0 = 0: Q = N G
            self._block_pos = lattice_index_table(fiber0, fiber0, self._positions, sign=-1)
        vhat = np.fft.fftn(np.asarray(values, dtype=complex)) / np.prod(self.fft_shape)
        return vhat.flat[self._block_pos]

    def multiply_rows(self, values, rows):
        """Coefficients of v(x) psi_r(x) for each row r of plane-wave
        coefficients, i.e. rows @ V^T with V the matrix vhat(Q - Q') of v,
        by one inverse and one forward FFT per row (a cyclic convolution).
        `values` is v on the supercell grid, `rows` has shape (m, n_pw)."""
        m = rows.shape[0]
        arr = np.zeros((m,) + self.fft_shape, dtype=complex)
        arr.reshape(m, -1)[:, self._fft_pos] = rows
        axes = tuple(range(1, arr.ndim))
        arr = np.fft.ifftn(arr, axes=axes)
        arr *= values
        return np.fft.fftn(arr, axes=axes).reshape(m, -1)[:, self._fft_pos]


class SupercellSolver:
    """Shared machinery for supercell densities, Jacobians and Newton."""

    def __init__(self, base: CrystalState, factors):
        self.base = base
        self.basis = SupercellPWBasis(base.basis, factors)
        self.phi_tiled = SupercellField.from_periodic(base.phi, self.basis.factors)
        self._e_hi = base.occ.window(self.basis.n_pw, np.finfo(float).eps ** 2)
        self.density_window = {
            "kept": 0,
            "of": self.basis.n_pw,
            "dropped_bound": 0.0,
            "subspace_bound": 0.0,
            "filter_passes": [],
            "corrections": [],
            "starts": [],
        }
        self._partners = time_reversal_partners(base.basis.lattice, self.basis.k_points)
        self._ritz_rows = None
        self._rho_ref = None
        self._jac_blocks = None
        self._jac_pinned = None

    @classmethod
    def of(cls, deformed: DeformedCrystal):
        """The deformed crystal's one solver, built on first use and kept on it."""
        if deformed.solver is None:
            deformed.solver = cls(deformed.base, deformed.factors)
        return deformed.solver

    @property
    def rho_tiled(self):
        """Reference density at psi = 0, computed by the supercell route
        itself (the basis-truncated micro density lacks the grid tail
        beyond the cutoff ball, which must cancel exactly in residuals)."""
        if self._rho_ref is None:
            self._rho_ref = self.density(self.phi_tiled)
        return self._rho_ref

    # -- density map ---------------------------------------------------

    def apply_hamiltonian(self, values, rows):
        """h^phi applied to each row of coefficients, phi given on the grid."""
        return self.basis.q_norm2 * rows - self.basis.multiply_rows(values, rows)

    def _subspace_size(self, kept):
        """Kept window plus a guard of max(8, kept / 4) states above e_hi."""
        return min(self.basis.n_pw, kept + max(8, kept // 4))

    def _fiber_eigh(self, values):
        """Eigenpairs (e, U) of the fiber-diagonal blocks of h^phi, of shapes
        (n_fibers, n_micro) and (n_fibers, n_micro, n_micro), and the flat
        fiber-major state indices j * n_micro + b in ascending energy.

        The potential is real, so the block of -k_j is conj(H_j[-G, -G'])
        and its eigenpairs are (e_j, U_j[-G].conj()), the
        `time_reversed_fiber` of its partner. One `eigh` takes the blocks
        without a partner among the earlier fibers (`time_reversal_partners`:
        k = 0, the zone face of an even grid, one k of each +-k pair), about
        half of them.
        """
        sb = self.basis
        nf = sb.micro.n_pw
        direct = np.flatnonzero(self._partners < 0)
        blocks = np.broadcast_to(-sb.fiber_block(values), (direct.size, nf, nf)).copy()
        diag = np.arange(nf)
        blocks[:, diag, diag] += sb.q_norm2.reshape(sb.n_fibers, nf)[direct]
        e = np.empty((sb.n_fibers, nf))
        U = np.empty((sb.n_fibers, nf, nf), dtype=complex)
        e[direct], U[direct] = np.linalg.eigh(blocks)
        paired = np.flatnonzero(self._partners >= 0)
        e[paired], U[paired] = time_reversed_fiber(
            sb.micro, e[self._partners[paired]], U[self._partners[paired]])
        return e, U, np.argsort(e.ravel(), kind="stable")

    def _fiber_rows(self, U, states):
        """Supercell coefficient rows of the fiber states with flat indices `states`."""
        nf = self.basis.micro.n_pw
        fib, band = np.divmod(states, nf)
        rows = np.zeros((states.size, self.basis.n_pw), dtype=complex)
        rows[np.arange(states.size)[:, None], fib[:, None] * nf + np.arange(nf)] = U[fib, :, band]
        return rows

    def _corrected(self, fiber, theta, rows, resid):
        """Orthonormal rows from Ritz pairs (theta_i, x_i) and the residuals
        r_i = h^phi x_i - theta_i x_i of the kept ones (`_rayleigh_ritz`),
        overwriting `rows`: each kept x_i corrected to first order through
        the fiber-block eigenpairs (e_k, u_k) of h^phi: x_i - sum_k u_k
        (u_k^H r_i) / (e_k - theta_i), over the fiber states k outside the
        lowest rows.shape[0] (couplings inside are left to Rayleigh-Ritz).
        For fiber states as rows this is first-order perturbation theory in
        the off-block part of h^phi, which vanishes at psi = 0."""
        sb = self.basis
        nfib, nf = sb.n_fibers, sb.micro.n_pw
        e, U, order = fiber
        kept = resid.shape[0]
        # fiber-major (nfib, kept, nf): one matmul per fiber block
        c = resid.reshape(kept, nfib, nf).transpose(1, 0, 2) @ U.conj()
        gap = e.ravel()[None, :] - theta[:kept, None]
        gap[:, order[: rows.shape[0]]] = np.inf
        c /= gap.reshape(kept, nfib, nf).transpose(1, 0, 2)
        rows[:kept] -= (c @ U.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(kept, -1)
        return np.linalg.qr(rows.T)[0].T

    def _grow(self, fiber, rows, size):
        """Orthonormal rows extended to `size`: the added rows are the
        leading directions of the lowest `size` fiber states outside the
        span of `rows` (the fiber states themselves would duplicate the
        ones `rows` already holds, in whatever order ties fall)."""
        _, U, order = fiber
        states = self._fiber_rows(U, order[:size])
        outside = states - (states @ rows.conj().T) @ rows
        extra = np.linalg.svd(outside, full_matrices=False)[2][: size - rows.shape[0]]
        return np.linalg.qr(np.concatenate([rows, extra]).T)[0].T

    def _rayleigh_ritz(self, values, rows, H_rows=None):
        """Ritz values (ascending) and Ritz vectors from orthonormal rows,
        and the residuals h^phi x_i - theta_i x_i of the Ritz pairs with
        theta_i <= e_hi. `H_rows`, if given, is h^phi applied to `rows`."""
        if H_rows is None:
            H_rows = self.apply_hamiltonian(values, rows)
        G = rows.conj() @ H_rows.T
        theta, W = np.linalg.eigh(0.5 * (G + G.conj().T))
        rows = W.T @ rows
        kept = int(np.searchsorted(theta, self._e_hi, side="right"))
        return theta, rows, W[:, :kept].T @ H_rows - theta[:kept, None] * rows[:kept]

    def _chebyshev_filter(self, values, rows, low, a, b):
        """p(h^phi) rows for the degree-FILTER_DEGREE Chebyshev polynomial
        that damps [a, b], scaled to p(low) = 1 (Zhou, Saad, Tiago,
        Chelikowsky, J. Comput. Phys. 219, 172 (2006), Algorithm 3.2)."""
        e, c = 0.5 * (b - a), 0.5 * (b + a)
        sigma = e / (low - c)
        tau = 2.0 / sigma
        X, Y = rows, (self.apply_hamiltonian(values, rows) - c * rows) * (sigma / e)
        for _ in range(FILTER_DEGREE - 1):
            s = 1.0 / (tau - sigma)
            X, Y = Y, (self.apply_hamiltonian(values, Y) - c * Y) * (2.0 * s / e) - (sigma * s) * X
            sigma = s
        return Y

    def _ritz_window(self, values, fiber, rows):
        """Rayleigh-Ritz of h^phi on orthonormal rows, and the density of
        the Ritz pairs with theta <= e_hi.

        While fewer than the guard of Ritz values lie above e_hi, the rows
        are refilled from the fiber states (`fiber` as `_fiber_eigh`
        returns it), at most MAX_SUBSPACE_GROWTH times. Returns the
        `_window_state` of the Ritz pairs.
        """
        for growth in range(MAX_SUBSPACE_GROWTH + 1):
            theta, rows, resid = self._rayleigh_ritz(values, rows)
            kept = resid.shape[0]
            if theta.size >= self._subspace_size(kept):
                break
            if growth == MAX_SUBSPACE_GROWTH:
                raise SubspaceConvergenceError(
                    f"{kept} Ritz values below e_hi after {growth} subspace refills"
                )
            rows = self._grow(fiber, rows, self._subspace_size(kept))
        return self._window_state(rows, theta, resid)

    def _window_state(self, rows, theta, resid):
        """(rows, theta, resid, kept, occs, density, bound) of orthonormal
        rows x_i with values theta_i (ascending) and the residuals r_i =
        h^phi x_i - theta_i x_i of the kept pairs, theta_i <= e_hi: the kept
        count, the occupations of the kept pairs and of the first dropped
        one, the density of the kept pairs and its `subspace_bound` (see
        `density`)."""
        sb = self.basis
        n, vol = sb.n_pw, sb.lattice.volume
        kept = resid.shape[0]
        occs = self.base.occ.occ(theta[: kept + 1])
        dens, peak = sb.band_density(rows[:kept].T, occs[:kept])
        dens /= vol
        x_inf = np.sqrt(peak / vol)
        r = np.linalg.norm(resid, axis=1)
        theta_top = theta[-1] if theta.size < n else np.inf  # nothing outside
        bound = float(np.sum(2.0 * occs[:kept] * x_inf * r / (theta_top - theta[:kept])))
        return rows, theta, resid, kept, occs, dens, bound

    def _meets_stop(self, state):
        """The stop test of `density` on a `_window_state`."""
        dens, bound = state[-2:]
        n, vol = self.basis.n_pw, self.basis.lattice.volume
        eps = np.finfo(float).eps
        return bound <= SUBSPACE_TOL * n * eps * (1.0 + np.sqrt(vol * np.mean(dens**2)))

    def _micro_periodic(self, values):
        """Whether v repeats its first micro cell exactly over the
        supercell grid. Then h^phi is block-diagonal, and the fiber states
        are its eigenpairs up to rounding."""
        cell = values[tuple(slice(0, s) for s in self.basis.micro.fft_shape)]
        return np.array_equal(values, np.tile(cell, tuple(self.basis.factors)))

    def _start(self, values, fiber):
        """(`_window_state`, name) of the first start of `density` that
        meets the stop test; when none does, of the corrected start with the
        smaller bound. The rows, h^phi product and residuals of a start are
        released as soon as they are used: besides the window state of the
        Ritz start, one start's arrays are alive at a time."""
        e, U, order = fiber
        e_sorted = e.ravel()[order]
        kept = int(np.searchsorted(e_sorted, self._e_hi, side="right"))
        size = self._subspace_size(kept)
        H_rows = ritz_state = None
        if size < self.basis.n_pw and self._micro_periodic(values):
            rows = self._fiber_rows(U, order[:size])
            H_rows = self.apply_hamiltonian(values, rows)
            resid = H_rows[:kept] - e_sorted[:kept, None] * rows[:kept]
            state = self._window_state(rows, e_sorted[:size], resid)
            if self._meets_stop(state):
                return state, "fiber-states"
            state = resid = None
        else:
            if self._ritz_rows is not None:
                ritz_state = self._ritz_window(
                    values, fiber, self._corrected(fiber, *self._rayleigh_ritz(values, self._ritz_rows)))
                if self._meets_stop(ritz_state):
                    return ritz_state, "ritz"
            rows = self._fiber_rows(U, order[:size])
        theta, rows, resid = self._rayleigh_ritz(values, rows, H_rows)
        H_rows = None
        rows = self._corrected(fiber, theta, rows, resid)
        resid = None
        state = self._ritz_window(values, fiber, rows)
        if ritz_state is not None and ritz_state[-1] < state[-1]:
            return ritz_state, "ritz"
        return state, "fiber"

    def density(self, phi_field: SupercellField):
        """Supercell density den[f_T(h^phi - mu)] at the base crystal's mu.

        Subspace iteration with FFT matvecs: repeated first-order
        corrections, with Chebyshev filter passes as the fallback that
        guarantees convergence. The subspace holds the states with
        e <= e_hi = `occ.window(n, eps^2)` (n the basis size) plus a guard
        of max(8, kept / 4) states above e_hi. Its pairs (theta_i, x_i) come
        with residuals r_i = h^phi x_i - theta_i x_i; the iteration stops
        once

            subspace_bound = sum_{theta_i <= e_hi} 2 f_i |x_i|_inf |r_i| / (theta_top - theta_i)

        is at most SUBSPACE_TOL n eps (1 + ||rho||_L2). To first order in
        the residuals this bounds the L2 norm over the supercell of the
        density error from the kept states: a residual mixes x_i only with
        states outside the subspace, assumed above the top value
        theta_top, with a weight at most f_i / (theta_top - theta_i). That
        holds for Ritz pairs, whose residuals are orthogonal to the
        subspace, and for exact eigenpairs; it is applied to nothing else.

        The first start that meets the stop test is taken:

        1. "fiber-states", when v repeats its micro cell exactly (psi = 0,
           or any micro-periodic shift) and the subspace is smaller than
           the basis: the eigenpairs of the fiber-diagonal blocks
           (`_fiber_eigh`) as they are, with their residuals from one
           application of h^phi and no Rayleigh-Ritz. h^phi is then
           block-diagonal, so they are its eigenpairs up to rounding.
        2. "ritz", for any other v: this solver's previous Ritz vectors
           (the Newton iterates move little), by Rayleigh-Ritz and one
           first-order correction through the fiber-block eigenpairs
           (`_corrected`).
        3. "fiber": the fiber states by Rayleigh-Ritz, which reuses the
           h^phi rows of start 1 when it ran, and the same correction.

        When neither start 2 nor start 3 meets it, the one with the smaller
        bound goes on (`_start`). The fiber rows are built after the Ritz
        start, so that they do not add to its peak memory. A subspace as
        large as the basis always goes through Rayleigh-Ritz, whose pairs
        are then exact.

        Until the stop test is met each step first retries the correction
        on the current Ritz pairs (which come with their residuals, so the
        retry needs no second Rayleigh-Ritz) and keeps it when it meets the
        stop test or cuts the bound by CORRECTION_GAIN (100) or more. A
        retry kept for the stop test ends the loop; one kept for its gain
        divides the bound by at least 100, and the stop threshold is at
        least SUBSPACE_TOL n eps, so from a bound b_0 at most
        ceil(log_100(b_0 / (SUBSPACE_TOL n eps))) retries are kept in a
        row. Any other retry is dropped, and a filter pass follows: a
        degree-FILTER_DEGREE filter on [theta_top, Gershgorin bound of
        h^phi], then QR. After MAX_FILTER_PASSES
        passes SubspaceConvergenceError is raised, so the loop ends.

        The grid transforms and the occupation sum (`band_density`) run over
        the pairs with theta <= e_hi only, so the dropped density is at
        most n f_T(theta_first_dropped - mu) / |Omega| <= eps^2 / |Omega|
        pointwise. `density_window` keeps the largest kept count and both
        bounds over the calls, and the start taken, the filter passes and
        the kept correction retries of each call. A call that ends on Ritz
        vectors keeps them as the next call's start 2; a call that takes
        the fiber states keeps none, since start 3 of the next call holds
        the fiber states of its own potential.
        """
        sb = self.basis
        n, vol = sb.n_pw, sb.lattice.volume
        v = np.asarray(phi_field.values, dtype=float)
        fiber = self._fiber_eigh(v)
        state, start = self._start(v, fiber)
        top = float(sb.q_norm2.max() + np.abs(np.fft.fftn(v)).sum() / v.size)
        passes = corrections = 0
        while not self._meets_stop(state):
            rows, theta, resid, *_, bound = state
            # a copy: the rows stay the filter's start if the retry is dropped
            retry = self._ritz_window(v, fiber, self._corrected(fiber, theta, rows.copy(), resid))
            if retry[-1] <= bound / CORRECTION_GAIN or self._meets_stop(retry):
                state = retry
                corrections += 1
                continue
            if passes == MAX_FILTER_PASSES:
                raise SubspaceConvergenceError(
                    f"subspace bound {bound:.3e} after {passes} filter passes"
                )
            rows = self._chebyshev_filter(v, rows, theta[0], theta[-1], top)
            state = self._ritz_window(v, fiber, np.linalg.qr(rows.T)[0].T)
            passes += 1
        rows, _, _, kept, occs, dens, bound = state
        self._ritz_rows = None if start == "fiber-states" else rows
        win = self.density_window
        win["kept"] = max(win["kept"], kept)
        if kept < n:
            win["dropped_bound"] = max(win["dropped_bound"], float(n * occs[kept] / vol))
        win["subspace_bound"] = max(win["subspace_bound"], bound)
        win["starts"].append(start)
        win["filter_passes"].append(passes)
        win["corrections"].append(corrections)
        return SupercellField(self.basis.micro.lattice, self.basis.factors, dens)

    def delta_density(self, psi: SupercellField):
        """rho(phi_per + psi) - rho(phi_per), the screening response. The
        reference density comes first: it takes the fiber states as they
        are (start 1 of `density`, exact at psi = 0) and keeps no Ritz
        vectors, so the first density after it corrects the fiber states
        and every later one starts from the Ritz vectors of the last."""
        ref = self.rho_tiled
        return self.density(self.phi_tiled + psi) - ref

    # -- frozen block Jacobian ------------------------------------------

    def jacobian_blocks(self):
        """(n_fibers, n_pw, n_pw) stack of the per-fiber dense blocks
        K_k = |G + k|^2 + M_k of -Lap + M at psi = 0 (exact Jacobian), in
        fiber order.

        `m_fiber_averaged` runs for one k of each +-k pair of the grid.
        Swapping the row and column fiber of a pair block gives
        Block(b, a)[P, P'] = conj(Block(a, b)[-P, -P']) for any potential,
        and the zone average carries it to M_{-k}[P, P'] = conj(M_k[-P,
        -P']); the kinetic diagonal |G - k|^2 = |-G + k|^2 follows. The
        pairs are the `time_reversal_partners` of the grid. A point whose
        -k lies outside the centred grid (k = 0, and the zone face of an
        even grid) is computed directly: there the partner is -k folded by
        a reciprocal vector, whose ball of modes is not the negated one.
        Each zone average in turn contracts one block of each of its own
        time-reversal pairs (`m_fiber_averaged`), so the stack takes about
        N^2d / 4 pair blocks instead of N^2d. The stack takes the dtype of
        its blocks, real on real fibers; the first point is always computed
        directly (it has no earlier partner), so it sets the dtype.
        """
        if self._jac_blocks is None:
            ws = ResponseWorkspace.of(self.base)
            kpts = self.basis.k_points
            neg = self.base.basis.negation_index
            blocks = None
            for i, (p, k) in enumerate(zip(self._partners, kpts)):
                if p >= 0:
                    blocks[i] = blocks[p][np.ix_(neg, neg)].conj()
                    continue
                blk = _operator_block(ws, m_fiber_averaged(ws, k, kpts), k)
                if blocks is None:
                    blocks = np.empty((len(kpts),) + blk.shape, dtype=blk.dtype)
                blocks[i] = blk
            self._jac_blocks = blocks
        return self._jac_blocks

    def apply_jacobian(self, coeffs):
        """(-Lap + M)|_{psi=0} applied to a supercell coefficient vector."""
        cols = coeffs.reshape(self.basis.n_fibers, -1, 1)  # fiber-major
        return (self.jacobian_blocks() @ cols).reshape(coeffs.shape)

    def nonlinearity(self, psi_c, drho: SupercellField):
        """N(psi) = drho - M psi, the nonlinear part of the density response
        to psi (basis coefficients psi_c, density difference drho), as an
        array of supercell Fourier coefficients on the FFT grid. M psi comes
        from the frozen Jacobian blocks."""
        lin = self.apply_jacobian(psi_c) - self.basis.q_norm2 * psi_c  # M psi only
        return drho.coeffs() - self.basis.coeffs_array(lin)

    def solve_jacobian(self, coeffs):
        """Solve (-Lap + M) d = rhs blockwise.

        The constant supercell mode sits in the k = 0 block; when its
        Jacobian entry (the zone-averaged screening mass density) is
        numerically zero against the block, at most 1e3 eps ||B_0||_2,
        the mean is pinned to zero instead (valid for charge-balanced
        perturbations; the neutrality defect is the caller's diagnostic).
        An entry at round-off level left unpinned makes the mean of the
        Newton step noise, and the remainder loses its order.
        """
        if self._jac_pinned is None:
            blocks = self.jacobian_blocks()
            B0 = blocks[0]  # row 0 of the centred grid is k = 0
            pin = B0[0, 0].real <= 1e3 * np.finfo(float).eps * np.linalg.norm(B0, 2)
            if pin:
                blocks = blocks.copy()
                blocks[0, 0, :] = 0.0
                blocks[0, :, 0] = 0.0
                blocks[0, 0, 0] = 1.0
            self._jac_pinned = (blocks, pin)
        blocks, pinned = self._jac_pinned
        rhs = coeffs.reshape(self.basis.n_fibers, -1, 1)
        if pinned:
            rhs = rhs.copy()
            rhs[0, 0] = 0.0
        return np.linalg.solve(blocks, rhs).reshape(coeffs.shape)


def micro_solve_perturbation(deformed: DeformedCrystal, tol: float = 1e-10):
    """Newton solve of -Lap psi = kappa'_delta - [rho(phi_per+psi) - rho_per].

    mu is held at mu_per throughout (screening, not the chemical
    potential, absorbs the perturbation). The Jacobian is frozen at
    psi = 0: the block Jacobian -Lap + M gives Newton-chord iterations,
    damped by step halving, at most MAX_NEWTON_ITER of them.

    Convergence: residual <= tol * ||kappa'_delta|| whenever that is
    attainable. For very small sources the density map itself sets an
    absolute floor, twice the largest `subspace_bound` of the supercell
    densities (the residual holds the difference of two); the solve is
    accepted at the floor. A step that no damping makes descend is
    accepted when the residual is within max(10 floor, 1e-6
    ||kappa'_delta||) and raises otherwise.
    info["status"] says which test accepted the result: "converged"
    (residual <= tol ||kappa'_delta||), "noise-floor" (above that, within
    10 floor) or "stagnated" (only the 1e-6 stall clause).

    The solver is `SupercellSolver.of(deformed)`: a second solve on the
    same DeformedCrystal warm-starts from the first (reference density,
    Jacobian, Ritz vectors), and its `density_window` covers both solves.

    Returns (phi_delta, psi_micro, info); info holds plain data only.
    """
    solver = SupercellSolver.of(deformed)
    sb = solver.basis
    kp = deformed.kappa_prime_delta
    kp_coeffs = sb.grid_to_coeffs(kp.values)
    kp_norm = float(np.sqrt(sb.lattice.volume * np.sum(np.abs(kp_coeffs) ** 2)))
    zero = SupercellField(sb.micro.lattice, sb.factors, np.zeros(sb.fft_shape))

    def report(status, iterations, history, floor, defect, nl_norm, drho_norm):
        return {
            "status": status,
            "iterations": iterations,
            "residuals": history,
            "relative_residual": history[-1] / kp_norm if kp_norm else 0.0,
            "noise_floor": floor,
            "neutrality_defect": defect,
            "nonlinearity_l2": nl_norm,
            "nonlinearity_share": nl_norm / max(drho_norm, 1e-300),
            # a copy, lists too: the solver's record grows with later calls
            "density_window": {k: list(v) if isinstance(v, list) else v
                               for k, v in solver.density_window.items()},
        }

    if kp_norm == 0.0:
        # psi = 0 solves the equation exactly and no supercell density
        # enters its residual, so no density noise floor either
        return solver.phi_tiled, zero, report("converged", 0, [0.0], 0.0, 0.0, 0.0, 0.0)

    def noise_floor():
        return 2.0 * solver.density_window["subspace_bound"]

    def status(res):
        if res <= tol * kp_norm:
            return "converged"
        return "noise-floor" if res <= 10.0 * noise_floor() else "stagnated"

    def residual(psi_c):
        psi_f = SupercellField.from_coeffs(
            sb.micro.lattice, sb.factors, sb.coeffs_array(psi_c), real=True
        )
        drho = solver.delta_density(psi_f)
        r = sb.q_norm2 * psi_c - kp_coeffs + sb.grid_to_coeffs(drho.values)
        return r, psi_f, drho

    def rnorm(r):
        return float(np.sqrt(sb.lattice.volume * np.sum(np.abs(r) ** 2)))

    # at psi = 0 the density difference is rho_tiled - rho_tiled = 0, so
    # the residual is -kappa'_delta without a supercell density
    psi_c = np.zeros(sb.n_pw, dtype=complex)
    psi_f = drho = zero
    r = -kp_coeffs
    history = [rnorm(r)]
    converged = history[-1] <= max(tol * kp_norm, noise_floor())
    it = 0
    while not converged and it < MAX_NEWTON_ITER:
        it += 1
        step = solver.solve_jacobian(r)
        scale = 1.0
        accepted = False
        for _ in range(8):
            trial = psi_c - scale * step
            r_new, psi_new, drho_new = residual(trial)
            if rnorm(r_new) < history[-1]:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            # stagnation: accept the current iterate (and its density) if
            # it is at the numerical floor of the density map, otherwise
            # this is a genuine regime failure
            if history[-1] <= max(10.0 * noise_floor(), 1e-6 * kp_norm):
                converged = True
                break
            raise RegimeViolationError(
                "Newton stagnated even with damping; outside the screened regime"
            )
        psi_c, r, psi_f, drho = trial, r_new, psi_new, drho_new
        history.append(rnorm(r))
        converged = history[-1] <= max(tol * kp_norm, noise_floor())

    if not converged:
        raise RegimeViolationError(
            f"Newton did not reach {tol:.1e} relative residual in {MAX_NEWTON_ITER} steps "
            f"(last {history[-1] / kp_norm:.3e})"
        )
    # neutrality defect: mean of kappa'_delta minus mean of the induced
    # density at the accepted iterate
    defect = float(abs(kp.mean() - drho.mean()))
    # nonlinearity diagnostics: N(psi) on the basis and its share of drho
    nl_norm = rnorm(solver.nonlinearity(psi_c, drho).flat[sb._fft_pos])
    drho_norm = rnorm(sb.grid_to_coeffs(drho.values))
    info = report(status(history[-1]), it, history, noise_floor(), defect, nl_norm, drho_norm)
    return solver.phi_tiled + psi_f, psi_f, info


def nonlinearity_N(solver: SupercellSolver, psi: SupercellField):
    """N(psi) = [rho(phi_per+psi) - rho(phi_per)] - M psi on the solver's
    supercell.

    Evaluated by full functional calculus (the supercell density of
    `SupercellSolver.density`), not by the resolvent series; the linear part M psi uses the exact
    zone-averaged Jacobian blocks, so N is quadratically small. Calls on
    one solver share its reference density and its Jacobian blocks.
    """
    sb = solver.basis
    nl = solver.nonlinearity(sb.grid_to_coeffs(psi.values), solver.delta_density(psi))
    return SupercellField.from_coeffs(sb.micro.lattice, sb.factors, nl, real=True)


def effective_coefficients(deformed: DeformedCrystal, coeffs):
    """Effective (nu, eps) of the supercell operator itself.

    The homogenized coefficients of the module's response formulas use
    the single (0-fiber, k-fiber) pairing; the discretized supercell
    operator's exact low-momentum symbol carries the Brillouin-zone
    average over fiber pairs instead. The two differ by O(1%) on the
    reference crystal, which would contaminate the order-2 remainder
    measurement at first order in delta, so the decomposition uses the
    symbol of the operator actually being solved: the Schur-complement
    b built from zone-averaged fibers on the supercell's own k-grid.

    b(0) is the Schur complement of the k = 0 Newton Jacobian block of
    `SupercellSolver.of(deformed)` (b_function at k = 0 on that k-grid).
    eps is the Cartesian k^2 tensor of b(k) - b(0), `fit_b_quadratic` at
    kmax = delta: two b(k) along each unit reciprocal axis and the unit
    diagonal of each pair of axes. A zone average at a supercell grid
    momentum pairs blocks by time reversal; one off the grid (k = delta / 2)
    contracts all N^d.
    Returns `coeffs` with eps and b(0) replaced, so nu and every field
    derived from it follow; b(0) is floored at 1e-300 delta^2, which keeps
    nu positive for the macro solve.
    """
    solver = SupercellSolver.of(deformed)
    delta = deformed.delta
    b0 = _schur_symbol(solver.jacobian_blocks()[0])
    eps_eff = fit_b_quadratic(ResponseWorkspace.of(deformed.base), delta, b0, solver.basis.k_points)
    return replace(coeffs, eps=eps_eff, b0=max(b0, 1e-300 * delta**2))


@dataclass
class MultiscaleReport:
    delta: float
    psi_macro: SupercellField
    macro_term: SupercellField       # delta^{d-2} psi(delta y), macro coords
    phi_rem: SupercellField          # macro coords
    norms: dict = field(default_factory=dict)
    momentum_split: dict = field(default_factory=dict)
    newton: dict = field(default_factory=dict)


def expansion_decompose(
    deformed: DeformedCrystal,
    psi_micro: SupercellField,
    coeffs,
    newton_info=None,
) -> MultiscaleReport:
    """Split phi_delta = phi_per + delta^{d-2} psi(delta .) + phi_rem(delta .).

    psi solves the homogenized equation (nu - div eps grad) psi =
    kappa' on the macro box, eps a Cartesian tensor; the remainder is the
    exact difference, so the decomposition identity holds to machine
    precision by construction. Norms reported in macro coordinates: L^2,
    homogeneous H^1, and the zeta-weighted norm with zeta = delta
    m^{-1/2}; the momentum split uses P_r with r = a/delta, the radius a
    derived from the micro cell: half its shortest reciprocal basis vector.
    """
    base = deformed.base
    d = base.basis.d
    delta = deformed.delta
    box = deformed.macro_box
    prob = MacroProblem(box=box, nu=coeffs.nu, eps=coeffs.eps, source=deformed.kappa_prime)
    psi_macro = solve_pb(prob)

    # psi_macro lives on the grid of kappa', which is the supercell grid
    # (`build_deformed_kappa` refuses any other)
    macro_term_vals = delta ** (d - 2) * psi_macro.values
    rem_vals = np.asarray(psi_micro.values, dtype=float) - macro_term_vals

    macro_term = SupercellField(box, np.ones(d, dtype=int), macro_term_vals)
    phi_rem = SupercellField(box, np.ones(d, dtype=int), rem_vals)

    zeta = coeffs.zeta
    def znorm(f):
        l2 = f.l2_norm()
        h1 = f.h1_seminorm()
        return float(np.sqrt(l2**2 / zeta**2 + h1**2))

    a = 0.5 * float(np.min(np.linalg.norm(base.basis.lattice.reciprocal, axis=1)))
    rem_low = low_momentum_project(phi_rem, a / delta)
    rem_high = phi_rem - rem_low
    split = {
        "r": a / delta,
        "a": a,
        "low_share": znorm(rem_low) ** 2 / max(znorm(phi_rem) ** 2, 1e-300),
        "high_share": znorm(rem_high) ** 2 / max(znorm(phi_rem) ** 2, 1e-300),
    }
    norms = {
        "rem_l2": phi_rem.l2_norm(),
        "rem_h1": phi_rem.h1_seminorm(),
        "rem_zeta": znorm(phi_rem),
        "macro_term_l2": macro_term.l2_norm(),
        "psi_l2": psi_macro.l2_norm(),
    }
    return MultiscaleReport(
        delta=delta,
        psi_macro=psi_macro,
        macro_term=macro_term,
        phi_rem=phi_rem,
        norms=norms,
        momentum_split=split,
        newton=newton_info or {},
    )


@dataclass
class MultiscaleSweep:
    """One deformed-crystal run per delta over one coefficient pass.

    Entry i of each list belongs to delta_list[i]; the Newton info of a
    run is its report's `newton`.
    """

    coeffs: list      # single-fiber HomogenizedCoefficients
    effective: list   # `effective_coefficients` of the supercell operator
    reports: list     # MultiscaleReport
    l2_slope: float   # log-log slope of rem_l2 in delta, nan below two deltas


def multiscale_sweep(crystal: CrystalState, delta_list, kappa_prime):
    """Multiscale check of a crystal at each delta = 1/N of delta_list.

    kappa_prime is a macro source spec (`config.build_macro_source`) for
    the macro box of the crystal's cell; it is sampled on each supercell
    grid. The homogenized coefficients come from one pass and are moved
    to each delta by `dataclasses.replace`. A crystal that
    `ResponseWorkspace.of` refuses is refused before any supercell work.
    """
    basis = crystal.basis
    ws = ResponseWorkspace.of(crystal)
    coeffs = homogenized_coefficients(ws, delta_list[0], crystal.eta0)
    box = Lattice(basis.lattice.basis.copy())
    sweep = MultiscaleSweep([], [], [], float("nan"))
    for delta in delta_list:
        N = delta_factor(delta)
        spec = dict(kappa_prime)
        # the harness keeps the cubic deformation scaling of the 3D
        # setting: the amplitude carries the extra delta^(3-d) power
        spec["amplitude"] = spec.get("amplitude", 0.05) * delta ** (3 - basis.d)
        src = build_macro_source(box, tuple(int(s * N) for s in basis.fft_shape), spec)
        deformed = build_deformed_kappa(crystal, delta, src)
        _, psi_micro, info = micro_solve_perturbation(deformed)
        at_delta = replace(coeffs, delta=delta)
        effective = effective_coefficients(deformed, at_delta)
        sweep.coeffs.append(at_delta)
        sweep.effective.append(effective)
        sweep.reports.append(
            expansion_decompose(deformed, psi_micro, effective, newton_info=info)
        )
    if len(delta_list) >= 2:
        rem = np.array([rep.norms["rem_l2"] for rep in sweep.reports])
        sweep.l2_slope = float(np.polyfit(np.log(np.array(delta_list)), np.log(rem), 1)[0])
    return sweep
