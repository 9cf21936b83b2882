"""Linearized density response M, its Bloch fibers, and the homogenized
coefficients (screening density V, mass m, rho', permittivity, b-symbol).

One routine builds every response fiber: `m_fiber_averaged(ws, k,
k_grid)` averages the (q + k, q) pair blocks over a k-grid and is the
exact Jacobian fiber of the k-grid density map; the SCF linear response
and the supercell Newton solves use it on their own k-grids.
`m_fiber(ws, k)` is its one-point-grid case, the (0-fiber, k-fiber)
pairing that the homogenized coefficients (V, m, rho', epsilon, b, nu)
are defined through; it equals the Gamma-only-grid fiber at -k to
round-off. The coefficients satisfy the closed-form identities exactly
(M_0 applied to the constant equals V, b(0) = |Omega|^{-1} (m - <V,
Kbar_0^{-1} V>), ...).

The band-pair weights are divided differences of the occupation
function, taken from the workspace's weight kernel: `thermal_weights`
for f_T, or `step_weights` for the T = 0 occupied-band indicator, which
the zero-temperature permittivity uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement

import numpy as np

from . import kernels
from .fibers import (
    GaplessCrystalError,
    assemble_fiber,
    contour_quadrature,
    den_from_matrix,
    diagonalize_fiber,
    momentum_key,
    shift_overlap_tensor,
    time_reversal_partners,
    time_reversed_fiber,
    time_reversed_pairs,
)
from .lattice import PeriodicField, PlaneWaveBasis
from .occupation import OccupationModel, step_dd

__all__ = [
    "ResponseWorkspace",
    "HomogenizedCoefficients",
    "thermal_weights",
    "step_weights",
    "screening_density_V",
    "screening_mass_m",
    "rho_prime",
    "epsilon_matrix",
    "b_function",
    "b_samples",
    "b_fit_samples",
    "fit_directions",
    "fit_b_expansion",
    "fit_b_quadratic",
    "b0_closed_form",
    "homogenized_coefficients",
    "epsilon_zero_temperature",
]

# regime windows of the asymptotic theory: c_T, c_T^(-8/9) delta and
# theta = delta m^(-8/9) at or below these count as small
ALPHA_THRESHOLD = 0.1
THETA_THRESHOLD = 0.1


def thermal_weights(order, a, b, occ: OccupationModel):
    """f[a_i, ..., a_i, b_j] of f_T(. - mu), a_i repeated `order` (1-3) times."""
    dd = (kernels.dd1_matrix, kernels.dd2_matrix, kernels.dd3_matrix)[order - 1]
    return dd(a, b, occ.T, occ.mu)


def step_weights(order, a, b, occ: OccupationModel):
    """T = 0 limit of `thermal_weights`: f_T replaced by the indicator of e < mu."""
    return step_dd(order, np.asarray(a)[:, None], np.asarray(b)[None, :], occ.mu)


class ResponseWorkspace:
    """Caches fiber eigendecompositions of one crystal potential.

    `weights` is the band-pair weight kernel of the pair contractions
    (M_k, rho', eps'): `thermal_weights`, or its T = 0 limit
    `step_weights`. `pair_window` and `pair_window_bound` are the edge
    of the occupied window of the fiber pair blocks and the bound on
    what it drops (see `_pair_block`).
    """

    def __init__(self, basis: PlaneWaveBasis, phi: PeriodicField, occ: OccupationModel,
                 weights=thermal_weights):
        self.basis = basis
        self.phi = phi
        self.occ = occ
        self.weights = weights
        self._cache = {}

    def with_weights(self, weights):
        """The same crystal and fiber cache under another weight kernel."""
        other = ResponseWorkspace(self.basis, self.phi, self.occ, weights)
        other._cache = self._cache
        return other

    @classmethod
    def of(cls, crystal):
        """The one thermal-weight workspace of a crystal, built on first use
        and kept on it, so every response fiber of the crystal (coefficients,
        supercell Jacobians, effective coefficients) comes from one cache.

        Raises GaplessCrystalError unless `crystal.dielectric_flag` is true:
        its mu is in a spectral gap of its bands and its state converged
        (`CrystalState`), which a designer crystal is by construction.
        """
        if not crystal.dielectric_flag:
            raise GaplessCrystalError("the crystal is not dielectric (mu outside a spectral gap "
                                      "or an unconverged SCF solve): no response coefficients")
        if crystal.response_ws is None:
            crystal.response_ws = cls(crystal.basis, crystal.phi, crystal.occ)
        return crystal.response_ws

    def fiber(self, k):
        """(eigenvalues, eigenvectors) of H_k at the absolute momentum k.

        No zone reduction: pair blocks rely on absolute G labels, so a
        momentum beyond the cell boundary keeps its unwrapped kinetic
        diagonal. When -k is cached, H_k is not diagonalised: its fiber is
        the `time_reversed_fiber` of the one at -k.
        """
        key = momentum_key(self.basis.lattice, k)
        if key not in self._cache:
            partner = self._cache.get(tuple(-x for x in key))
            if partner is None:
                self._cache[key] = diagonalize_fiber(assemble_fiber(self.basis, self.phi, k))
            else:
                self._cache[key] = time_reversed_fiber(self.basis, *partner)
        return self._cache[key]

    @property
    def gamma(self):
        return self.fiber(np.zeros(self.basis.d))

    @cached_property
    def m0(self):
        """M_0 = `m_fiber` at k = 0 under this workspace's weights, built once."""
        return m_fiber(self, np.zeros(self.basis.d))

    @cached_property
    def pair_window(self):
        """Edge e_w = `occ.window(n_pw, eps T m)` of the occupied window of
        the pair blocks, m the screening mass and eps machine epsilon;
        +inf when m underflows to 0, so that nothing is dropped."""
        m = screening_mass_m(self)
        if m > 0.0:
            return float(self.occ.window(self.basis.n_pw, np.finfo(float).eps * self.occ.T * m))
        return np.inf

    @property
    def pair_window_bound(self):
        """Bound eps m / |Omega| on any entry of the pairs a block drops."""
        return np.finfo(float).eps * screening_mass_m(self) / self.basis.lattice.volume

    def momentum_matrices(self, U):
        """(-i d_j) in the eigenbasis at the 0-fiber: U^dag diag(G_j) U."""
        return [
            U.conj().T @ (self.basis.g_cart[:, j][:, None] * U)
            for j in range(self.basis.d)
        ]


def _pair_block(ws: ResponseWorkspace, e_row, U_row, e_col, U_col, wrap=None):
    """-(1/|Omega|) sum_nm f[e_row_n, e_col_m] * conj(A_Q) A_P as a matrix.

    Only the pairs with a band in the occupied window e <= e_w =
    ws.pair_window are contracted (eigenvalues ascending): the rows with
    e_row <= e_w against every column, then the other rows against the
    columns with e_col <= e_w. e_w = mu + T ln(n_pw / (eps T m)), with m
    the screening mass and eps machine epsilon. A dropped pair has both
    bands above e_w, so |f[e_n, e_m]| <= f_T(e_w - mu) / T, and since
    sum_nm |A_P,nm|^2 <= n_pw every dropped entry sum is at most
    n_pw f_T(e_w - mu) / (T |Omega|) <= eps m / |Omega| =
    ws.pair_window_bound. Step weights vanish there exactly (e_w > mu).
    When m underflows to 0, e_w = +inf and nothing is dropped. That bound
    covers the dropped pairs only: the kept contraction carries ordinary
    rounding, an absolute error that does not shrink with m. In M's
    constant column the off-diagonal pairs cancel only to eps (A_0 is the
    identity to eps), about 1.1e-17 absolute on the Mathieu crystal
    2 cos x at ecut 50 whatever the temperature, so M_0 1 = V holds to an
    absolute tolerance, not a relative one.

    wrap is an integer reciprocal vector W: when the row fiber was folded
    back into the zone by -W, the density bucket at output mode P gathers
    the shift-tensor entries at P + W (zero outside the cutoff ball),
    which reproduces the supercell umklapp bookkeeping exactly.

    Only bands inside the window are gathered (pair-density bookkeeping
    of Baroni et al., Rev. Mod. Phys. 73, 515 (2001)). The rows above
    the window meet the c window columns through the swapped overlap
    As = `shift_overlap_tensor`(U_col[:, :c], U_row[:, r:], -W), since

        A_P,nm = sum_G conj(U_row[G+P+W, n]) U_col[G, m]
               = conj(sum_G conj(U_col[G-P-W, m]) U_row[G, n])
               = conj(As[-P, m, n]),

    both sums running over the same pairs of ball vectors. Each gather
    is n_pw^2 max(r, c) entries instead of n_pw^2 (n_pw - r). When the
    row and column fiber are one (the k = 0 pairs, no wrap), As is the
    slice A[:, :, r:] of the first overlap and nothing more is gathered.

    Memory: each branch holds an overlap and its weighted conjugate, and
    the first branch's arrays are freed before the second gathers, so
    about two arrays of n_pw^2 max(r, c) entries are alive at once (two
    inside `shift_overlap_tensor` as well), real when the fibers are.
    """
    e_w = ws.pair_window
    r = int(np.searchsorted(e_row, e_w, side="right"))
    c = int(np.searchsorted(e_col, e_w, side="right"))
    basis = ws.basis
    n_pw = basis.n_pw
    out = np.zeros((n_pw, n_pw), dtype=np.result_type(U_row, U_col))
    A = None
    if r > 0:
        A = shift_overlap_tensor(basis, U_row[:, :r], U_col, offset=wrap)
        W = A * ws.weights(1, e_row[:r], e_col, ws.occ)[None]
        np.conjugate(W, out=W)
        out += W.reshape(n_pw, -1) @ A.reshape(n_pw, -1).T
        del W
    if r < n_pw and c > 0:
        D = ws.weights(1, e_row[r:], e_col[:c], ws.occ).T[None]
        if U_row is U_col and not np.any(wrap):
            # one fiber (r = c): As is the slice A[:, :, r:], copied before A goes
            Ac = np.conjugate(A[:, :, r:])
            del A
            W = np.conjugate(Ac)
            W *= D
        else:
            del A
            neg_wrap = None if wrap is None else -np.asarray(wrap)
            Ac = shift_overlap_tensor(basis, U_col[:, :c], U_row[:, r:], offset=neg_wrap)
            W = Ac * D
            np.conjugate(Ac, out=Ac)
        # Ac[-P] holds A_P in (m, n) order, W[-P] its conjugate times D
        neg = basis.negation_index
        out += (W.reshape(n_pw, -1) @ Ac.reshape(n_pw, -1).T)[np.ix_(neg, neg)]
    return -out / basis.lattice.volume


def m_fiber(ws: ResponseWorkspace, k):
    """Paper-form fiber M_k from the (0-fiber, k-fiber) eigenpair.

    The pair block of `m_fiber_averaged` at -k over the one-point grid
    {k}: 0-fiber rows, k-fiber columns. It equals the Gamma-only-grid
    fiber at -k to round-off. Hermitian and positive semidefinite; M_0
    applied to the constant function reproduces the screening density V.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    return m_fiber_averaged(ws, -k, k[None, :])


def m_fiber_averaged(ws: ResponseWorkspace, k, k_grid):
    """Zone-averaged fiber: mean over q of the (q + k, q) pair blocks.

    This is the exact Jacobian fiber of the density map evaluated on
    k_grid (for k = 0, of the SCF density itself). Row momenta leaving
    the zone are folded back and the pair block carries the umklapp
    relabelling, matching the supercell density map to round-off.

    Time reversal halves the blocks. With a = q + k - W the folded row
    momentum (umklapp W), the block of (row a, column q, W) equals that of
    (row -q, column -a, W) for a real potential: the fibers at -q and -a
    are the `time_reversed_fiber`s of those at q and a, which turns
    A_P,nm into A_P,mn, and the first divided difference is symmetric.
    The partner is the grid point q' = -a, whose row q' + k = -q + W folds
    to -q by the same W. So one block of each pair is contracted and
    added twice (`time_reversed_pairs` matches them once per call). A
    point with q = -a is its own partner. A pair cannot form when q or a
    has a component on the -1/2 zone face, whose negation +1/2 is another
    ball of modes, nor when -a is off the grid (k off the grid): those
    blocks are contracted once each. On the grid's own momenta that is
    about half of the N^d blocks.

    Truncation: each pair block contracts only the pairs with a band at
    or below `ws.pair_window`; the dropped pairs change an entry of the
    result by at most eps m / |Omega| (`pair_window_bound`). The kept
    pairs add the contraction's own rounding, absolute and independent
    of m (see `_pair_block`): the constant column of M_0 is V only to
    about 1.1e-17 absolute on the Mathieu crystal 2 cos x at ecut 50.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    lattice = ws.basis.lattice
    cols = np.atleast_2d(k_grid)
    rows = cols + k[None, :]
    # round half up: momenta on the +1/2 zone face fold to the -1/2
    # face, matching the supercell fiber convention
    wraps = np.floor(rows @ lattice.reciprocal_inverse + 0.5).astype(int)
    rows -= wraps @ lattice.reciprocal
    partners = time_reversed_pairs(lattice, rows, cols)
    acc = 0.0  # takes the dtype of the blocks, real on real fibers
    for i, (a, q, wrap, p) in enumerate(zip(rows, cols, wraps, partners)):
        if 0 <= p < i:
            continue  # added twice with its partner
        e_r, U_r = ws.fiber(a)
        e_c, U_c = ws.fiber(q)
        blk = _pair_block(ws, e_r, U_r, e_c, U_c, wrap=wrap)
        acc = acc + (blk if p in (-1, i) else 2.0 * blk)
    return acc / len(cols)


def screening_density_V(ws) -> PeriodicField:
    """V(x) = -sum_n f_T'(e_n0 - mu) |psi_n0(x)|^2 >= 0 over the 0-fiber bands
    e_n0 <= `ws.pair_window`, whose pair blocks drop the same pairs from M_0 1,
    so M_0 1 = V; the dropped part is at most `ws.pair_window_bound`."""
    e0, U0 = ws.gamma
    r = int(np.searchsorted(e0, ws.pair_window, side="right"))
    vals = ws.basis.band_density(U0[:, :r], -ws.occ.occ_deriv(e0[:r]))[0]
    vals /= ws.basis.lattice.volume
    V = PeriodicField.from_grid(ws.basis, vals)
    V.grid_min = float(vals.min())
    return V


def screening_mass_m(ws) -> float:
    """m = -Tr f_T'(h_0 - mu) = int_Omega V > 0."""
    e0, _ = ws.gamma
    return float(np.sum(-ws.occ.occ_deriv(e0)))


def rho_prime(ws):
    """d coefficient arrays (complex128): the k-linear coefficient of M_k 1.

    Component j is -2 den[oint r_0^2 (-i d_j) r_0] = -2 den[U_0 (D_2 o
    P_j) U_0^dagger], with D_2 the confluent second divided differences
    f[e_n, e_n, e_m] and P_j the momentum matrix in the 0-fiber
    eigenbasis: the density of one plane-wave matrix per component
    (pair-density form, Baroni et al., Rev. Mod. Phys. 73, 515 (2001)).
    Purely imaginary-valued, so not a `PeriodicField`; odd under inversion
    for inversion-symmetric crystals. Complex128 on real fibers too, so
    the `eps''` solves against it keep complex arithmetic and its rounding.
    """
    e0, U0 = ws.gamma
    D2 = ws.weights(2, e0, e0, ws.occ)
    U0h = U0.conj().T
    return [-2.0 * den_from_matrix(ws.basis, U0 @ (D2 * P) @ U0h).astype(complex)
            for P in ws.momentum_matrices(U0)]


def _symmetric(upper):
    """The symmetric (d, d) matrix with the d(d + 1)/2 entries `upper` on
    and above the diagonal, in `np.triu_indices(d)` order (row-major)."""
    d = int(np.sqrt(2 * len(upper)))
    out = np.empty((d, d))
    iu = np.triu_indices(d)
    out[iu] = out[iu[::-1]] = upper
    return out


def epsilon_prime(ws):
    """Band contribution: eps'_ij = -(4/|Omega|) Tr oint r^2 p_i r p_j r.

    Third divided differences f[e_n, e_n, e_n, e_m] weight the two
    momentum matrix elements. The prefactor 4 is fixed by the resolvent
    expansion of b_1(k) (the perturbation is 2 k . p), and is verified
    against the b(k) quadratic fit.
    """
    e0, U0 = ws.gamma
    D3 = ws.weights(3, e0, e0, ws.occ)
    Ps = ws.momentum_matrices(U0)
    vol = ws.basis.lattice.volume
    return _symmetric([(-(4.0 / vol) * np.sum(D3 * Ps[i] * Ps[j].T)).real
                       for i, j in zip(*np.triu_indices(ws.basis.d))])


def _operator_block(ws, Mk, k=None):
    """K_k = |G + k|^2 + M_k, the k-fiber of -Lap + M (k = 0 when None)."""
    K = Mk.copy()
    K[np.diag_indices_from(K)] += ws.basis.kinetic_diagonal(k)
    return K


def _kbar_solve(K, rhs):
    """Solve Kbar_k = PiBar K_k PiBar (K_k from `_operator_block`) off the constant mode."""
    Kr = K[1:, 1:]
    try:
        sol = np.linalg.solve(Kr, rhs[1:])
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(Kr)
        raise RuntimeError(f"Kbar_k numerically singular (cond {cond:.3e})") from exc
    out = np.zeros_like(rhs)
    out[1:] = sol
    return out


def epsilon_double_prime(ws, M0, rho_p):
    """Local-field correction: eps''_ij = |Omega|^{-1} <rho'_i, Kbar_0^{-1} rho'_j>
    from the 0-fiber M0 and rho'."""
    K0 = _operator_block(ws, M0)
    sols = [_kbar_solve(K0, c) for c in rho_p]
    return _symmetric([np.vdot(rho_p[i], sols[j]).real
                       for i, j in zip(*np.triu_indices(ws.basis.d))])


def _permittivity(ep, epp):
    """eps = 1 + eps' - eps'', symmetrized."""
    eps = np.eye(len(ep)) + ep - epp
    return 0.5 * (eps + eps.T)


def epsilon_matrix(ws):
    """(eps, eps', eps'') with eps = 1 + eps' - eps'', symmetrized."""
    ep = epsilon_prime(ws)
    epp = epsilon_double_prime(ws, ws.m0, rho_prime(ws))
    return _permittivity(ep, epp), ep, epp


def epsilon_zero_temperature(ws):
    """T = 0 permittivity: f_T replaced by the occupied-band indicator.

    Only occupied/unoccupied band pairs contribute; refused when mu
    touches the 0-fiber spectrum (band edge).
    """
    e0, _ = ws.gamma
    if np.min(np.abs(e0 - ws.occ.mu)) < 1e-10:
        raise GaplessCrystalError("mu at a band edge: T = 0 limit undefined")
    return epsilon_matrix(ws.with_weights(step_weights))[0]


def b_function(ws, k, k_grid=None):
    """Feshbach-Schur symbol b(k) of -Lap + M at micro momentum k.

    b(k) = |Omega|^{-1} <1, (|k|^2 + M_k - M_k Kbar_k^{-1} M_k) 1> with
    Kbar_k the fiber of the low-momentum complement of -Lap + M. For
    every |k| small enough that B(|k|) stays inside the reciprocal cell,
    the fiber of the complement projection excludes exactly the constant
    mode, so Kbar_k^{-1} is inverted on the G != 0 block at every k (not
    only k = 0). This makes b(k) the Schur complement of -Lap + M onto
    the constant fiber mode, i.e. the exact low-momentum symbol of the
    full operator acting on macroscopically modulated sources. Real and
    even in k.

    M_k is the paper-form `m_fiber`, or with a k_grid the zone-averaged
    fiber of the density map on that grid.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    Mk = m_fiber(ws, k) if k_grid is None else m_fiber_averaged(ws, k, k_grid)
    return _schur_symbol(_operator_block(ws, Mk, k))


def _schur_symbol(K):
    """Schur complement K_k[0,0] - <v, Kbar_k^{-1} v> of an operator block
    K_k = |G + k|^2 + M_k onto the constant mode, v = K_k 1 off it: b(k)."""
    sol = _kbar_solve(K, K[:, 0])
    return float(K[0, 0].real - np.vdot(K[1:, 0], sol[1:]).real)


def fit_b_expansion(ws, k_samples):
    """Least-squares even-polynomial fit b(k) ~ b0 + k.Ek + quartic.

    Args:
        ws: response workspace.
        k_samples: (m, d) cartesian sample momenta, |k| small against
            the reciprocal cell (<= 0.2 of the shortest reciprocal
            vector) and spanning all d directions; at least 12 samples.
            `b_fit_samples` gives a set whose every fit column is nonzero.

    Returns:
        (b0_fit, eps_fit, quartic_residual): constant term, symmetric
        quadratic coefficient matrix, and the RMS size of the fitted
        quartic contribution over the samples.
    """
    ks, solve = _b_fit(ws, k_samples)
    return solve(b_samples(ws, ks))


def fit_directions(lattice, order):
    """The (count, d) unit directions of the b(k) fits: the unit reciprocal
    axes and, for r = 2 .. order, the unit diagonal of each r of them."""
    axes = [w / np.linalg.norm(w) for w in lattice.reciprocal]
    sums = [np.sum([axes[i] for i in c], axis=0)
            for r in range(2, order + 1) for c in combinations(range(lattice.d), r)]
    return np.array(axes + [e / np.linalg.norm(e) for e in sums])


def b_fit_samples(lattice, kmax, n):
    """The (m, d) sample momenta of the b(k) fit: n magnitudes kmax *
    geomspace(1/64, 1, n) along each direction of `fit_directions`
    (lattice, 3), so that every k_i k_j and k_i^2 k_j k_l column of the
    `fit_b_expansion` design is nonzero. Each k is followed by -k, so
    m = 2 n (d + C(d, 2) + C(d, 3))."""
    return np.array([
        s * x * e for e in fit_directions(lattice, 3)
        for x in kmax * np.geomspace(1.0 / 64.0, 1.0, n) for s in (1, -1)
    ])


def b_samples(ws, k_samples):
    """`b_function` at each (d,) row of k_samples, evaluated once per +-k
    pair (`time_reversal_partners`): b is even in k, so the later sample
    of a pair takes the value of the earlier one."""
    ks = np.atleast_2d(np.asarray(k_samples, dtype=float))
    partners = time_reversal_partners(ws.basis.lattice, ks)
    b = np.empty(len(ks))
    for i, (k, p) in enumerate(zip(ks, partners)):
        b[i] = b[p] if p >= 0 else b_function(ws, k)
    return b


def _quadratic_columns(ks):
    """The k_i k_j (i <= j, doubled off the diagonal) columns of the b(k) fit
    design at the rows k of ks: a row times `upper` is k.E k, E = `_symmetric(upper)`."""
    return np.stack([(1.0 if i == j else 2.0) * ks[:, i] * ks[:, j]
                     for i, j in zip(*np.triu_indices(ks.shape[1]))], axis=1)


def fit_b_quadratic(ws, kmax, b0, k_grid):
    """The Cartesian tensor E of b(k) = b0 + k.E k + O(k^4), b zone-averaged
    over k_grid: e.E e along each direction e of `fit_directions(lattice, 2)`
    by the two-point (k^2, k^4) fit of b(k e) - b0 at k = kmax / 2 and kmax,
    then E from the quadratic columns at the d(d + 1)/2 directions."""
    dirs = fit_directions(ws.basis.lattice, 2)
    ks = (0.5 * kmax, kmax)
    A = np.array([[k**2, k**4] for k in ks])
    quad = [np.linalg.solve(A, [b_function(ws, k * e, k_grid=k_grid) - b0 for k in ks])[0]
            for e in dirs]
    return _symmetric(np.linalg.solve(_quadratic_columns(dirs), quad))


def _b_fit(ws, k_samples):
    """The validated samples of `fit_b_expansion` as an (m, d) array, and
    its least-squares solve for the b values at them.

    The design is checked before any b(k) is evaluated, so a sample set
    that cannot be fitted costs no fiber work.
    """
    ks = np.atleast_2d(np.asarray(k_samples, dtype=float))
    m, d = ks.shape
    if m < 12:
        raise ValueError("need at least 12 k samples for the quartic fit")
    wstar = ws.basis.lattice.reciprocal
    kmax = np.max(np.linalg.norm(ks, axis=1))
    if kmax > 0.2 * np.min(np.linalg.norm(wstar, axis=1)) * (1 + 1e-9):
        raise ValueError("k samples exceed 0.2 of the shortest reciprocal vector")
    spans = np.linalg.matrix_rank(ks)
    if spans < d:
        raise ValueError("k samples must span all directions")

    cols = [np.ones(m), _quadratic_columns(ks)]
    for idx in combinations_with_replacement(range(d), 4):
        col = np.ones(m)
        for ax in idx:
            col = col * ks[:, ax]
        cols.append(col)
    X = np.column_stack(cols)
    # strong small-k weighting (squared-weight ~ 1/|k|^6) suppresses the
    # (unmodelled) k^6 tail's bias on the quadratic coefficient; column
    # scaling keeps the normal equations well conditioned despite the
    # wide dynamic range.
    knorm2 = np.einsum("ij,ij->i", ks, ks)
    w = 1.0 / np.maximum(knorm2, 1e-300) ** 1.5
    Xw = X * w[:, None]
    scale = np.linalg.norm(Xw, axis=0)
    if np.any(scale == 0.0):
        raise ValueError("degenerate fit design; enlarge the sample set")
    # the constant + quadratic block must be identifiable; the quartic
    # tensor may be rank-deficient for direction-limited samples (its
    # minimum-norm representative still yields the residual size)
    n_quad = d * (d + 1) // 2
    head = Xw[:, : 1 + n_quad] / scale[None, : 1 + n_quad]
    cond = np.linalg.cond(head)
    if cond > 1e12:
        raise ValueError(
            f"ill-conditioned fit (cond {cond:.2e}); enlarge the sample set"
        )

    def solve(y):
        coef, *_ = np.linalg.lstsq(Xw / scale[None, :], y * w, rcond=1e-12)
        coef = coef / scale
        b0 = float(coef[0])
        eps_fit = _symmetric(coef[1 : 1 + n_quad])
        quart = X[:, 1 + n_quad :] @ coef[1 + n_quad :]
        quartic_residual = float(np.sqrt(np.mean(quart**2)))
        return b0, eps_fit, quartic_residual

    return ks, solve


def b0_closed_form(ws, m, V):
    """b(0) in closed form, |Omega|^{-1} m - <V, Kbar_0^{-1} V>, from the
    screening mass m and density V on the workspace's M_0: the reference
    for the Schur-complement b(0) of `homogenized_coefficients`."""
    sol = _kbar_solve(_operator_block(ws, ws.m0), V.coeffs)
    return m / ws.basis.lattice.volume - float(np.vdot(V.coeffs, sol).real)


@dataclass(frozen=True)
class HomogenizedCoefficients:
    """The homogenized outputs of one crystal at one scale ratio delta.

    The fields are what the coefficient pass measures; nu and the regime
    diagnostics follow from them, so `dataclasses.replace(coeffs,
    delta=...)` gives the coefficients at another delta without any
    recomputation.
    """

    delta: float
    T: float
    eta0: float
    m: float
    V: PeriodicField
    rho_p: list  # rho', d complex128 coefficient arrays (`rho_prime`)
    eps: np.ndarray
    eps_prime: np.ndarray
    eps_dprime: np.ndarray
    b0: float

    @property
    def nu(self):
        """Screening coefficient nu = delta^{-2} b(0)."""
        return self.b0 / self.delta**2

    @property
    def debye_length(self):
        return 1.0 / np.sqrt(self.nu) if self.nu > 0 else np.inf

    @property
    def c_T(self):
        return np.exp(-self.eta0 / self.T) / self.T

    s_beta = c_T

    @property
    def zeta(self):
        return self.delta / np.sqrt(self.m) if self.m > 0 else np.inf

    @property
    def theta(self):
        return self.delta * self.m ** (-8.0 / 9.0) if self.m > 0 else np.inf

    @property
    def regime_ok(self):
        c_T = self.c_T
        return {
            "c_T_small": bool(c_T <= ALPHA_THRESHOLD),
            "c_T_delta_compatible": bool(
                c_T > 0 and c_T ** (-8.0 / 9.0) * self.delta <= ALPHA_THRESHOLD
            ),
            "theta_small": bool(self.theta <= THETA_THRESHOLD),
        }


def homogenized_coefficients(ws, delta, eta0) -> HomogenizedCoefficients:
    """The coefficient pass: V, m, rho', eps and b(0) of the workspace's
    crystal, with M_0 and rho' built once and shared by eps'' and b(0).

    The correction to |Omega|^{-1} m inside b(0) is exactly
    -|Omega|^{-1} <V, Kbar_0^{-1} V> in this discretization, so nu
    carries no asymptotic truncation.
    """
    rp = rho_prime(ws)
    ep = epsilon_prime(ws)
    epp = epsilon_double_prime(ws, ws.m0, rp)
    return HomogenizedCoefficients(
        delta=delta,
        T=ws.occ.T,
        eta0=eta0,
        m=screening_mass_m(ws),
        V=screening_density_V(ws),
        rho_p=rp,
        eps=_permittivity(ep, epp),
        eps_prime=ep,
        eps_dprime=epp,
        b0=_schur_symbol(_operator_block(ws, ws.m0)),
    )


# ---------------------------------------------------------------------------
# Contour-quadrature route (cross-check, not the hot path)


def prime_terms_contour(ws, tol=1e-10):
    """(eps', rho') by one contour quadrature over the 0-fiber resolvent R(z),
    the dual route to `epsilon_prime` and `rho_prime`: rho'_j = -2 den[oint
    f_T R^2 P_j R] and eps'_ij = -(4/|Omega|) Tr oint f_T R^2 P_i R P_j R,
    with Tr R^2 P_i R P_j R = g_i^T (R o (R^3)^T) g_j for the diagonal P.
    The quadrature carries the traces of i <= j only; eps' mirrors them."""
    basis = ws.basis
    d = basis.d
    H0 = assemble_fiber(basis, ws.phi, np.zeros(d))
    eye = np.eye(basis.n_pw)
    g = basis.g_cart
    gs = g.T[:, None, :]  # P_j as the column scaling of slice j
    upper = np.triu_indices(d)

    def integrand(z):
        R = np.linalg.solve(z * eye - H0, eye)
        RR = R @ R
        tr = g.T @ (R * (RR @ R).T) @ g
        return np.concatenate([tr[upper], den_from_matrix(basis, (RR * gs) @ R).ravel()])

    val, _ = contour_quadrature(integrand, ws.occ, ws.gamma[0], tol=tol)
    n_tr = len(upper[0])
    ep = _symmetric(-(4.0 / basis.lattice.volume) * val[:n_tr].real)
    rp = list(-2.0 * val[n_tr:].reshape(d, -1))
    return ep, rp


def epsilon_matrix_contour(ws, tol=1e-10):
    """Permittivity via the Cauchy-contour route: eps' and rho' from
    `prime_terms_contour`; the Kbar_0 solve inside eps'' is shared with the
    eigen route, so the divided-difference weights are what it cross-checks."""
    ep, rp = prime_terms_contour(ws, tol=tol)
    return _permittivity(ep, epsilon_double_prime(ws, ws.m0, rp))
