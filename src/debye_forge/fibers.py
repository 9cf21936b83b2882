"""Fiber Hamiltonians h_k = (-i grad + k)^2 - phi, their spectra and densities.

The fiber at Bloch momentum k acts on lattice-periodic functions; in the
plane-wave basis its matrix is

    H_k[G, G'] = |G + k|^2 delta_{GG'} - phihat(G - G'),

Hermitian for real phi. Densities, spectral gaps and the Cauchy-contour
functional calculus used as the cross-check route all live here.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lattice import PeriodicField, PlaneWaveBasis
from .occupation import OccupationModel

__all__ = [
    "BandStructure",
    "GapReport",
    "GaplessCrystalError",
    "assemble_fiber",
    "diagonalize_fiber",
    "time_reversal_partners",
    "time_reversed_pairs",
    "time_reversed_fiber",
    "compute_bands",
    "density_from_potential",
    "spectral_gap",
    "contour_quadrature",
    "shift_overlap_tensor",
    "den_from_matrix",
]


class ContourGeometryError(RuntimeError):
    pass


class ContourConvergenceError(RuntimeError):
    pass


class EigensolverError(RuntimeError):
    pass


def _difference_table(basis: PlaneWaveBasis):
    """table[i, j] = basis index of G_i - G_j, or n_pw when outside the set."""
    tab = getattr(basis, "_diff_table", None)
    if tab is None:
        tab = basis._diff_table = basis.index_table(basis.g_ints, basis.g_ints, sign=-1)
    return tab


def _shift_table(basis: PlaneWaveBasis):
    """table[p, g] = basis index of G_g + G_p, or n_pw when outside the set."""
    tab = getattr(basis, "_shift_tab", None)
    if tab is None:
        tab = basis._shift_tab = basis.index_table(basis.g_ints, basis.g_ints)
    return tab


def _den_index(basis: PlaneWaveBasis):
    """(flat, outside): B.ravel()[flat[p, g]] = B[G_g + G_p, G_g], and the
    positions in flat.ravel() of the slots whose G_g + G_p leaves the ball
    (they gather B[0, g], to be zeroed)."""
    idx = getattr(basis, "_den_idx", None)
    if idx is None:
        tab = _shift_table(basis)
        n = basis.n_pw
        outside = tab == n
        flat = np.where(outside, 0, tab) * n + np.arange(n)
        idx = basis._den_idx = (flat, np.flatnonzero(outside))
    return idx


def den_from_matrix(basis: PlaneWaveBasis, B):
    """Fourier coefficients of den[B]: d(Q) = |Omega|^{-1} sum_G B[G+Q, G].

    B is one (n_pw, n_pw) matrix or a stack (..., n_pw, n_pw), and d has
    shape (n_pw,) or (..., n_pw). The terms are gathered through one flat
    index cached on the basis, with a 0 in each slot whose G + Q leaves
    the ball, and summed over G in basis order.
    """
    flat, outside = _den_index(basis)
    n = basis.n_pw
    lead = B.shape[:-2]
    # np.take returns a C-ordered array, so each sum over G runs along
    # contiguous memory and rounds as for a single matrix (B[..., flat]
    # puts the stack axis innermost, which changes the rounding)
    picked = np.take(B.reshape(*lead, n * n), flat, axis=-1)
    picked.reshape(*lead, n * n)[..., outside] = 0.0
    return picked.sum(axis=-1) / basis.lattice.volume


def potential_matrix(phi: PeriodicField):
    """Multiplication operator by phi projected on the basis: phihat(G - G').

    Real (float64) when phi is `inversion_symmetric`, complex otherwise; the
    fibers, their eigenvectors and the pair blocks built on them follow
    this dtype.
    """
    basis = phi.basis
    tab = _difference_table(basis)
    coeffs = phi.coeffs.real if phi.inversion_symmetric else phi.coeffs
    padded = np.concatenate([coeffs, [0.0]])
    return padded[tab]


def assemble_fiber(basis: PlaneWaveBasis, phi: PeriodicField, k):
    """H_k = diag(|G+k|^2) - phihat(G-G'), real symmetric when phi is
    `inversion_symmetric` (`potential_matrix`).

    k is the absolute momentum: it is not reduced into the reciprocal
    cell, so that pair blocks of the averaged response keep their G
    labels across the zone boundary.
    """
    H = -potential_matrix(phi)
    H[np.diag_indices_from(H)] += basis.kinetic_diagonal(k)
    return H


def diagonalize_fiber(H):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a fiber matrix."""
    defect = float(np.abs(H - H.conj().T).max())
    scale = max(1.0, float(np.abs(H).max()))
    if defect > 1e-12 * scale:
        raise EigensolverError(f"fiber is not Hermitian: defect {defect:.3e}")
    try:
        evals, evecs = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(H)
        raise EigensolverError(
            f"eigensolver failed (matrix condition {cond:.3e})"
        ) from exc
    return evals, evecs


def momentum_key(lattice, k):
    """Fractional coordinates of the momentum k rounded to 12 digits: the
    key under which two momenta count as one."""
    return momentum_keys(lattice, np.atleast_1d(np.asarray(k, dtype=float))[None, :])[0]


def momentum_keys(lattice, k_points):
    """`momentum_key` of each row of k_points, from one product."""
    frac = np.atleast_2d(np.asarray(k_points, dtype=float)) @ lattice.reciprocal_inverse
    return [tuple(row) for row in np.round(frac, 12).tolist()]


def _negated(key):
    return tuple(-x for x in key)


def time_reversal_partners(lattice, k_points):
    """p[i] = j < i when k_j = -k_i (equal `momentum_key`), -1 otherwise.

    Neither k = 0 nor a momentum whose negation is missing from the list
    (the zone face of an even centred grid) has a partner.
    """
    seen = {}
    partners = np.full(len(k_points), -1, dtype=int)
    for i, key in enumerate(momentum_keys(lattice, k_points)):
        partners[i] = seen.get(_negated(key), -1)
        seen.setdefault(key, i)
    return partners


def time_reversed_pairs(lattice, rows, cols):
    """p[i] = j when (rows[j], cols[j]) = (-cols[i], -rows[i]) (equal
    `momentum_key`), -1 when no pair of the list matches.

    rows[i] and cols[i] are the row and column momenta of a pair block. For
    a real potential the pair (a, q) and its time reversal (-q, -a) give
    the same block under the same umklapp (`response.m_fiber_averaged`).
    With distinct pairs p is an involution, and p[i] = i when a = -q.
    """
    keys = list(zip(momentum_keys(lattice, rows), momentum_keys(lattice, cols)))
    index = {key: i for i, key in enumerate(keys)}
    return np.array([index.get((_negated(c), _negated(r)), -1) for r, c in keys], dtype=int)


def time_reversed_fiber(basis: PlaneWaveBasis, e, U):
    """Eigenpairs of H_{-k} from those (e, U) of H_k: (e, U[-G].conj()).

    For a real phi, phihat(-Q) = conj(phihat(Q)), so H_{-k}[G, G'] =
    conj(H_k[-G, -G']) and H_{-k} conj(U[-G]) = conj(U[-G]) diag(e)
    exactly. U may be a stack (..., n_pw, n_bands) of fibers, e the
    matching stack of eigenvalues.
    """
    return e, U[..., basis.negation_index, :].conj()


@dataclass
class BandStructure:
    """Spectra of the fibers over a k-grid (k = 0 always included)."""

    k_points: np.ndarray          # (nk, d)
    eigenvalues: np.ndarray       # (nk, n_pw), ascending per k
    eigenvectors: list            # nk arrays (n_pw, n_pw)

    @property
    def nk(self):
        return self.k_points.shape[0]

    def gamma_index(self):
        i = int(np.argmin(np.einsum("ij,ij->i", self.k_points, self.k_points)))
        if np.linalg.norm(self.k_points[i]) > 1e-12:
            raise ValueError("k-grid does not contain k = 0")
        return i

    def band_ranges(self):
        """(min over k, max over k) of each band."""
        return self.eigenvalues.min(axis=0), self.eigenvalues.max(axis=0)


def compute_bands(basis, phi, k_points, threads=1) -> BandStructure:
    """Fibers of the real potential phi at every k: one k of each +-k pair
    is diagonalised, on `threads` workers in a fixed output order, and its
    partner is the `time_reversed_fiber`."""
    k_points = np.atleast_2d(np.asarray(k_points, dtype=float))
    partners = time_reversal_partners(basis.lattice, k_points)
    direct = np.flatnonzero(partners < 0)

    def solve(k):
        return diagonalize_fiber(assemble_fiber(basis, phi, k))

    ks = list(k_points[direct])
    if threads <= 1 or len(ks) <= 1:
        solved = [solve(k) for k in ks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            solved = list(pool.map(solve, ks))
    fibers = dict(zip(direct.tolist(), solved))
    for i, p in enumerate(partners):
        if p >= 0:
            fibers[i] = time_reversed_fiber(basis, *fibers[p])
    evals = np.array([fibers[i][0] for i in range(len(k_points))])
    evecs = [fibers[i][1] for i in range(len(k_points))]
    return BandStructure(k_points=k_points, eigenvalues=evals, eigenvectors=evecs)


class GaplessCrystalError(RuntimeError):
    """The crystal is not dielectric, so it has no response coefficients."""


@dataclass
class GapReport:
    eta: float
    eta0: float
    edge_below: float
    edge_above: float
    in_gap: bool


def spectral_gap(bands: BandStructure, mu: float) -> GapReport:
    """Distances from mu to the sampled spectrum and to the k = 0 fiber.

    mu lies in a gap when no band interval [min_k e_nk, max_k e_nk]
    contains it (being below the whole spectrum counts as gapped).
    """
    evals = bands.eigenvalues
    eta = float(np.min(np.abs(evals - mu)))
    e0 = bands.eigenvalues[bands.gamma_index()]
    eta0 = float(np.min(np.abs(e0 - mu)))
    below = evals[evals <= mu]
    above = evals[evals > mu]
    edge_below = float(below.max()) if below.size else -np.inf
    edge_above = float(above.min()) if above.size else np.inf
    lo, hi = bands.band_ranges()
    inside_band = bool(np.any((lo <= mu) & (mu <= hi)))
    return GapReport(
        eta=eta,
        eta0=eta0,
        edge_below=edge_below,
        edge_above=edge_above,
        in_gap=(not inside_band) and eta > 0.0,
    )


def density_from_potential(
    phi: PeriodicField, occ: OccupationModel, bands: BandStructure, tail_tol: float = 1e-12
):
    """Finite-temperature electron density of h^phi from `bands`, its fibers on a k-grid.

    rho(x) = (1/(N_k |Omega|)) sum_{k,n} f_T(e_nk - mu) |u_nk(x)|^2, so
    int_Omega rho equals the k-averaged sum of occupations. The sum runs
    over the bands with e_nk <= `occ.window(n_pw, eps^2)`; the dropped
    density is at most eps^2 / |Omega| pointwise. A tail weight
    f_T(e_max - mu) of the top band above tail_tol flags the cutoff as
    too low.

    When phi is `inversion_symmetric` so is the density, and only the real
    part of its coefficients is kept: the imaginary part is FFT round-off
    of an exact 0, and an SCF or designer crystal built on this density
    stays on real fibers.
    """
    basis = phi.basis
    vol = basis.lattice.volume
    e_w = occ.window(basis.n_pw, np.finfo(float).eps ** 2)
    acc = np.zeros(basis.fft_shape, dtype=float)
    tail = 0.0
    for e, U in zip(bands.eigenvalues, bands.eigenvectors):
        occs = occ.occ(e)
        tail = max(tail, float(occs[-1]))
        r = int(np.searchsorted(e, e_w, side="right"))
        acc += basis.band_density(U[:, :r], occs[:r])[0]
    acc /= bands.nk * vol
    rho = PeriodicField.from_grid(basis, acc)
    if phi.inversion_symmetric:
        rho = PeriodicField(basis, rho.coeffs.real)
    # pointwise positivity holds exactly for the summed grid values; the
    # ball-truncated field can ring slightly negative at coarse cutoffs
    rho.grid_min = float(acc.min())
    if tail > tail_tol:
        warnings.warn(
            f"occupation tail {tail:.3e} at the top band exceeds {tail_tol:.1e}; "
            "energy cutoff may be too low"
        )
    return rho


def shift_overlap_tensor(basis: PlaneWaveBasis, U_row, U_col, offset=None):
    """A[p, n, m] = sum_G conj(U_row[G + G_p + offset, n]) U_col[G, m].

    This is (U_row^dagger S_{p+offset} U_col) for the translation-in-
    Fourier operator S, the building block of the pair-block
    contractions: the density coefficients of U_row C U_col^dagger are
    den_hat(G_p) = (1/|Omega|) sum_{nm} conj(A[p,n,m]) C[n,m], which
    `den_from_matrix` forms without the tensor.
    The integer `offset` shifts every slot (umklapp bookkeeping for
    zone-wrapped fiber pairs); slots whose shifted index leaves the
    cutoff ball gather only the ball-interior overlaps that remain.

    The conjugated rows are gathered once, column by column, into one
    (n_pw, nb, n_pw) array in (p, n, G) order, so the whole tensor is one
    (n_pw nb, n_pw) @ (n_pw, n_col) product. At most two arrays of
    n_pw^2 nb entries are alive, the gather and the product, of the
    result type of U_row and U_col: real for the fibers of an
    inversion-symmetric crystal, whose gathers are then half the bytes.
    """
    if offset is None or not np.any(np.asarray(offset) != 0):
        tab = _shift_table(basis)
    else:
        offset = tuple(int(x) for x in np.atleast_1d(offset))
        cache = getattr(basis, "_shift_tab_offsets", None)
        if cache is None:
            cache = basis._shift_tab_offsets = {}
        tab = cache.get(offset)
        if tab is None:
            rows = basis.g_ints + np.asarray(offset, dtype=int)[None, :]
            tab = cache[offset] = basis.index_table(rows, basis.g_ints)
    n_pw, nb = U_row.shape
    dtype = np.result_type(U_row, U_col)
    # pad[n, n_pw] = 0 is the slot of a shifted index outside the ball
    pad = np.zeros((nb, n_pw + 1), dtype=dtype)
    pad[:, :n_pw] = U_row.T.conj()
    rows = np.empty((n_pw, nb, n_pw), dtype=dtype)
    for n in range(nb):
        np.take(pad[n], tab, out=rows[:, n, :], mode="clip")
    return (rows.reshape(n_pw * nb, n_pw) @ U_col).reshape(n_pw, nb, -1)


# HHT rule: node count N of the first level, and the cap past which the
# doubling gives up
_N_START = 16
_N_MAX = 2048


def _agm(m, m1):
    """Descending Landen sequences a_n, c_n of A&S 16.4 for parameter m.

    a_0 = 1, b_0 = sqrt(m1), c_0 = sqrt(m); the complement m1 = 1 - m is
    passed on its own so that it stays exact near m = 1.
    """
    a, b, c = [1.0], np.sqrt(m1), [np.sqrt(m)]
    while len(a) == 1 or (c[-1] > 1e-16 * a[-1] and len(a) < 20):
        ap = a[-1]
        a.append(0.5 * (ap + b))
        c.append(0.5 * (ap - b))
        b = np.sqrt(ap * b)
    return a, c


def _ellipk(m, m1):
    """Complete elliptic integral K(m) = pi / (2 AGM(1, sqrt(1 - m)))."""
    return np.pi / (2.0 * _agm(m, m1)[0][-1])


def _landen(u, a, c):
    """Amplitudes phi_0 and phi_1 of real u by descending Landen (A&S 16.4.3)."""
    phi = 2.0 ** (len(a) - 1) * a[-1] * u
    for n in range(len(a) - 1, 0, -1):
        phi1 = phi
        phi = 0.5 * (phi + np.arcsin(c[n] / a[n] * np.sin(phi)))
    return phi, phi1


def _jacobi_real(u, m, m1):
    """sn, cn, dn(u | m) for real u in [-K, K]."""
    a, c = _agm(m, m1)
    K = np.pi / (2.0 * a[-1])
    phi, phi1 = _landen(u, a, c)
    # dn = cos phi_0 / cos(phi_1 - phi_0) is 0/0 at u = +-K; there
    # dn(u) = k' / dn(|u| - K) (A&S 16.8) is evaluated near 0 instead
    near, near1 = _landen(np.abs(u) - K, a, c)
    dn = np.where(
        np.abs(u) <= 0.5 * K,
        np.cos(phi) / np.cos(phi1 - phi),
        np.sqrt(m1) * np.cos(near1 - near) / np.cos(near),
    )
    return np.sin(phi), np.cos(phi), dn


def _jacobi(t, m, m1):
    """sn, cn, dn(t | m) for complex t, from real arguments by Jacobi's
    imaginary transformation (A&S 16.21)."""
    s, c, d = _jacobi_real(t.real, m, m1)
    s1, c1, d1 = _jacobi_real(t.imag, m1, m)
    den = c1**2 + m * (s * s1) ** 2
    sn = (s * d1 + 1j * c * d * s1 * c1) / den
    cn = (c * c1 - 1j * s * d * s1 * d1) / den
    dn = (d * c1 * d1 - 1j * m * s * c * s1) / den
    return sn, cn, dn


def _hht_nodes(x, N, j):
    """Nodes xi and weights c of sum_l c_l F(xi_l) ~ (2 pi i)^{-1} oint F(xi) dxi,
    at the grid indices j (an integer array in 0..N) of the level-N rule.

    The contour encloses the real points x (none zero) and no point of the
    imaginary axis. Under w = xi^2 the imaginary axis goes to w <= 0 and
    the points to [m, M], m = min x^2; the w-contour is the trapezoid rule
    on the conformal map of Hale, Higham and Trefethen, SIAM J. Numer.
    Anal. 46, 2505 (2008), at t_j = -K + j 2K/N + iK'/2, j = 0..N. The
    endpoints j = 0 and j = N are where the contour crosses the real axis,
    at a w in (0, m) and a w > M, vertically; each is taken once, with
    weight -dw / (2 pi i). Every other w is mirrored to its conjugate. The
    levels nest: every node of level N is the node 2j of level 2N, with
    half its weight (Trefethen and Weideman, SIAM Rev. 56, 385 (2014)).
    Each w gives the two nodes +-sqrt(w) with dxi = +-dw / (2 sqrt(w)).
    """
    x2 = x * x
    m = float(x2.min())
    M = max(float(x2.max()), 4.0 * m)
    r = np.sqrt(M / m)
    k = (r - 1.0) / (r + 1.0)
    k2, k2c = k * k, 4.0 * r / (r + 1.0) ** 2  # k^2 and 1 - k^2
    K, Kp = _ellipk(k2, k2c), _ellipk(k2c, k2)
    h = 2.0 * K / N
    t = -K + j * h + 0.5j * Kp
    u, cn, dn = _jacobi(t, k2, k2c)
    scale = np.sqrt(m * M)
    w = scale * (1.0 / k + u) / (1.0 / k - u)
    dw = scale * (2.0 / k) * cn * dn / (1.0 / k - u) ** 2 * h
    # the crossings are real and dw is imaginary there (exactly, by the
    # mirror symmetry of the contour): drop the rounding of either
    inner = (j > 0) & (j < N)
    w[~inner] = w[~inner].real
    dw[~inner] = 1j * dw[~inner].imag
    # the image of t runs clockwise above [m, M]; its mirror closes it
    w = np.concatenate([w, w[inner].conj()])
    c = np.concatenate([-dw, dw[inner].conj()]) / (2j * np.pi)
    root = np.sqrt(w)
    half = c / (2.0 * root)
    return np.concatenate([root, -root]), np.concatenate([half, -half])


def _fermi_complex(xi, T):
    """f_FD(xi / T) for complex xi, overflow-safe in the real part."""
    sign = np.where(xi.real >= 0.0, 1.0, -1.0)
    e = np.exp(-sign * xi / T)
    return np.where(sign > 0, e / (1.0 + e), 1.0 / (1.0 + e))


def contour_quadrature(integrand, occ: OccupationModel, spectrum, tol: float = 1e-10):
    """(2 pi i)^{-1} oint_Gamma f_T(z - mu) integrand(z) dz around the spectrum.

    `spectrum` must hold every eigenvalue of every resolvent in the
    integrand: Gamma encloses exactly these points and no Matsubara pole
    mu + i pi T (2n + 1). It is the Hale-Higham-Trefethen contour in
    w = (z - mu)^2 (`_hht_nodes`), whose trapezoid rule converges
    geometrically at a rate set by log(max/min of (e - mu)^2), whatever
    T. The node count N doubles from 16 until two levels agree to
    tol * max(1, |Q|). The levels nest, Q_2N = Q_N / 2 + (the sum over the
    N new t of level 2N), so the integrand is called once per distinct
    node of nonzero weight over all levels, with one complex z, and
    returns an array. Returns (value, error_estimate), the estimate being
    max |Q_2N - Q_N|. Raises ContourGeometryError when mu lies on the
    spectrum and ContourConvergenceError when N reaches its cap above tol.
    """
    T, mu = occ.T, occ.mu
    x = np.asarray(spectrum, dtype=float).ravel() - mu
    if float(np.min(np.abs(x))) <= 0.0:
        raise ContourGeometryError("mu lies on the spectrum; no contour exists")

    def evaluate(N, j):
        xi, c = _hht_nodes(x, N, j)
        weights = c * _fermi_complex(xi, T)
        # nodes far right of mu, where f_T underflows to 0, add nothing
        live = weights != 0.0
        acc = 0.0
        for z, wt in zip(mu + xi[live], weights[live]):
            acc = acc + wt * np.asarray(integrand(z))
        return acc

    N = _N_START
    prev = evaluate(N, np.arange(N + 1))
    while N < _N_MAX:
        N *= 2
        cur = 0.5 * prev + evaluate(N, np.arange(1, N, 2))
        err = float(np.max(np.abs(cur - prev)))
        if err <= tol * max(1.0, float(np.max(np.abs(cur)))):
            return cur, err
        prev = cur
    raise ContourConvergenceError(
        f"contour quadrature not converged at N = {N}: estimate {err:.3e} above tol {tol:.1e}"
    )
