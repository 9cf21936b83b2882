"""Fiber Hamiltonians h_k = (-i grad + k)^2 - phi, their spectra and densities.

The fiber at Bloch momentum k acts on lattice-periodic functions; in the
plane-wave basis its matrix is

    H_k[G, G'] = |G + k|^2 delta_{GG'} - phihat(G - G'),

Hermitian for real phi. Densities, spectral gaps and the Cauchy-contour
functional calculus used as the cross-check route all live here.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .lattice import PeriodicField, PlaneWaveBasis
from .occupation import OccupationModel

__all__ = [
    "FiberHamiltonian",
    "BandStructure",
    "GapReport",
    "assemble_fiber",
    "diagonalize_fiber",
    "compute_bands",
    "density_from_potential",
    "spectral_gap",
    "contour_quadrature",
    "shift_overlap_tensor",
    "den_from_matrix",
]


class ContourGeometryError(RuntimeError):
    pass


class EigensolverError(RuntimeError):
    pass


def default_threads():
    env = os.environ.get("DEBYE_FORGE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _kmap(fn, items, threads=None):
    """Map over k-points, optionally threaded; output order is fixed."""
    threads = threads or default_threads()
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _reduce_k_point(basis: PlaneWaveBasis, k):
    """Map k into the reciprocal cell (fractional coords in [-1/2, 1/2))."""
    wstar = basis.lattice.reciprocal
    frac = np.atleast_1d(np.asarray(k, dtype=float)) @ basis.lattice.reciprocal_inverse
    wrapped = frac - np.round(frac)
    # np.round sends 0.5 to 0, leaving +1/2; fold it to -1/2
    wrapped = np.where(wrapped >= 0.5 - 1e-12, wrapped - 1.0, wrapped)
    if np.max(np.abs(wrapped - frac)) > 1e-12:
        warnings.warn("k outside the reciprocal cell; reduced modulo the lattice")
    return wrapped @ wstar


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


def den_from_matrix(basis: PlaneWaveBasis, B):
    """Fourier coefficients of den[B]: d(Q) = |Omega|^{-1} sum_G B[G+Q, G]."""
    tab = _shift_table(basis)
    pad = np.vstack([B, np.zeros((1, B.shape[1]), dtype=B.dtype)])
    picked = pad[tab, np.arange(basis.n_pw)[None, :]]
    return picked.sum(axis=1) / basis.lattice.volume


def potential_matrix(phi: PeriodicField):
    """Multiplication operator by phi projected on the basis: phihat(G - G')."""
    basis = phi.basis
    tab = _difference_table(basis)
    padded = np.concatenate([phi.coeffs, [0.0]])
    return padded[tab]


@dataclass
class FiberHamiltonian:
    """Dense fiber matrix at one Bloch momentum."""

    basis: PlaneWaveBasis
    k: np.ndarray
    phi: PeriodicField
    matrix: np.ndarray = field(repr=False)

    def hermiticity_defect(self):
        return float(np.abs(self.matrix - self.matrix.conj().T).max())


def assemble_fiber(
    basis: PlaneWaveBasis, phi: PeriodicField, k, reduce: bool = True
) -> FiberHamiltonian:
    """Build H_k = diag(|G+k|^2) - phihat(G-G') for a real potential phi.

    k outside the reciprocal cell is reduced modulo the reciprocal
    lattice (with a warning); the spectrum is unchanged by the
    reduction. Pass reduce=False to keep the absolute momentum labels
    (pair blocks of the averaged response must not relabel G across the
    zone boundary).
    """
    if not phi.realness:
        raise ValueError("fiber assembly requires a real potential")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if reduce:
        k = _reduce_k_point(basis, k)
    H = -potential_matrix(phi)
    H[np.diag_indices_from(H)] += basis.kinetic_diagonal(k)
    return FiberHamiltonian(basis=basis, k=k, phi=phi, matrix=H)


def diagonalize_fiber(fiber: FiberHamiltonian):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a fiber."""
    H = fiber.matrix
    defect = fiber.hermiticity_defect()
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


@dataclass
class BandStructure:
    """Spectra of the fibers over a k-grid (k = 0 always included)."""

    basis: PlaneWaveBasis
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


def compute_bands(basis, phi, k_points, threads=None) -> BandStructure:
    k_points = np.atleast_2d(np.asarray(k_points, dtype=float))

    def solve(k):
        return diagonalize_fiber(assemble_fiber(basis, phi, k))

    results = _kmap(solve, list(k_points), threads)
    evals = np.array([r[0] for r in results])
    evecs = [r[1] for r in results]
    return BandStructure(basis=basis, k_points=k_points, eigenvalues=evals, eigenvectors=evecs)


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
    phi: PeriodicField,
    occ: OccupationModel,
    k_points,
    threads=None,
    bands: BandStructure | None = None,
    tail_tol: float = 1e-12,
):
    """Finite-temperature electron density of h^phi on a k-grid.

    rho(x) = (1/(N_k |Omega|)) sum_{k,n} f_T(e_nk - mu) |u_nk(x)|^2, so
    int_Omega rho equals the k-averaged sum of occupations. A tail
    weight f_T(e_max - mu) above tail_tol flags the cutoff as too low.
    """
    basis = phi.basis
    if bands is None:
        bands = compute_bands(basis, phi, k_points, threads)
    vol = basis.lattice.volume
    acc = np.zeros(basis.fft_shape, dtype=float)
    tail = 0.0
    for i in range(bands.nk):
        occs = occ.occ(bands.eigenvalues[i])
        tail = max(tail, float(occs[-1]))
        grids = basis.columns_to_grids(bands.eigenvectors[i])
        acc += np.einsum("n,n...->...", occs, np.abs(grids) ** 2).real
    acc /= bands.nk * vol
    rho = PeriodicField.from_grid(basis, acc)
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
    pad = np.vstack([U_row, np.zeros((1, U_row.shape[1]), dtype=U_row.dtype)])
    rows = pad[tab]  # (n_pw, n_pw, nb): rows[p, g] = U_row[G_g + G_p (+ off)]
    return np.matmul(rows.conj().transpose(0, 2, 1), U_col)


def _contour_nodes(segments, n_per):
    """Composite trapezoid nodes and weights, per polygon segment."""
    zs, ws = [], []
    for (za, zb), n in zip(segments, n_per):
        t = np.arange(n + 1) / n
        w = np.full(n + 1, (zb - za) / n)
        w[0] *= 0.5
        w[-1] *= 0.5
        zs.append(za + (zb - za) * t)
        ws.append(w)
    return np.concatenate(zs), np.concatenate(ws)


def _fermi_complex(z, T):
    """f_FD(z / T) for complex z, overflow-safe in the real part."""
    w = z / T
    if w.real >= 0.0:
        e = np.exp(-w)
        return e / (1.0 + e)
    return 1.0 / (1.0 + np.exp(w))


def contour_quadrature(
    integrand,
    occ: OccupationModel,
    spectrum,
    tol: float = 1e-10,
    n_start: int = 256,
    max_nodes: int = 600_000,
):
    """(2 pi i)^{-1} oint_Gamma f_T(z - mu) integrand(z) dz on the spectral contour.

    Gamma is the positively oriented rectangle enclosing the spectrum
    with half-height eps_c = min(pi T / 2, eta / 2) (strictly below the
    first Matsubara pole at pi T), left end at min(spectrum) - 5, and the
    right arm truncated where |f_T(z - mu)| < 1e-16, nudged away from
    eigenvalues. Composite midpoint/trapezoid evaluation with node
    doubling; returns (value, error_estimate) with the estimate taken
    from the last doubling step.
    """
    spectrum = np.sort(np.asarray(spectrum, dtype=float).ravel())
    T, mu = occ.T, occ.mu
    eta = float(np.min(np.abs(spectrum - mu)))
    if eta <= 0:
        raise ContourGeometryError("mu lies on the spectrum; no contour exists")
    h = min(np.pi * T / 2.0, eta / 2.0)

    x_left = spectrum[0] - 5.0
    x_right = mu + T * np.log(1e16)
    if x_right < spectrum[-1]:
        # place the right edge in the widest nearby eigenvalue-free window
        lo, hi = x_right - T, x_right + 4.0 * T
        pts = spectrum[(spectrum > lo) & (spectrum < hi)]
        cuts = np.concatenate([[lo], pts, [hi]])
        widths = np.diff(cuts)
        j = int(np.argmax(widths))
        x_right = 0.5 * (cuts[j] + cuts[j + 1])
    else:
        x_right = spectrum[-1] + 5.0

    segments = [
        (complex(x_left, -h), complex(x_right, -h)),
        (complex(x_right, -h), complex(x_right, h)),
        (complex(x_right, h), complex(x_left, h)),
        (complex(x_left, h), complex(x_left, -h)),
    ]
    lengths = np.array([abs(b - a) for a, b in segments])

    def evaluate(n_total):
        n_per = np.maximum(8, (n_total * lengths / lengths.sum()).astype(int))
        zs, ws = _contour_nodes(segments, n_per)
        spacing = float(np.max(lengths / n_per))
        pole_dist = np.pi * T - h
        if pole_dist < 0.5 * spacing:
            raise ContourGeometryError(
                f"Matsubara poles at distance {pole_dist:.3e} are closer than "
                f"half the node spacing {spacing:.3e}"
            )
        acc = None
        for z, w in zip(zs, ws):
            fz = _fermi_complex(z - mu, T)
            term = (w * fz) * np.asarray(integrand(z))
            acc = term if acc is None else acc + term
        return acc / (2j * np.pi)

    n = n_start
    prev = evaluate(n)
    while True:
        n *= 2
        cur = evaluate(n)
        err = float(np.max(np.abs(cur - prev)))
        scale = max(1.0, float(np.max(np.abs(cur))))
        if err <= tol * scale or 2 * n > max_nodes:
            return cur, err
        prev = cur
