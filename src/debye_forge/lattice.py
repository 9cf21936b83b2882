"""Bravais lattices, plane-wave bases, periodic and supercell fields.

Conventions used throughout the package:

* Fourier coefficients are cell averages,
      c(G) = |Omega|^{-1} int_Omega exp(-i G.x) f(x) dx,
  so a field is f(x) = sum_G c(G) exp(i G.x) and Parseval reads
  int_Omega |f|^2 = |Omega| sum_G |c(G)|^2.
* The supercell Fourier transform is fhat(k) = int exp(-i k.x) f(x) dx
  (plain integral, no 2 pi normalization), under which the Bloch fiber
  identity int_Omega f_k = fhat(k) holds exactly on the discrete grid.
* Bloch fibers follow f_k(x) = sum_t exp(-i k.(x+t)) f(x+t); fibers are
  lattice-periodic fields on the micro cell's FFT grid (a SupercellField
  with factors 1), and the inverse transform is the average over the
  k-grid of exp(i k x) f_k(x).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Lattice",
    "PlaneWaveBasis",
    "PeriodicField",
    "SupercellField",
    "reciprocal_lattice",
    "centred_k_grid",
    "monkhorst_pack",
    "bloch_decompose",
    "bloch_reconstruct",
    "low_momentum_project",
]


class LatticeError(ValueError):
    pass


def reciprocal_lattice(basis):
    """Reciprocal basis vectors satisfying w_i . wstar_j = 2 pi delta_ij.

    Args:
        basis: (d, d) array, lattice vectors as rows.

    Returns:
        (d, d) array, reciprocal vectors as rows (2 pi inverse-transpose).
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    d = basis.shape[0]
    if basis.shape != (d, d):
        raise LatticeError(f"basis must be square, got shape {basis.shape}")
    det = np.linalg.det(basis)
    if abs(det) < 1e-14 * max(1.0, np.abs(basis).max() ** d):
        raise LatticeError("degenerate lattice: basis vectors are linearly dependent")
    return 2.0 * np.pi * np.linalg.inv(basis).T


@dataclass(frozen=True)
class Lattice:
    """Bravais lattice with its reciprocal basis and cell volume."""

    basis: np.ndarray  # (d, d), rows are lattice vectors

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise LatticeError("lattice basis must be a d x d matrix")
        if basis.shape[0] not in (1, 2, 3):
            raise LatticeError("dimension must be 1, 2 or 3")
        object.__setattr__(self, "basis", _read_only(basis.copy()))

    @property
    def d(self) -> int:
        return self.basis.shape[0]

    # computed on first use and kept: the basis is immutable, and the
    # arrays are read-only so that no caller can change the cached copy
    @cached_property
    def reciprocal(self) -> np.ndarray:
        return _read_only(reciprocal_lattice(self.basis))

    @cached_property
    def reciprocal_inverse(self) -> np.ndarray:
        """inv(reciprocal): cartesian momentum @ it = fractional coordinates."""
        return _read_only(np.linalg.inv(self.reciprocal))

    @cached_property
    def volume(self) -> float:
        return float(abs(np.linalg.det(self.basis)))

    def supercell(self, factors) -> "Lattice":
        """Integer enlargement: row i scaled by factors[i] (>= 1)."""
        factors = supercell_factors(factors, self.d)
        return Lattice(self.basis * factors[:, None])


def _read_only(a):
    a.setflags(write=False)
    return a


def supercell_factors(factors, d):
    """Per-axis supercell factors as a (d,) int array; a scalar applies to
    every axis."""
    factors = np.atleast_1d(np.asarray(factors, dtype=int))
    if factors.size == 1:
        factors = np.full(d, int(factors.ravel()[0]))
    if factors.shape != (d,) or np.any(factors < 1):
        raise LatticeError("supercell factors must be positive integers per axis")
    return factors


def delta_factor(delta):
    """The integer N of a scale ratio delta = 1/N: the supercell factor per
    axis. A delta whose 1/delta is more than 1e-12 from an integer is not
    commensurate with the lattice and raises ValueError."""
    n = 1.0 / delta
    if abs(n - round(n)) > 1e-12:
        raise ValueError(f"delta = {delta} is not 1/N for integer N")
    return int(round(n))


def lattice_index_table(rows, cols, value, sign=1):
    """table[i, j] = value(rows[i] + sign * cols[j]) for integer vectors.

    `value` maps an (m, d) integer array to m integers. It is evaluated
    once on the bounding box of the sums, which the table then gathers
    from by mixed-radix code, row by row: the table is the only
    (len(rows), len(cols)) array built.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = sign * np.asarray(cols, dtype=np.int64)
    lo = rows.min(axis=0) + cols.min(axis=0)
    shape = tuple(int(x) for x in rows.max(axis=0) + cols.max(axis=0) - lo + 1)
    strides = np.array([math.prod(shape[ax + 1:]) for ax in range(len(shape))], dtype=np.int64)
    box = lo + np.stack(np.unravel_index(np.arange(math.prod(shape)), shape), axis=-1)
    lookup = np.asarray(value(box), dtype=np.int64)
    col_codes = cols @ strides
    table = np.empty((len(rows), len(cols)), dtype=np.int64)
    for i, code in enumerate((rows - lo) @ strides):
        table[i] = lookup[code + col_codes]
    return table


def _fast_grid_size(n):
    """Smallest 5-smooth integer >= n (FFT-friendly)."""
    m = int(n)
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


class GridTransforms:
    """FFT transforms of a plane-wave set, held as its `fft_shape` and the
    flat grid position `_fft_pos` of each plane wave (coefficients are
    cell averages)."""

    def _place_on_grid(self, ints, fft_shape):
        self.fft_shape = tuple(int(s) for s in fft_shape)
        idx = [np.mod(ints[:, ax], self.fft_shape[ax]) for ax in range(ints.shape[1])]
        self._fft_pos = np.ravel_multi_index(idx, self.fft_shape)

    def coeffs_array(self, coeffs):
        """The coefficients on the full FFT array, zero on the other modes."""
        arr = np.zeros(self.fft_shape, dtype=complex)
        arr.flat[self._fft_pos] = coeffs
        return arr

    def coeffs_to_grid(self, coeffs):
        return np.fft.ifftn(self.coeffs_array(coeffs)) * np.prod(self.fft_shape)

    def grid_to_coeffs(self, values):
        arr = np.fft.fftn(np.asarray(values, dtype=complex)) / np.prod(self.fft_shape)
        return arr.flat[self._fft_pos].copy()

    def columns_to_grids(self, U):
        """Inverse-FFT every column of U to the real grid; shape (ncols,) + fft."""
        ncols = U.shape[1]
        arr = np.zeros((ncols,) + self.fft_shape, dtype=complex)
        flat = arr.reshape(ncols, -1)
        flat[:, self._fft_pos] = U.T
        axes = tuple(range(1, len(self.fft_shape) + 1))
        return np.fft.ifftn(arr, axes=axes) * np.prod(self.fft_shape)

    def band_density(self, U, w):
        """(sum_n w_n |psi_n(x)|^2, max_x |psi_n(x)|^2 per n) for the columns
        psi_n of U, which callers restrict to their occupied window."""
        dens2 = np.abs(self.columns_to_grids(U)) ** 2
        return np.einsum("n,n...->...", w, dens2), dens2.reshape(len(w), -1).max(axis=1)


class PlaneWaveBasis(GridTransforms):
    """Energy-cutoff plane-wave set on a lattice, with its FFT grid.

    G-vectors are all reciprocal-lattice points with |G|^2 <= 2 E_cut
    (boundary shell included, which keeps the set closed under G -> -G),
    ordered by |G|^2 then by integer coordinates; G = 0 is index 0.
    The FFT grid is chosen alias-free for quadratic products
    (size >= 4 n_max + 1 per axis, above the 2 n_max + 1 minimum needed
    to represent the basis itself).
    """

    def __init__(self, lattice: Lattice, ecut: float, fft_shape=None):
        if ecut <= 0:
            raise ValueError("energy cutoff must be positive")
        self.lattice = lattice
        self.ecut = float(ecut)
        wstar = lattice.reciprocal
        d = lattice.d

        gmax2 = 2.0 * self.ecut
        # bounding box: |n_i| <= sqrt(2 ecut) / (shortest height of wstar)
        inv_norms = np.linalg.norm(lattice.reciprocal_inverse, axis=0)
        nmax = np.maximum(1, np.ceil(np.sqrt(gmax2) * inv_norms).astype(int))
        ints, norms2 = [], []
        for n in itertools.product(*(range(-m, m + 1) for m in nmax)):
            g = np.asarray(n, dtype=float) @ wstar
            g2 = float(g @ g)
            if g2 <= gmax2 * (1.0 + 1e-12):
                ints.append(n)
                norms2.append(g2)
        order = sorted(range(len(ints)), key=lambda i: (norms2[i], ints[i]))
        self.g_ints = np.array([ints[i] for i in order], dtype=int)
        self.g_cart = self.g_ints.astype(float) @ wstar
        self.g_norm2 = np.einsum("ij,ij->i", self.g_cart, self.g_cart)

        per_axis_max = np.abs(self.g_ints).max(axis=0)
        if fft_shape is None:
            fft_shape = tuple(_fast_grid_size(4 * m + 1) for m in per_axis_max)
        if any(int(s) < 2 * m + 1 for s, m in zip(fft_shape, per_axis_max)):
            raise ValueError("fft grid too small to hold the G-set without aliasing")
        self._place_on_grid(self.g_ints, fft_shape)

        self.n_pw = len(self.g_ints)
        # dense lookup over the box |n_i| <= max |G_i| holding the set
        self._box_half = np.abs(self.g_ints).max(axis=0)
        self._box = np.full(int(np.prod(2 * self._box_half + 1)), -1, dtype=np.int64)
        self._box[self._box_codes(self.g_ints)] = np.arange(self.n_pw)
        self._neg_index = self.indices_of(-self.g_ints)

    def _box_codes(self, g):
        return np.ravel_multi_index(tuple((g + self._box_half).T), tuple(2 * self._box_half + 1))

    @property
    def d(self) -> int:
        return self.lattice.d

    def indices_of(self, g_ints):
        """Basis index of each integer G-vector (rows), -1 outside the set."""
        g = np.asarray(g_ints, dtype=np.int64).reshape(-1, self.d)
        inside = np.all(np.abs(g) <= self._box_half, axis=1)
        out = np.full(len(g), -1, dtype=np.int64)
        out[inside] = self._box[self._box_codes(g[inside])]
        return out

    def index_of(self, g_int):
        """Index of an integer G-vector, or -1 if outside the cutoff set
        (or not a d-vector)."""
        g = np.atleast_1d(g_int)
        if g.shape != (self.d,):
            return -1
        return int(self.indices_of(g)[0])

    def index_table(self, rows, cols, sign=1):
        """table[i, j] = basis index of rows[i] + sign * cols[j] (integer
        vectors), or n_pw when outside the set."""
        n = self.n_pw

        def index(pts):
            idx = self.indices_of(pts)
            return np.where(idx >= 0, idx, n)

        return lattice_index_table(rows, cols, index, sign)

    @property
    def negation_index(self):
        """Permutation mapping each G to -G (a cutoff ball is closed under
        negation)."""
        return self._neg_index

    def kinetic_diagonal(self, k=None):
        """|G + k|^2 for all G (k cartesian, defaults to 0)."""
        if k is None:
            return self.g_norm2.copy()
        k = np.atleast_1d(np.asarray(k, dtype=float))
        gk = self.g_cart + k[None, :]
        return np.einsum("ij,ij->i", gk, gk)

    def grid_points(self):
        """Real-space grid points, shape fft_shape + (d,)."""
        fracs = np.meshgrid(
            *(np.arange(s) / s for s in self.fft_shape), indexing="ij"
        )
        frac = np.stack(fracs, axis=-1)
        return frac @ self.lattice.basis


class PeriodicField:
    """Real lattice-periodic function stored as plane-wave coefficients,
    conj(c[-G]) = c[G]. Complex grid values are refused where they enter
    (`from_grid`); `inversion_symmetric` is the one exact predicate on the
    coefficients."""

    def __init__(self, basis: PlaneWaveBasis, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (basis.n_pw,):
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match basis ({basis.n_pw},)"
            )
        self.basis = basis
        self.coeffs = coeffs

    @classmethod
    def from_grid(cls, basis: PlaneWaveBasis, values):
        values = np.asarray(values)
        if np.iscomplexobj(values):
            raise ValueError(f"complex grid values ({values.dtype}): a field must be real")
        return cls(basis, basis.grid_to_coeffs(values))

    @classmethod
    def from_callable(cls, basis: PlaneWaveBasis, func):
        pts = basis.grid_points()
        vals = np.asarray(func(pts[..., 0]) if basis.d == 1 else func(pts))
        return cls.from_grid(basis, vals)

    @classmethod
    def zeros(cls, basis: PlaneWaveBasis):
        return cls(basis, np.zeros(basis.n_pw, dtype=complex))

    def values(self):
        """Real-space samples on the FFT grid."""
        return self.basis.coeffs_to_grid(self.coeffs).real

    @property
    def inversion_symmetric(self):
        """Every coefficient is exactly real, so f(-x) = f(x). No tolerance."""
        return not np.any(self.coeffs.imag)

    @property
    def mean(self):
        return self.coeffs[0].real

    def l2_norm(self):
        """L^2_per norm, sqrt(int_Omega |f|^2)."""
        return float(
            np.sqrt(self.basis.lattice.volume * np.sum(np.abs(self.coeffs) ** 2))
        )

    def sobolev_norm(self, order=2):
        """H^s_per norm with multiplier (1 + |G|^2)^s."""
        w = (1.0 + self.basis.g_norm2) ** order
        return float(
            np.sqrt(self.basis.lattice.volume * np.sum(w * np.abs(self.coeffs) ** 2))
        )

    def integral(self):
        """int_Omega f."""
        return self.mean * self.basis.lattice.volume

    def __add__(self, other):
        self._check(other)
        return PeriodicField(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return PeriodicField(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return PeriodicField(self.basis, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _check(self, other):
        if not isinstance(other, PeriodicField) or other.basis is not self.basis:
            if not isinstance(other, PeriodicField) or (
                other.basis.n_pw != self.basis.n_pw
                or not np.array_equal(other.basis.g_ints, self.basis.g_ints)
            ):
                raise ValueError("fields live on different plane-wave bases")


class SupercellField:
    """Function on an N-fold supercell stored on its FFT grid.

    The supercell lattice is an integer multiple of the micro lattice;
    plane-wave indices on the supercell are m with wavevectors
    Q = m @ (Wstar / N) so every Q splits uniquely as G + k with G a
    micro reciprocal vector and k on the N^d fractional k-grid.
    """

    def __init__(self, micro: Lattice, factors, values):
        factors = supercell_factors(factors, micro.d)
        self.micro = micro
        self.factors = factors
        self.supercell = micro.supercell(factors)
        values = np.asarray(values)
        self.values = values.astype(complex) if np.iscomplexobj(values) else values.astype(float)
        self.shape = self.values.shape
        if len(self.shape) != micro.d:
            raise ValueError("value grid dimensionality does not match the lattice")
        for s, n in zip(self.shape, factors):
            if s % n != 0:
                raise ValueError("grid not commensurate with the supercell factors")

    @classmethod
    def from_periodic(cls, field: PeriodicField, factors):
        """Tile a micro-periodic field over the supercell grid."""
        vals = field.values()
        factors = supercell_factors(factors, field.basis.d)
        tiled = np.tile(vals, tuple(factors))
        return cls(field.basis.lattice, factors, tiled)

    @property
    def d(self):
        return self.micro.d

    @property
    def volume(self):
        return self.supercell.volume

    def copy_with(self, values):
        return SupercellField(self.micro, self.factors, values)

    def coeffs(self):
        """Supercell cell-average Fourier coefficients on the full FFT grid."""
        return np.fft.fftn(np.asarray(self.values, dtype=complex)) / np.prod(self.shape)

    @classmethod
    def from_coeffs(cls, micro, factors, coeffs, real=True):
        vals = np.fft.ifftn(coeffs) * np.prod(coeffs.shape)
        if real:
            vals = vals.real
        return cls(micro, factors, vals)

    def wavevectors(self):
        """Cartesian wavevector Q for every FFT mode, shape + (d,)."""
        wstar_super = self.supercell.reciprocal
        freqs = np.meshgrid(
            *(np.fft.fftfreq(s, 1.0 / s) for s in self.shape), indexing="ij"
        )
        m = np.stack(freqs, axis=-1)
        return m @ wstar_super

    def grid_points(self):
        fracs = np.meshgrid(*(np.arange(s) / s for s in self.shape), indexing="ij")
        frac = np.stack(fracs, axis=-1)
        return frac @ self.supercell.basis

    def fourier(self, k):
        """fhat(k) = int exp(-i k.x) f(x) dx at one supercell wavevector."""
        x = self.grid_points()
        phase = np.exp(-1j * (x @ np.atleast_1d(np.asarray(k, dtype=float))))
        w = self.volume / np.prod(self.shape)
        return w * np.sum(phase * self.values)

    def l2_norm(self):
        w = self.volume / np.prod(self.shape)
        return float(np.sqrt(w * np.sum(np.abs(self.values) ** 2)))

    def h1_seminorm(self):
        q = self.wavevectors()
        q2 = np.einsum("...i,...i->...", q, q)
        c = self.coeffs()
        return float(np.sqrt(self.volume * np.sum(q2 * np.abs(c) ** 2)))

    def mean(self):
        return complex(np.mean(self.values)) if np.iscomplexobj(self.values) else float(np.mean(self.values))

    def __add__(self, other):
        return self.copy_with(self.values + other.values)

    def __sub__(self, other):
        return self.copy_with(self.values - other.values)

    def __mul__(self, s):
        return self.copy_with(self.values * s)

    __rmul__ = __mul__


def centred_k_grid(lattice: Lattice, factors):
    """The centred n-point grid per axis: integer offsets j in
    [-floor(n/2), ceil(n/2)) in FFT order (0, 1, ..., then the negative
    ones) and their cartesian momenta k = (j / n) @ W*.

    Returns (j_ints, k_points), both of shape (prod(n), d); row 0 is k = 0.
    """
    factors = supercell_factors(factors, lattice.d)
    axes = []
    for n in factors:
        j = np.arange(n)
        axes.append(np.where(2 * j >= n, j - n, j))
    mesh = np.meshgrid(*axes, indexing="ij")
    j_ints = np.stack([m.ravel() for m in mesh], axis=-1)
    return j_ints, (j_ints / factors[None, :]) @ lattice.reciprocal


def monkhorst_pack(lattice: Lattice, nk):
    """Uniform fractional k-grid including k = 0, mapped into [-1/2, 1/2).

    Returns cartesian k-points, shape (prod(nk), d). The point k = 0 is
    always present (required for the 0-fiber quantities).
    """
    return centred_k_grid(lattice, nk)[1]


def bloch_decompose(f: SupercellField):
    """Bloch-Floquet fibers of a supercell field.

    Returns (k_points, fibers): the N^d fractional k-points of the
    supercell grid (cartesian) and, per k, the fiber f_k on the micro
    cell's FFT grid, a SupercellField with factors 1. Its coefficient at
    the cell-grid mode g is N^d chat(g N + j), read from the supercell FFT
    at m = g N + j (mod N s) for the centred offset j of k: every supercell
    mode lands in exactly one fiber, so reconstruction is exact to
    round-off.
    """
    factors = f.factors
    chat = f.coeffs()
    per_shape = tuple(s // n for s, n in zip(f.shape, factors))
    nfac = int(np.prod(factors))
    g = np.stack(np.meshgrid(*(np.arange(s) for s in per_shape), indexing="ij"), axis=-1)
    jlist, kkart = centred_k_grid(f.micro, factors)
    cell = np.ones(f.d, dtype=int)
    fibers = []
    for j in jlist:
        m = g * factors + j
        c = nfac * chat[tuple(np.mod(m[..., ax], f.shape[ax]) for ax in range(f.d))]
        fibers.append(SupercellField(f.micro, cell, np.fft.ifftn(c) * np.prod(per_shape)))
    return kkart, fibers


def bloch_reconstruct(k_points, fibers, micro: Lattice, factors, shape):
    """Inverse Bloch transform: average of exp(i k x) f_k over the k-grid,
    each fiber tiled over the supercell."""
    factors = supercell_factors(factors, micro.d)
    out = SupercellField(micro, factors, np.zeros(shape, dtype=complex))
    x = out.grid_points()
    tiles = tuple(factors)
    acc = np.zeros(shape, dtype=complex)
    for k, fib in zip(k_points, fibers):
        vals = np.tile(fib.values, tiles)
        phase = np.exp(1j * (x @ np.atleast_1d(k)))
        acc += phase * vals
    acc /= len(k_points)
    return out.copy_with(acc)


def low_momentum_project(f: SupercellField, r: float):
    """Zero all Fourier modes with |Q| > r.

    Pure spectral filter: idempotent and self-adjoint; its complement
    bar P_r f is f - P_r f.
    """
    q = f.wavevectors()
    q2 = np.einsum("...i,...i->...", q, q)
    mask = q2 <= r * r * (1.0 + 1e-12)
    c = f.coeffs() * mask
    real = not np.iscomplexobj(f.values)
    return SupercellField.from_coeffs(f.micro, f.factors, c, real=real)
