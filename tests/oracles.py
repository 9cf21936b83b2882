"""Dense reference routes that the tests check the library against.

None of these is on a path the library runs: each one builds the full
matrix (or quadrature) that the production code avoids, so that a test
can compare against it at small sizes. `check_manifest` reads a stage
directory back the way a consumer of its manifest would.
"""

import itertools
import json
import os

import numpy as np

from debye_forge.fibers import (BandStructure, assemble_fiber, contour_quadrature, den_from_matrix,
                               diagonalize_fiber, potential_matrix)
from debye_forge.io import sha256_file
from debye_forge.lattice import PeriodicField, lattice_index_table


def hermitian_defect(field):
    """max_G |conj(c[-G]) - c[G]| / max(1, max |c|) over the coefficients c
    of a field: 0 exactly for the coefficients of a real function."""
    c = field.coeffs
    dev = np.abs(np.conj(c[field.basis.negation_index]) - c).max()
    return float(dev) / max(1.0, float(np.abs(c).max()))


def check_manifest(stage_dir):
    """Assert that a stage's manifest.json lists exactly the other files of
    its directory, each with its sha256."""
    with open(os.path.join(stage_dir, "manifest.json")) as fh:
        listed = json.load(fh)["outputs"]
    files = sorted(f for f in os.listdir(stage_dir) if f != "manifest.json")
    assert sorted(listed) == files, (sorted(listed), files)
    for name in files:
        assert listed[name] == sha256_file(os.path.join(stage_dir, name)), name


def diff_pos(sb):
    """(n_pw, n_pw) flat FFT positions of Q_i - Q_j on a supercell basis."""
    return lattice_index_table(sb.q_ints, sb.q_ints, sb._positions, sign=-1)


def supercell_potential_matrix(sb, field):
    """Multiplication-operator matrix vhat(Q - Q') from supercell FFT data."""
    vhat = np.fft.fftn(np.asarray(field.values, dtype=complex)) / np.prod(sb.fft_shape)
    return vhat.flat[diff_pos(sb)]


def supercell_hamiltonian(sol, phi_field):
    """Dense h^phi = |Q|^2 - vhat(Q - Q') on a solver's supercell basis."""
    H = -supercell_potential_matrix(sol.basis, phi_field)
    H[np.diag_indices_from(H)] += sol.basis.q_norm2
    return H


def dense_density(sol, phi):
    """Every eigenpair of the dense supercell Hamiltonian, summed into
    den[f_T(h^phi - mu)] on the supercell grid."""
    evals, evecs = np.linalg.eigh(supercell_hamiltonian(sol, phi))
    grids = sol.basis.columns_to_grids(evecs)
    full = np.einsum("n,n...->...", sol.base.occ.occ(evals), np.abs(grids) ** 2).real
    return full / sol.basis.lattice.volume


def m_fiber_apply_contour(ws, k, w: PeriodicField, tol=1e-10):
    """M_k w by contour quadrature of den[R_0(z) W R_k(z)]: the resolvent
    route to `response.m_fiber`. Returns (coefficients of M_k w, error estimate)."""
    H0 = assemble_fiber(ws.basis, ws.phi, np.zeros(ws.basis.d))
    Hk = assemble_fiber(ws.basis, ws.phi, k)
    eye = np.eye(ws.basis.n_pw)
    W = potential_matrix(w)
    e0, _ = ws.gamma
    ek, _ = ws.fiber(k)
    spectrum = np.concatenate([e0, ek])

    def integrand(z):
        R0 = np.linalg.solve(z * eye - H0, eye)
        Rk = np.linalg.solve(z * eye - Hk, eye)
        return den_from_matrix(ws.basis, R0 @ W @ Rk)

    val, err = contour_quadrature(integrand, ws.occ, spectrum, tol=tol)
    return -val, err


def den_by_definition(basis, B):
    """d(Q) = |Omega|^{-1} sum_G B[G + Q, G], the sum over ball vectors G
    whose G + Q stays in the ball, by dict lookup: the definition of
    `fibers.den_from_matrix` for one matrix."""
    index = {tuple(g): i for i, g in enumerate(basis.g_ints.tolist())}
    d = np.zeros(basis.n_pw, dtype=complex)
    for q, Q in enumerate(basis.g_ints):
        for g, G in enumerate(basis.g_ints):
            j = index.get(tuple((G + Q).tolist()))
            if j is not None:
                d[q] += B[j, g]
    return d / basis.lattice.volume


def shift_overlap_by_definition(basis, U_row, U_col, offset):
    """A[p, n, m] = sum_G conj(U_row[G + G_p + offset, n]) U_col[G, m], the
    sum over ball vectors G whose shifted index stays in the ball, by dict
    lookup: the definition of `fibers.shift_overlap_tensor`."""
    index = {tuple(g): i for i, g in enumerate(basis.g_ints.tolist())}
    A = np.zeros((basis.n_pw, U_row.shape[1], U_col.shape[1]), dtype=complex)
    for p, gp in enumerate(basis.g_ints):
        for g, G in enumerate(basis.g_ints):
            j = index.get(tuple((G + gp + offset).tolist()))
            if j is not None:
                A[p] += np.outer(U_row[j].conj(), U_col[g])
    return A


def all_q_zone_average(ws, k, k_grid):
    """Mean over every q of k_grid of the (q + k, q) pair blocks, each one
    contracted: the sum that `response.m_fiber_averaged` halves by time
    reversal. Rows leave the zone by the same round-half-up fold."""
    from debye_forge.response import _pair_block

    k = np.atleast_1d(np.asarray(k, dtype=float))
    lattice = ws.basis.lattice
    acc = 0.0
    for q in np.atleast_2d(k_grid):
        wrap = np.floor((q + k) @ lattice.reciprocal_inverse + 0.5).astype(int)
        e_r, U_r = ws.fiber(q + k - wrap @ lattice.reciprocal)
        e_c, U_c = ws.fiber(q)
        acc = acc + _pair_block(ws, e_r, U_r, e_c, U_c, wrap=wrap)
    return acc / len(np.atleast_2d(k_grid))


def macro_residual_norm(problem, psi):
    """L2 norm of (nu - div eps grad) psi - kappa' on the macro box."""
    xi = psi.wavevectors()
    denom = problem.nu + np.einsum("...i,ij,...j->...", xi, problem.eps, xi)
    res = denom * psi.coeffs() - problem.source.coeffs()
    return float(np.sqrt(psi.volume * np.sum(np.abs(res) ** 2)))


def all_band_density(phi, occ, bands):
    """den[f_T(h^phi - mu)] on the grid from every band at every k: the sum
    that `fibers.density_from_potential` restricts to the occupied window."""
    basis = phi.basis
    acc = np.zeros(basis.fft_shape)
    for e, U in zip(bands.eigenvalues, bands.eigenvectors):
        acc += np.einsum("n,n...->...", occ.occ(e), np.abs(basis.columns_to_grids(U)) ** 2)
    return acc / (bands.nk * basis.lattice.volume)


def all_k_bands(basis, phi, k_points):
    """Bands with every k diagonalised directly: the route that
    `fibers.compute_bands` halves by taking -k from k (time reversal)."""
    k_points = np.atleast_2d(np.asarray(k_points, dtype=float))
    fibers = [diagonalize_fiber(assemble_fiber(basis, phi, k)) for k in k_points]
    return BandStructure(k_points=k_points,
                         eigenvalues=np.array([e for e, _ in fibers]),
                         eigenvectors=[U for _, U in fibers])


def bloch_fibers_by_definition(f, k_points):
    """f_k(x) = sum_t exp(-i k.(x + t)) f(x + t) on the micro cell grid, the
    sum running over the N^d lattice translates t of the supercell: the
    definition that `lattice.bloch_decompose` evaluates by one FFT."""
    per = tuple(s // n for s, n in zip(f.shape, f.factors))
    x = f.grid_points()
    fibers = []
    for k in k_points:
        wave = np.exp(-1j * (x @ np.atleast_1d(k))) * f.values
        acc = np.zeros(per, dtype=complex)
        for t in itertools.product(*(range(n) for n in f.factors)):
            acc += wave[tuple(slice(a * p, (a + 1) * p) for a, p in zip(t, per))]
        fibers.append(acc)
    return fibers
