"""Divided-difference weight matrices: consistency with the scalar API."""

import numpy as np
import pytest

from debye_forge import kernels
from debye_forge.occupation import OccupationModel, divided_difference


def test_dd1_matches_scalar_api():
    occ = OccupationModel(T=0.05, mu=-0.3)
    a = np.array([0.1, 0.8, -1.2])
    b = np.array([0.1 + 3e-9, 2.0])
    M = kernels.dd1_matrix(a, b, occ.T, occ.mu)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            assert M[i, j] == pytest.approx(
                divided_difference(occ, [ai, bj]), rel=1e-10, abs=1e-14
            )


def test_dd_matrices_shapes_and_signs():
    T, mu = 0.02, 0.0
    a = np.linspace(-1, 1, 13)
    M1 = kernels.dd1_matrix(a, a, T, mu)
    assert M1.shape == (13, 13)
    assert np.all(M1 <= 0)  # f_T decreasing
    # diagonal equals f'
    occ = OccupationModel(T=T, mu=mu)
    assert np.abs(np.diag(M1) - occ.occ_deriv(a)).max() < 1e-13 * np.abs(M1).max()

