"""Divided-difference weight matrices over eigenvalue vectors.

All return (len(a), len(b)) float64 matrices of divided differences of
f = f_T(. - mu):

    dd1_matrix(a, b, T, mu)   f[a_i, b_j]
    dd2_matrix(a, b, T, mu)   f[a_i, a_i, b_j]
    dd3_matrix(a, b, T, mu)   f[a_i, a_i, a_i, b_j]

`BACKEND` names the implementation (numpy broadcasting over the scalar
formulas of `occupation`); run records carry it.
"""

from __future__ import annotations

import numpy as np

from . import occupation as _occ

__all__ = ["BACKEND", "dd1_matrix", "dd2_matrix", "dd3_matrix"]

BACKEND = "python"


def dd1_matrix(a, b, T, mu):
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[None, :]
    return _occ.dd1(a, b, T, mu)


def dd2_matrix(a, b, T, mu):
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[None, :]
    return _occ.dd2(a, b, T, mu)


def dd3_matrix(a, b, T, mu):
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[None, :]
    return _occ.dd3(a, b, T, mu)
