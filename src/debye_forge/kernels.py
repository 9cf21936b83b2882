"""Divided-difference weight matrices over eigenvalue vectors.

All return (len(a), len(b)) float64 matrices of divided differences of
f = f_T(. - mu), broadcast into the one kernel `occupation.dd`:

    dd1_matrix(a, b, T, mu)   f[a_i, b_j]
    dd2_matrix(a, b, T, mu)   f[a_i, a_i, b_j]
    dd3_matrix(a, b, T, mu)   f[a_i, a_i, a_i, b_j]

`BACKEND` names the implementation (numpy); run records carry it.
"""

from __future__ import annotations

import numpy as np

from .occupation import dd

__all__ = ["BACKEND", "dd1_matrix", "dd2_matrix", "dd3_matrix"]

BACKEND = "python"


def dd1_matrix(a, b, T, mu):
    return dd(1, np.asarray(a)[:, None], np.asarray(b)[None, :], T, mu)


def dd2_matrix(a, b, T, mu):
    return dd(2, np.asarray(a)[:, None], np.asarray(b)[None, :], T, mu)


def dd3_matrix(a, b, T, mu):
    return dd(3, np.asarray(a)[:, None], np.asarray(b)[None, :], T, mu)
