"""Divided-difference weight matrices against extended-precision mpmath."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from debye_forge import kernels
from debye_forge.occupation import OccupationModel

mp = pytest.importorskip("mpmath")

DD = {1: kernels.dd1_matrix, 2: kernels.dd2_matrix, 3: kernels.dd3_matrix}


def mp_confluent_dd(k, a, b, T, mu, dps=60):
    """f[a, ..., a, b] of f_T(. - mu), a repeated k times, at dps digits."""
    with mp.workdps(dps):
        a, b, T, mu = (mp.mpf(float(v)) for v in (a, b, T, mu))

        def f(x):
            return 1 / (mp.exp((x - mu) / T) + 1)

        if a == b:
            return mp.diff(f, a, k) / mp.factorial(k)
        val = (f(a) - f(b)) / (a - b)
        for j in range(1, k):
            val = (val - mp.diff(f, a, j) / mp.factorial(j)) / (b - a)
        return val


def assert_matches_mpmath(k, got, a, b, T, mu):
    """|got - ref| <= 1e-12 max(|ref|, 1e-3 T^-k): relative, with a floor
    a thousandth of the scale T^-k of f^(k), where f[a x k, b] crosses zero."""
    ref = mp_confluent_dd(k, a, b, T, mu)
    assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-3 * T**-k), (k, a, b, T, mu)


def test_dd1_matches_mpmath():
    T, mu = 0.05, -0.3
    a = np.array([0.1, 0.8, -1.2])
    b = np.array([0.1 + 3e-9, 2.0])
    M = kernels.dd1_matrix(a, b, T, mu)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            ref = mp_confluent_dd(1, ai, bj, T, mu)
            assert M[i, j] == pytest.approx(float(ref), rel=1e-14)


@settings(deadline=None, max_examples=60)
@given(
    k=st.integers(1, 3),
    log_T=st.floats(-3, 1),
    x=st.floats(-6, 6),
    log_h=st.floats(-9, 0),
    sign=st.sampled_from([-1.0, 1.0]),
)
@example(k=3, log_T=-1.6, x=0.7, log_h=-3.0, sign=1.0)
@example(k=3, log_T=0.7, x=5.0, log_h=-6.0, sign=-1.0)
@example(k=3, log_T=-2.0, x=-1.2, log_h=np.log10(0.4999), sign=1.0)
@example(k=3, log_T=-2.0, x=-1.2, log_h=np.log10(0.5001), sign=1.0)
@example(k=2, log_T=0.0, x=0.0, log_h=-2.0, sign=-1.0)
def test_dd_matrices_match_mpmath(k, log_T, x, log_h, sign):
    # h/T in +-[1e-9, 1] spans the Taylor branch, its threshold and the
    # recursion; (a - mu)/T in [-6, 6] spans the step of f_T
    T, mu = 10.0**log_T, 0.3
    a = mu + x * T
    b = a + sign * 10.0**log_h * T
    got = DD[k]([a], [b], T, mu)[0, 0]
    assert_matches_mpmath(k, got, a, b, T, mu)


def test_mixed_matrix_entries_match_mpmath():
    # one matrix holding coalesced, near and far pairs: the Taylor entries
    # are scattered into the recursion result
    T, mu = 0.025, 0.1
    a = np.array([0.05, 0.1, 0.16])
    b = np.concatenate([a, a + 3e-8, a - 0.3 * T, a + 0.7 * T, [0.9]])
    for k in (1, 2, 3):
        M = DD[k](a, b, T, mu)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                assert_matches_mpmath(k, M[i, j], ai, bj, T, mu)


def test_dd_matrices_shapes_and_signs():
    T, mu = 0.02, 0.0
    a = np.linspace(-1, 1, 13)
    M1 = kernels.dd1_matrix(a, a, T, mu)
    assert M1.shape == (13, 13)
    assert np.all(M1 <= 0)  # f_T decreasing
    # diagonal equals f'
    occ = OccupationModel(T=T, mu=mu)
    assert np.abs(np.diag(M1) - occ.occ_deriv(a)).max() < 1e-13 * np.abs(M1).max()
