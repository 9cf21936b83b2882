"""Fermi-Dirac occupation model and divided differences of f_T.

Everything downstream (densities, response fibers, homogenized
coefficients) is functional calculus of

    f_T(lam) = 1 / (exp(lam / T) + 1),

so this module centralizes f_T, its derivatives of every order and one
divided-difference kernel. Derivatives are expressed through
t = tanh(lam / 2T), which is overflow-safe for |lam|/T up to and beyond
1e4.

The kernel `dd(k, a, b, T, mu)` is f[a, ..., a, b] with a repeated k = 1,
2 or 3 times. k = 1 is a closed form, exact at every node separation.
For k = 2, 3 there is one threshold, |b - a| < TAYLOR_RADIUS * T: below
it the Taylor series of f_T about a is summed, which has no cancellation
(McCurdy, Ng and Parlett, Math. Comp. 43, 501 (1984)); above it one
recursion step on k - 1 loses at most about eps / TAYLOR_RADIUS^2
relative to T^-k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np

__all__ = [
    "OccupationModel",
    "dd",
    "step_dd",
]

# node spread, in units of T, below which divided differences of order >= 2
# are summed from the Taylor series of f_T instead of recursed
TAYLOR_RADIUS = 0.5


@dataclass(frozen=True)
class OccupationModel:
    """Temperature and chemical potential (k_B = 1).

    Attributes:
        T: temperature, strictly positive (energy units).
        mu: chemical potential (energy units).
        beta: inverse temperature 1/T (derived).
    """

    T: float
    mu: float
    beta: float = field(init=False)

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"temperature must be positive, got T={self.T}")
        object.__setattr__(self, "beta", 1.0 / self.T)

    def occ(self, eps):
        """Occupation f_T(eps - mu)."""
        return _fermi(np.asarray(eps, dtype=float) - self.mu, self.T, 0)

    def occ_deriv(self, eps, order=1):
        """order-th derivative of f_T evaluated at eps - mu."""
        return _fermi(np.asarray(eps, dtype=float) - self.mu, self.T, order)

    def window(self, n, tol):
        """Edge mu + T ln(n / tol) of the occupied window of an n-state basis.

        Every state above it has f_T < tol / n, so the n states together
        carry occupation below tol.
        """
        return self.mu + self.T * np.log(n / tol)


def _u_t(x):
    """Return (u, t) with t = tanh(x/2), u = s(1-s) for s = 1/(1+e^x).

    Both are computed from exp(-|x|) so that u keeps full relative
    precision in the tails (u ~ e^{-|x|}; the naive (1 - tanh^2)/4 loses
    all relative accuracy once |x| > ~15).
    """
    em = np.exp(-np.abs(x))
    den = 1.0 + em
    u = em / (den * den)
    t = np.sign(x) * (1.0 - em) / den
    return u, t


def _q_table(n):
    """Power-series coefficients in t of q_1, ..., q_n, lowest power first.

    f_T^(j) = u q_j(t) / T^j, and q_1 = -1, q_(j+1) = -t q_j + (1 - t^2)
    q_j' / 2, from du/dx = -t u and dt/dx = 2u.
    """
    table = [np.array([-1.0])]
    while len(table) < n:
        q = table[-1]
        dq = q[1:] * np.arange(1, len(q))  # q'
        nxt = np.zeros(len(q) + 1)
        nxt[1:] -= q  # -t q
        nxt[: len(dq)] += 0.5 * dq  # + q' / 2
        nxt[2:] -= 0.5 * dq  # - t^2 q' / 2
        table.append(nxt)
    return table


# derivative orders 1..32; the divided-difference series needs at most 25
_Q = _q_table(32)


def _q(order, t):
    """q_order(t) by Horner in t^2: q_j is even in t for odd j and odd for
    even j, so q_1 = -1 and q_2 = t come out exact."""
    c = _Q[order - 1][(order + 1) % 2 :: 2]
    acc, t2 = c[-1], t * t
    for ci in c[-2::-1]:
        acc = acc * t2 + ci
    return acc * t if order % 2 == 0 else acc


def _fermi(lam, T, order):
    """Derivative of order `order` >= 0 of f(lam) = 1/(exp(lam/T)+1).

    f = s = 1/(1+e^x) itself is evaluated from exp(-|x|); for j >= 1,
    f^(j) = u q_j(t) / T^j with x = lam/T (f' = -u/T, f'' = u t / T^2).
    """
    if not 0 <= order <= len(_Q):
        raise ValueError(f"unsupported derivative order {order}")
    x = np.asarray(lam, dtype=float) / T
    if order == 0:
        em = np.exp(-np.abs(x))
        s_pos = em / (1.0 + em)  # value for x >= 0
        return np.where(x >= 0, s_pos, 1.0 - s_pos)
    u, t = _u_t(x)
    return u * _q(order, t) / T**order


def _dd1(a, b, T, mu):
    """First divided difference f[a, b] of f_T(. - mu).

    Uses the cancellation-free closed form

        f[a,b] = -sinh(d)/(2 T d) * 1/(2 cosh(alpha) cosh(beta)),
        alpha = (a-mu)/2T, beta = (b-mu)/2T, d = alpha - beta,

    which is exact for all node separations (the d -> 0 limit is
    f_T'(a - mu)) and overflow-safe via exponent combination.
    """
    al = (a - mu) / (2.0 * T)
    be = (b - mu) / (2.0 * T)
    d = al - be
    # 1/(2 cosh al cosh be) = 2 exp(-|al|-|be|) / ((1+e^-2|al|)(1+e^-2|be|))
    ea = np.exp(-2.0 * np.abs(al))
    eb = np.exp(-2.0 * np.abs(be))
    expo = -np.abs(al) - np.abs(be)
    # sinh(d) exp(expo) / d: libm sinh is relatively accurate for small d
    # (no cancellation); for |d| >= 1 combine exponents to avoid overflow
    # (|d| <= |al| + |be| = -expo keeps the arguments nonpositive).
    small = np.abs(d) < 1.0
    dsafe_s = np.where(small, d, 1.0)
    dsafe_l = np.where(small, 1.0, d)
    tiny = np.abs(d) < 1e-300
    sinhc_small = np.where(tiny, 1.0, np.sinh(dsafe_s) / np.where(tiny, 1.0, dsafe_s))
    sinhc_scaled = np.where(
        small,
        np.exp(expo) * sinhc_small,
        0.5 * (np.exp(dsafe_l + expo) - np.exp(-dsafe_l + expo)) / dsafe_l,
    )
    return -(1.0 / T) * sinhc_scaled / ((1.0 + ea) * (1.0 + eb))


def _taylor_dd(center, k, h, T, mu):
    """f[a x k, a + h] of f_T(. - mu), a = center, by its Taylor series.

    f[a x k, a + h] = sum_{m >= 0} f^(k+m)(a)/(k+m)! h^m, which holds the
    confluent limit h -> 0. The poles of f_T nearest the real axis are
    pi T away, so |f^(j)| T^j / j! <~ 2 / pi^(j+1) and the terms fall like
    r^m, r = max|h| / (pi T) <= TAYLOR_RADIUS / pi; the sum stops once
    r^m < 1e-17 (at most 22 terms past the leading one).
    """
    r = float(np.max(np.abs(h), initial=0.0)) / (np.pi * T)
    terms = int(np.ceil(np.log(1e-17) / np.log(r))) if r > 0 else 0
    u, t = _u_t((center - mu) / T)
    y = h / T
    hm = [1.0]  # (h/T)^m by repeated multiplication
    for _ in range(terms):
        hm.append(y * hm[-1])
    total = 0.0
    for m in range(terms, -1, -1):  # smallest terms first
        total = total + _q(k + m, t) / factorial(k + m) * hm[m]
    return u * total / T**k


def dd(k, a, b, T, mu):
    """f[a, ..., a, b] of f_T(. - mu), a repeated k in {1, 2, 3} times.

    a and b broadcast. k = 1 is the closed form; for k >= 2 the Taylor
    series about a is summed where |b - a| < TAYLOR_RADIUS * T, and
    elsewhere the recursion f[a x j, b] = (f[a x (j-1), b] - f^(j-1)(a)/(j-1)!)
    / (b - a) runs up from the closed form.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = _dd1(a, b, T, mu)
    if k == 1:
        return out
    h = np.asarray(b - a)
    near = np.abs(h) < TAYLOR_RADIUS * T
    safe = np.where(near, 1.0, h)
    for j in range(1, k):
        out = (out - _fermi(a - mu, T, j) / factorial(j)) / safe
    out = np.asarray(out)
    if near.any():
        out[near] = _taylor_dd(np.broadcast_to(a, h.shape)[near], k, h[near], T, mu)
    return out


def step_dd(order, a, b, mu):
    """f[a, ..., a, b] (a repeated `order` times) for the T = 0 occupation.

    f_T is replaced by the step function chi_(-inf, mu): only node pairs
    across mu contribute, (-1)^(order-1) (f_a - f_b) / (a - b)^order, and
    confluent limits vanish away from the step, so gapped input needs no
    coalescence handling.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    fa = (a < mu).astype(float)
    fb = (b < mu).astype(float)
    cross = fa != fb
    safe = np.where(cross, a - b, 1.0)
    return np.where(cross, (-1) ** (order - 1) * (fa - fb) / safe**order, 0.0)
