"""Fermi-Dirac occupation model and divided differences of f_T.

Everything downstream (densities, response fibers, homogenized
coefficients) is functional calculus of

    f_T(lam) = 1 / (exp(lam / T) + 1),

so this module centralizes f_T, its derivatives, and first/second/third
divided differences with stable evaluation near coalescing nodes.
Derivatives are expressed through t = tanh(lam / 2T), which is
overflow-safe for |lam|/T up to and beyond 1e4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OccupationModel",
    "fermi_dirac",
    "divided_difference",
    "step_dd1",
    "step_dd2",
    "step_dd3",
]


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


def _fermi(lam, T, order):
    """Derivatives of f(lam) = 1/(exp(lam/T)+1) via tanh identities.

    All orders reduce to polynomials in u = s(1-s), t = 1-2s = tanh(x/2):
        f    = (1 - t)/2
        f'   = -u/T
        f''  = u t / T^2
        f''' = -u (1 - 6u) / T^3
        f4   = u t (1 - 12u) / T^4
        f5   = u (-1 + 30u - 120u^2) / T^5
    """
    x = np.asarray(lam, dtype=float) / T
    u, t = _u_t(x)
    if order == 0:
        em = np.exp(-np.abs(x))
        s_pos = em / (1.0 + em)  # value for x >= 0
        return np.where(x >= 0, s_pos, 1.0 - s_pos)
    if order == 1:
        return -u / T
    if order == 2:
        return u * t / T**2
    if order == 3:
        return -u * (1.0 - 6.0 * u) / T**3
    if order == 4:
        return u * t * (1.0 - 12.0 * u) / T**4
    if order == 5:
        return u * (-1.0 + 30.0 * u - 120.0 * u * u) / T**5
    raise ValueError(f"unsupported derivative order {order}")


def fermi_dirac(lam, occ: OccupationModel, order: int = 0):
    """f_T^(order)(lam) for order in {0, 1, 2}.

    Note the argument is lam itself, not lam - mu; callers shift by mu.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    return _fermi(lam, occ.T, order)


def dd1(a, b, T, mu):
    """First divided difference f[a, b] of f_T(. - mu).

    Uses the cancellation-free closed form

        f[a,b] = -sinh(d)/(2 T d) * 1/(2 cosh(alpha) cosh(beta)),
        alpha = (a-mu)/2T, beta = (b-mu)/2T, d = alpha - beta,

    which is exact for all node separations (the d -> 0 limit is
    f_T'(a - mu)) and overflow-safe via exponent combination.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
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


def dd2(a, b, T, mu, tau=None):
    """Confluent second divided difference f[a, a, b] of f_T(. - mu).

    a and b broadcast; below the coalescence threshold tau the Taylor
    expansion around a is used (f''/2 + f''' h/6 + f4 h^2/24 + f5 h^3/120).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if tau is None:
        tau = 1e-6 * max(T, 1.0)
    h = b - a
    small = np.abs(h) < tau
    safe = np.where(small, 1.0, h)
    direct = (dd1(a, b, T, mu) - _fermi(a - mu, T, 1)) / safe
    am = a - mu
    taylor = (
        0.5 * _fermi(am, T, 2)
        + _fermi(am, T, 3) * h / 6.0
        + _fermi(am, T, 4) * h * h / 24.0
        + _fermi(am, T, 5) * h**3 / 120.0
    )
    return np.where(small, taylor, direct)


def dd3(a, b, T, mu, tau=None):
    """Confluent third divided difference f[a, a, a, b] of f_T(. - mu)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if tau is None:
        tau = 1e-6 * max(T, 1.0)
    h = b - a
    small = np.abs(h) < tau
    safe = np.where(small, 1.0, h)
    direct = (dd2(a, b, T, mu, tau=tau) - 0.5 * _fermi(a - mu, T, 2)) / safe
    am = a - mu
    taylor = (
        _fermi(am, T, 3) / 6.0
        + _fermi(am, T, 4) * h / 24.0
        + _fermi(am, T, 5) * h * h / 120.0
    )
    return np.where(small, taylor, direct)


def divided_difference(occ: OccupationModel, nodes):
    """Divided difference of f_T(. - mu) over 2 to 4 energy nodes.

    Symmetric in its arguments; coalescing nodes fall back to the
    confluent (Hermite) limits through the threshold tau_dd
    = 1e-6 * max(T, 1).
    """
    nodes = [float(x) for x in nodes]
    if not all(np.isfinite(nodes)):
        raise ValueError("divided difference nodes must be finite")
    if not 2 <= len(nodes) <= 4:
        raise ValueError("need between 2 and 4 nodes")
    T, mu = occ.T, occ.mu
    tau = 1e-6 * max(T, 1.0)

    def rec(ns):
        n = len(ns)
        if n == 1:
            return float(_fermi(ns[0] - mu, T, 0))
        lo, hi = ns[0], ns[-1]
        if abs(hi - lo) >= tau:
            return (rec(ns[:-1]) - rec(ns[1:])) / (lo - hi)
        # all nodes within tau of each other after sorting: confluent limit
        m = sum(ns) / n
        if n == 2:
            h = ns[0] - ns[1]
            return float(
                _fermi(m - mu, T, 1) + _fermi(m - mu, T, 3) * h * h / 24.0
            )
        if n == 3:
            return float(0.5 * _fermi(m - mu, T, 2))
        return float(_fermi(m - mu, T, 3) / 6.0)

    return rec(sorted(nodes))


# T = 0 limit: f_T replaced by the step function chi_(-inf, mu).
# Only cross-gap node pairs contribute; confluent limits vanish away
# from the step, so no coalescence handling is needed for gapped input.


def step_dd1(a, b, mu):
    """First divided difference of chi_(-inf, mu): 1/(a-b) across the gap."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    fa = (a < mu).astype(float)
    fb = (b < mu).astype(float)
    diff = a - b
    cross = fa != fb
    safe = np.where(cross, diff, 1.0)
    return np.where(cross, (fa - fb) / safe, 0.0)


def step_dd2(a, b, mu):
    """f[a, a, b] for the step function: -sign/(a-b)^2 across the gap."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    fa = (a < mu).astype(float)
    fb = (b < mu).astype(float)
    diff = a - b
    cross = fa != fb
    safe = np.where(cross, diff, 1.0)
    return np.where(cross, -(fa - fb) / safe**2, 0.0)


def step_dd3(a, b, mu):
    """f[a, a, a, b] for the step function: sign/(a-b)^3 across the gap."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    fa = (a < mu).astype(float)
    fb = (b < mu).astype(float)
    diff = a - b
    cross = fa != fb
    safe = np.where(cross, diff, 1.0)
    return np.where(cross, (fa - fb) / safe**3, 0.0)
