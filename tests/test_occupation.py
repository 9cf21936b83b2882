import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from debye_forge.occupation import OccupationModel, dd, step_dd

mp = pytest.importorskip("mpmath")


def mp_fermi(lam, T, mu):
    return 1 / (mp.exp((lam - mu) / T) + 1)


def mp_dd(nodes, T, mu, dps=60):
    """Extended-precision divided difference (plain recursion is safe at 60 digits)."""
    with mp.workdps(dps):
        nodes = [mp.mpf(repr(float(x))) for x in nodes]

        def rec(ns):
            if len(ns) == 1:
                return mp_fermi(ns[0], T, mu)
            if ns[0] == ns[-1]:
                # confluent: derivative of order len-1 via mp.diff
                n = len(ns) - 1
                return mp.diff(lambda x: mp_fermi(x, T, mu), ns[0], n) / mp.factorial(n)
            return (rec(ns[:-1]) - rec(ns[1:])) / (ns[0] - ns[-1])

        return float(rec(sorted(nodes)))


class TestFermi:
    occ = OccupationModel(T=0.05, mu=0.0)

    def test_half_at_zero(self):
        assert self.occ.occ(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_derivative_at_zero(self):
        assert self.occ.occ_deriv(0.0, order=1) == pytest.approx(
            -1.0 / (4 * self.occ.T), rel=1e-14
        )

    def test_quarter_at_t_ln3(self):
        lam = self.occ.T * np.log(3.0)
        assert self.occ.occ(lam) == pytest.approx(0.25, rel=1e-14)

    def test_range_and_symmetry(self):
        lam = np.linspace(-3, 3, 101)
        f = self.occ.occ(lam)
        # strictly inside (0, 1) wherever double precision can represent it;
        # the occupied tail saturates to 1.0 beyond |lam|/T ~ 36
        assert np.all((f > 0) & (f <= 1))
        inner = np.abs(lam) / self.occ.T < 30
        assert np.all(f[inner] < 1)
        assert np.abs(f + self.occ.occ(-lam) - 1.0).max() < 1e-14

    def test_overflow_safety(self):
        big = 1e4 * self.occ.T
        for lam in (big, -big, 1e6, -1e6):
            v = self.occ.occ(lam)
            assert np.isfinite(v)
            for order in (1, 2):
                v = self.occ.occ_deriv(lam, order)
                assert np.isfinite(v)

    def test_second_derivative_odd(self):
        lam = np.linspace(0.01, 2, 40)
        f2p = self.occ.occ_deriv(lam, order=2)
        f2m = self.occ.occ_deriv(-lam, order=2)
        assert np.abs(f2p + f2m).max() < 1e-12 * np.abs(f2p).max()
        assert np.all(f2p > 0)  # convex to the right of the step

    def test_derivatives_match_mpmath(self):
        T = 0.07
        for lam in (0.0, 0.1, -0.35, 1.2):
            for order in (1, 2):
                ref = float(
                    mp.diff(lambda x: 1 / (mp.exp(x / T) + 1), mp.mpf(lam), order)
                )
                got = float(OccupationModel(T=T, mu=0.0).occ_deriv(lam, order))
                assert got == pytest.approx(ref, rel=1e-11, abs=1e-13)

    def test_higher_derivatives_match_mpmath(self):
        # orders past the second come from the same recurrence; the Taylor
        # branch of the divided differences sums them
        T = 0.07
        occ = OccupationModel(T=T, mu=0.0)
        for lam in (0.0, 0.03, -0.35, 1.2):
            for order in (3, 4, 5, 8):
                ref = float(
                    mp.diff(lambda x: 1 / (mp.exp(x / T) + 1), mp.mpf(lam), order)
                )
                got = float(occ.occ_deriv(lam, order))
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-14 * T**-order)


class TestDividedDifference:
    """dd(k, a, b) = f[a x k, b] against 60-digit mpmath."""

    occ = OccupationModel(T=0.025, mu=0.2)

    def dd(self, nodes):
        """dd over nodes [a, ..., a, b]."""
        return float(dd(len(nodes) - 1, nodes[0], nodes[-1], self.occ.T, self.occ.mu))

    def test_coalesced_first(self):
        a = 0.31
        assert self.dd([a, a]) == pytest.approx(float(self.occ.occ_deriv(a)), rel=1e-13)

    def test_symmetry(self):
        assert self.dd([0.1, 0.9]) == self.dd([0.9, 0.1])

    @settings(deadline=None, max_examples=40)
    @given(
        a=st.floats(-1.5, 1.5),
        d=st.floats(1e-9, 1.0),
        n=st.integers(2, 4),
    )
    def test_against_mpmath(self, a, d, n):
        nodes = [a] * (n - 1) + [a + d]
        got = self.dd(nodes)
        ref = mp_dd(nodes, self.occ.T, self.occ.mu)
        assert got == pytest.approx(ref, rel=2e-7, abs=1e-12)

    def test_near_coalescent_extended_precision(self):
        # two near-coalescent nodes go through the closed form
        got = self.dd([0.3, 0.300001])
        ref = mp_dd([0.3, 0.300001], self.occ.T, self.occ.mu)
        assert abs(got - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("h", [0.0, 2e-9, -4e-4, 0.01, -0.3])
    def test_coalescing_node_sets_against_mpmath(self, h):
        # repeated nodes [a, a, b] and [a, a, a, b], inside and outside the
        # Taylor radius 0.5 T = 0.0125
        a = 0.21
        for nodes in ([a, a, a + h], [a, a, a, a + h]):
            got = self.dd(nodes)
            ref = mp_dd(nodes, self.occ.T, self.occ.mu)
            k = len(nodes) - 1
            assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-3 * self.occ.T**-k)


class TestStepWeights:
    mu = 0.0

    def test_same_side_vanishes(self):
        assert step_dd(1, -1.0, -0.5, self.mu) == 0.0
        assert step_dd(2, 1.0, 0.5, self.mu) == 0.0
        assert step_dd(3, -1.0, -2.0, self.mu) == 0.0

    def test_cross_gap_values(self):
        a, b = -0.5, 1.5
        assert step_dd(1, a, b, self.mu) == pytest.approx(1.0 / (a - b))
        assert step_dd(2, a, b, self.mu) == pytest.approx(-1.0 / (a - b) ** 2)
        assert step_dd(3, a, b, self.mu) == pytest.approx(1.0 / (a - b) ** 3)

    def test_zero_temperature_is_fermi_limit(self):
        a, b = -0.8, 0.9
        for beta in (200.0, 400.0):
            occ = OccupationModel(T=1.0 / beta, mu=self.mu)
            v = dd(1, a, b, occ.T, occ.mu)
            assert v == pytest.approx(step_dd(1, a, b, self.mu), rel=1e-10)


def test_temperature_must_be_positive():
    with pytest.raises(ValueError):
        OccupationModel(T=0.0, mu=0.0)
    with pytest.raises(ValueError):
        OccupationModel(T=-1.0, mu=0.0)
