import numpy as np
import pytest

from debye_forge.lattice import (
    Lattice,
    LatticeError,
    PeriodicField,
    PlaneWaveBasis,
    SupercellField,
    bloch_decompose,
    bloch_reconstruct,
    centred_k_grid,
    delta_factor,
    low_momentum_project,
    monkhorst_pack,
    reciprocal_lattice,
)
from debye_forge.scf import _poisson_mean_free
from oracles import bloch_fibers_by_definition


def random_basis(rng, d):
    while True:
        b = rng.uniform(-2.0, 2.0, size=(d, d)) + 3.0 * np.eye(d)
        if abs(np.linalg.det(b)) > 0.3:
            return b


def test_reciprocal_1d():
    assert np.allclose(reciprocal_lattice([[2 * np.pi]]), [[1.0]])


def test_reciprocal_cubic():
    a = 3.7
    w = reciprocal_lattice(a * np.eye(3))
    assert np.allclose(w, (2 * np.pi / a) * np.eye(3))


def test_reciprocal_hexagonal_matches_inverse_transpose():
    B = np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    # independent oracle: 2 pi inverse-transpose computed directly
    oracle = 2 * np.pi * np.linalg.inv(B).T
    assert np.allclose(reciprocal_lattice(B), oracle, atol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_reciprocity_random(d):
    rng = np.random.default_rng(11 + d)
    for _ in range(100):
        B = random_basis(rng, d)
        W = reciprocal_lattice(B)
        assert np.abs(B @ W.T - 2 * np.pi * np.eye(d)).max() < 1e-12 * 2 * np.pi


def test_degenerate_basis_rejected():
    with pytest.raises(LatticeError):
        reciprocal_lattice([[1.0, 0.0], [2.0, 0.0]])


@pytest.fixture
def basis1d():
    return PlaneWaveBasis(Lattice(np.array([[2 * np.pi]])), ecut=30.0)


def test_gset_properties(basis1d):
    assert tuple(basis1d.g_ints[0]) == (0,)
    neg = basis1d.negation_index
    assert np.array_equal(basis1d.g_ints[neg], -basis1d.g_ints)
    # boundary shell included: |G|^2 <= 2 ecut
    assert basis1d.g_norm2.max() <= 2 * basis1d.ecut * (1 + 1e-12)


def test_index_of_rejects_outside_and_wrong_length():
    basis = PlaneWaveBasis(Lattice(2 * np.pi * np.eye(2)), ecut=8.0)
    assert basis.index_of([0, 0]) == 0
    assert basis.index_of([10, 0]) == -1
    # a config term with the wrong number of integers is outside the set
    assert basis.index_of([1]) == -1
    assert basis.index_of([1, 0, 0, 0]) == -1


def test_transform_cosine(basis1d):
    f = PeriodicField.from_callable(basis1d, np.cos)
    i1 = basis1d.index_of([1])
    im1 = basis1d.index_of([-1])
    assert abs(f.coeffs[i1] - 0.5) < 1e-13
    assert abs(f.coeffs[im1] - 0.5) < 1e-13
    others = np.delete(f.coeffs, [i1, im1])
    assert np.abs(others).max() < 1e-13


def test_transform_constant(basis1d):
    f = PeriodicField.from_callable(basis1d, lambda x: 3.25 * np.ones_like(x))
    assert abs(f.coeffs[0] - 3.25) < 1e-13
    assert np.abs(f.coeffs[1:]).max() < 1e-13


def test_transform_round_trip_and_parseval(basis1d):
    rng = np.random.default_rng(0)
    c = rng.standard_normal(basis1d.n_pw) + 1j * rng.standard_normal(basis1d.n_pw)
    c = 0.5 * (c + np.conj(c[basis1d.negation_index]))
    f = PeriodicField(basis1d, c)
    grid = f.values()
    back = PeriodicField.from_grid(basis1d, grid)
    assert np.abs(back.coeffs - c).max() < 1e-12 * np.abs(c).max()
    # Parseval with the cell-average convention
    vol = basis1d.lattice.volume
    ms_grid = np.mean(np.abs(grid) ** 2) * vol
    assert abs(ms_grid - f.l2_norm() ** 2) < 1e-12 * f.l2_norm() ** 2


def test_field_shape_mismatch(basis1d):
    with pytest.raises(ValueError):
        PeriodicField(basis1d, np.zeros(3))


class TestBloch:
    lat = Lattice(np.array([[2 * np.pi]]))

    def make_field(self, values_fn, N=16, per=27):
        shape = (per * N,)
        x = np.arange(shape[0]) / shape[0] * (2 * np.pi * N)
        return SupercellField(self.lat, np.full(1, N), values_fn(x))

    def test_periodic_input_concentrates_at_zero(self):
        # lattice-periodic input: every fiber vanishes except k = 0, whose
        # fiber is the N-fold cell sum N * f (so that the k-average
        # inverse transform returns f and int_Omega f_0 = fhat(0))
        N = 16
        f = self.make_field(lambda x: np.cos(x) + 0.3 * np.cos(2 * x), N=N)
        kpts, fibers = bloch_decompose(f)
        norms = np.array([fib.l2_norm() for fib in fibers])
        i0 = int(np.argmin(np.abs(kpts).sum(axis=1)))
        others = np.delete(norms, i0)
        assert others.max() < 1e-12
        expected = N * np.sqrt(np.pi * (1.0 + 0.09))
        assert abs(norms[i0] - expected) < 1e-9

    def test_single_mode_lands_on_its_fiber(self):
        N = 8
        q = 3.0 / N  # on the k-grid
        f = self.make_field(lambda x: np.exp(1j * q * x), N=N)
        kpts, fibers = bloch_decompose(f)
        norms = np.array([fib.l2_norm() for fib in fibers])
        hot = int(np.argmax(norms))
        assert abs(kpts[hot][0] - q) < 1e-12
        assert np.delete(norms, hot).max() < 1e-12

    def test_round_trip_and_fourier_identity(self):
        rng = np.random.default_rng(5)
        f = self.make_field(lambda x: 0 * x, N=16)
        f = f.copy_with(rng.standard_normal(f.shape))
        kpts, fibers = bloch_decompose(f)
        rec = bloch_reconstruct(kpts, fibers, self.lat, np.full(1, 16), f.shape)
        assert np.abs(rec.values - f.values).max() < 1e-10
        for k, fib in zip(kpts[:8], fibers[:8]):
            assert abs(fib.mean() * fib.volume - f.fourier(k)) < 1e-10

    # the even cell grids are those whose Nyquist mode has no -G partner
    @pytest.mark.parametrize("lat, factors, per", [
        (lat, [16], (27,)),
        (lat, [16], (10,)),
        (Lattice(2 * np.pi * np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])), [3, 2], (6, 4)),
    ], ids=["1d-27", "1d-10", "2d-hex-6x4"])
    def test_fibers_match_definition(self, lat, factors, per):
        rng = np.random.default_rng(12)
        shape = tuple(p * n for p, n in zip(per, factors))
        f = SupercellField(lat, factors, rng.standard_normal(shape))
        kpts, fibers = bloch_decompose(f)
        assert len(fibers) == np.prod(factors)
        scale = np.prod(factors) * np.abs(f.values).max()
        for fib, ref in zip(fibers, bloch_fibers_by_definition(f, kpts)):
            assert fib.shape == per and np.all(fib.factors == 1)
            assert np.abs(fib.values - ref).max() < 1e-12 * scale
        rec = bloch_reconstruct(kpts, fibers, lat, factors, shape)
        assert np.abs(rec.values - f.values).max() < 1e-10

    def test_gaussian_bump_reconstruction(self):
        N = 16
        L = 2 * np.pi * N
        f = self.make_field(
            lambda x: np.exp(-0.5 * ((x - L / 2) / 3.0) ** 2), N=N
        )
        kpts, fibers = bloch_decompose(f)
        rec = bloch_reconstruct(kpts, fibers, self.lat, np.full(1, N), f.shape)
        assert np.abs(rec.values - f.values).max() < 1e-10


class TestProjection:
    lat = Lattice(np.array([[2 * np.pi]]))

    def field(self, N=8, seed=2):
        rng = np.random.default_rng(seed)
        shape = (27 * N,)
        return SupercellField(self.lat, np.full(1, N), rng.standard_normal(shape))

    def test_r_zero_keeps_mean(self):
        f = self.field()
        p = low_momentum_project(f, 0.0)
        assert np.abs(p.values - f.mean()).max() < 1e-12

    def test_large_r_is_identity(self):
        f = self.field()
        q = f.wavevectors()
        rmax = float(np.sqrt(np.einsum("...i,...i->...", q, q)).max())
        p = low_momentum_project(f, rmax + 1.0)
        assert np.abs(p.values - f.values).max() < 1e-12

    def test_idempotent_selfadjoint_complement(self):
        f, g = self.field(seed=3), self.field(seed=4)
        r = 1.3
        pf = low_momentum_project(f, r)
        ppf = low_momentum_project(pf, r)
        assert np.abs(ppf.values - pf.values).max() < 1e-12
        # self-adjoint in the grid inner product
        w = f.volume / np.prod(f.shape)
        lhs = w * np.sum(pf.values * g.values)
        rhs = w * np.sum(f.values * low_momentum_project(g, r).values)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
        # the complement f - P_r f has no mode inside the ball, and P + Pbar = 1
        comp = f - pf
        assert np.abs(low_momentum_project(comp, r).values).max() < 1e-12
        assert np.abs(pf.values + comp.values - f.values).max() < 1e-12

    def test_projection_matches_fourier_cut(self):
        # (P_r f)_k = |Omega|^{-1} fhat(k) chi_{B(r)}(k), checked through
        # the fiber integrals
        f = self.field(seed=9)
        r = 0.4
        pf = low_momentum_project(f, r)
        kpts, fibers = bloch_decompose(pf)
        vol = self.lat.volume
        for k, fib in zip(kpts, fibers):
            expected = f.fourier(k) / vol if k @ k <= r * r else 0.0
            assert abs(fib.mean() - expected) < 1e-11


class TestInverseLaplacian:
    basis = PlaneWaveBasis(Lattice(np.array([[2 * np.pi]])), ecut=30.0)

    def test_cosine(self):
        f = PeriodicField.from_callable(self.basis, np.cos)
        phi = _poisson_mean_free(self.basis, f.coeffs)
        assert np.abs(phi - f.coeffs).max() < 1e-13  # |G|^2 = 1

    def test_zero(self):
        phi = _poisson_mean_free(self.basis, PeriodicField.zeros(self.basis).coeffs)
        assert np.abs(phi).max() == 0.0

    def test_composition_identity(self):
        rng = np.random.default_rng(8)
        c = rng.standard_normal(self.basis.n_pw) + 1j * rng.standard_normal(self.basis.n_pw)
        c = 0.5 * (c + np.conj(c[self.basis.negation_index]))
        c[0] = 0.0
        f = PeriodicField(self.basis, c)
        phi = _poisson_mean_free(self.basis, f.coeffs)
        back = PeriodicField(self.basis, phi * self.basis.g_norm2)
        assert np.abs(back.coeffs - f.coeffs).max() < 1e-12 * np.abs(c).max()


def test_monkhorst_contains_gamma():
    lat = Lattice(np.array([[1.0, 0.0], [0.0, 1.0]]))
    k = monkhorst_pack(lat, [4, 3])
    assert np.min(np.einsum("ij,ij->i", k, k)) < 1e-14
    assert k.shape == (12, 2)


def test_reciprocal_basis_computed_once_and_read_only():
    lat = Lattice(np.array([[1.0, 0.3], [-0.2, 1.4]]))
    assert lat.reciprocal is lat.reciprocal
    assert np.array_equal(lat.reciprocal, reciprocal_lattice(lat.basis))
    assert np.array_equal(lat.reciprocal_inverse, np.linalg.inv(lat.reciprocal))
    for a in (lat.reciprocal, lat.reciprocal_inverse):
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12])
def test_centred_k_grid_offsets(n):
    lat = Lattice(np.array([[1.0, 0.3], [-0.2, 1.4]]))
    j, k = centred_k_grid(lat, [n, 2])
    axis = j[::2, 0]
    # FFT order: 0, 1, ..., then the negative offsets
    assert list(axis) == [int(x) for x in np.fft.fftfreq(n, 1.0 / n)]
    assert axis.min() == -(n // 2) and axis.max() == (n + 1) // 2 - 1
    assert np.array_equal(k, (j / np.array([n, 2])) @ lat.reciprocal)
    assert np.array_equal(monkhorst_pack(lat, [n, 2]), k)


def test_inner_product_convention(basis1d):
    f = PeriodicField.from_callable(basis1d, np.cos)
    val = f.l2_norm() ** 2
    assert abs(val - np.pi) < 1e-12  # int_0^{2pi} cos^2 = pi


@pytest.mark.parametrize("delta, n", [(1 / 3, 3), (0.125, 8), (0.0625, 16), (0.03125, 32)])
def test_delta_factor(delta, n):
    assert delta_factor(delta) == n


@pytest.mark.parametrize("delta", [0.3, 0.333333333333])
def test_delta_factor_refuses_a_delta_not_one_over_n(delta):
    # 1 / 0.333333333333 is 3 + 3e-12, beyond the 1e-12 tolerance
    with pytest.raises(ValueError, match="1/N"):
        delta_factor(delta)
