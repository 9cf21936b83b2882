import numpy as np
import pytest

from debye_forge.lattice import Lattice, SupercellField
from debye_forge.macro import (
    MacroProblem,
    auto_box,
    debye_observables,
    energy_identity_defect,
    gaussian_source,
    solve_pb,
)
from oracles import macro_residual_norm


def box1d(lengths=24.0, nu=1.0):
    return auto_box(nu, 1, lengths=lengths)


def narrow_source(box, width=0.02, amplitude=1.0, grid=4096, mean_free=False):
    return gaussian_source(
        box, (grid,), center=[0.5 * box.basis[0, 0]], width=width,
        amplitude=amplitude, mean_free=mean_free,
    )


class TestSolve:
    def test_constant_source(self):
        box = box1d()
        vals = np.full((256,), 2.5)
        src = SupercellField(box, np.ones(1, dtype=int), vals)
        prob = MacroProblem(box=box, nu=4.0, eps=np.eye(1), source=src)
        psi = solve_pb(prob)
        assert np.abs(psi.values - 2.5 / 4.0).max() < 1e-13

    def test_residual(self):
        box = box1d()
        src = narrow_source(box)
        prob = MacroProblem(box=box, nu=1.0, eps=np.eye(1), source=src)
        psi = solve_pb(prob)
        assert macro_residual_norm(prob, psi) <= 1e-10 * src.l2_norm()

    def test_yukawa_closed_form(self):
        box = box1d()
        src = narrow_source(box, width=0.02)
        prob = MacroProblem(box=box, nu=1.0, eps=np.eye(1), source=src)
        psi = solve_pb(prob)
        x = psi.grid_points()[..., 0] - 0.5 * box.basis[0, 0]
        mask = (np.abs(x) > 0.5) & (np.abs(x) < 6.0)
        exact = np.exp(-np.abs(x[mask])) / 2.0
        rel = np.abs(psi.values[mask] - exact) / exact
        assert rel.max() < 1e-3

    def test_linearity(self):
        box = box1d()
        s1 = narrow_source(box, width=0.05)
        s2 = narrow_source(box, width=0.25)
        a, b = 1.7, -0.4
        combo = SupercellField(box, np.ones(1, dtype=int), a * s1.values + b * s2.values)
        eps = np.eye(1)
        p1 = solve_pb(MacroProblem(box=box, nu=1.0, eps=eps, source=s1))
        p2 = solve_pb(MacroProblem(box=box, nu=1.0, eps=eps, source=s2))
        pc = solve_pb(MacroProblem(box=box, nu=1.0, eps=eps, source=combo))
        diff = pc.values - (a * p1.values + b * p2.values)
        assert np.abs(diff).max() < 1e-12 * np.abs(pc.values).max()

    def test_positivity_surrogate(self):
        box = box1d()
        src = narrow_source(box, width=0.3)
        psi = solve_pb(MacroProblem(box=box, nu=1.0, eps=np.eye(1), source=src))
        assert psi.values.min() >= -1e-12 * np.abs(psi.values).max()

    def test_energy_identity(self):
        box = box1d()
        src = narrow_source(box, width=0.1)
        prob = MacroProblem(box=box, nu=2.0, eps=np.array([[1.5]]), source=src)
        psi = solve_pb(prob)
        assert energy_identity_defect(prob, psi) < 1e-10

    def test_invariant_validation(self):
        box = box1d()
        src = narrow_source(box)
        with pytest.raises(ValueError):
            MacroProblem(box=box, nu=-1.0, eps=np.eye(1), source=src)
        with pytest.raises(ValueError):
            MacroProblem(box=box, nu=1.0, eps=-np.eye(1), source=src)
        with pytest.raises(ValueError):
            MacroProblem(
                box=Lattice(np.eye(2) * 30.0),
                nu=1.0,
                eps=np.array([[1.0, 0.2], [0.3, 1.0]]),
                source=src,
            )


class TestDebye:
    def test_unit_rate(self):
        box = box1d()
        src = narrow_source(box)
        prob = MacroProblem(box=box, nu=1.0, eps=np.eye(1), source=src)
        debye, fits = debye_observables(prob, solve_pb(prob))
        assert debye == pytest.approx(1.0)
        assert fits[0].reliable
        assert fits[0].rate == pytest.approx(1.0, abs=0.05)

    def test_nu_scaling(self):
        box = box1d(nu=4.0)
        src = narrow_source(box)
        prob = MacroProblem(box=box, nu=4.0, eps=np.eye(1), source=src)
        _, fits = debye_observables(prob, solve_pb(prob))
        assert fits[0].rate == pytest.approx(2.0, abs=0.1)

    def test_small_box_flagged_unreliable(self):
        box = box1d(lengths=5.0)
        src = narrow_source(box, grid=1024)
        prob = MacroProblem(box=box, nu=1.0, eps=np.eye(1), source=src)
        _, fits = debye_observables(prob, solve_pb(prob))
        assert not fits[0].reliable

    def test_anisotropic_elongation(self):
        box = Lattice(np.eye(2) * 40.0)
        src = gaussian_source(box, (192, 192), center=[20, 20], width=0.4)
        prob = MacroProblem(box=box, nu=1.0, eps=np.diag([1.0, 4.0]), source=src)
        psi = solve_pb(prob)
        X = psi.grid_points()
        w = psi.values
        m2 = [np.sum(w * (X[..., ax] - 20) ** 2) / np.sum(w) for ax in (0, 1)]
        assert np.sqrt(m2[1] / m2[0]) == pytest.approx(2.0, abs=0.2)
