"""Acceptance gate: every quantitative exit criterion at its stated
tolerance, one test (and one printed pass/fail line) per criterion.

Run as `pytest tests/test_acceptance.py -v -s` or via
`debye-forge verify`. The full suite takes a couple of minutes; the
multiscale order criterion dominates.
"""

import numpy as np
import pytest

from debye_forge import response as R
from debye_forge.acceptance import CRITERIA, MathieuContext


@pytest.fixture(scope="module")
def ctx():
    return MathieuContext()


@pytest.mark.parametrize(
    "index,name,fn",
    [(i, name, fn) for i, (name, fn) in enumerate(CRITERIA, start=1)],
    ids=[f"{i:02d}-{name.replace(' ', '_')}" for i, (name, _) in enumerate(CRITERIA, start=1)],
)
def test_criterion(ctx, index, name, fn):
    import time

    t0 = time.perf_counter()
    passed, detail = fn(ctx)
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] {index:2d} {name}: {detail} ({time.perf_counter() - t0:.1f}s)")
    assert passed, f"criterion {index} ({name}): {detail}"


def test_permittivity_built_once_per_beta_over_criteria_7_to_9(monkeypatch):
    # criteria 7, 8 and 9 read one memoised eps per beta; only the T = 0
    # limit of criterion 9 builds its own
    calls = {}
    orig = R.epsilon_prime

    def counted(ws):
        calls[id(ws)] = calls.get(id(ws), 0) + 1
        return orig(ws)

    monkeypatch.setattr(R, "epsilon_prime", counted)
    ctx = MathieuContext()
    for index in (7, 8, 9):
        passed, detail = CRITERIA[index - 1][1](ctx)
        assert passed, detail
    assert [calls.get(id(ctx.workspace(beta)), 0) for beta in (20, 40, 60)] == [1, 1, 1]
    assert sum(calls.values()) == 4


def test_reference_crystal_runs_in_real_arithmetic(ctx):
    # phi is the cosine family of configs/mathieu.json, exactly real in
    # coefficients, so the suite's fibers are float64
    assert ctx.phi.inversion_symmetric
    crystal = ctx.crystal(40)
    assert all(U.dtype == np.float64 for U in crystal.bands.eigenvectors)
    assert ctx.workspace(40).gamma[1].dtype == np.float64
    assert ctx.workspace(40).m0.dtype == np.float64
