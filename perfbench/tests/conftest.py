"""Fixtures: one small real round of each seeded workload.

The small configs keep the workloads' structure (every stage and every
operation runs) at a lower cutoff, so the checks are exercised on real
program outputs in a few seconds.
"""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import use_source_tree  # noqa: E402

use_source_tree()

from perfbench import inputs, workloads  # noqa: E402

# one timing per operation: the tests look at outputs, not at times
workloads.REPEAT = 1


def small_context(kind, tmp, seed=0):
    """Context of a reduced mathieu-chain or square-coeffs workload."""
    df = workloads.import_package()
    if kind == "mathieu":
        raw = inputs.mathieu_config(seed, str(tmp / "out"))
        raw["ecut"] = 30.0
        raw["multiscale"]["delta_list"] = [0.125, 0.0625]
    else:
        raw = inputs.square_config(seed, str(tmp / "out"))
        raw["ecut"] = 8.0
    path = tmp / "config.json"
    path.write_text(json.dumps(raw))
    ctx = types.SimpleNamespace(df=df, cfg=df.config.parse_config(raw), config=path,
                                out=tmp / "out", seed=seed)
    if kind == "square":
        assert df.cli.main(["crystal", "--config", str(path)]) == 0
    return ctx


@pytest.fixture(scope="session")
def mathieu_round(tmp_path_factory):
    ctx = small_context("mathieu", tmp_path_factory.mktemp("mathieu"))
    return ctx, workloads.MathieuChain().round(ctx, None)


@pytest.fixture(scope="session")
def square_round(tmp_path_factory):
    ctx = small_context("square", tmp_path_factory.mktemp("square"))
    return ctx, workloads.SquareCoeffs().round(ctx, None)
