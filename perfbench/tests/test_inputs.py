"""Seeded inputs: the default seed is the repository's reference input."""

import json
import math

import numpy as np

from perfbench import ROOT, inputs


def test_default_seed_reproduces_mathieu_config():
    ref = json.loads((ROOT / "configs" / "mathieu.json").read_text())
    ours = inputs.mathieu_config(inputs.DEFAULT_SEED, ref["output_dir"])
    assert ours == ref


def test_default_square_crystal_and_diagonal():
    cfg = inputs.square_config(inputs.DEFAULT_SEED, "out")
    amps = [t["amplitude"] for t in cfg["crystal"]["potential"]["terms"]]
    assert amps == [2.0, 2.0] and cfg["kgrid"] == [4, 4] and cfg["temperature"] == 0.05
    samples, off = inputs.square_samples(inputs.DEFAULT_SEED, 0.1)
    assert np.allclose(off, [math.sqrt(0.5)] * 2)
    assert samples.shape == (3 * inputs.SQUARE_SAMPLES_PER_DIRECTION * 2, 2)
    assert inputs.centre_fraction(inputs.DEFAULT_SEED) == 0.5


def test_seeded_draws_are_reproducible_and_in_range():
    for seed in range(1, 40):
        p = inputs.draw(seed)
        assert p == inputs.draw(seed)
        assert inputs.AMPLITUDE[0] <= p["amplitude"] <= inputs.AMPLITUDE[1]
        assert inputs.CENTRE_OFFSET[0] <= p["centre_offset"] <= inputs.CENTRE_OFFSET[1]
        assert inputs.OFFAXIS_DEG[0] <= p["offaxis_deg"] <= inputs.OFFAXIS_DEG[1]
    assert inputs.draw(1) != inputs.draw(2)
