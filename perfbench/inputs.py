"""Workload inputs made from the benchmark seed.

Seed 0 is the default. It reproduces ``configs/mathieu.json`` and the square
crystal ``phi = 2 (cos x + cos y)`` on the lattice ``2 pi I_2`` of
``tests/test_multidim.py``. Every other seed draws three numbers, from
ranges inside which both crystals keep a spectral gap at the chosen
``mu`` (mid-gap) and the expansion stays in its screened regime:

* the cosine amplitude ``a`` in ``[1.9, 2.1]`` of the square crystal
  ``a (cos x + cos y)``, one amplitude for both axes so that it keeps its
  four-fold symmetry (the 1D crystal keeps ``a = 2``, see
  `mathieu_config`);
* the offset ``u`` in ``[-0.3, 0.3]`` of the ``kappa'`` centre from the
  middle of its box, in micro-cell units (centre ``pi + u`` on the
  ``2 pi`` multiscale box; fraction ``1/2 + u / (2 pi)`` per axis of the
  2D macro box);
* the angle of the off-axis ``b(k)`` sample direction in ``[30, 60]``
  degrees (2D only; the default is the diagonal, 45 degrees).

The ranges are narrow on purpose: they move the numbers the checks look at
without changing the amount of work (grid sizes, k-grids, cutoffs and the
sample counts are fixed).
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_SEED = 0
AMPLITUDE = (1.9, 2.1)
CENTRE_OFFSET = (-0.3, 0.3)
OFFAXIS_DEG = (30.0, 60.0)

TWO_PI = 2.0 * math.pi

# b(k) samples per direction of the 2D fit: 3 directions x 8 radii x 2 signs
# = 48 evaluations, about 4 s at ecut 16 with the numpy backend.
SQUARE_SAMPLES_PER_DIRECTION = 8
SQUARE_ECUT = 16.0
SQUARE_MACRO_GRID = 256


def draw(seed: int) -> dict:
    """The seeded parameters: amplitude, kappa' centre offset, off-axis angle."""
    if seed == DEFAULT_SEED:
        return {"amplitude": 2.0, "centre_offset": 0.0, "offaxis_deg": 45.0}
    rng = np.random.default_rng(seed)
    return {
        "amplitude": float(rng.uniform(*AMPLITUDE)),
        "centre_offset": float(rng.uniform(*CENTRE_OFFSET)),
        "offaxis_deg": float(rng.uniform(*OFFAXIS_DEG)),
    }


def mathieu_config(seed: int, output_dir: str) -> dict:
    """The 1D reference crystal of configs/mathieu.json, seeded.

    Only the kappa' centre follows the seed here; the amplitude stays 2.0.
    Below a ~ 1.92 the zone-averaged screening entry of the supercell
    Jacobian rises above the 1e-13 mean-pinning threshold of
    ``SupercellSolver.solve_jacobian`` and the remainder stops converging
    at order 2 (slope 1.25 at a = 1.917), so a seeded amplitude would make
    that check fail on some seeds only.
    """
    p = draw(seed)
    kappa_prime = {"family": "gaussian", "width": 0.35, "amplitude": 0.05, "mean_free": True}
    if seed != DEFAULT_SEED:
        kappa_prime["center"] = [math.pi + p["centre_offset"]]
    return {
        "lattice": {"basis": [[TWO_PI]]},
        "temperature": 0.025,
        "ecut": 200.0,
        "kgrid": [16],
        "crystal": {
            "mode": "designer",
            "potential": {"family": "cosine", "terms": [{"n": [1], "amplitude": 2.0}]},
            "mu": "mid-gap",
        },
        "response": {"delta": 0.05, "a": 0.5, "kmax": 0.1, "ksamples": 16},
        "macro": {
            "source": {"family": "gaussian", "width": 0.02, "amplitude": 1.0, "mean_free": False},
            "box_lengths": 24.0,
            "grid": 4096,
        },
        "multiscale": {
            "delta_list": [0.125, 0.0625, 0.03125],
            "kappa_prime": kappa_prime,
        },
        "output_dir": output_dir,
        "seed": 0,
        "threads": 1,
    }


def square_config(seed: int, output_dir: str) -> dict:
    """The 2D square crystal phi = a (cos x + cos y), in the CLI schema."""
    p = draw(seed)
    return {
        "lattice": {"basis": [[TWO_PI, 0.0], [0.0, TWO_PI]]},
        "temperature": 0.05,
        "ecut": SQUARE_ECUT,
        "kgrid": [4, 4],
        "crystal": {
            "mode": "designer",
            "potential": {
                "family": "cosine",
                "terms": [
                    {"n": [1, 0], "amplitude": p["amplitude"]},
                    {"n": [0, 1], "amplitude": p["amplitude"]},
                ],
            },
            "mu": "mid-gap",
        },
        "response": {"delta": 0.05, "a": 0.5, "kmax": 0.1, "ksamples": 16},
        "macro": {
            "source": {"family": "gaussian", "width": 0.02, "amplitude": 1.0, "mean_free": False},
            "box_lengths": 24.0,
            "grid": SQUARE_MACRO_GRID,
        },
        "output_dir": output_dir,
        "seed": 0,
        "threads": 1,
    }


def centre_fraction(seed: int) -> float:
    """Per-axis position of the kappa' centre as a fraction of its box."""
    return 0.5 + draw(seed)["centre_offset"] / TWO_PI


def square_samples(seed: int, kmax: float, n: int = SQUARE_SAMPLES_PER_DIRECTION):
    """b(k) fit samples: both reciprocal axes and one seeded off-axis direction.

    Returns (samples, offaxis_unit_vector).
    """
    theta = math.radians(draw(seed)["offaxis_deg"])
    off = np.array([math.cos(theta), math.sin(theta)])
    dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), off]
    samples = []
    for e in dirs:
        for x in kmax * np.geomspace(1.0 / 64.0, 1.0, n):
            samples += [x * e, -x * e]
    return np.array(samples), off
