"""Correctness checks of each workload's outputs.

Each check recomputes what it can from the raw outputs with its own code
(a least-squares fit of the b(k) samples, a decay fit and an energy
identity on the psi grid, the order fit of the remainder norms), or
tests a property the method must have. None compares against a stored
copy. Every check returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import struct
from pathlib import Path

import numpy as np

EPS_FIT_TOL = 1e-6          # eigen eps against the b(k)-fit eps
DECAY_REL_TOL = 0.05        # macro decay rate against sqrt(nu / eps)
ENERGY_TOL = 1e-10          # <psi, kappa'> = nu |psi|^2 + <grad psi, eps grad psi>
SLOPE_BAND = (1.7, 2.5)     # multiscale remainder L2 order
ROUND_TRIP_TOL = 1e-8       # designer phi against the SCF solution
M0_V_TOL = 1e-13            # M_0 1 = V
EVEN_TOL = 1e-12            # b(k) = b(-k)
SYMMETRY_TOL = 1e-9         # eps_xx = eps_yy (relative), eps_xy = 0


# -- readers (independent of debye_forge.io) ------------------------------------------


def read_dbyf(path):
    """The DBYF layout of the README: magic, version, kind, d, shape, float64."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"DBYF":
        raise ValueError(f"{path}: not a DBYF file")
    _, kind, d = struct.unpack("<III", raw[4:16])
    shape = struct.unpack(f"<{d}I", raw[16:16 + 4 * d])
    data = np.frombuffer(raw[16 + 4 * d:], dtype="<f8")
    if kind == 1:
        data = data[0::2] + 1j * data[1::2]
    return data.reshape(shape)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def data_digest(out_dir):
    """sha256 of every data output under out_dir; manifests carry timings."""
    out_dir = Path(out_dir)
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


# -- independent computations ---------------------------------------------------------


def fit_quadratic_1d(k, b):
    """eps from b(k) ~ b0 + eps k^2 + c k^4, weighted toward small |k|."""
    k2 = k * k
    X = np.stack([np.ones_like(k2), k2, k2 * k2], axis=1)
    w = 1.0 / np.maximum(k2, 1e-300) ** 1.5
    Xw = X * w[:, None]
    scale = np.linalg.norm(Xw, axis=0)
    coef, *_ = np.linalg.lstsq(Xw / scale, b * w, rcond=None)
    return float(coef[1] / scale[1])


def gaussian_source_1d(length, n, centre, width, amplitude=1.0):
    """Periodic Gaussian on the grid x_i = i L / n, nearest images summed."""
    x = np.arange(n) * (length / n)
    vals = sum(np.exp(-0.5 * (x - centre - s * length) ** 2 / width**2) for s in (-1, 0, 1))
    return vals * amplitude / (math.sqrt(2.0 * math.pi) * width)


def energy_defect(psi, source, spacing, nu, eps):
    """Relative defect of the energy identity on a periodic grid (any d)."""
    psi = np.asarray(psi, dtype=float)
    dv = float(np.prod(spacing))
    lhs = float(np.sum(psi * source)) * dv
    c = np.fft.fftn(psi)
    xi = np.meshgrid(*(2 * np.pi * np.fft.fftfreq(n, d=h) for n, h in zip(psi.shape, spacing)),
                     indexing="ij")
    quad = sum(eps[i][j] * xi[i] * xi[j] for i in range(psi.ndim) for j in range(psi.ndim))
    rhs = float(np.sum((nu + quad) * np.abs(c) ** 2)) * dv / psi.size
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def decay_rate_1d(psi, length):
    """Far-field exponential rate of |psi| on the right of its peak."""
    n = psi.size
    h = length / n
    peak = int(np.argmax(np.abs(psi)))
    r = np.arange(n) * h
    vals = np.abs(np.roll(psi, -peak))
    half = 0.5 * length
    sel = (r > 0.15 * half) & (r < 0.85 * half) & (vals > 1e-280)
    return -float(np.polyfit(r[sel], np.log(vals[sel]), 1)[0])


def order_slope(deltas, rem):
    return float(np.polyfit(np.log(deltas), np.log(rem), 1)[0])


# -- workload checks ----------------------------------------------------------------------


def check_mathieu(out_dir, cfg):
    """The five-stage chain on the 1D crystal: see README for each line."""
    out = Path(out_dir)
    errs = []
    resp = json.loads((out / "response" / "response.json").read_text())
    gap = json.loads((out / "bands" / "gap.json").read_text())
    eps = resp["eps"][0][0]
    nu = resp["nu"]

    _, samples = read_csv(out / "response" / "b_samples.csv")
    eps_own = fit_quadratic_1d(samples[:, 0], samples[:, 1])
    for label, val in (("own b(k) fit", eps_own), ("program b(k) fit", resp["eps_fit"][0][0])):
        if not abs(val - eps) <= EPS_FIT_TOL:
            errs.append(f"eps {eps!r} and the {label} {val!r} differ by more than {EPS_FIT_TOL}")

    T = cfg["temperature"]
    s_beta = math.exp(-gap["eta0"] / T) / T
    if not 0.25 * s_beta <= resp["m"] <= 4.0 * s_beta:
        errs.append(f"m = {resp['m']!r} outside [s_beta/4, 4 s_beta], s_beta = {s_beta!r}")

    mcfg = cfg["macro"]
    psi = read_dbyf(out / "macro" / "psi.dbyf")
    length = mcfg["box_lengths"] / math.sqrt(nu)
    expected = math.sqrt(nu / eps)
    rate = decay_rate_1d(psi, length)
    if not abs(rate / expected - 1.0) <= DECAY_REL_TOL:
        errs.append(f"decay rate {rate!r} not within {DECAY_REL_TOL} of sqrt(nu/eps) = {expected!r}")
    src = mcfg["source"]
    centre = src.get("center") or [0.5 * length]
    source = gaussian_source_1d(length, psi.size, centre[0], src["width"], src.get("amplitude", 1.0))
    defect = energy_defect(psi, source, [length / psi.size], nu, [[eps]])
    if not defect <= ENERGY_TOL:
        errs.append(f"energy identity defect {defect:.3e} > {ENERGY_TOL}")

    _, rows = read_csv(out / "multiscale" / "order_fit.csv")
    slope = order_slope(rows[:, 0], rows[:, 1])
    if not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]:
        errs.append(f"remainder L2 slope {slope:.4f} outside {list(SLOPE_BAND)}")
    smallest = int(np.argmin(rows[:, 0]))
    if not rows[smallest, 1] < rows[smallest, 4]:
        errs.append("remainder not below the macro term at the smallest delta")
    return errs


def check_square(res):
    """The 2D coefficient extraction; `res` holds arrays of one round."""
    errs = []
    diff = np.asarray(res["scf_phi"]) - np.asarray(res["phi"])
    err = math.sqrt(res["volume"] * float(np.sum(np.abs(diff) ** 2)))
    if not (res["scf_converged"] and err <= ROUND_TRIP_TOL):
        errs.append(f"SCF round trip |dphi|_L2 = {err:.3e} (converged {res['scf_converged']})")

    eps = np.asarray(res["eps"])
    if not np.abs(eps - eps.T).max() <= 1e-10:
        errs.append("eps is not symmetric")
    if not abs(eps[0, 0] - eps[1, 1]) <= SYMMETRY_TOL * abs(eps[0, 0]):
        errs.append(f"eps_xx {eps[0, 0]!r} != eps_yy {eps[1, 1]!r}")
    if not abs(eps[0, 1]) <= SYMMETRY_TOL:
        errs.append(f"eps_xy = {eps[0, 1]!r} is not zero")
    if not np.linalg.eigvalsh(0.5 * (eps + eps.T)).min() >= 1.0:
        errs.append("eps has an eigenvalue below 1")

    fit_err = float(np.abs(np.asarray(res["eps_fit"]) - eps).max())
    if not fit_err <= EPS_FIT_TOL:
        errs.append(f"b(k)-fit eps differs from the eigen eps by {fit_err:.3e}")

    m0v = float(np.abs(np.asarray(res["m0_col"]) - np.asarray(res["v_coeffs"])).max())
    if not m0v <= M0_V_TOL:
        errs.append(f"M_0 1 - V = {m0v:.3e}")
    if not abs(res["b_plus"] - res["b_minus"]) <= EVEN_TOL:
        errs.append(f"b(k) - b(-k) = {res['b_plus'] - res['b_minus']:.3e}")

    psi = np.asarray(res["psi"])
    defect = energy_defect(psi, np.asarray(res["source"]), res["spacing"], res["nu"], eps)
    if not defect <= ENERGY_TOL:
        errs.append(f"macro energy identity defect {defect:.3e} > {ENERGY_TOL}")
    return errs


_LINE = re.compile(r"^\[(PASS|FAIL)\]\s+(\d+) ")
QUICK_CRITERIA = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13}


def check_verify(lines):
    """`debye-forge verify --quick` prints one PASS line per criterion."""
    errs = []
    seen = set()
    for line in lines:
        m = _LINE.match(line)
        if not m:
            continue
        seen.add(int(m.group(2)))
        if m.group(1) != "PASS":
            errs.append(line)
    if seen != QUICK_CRITERIA:
        errs.append(f"criteria reported {sorted(seen)}, expected {sorted(QUICK_CRITERIA)}")
    return errs


_RUNTIME = re.compile(r"[\d.]+s \(< [\d.]+s\)|\([\d.]+s\)$")


def verify_digest(lines):
    """The criterion lines without their wall times, for pass-to-pass equality."""
    text = "\n".join(_RUNTIME.sub("", l) for l in lines if _LINE.match(l))
    return hashlib.sha256(text.encode()).hexdigest()
