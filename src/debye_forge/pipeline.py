"""Stage orchestration: crystal -> response -> macro -> multiscale.

The `crystal` stage writes the crystal bundle, and every later stage that
needs the crystal (`bands`, `response`, `multiscale`) reads it from that
bundle (`load_crystal_bundle`), whether the stages run one per process
or several in one `run_pipeline` call.

Each stage hands its data outputs (JSON/CSV/DBYF) to one writer,
`_write_stage`, which writes them and then a manifest with the config
hash, package versions, timings, and a checksum per output. A stage that
fails writes nothing. Data outputs are deterministic byte-for-byte for
identical configs; manifests carry timings and are excluded from that
guarantee.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from . import io as dfio
from .config import (
    build_basis,
    build_macro_source,
    build_potential,
    config_hash,
)
from .fibers import compute_bands
from .lattice import PeriodicField, delta_factor, monkhorst_pack
from .occupation import OccupationModel
from .scf import CrystalState, SCFConfig, designer_crystal, scf_solve

__all__ = ["run_pipeline", "StageError", "load_crystal_bundle", "first_gap_mu"]


class StageError(RuntimeError):
    def __init__(self, message, exit_code=3):
        super().__init__(message)
        self.exit_code = exit_code


def first_gap_mu(bands):
    """Midpoint of the lowest spectral gap of the sampled bands."""
    lo, hi = bands.band_ranges()
    for n in range(len(lo) - 1):
        if lo[n + 1] > hi[n] + 1e-12:
            return 0.5 * (hi[n] + lo[n + 1])
    raise StageError("no spectral gap found; cannot place mu mid-gap")


def _write_stage(cfg, name, timer, outputs):
    """Write a stage's outputs into `<output_dir>/<name>`, then its manifest.

    `outputs` maps each file name to its content: a JSON object for
    `.json`, a `(header, rows)` pair for `.csv`, an array for `.dbyf`.
    The files that the directory's previous manifest lists and this run
    does not write are deleted, so that no output of an earlier run is
    left beside a manifest that does not list it; no other file is
    touched.
    """
    out = os.path.join(cfg["output_dir"], name)
    os.makedirs(out, exist_ok=True)
    manifest = os.path.join(out, "manifest.json")
    listed = dfio.load_json(manifest)["outputs"] if os.path.exists(manifest) else {}
    paths = []
    for fname, data in outputs.items():
        path = os.path.join(out, fname)
        ext = os.path.splitext(fname)[1]
        if ext == ".json":
            dfio.dump_json(path, data)
        elif ext == ".csv":
            dfio.write_csv(path, *data)
        else:
            dfio.write_field(path, data)
        paths.append(path)
    for fname in listed:
        # a manifest lists base names only; anything else is not its output
        if fname not in outputs and os.path.basename(fname) == fname:
            stale = os.path.join(out, fname)
            if os.path.isfile(stale):
                os.remove(stale)
    dfio.write_manifest(out, config_hash(cfg), paths, {name: timer.elapsed()})


def run_crystal(cfg):
    timer = dfio.StageTimer()
    basis = build_basis(cfg)
    T = cfg["temperature"]
    kgrid = monkhorst_pack(basis.lattice, cfg["kgrid"])
    ccfg = cfg["crystal"]
    threads = cfg["threads"]

    if ccfg["mode"] == "designer":
        phi = build_potential(basis, ccfg["potential"])
        bands = compute_bands(basis, phi, kgrid, threads)
        mu = ccfg["mu"]
        if mu == "mid-gap":
            mu = first_gap_mu(bands)
        state = designer_crystal(phi, mu, T, bands)
    else:
        if "kappa" not in ccfg:
            raise StageError("scf mode requires a crystal/kappa spec", exit_code=2)
        kappa = build_potential(basis, ccfg["kappa"])
        scf_cfg = SCFConfig(**ccfg["scf"])
        mu = None if ccfg["mu"] == "mid-gap" else ccfg["mu"]
        state = scf_solve(kappa, scf_cfg, T, kgrid, mu=mu, threads=threads)

    _write_stage(cfg, "crystal", timer, {
        "kappa.dbyf": state.kappa.values(),
        "rho.dbyf": state.rho.values(),
        "phi.dbyf": state.phi.values(),
        "state.json": {
            "lattice_basis": state.basis.lattice.basis,
            "ecut": state.basis.ecut,
            "kgrid": cfg["kgrid"],
            "temperature": T,
            "mu": state.mu,
            "eta": state.eta,
            "eta0": state.eta0,
            "in_gap": state.gap.in_gap,
            "dielectric_flag": state.dielectric_flag,
            "converged": state.converged,
            "inversion_symmetric": all(
                f.inversion_symmetric for f in (state.phi, state.rho, state.kappa)),
            "residual_history": state.residual_history,
            "charge_history": state.charge_history,
            "lambda_per": state.lambda_per(),
            "poisson_defect": state.poisson_defect(),
            "charge_defect": state.charge_defect(),
        },
    })
    return state


def load_crystal_bundle(cfg):
    """The crystal state that the `crystal` stage wrote, on the config's basis,
    k-grid and temperature; a bundle written with others, one whose
    state.json lacks a key that the stage writes, or one with a field file
    that does not read as a real grid, is refused (exit 2).

    Its gap and `dielectric_flag` are derived again from the loaded phi,
    mu and `converged` (`CrystalState`); the stored flag is only required.
    When state.json says `inversion_symmetric`, the imaginary parts that
    the grid round trip adds to the coefficients of phi, rho and kappa
    (about 1e-17) are dropped, so the loaded crystal keeps real fibers.
    """
    out = cfg.get("_crystal_bundle") or os.path.join(cfg["output_dir"], "crystal")
    spath = os.path.join(out, "state.json")
    if not os.path.exists(spath) or not os.path.exists(os.path.join(out, "manifest.json")):
        raise StageError(
            "crystal bundle missing; run the 'crystal' stage first", exit_code=2
        )
    meta = dfio.load_json(spath)
    for key in ("lattice_basis", "ecut", "kgrid", "temperature", "mu", "converged",
                "dielectric_flag", "inversion_symmetric", "residual_history",
                "charge_history"):
        if key not in meta:
            raise StageError(f"crystal bundle {out} lacks {key!r} in state.json; "
                             "rerun the 'crystal' stage", exit_code=2)
    basis = build_basis(cfg)
    for key, want in (("lattice_basis", basis.lattice.basis.tolist()), ("ecut", cfg["ecut"]),
                      ("kgrid", cfg["kgrid"]), ("temperature", cfg["temperature"])):
        if meta[key] != want:
            raise StageError(f"crystal bundle {out} has {key} {meta[key]}, the config {want}; "
                             "rerun the 'crystal' stage", exit_code=2)
    kgrid = monkhorst_pack(basis.lattice, cfg["kgrid"])
    fields = {}
    for name in ("kappa", "rho", "phi"):
        path = os.path.join(out, f"{name}.dbyf")
        try:
            f = PeriodicField.from_grid(basis, dfio.read_field(path))
        except ValueError as exc:
            raise StageError(f"crystal bundle field {path}: {exc}; rerun the 'crystal' stage",
                             exit_code=2) from None
        if meta["inversion_symmetric"]:
            f = PeriodicField(basis, f.coeffs.real)
        fields[name] = f
    return CrystalState(
        kappa=fields["kappa"],
        rho=fields["rho"],
        phi=fields["phi"],
        occ=OccupationModel(T=cfg["temperature"], mu=meta["mu"]),
        bands=compute_bands(basis, fields["phi"], kgrid, cfg["threads"]),
        residual_history=meta["residual_history"],
        charge_history=meta["charge_history"],
        converged=meta["converged"],
    )


def run_bands(cfg):
    timer = dfio.StageTimer()
    state = load_crystal_bundle(cfg)
    bands = state.bands
    header = [f"k{i}" for i in range(state.basis.d)] + [
        f"e{n}" for n in range(bands.eigenvalues.shape[1])
    ]
    rows = [
        list(bands.k_points[i]) + list(bands.eigenvalues[i]) for i in range(bands.nk)
    ]
    _write_stage(cfg, "bands", timer, {
        "bands.csv": (header, rows),
        "gap.json": {
            "mu": state.mu,
            "eta": state.eta,
            "eta0": state.eta0,
            "edge_below": state.gap.edge_below,
            "edge_above": state.gap.edge_above,
            "in_gap": state.gap.in_gap,
        },
    })


def run_response(cfg):
    from .response import (ResponseWorkspace, _b_fit, b0_closed_form, b_fit_samples,
                           b_samples, homogenized_coefficients)

    timer = dfio.StageTimer()
    state = load_crystal_bundle(cfg)
    rcfg = cfg["response"]
    ws = ResponseWorkspace.of(state)
    coeffs = homogenized_coefficients(ws, rcfg["delta"], state.eta0)
    samples, solve_fit = _b_fit(
        ws, b_fit_samples(state.basis.lattice, rcfg["kmax"], rcfg["ksamples"])
    )
    b = b_samples(ws, samples)
    b0_fit, eps_fit, quart = solve_fit(b)

    s_beta = coeffs.s_beta
    b0_closed = b0_closed_form(ws, coeffs.m, coeffs.V)
    bound_checks = {
        "m_lower_quarter_beta_exp": {
            "m": coeffs.m,
            "bound": 0.25 * s_beta,
            "ok": bool(coeffs.m >= 0.25 * s_beta),
        },
        "eps_symmetric": bool(
            np.abs(coeffs.eps - coeffs.eps.T).max() <= 1e-10
        ),
        "eps_lower": {
            "lambda_min": float(np.linalg.eigvalsh(coeffs.eps).min()),
            "bound": 1.0 - max(s_beta**2, 1e-12),
        },
        "b0_identity_rel": abs(coeffs.b0 - b0_closed) / max(abs(coeffs.b0), 1e-300),
    }
    _write_stage(cfg, "response", timer, {
        "b_samples.csv": (
            [f"k{i}" for i in range(state.basis.d)] + ["b"],
            [list(k) + [bk] for k, bk in zip(samples, b)],
        ),
        "response.json": {
            "delta": coeffs.delta,
            "m": coeffs.m,
            "b0": coeffs.b0,
            "nu": coeffs.nu,
            "debye_length": coeffs.debye_length,
            "eps": coeffs.eps,
            "eps_prime": coeffs.eps_prime,
            "eps_dprime": coeffs.eps_dprime,
            "eps_fit": eps_fit,
            "b0_fit": b0_fit,
            "quartic_residual": quart,
            "c_T": coeffs.c_T,
            "s_beta": coeffs.s_beta,
            "zeta": coeffs.zeta,
            "theta": coeffs.theta,
            "regime": coeffs.regime_ok,
            "bound_checks": bound_checks,
        },
    })
    return coeffs


def run_macro(cfg):
    from .macro import MacroProblem, auto_box, debye_observables, energy_identity_defect, solve_pb

    timer = dfio.StageTimer()
    mcfg = cfg["macro"]
    nu, eps = mcfg["nu"], mcfg["eps"]
    if nu is None or eps is None:
        rpath = os.path.join(cfg["output_dir"], "response", "response.json")
        if not os.path.exists(rpath):
            raise StageError(
                "macro needs nu/eps from the 'response' stage or literal values",
                exit_code=2,
            )
        rj = dfio.load_json(rpath)
        nu = rj["nu"] if nu is None else nu
        eps = rj["eps"] if eps is None else eps
    eps = np.atleast_2d(np.asarray(eps, dtype=float))
    d = eps.shape[0]
    box = auto_box(nu, d, mcfg["box_lengths"])
    shape = (mcfg["grid"],) * d
    src = build_macro_source(box, shape, mcfg["source"])
    prob = MacroProblem(box=box, nu=nu, eps=eps, source=src)
    psi = solve_pb(prob)
    debye, fits = debye_observables(prob, psi)

    # radial profile along the first axis through the source center
    x = psi.grid_points()
    center = np.asarray(mcfg["source"].get("center") or 0.5 * box.basis.sum(axis=0))
    r = np.einsum("...i,i->...", x - center, np.eye(d)[0])
    _write_stage(cfg, "macro", timer, {
        "psi.dbyf": psi.values,
        "profile.csv": (["r", "abs_psi"], sorted(zip(r.ravel(), np.abs(psi.values).ravel()))),
        "macro.json": {
            "nu": nu,
            "eps": eps,
            "debye_length": debye,
            "energy_identity_defect": energy_identity_defect(prob, psi),
            "decay_fits": [
                {
                    "axis": f.axis,
                    "rate": f.rate,
                    "expected": f.expected,
                    "rel_error": f.rel_error,
                    "reliable": f.reliable,
                }
                for f in fits
            ],
        },
    })
    return fits


def run_multiscale(cfg, strict_regime=False):
    from .multiscale import multiscale_sweep

    timer = dfio.StageTimer()
    state = load_crystal_bundle(cfg)
    mcfg = cfg["multiscale"]
    sweep = multiscale_sweep(state, mcfg["delta_list"], mcfg["kappa_prime"])

    outputs = {}
    rows = []
    for coeffs, ceff, rep in zip(sweep.coeffs, sweep.effective, sweep.reports):
        delta = coeffs.delta
        regime_flags = coeffs.regime_ok
        if not all(regime_flags.values()):
            if strict_regime:
                raise StageError(
                    f"regime conditions violated at delta={delta}: {regime_flags}",
                    exit_code=4,
                )
            warnings.warn(f"regime conditions violated: {regime_flags}")
        status = rep.newton["status"]
        if strict_regime and status != "converged":
            raise StageError(f"Newton status {status!r} at delta={delta}", exit_code=4)
        outputs[f"multiscale_N{delta_factor(delta)}.json"] = {
            "delta": delta,
            "nu_effective": ceff.nu,
            "eps_effective": ceff.eps,
            "nu_single_fiber": coeffs.nu,
            "eps_single_fiber": coeffs.eps,
            "norms": rep.norms,
            "momentum_split": rep.momentum_split,
            "newton": rep.newton,
            "regime": regime_flags,
        }
        rows.append(
            [delta, rep.norms["rem_l2"], rep.norms["rem_h1"], rep.norms["rem_zeta"],
             rep.norms["macro_term_l2"]]
        )
    outputs["order_fit.csv"] = (["delta", "rem_l2", "rem_h1", "rem_zeta", "macro_term_l2"], rows)
    outputs["order.json"] = {"l2_slope": sweep.l2_slope, "deltas": [r[0] for r in rows]}
    _write_stage(cfg, "multiscale", timer, outputs)
    return sweep.l2_slope


_ORDER = ["crystal", "bands", "response", "macro", "multiscale"]


def run_pipeline(cfg, stages, strict_regime=False):
    """Run the requested stages in dependency order; each reads what an
    earlier one wrote from the output directory."""
    os.makedirs(cfg["output_dir"], exist_ok=True)
    for name in _ORDER:
        if name not in stages:
            continue
        if name == "crystal":
            run_crystal(cfg)
        elif name == "bands":
            run_bands(cfg)
        elif name == "response":
            run_response(cfg)
        elif name == "macro":
            run_macro(cfg)
        elif name == "multiscale":
            run_multiscale(cfg, strict_regime=strict_regime)
    return 0
