"""Acceptance suite: the quantitative exit criteria of the library.

Every criterion runs on the 1D reference crystal (phi = 2 cos x on
[0, 2 pi), E_cut = 200, 16-point k-grid unless stated otherwise) at its
stated tolerance and reports one pass/fail line. `run_acceptance` is
wired to the `debye-forge verify` subcommand and to the pytest module
tests/test_acceptance.py.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import response as R
from .config import build_potential
from .fibers import compute_bands
from .lattice import (
    Lattice,
    PeriodicField,
    PlaneWaveBasis,
    SupercellField,
    monkhorst_pack,
)
from .pipeline import first_gap_mu
from .scf import CrystalState, SCFConfig, designer_crystal, scf_solve


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.index:2d} {self.name}: {self.detail} ({self.seconds:.1f}s)"


class MathieuContext:
    """Shared reference crystals, built lazily per inverse temperature."""

    ECUT = 200.0
    NK = 16
    POTENTIAL = {"family": "cosine", "terms": [{"n": [1], "amplitude": 2.0}]}

    def __init__(self):
        self.lattice = Lattice(np.array([[2.0 * np.pi]]))
        self.basis = PlaneWaveBasis(self.lattice, ecut=self.ECUT)
        # the cosine family of configs/mathieu.json: real coefficients, real fibers
        self.phi = build_potential(self.basis, self.POTENTIAL)
        self.kgrid = monkhorst_pack(self.lattice, self.NK)
        bands = compute_bands(self.basis, self.phi, self.kgrid)
        self.mu = float(first_gap_mu(bands))
        self._bands = bands
        self._crystals = {}
        self._epsilon = {}
        self._scf = {}

    def crystal(self, beta) -> CrystalState:
        if beta not in self._crystals:
            self._crystals[beta] = designer_crystal(self.phi, self.mu, 1.0 / beta, self._bands)
        return self._crystals[beta]

    def workspace(self, beta) -> R.ResponseWorkspace:
        return R.ResponseWorkspace.of(self.crystal(beta))

    def epsilon(self, beta):
        """(eps, eps', eps'') from `response.epsilon_matrix`, once per beta."""
        if beta not in self._epsilon:
            self._epsilon[beta] = R.epsilon_matrix(self.workspace(beta))
        return self._epsilon[beta]

    def scf(self, beta):
        """The SCF reconstruction of `crystal(beta)` from its kappa, once per beta."""
        if beta not in self._scf:
            st = self.crystal(beta)
            self._scf[beta] = scf_solve(st.kappa, SCFConfig(), st.occ.T, self.kgrid)
        return self._scf[beta]

    def s_beta(self, beta):
        eta0 = self.crystal(beta).eta0
        return beta * math.exp(-beta * eta0)


def crit_01_prop13_round_trip(ctx: MathieuContext):
    """Designer crystal reconstructed by SCF from phi = 0 to 1e-8."""
    t0 = time.perf_counter()
    scf = ctx.scf(40)
    err = (scf.phi - ctx.phi).l2_norm()
    runtime = time.perf_counter() - t0
    ok = err <= 1e-8 and scf.converged and runtime < 30.0
    return ok, f"||dphi||_L2 = {err:.2e} (<= 1e-8), {runtime:.1f}s (< 30s)"


def crit_02_charge_conservation(ctx):
    """|int rho - int kappa| <= 1e-10 at every SCF iterate."""
    worst = max(ctx.scf(40).charge_history)
    return worst <= 1e-10, f"max per-iterate defect {worst:.2e} (<= 1e-10)"


def crit_03_m_positivity(ctx):
    """lambda_min(M_0) >= -1e-10 ||M_0||."""
    M0 = ctx.workspace(40).m0
    lam = float(np.linalg.eigvalsh(M0).min())
    norm = float(np.linalg.norm(M0, 2))
    return lam >= -1e-10 * norm, f"lambda_min = {lam:.2e}, ||M_0|| = {norm:.2e}"


def crit_04_jacobian_identity(ctx):
    """M_0 matches central differences of the 0-fiber density map,
    Richardson slope 2.0 +- 0.1 on 5 random directions."""
    from .fibers import density_from_potential

    ws = ctx.workspace(40)
    basis = ctx.basis
    M0 = ws.m0
    occ = ws.occ
    kgamma = np.zeros((1, 1))

    def density(phi):
        return density_from_potential(phi, occ, compute_bands(basis, phi, kgamma), tail_tol=1.0)

    rng = np.random.default_rng(7)
    slopes = []
    for _ in range(5):
        c = rng.standard_normal(basis.n_pw) + 1j * rng.standard_normal(basis.n_pw)
        c = 0.5 * (c + np.conj(c[basis.negation_index]))
        c /= np.linalg.norm(c)
        f = PeriodicField(basis, c)
        errs = []
        for h in (2e-3, 1e-3, 5e-4):
            rp = density(PeriodicField(basis, ctx.phi.coeffs + h * c))
            rm = density(PeriodicField(basis, ctx.phi.coeffs - h * c))
            fd = (rp.coeffs - rm.coeffs) / (2 * h)
            errs.append(np.linalg.norm(fd - M0 @ c))
        errs = np.array(errs)
        hs = np.array([2e-3, 1e-3, 5e-4])
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        slopes.append(slope)
    ok = all(abs(s - 2.0) <= 0.1 for s in slopes)
    return ok, "Richardson slopes " + ", ".join(f"{s:.3f}" for s in slopes)


def crit_05_m_bounds(ctx):
    """m >= beta exp(-beta eta0)/4 and m/(beta exp(-beta eta0)) bounded,
    over beta in {5, 10, 20, 40, 60}."""
    ratios = []
    for beta in (5, 10, 20, 40, 60):
        m = R.screening_mass_m(ctx.workspace(beta))
        s = ctx.s_beta(beta)
        ratios.append(m / s)
    lower_ok = all(r >= 0.25 for r in ratios)
    upper_ok = max(ratios) <= 4.0
    return lower_ok and upper_ok, (
        "m/(beta e^{-beta eta0}) in "
        f"[{min(ratios):.3f}, {max(ratios):.3f}] (>= 0.25, <= 4)"
    )


def crit_06_b0_identity(ctx):
    """b(0) equals |Omega|^{-1}(m - <V, Kbar0^{-1} V>) to 1e-9 relative;
    b(k) even to 1e-10."""
    ws = ctx.workspace(40)
    b0 = R.b_function(ws, np.zeros(1))
    closed = R.b0_closed_form(ws, R.screening_mass_m(ws), R.screening_density_V(ws))
    rel = abs(b0 - closed) / abs(b0)
    even = max(
        abs(R.b_function(ws, [k]) - R.b_function(ws, [-k])) for k in (0.03, 0.07, 0.11)
    )
    ok = rel <= 1e-9 and even <= 1e-10
    return ok, f"identity rel {rel:.2e} (<= 1e-9), evenness {even:.2e} (<= 1e-10)"


def crit_07_eps_three_way(ctx):
    """Eigen, contour, and b-fit routes to eps agree pairwise within
    max(1e-6, 10 s_beta kmax^2) at beta = 40, kmax = 0.1."""
    ws = ctx.workspace(40)
    eps_eig = ctx.epsilon(40)[0][0, 0]
    eps_con = R.epsilon_matrix_contour(ws, tol=1e-9)[0, 0]
    kmax = 0.1
    eps_fit = R.fit_b_expansion(ws, R.b_fit_samples(ctx.lattice, kmax, 16))[1][0, 0]
    tol = max(1e-6, 10.0 * ctx.s_beta(40) * kmax**2)
    diffs = {
        "eig-con": abs(eps_eig - eps_con),
        "eig-fit": abs(eps_eig - eps_fit),
        "con-fit": abs(eps_con - eps_fit),
    }
    ok = all(v <= tol for v in diffs.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in diffs.items()) + f" (tol {tol:.1e})"
    return ok, detail


def crit_08_eps_lower_bound(ctx):
    """lambda_min(eps) >= 1 - C s_beta^2 with a stable C over beta in
    {20, 40, 60}. Deficits below the 1e-12 numerical floor count as zero
    (s_beta^2 is ~1e-21 or smaller here, so the content is eps >= 1)."""
    deficits, cs = [], []
    for beta in (20, 40, 60):
        eps = ctx.epsilon(beta)[0]
        lam = float(np.linalg.eigvalsh(eps).min())
        deficit = max(0.0, 1.0 - lam)
        deficits.append(deficit)
        if deficit > 1e-12:
            cs.append(deficit / ctx.s_beta(beta) ** 2)
    if not cs:
        return True, (
            "lambda_min(eps) >= 1 - 1e-12 at all beta (C = 0, trivially stable); "
            f"deficits {['%.1e' % d for d in deficits]}"
        )
    stable = max(cs) <= 1.2 * min(cs)
    ok = stable and all(d <= 1.2 * max(cs) * ctx.s_beta(b) ** 2 for d, b in zip(deficits, (20, 40, 60)))
    return ok, f"fitted C in [{min(cs):.2e}, {max(cs):.2e}] (stability +-20%)"


def crit_09_zero_temperature_limit(ctx):
    """||eps(T) - eps(0)||_max <= 1e-6 once beta eta0 >= 40, and the gap
    to the limit decreases monotonically in beta."""
    eps0 = R.epsilon_zero_temperature(ctx.workspace(40))
    gaps, cold = [], None
    for beta in (20, 40, 60):
        eps = ctx.epsilon(beta)[0]
        gap = float(np.abs(eps - eps0).max())
        gaps.append(gap)
        if beta * ctx.crystal(beta).eta0 >= 40.0:
            cold = gap
    mono = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    ok = mono and cold is not None and cold <= 1e-6
    return ok, (
        f"gaps at beta 20/40/60: {gaps[0]:.2e}/{gaps[1]:.2e}/{gaps[2]:.2e}, "
        f"cold gap {cold:.2e} (<= 1e-6), monotone {mono}"
    )


def crit_10_macro_pb(ctx):
    """1D nu = eps = 1 with a narrow Gaussian: far-field decay 1.0 +- 0.05
    and the energy identity to 1e-10."""
    from .macro import MacroProblem, auto_box, debye_observables, energy_identity_defect, gaussian_source, solve_pb

    box = auto_box(1.0, 1, lengths=24.0)
    src = gaussian_source(box, (4096,), center=[0.5 * box.basis[0, 0]], width=0.02)
    prob = MacroProblem(box=box, nu=1.0, eps=np.array([[1.0]]), source=src)
    psi = solve_pb(prob)
    _, fits = debye_observables(prob, psi)
    rate = fits[0].rate
    edef = energy_identity_defect(prob, psi)
    ok = abs(rate - 1.0) <= 0.05 and edef <= 1e-10 and fits[0].reliable
    return ok, f"decay rate {rate:.4f} (1 +- 0.05), energy defect {edef:.2e} (<= 1e-10)"


def crit_11_multiscale_order(ctx):
    """d = 1, beta = 40, delta in {1/8, 1/16, 1/32}: remainder L2 slope in
    [1.7, 2.5] and ||phi_rem|| < ||delta psi(delta .)|| at delta = 1/32."""
    from .multiscale import multiscale_sweep

    t0 = time.perf_counter()
    # a mean-free Gaussian of amplitude 0.05 delta^2 (the sweep keeps the
    # cubic deformation scaling) centred in the cell
    spec = {"family": "gaussian", "center": [np.pi], "width": 0.35, "amplitude": 0.05,
            "mean_free": True}
    sweep = multiscale_sweep(ctx.crystal(40), [1 / 8, 1 / 16, 1 / 32], spec)
    slope = sweep.l2_slope
    last = sweep.reports[-1].norms
    sub = last["rem_l2"] < last["macro_term_l2"]
    runtime = time.perf_counter() - t0
    ok = 1.7 <= slope <= 2.5 and sub and runtime < 600.0
    return ok, (
        f"L2 slope {slope:.3f} (in [1.7, 2.5]), rem/macro at 1/32 = "
        f"{last['rem_l2'] / last['macro_term_l2']:.3e} (< 1), {runtime:.0f}s (< 600s)"
    )


def crit_12_nonlinearity_quadratic(ctx):
    """||N(t psi)||_L2 scales with slope 2.0 +- 0.1 over t in 1e-1..1e-4."""
    from .multiscale import SupercellSolver, nonlinearity_N

    N = 8
    solver = SupercellSolver(ctx.crystal(40), N)
    shape = (ctx.basis.fft_shape[0] * N,)
    L = 2 * np.pi * N
    x = np.arange(shape[0]) / shape[0] * L
    psi_vals = 0.5 * np.cos(2 * np.pi * x / L) + 0.3 * np.sin(4 * np.pi * x / L)
    psi = SupercellField(ctx.lattice, np.full(1, N), psi_vals)
    ts = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    norms = np.array([nonlinearity_N(solver, psi * t).l2_norm() for t in ts])
    slope = float(np.polyfit(np.log(ts), np.log(norms), 1)[0])
    n0 = nonlinearity_N(solver, psi * 0.0).l2_norm()
    ok = abs(slope - 2.0) <= 0.1 and n0 <= 1e-12
    return ok, f"log-log slope {slope:.3f} (2.0 +- 0.1), N(0) = {n0:.1e}"


def crit_13_bloch_machinery(ctx):
    """Fourier-fiber identity, Bloch round trip, and P A P = b(-i grad) P
    for A = (-Lap + 1)^{-1}, all to 1e-10."""
    from .lattice import SupercellField, bloch_decompose, bloch_reconstruct, low_momentum_project

    rng = np.random.default_rng(3)
    N = 16
    shape = (ctx.basis.fft_shape[0] * N,)
    f = SupercellField(ctx.lattice, np.full(1, N), rng.standard_normal(shape))
    kpts, fibers = bloch_decompose(f)
    # Lemma-style identity: int_Omega f_k = fhat(k)
    ident = max(
        abs(fib.mean() * fib.volume - f.fourier(k)) for k, fib in zip(kpts[:12], fibers[:12])
    )
    rec = bloch_reconstruct(kpts, fibers, ctx.lattice, np.full(1, N), shape)
    round_trip = float(np.abs(rec.values - f.values).max())

    # P_r A P_r = b(-i grad) P_r for A = (-Lap + 1)^{-1}: the direct
    # supercell computation against the fiber-extracted symbol
    # b(k) = <A_k 1>_Omega, with A_k assembled as an actual fiber matrix.
    r = 0.45
    q = f.wavevectors()
    q2 = np.einsum("...i,...i->...", q, q)
    pf = low_momentum_project(f, r)
    lhs_c = pf.coeffs() / (q2 + 1.0)
    lhs_c[q2 > r * r] = 0.0  # outer projection of P_r A P_r

    def fiber_symbol(k):
        kin = ctx.basis.kinetic_diagonal(np.atleast_1d(k))
        Ak = np.linalg.inv(np.diag(kin + 1.0))
        return (Ak[:, 0])[0].real  # <A_k 1>_Omega for the constant mode

    rhs_c = pf.coeffs().copy()
    mask = q2 <= r * r * (1 + 1e-12)
    for idx in np.argwhere(mask):
        kQ = q[tuple(idx)]
        rhs_c[tuple(idx)] *= fiber_symbol(kQ)
    rhs_c[~mask] = 0.0
    pap = float(np.abs(lhs_c - rhs_c).max())
    ok = ident <= 1e-10 and round_trip <= 1e-10 and pap <= 1e-10
    return ok, (
        f"fiber-integral identity {ident:.1e}, round trip {round_trip:.1e}, "
        f"PAP-symbol check {pap:.1e} (all <= 1e-10)"
    )


CRITERIA = [
    ("Prop-1.3 round trip", crit_01_prop13_round_trip),
    ("charge conservation per iterate", crit_02_charge_conservation),
    ("M_0 positivity", crit_03_m_positivity),
    ("Jacobian identity (Richardson)", crit_04_jacobian_identity),
    ("screening mass bounds", crit_05_m_bounds),
    ("b(0) closed form and evenness", crit_06_b0_identity),
    ("eps three-way consistency", crit_07_eps_three_way),
    ("eps lower bound", crit_08_eps_lower_bound),
    ("T -> 0 limit of eps", crit_09_zero_temperature_limit),
    ("macro Poisson-Boltzmann", crit_10_macro_pb),
    ("multiscale remainder order", crit_11_multiscale_order),
    ("nonlinearity quadratic scaling", crit_12_nonlinearity_quadratic),
    ("Bloch machinery identities", crit_13_bloch_machinery),
]

SLOW = {11}


def run_acceptance(quick=False):
    ctx = MathieuContext()
    results = []
    for i, (name, fn) in enumerate(CRITERIA, start=1):
        if quick and i in SLOW:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        res = CriterionResult(
            index=i, name=name, passed=passed, detail=detail,
            seconds=time.perf_counter() - t0,
        )
        results.append(res)
        print(res.line(), flush=True)
    return results
