"""Layer spans recorded from outside debye_forge.

`install` wraps public functions of the package modules, and the private
table builders and pair-block contraction that the index-table and
pair-block metrics need, with timing wrappers. It adds nothing inside
``src/``. Two rules keep the wrapped program computing exactly what the
unwrapped one computes:

* A module that imported a function by name holds its own reference, so
  the wrapper replaces the function in every ``debye_forge`` namespace that
  holds it (``multiscale`` imports ``m_fiber_averaged`` this way).
* ``response.m_fiber`` is never replaced: ``b_function`` dispatches on
  ``fiber is m_fiber`` against its default argument, and a replaced module
  attribute would send it down the averaged-fiber branch.

Spans are kept in memory as ``[name, parent, start, end, attrs]`` and
written out at the end of the run. Start and end are process CPU seconds,
like the end-to-end times. The program runs single-threaded here
(``threads = 1``), so one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np


class Recorder:
    """In-memory spans with parents, plus per-name counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.process_time(), None, None])
        self._stack.append(idx)
        return idx

    def close(self, idx, attrs=None):
        self.spans[idx][3] = time.process_time()
        if attrs is not None:
            self.spans[idx][4] = attrs
        self._stack.pop()

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value


# -- per-call attributes -------------------------------------------------------


def _gather_attrs(args, kwargs, out):
    u_row = args[1] if len(args) > 1 else kwargs["U_row"]
    n_pw = u_row.shape[0]
    # rows = pad[tab] in shift_overlap_tensor: (n_pw, n_pw, n_bands) complex
    return {"gather_bytes": n_pw * n_pw * u_row.shape[1] * u_row.dtype.itemsize}


def _dd_attrs(kernel):
    def attrs(args, kwargs, out):
        a = np.abs(out)
        top = float(a.max()) if a.size else 0.0
        return {"kernel": kernel, "size": int(a.size),
                "useful": int(np.count_nonzero(a > 1e-16 * top))}

    return attrs


def _momentum_attrs(args, kwargs, out):
    k = np.atleast_1d(np.asarray(args[1] if len(args) > 1 else kwargs["k"], dtype=float))
    return {"k": tuple(np.round(k, 12).tolist())}


def _scf_attrs(args, kwargs, out):
    return {"iterations": len(out.residual_history)}


def _write_attrs(args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _newton_attrs(args, kwargs, out):
    info = out[2]
    return {"iterations": int(info["iterations"]),
            "relative_residual": float(info.get("relative_residual", 0.0))}


# -- targets -----------------------------------------------------------------------
# (module, attribute, span name or None for an observer without a span, attrs)

TARGETS = [
    ("debye_forge.lattice", "PlaneWaveBasis.__init__", "lattice.basis", None),
    ("debye_forge.fibers", "_difference_table", "fibers.index_tables", None),
    ("debye_forge.fibers", "_shift_table", "fibers.index_tables", None),
    ("debye_forge.fibers", "diagonalize_fiber", "fibers.diagonalize_fiber", None),
    ("debye_forge.fibers", "shift_overlap_tensor", "fibers.shift_overlap_tensor", _gather_attrs),
    ("debye_forge.fibers", "density_from_potential", "fibers.density_from_potential", None),
    ("debye_forge.fibers", "contour_quadrature", "fibers.contour_quadrature", None),
    ("debye_forge.kernels", "dd1_matrix", "kernels.dd_weights", _dd_attrs("dd1")),
    ("debye_forge.kernels", "dd2_matrix", "kernels.dd_weights", _dd_attrs("dd2")),
    ("debye_forge.kernels", "dd3_matrix", "kernels.dd_weights", _dd_attrs("dd3")),
    ("debye_forge.response", "_pair_block", "response.pair_block", None),
    ("debye_forge.response", "b_function", "response.b_function", _momentum_attrs),
    ("debye_forge.response", "homogenized_coefficients", "response.homogenized_coefficients", None),
    ("debye_forge.response", "m_fiber_averaged", "response.m_fiber_averaged", None),
    ("debye_forge.scf", "scf_solve", "scf.scf_solve", _scf_attrs),
    ("debye_forge.scf", "solve_chemical_potential", "scf.solve_chemical_potential", None),
    ("debye_forge.multiscale", "SupercellSolver.density", "multiscale.supercell_density", None),
    ("debye_forge.multiscale", "SupercellSolver.jacobian_blocks", "multiscale.jacobian_blocks", None),
    ("debye_forge.multiscale", "SupercellSolver.solve_jacobian", "multiscale.solve_jacobian", None),
    ("debye_forge.multiscale", "micro_solve_perturbation", None, _newton_attrs),
    ("debye_forge.multiscale", "effective_coefficients", "multiscale.effective_coefficients", None),
    ("debye_forge.multiscale", "expansion_decompose", "multiscale.expansion_decompose", None),
    ("debye_forge.macro", "solve_pb", "macro.solve_pb", None),
    ("debye_forge.macro", "debye_observables", "macro.debye_observables", None),
    ("debye_forge.io", "write_field", "io.write", _write_attrs),
    ("debye_forge.io", "dump_json", "io.write", _write_attrs),
    ("debye_forge.io", "write_csv", "io.write", _write_attrs),
    ("debye_forge.io", "write_manifest", "io.write", None),
]


def _span_wrapper(rec, name, fn, attrs_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, {"raised": True})
            raise
        rec.close(idx)
        if attrs_fn is not None:
            rec.spans[idx][4] = attrs_fn(args, kwargs, out)
        return out

    return wrapper


def _observer(rec, key, fn, attrs_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        for field, value in attrs_fn(args, kwargs, out).items():
            rec.count(f"{key}.{field}", value)
        rec.count(f"{key}.calls")
        return out

    return wrapper


def _contour_wrapper(rec, fn):
    """Counts integrand evaluations (contour nodes) of each quadrature."""

    @functools.wraps(fn)
    def wrapper(integrand, *args, **kwargs):
        nodes = [0]

        def counted(z):
            nodes[0] += 1
            return integrand(z)

        idx = rec.open("fibers.contour_quadrature")
        try:
            out = fn(counted, *args, **kwargs)
        finally:
            rec.close(idx, {"nodes": nodes[0]})
        return out

    return wrapper


def _shift_overlap_wrapper(rec, fn, attrs_fn):
    """Times the offset-table build of a zone-wrapped pair on its own.

    shift_overlap_tensor builds and caches the table for a new umklapp
    offset inline. On a cache miss the wrapper first calls it with
    one-column slices, which builds the same table under the
    ``fibers.index_tables`` span; the real call then finds it cached.
    The outputs are unchanged.
    """
    timed = _span_wrapper(rec, "fibers.shift_overlap_tensor", fn, attrs_fn)

    @functools.wraps(fn)
    def wrapper(basis, U_row, U_col, offset=None):
        if offset is not None and np.any(np.asarray(offset) != 0):
            key = tuple(int(x) for x in np.atleast_1d(offset))
            if key not in getattr(basis, "_shift_tab_offsets", {}):
                idx = rec.open("fibers.index_tables")
                try:
                    fn(basis, U_row[:, :1], U_col[:, :1], offset=offset)
                finally:
                    rec.close(idx)
        return timed(basis, U_row, U_col, offset=offset)

    return wrapper


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "debye_forge" or n.startswith("debye_forge."))]


def install(rec):
    """Wrap every target; returns the undo list for `uninstall`."""
    undo = []
    modules = _package_modules()
    for modname, attr, name, attrs_fn in TARGETS:
        mod = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, _span_wrapper(rec, name, orig, attrs_fn))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(mod, attr)
        if name is None:
            wrapped = _observer(rec, "multiscale.newton", orig, attrs_fn)
        elif attr == "contour_quadrature":
            wrapped = _contour_wrapper(rec, orig)
        elif attr == "shift_overlap_tensor":
            wrapped = _shift_overlap_wrapper(rec, orig, attrs_fn)
        else:
            wrapped = _span_wrapper(rec, name, orig, attrs_fn)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
                    undo.append((m, key, orig))
    return undo


def uninstall(undo):
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)


# -- metrics -----------------------------------------------------------------------
# (name, unit, better); BENCHMARK.json lists the same metrics in this order.

PER_LAYER = [
    ("lattice.basis.s", "s", "lower"),
    ("fibers.diagonalize_fiber.calls", "count", "lower"),
    ("fibers.diagonalize_fiber.s", "s", "lower"),
    ("fibers.shift_overlap_tensor.calls", "count", "lower"),
    ("fibers.shift_overlap_tensor.s", "s", "lower"),
    ("fibers.shift_overlap_tensor.gather_mb", "MB", "lower"),
    ("fibers.index_tables.s", "s", "lower"),
    ("fibers.density_from_potential.calls", "count", "lower"),
    ("fibers.density_from_potential.s", "s", "lower"),
    ("fibers.contour_quadrature.calls", "count", "lower"),
    ("fibers.contour_quadrature.s", "s", "lower"),
    ("fibers.contour_quadrature.nodes", "count", "lower"),
    ("kernels.dd_weights.calls", "count", "lower"),
    ("kernels.dd_weights.s", "s", "lower"),
    ("kernels.dd_weights.useful_ratio", "ratio", "higher"),
    ("response.pair_block.calls", "count", "lower"),
    ("response.b_function.calls", "count", "lower"),
    ("response.b_function.s", "s", "lower"),
    ("response.b_function.distinct_ratio", "ratio", "higher"),
    ("response.homogenized_coefficients.calls", "count", "lower"),
    ("response.homogenized_coefficients.s", "s", "lower"),
    ("response.m_fiber_averaged.calls", "count", "lower"),
    ("response.m_fiber_averaged.s", "s", "lower"),
    ("scf.scf_solve.s", "s", "lower"),
    ("scf.scf_solve.iterations", "count", "lower"),
    ("scf.solve_chemical_potential.calls", "count", "lower"),
    ("scf.solve_chemical_potential.s", "s", "lower"),
    ("multiscale.supercell_density.calls", "count", "lower"),
    ("multiscale.supercell_density.s", "s", "lower"),
    ("multiscale.jacobian_blocks.s", "s", "lower"),
    ("multiscale.solve_jacobian.calls", "count", "lower"),
    ("multiscale.solve_jacobian.s", "s", "lower"),
    ("multiscale.newton_iterations", "count", "lower"),
    ("multiscale.effective_coefficients.s", "s", "lower"),
    ("multiscale.expansion_decompose.s", "s", "lower"),
    ("macro.solve_pb.s", "s", "lower"),
    ("macro.debye_observables.s", "s", "lower"),
    ("io.write.s", "s", "lower"),
    ("io.write.bytes", "bytes", "lower"),
    ("pipeline.crystal_s", "s", "lower"),
    ("pipeline.response_s", "s", "lower"),
    ("pipeline.macro_multiscale_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.total_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


# -- summaries ---------------------------------------------------------------------


def _outermost(spans, name):
    """Spans called `name` with no ancestor of the same name (no double count)."""
    out = []
    for i, s in enumerate(spans):
        if s[0] != name:
            continue
        p = s[1]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            out.append(i)
    return out


def layer_totals(spans, name, within=None):
    """(calls, seconds, attrs list) of one layer, optionally under one span."""
    def inside(i):
        if within is None:
            return True
        p = spans[i][1]
        while p >= 0:
            if p == within:
                return True
            p = spans[p][1]
        return False

    calls = [i for i, s in enumerate(spans) if s[0] == name and inside(i)]
    secs = sum(spans[i][3] - spans[i][2] for i in _outermost(spans, name) if inside(i))
    return len(calls), secs, [spans[i][4] or {} for i in calls]


def top_level_share(spans, op_indices):
    """Share of the ops' time covered by their direct child layer spans."""
    total = sum(spans[i][3] - spans[i][2] for i in op_indices)
    covered = 0.0
    ops = set(op_indices)
    for s in spans:
        if s[1] in ops and not s[0].startswith("op:"):
            covered += s[3] - s[2]
    return covered / total if total > 0 else 0.0


def layer_metrics(rec):
    """The per-layer metrics of one traced round."""
    spans = rec.spans
    m = {}

    def calls_s(name, key=None):
        n, secs, attrs = layer_totals(spans, name)
        key = key or name
        m[f"{key}.calls"] = n
        m[f"{key}.s"] = secs
        return attrs

    _, m["lattice.basis.s"], _ = layer_totals(spans, "lattice.basis")
    calls_s("fibers.diagonalize_fiber")
    attrs = calls_s("fibers.shift_overlap_tensor")
    m["fibers.shift_overlap_tensor.gather_mb"] = sum(a["gather_bytes"] for a in attrs) / 1e6
    _, m["fibers.index_tables.s"], _ = layer_totals(spans, "fibers.index_tables")
    calls_s("fibers.density_from_potential")
    attrs = calls_s("fibers.contour_quadrature")
    m["fibers.contour_quadrature.nodes"] = sum(a.get("nodes", 0) for a in attrs)
    attrs = calls_s("kernels.dd_weights")
    size = sum(a["size"] for a in attrs)
    m["kernels.dd_weights.useful_ratio"] = (
        sum(a["useful"] for a in attrs) / size if size else 0.0)
    m["response.pair_block.calls"] = layer_totals(spans, "response.pair_block")[0]
    attrs = calls_s("response.b_function")
    m["response.b_function.distinct_ratio"] = (
        len({a["k"] for a in attrs}) / len(attrs) if attrs else 0.0)
    calls_s("response.homogenized_coefficients")
    calls_s("response.m_fiber_averaged")
    _, m["scf.scf_solve.s"], attrs = layer_totals(spans, "scf.scf_solve")
    m["scf.scf_solve.iterations"] = sum(a.get("iterations", 0) for a in attrs)
    calls_s("scf.solve_chemical_potential")
    calls_s("multiscale.supercell_density")
    _, m["multiscale.jacobian_blocks.s"], _ = layer_totals(spans, "multiscale.jacobian_blocks")
    calls_s("multiscale.solve_jacobian")
    m["multiscale.newton_iterations"] = rec.counters.get("multiscale.newton.iterations", 0)
    _, m["multiscale.effective_coefficients.s"], _ = layer_totals(
        spans, "multiscale.effective_coefficients")
    _, m["multiscale.expansion_decompose.s"], _ = layer_totals(
        spans, "multiscale.expansion_decompose")
    _, m["macro.solve_pb.s"], _ = layer_totals(spans, "macro.solve_pb")
    _, m["macro.debye_observables.s"], _ = layer_totals(spans, "macro.debye_observables")
    _, m["io.write.s"], attrs = layer_totals(spans, "io.write")
    m["io.write.bytes"] = sum(a.get("bytes", 0) for a in attrs)
    return m


def per_op_breakdown(rec):
    """{op: {layer: {calls, s}}} for the results file and the README figures."""
    spans = rec.spans
    names = sorted({s[0] for s in spans if not s[0].startswith("op:")})
    out = {}
    for i, s in enumerate(spans):
        if not s[0].startswith("op:"):
            continue
        row = {"s": s[3] - s[2], "top_level_share": top_level_share(spans, [i])}
        for name in names:
            n, secs, attrs = layer_totals(spans, name, within=i)
            if n:
                entry = {"calls": n, "s": secs}
                if name == "kernels.dd_weights":
                    for kernel in sorted({a["kernel"] for a in attrs}):
                        mine = [a for a in attrs if a["kernel"] == kernel]
                        entry[f"{kernel}_useful_ratio"] = (
                            sum(a["useful"] for a in mine) / sum(a["size"] for a in mine))
                if name == "response.b_function":
                    entry["distinct"] = len({a["k"] for a in attrs})
                row[name] = entry
        out[s[0][3:]] = row
    return out
