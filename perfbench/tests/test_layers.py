"""The wrappers record layer spans without changing what the program computes."""

import json
import sys

from perfbench import ROOT, layers, workloads

from conftest import small_context


def test_traced_pass_writes_identical_outputs(tmp_path):
    ctx = small_context("mathieu", tmp_path)
    chain = workloads.MathieuChain()
    plain = chain.check(ctx, chain.round(ctx, None))
    rec = layers.Recorder()
    undo = layers.install(rec)
    try:
        traced_round = chain.round(ctx, rec)
    finally:
        layers.uninstall(undo)
    traced = chain.check(ctx, traced_round)
    assert plain.errors == [] and traced.errors == []
    assert plain.digest == traced.digest
    m = layers.layer_metrics(rec)
    assert m["multiscale.supercell_density.calls"] > 0
    assert m["response.m_fiber_averaged.calls"] > 0
    assert m["io.write.bytes"] > 0
    assert {name for name, *_ in rec.spans} >= {"op:multiscale", "multiscale.solve_jacobian"}


def test_traced_square_round_identical(tmp_path):
    ctx = small_context("square", tmp_path)
    sq = workloads.SquareCoeffs()
    plain = sq.check(ctx, sq.round(ctx, None))
    rec = layers.Recorder()
    undo = layers.install(rec)
    try:
        rnd = sq.round(ctx, rec)
    finally:
        layers.uninstall(undo)
    assert sq.check(ctx, rnd).digest == plain.digest
    m = layers.layer_metrics(rec)
    assert m["fibers.index_tables.s"] > 0 and m["scf.scf_solve.iterations"] > 0


def test_install_covers_every_namespace_and_uninstall_restores():
    df = workloads.import_package()
    originals = {
        "response.m_fiber_averaged": df.response.m_fiber_averaged,
        "multiscale.m_fiber_averaged": df.multiscale.m_fiber_averaged,
        "response.m_fiber": df.response.m_fiber,
        "kernels.dd1_matrix": df.kernels.dd1_matrix,
        "scf.density_from_potential": df.scf.density_from_potential,
        "SupercellSolver.density": df.multiscale.SupercellSolver.__dict__["density"],
    }
    undo = layers.install(layers.Recorder())
    try:
        assert df.multiscale.m_fiber_averaged is df.response.m_fiber_averaged
        assert df.multiscale.m_fiber_averaged is not originals["multiscale.m_fiber_averaged"]
        assert df.scf.density_from_potential is not originals["scf.density_from_potential"]
        # b_function dispatches on `fiber is m_fiber`; m_fiber must stay untouched
        assert df.response.m_fiber is originals["response.m_fiber"]
    finally:
        layers.uninstall(undo)
    assert df.response.m_fiber_averaged is originals["response.m_fiber_averaged"]
    assert df.multiscale.m_fiber_averaged is originals["multiscale.m_fiber_averaged"]
    assert df.kernels.dd1_matrix is originals["kernels.dd1_matrix"]
    assert df.multiscale.SupercellSolver.__dict__["density"] is originals["SupercellSolver.density"]
    assert sys.modules["debye_forge.response"] is df.response


def test_nested_spans_of_one_name_count_once():
    rec = layers.Recorder()
    outer = rec.open("io.write")
    inner = rec.open("io.write")
    rec.close(inner)
    rec.close(outer)
    calls, secs, _ = layers.layer_totals(rec.spans, "io.write")
    assert calls == 2
    assert secs == rec.spans[outer][3] - rec.spans[outer][2]


def test_metric_table_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    rec = layers.Recorder()
    added_by_run = {"trace.coverage", "trace.total_s", "trace.overhead_s",
                    "pipeline.crystal_s", "pipeline.response_s", "pipeline.macro_multiscale_s"}
    assert set(layers.layer_metrics(rec)) | added_by_run == set(layers.UNITS)
