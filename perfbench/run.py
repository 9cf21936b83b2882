"""Benchmark of debye-forge: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload mathieu-chain --seed 0 --seconds 20 --trace 0

Runs whole rounds of the workload's operations in this one process until
``--seconds`` have passed (at least two rounds, whose data outputs must be
identical; the first only warms the process and is not timed), checks
every round's outputs, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured without
wrappers. With ``--trace 1`` rounds alternate untraced and traced, and the
metrics are the per-layer ones from the traced rounds, the stage times of
the untraced rounds (``pipeline.*``) and the tracing overhead. The environment is printed on the line before the result, and
the full record (every round, and the spans of a traced run) is written
to ``.perfbench/results/``.
"""

from __future__ import annotations

import os

# Pin BLAS and the k-point pool before numpy is imported anywhere.
BLAS_THREADS = 1
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["DEBYE_FORGE_THREADS"] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, SRC, use_source_tree  # noqa: E402

SETUP_REPEATS = 9
# Round 0 warms the process (first touch of the heap, lazy imports, FFT
# plans): it is run and checked but not timed. A traced run also needs an
# untraced round after it to compare against.
MIN_ROUNDS = {0: 2, 1: 3}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(df):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "backend": df.kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args):
    from perfbench import layers
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    seed = args.seed if wl.seeded else None
    workdir = ROOT / ".perfbench" / "work" / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup_s = []
    for _ in range(SETUP_REPEATS):
        elapsed, ctx = wl.setup(seed, workdir)
        setup_s.append(elapsed)
    env = environment(ctx.df)
    if THREADS > env["nproc"] or BLAS_THREADS > env["nproc"]:
        raise SystemExit("thread counts exceed nproc")

    rounds, errors, digests = [], [], []
    attempted = failed = 0
    recorders = []
    t_start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS[args.trace] or time.perf_counter() - t_start < args.seconds:
        rec = layers.Recorder() if args.trace and len(rounds) % 2 == 1 else None
        undo = layers.install(rec) if rec is not None else []
        try:
            rnd = wl.round(ctx, rec)
        finally:
            layers.uninstall(undo)
        checked = wl.check(ctx, rnd)
        attempted += rnd.attempted
        failed += rnd.failed
        errors += [f"round {len(rounds)}: {e}" for e in checked.errors]
        digests.append(checked.digest)
        rounds.append({"traced": rec is not None, "times": rnd.times, "wall_s": rnd.wall,
                       "attempted": rnd.attempted, "failed": rnd.failed,
                       "details": checked.details})
        if rec is not None:
            recorders.append(rec)
    if len(set(map(json.dumps, digests))) != 1:
        errors.append("data outputs differ between rounds")

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = [r["times"] for r in rounds[1:] if not r["traced"]]

    def median_of(key, rows):
        return statistics.median(r[key] for r in rows)

    record = {"workload": wl.name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "setup_s": setup_s, "rounds": rounds, "errors": errors}
    if args.trace:
        per_round = [layers.layer_metrics(rec) for rec in recorders]
        values = {k: statistics.fmean(m[k] for m in per_round) for k in per_round[0]}
        traced_total = median_of("total_s", [r["times"] for r in rounds if r["traced"]])
        values["trace.total_s"] = traced_total
        values["trace.overhead_s"] = traced_total - median_of("total_s", plain)
        for key in ("crystal_s", "response_s", "macro_multiscale_s"):
            values[f"pipeline.{key}"] = median_of(key, plain)
        values["trace.coverage"] = statistics.fmean(
            layers.top_level_share(rec.spans, [i for i, s in enumerate(rec.spans)
                                               if s[0] in wl.headline_ops])
            for rec in recorders)
        metrics = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in values.items()}
        record["by_op"] = [layers.per_op_breakdown(rec) for rec in recorders]
        record["spans"] = [rec.spans for rec in recorders]
        record["counters"] = [rec.counters for rec in recorders]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "total_s": {"value": median_of("total_s", plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{wl.name}{'' if seed is None else f'-seed{seed}'}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, default=str) + "\n")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


def main(argv=None):
    if not (SRC / "debye_forge" / "__init__.py").is_file():
        print(f"perfbench: no debye_forge sources under {SRC}", file=sys.stderr)
        return 2
    use_source_tree()
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
