#!/usr/bin/env python3
"""rigidity3d benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload analyze_hull --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; it imports the library from `src/`.
Workloads: analyze_hull, inductive_stress, probe_pd, dent_harness (see
`workloads.py`); `--workload all` runs each of them in turn.  Inputs come from --seed alone.  One process drives the
ops one after another (a closed loop with one client), with the BLAS
thread count pinned to 1.

--trace 0 times the ops untraced and prints the end-to-end metrics.
--trace 1 runs a third of those ops untraced, then replays them twice
with spans and kernel counters installed, and prints the per-layer
metrics.  It fails if the two traced passes count differently or if a
replay reaches other verdicts than its untraced op.

The last line of stdout is the result as one JSON object.  The exit code
is 1 when an output check fails and 2 when the library is missing.
--smoke shrinks every size so the whole pipeline runs in seconds.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("analyze_hull", "inductive_stress", "probe_pd", "dent_harness")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                   help="'all' runs every workload in turn, each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_seconds(samples):
    """Wall times of `samples` fresh interpreters importing the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rigidity3d.cli"], cwd=ROOT, env=env,
                       check=True)
        times.append(time.perf_counter() - t0)
    return times


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond).  With too few samples it falls back
    to the smallest one."""
    ordered = sorted(latencies)
    k = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[k - 1], 100.0 * k / len(ordered), len(ordered) - k


def environment(n_distinct, n_ops):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "distinct_inputs": n_distinct,
        "ops": n_ops,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _timed(workload, ops, phase):
    raws, latencies = [], []
    for i, op in enumerate(ops):
        scratch = workload.workdir / f"{phase}-{i}"
        t0 = time.perf_counter()
        raws.append(workload.run(op, scratch))
        latencies.append(time.perf_counter() - t0)
    return raws, latencies


def _results(workload, ops, raws, phase):
    return [workload.collect(op, raw, workload.workdir / f"{phase}-{i}")
            for i, (op, raw) in enumerate(zip(ops, raws))]


def end_to_end(workload, ops, args, problems, report):
    # set-up samples before and after the timed loop, so that their median
    # does not hang on the CPU speed of one moment
    samples = 1 if args.smoke else SETUP_SAMPLES
    setup_samples = setup_seconds(samples - samples // 2)
    t0 = time.perf_counter()
    raws, latencies = _timed(workload, ops, "op")
    elapsed = time.perf_counter() - t0
    setup_samples += setup_seconds(samples // 2)
    setup_s = statistics.median(setup_samples)
    results = _results(workload, ops, raws, "op")
    for op, result in zip(ops, results):
        problems += workload.check(op, result)
    failed = sum(workload.failed(r) for r in results)
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "ops_per_s": _metric(len(ops) / elapsed, "1/s"),
        "latency_p50_s": _metric(statistics.median(latencies), "s"),
        "latency_tail_s": _metric(tail_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }
    report.update({
        "failed_fraction": {"value": failed / len(ops), "unit": "ops/ops"},
        "latency_tail": {"percentile": tail_pct, "samples": len(latencies),
                         "samples_beyond": beyond},
        "setup_samples_s": setup_samples,
    })
    return metrics, len(ops), failed


def per_layer(workload, ops, args, problems, report):
    from tracing import KERNELS, LAYERS, Tracer

    trace_ops = ops[: max(1, math.ceil(len(ops) / 3))]
    raws, untraced = _timed(workload, trace_ops, "untraced")
    results = _results(workload, trace_ops, raws, "untraced")
    for op, result in zip(trace_ops, results):
        problems += workload.check(op, result)
    failed = sum(workload.failed(r) for r in results)

    passes = []
    for pass_no in (1, 2):
        tracer = Tracer()
        reasons = Counter()
        times, replayed = [], []
        with tracer.installed():
            for i, op in enumerate(trace_ops):
                scratch = workload.workdir / f"traced{pass_no}-{i}"
                t0 = time.perf_counter()
                raw, op_reasons = workload.replay(tracer, op, scratch)
                times.append(time.perf_counter() - t0)
                reasons += op_reasons
                failed += bool(op_reasons)
                replayed.append(workload.collect(op, raw, scratch))
        for op, mine, theirs in zip(trace_ops, results, replayed):
            problems += workload.same(op, mine, theirs)
        counts = tracer.counts()
        counts["failure_reasons"] = dict(sorted(reasons.items()))
        passes.append((tracer, times, counts))
    if passes[0][2] != passes[1][2]:
        problems.append("the two traced passes counted differently: "
                        f"{passes[0][2]} vs {passes[1][2]}")

    summaries = [tracer.summary() for tracer, _, _ in passes]
    first, counts = passes[0][0], passes[0][2]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = _metric(
            statistics.fmean(busy[layer] for busy, _, _ in summaries), "s")
        metrics[f"{layer}.calls"] = _metric(summaries[0][1][layer], "count")
        for kernel in KERNELS:
            metrics[f"{layer}.{kernel}"] = _metric(first.kernels[(layer, kernel)], "count")
        metrics[f"{layer}.svd_max_elems"] = _metric(first.svd_max_elems[layer], "count")
    metrics["hessian.tetrahedra"] = _metric(first.tetrahedra, "count")
    op_spans = [op for _, _, ops_ in summaries for op in ops_]
    metrics["cli.glue_s"] = _metric(
        sum(d - c for layer, d, c in op_spans if layer == "cli") / len(summaries), "s")
    traced = [statistics.fmean(t) for t in zip(*(times for _, times, _ in passes))]
    metrics["trace.overhead_s"] = _metric(
        statistics.fmean(t - u for t, u in zip(traced, untraced)), "s")
    metrics["trace.coverage_pct"] = _metric(
        100.0 * statistics.fmean(c / d for _, d, c in op_spans), "%")
    metrics["replay.failures"] = _metric(sum(counts["failure_reasons"].values()), "count")
    report.update({
        "traced_ops": len(trace_ops),
        "failure_reasons": counts["failure_reasons"],
        "coverage_min_pct": 100.0 * min(c / d for _, d, c in op_spans),
        "untraced_op_s": statistics.fmean(untraced),
        "traced_op_s": statistics.fmean(traced),
    })
    report["failed_fraction"] = {"value": failed / (3 * len(trace_ops)), "unit": "ops/ops"}
    return metrics, 3 * len(trace_ops), failed


def main(argv=None):
    args = _parse(argv)
    if args.workload == "all":
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        return max(subprocess.run([sys.executable, __file__, "--workload", w] + common).returncode
                   for w in WORKLOAD_NAMES)
    if not (SRC / "rigidity3d" / "__init__.py").is_file():
        print(f"error: no rigidity3d package under {SRC}; run from a rigidity3d checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    with open(BENCH / "reference.json") as fh:
        reference = json.load(fh)
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](workdir, reference, args.smoke)
        problems = []
        t0 = time.perf_counter()
        ops = workload.make_ops(args.seed, workload.op_count(args.seconds))
        input_gen_s = time.perf_counter() - t0
        # the stored reference cases, then one untimed op: caches and lazy
        # imports are warm before anything is timed
        problems += workload.pinned()
        warm = workload.workdir / "warmup"
        problems += workload.check(ops[0], workload.collect(ops[0], workload.run(ops[0], warm), warm))

        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "input_gen_s": input_gen_s}
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(workload, ops, args, problems, report)
        report["environment"] = environment(len(set(map(str, ops))), len(ops))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    print("# " + json.dumps(report, sort_keys=True))
    for name, m in {**metrics, "failed_fraction": report["failed_fraction"]}.items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": int(failed),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
