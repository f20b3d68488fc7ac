"""Tests of the benchmark itself: every workload in smoke mode, traced and
untraced, prints exactly the metrics BENCHMARK.json declares.  The four
workloads are tested, also the two that BENCHMARK.json does not gate.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from run import WORKLOAD_NAMES  # noqa: E402


def _run(cwd, workload, trace, seed=5):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_prints_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_declared_workloads_are_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOAD_NAMES)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "dent_harness", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    from run import tail

    assert tail(list(range(1, 41))) == (30, 75.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)


def test_tracer_counts_kernels_by_layer_and_restores_everything():
    import rigidity3d
    from rigidity3d import geometry
    from tracing import Tracer

    svd, hull_cls = np.linalg.svd, geometry.ConvexHull
    classify = rigidity3d.classify_convexity
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("cli", "op"):
            surface = rigidity3d.shapes.octahedron()
            rigidity3d.classify_convexity(surface)
            rigidity3d.is_infinitesimally_rigid(rigidity3d.Framework.from_surface(surface))
    assert np.linalg.svd is svd and geometry.ConvexHull is hull_cls
    assert rigidity3d.classify_convexity is classify
    assert tracer.kernels[("geometry", "lp_solves")] == 12  # one per octahedron edge
    assert tracer.kernels[("geometry", "qhull_calls")] == 1
    assert tracer.kernels[("frameworks", "svd_calls")] >= 1
    busy, calls, ops = tracer.summary()
    assert calls["cli"] == 1 and calls["geometry"] >= 1 and calls["frameworks"] >= 1
    assert len(ops) == 1 and 0.0 < ops[0][2] <= ops[0][1]


def test_a_cli_op_that_exits_nonzero_fails_the_checks(tmp_path):
    from workloads import WORKLOADS

    reference = json.loads((BENCH / "reference.json").read_text())
    for name in ("analyze_hull", "inductive_stress", "probe_pd"):
        workload = WORKLOADS[name](tmp_path, reference, smoke=True)
        result = workload.collect("op", {"code": 1, "stdout": ""}, tmp_path)
        assert workload.failed(result)
        assert workload.check("op", result) == ["op: exit code 1"]
