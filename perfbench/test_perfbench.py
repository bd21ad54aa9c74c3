"""Checks of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench -q

The traced-run checks solve every workload twice and take about two
minutes on a 2-core machine.
"""

import gzip
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from nucnz.graphs import Graph  # noqa: E402


def bench(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *map(str, args)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def traced(workload, seed):
    proc = bench(ROOT, "--workload", workload, "--seed", seed, "--seconds", 1, "--trace", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with gzip.open(run.TRACE_DIR / f"{workload}-seed{seed}.json.gz", "rt") as f:
        calls = json.load(f)["wrapper_calls"]
    return result, calls


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.METRICS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_every_wrapper_fires(workload):
    first, calls = traced(workload, 7)
    second, _ = traced(workload, 7)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == list(tracer.METRICS)
    for name in tracer.REPEATED_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name

    expected = [
        (f"{owner}.{attr}", fires_on) for owner, attr, _, _, _, fires_on in tracer.PATCHES
    ]
    module, attr, fires_on = tracer.SEP_FACTORY
    expected.append((f"{module}.{attr}", fires_on))
    expected.append(tracer.SEP_ORACLE)
    silent = [target for target, fires_on in expected
              if workload in fires_on and not calls.get(target)]
    assert not silent, f"wrappers recorded no call on {workload}: {silent}"


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for src in HERE.glob("*.py"):
        shutil.copy(src, tmp_path / "perfbench")
    proc = bench(tmp_path, "--workload", "ref6-dense", "--seed", 1, "--seconds", 1, "--trace", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_failed_solves_are_counted_not_dropped():
    wl = workloads.WORKLOADS["ref6-dense"]
    problem = wl.build(1, 0)
    good = problem.solve(workloads.identity)
    wrong = type(good)(allocation=good.allocation[::-1], trace=good.trace)
    floats = type(good)(allocation=tuple(float(v) for v in good.allocation), trace=good.trace)
    p = problem.players
    assert workloads.count_failures(wl, [(p, good)]) == 0
    assert workloads.count_failures(wl, [(p, None), (p, wrong), (p, floats), (p, good)]) == 3


def test_seeds_give_the_same_instances_and_the_named_shapes():
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED, 5):
        for index in range(3):
            assert workloads.bmatch_instance(seed, index) == workloads.bmatch_instance(seed, index)
            assert workloads.arbor_instance(seed, index) == workloads.arbor_instance(seed, index)
    assert len({workloads.bmatch_instance(seed, 0)[0].edges for seed in range(1, 6)}) > 1
    assert len({workloads.arbor_instance(seed, 0)[1] for seed in range(1, 6)}) > 1
    for name in ("ladder17-enum", "ref6-dense"):
        fixed = workloads.WORKLOADS[name]
        assert not fixed.seeded
        assert fixed.build(1, 0).game.table() == fixed.build(2, 3).game.table()


def test_shape_checks_fail_loudly():
    g, w, b, _ = workloads.bmatch_instance(1, 0)
    with pytest.raises(workloads.ShapeError):
        workloads.check_bmatch_shape(g, w, (2, 2, 2) + b[3:])
    with pytest.raises(workloads.ShapeError):
        workloads.check_bmatch_shape(Graph(8, g.edges[:-1] + (g.edges[0],)), w, b)
    with pytest.raises(workloads.ShapeError):
        workloads.check_bmatch_shape(g, (Fraction(10),) + w[1:], b)
    arbor, _ = workloads.arbor_instance(1, 0)
    with pytest.raises(workloads.ShapeError):
        workloads.check_arbor_shape(Graph(6, arbor.edges[:-1] + ((2, 2),)))
    game = workloads.WORKLOADS["ref6-dense"].build(1, 0).game
    with pytest.raises(workloads.ShapeError):
        workloads.check_ref_shape(game, 4)
