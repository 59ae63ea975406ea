"""The benchmark's own fast test: every workload at tiny size in both modes,
every metric of BENCHMARK.json printed with its unit, and the tracer's
self-time arithmetic on nested spans and on spans from two threads."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402
from bench_trace import Span, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(key) -> subprocess.CompletedProcess:
    workload, trace = key
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)


@pytest.fixture(scope="module")
def runs() -> dict:
    """Every workload in both modes, two benchmark processes at a time."""
    keys = [(w, t) for w in WORKLOADS for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(keys, pool.map(_run, keys)))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(runs, workload, trace):
    done = runs[workload, trace]
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


def _span(i, parent, name, start, end, thread=1, info=None):
    return Span(i, parent, name, start, end, thread, info)


def test_self_time_of_nested_spans():
    spans = [
        _span(1, 0, "tap.tap_evaluate", 0.0, 10.0),
        _span(2, 1, "thermo.fe_thermo_integration", 1.0, 4.0),
        _span(3, 2, "hamiltonian.energy_many", 2.0, 3.5),
        _span(4, 1, "ground_state.ascend", 5.0, 6.0),
    ]
    s = bench_trace.summarize(spans)
    assert s.self_by_layer["tap"] == pytest.approx(6.0)
    assert s.self_by_layer["thermo"] == pytest.approx(1.5)
    assert s.self_by_layer["hamiltonian"] == pytest.approx(1.5)
    assert s.self_by_layer["ground_state"] == pytest.approx(1.0)
    assert s.inclusive["thermo.fe_thermo_integration"] == pytest.approx(3.0)
    assert sum(s.self_by_layer.values()) == pytest.approx(10.0)


def test_self_time_of_spans_on_two_threads():
    # a fan-out whose two tasks overlap on two threads: the parent's self
    # time is what neither task covers, not its duration minus their sum
    spans = [
        _span(1, 0, "cli._run_tasks", 0.0, 10.0, thread=1, info=2),
        _span(2, 1, "cli.task", 1.0, 6.0, thread=2),
        _span(3, 1, "cli.task", 2.0, 8.0, thread=3),
    ]
    s = bench_trace.summarize(spans)
    assert s.self_by_layer["cli"] == pytest.approx(3.0 + 5.0 + 6.0)
    assert bench_trace.parallel_efficiency(s) == pytest.approx(11.0 / 20.0)
    assert bench_trace.coverage(spans, 1, 0.0, 20.0) == pytest.approx(0.5)


def test_tracer_links_a_worker_thread_to_its_parent():
    tracer = Tracer()

    def child():
        return tracer.call("hamiltonian.energy", time.sleep, 0.01)

    def parent():
        pid = tracer.current()
        worker = threading.Thread(target=tracer.call, args=("cli.task", child),
                                  kwargs={"_parent": pid})
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.call("cli.main", parent)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["cli.task"].parent == by_name["cli.main"].id
    assert by_name["hamiltonian.energy"].parent == by_name["cli.task"].id
    assert by_name["cli.task"].thread != by_name["cli.main"].thread
    s = bench_trace.summarize(tracer.spans)
    main = by_name["cli.main"]
    assert s.self_by_layer["hamiltonian"] == pytest.approx(
        by_name["hamiltonian.energy"].end - by_name["hamiltonian.energy"].start)
    assert s.self_by_layer["cli"] < main.end - main.start
