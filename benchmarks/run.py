"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs units of one workload (see bench_workloads.py) for about S seconds in
this process, checks every unit's outputs, then runs the exact-oracle gate.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the machine (nproc, Python, numpy, scipy, OpenBLAS and its thread count).

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced runs of the first unit and reports
the per-layer metrics of the traced ones; the spans of the first traced run
are written to benchmarks/out/.

The package is imported from src/ next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# one BLAS thread in every workload process; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_metrics  # noqa: E402
import bench_trace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the benchmark's own test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and make inputs, print the monotonic clock, exit")
    return parser.parse_args(argv)


def _import_package():
    """Import the package from this checkout's src/, or nothing."""
    src = ROOT / "src"
    if not (src / "multispin" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import multispin

    if Path(multispin.__file__).resolve().parent != (src / "multispin").resolve():
        return None
    import bench_workloads

    return bench_workloads


def _openblas() -> list:
    """Config string and live thread count of every loaded OpenBLAS."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in Path(line.split()[-1]).name.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                config = getattr(lib, f"{prefix}_get_config{suffix}")
                config.restype = ctypes.c_char_p
                entry["threads"] = int(getattr(lib, f"{prefix}_get_num_threads{suffix}")())
                entry["config"] = config().decode()
                break
        found.append(entry)
    return found


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_env_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _setup_seconds(args) -> list:
    """Fresh processes that import everything and make the first unit's
    inputs; each one's time from spawn to ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


def _keep_going(start: float, seconds: float, walls: list) -> bool:
    """Start another unit while at least half a unit's time remains."""
    return time.perf_counter() - start + 0.5 * statistics.median(walls) < seconds


def _steal_ticks() -> int:
    """CPU time the hypervisor took from this machine, in clock ticks."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8])


def _timed(bw, args, workdir: Path, ops: list) -> tuple[dict, dict]:
    walls, cpus, instances = [], [], 0
    steal0 = _steal_ticks()
    start = time.perf_counter()
    unit = 0
    while True:
        inputs = bw.make_inputs(args.workload, args.seed, unit, args.tiny)
        t0, c0 = time.perf_counter(), time.process_time()
        outcome = bw.run_unit(inputs, workdir)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        ops.extend(outcome.ops)
        instances += outcome.instances
        unit += 1
        if not _keep_going(start, args.seconds, walls):
            break
    elapsed = time.perf_counter() - start
    stolen = (_steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # means over the timed phase: a unit's work depends on its inputs (how
    # soon each ascent converges), and the mean averages over all of them
    metrics = {
        "wall_s": sum(walls) / len(walls),
        "peak_rss_mib": peak,
        "instances_per_s": instances / sum(walls),
    }
    # CPU time and the machine's steal share tell drift of a shared machine
    # apart from a change in the program
    return metrics, {"unit_walls": walls, "unit_cpu_s": cpus,
                     "steal_share": stolen / (elapsed * os.cpu_count())}


def _traced(bw, args, workdir: Path, ops: list) -> tuple[dict, dict]:
    inputs = bw.make_inputs(args.workload, args.seed, 0, args.tiny)
    plain, traced, reps = [], [], []
    first_spans = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops.extend(bw.run_unit(inputs, workdir).ops)
        plain.append(time.perf_counter() - t0)

        tracer = bench_trace.Tracer(bench_metrics.EXTRACTORS)
        patched = bench_trace.instrument(tracer, bw.MODULES)
        try:
            t0 = time.perf_counter()
            ops.extend(bw.run_unit(inputs, workdir, tracer.call).ops)
            t1 = time.perf_counter()
        finally:
            bench_trace.restore(patched)
        traced.append(t1 - t0)
        summary = bench_trace.summarize(tracer.spans)
        rep = bench_metrics.layer_metrics(summary)
        rep["trace.coverage"] = bench_trace.coverage(
            tracer.spans, threading.get_ident(), t0, t1)
        reps.append(rep)
        if first_spans is None:
            first_spans, first_summary = tracer.spans, summary
        pairs = [a + b for a, b in zip(plain, traced)]
        if not _keep_going(start, args.seconds, pairs):
            break
    # counts repeat exactly on the same inputs; times are medians over reps
    metrics = {name: value if bench_metrics.PER_LAYER[name][0] == "count"
               else statistics.median(rep[name] for rep in reps)
               for name, value in reps[0].items()}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    detail = {"untraced_walls": plain, "traced_walls": traced,
              "self_s_by_layer": first_summary.self_by_layer,
              "spans_by_name": {name: {"calls": n, "s": first_summary.inclusive[name]}
                                for name, n in sorted(first_summary.calls.items())},
              "spans": first_spans, "summary": first_summary}
    return metrics, detail


def _write_spans(path: Path, spans) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                 "start": s.start, "end": s.end, "thread": s.thread}))
            fh.write("\n")


def main(argv=None) -> int:
    args = _parse_args(argv)
    bw = _import_package()
    if bw is None:
        print("benchmark: src/multispin not found next to benchmarks/", file=sys.stderr)
        return 2
    if args.workload not in bw.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {bw.WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        bw.make_inputs(args.workload, args.seed, 0, args.tiny)
        print(repr(time.monotonic()))
        return 0

    setup = [] if args.trace else _setup_seconds(args)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ops: list = []
    try:
        if args.trace:
            metrics, detail = _traced(bw, args, workdir, ops)
        else:
            metrics, detail = _timed(bw, args, workdir, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    gate_out = bw.Outcome()
    health = bw.gate(args.workload, args.seed, args.tiny, gate_out)
    ops.extend(gate_out.ops)
    failed = sum(not ok for _, ok, _ in ops)

    if args.trace:
        metrics.update(bench_metrics.health_metrics(detail.pop("summary"), health))
        metrics["fail_rate"] = failed / len(ops)
        names = bench_metrics.PER_LAYER
    else:
        metrics["setup_s"] = statistics.median(setup)
        detail["setup_walls"] = setup
        names = bench_metrics.END_TO_END
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = detail.pop("spans", None)
    if spans is not None:
        _write_spans(OUT / f"{stem}-spans.jsonl", spans)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "tiny": args.tiny, "env": _environment(), "metrics": metrics, **detail,
              "failures": [[name, detail_] for name, ok, detail_ in ops if not ok]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, ok, info in ops:
        if not ok:
            print(f"FAILED {name}: {info}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "env")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
