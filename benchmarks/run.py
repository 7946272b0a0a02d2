"""trexlab benchmark: times calls into trexlab's public functions from outside.

    python3 benchmarks/run.py --workload fit_l1 --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py                  # every workload, one after another
    python3 benchmarks/run.py --quick          # every workload at toy size

A run builds its inputs from ``--seed``, sets up (import, inputs, one warm-up
operation), then runs whole passes of operations for about ``--seconds`` of
operation time (at least three passes) and checks every output. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs pass 0 untraced, then again
with spans around the public functions, and reports the per-layer metrics.
Human-readable lines go first; the last line of standard output is one JSON
object. See README.md.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import tracing  # noqa: E402  (standard library only; trexlab is imported in run_one)

WORKLOAD_NAMES = ("fit_l1", "fit_constrained", "fit_group", "verify_mixed")
END_TO_END = {"throughput_per_s": "instances/s", "latency_p50_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3
MIN_PASSES = 3             # throughput and latency are medians over passes
P90_MIN_OPS = 100          # so that at least ten samples lie beyond the 90th percentile


@dataclass
class Op:
    seconds: float
    instances: int
    error: str = None                       # exception type name, if the call raised
    checks: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    failed: bool = False


def run_ops(workload, items, tracer=None) -> list:
    """Run ``items`` as a closed loop, timing each call; check outputs untimed."""
    ops = []
    for i, item in enumerate(items):
        start = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(item)
            else:
                result = tracer.op(i, workload.run, item)
        except Exception as exc:  # a raising operation is counted as failed
            ops.append(Op(time.perf_counter() - start, 0, type(exc).__name__, failed=True))
            continue
        op = Op(time.perf_counter() - start, workload.instances(item))
        op.checks, op.counts = workload.check(item, result)
        op.failed = not all(op.checks[name] for name in workload.blocking_checks)
        ops.append(op)
    return ops


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(), "seed": seed, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def tally(ops) -> tuple:
    """Sum the numeric output counts of ``ops``; fold string ones into digests."""
    totals, digests = Counter(), {}
    for op in ops:
        for key, value in op.counts.items():
            if isinstance(value, str):
                digests.setdefault(key, hashlib.sha256()).update(value.encode())
            else:
                totals[key] += value
    return totals, {k: h.hexdigest() for k, h in digests.items()}


def describe_checks(ops) -> str:
    passed, seen = Counter(), Counter()
    for op in ops:
        for name, ok in op.checks.items():
            seen[name] += 1
            passed[name] += bool(ok)
    errors = Counter(op.error for op in ops if op.error)
    text = ", ".join(f"{name} {passed[name]}/{seen[name]}" for name in seen)
    if errors:
        text += ", raised " + ", ".join(f"{k} x{v}" for k, v in errors.items())
    return text


def setup(workload, repeats: int) -> tuple:
    """Build pass 0 and run one warm-up operation, ``repeats`` times; median seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        items = workload.make_pass(0)
        workload.run(items[0])
        times.append(time.perf_counter() - start)
    return items, statistics.median(times)


def measure(workload, items, seconds: float, quick: bool) -> list:
    """Run whole passes, one list of operations each: at least MIN_PASSES, and
    another only while the slowest pass so far still fits in ``seconds``."""
    passes = [run_ops(workload, items)]
    while not quick and (len(passes) < MIN_PASSES or sum(map(op_seconds, passes))
                         + max(map(op_seconds, passes)) <= seconds):
        passes.append(run_ops(workload, workload.make_pass(len(passes))))
    return passes


def op_seconds(ops) -> float:
    return sum(op.seconds for op in ops)


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end(passes, setup_s: float) -> dict:
    """Throughput and latency are medians over passes, which damps slow spells."""
    good = [[op.seconds for op in ops if not op.failed] for ops in passes]
    return {
        "throughput_per_s": statistics.median(
            sum(op.instances for op in ops if not op.failed) / op_seconds(ops)
            for ops in passes),
        "latency_p50_ms": 1e3 * statistics.median(
            statistics.median(times) if times else 0.0 for times in good),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def print_metric(name, value, unit, note=""):
    print(f"  {name:<32} {value:>14.6g} {unit}{note}")


def report_untraced(ops, metrics):
    good = [op.seconds for op in ops if not op.failed]
    for name, unit in END_TO_END.items():
        print_metric(name, metrics[name], unit)
    if len(good) >= P90_MIN_OPS:
        print_metric("latency_p90_ms", tracing.p90_ms(good), "ms",
                     f"  ({len(good)} samples)")
    else:
        print(f"  {'latency_p90_ms':<32} {'n/a':>14} ms  "
              f"({len(good)} samples, needs {P90_MIN_OPS})")
    failed = sum(op.failed for op in ops)
    print_metric("fail_rate", failed / len(ops), "ratio", f"  ({failed} of {len(ops)})")


def run_traced(workloads, workload, items, work_dir) -> tuple:
    untraced = run_ops(workload, items)
    tracer = tracing.Tracer(os.path.join(work_dir, "spans"))
    tracing.install(tracer, workloads)
    try:
        traced_items = tracer.op("setup", workload.make_pass, 0)
        traced = run_ops(workload, traced_items, tracer)
    finally:
        tracer.restore()
    spans = tracer.collect()
    counts, digests = tally(traced)
    metrics = tracing.layer_metrics(spans, counts, workloads.VERIFY_JOBS)
    base = sum(op.seconds for op in untraced)
    traced_s = sum(op.seconds for op in traced)
    layers = tracing.layer_self_times(spans)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - base) / base
    metrics["trace.remainder_s"] = layers.get("bench", 0.0)

    print(f"trace: pass 0, {len(traced)} operations after an untraced copy; "
          f"untraced {base:.4f} s, traced {traced_s:.4f} s, "
          f"overhead {metrics['trace.overhead_pct']:.2f} %")
    wall, waiting, worker = tracing.accounting(spans)
    total = sum(layers.values())
    print(f"  layer self times sum to {total:.4f} s = traced operation wall "
          f"{wall:.4f} s (input generation included) - parent time waiting on pool "
          f"workers {waiting:.4f} s + pool-worker time {worker:.4f} s")
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        label = "remainder" if layer == "bench" else layer
        print(f"    {label:<12} {secs:>10.4f} s {100 * secs / total:>6.2f} %")
    for name, unit in tracing.PER_LAYER.items():
        print_metric(name, metrics[name], unit)
    for key, digest in digests.items():
        print(f"  {key} over {len(traced)} operations: {digest}")
    return untraced + traced, {k: (metrics[k], u) for k, u in tracing.PER_LAYER.items()}


def run_one(args) -> int:
    import workloads  # imports trexlab

    imported = time.perf_counter() - PROCESS_START
    work_dir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work_dir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.quick, work_dir)
        items, setup_rest = setup(workload, 1 if args.quick else SETUP_REPEATS)
        setup_s = imported + setup_rest
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        print(f"{args.workload}{' (quick)' if args.quick else ''}: seed {args.seed}, "
              f"setup {setup_s:.4f} s")
        if args.trace:
            ops, metrics = run_traced(workloads, workload, items, work_dir)
        else:
            passes = measure(workload, items, args.seconds, args.quick)
            values = end_to_end(passes, setup_s)
            ops = [op for ops in passes for op in ops]
            print(f"  {len(passes)} passes, {len(ops)} operations, "
                  f"{op_seconds(ops):.4f} s of operation time; seconds per pass: "
                  + " ".join(f"{op_seconds(ops):.3f}" for ops in passes))
            report_untraced(ops, values)
            metrics = {k: (values[k], u) for k, u in END_TO_END.items()}
            _, digests = tally(ops[:len(items)])
            for key, digest in digests.items():
                print(f"  {key} over pass 0 ({len(items)} operations): {digest}")
            if hasattr(workload, "known_crash_probe"):
                print("  known defect probe (duplicated_columns with lasso_fast and "
                      f"trex_fast_compat, not timed): {workload.known_crash_probe()}")
        print("  checks: " + describe_checks(ops))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = sum(op.failed for op in ops)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Run every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="operation time to measure, in whole passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="toy sizes, one pass")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "trexlab", "__init__.py")):
        print(f"error: no trexlab sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
