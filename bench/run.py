"""qwtrain benchmark: one workload in one process on one thread.

    python3 bench/run.py --workload train-z2 --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from that
checkout's ``src`` directory and nothing else. It sets up (imports plus one
warm-up item, timed in this process and in fresh interpreters started one
after another), runs the workload's items for the given seconds, checks every
output outside the timed region, prints each metric with its unit, writes
``bench/out/BENCH_<workload>_seed<n>_trace<t>.json`` and ends with one JSON
line: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. Exit status 1 means an output check failed, 2 that the
package could not be loaded or the arguments are invalid.
"""

import os

# One thread: set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3  # this process plus fresh interpreters; the median is reported
OVERHEAD_REPLAY_SHARE = 0.5  # of --seconds, spent replaying items traced and untraced


def parse_args(argv):
    from workloads import WORKLOADS

    def nonneg_int(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    def positive(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("must be > 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=nonneg_int, default=0,
                   help="workload seed; offsets every item seed range")
    p.add_argument("--seconds", type=positive, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_package():
    init = SRC / "qwtrain" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"no package source at {init}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qwtrain
    if Path(qwtrain.__file__).resolve() != init.resolve():
        raise ImportError(f"imported qwtrain from {qwtrain.__file__}, not {init}")


def setup_in_fresh_interpreter(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150,
                          check=True)
    return float(done.stdout.split()[-1])


def run_items(workload, seed, seconds, tracer):
    """Closed loop: the next item starts when the previous one returns."""
    items, times, failures = [], [], {}
    cpu0, t0 = time.process_time(), time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        i = len(items)
        start = time.perf_counter()
        try:
            with tracer.item() if tracer else contextlib.nullcontext():
                item = workload.run(workload.item_seed(seed, i))
        except Exception:  # the loop must go on: record the failure
            item = None
            failures[i] = [traceback.format_exc(limit=3).strip()]
        times.append(time.perf_counter() - start)
        items.append(item)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    return items, times, failures, wall, cpu


def tracing_overhead(workload, seeds, budget, tracer) -> float:
    """Median over items of traced over untraced time, minus one. Each item
    runs twice in a row, the order alternating, so drift in machine speed
    cancels; the median keeps the rare long items from dominating."""
    ratios, spent = [], 0.0
    for j, seed in enumerate(seeds):
        took = {}
        for traced in ((True, False) if j % 2 else (False, True)):
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                with tracer.item() if traced else contextlib.nullcontext():
                    workload.run(seed)
            finally:
                took[traced] = time.perf_counter() - start
                tracer.uninstall()
        ratios.append(took[True] / took[False])
        spent += took[True] + took[False]
        if spent >= budget:
            break
    return statistics.median(ratios) - 1.0


def tail(times):
    """The highest percentile with at least ten items beyond it."""
    n = len(times)
    if n < 11:
        return None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def environment(threads: int) -> dict:
    import numpy
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "measured_processes": 1,
        "python_threads": threads,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "setup_interpreters": SETUP_SAMPLES - 1,
    }


def check_items(workload, items, expected, failures) -> None:
    """Adds each failed output check to `failures`, keyed by item index."""
    for i, item in enumerate(items):
        if item is None:
            continue
        errors = workload.check(item)
        if i < len(expected) and item.digest() != expected[i]:
            errors.append(f"digest {item.digest()} differs from the recorded {expected[i]}")
        if errors:
            failures[i] = errors


def end_to_end_metrics(items, times, failures, wall, cpu, setup, peak_rss_mib) -> dict:
    done = [it for it in items if it is not None]
    n = len(items)
    no_solution = {i for i, it in enumerate(items) if it is not None and it.no_solution}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (sum(it.work for it in done) / wall, "1/s"),
        "items_per_s": (n / wall, "1/s"),
        "item_p50_ms": (1e3 * statistics.median(times), "ms"),
        "success_fraction": (sum(it.success for it in done) / n, "fraction"),
        "failed_fraction": (len(no_solution | set(failures)) / n, "fraction"),
        "no_solution_fraction": (len(no_solution) / n, "fraction"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "cpu_per_wall": (cpu / wall, "ratio"),
    }
    tail_ms = tail(times)
    if tail_ms:
        metrics["item_tail_ms"] = (1e3 * tail_ms[0], "ms")
    return metrics


def main(argv=None) -> int:
    try:
        load_package()
    except ImportError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    workload.run(workload.warmup_seed)
    setup = [time.perf_counter() - T_START]
    if args.setup_probe:
        print(f"{setup[0]!r}")
        return 0
    setup += [setup_in_fresh_interpreter(args) for _ in range(SETUP_SAMPLES - 1)]

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        items, times, failures, wall, cpu = run_items(workload, args.seed, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    threads = threading.active_count()
    n = len(items)

    layers, shares = {}, {}
    if tracer:
        train_items = [it for it in items if it is not None and it.shifts is not None]
        layers = spans.layer_metrics(tracer.spans, sum(it.shifts for it in train_items),
                                     len(train_items))
        layers["trace.overhead_fraction"] = (tracing_overhead(
            workload, [it.seed for it in items if it is not None],
            OVERHEAD_REPLAY_SHARE * args.seconds, spans.Tracer()), "fraction")
        shares = spans.own_time_shares(tracer.spans)

    recorded = json.loads((BENCH / "digests.json").read_text())
    expected = recorded["items"].get(workload.name, {}).get(str(args.seed), [])
    check_items(workload, items, expected, failures)
    contract_errors = workloads.check_frozen_contracts()
    correct = not failures and not contract_errors
    e2e = end_to_end_metrics(items, times, failures, wall, cpu, setup, peak_rss_mib)
    shown = layers if args.trace else e2e
    missing = [name for name in wanted if name not in shown]
    if missing:
        print(f"bench: declared metrics not computed: {missing}", file=sys.stderr)
        return 2
    run_digest = hashlib.sha256(
        "".join(it.digest() for it in items if it is not None).encode()).hexdigest()[:16]
    tail_ms = tail(times)
    checked = min(len(expected), n)

    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
          f"{n} items (item seeds {workload.item_seed(args.seed, 0)}.."
          f"{workload.item_seed(args.seed, n - 1)}), work unit: {workload.work_unit}")
    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    if tail_ms:
        print(f"  item_tail_ms is p{tail_ms[1]:.2f} over {n} items, ten items beyond it")
    print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    for name, share in shares.items():
        print(f"  own time {name:40s} {100 * share:6.2f} % of item time")
    if tracer and tracer.absent:
        print(f"absent spans: {', '.join(tracer.absent)}")
    print(f"digest {run_digest}; {checked} of {n} items compared with recorded results"
          + ("" if expected else f" (none recorded for seed {args.seed})"))
    for i, errors in sorted(failures.items()):
        print(f"item {i} (seed {workload.item_seed(args.seed, i)}) failed: {'; '.join(errors)}")
    for error in contract_errors:
        print(f"frozen contract broken: {error}")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(threads),
        "items": n, "work_unit": workload.work_unit, "run_digest": run_digest,
        "digest_checked_items": checked,
        "item_tail": {"percentile": tail_ms[1], "items": n} if tail_ms else None,
        "setup_samples_s": setup,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "own_time_shares": shares, "absent_spans": tracer.absent if tracer else [],
        "failures": {str(i): e for i, e in failures.items()},
        "contract_errors": contract_errors,
    }, indent=1))
    print(f"result file {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": n, "failed": len(failures),
        "metrics": {name: {"value": shown[name][0], "unit": shown[name][1]} for name in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
