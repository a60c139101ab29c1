"""irunet benchmark: train, denoise and evaluate workloads, end to end or traced.

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload evaluate_mixed --seed 3 --seconds 30 --trace 1

Run from anywhere; the program under test is the `src/irunet` next to this
directory, built from source by importing it. With --trace 0 the run prints
the end-to-end metrics; with --trace 1 it runs the workload untraced for
half the time and traced for the other half, and prints the per-layer
metrics plus the tracing overhead. End-to-end times are compensated for
host-speed drift (see hostspeed.py); per-layer span times are raw. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. A run record, and for traced runs the spans, go to
.bench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("train_b8_p64", "denoise_p256", "evaluate_mixed")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _pin_blas_threads() -> None:
    """One BLAS thread, set before numpy loads.

    The README's bit-reproducibility contract is single-threaded, and on a
    small host the second core stays free for the OS.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _import_program():
    """Put the repository's src/ first on the path; fail if the program is not there."""
    if not os.path.isfile(os.path.join(SRC, "irunet", "__init__.py")):
        sys.exit(f"error: {SRC}/irunet not found; run from a full checkout of the repository")
    sys.path.insert(0, SRC)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args) -> dict:
    import numpy as np

    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def mpix_per_s(log) -> float:
    _, seconds, pixels = log.seconds()
    return sum(pixels) / sum(seconds) / 1e6


def end_to_end(log, setup_s: float) -> dict[str, tuple[float, str]]:
    import numpy as np

    p50, p90 = np.percentile(log.seconds()[1], [50, 90])
    return {
        "mpix_per_s": (mpix_per_s(log), "Mpix/s"),
        "step_s_p50": (float(p50), "s"),
        "step_s_p90": (float(p90), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_one(args, workload=None) -> dict:
    """One workload in this process (default inputs unless given); returns the result."""
    import hostspeed
    import tracing
    from workloads import SETUP_REPEATS, WORKLOADS

    workload = workload or WORKLOADS[args.workload]()
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    work = os.path.join(out_dir, "work")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(work)
    try:
        checks = workload.prepare(work, args.seed)
        probe = hostspeed.Probe()
        setup_times, setup_probes = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = workload.setup()
            setup_times.append(time.perf_counter() - start)
            setup_probes.append(probe())
        setup_s = (statistics.median(setup_times) * hostspeed.NOMINAL_S
                   / statistics.median(setup_probes))
        logs = [workload.run(state, args.seconds / (2 if args.trace else 1), None)]
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                logs.append(workload.run(workload.setup(), args.seconds / 2, tracer))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for log in logs:
        checks.update(log.checks)
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    measured = all(log.timed() for log in logs)
    record = run_record(args)
    record["checks"] = checks
    record["errors"] = [e for log in logs for e in log.errors]
    record["setup_raw_s"] = setup_times
    record["setup_probe_s"] = setup_probes
    record["timed_units"] = [len(log.timed()) for log in logs]
    record["unit_raw_s"] = [log.seconds()[0] for log in logs]
    record["unit_compensated_s"] = [log.seconds()[1] for log in logs]
    record["unit_probe_s"] = [log.probes for log in logs]
    if not measured:
        metrics = {}
    elif args.trace:
        untraced, traced = logs
        metrics = tracing.per_layer_metrics(tracer, traced.timed(), workload.step_units)
        fast, slow = mpix_per_s(untraced), mpix_per_s(traced)
        metrics["trace.untraced_mpix_per_s"] = (fast, "Mpix/s")
        metrics["trace.traced_mpix_per_s"] = (slow, "Mpix/s")
        metrics["trace.overhead_pct"] = ((fast / slow - 1.0) * 100.0, "%")
        with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "unit", "attrs"],
                       "timed_units": traced.timed(),
                       "named_layers": tracing.named_layer_table(tracer.spans, traced.timed()),
                       "spans": tracer.spans}, f)
    else:
        metrics = end_to_end(logs[0], setup_s)
    result = {
        "correct": measured and failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    with open(os.path.join(out_dir, "record.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    n = record["timed_units"][-1]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:32s} {value:14.6g} {unit:8s} (n={n} units)")
    print(f"{args.workload:15s} error_rate {failed}/{attempted}; checks: "
          + ", ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in checks.items()))
    return result


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode not in (0, 1) or not lines:
            sys.exit(f"error: workload {name} exited with code {child.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def record_reference() -> None:
    """Rewrite reference.json from the current program (only when outputs change on purpose)."""
    from workloads import REFERENCE_PATH, evaluate_reference_row, train_reference_losses

    work = os.path.join(OUT, "reference")
    shutil.rmtree(work, ignore_errors=True)
    try:
        reference = {
            "recorded_at": git_commit(),
            "rtol": 1e-5,
            "train_losses": train_reference_losses(os.path.join(work, "train")),
            "evaluate_all_row": evaluate_reference_row(os.path.join(work, "evaluate")),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    print(f"wrote {REFERENCE_PATH}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current program and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    _pin_blas_threads()
    _import_program()
    if args.record_reference:
        record_reference()
        return 0
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
