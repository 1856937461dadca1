#!/usr/bin/env python3
"""End-to-end benchmark of the AsyncClock library.

Builds perfbench_driver (perfbench/CMakeLists.txt, a package of its own
over the library sources in src/) and runs one workload:

    python3 perfbench/run.py --workload looper_k9mail --seed 1 \\
        --seconds 10 --trace 0

The last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}; --trace 0 gives the
end-to-end metrics and --trace 1 the per-layer ones (see
perfbench/README.md). The exit code is the driver's: 0 when every
report check passed.

Two more modes:

    python3 perfbench/run.py --steadiness [--reps 10] [--seconds 10]
        [--trace 0|1]
    python3 perfbench/run.py --self-test

--steadiness runs the workloads as interleaved repetitions (rep r uses
seed r + 1) and prints, per workload and metric, the median, the
quartiles and the spread (q3 - q1) / median; the bounds in
BENCHMARK.json are set from that output. --self-test builds and runs
the harness tests in perfbench/tests.

Build products, daemon state and span logs go under $CARGO_TARGET_DIR
(default .bench_build) in the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("looper_k9mail", "async_fanout", "daemon_evict")


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configure (once) and build @p target; exits 1 on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: library sources not found under {ROOT / 'src'}")
        sys.exit(1)
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"perfbench: {' '.join(cmd)} failed ({proc.returncode})")
            sys.exit(1)
    return out / target


def metric_defs(trace):
    """(name, unit) of the metrics BENCHMARK.json lists for @p trace."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def run_driver(driver, workload, seed, seconds, trace):
    """One driver run; returns (exit code, result or None)."""
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--golden", str(BENCH_DIR / "golden.txt"),
           "--work-dir", str(work)]
    if trace:
        cmd += ["--spans-out", str(work / f"spans-{workload}-{seed}.jsonl")]
    # Every run measures the library's default clock backend and SIMD
    # kernels, whatever the caller's environment selects.
    env = {k: v for k, v in os.environ.items()
           if k not in ("ASYNCCLOCK_CLOCK", "ASYNCCLOCK_SIMD")}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, env=env,
                              timeout=2 * seconds + 60)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver timed out on {workload}")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
        values = raw["values"]
    except (IndexError, KeyError, TypeError, ValueError):
        log(f"perfbench: driver printed no result (exit {proc.returncode})")
        return proc.returncode or 1, None
    metrics = {}
    for name, unit in metric_defs(trace):
        if name not in values and not trace:
            log(f"perfbench: driver did not measure {name}")
            return 1, None
        # A layer the workload does not exercise reads 0.
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return proc.returncode, result


def steadiness(driver, args):
    samples = {w: {} for w in WORKLOADS}
    failed = 0
    for rep in range(args.reps):
        for w in WORKLOADS:
            code, result = run_driver(driver, w, rep + 1, args.seconds,
                                      args.trace)
            if code != 0 or result is None or not result["correct"]:
                failed += 1
                continue
            for name, m in result["metrics"].items():
                samples[w].setdefault(name, []).append(m["value"])
    print(f"{'workload':14} {'metric':28} {'n':>3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'spread':>8}")
    for w in WORKLOADS:
        for name, values in samples[w].items():
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            print(f"{w:14} {name:28} {len(values):3} {med:14.6g} "
                  f"{q1:14.6g} {q3:14.6g} {spread:8.4f}")
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be at least 1 and --seed not negative")

    if args.self_test:
        test = build("perfbench_test")
        return subprocess.run([str(test)], cwd=ROOT).returncode
    driver = build("perfbench_driver")
    if args.steadiness:
        return steadiness(driver, args)
    if not args.workload:
        p.error("--workload is required")
    code, result = run_driver(driver, args.workload, args.seed,
                              args.seconds, args.trace)
    if result is None:
        return code
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
