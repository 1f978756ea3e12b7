#!/usr/bin/env python3
"""End-to-end benchmark entry point.

One run:
    python3 perfbench/run.py --workload mega_field --seed 1 --seconds 60 --trace 0

builds the perfbench binary from this checkout's sources (into .bench_build/
at the checkout root), runs the workload, and prints the binary's output. The
last line of standard output is the result object:
{"correct", "attempted", "failed", "metrics"}.

Repeat mode:
    python3 perfbench/run.py --workload live_mesh --seed 1 --seconds 60 --trace 0 --repeat 10

runs the workload with seeds seed, seed+1, ..., seed+N-1 and prints, per
metric, the median, the quartiles (statistics.quantiles(n=4)) and the
quartile spread as a share of the median.

Standard library only. Exit status is non-zero when the build or a run fails;
a failed build prints no result line.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "perfbench")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
SPAN_DIR = os.path.join(BUILD_DIR, "spans")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


_children = []


def stop_children(signum, _frame):
    """Kill every child's process group, wait for each, and exit."""
    for proc in list(_children):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    sys.exit(128 + signum)


def call(cmd, timeout=None, **kwargs):
    """subprocess.run in a process group of its own, so that a timeout or a
    signal to this script stops the child and everything it started."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    _children.append(proc)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        _children.remove(proc)
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def check_call(cmd, **kwargs):
    result = call(cmd, **kwargs)
    if result.returncode != 0:
        raise subprocess.CalledProcessError(result.returncode, cmd)


def build():
    """Configure (once) and build the binary; build output goes to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = any(os.path.exists(os.path.join(CMAKE_DIR, f))
                         for f in ("build.ninja", "Makefile"))
        if not configured:
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            check_call(
                ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"] + generator,
                stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        check_call(["cmake", "--build", CMAKE_DIR, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr)


def run_once(workload, seed, seconds, trace):
    """Run the binary once; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--span-dir", SPAN_DIR]
    try:
        proc = call(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def repeat(args):
    values = {}
    units = {}
    all_correct = True
    for i in range(args.repeat):
        seed = args.seed + i
        code, out = run_once(args.workload, seed, args.seconds, args.trace)
        result = result_of(out) if code == 0 else None
        if result is None:
            log(f"run with seed {seed} failed")
            return 1
        all_correct = all_correct and result["correct"]
        log(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} "
            + " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    summary = {}
    print(f"{args.workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}, "
          f"{args.seconds} s each, trace={args.trace}")
    print(f"{'metric':32} {'unit':8} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name]}
        print(f"{name:32} {units[name]:8} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "trace": args.trace,
                      "correct": all_correct, "metrics": summary}))
    return 0 if all_correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["paper_economy", "flood_churn", "mega_field", "live_mesh"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N seeds and print median and quartiles per metric")
    args = parser.parse_args()
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, stop_children)

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    if args.repeat > 0:
        return repeat(args)
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
