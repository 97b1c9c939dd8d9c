#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures a Release build
of perfbench/ (which compiles the simulator from ../src) under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build.  Later calls
only rebuild what changed.  Build output goes to standard error, so the
benchmark's own output, ending in its one-line JSON result, is all that
reaches standard output.  Traced runs write their span file to
<build dir>/perfbench/traces/<workload>-seed<n>.trace.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("line8_cbr", "fib_1m_zipf", "overload_guarded", "split_line_2d")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Run a build step; its output goes to stderr only on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"build step failed: {' '.join(cmd)}")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/", 2)
    os.makedirs(out, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            run_quiet(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, os.cpu_count() or 1))
        run_quiet(["cmake", "--build", out, "-j", jobs, "--target",
                   "perfbench", "perfbench_selftest"])


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown(no-git)"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                               "--dirty"], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run(cmd, capture=False):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
    return proc


def check_result(stdout, trace):
    """The result line must report exactly BENCHMARK.json's metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        fail("result metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, units "
             f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's self-tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    out = build_dir()
    build(out)
    sys.stdout.flush()
    if args.selftest:
        sys.exit(run([os.path.join(out, "perfbench_selftest")]).returncode)

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
           "--trace", str(args.trace), "--git", git_describe()]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.trace.json")]
    proc = run(cmd, capture=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode)
    try:
        check_result(proc.stdout, args.trace)
    except (OSError, ValueError, KeyError, AttributeError) as e:
        fail(f"cannot check the result against BENCHMARK.json: {e}")


if __name__ == "__main__":
    main()
