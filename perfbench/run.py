#!/usr/bin/env python3
"""Build ncpm and the benchmark harness from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root. The last line of stdout is the result JSON;
build output and progress go to stderr. --record appends one JSON line per
run (workload, seed, mode, provenance, result) for compare.py.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def build(targets):
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr)
    return bdir


def git(*args):
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                              text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def run_harness(cmd):
    """Runs the harness in its own process group so a timeout can stop it
    and the server it spawned; returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopped")
        return 3, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the run to this JSON-lines file")
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no ncpm sources next to {HERE}; run from a full checkout")
        return 2
    try:
        if args.selftest:
            bdir = build(["perfbench_selftest"])
            return subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode
        if not args.workload:
            ap.error("--workload is required")
        bdir = build(["ncpm_perfbench", "ncpm_cli"])
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    cmd = [os.path.join(bdir, "ncpm_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(bdir, "ncpm", "examples", "ncpm_cli"),
           "--out-dir", out_dir,
           "--commit", head.strip() if head else "unknown",
           "--dirty", "unknown" if status is None else ("1" if status.strip() else "0")]
    code, out = run_harness(cmd)
    sys.stdout.write(out)
    sys.stdout.flush()
    if args.record and code == 0:
        lines = out.strip().splitlines()
        prov = next((json.loads(l)["provenance"] for l in lines if l.startswith('{"provenance"')),
                    {})
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "provenance": prov, "result": json.loads(lines[-1])}
        with open(args.record, "a") as f:
            f.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
