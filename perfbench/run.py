#!/usr/bin/env python3
"""Build and run the Megh benchmark (see README.md).

    python3 perfbench/run.py --workload planetlab-flat-800 --seed 1 \
        --seconds 15 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, Release) into the build
directory ($CARGO_TARGET_DIR, default .bench_build); later runs rebuild
incrementally. The benchmark binary prints every metric by name and unit and,
as its last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}. Run records and span files go to <build dir>/runs.

Exit codes: 0 result printed, 2 build failed, 4 timed out; otherwise the
benchmark binary's own code (3: not a timing build, sanitized or unoptimized).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
# Leaves room under a 180 s limit for the incremental build check.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(build_path):
    if not (ROOT / "src").is_dir() or not (ROOT / "tools").is_dir():
        log("library sources (src/, tools/) are missing; nothing to build")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_path / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(build_path),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_path), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_path = build_dir()
    if not build(build_path):
        return 2

    runs = build_path.parent / "runs"
    cmd = [str(build_path / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", str(build_path / "tools" / "megh_serve"),
           # Relative, so serve socket paths stay short.
           "--scratch", os.path.relpath(runs, ROOT), "--git-sha", git_sha()]
    # Own process group, so a timeout also stops the served workload's
    # daemon.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 4
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    start = time.monotonic()
    code = main()
    log(f"done in {time.monotonic() - start:.1f} s (exit {code})")
    sys.exit(code)
