#!/usr/bin/env python3
"""Repository benchmark: builds DataCell from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Workloads: wire_chain, wire_sharded, sql_standing (see README.md).
Run it from the root of a source tree. It builds into .bench_build/ with
CMake (Release), then runs the harness, whose last stdout line is the
result JSON: {"correct", "attempted", "failed", "metrics"}. Spans of a
traced run go to .bench_build/traces/. Exits non-zero, printing no result,
when the sources are missing or the build or the harness fails.
"""

import argparse
import json
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "perfbench_harness")
LAUNCHER = os.path.join(BUILD, "perfbench_launch")
SERVER = os.path.join(BUILD, "datacell", "tools", "datacell_server")
WORKLOADS = ("wire_chain", "wire_sharded", "sql_standing")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the two targets incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no DataCell sources under " + ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench_harness", "perfbench_launch", "datacell_server"])
    for cmd in steps:
        # Build output goes to stderr so stdout stays the harness's report.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return all(os.path.isfile(p) for p in (HARNESS, LAUNCHER, SERVER))


def source_id():
    """The git sha when the tree is a git checkout, else a digest of the
    program's sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the harness's own checks, including a wire run "
                             "with injected faults that must all be counted")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 1

    if args.selftest:
        if subprocess.run([HARNESS, "--selftest"], cwd=ROOT).returncode != 0:
            return 1
        # A real wire run whose receiver corrupts what it decodes: the run
        # must come back incorrect with exactly the planted faults counted.
        run = subprocess.run([HARNESS, "--workload", "wire_chain", "--seed", "1",
                              "--seconds", "1", "--trace", "0", "--server", SERVER,
                              "--inject-fault"],
                             cwd=ROOT, capture_output=True, text=True, timeout=170)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
        result = json.loads(last) if last.startswith("{") else {}
        if run.returncode != 0 or result.get("correct") is not False \
                or result.get("failed") != 5:
            log("injected-fault wire run was not caught: " + last)
            return 1
        print("selftest: injected faults counted (failed=%d of %d)"
              % (result["failed"], result["attempted"]))
        return 0

    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--server", SERVER, "--git-sha", source_id(),
           "--trace-dir", os.path.join(BUILD, "traces")]
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=170)
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
