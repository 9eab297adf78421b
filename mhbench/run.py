#!/usr/bin/env python3
"""Builds the MHETA benchmark driver from source and runs it.

    python3 mhbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0
    python3 mhbench/run.py --self-test

Run from the repository root. The driver and the libraries it measures are
built from ../src into .bench_build/mhbench (RelWithDebInfo, the repository's
default build type); later runs only re-check the build. Results files and
traced spans go to .bench_build/results. The last line of standard output is
the JSON result; the exit status is non-zero, with no result printed, when
the build or the run fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "mhbench")
BINARY = os.path.join(BUILD, "mhbench")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("mhbench: no MHETA sources at src/ beside mhbench/", file=sys.stderr)
        return False
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "mhbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "mhbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                print("mhbench: build failed (log: %s)" % log_path, file=sys.stderr)
                return False
    return True


def main(argv):
    if not build():
        return 1
    args = [BINARY] + argv
    if "--self-test" not in argv:
        args += ["--out-dir", os.path.join(BUILD_ROOT, "results"),
                 "--work-dir", os.path.join(BUILD_ROOT, "run")]
    try:
        run = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("mhbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        return run.returncode
    if "--self-test" not in argv:
        try:
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise ValueError("unexpected keys")
        except ValueError as e:
            sys.stderr.write(run.stdout)
            print("mhbench: no result line (%s)" % e, file=sys.stderr)
            return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
