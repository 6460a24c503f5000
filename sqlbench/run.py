#!/usr/bin/env python3
"""SQL serving benchmark for recycledb.

Builds the benchmark (the recycledb library sources of this checkout plus
the benchmark program in this directory) with CMake, then runs one workload:

    python3 sqlbench/run.py --workload hot_dashboard --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload BENCHMARK.json lists, in turn, with
the same arguments. Run it from the root of a checkout. Build output goes
to stderr and into the build directory ($CARGO_TARGET_DIR, default
.bench_build); the report goes to stdout, ending with one JSON
line per workload. Exit status is non-zero on a failed build, a failed
set-up, or a wrong answer.
"""
import json
import os
import subprocess
import sys


def build(root, build_dir):
    src_dir = os.path.join(root, "sqlbench")
    obj_dir = os.path.join(build_dir, "sqlbench")
    os.makedirs(obj_dir, exist_ok=True)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(obj_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", src_dir, "-B", obj_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", obj_dir, "-j", "4"], check=True,
                   **quiet)
    return os.path.join(obj_dir, "sqlbench")


def main():
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src")):
        print("sqlbench: no src/ in %s; run from a recycledb checkout" % root,
              file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("sqlbench: build failed: %s" % e, file=sys.stderr)
        return 2
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args:
        at = args.index("--workload") + 1
        if at < len(args) and args[at] == "all":
            with open(os.path.join(root, "BENCHMARK.json")) as f:
                names = [w["name"] for w in json.load(f)["workloads"]]
            runs = [args[:at] + [name] + args[at + 1:] for name in names]
    status = 0
    for run_args in runs:
        proc = subprocess.run([binary, *run_args, "--trace-dir", trace_dir])
        status = max(status, proc.returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
