#!/usr/bin/env python3
"""Build and run the replicated job service's end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <paper4|ring64|fed_deep> \
        --seed <n> --seconds <s> --trace <0|1>

The program is compiled from ../src together with the benchmark program
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. Build output goes to
stderr; the benchmark's stdout is passed through, so the last stdout line is
the result JSON. Traced runs write their spans and Chrome traces to
<build root>/traces.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure (once) and build; returns the benchmark's path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    exe = os.path.join(build_dir, "perfbench")
    return exe if os.path.exists(exe) else None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(os.path.join(root, "perfbench"))
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, "traces")
    os.makedirs(out_dir, exist_ok=True)
    return subprocess.run([
        exe, "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--out-dir", out_dir,
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
