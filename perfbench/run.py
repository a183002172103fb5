#!/usr/bin/env python3
"""Build and run ckptsim's benchmark from the root of a checkout.

    python3 perfbench/run.py --workload paper_figures --seed 7 --seconds 24 --trace 0

Builds the ckptsim library and the benchmark from source (Release, into
$CARGO_TARGET_DIR or .bench_build), then runs one workload -- or `all` --
in a single process.  Its standard output ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  Build output goes to
standard error.  The exit status is the benchmark's: non-zero when the
build fails or an output check fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["paper_figures", "san_engine", "service_mixed", "variants", "all"]
RUN_TIMEOUT_S = 170


def build(root: Path, build_dir: Path) -> Path:
    jobs = str(len(os.sched_getaffinity(0)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "ckptsim_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "ckptsim_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out_dir = root / ".bench_out"
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    with subprocess.Popen(cmd, cwd=root) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
