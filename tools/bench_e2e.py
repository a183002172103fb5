#!/usr/bin/env python3
"""Time the regeneration of the 20 committed CSVs and byte-compare them.

Runs every CSV bench of one or more build trees in a scratch directory at
`--jobs 4`, 10 times, alternating the trees within each round so they
share the machine's load, and writes a JSON ledger: per bench and in
total, the median, minimum and interquartile range of the wall seconds,
and whether every regenerated CSV matched the committed copy byte for
byte.  The bench names come from bench/repro_csvs.cmake, the script
behind the `repro` ctest.

    python3 tools/bench_e2e.py --build change=build \\
        --build parent=../parent/build --out BENCH_e2e.json

The committed CSVs are full-fidelity runs, so CKPTSIM_QUICK is cleared.
"""
import argparse
import filecmp
import json
import os
import platform
import re
import statistics
import subprocess
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
JOBS = 4


def csv_names():
    """The CSV list of the repro ctest, `set(csvs ...)` in repro_csvs.cmake."""
    with open(os.path.join(ROOT, "bench", "repro_csvs.cmake")) as f:
        body = re.search(r"^set\(csvs\s(.*?)\)", f.read(), re.S | re.M).group(1)
    return body.split()


def spread(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return {"median": xs[0], "min": xs[0], "iqr": 0.0}
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": statistics.median(xs), "min": xs[0], "iqr": q[2] - q[0]}


def run_tree(bench_dir, source_dir, csvs, env):
    """One regeneration pass: seconds per bench and the names that differ."""
    seconds, differ = {}, []
    with tempfile.TemporaryDirectory(prefix="ckptsim_e2e_") as work:
        for name in csvs:
            t0 = time.perf_counter()
            subprocess.run([os.path.join(bench_dir, "bench_" + name), "--jobs", str(JOBS)],
                           cwd=work, env=env, check=True, stdout=subprocess.DEVNULL)
            seconds[name] = time.perf_counter() - t0
            if not filecmp.cmp(os.path.join(work, name + ".csv"),
                               os.path.join(source_dir, name + ".csv"), shallow=False):
                differ.append(name)
    return seconds, differ


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", action="append", required=True,
                        help="LABEL=BUILD_DIR of a configured and built tree (repeatable)")
    parser.add_argument("--source-dir", default=ROOT, help="tree holding the committed CSVs")
    parser.add_argument("--out", default="BENCH_e2e.json")
    args = parser.parse_args()

    csvs = csv_names()
    # The benches run in a scratch directory, so relative build paths are
    # resolved against the caller's directory first.
    builds = [(label, os.path.abspath(path))
              for label, path in (b.split("=", 1) for b in args.build)]
    env = {k: v for k, v in os.environ.items() if k != "CKPTSIM_QUICK"}
    passes = {label: [] for label, _ in builds}
    for r in range(RUNS):
        order = builds if r % 2 == 0 else list(reversed(builds))
        for label, build_dir in order:
            passes[label].append(run_tree(os.path.join(build_dir, "bench"), args.source_dir,
                                          csvs, env))

    ledger = {
        "schema": "ckptsim/bench-e2e/v1",
        "what": "wall seconds to regenerate the committed CSVs, one bench after another",
        "jobs": JOBS,
        "runs": RUNS,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "builds": {},
    }
    for label, _ in builds:
        runs = passes[label]
        differ = sorted({name for _, d in runs for name in d})
        ledger["builds"][label] = {
            "csvs_byte_identical": not differ,
            "differ": differ,
            "total_s": spread([sum(s.values()) for s, _ in runs]),
            "per_bench_s": {name: spread([s[name] for s, _ in runs]) for name in csvs},
        }
    with open(args.out, "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")
    for label, b in ledger["builds"].items():
        print(label, "total median %.3f s" % b["total_s"]["median"],
              "byte-identical" if b["csvs_byte_identical"] else "DIFFER: %s" % b["differ"])
    return 0 if all(b["csvs_byte_identical"] for b in ledger["builds"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
