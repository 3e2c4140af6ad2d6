#!/usr/bin/env python3
"""Builds and runs the PARINDA end-to-end benchmark.

    python3 perfbench/run.py --workload sdss-zipf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. The benchmark's last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. Build output goes to
stderr. --test builds and runs the benchmark's own tests, then checks that
every workload prints exactly the metrics BENCHMARK.json declares.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sdss-zipf", "sdss-distinct", "sdss-zipf-tight"]


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    """Configures (once) and builds `target`; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no PARINDA sources at %s" % os.path.join(ROOT, "src"))
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", "4"],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, target)


def result_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1])


def self_test():
    """The benchmark's own tests, then the metric names and units of every
    workload and mode against BENCHMARK.json (on the small sizes)."""
    subprocess.run([build("perfbench_test")], check=True, cwd=ROOT)
    bench = build("parinda_perfbench")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {w["name"] for w in spec["workloads"]}
    if declared != set(WORKLOADS):
        sys.exit("BENCHMARK.json workloads %s != %s" % (sorted(declared), WORKLOADS))
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            out = subprocess.run(
                [bench, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--small"],
                check=True, capture_output=True, text=True, cwd=ROOT).stdout
            result = result_line(out)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                sys.exit("%s --trace %s: metrics %s != BENCHMARK.json %s"
                         % (workload, trace, got, want))
            if not result["correct"] or result["failed"] != 0:
                sys.exit("%s --trace %s: run not correct: %s" % (workload, trace, out))
            print("ok %s --trace %s: %d metrics match BENCHMARK.json"
                  % (workload, trace, len(got)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--test", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()
    if args.test:
        self_test()
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    bench = build("parinda_perfbench")
    return subprocess.run(
        [bench, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
