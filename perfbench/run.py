#!/usr/bin/env python3
"""Repository benchmark: builds perfbench against libpgti from source
and runs one workload.

    python3 perfbench/run.py --workload train-index --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --unit-tests

The build lives in $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the directory the command runs from.
With --trace 0 the result carries every end_to_end metric of
BENCHMARK.json, with --trace 1 every per_layer metric (and a Chrome
trace-event file is written next to the build).  The last line of
stdout is the JSON result; the exit code is nonzero, with no result,
when the build or the run fails.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build(build_dir, target):
    """Configures on first use, then builds `target` incrementally."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)  # retry configure next time
            fail("configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", target, "--parallel", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, target)


def parse_result(stdout):
    for line in reversed(stdout.splitlines()):
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    fail("the run printed no RESULT line")


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    contract = load_json(os.path.join(HERE, "contract.json"))
    workloads = [w["name"] for w in bench["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int, default=contract["seed"]["default"])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--unit-tests", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    build_dir = os.path.abspath(build_dir)
    if args.unit_tests:
        sys.exit(subprocess.run([build(build_dir, "perfbench_test")]).returncode)
    if not args.workload:
        fail("--workload is required")

    exe = build(build_dir, "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("the run exited with code %d" % proc.returncode)
    raw = parse_result(proc.stdout)

    # Every metric of the mode, in BENCHMARK.json order, with its unit.
    # A per-layer metric this workload's path never reaches reads 0.
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    info = contract["metrics"]
    emitted = raw["metrics"]
    unknown = sorted(set(emitted) - {m["name"] for m in declared})
    if unknown:
        fail("undeclared metrics: " + ", ".join(unknown))
    metrics = {}
    lines = []
    for m in declared:
        name = m["name"]
        on = info[name]["on"]
        if name not in emitted:
            if args.workload in on:
                fail("metric %s missing on %s" % (name, args.workload))
            value = 0.0
        else:
            value = emitted[name]
            if value is None or not math.isfinite(value):
                fail("metric %s is not finite" % name)
        metrics[name] = {"value": value, "unit": m["unit"]}
        where = "" if args.workload in on else "  (not on this workload's path)"
        moves = info[name].get("moves")
        if moves:
            where += "  -> moves %s on %s" % (", ".join(moves), ", ".join(info[name]["where"]))
        lines.append("%-34s %16.6f %-6s%s" % (name, value, m["unit"], where))

    for line in proc.stdout.splitlines():
        if not line.startswith("RESULT "):
            print(line)
    print("\n%s  seed %d  (%s)" % (args.workload, args.seed,
                                   "traced" if args.trace else "untraced"))
    print("\n".join(lines))
    attempted, failed = raw["attempted"], raw["failed"]
    print("fail_ratio = %.6f (%d failed of %d attempted)" %
          (failed / attempted if attempted else 0.0, failed, attempted))
    print(json.dumps({"correct": raw["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
