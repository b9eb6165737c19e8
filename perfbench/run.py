#!/usr/bin/env python3
"""Build the ComDML library and the benchmark from source, run one workload.

    python3 perfbench/run.py --workload cnn_compute --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the benchmark's scratch files (sockets,
checkpoints) live under it and are removed after the run, traces of
`--trace 1` runs are kept in its traces/ directory.

The last line of standard output is the result JSON:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The exit status is 0 only when the build
succeeded, every correctness check passed and the result lists exactly the
metrics BENCHMARK.json names.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench",
         "fleetd"],
        check=True, stdout=sys.stderr)


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Relative to the root where possible: unix socket paths must stay
    # short whatever directory the checkout lives in.
    build_dir = os.path.relpath(
        os.path.join(root, target, "perfbench"), root)
    try:
        want = expected_metrics(root, args.trace)
        build(root, os.path.join(root, build_dir))
    except (OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log(f"set-up failed: {e}")
        return 2

    workdir = os.path.join(build_dir, f"run-{os.getpid()}")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(os.path.join(root, trace_dir), exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--fleetd", os.path.join(build_dir, "fleetd"),
           "--workdir", workdir, "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(os.path.join(root, workdir), ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        got = set(result["metrics"])
        keys = set(result)
    except (ValueError, KeyError, TypeError):
        print(lines[-1])
        log(f"no result line (exit status {proc.returncode})")
        return proc.returncode or 4
    if keys != {"correct", "attempted", "failed", "metrics"} or got != want:
        log(f"result metrics differ from BENCHMARK.json: missing "
            f"{sorted(want - got)}, unexpected {sorted(got - want)}")
        return 5
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
