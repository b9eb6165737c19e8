#!/usr/bin/env python3
"""Paper-bench identity gate.

Runs the nine paper-reproduction benches from two build directories and
fails when any stdout line (or exit status) differs between them:

    python3 tools/paper_bench_diff.py BASE_BUILD HEAD_BUILD

Every bench runs twice per build: with the inherited environment (the
default pool size) and with COMDML_NUM_THREADS=1. The benches are
deterministic, so a refactor that claims to change no number must leave
their output byte-identical. The one exception is the wall-clock
`schedule time(us)` column of bench_ablation_splits, which varies between
two runs of one build; it is masked before comparing.

Exit status: 0 when every output matches, 1 on any difference or a
missing bench binary.
"""

import difflib
import os
import re
import subprocess
import sys

BENCHES = [
    "bench_ablation_allreduce",
    "bench_ablation_pairing",
    "bench_ablation_splits",
    "bench_fig1",
    "bench_fig3",
    "bench_privacy",
    "bench_table1",
    "bench_table2",
    "bench_table3",
]

# Table rows of bench_ablation_splits: "M  mean round(s)  schedule time(us)".
# The last column is measured wall-clock time; keep the first two.
_SPLITS_ROW = re.compile(r"^(\s*\d+\s+\S+)\s+\S+\s*$")

THREAD_SETTINGS = [("default threads", None), ("COMDML_NUM_THREADS=1", "1")]


def mask(bench, text):
    if bench != "bench_ablation_splits":
        return text.splitlines()
    return [_SPLITS_ROW.sub(r"\1 <wall>", line) for line in text.splitlines()]


def run(build, bench, threads):
    exe = os.path.join(build, bench)
    if not os.access(exe, os.X_OK):
        return None
    env = dict(os.environ)
    if threads is not None:
        env["COMDML_NUM_THREADS"] = threads
    proc = subprocess.run([exe], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    return proc.returncode, mask(bench, proc.stdout)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: paper_bench_diff.py BASE_BUILD HEAD_BUILD",
              file=sys.stderr)
        return 2
    base, head = argv[1], argv[2]
    failures = 0
    for label, threads in THREAD_SETTINGS:
        for bench in BENCHES:
            got_base = run(base, bench, threads)
            got_head = run(head, bench, threads)
            if got_base is None or got_head is None:
                missing = base if got_base is None else head
                print(f"FAIL {bench} ({label}): no executable in {missing}")
                failures += 1
                continue
            (code_base, out_base), (code_head, out_head) = got_base, got_head
            if code_base == code_head and out_base == out_head:
                print(f"ok   {bench} ({label})")
                continue
            failures += 1
            print(f"FAIL {bench} ({label}): exit {code_base} -> {code_head}")
            sys.stdout.writelines(
                line + "\n"
                for line in difflib.unified_diff(
                    out_base, out_head, fromfile=f"{base}/{bench}",
                    tofile=f"{head}/{bench}", lineterm=""))
    print(f"{failures} of {len(BENCHES) * len(THREAD_SETTINGS)} bench runs "
          "differ" if failures else "all paper bench outputs identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
