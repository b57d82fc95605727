#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at reduced size (--small) for a few seconds under a
seed the reference figures do not use, untraced and traced, and requires
every check to pass, with one failed operation (the hire) per company-rw
step and none elsewhere. Then plants two defects and requires the checks
to catch each: one delivered tuple dropped (every workload), and one
shadow-model update skipped (company-rw). Exits 0 when all of that holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 77
SECONDS = "2"
WORKLOADS = ["oo1-traverse", "oo1-closure", "company-rw"]


def run(workload, trace, plant=None):
    args = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace), "--small"]
    if plant:
        args += ["--plant", plant]
    out = subprocess.run(args, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload}: exit code {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main():
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            r, report = run(w, trace)
            label = f"{w} trace={trace}"
            if not r["correct"]:
                problems.append(f"{label}: checks failed: {report[-1:]}")
                continue
            expect_failed = r["attempted"] // 4 if w == "company-rw" else 0
            if r["failed"] != expect_failed:
                problems.append(f"{label}: {r['failed']} of {r['attempted']} operations failed, "
                                f"expected {expect_failed}")
            print(f"ok   {label}: {r['attempted']} attempted, {r['failed']} failed")
    plants = [(w, "drop-tuple") for w in WORKLOADS] + [("company-rw", "skip-model")]
    for w, plant in plants:
        r, report = run(w, 0, plant)
        if r["correct"]:
            problems.append(f"{w}: planted {plant} was not caught")
        else:
            print(f"ok   {w} plant={plant}: caught ({report[-1] if report else ''})")
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
