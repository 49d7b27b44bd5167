#!/usr/bin/env python3
"""Self-test of the scenario-matrix benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. A short (--quick) untraced run of every workload prints every end-to-end
   metric of BENCHMARK.json with its unit, and no run fails.
2. A short traced run of every workload prints every per-layer metric with
   its unit, and no run fails.
3. A deliberately wrong expected value on the default seed is reported as a
   failed run, which proves the output check can fail.

Exits 0 when all three hold. Takes about two minutes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["paper-n50", "meanfield-1e4", "hybrid-1e6"]


def bench(*args):
    out = subprocess.run([sys.executable, RUN, "--seconds", "0", *args], cwd=ROOT,
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"selftest: run.py {' '.join(args)} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            problems.append(what)

    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[kind]}
        for w in WORKLOADS:
            r = bench("--workload", w, "--seed", "1", "--trace", str(trace), "--quick")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == units, f"{w} trace={trace}: all {len(units)} {kind} metrics with units")
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{w} trace={trace}: {r['attempted']} runs attempted, {r['failed']} failed")

    # The check must be able to fail: perturb one recorded statistic.
    with open(os.path.join(HERE, "expected.json")) as f:
        wrong = json.load(f)
    wrong["workloads"]["paper-n50"]["reno"]["events"] += 1
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    path = os.path.join(HERE, "_out", "wrong-expected.json")
    with open(path, "w") as f:
        json.dump(wrong, f)
    r = bench("--workload", "paper-n50", "--seed", "1", "--trace", "0", "--expected", path)
    expect(not r["correct"] and r["failed"] >= 1
           and r["metrics"]["passed_run_share"]["value"] < 1,
           f"wrong expected value reported: {r['failed']} of {r['attempted']} runs failed")

    if problems:
        raise SystemExit(f"selftest: {len(problems)} check(s) failed")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
