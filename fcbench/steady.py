#!/usr/bin/env python3
"""Steadiness check: run each workload several times and report the spread.

Run from the root of a fouriercat checkout:

    python3 fcbench/steady.py --runs 10 --save .fcbench_out/set-a.json
    python3 fcbench/steady.py --runs 10 --against .fcbench_out/set-a.json

Each run is ``run.py`` with its own seed (seed0, seed0 + 1, ...) and the
run length of BENCHMARK.json.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, against the metric's bound.  ``--against`` compares the
medians with an earlier saved set: a metric is worse when its median moved
in the bad direction by more than its bound.  The share of failed
operations must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    info = next(json.loads(line[5:]) for line in proc.stdout.splitlines() if line.startswith("info "))
    return result, info, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--save", help="write the raw results here (JSON)")
    parser.add_argument("--against", help="an earlier --save file to compare medians with")
    args = parser.parse_args(argv)

    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)["results"]

    results = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(args.runs):
            result, info, wall = run_once(workload, args.seed0 + i, spec["run_seconds"])
            runs.append({"seed": args.seed0 + i, "result": result, "info": info, "wall_s": wall})
            brief = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {args.seed0 + i}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} rounds={info['rounds']} "
                  f"ref_kernel={info['ref_kernel_s']} wall={wall:.1f}s {brief}", flush=True)
        results[workload] = runs
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        correct = all(r["result"]["correct"] for r in runs)
        print(f"== {workload}: {len(runs)} runs, failed shares {sorted(shares)}, all correct {correct}")
        ok &= len(shares) == 1 and correct
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarize(values)
            bound = bounds[name]
            verdict = "steady" if spread <= bound / 3 else "within" if spread <= bound else "UNSTEADY"
            ok &= verdict != "UNSTEADY"
            line = (f"   {name:32s} median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} spread {spread:.3f}"
                    f" bound {bound} {verdict}")
            if earlier and workload in earlier:
                old = statistics.median(r["result"]["metrics"][name]["value"] for r in earlier[workload])
                change = (med - old) / old if better[name] == "lower" else (old - med) / old
                line += f" | was {old:.5g}, worse by {change:+.3f}"
                if change > bound:
                    line += " REGRESSED"
                    ok = False
            print(line, flush=True)
        ref = [k for r in runs for k in r["info"]["ref_kernel_s"]]
        print(f"   machine.ref_kernel_s median {statistics.median(ref):.4g} "
              f"min {min(ref):.4g} max {max(ref):.4g}")
    if args.save:
        os.makedirs(os.path.dirname(os.path.abspath(args.save)), exist_ok=True)
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"results": results}, fh, indent=1)
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
