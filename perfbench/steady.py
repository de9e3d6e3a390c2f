#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and reports the spread.

Run from the root of a checkout:

    python3 perfbench/steady.py --runs 10 [--workloads decompose,serve]
        [--seed0 1] [--seconds N] [--out FILE] [--against FILE]

Run k uses seed seed0 + k. For every end-to-end metric of every workload
it prints the median, the quartiles (statistics.quantiles(n=4)), the
spread (q3 - q1) / median and the metric's bound from BENCHMARK.json.
A spread above the bound is flagged NOISY, above a third of it WIDE;
setup_s is judged like every other metric. Runs whose p95_ms has fewer than
10 samples beyond it are flagged. --out saves the runs as JSON; --against
compares with such a file: every median must not be worse than the
earlier one by more than its bound, and the digest of every
(workload, seed) pair must match.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"run failed: {' '.join(cmd)}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = re.search(r"^digest: (\w+)", done.stdout, re.M)
    beyond = re.search(r"^p95_ms = .*beyond=(\d+)", done.stdout, re.M)
    return {
        "workload": workload,
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "digest": digest.group(1) if digest else "",
        "p95_beyond": int(beyond.group(1)) if beyond else 0,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(runs, spec):
    ok = True
    for wl in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == wl]
        print(f"\n== {wl}: {len(mine)} runs, seeds "
              f"{[r['seed'] for r in mine]}")
        for r in mine:
            if not r["correct"] or r["failed"]:
                print(f"  seed {r['seed']}: INCORRECT ({r['failed']} failed)")
                ok = False
            if r["p95_beyond"] < 10:
                print(f"  seed {r['seed']}: p95_ms rests on "
                      f"{r['p95_beyond']} samples beyond it (< 10)")
                ok = False
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]] for r in mine]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag, ok = "NOISY", False
            elif spread > m["bound"] / 3:
                flag = "WIDE"
            print(f"  {m['name']:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.3f}{m['bound']:>7.2f} {flag}")
    return ok


def compare(runs, earlier, spec):
    ok = True
    digests = {(r["workload"], r["seed"]): r["digest"] for r in earlier}
    for r in runs:
        d = digests.get((r["workload"], r["seed"]))
        if d is not None and d != r["digest"]:
            print(f"digest differs: {r['workload']} seed {r['seed']}: "
                  f"{d} vs {r['digest']}")
            ok = False
    print("\nmedian vs earlier set:")
    for wl in dict.fromkeys(r["workload"] for r in runs):
        for m in spec["end_to_end"]:
            new = statistics.median(r["metrics"][m["name"]]
                                    for r in runs if r["workload"] == wl)
            old_vals = [r["metrics"][m["name"]]
                        for r in earlier if r["workload"] == wl]
            if not old_vals:
                continue
            old = statistics.median(old_vals)
            change = (new - old) / old
            worse = change if m["better"] == "lower" else -change
            flag = "WORSE" if worse > m["bound"] else ""
            ok = ok and not flag
            print(f"  {wl:<10}{m['name']:<14}{old:>14.6g} -> {new:<14.6g}"
                  f"{change:+8.3f} {flag}")
    return ok


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()

    runs = []
    for wl in args.workloads.split(","):
        for k in range(args.runs):
            t0 = time.time()
            r = run_once(wl, args.seed0 + k, args.seconds)
            runs.append(r)
            print(f"{wl} seed {r['seed']}: {time.time() - t0:.1f} s "
                  f"digest {r['digest']} " +
                  " ".join(f"{k}={v:.6g}" for k, v in r["metrics"].items()),
                  flush=True)
    ok = report(runs, spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    if args.against:
        ok = compare(runs, json.load(open(args.against)), spec) and ok
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
