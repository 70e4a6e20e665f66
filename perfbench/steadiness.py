#!/usr/bin/env python3
"""Steadiness report for the served-query benchmark.

Runs every workload repeatedly, interleaving the workloads (run i of each
workload before run i+1 of any), one seed per run, and prints for each
end-to-end metric its median, quartiles, interquartile range as a share of
the median, max/min ratio and the bound BENCHMARK.json sets. Run from the
root of a checkout:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads served_point --seed0 100

Quartiles are Python's statistics.quantiles(values, n=4). Every run's
result object is kept in .bench_build/perfbench/steadiness/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    return json.loads(lines[-1]), elapsed


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    lo, hi = min(values), max(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "iqr_frac": (q3 - q1) / med if med else float("nan"),
        "max_over_min": hi / lo if lo else float("nan"),
    }


def main():
    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]

    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                           "perfbench", "steadiness")
    os.makedirs(out_dir, exist_ok=True)
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            seed = args.seed0 + i
            res, elapsed = run_once(spec, w, seed, args.seconds, args.trace)
            results[w].append({"seed": seed, "elapsed_s": elapsed, "result": res})
            print("run %2d %-18s seed %-4d %5.1fs correct=%s failed=%d/%d" %
                  (i + 1, w, seed, elapsed, res["correct"], res["failed"],
                   res["attempted"]), flush=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    with open(os.path.join(out_dir, "steadiness-%s.json" % stamp), "w") as f:
        json.dump(results, f, indent=1)

    print()
    print("%-18s %-24s %12s %12s %12s %8s %8s %6s" %
          ("workload", "metric", "median", "q1", "q3", "iqr/med", "max/min",
           "bound"))
    worst = {}
    for w in workloads:
        for m in metrics:
            vals = [r["result"]["metrics"][m["name"]]["value"]
                    for r in results[w] if m["name"] in r["result"]["metrics"]]
            if not vals:
                continue
            s = summarize(vals)
            bound = m.get("bound")
            print("%-18s %-24s %12.6g %12.6g %12.6g %7.2f%% %8.3f %6s" %
                  (w, m["name"], s["median"], s["q1"], s["q3"],
                   100 * s["iqr_frac"], s["max_over_min"],
                   "-" if bound is None else bound))
            if bound is not None and m["name"] != "setup_s":
                worst[(w, m["name"])] = s["iqr_frac"] / bound
    if worst:
        (w, m), share = max(worst.items(), key=lambda kv: kv[1])
        print("\nwidest spread relative to its bound: %s on %s, %.0f%% of the "
              "bound (target: below 33%%)" % (m, w, 100 * share))
    bad = [w for w in workloads for r in results[w] if not r["result"]["correct"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
