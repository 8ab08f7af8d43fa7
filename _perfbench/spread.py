#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json untraced on every
workload with seeds 1..10, twice (all workloads once, then all again),
and prints one Markdown table per workload: for each end-to-end metric,
each set's median and interquartile distance as a share of that median
(statistics.quantiles(values, n=4)), and how much worse one set's median
is than the other's, in whichever order reads worse, beside the metric's
bound. SPREAD.md holds the last output. Run from the repository root:

    python3 _perfbench/spread.py
"""

import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
SETS = 2


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect answers: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse(m, base, other):
    """How much worse other is than base, as a share of base."""
    change = (other - base) / base
    return change if m["better"] == "lower" else -change


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    runs = {(s, name): [] for s in range(SETS) for name in names}
    for s in range(SETS):
        for name in names:
            for seed in SEEDS:
                metrics = run_once(spec["command"], name, seed, spec["run_seconds"])
                runs[s, name].append(metrics)
                print(f"# set {s + 1} {name} seed {seed}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in sorted(metrics.items())), file=sys.stderr, flush=True)

    worst_spread = worst_shift = 0.0
    for name in names:
        print(f"\n### {name}\n")
        print("| metric | bound | set 1 median | set 1 IQR/median | set 2 median | set 2 IQR/median | worse in either order by |")
        print("|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            meds, spreads = [], []
            for s in range(SETS):
                q1, med, q3 = statistics.quantiles([r[m["name"]] for r in runs[s, name]], n=4)
                meds.append(med)
                spreads.append((q3 - q1) / med)
            shift = max(worse(m, meds[0], meds[1]), worse(m, meds[1], meds[0]))
            worst_spread = max(worst_spread, max(spreads) / m["bound"])
            worst_shift = max(worst_shift, shift / m["bound"])
            print(f"| `{m['name']}` | {m['bound']} | {meds[0]:.6g} | {spreads[0]:.4f} "
                  f"| {meds[1]:.6g} | {spreads[1]:.4f} | {shift:+.4f} |")
    print(f"\nLargest IQR/median as a share of its bound, setup_s included: {worst_spread:.3f}.")
    print(f"Largest median shift between the sets as a share of its bound: {worst_shift:.3f}.")


if __name__ == "__main__":
    main()
