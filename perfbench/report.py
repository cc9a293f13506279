"""Regenerate the figures of perfbench/README.md.

    python3 perfbench/report.py

Runs perfbench/run.py once per seed (1..10) on each workload of
BENCHMARK.json with tracing off, then once with tracing on, in the run
length BENCHMARK.json fixes.  Prints, per workload, each end-to-end metric's median and its
spread, the distance between the first and third quartile as a share of
the median, next to the metric's bound, and the same for the wall-clock
figures; then the per-layer metrics of the traced runs and the tracing
overhead, the traced run's op_ref_p50 against the untraced runs' median.
Everything is also written to perfbench/results/report.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of run.py; returns the full record it wrote."""
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
    )
    return json.loads((BENCH / "results" / f"{workload}_seed{seed}_trace{trace}.json").read_text())


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "min": min(values), "max": max(values)}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    sys.stdout.reconfigure(line_buffering=True)
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {}
    for workload in workloads:
        results = [run(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        entry = {
            "runs": RUNS,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "metrics": {
                name: summary([r["metrics"][name]["value"] for r in results]) | {"unit": results[0]["metrics"][name]["unit"]}
                for name in results[0]["metrics"]
            },
            "wall": {name: summary([r["wall"][name] for r in results]) for name in results[0]["wall"] if
                     all(name in r["wall"] for r in results)},
        }
        print(f"\n## {workload}: {RUNS} runs of {seconds} s, ops per run {entry['attempted']}, "
              f"failed {sum(entry['failed'])}, correct {entry['correct']}\n")
        print("| metric | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for name, s in entry["metrics"].items():
            print(f"| {name} ({s['unit']}) | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} | "
                  f"{100 * s['spread']:.1f}% | {100 * bounds[name]:.0f}% |")
        for name, s in entry["wall"].items():
            print(f"| {name} (wall clock, not gated) | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} | "
                  f"{100 * s['spread']:.1f}% | |")
        traced = run(workload, 1, seconds, 1)
        untraced = entry["metrics"]["op_ref_p50"]["median"]
        entry["traced"] = {
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            "op_ref_p50": traced["traced"]["op_ref_p50"],
            "overhead": traced["traced"]["op_ref_p50"] / untraced - 1.0,
        }
        print(f"\ntraced op_ref_p50 {entry['traced']['op_ref_p50']:.4g} against {untraced:.4g} untraced "
              f"(median of {RUNS}): overhead {100 * entry['traced']['overhead']:+.1f}%")
        report[workload] = entry
    print("\n## per-layer metrics (traced run, seed 1, by named workload)\n")
    names = list(report[workloads[0]]["traced"]["metrics"])
    print("| metric | " + " | ".join(workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    for name in names:
        print(f"| {name} | " + " | ".join(f"{report[w]['traced']['metrics'][name]:.4g}" for w in workloads) + " |")
    (BENCH / "results").mkdir(exist_ok=True)
    (BENCH / "results" / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
