"""Run the benchmark over many seeds and summarize every metric.

    python3 perfbench/collect.py --seeds 1-10 --traced-seeds 1-2 --out baseline.json

Runs ``run.py`` once per workload of ``BENCHMARK.json`` and seed, one run at
a time, for ``run_seconds``: first with tracing off and then, for the traced
seeds, with tracing on.  For every metric it keeps all values with their
seeds, the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread (third minus first quartile, as a share of the
median).  It also keeps the median time of every member over all untraced
runs, checks that every traced run printed the same verdicts and dimensions
as the untraced run of its seed, and reports the tracing overhead as the
difference of the median ``ops_per_s`` with tracing off and on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    members, digest = {}, ""
    for line in lines:
        fields = line.split()
        if fields[0] == "member":
            members[fields[1]] = float(fields[3])
        elif fields[0] == "results":
            digest = fields[1]
    return json.loads(lines[-1]), members, digest


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def collect(workload: str, seeds: list[int], seconds: int, trace: int) -> dict:
    runs, by_member = [], {}
    for seed in seeds:
        result, members, digest = one_run(workload, seed, seconds, trace)
        runs.append({"seed": seed, "results_digest": digest, **result})
        for name, t in members.items():
            by_member.setdefault(name, []).append(t)
        print(f"{workload} seed {seed} trace {trace}: correct {result['correct']}",
              file=sys.stderr)
    names = runs[0]["metrics"]
    out = {"runs": runs,
           "metrics": {name: {"unit": runs[0]["metrics"][name]["unit"],
                              **summary([r["metrics"][name]["value"] for r in runs])}
                       for name in names},
           "all_correct": all(r["correct"] for r in runs)}
    if not trace:
        out["member_median_s"] = {name: statistics.median(ts)
                                  for name, ts in by_member.items()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="1-2")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    report = {"machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                          "platform": platform.platform()},
              "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        untraced = collect(workload, seed_range(args.seeds), seconds, 0)
        traced = collect(workload, seed_range(args.traced_seeds), seconds, 1)
        digests = {r["seed"]: r["results_digest"] for r in untraced["runs"]}
        report["workloads"][workload] = {
            "untraced": untraced, "traced": traced,
            "traced_results_match_untraced": all(
                digests.get(r["seed"]) == r["results_digest"] for r in traced["runs"]),
            "trace_overhead_ops_per_s": (untraced["metrics"]["ops_per_s"]["median"]
                                         - traced["metrics"]["trace.ops_per_s"]["median"])}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
