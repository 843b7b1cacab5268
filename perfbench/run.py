"""Benchmark of the depthtwo pipeline on seeded workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ``src``.  One
client in one process and thread runs operations back to back (a closed
loop) in whole passes over the workload's members, until ``--seconds`` have
passed.  An operation parses a fresh extension, runs the stages and checks
every verdict and realized dimension against the expected results.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  Both print a
digest of every member's verdicts and dimensions, which must be the same
for a seed with tracing on and off.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 11

STAGES = ("jsonio.extension_from_json", "bimodules.tensor_square",
          "bimodules.right_d2_quasibase", "bimodules.left_d2_quasibase",
          "bialgebroid.t_core", "galois.balanced_audit", "bialgebroid.build_T",
          "bialgebroid.axiom_audit", "galois.galois_data",
          "galois.comodule_algebra_audit", "galois.d2_iff_corollary_audit",
          "galois.main_theorem_audit")
KERNELS = ("bimodules.coproduct_summand_test", "bimodules.hom_space", "linalg.rref",
           "linalg.nullspace", "linalg.solve_in_span", "linalg.Matrix.matmul",
           "linalg.Quotient.induced")


def load_library() -> None:
    if not os.path.isfile(os.path.join(SRC, "depthtwo", "__init__.py")):
        sys.stderr.write(f"error: no depthtwo package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import depthtwo  # noqa: F401


class Measurement:
    """Outcome of whole passes over the members: latencies, failures, results."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_member: dict[str, list[float]] = {}
        self.failed = 0
        self.results: dict[str, tuple] = {}
        self.coeff_bits = 0
        self.passes = 0
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.elapsed


def run_passes(members, seconds: float, tracer=None) -> Measurement:
    import pipeline
    out = Measurement()
    stage = tracer.stage if tracer else pipeline.untraced
    reported = set()
    start = time.perf_counter()
    while True:
        for member in members:
            if tracer:
                tracer.new_operation()
            t0 = time.perf_counter()
            try:
                outcome = pipeline.run(member, stage)
                problems = pipeline.check(member, outcome)
            except Exception:  # a raising operation is counted, never dropped
                outcome = None
                problems = [traceback.format_exc()]
            latency = time.perf_counter() - t0
            out.latencies.append(latency)
            out.by_member.setdefault(member["name"], []).append(latency)
            if problems:
                out.failed += 1
                if member["name"] not in reported:
                    reported.add(member["name"])
                    sys.stderr.write(f"FAILED {member['name']}: {'; '.join(problems)}\n")
            if outcome is not None:
                out.results[member["name"]] = (outcome["verdicts"], outcome["dims"])
                if tracer:
                    out.coeff_bits = max(out.coeff_bits, pipeline.max_coeff_bits(outcome))
        out.passes += 1
        out.elapsed = time.perf_counter() - start
        if out.elapsed >= seconds:
            return out


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import depthtwo and generate
    the workload's documents."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                        "--workload", workload, "--seed", str(seed), "--seconds", "0"],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def end_to_end(run: Measurement, setup_s: float) -> dict:
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"ops_per_s": (run.ops_per_s, "1/s"),
            "peak_rss_mib": (rss_mib, "MiB"),
            "setup_s": (setup_s, "s")}


def per_layer(tracer, traced: Measurement, dims_total: dict) -> dict:
    n = traced.passes
    metrics = {}
    for name in STAGES + KERNELS:
        calls, incl, own = tracer.totals(name)
        metrics[f"{name}.s"] = (incl / n, "s")
        metrics[f"{name}.self_s"] = (own / n, "s")
        if name in KERNELS:
            metrics[f"{name}.calls"] = (calls / n, "count")
    solves = tracer.totals("linalg.solve_in_span")[0]
    metrics["linalg.rref.cells"] = (tracer.rref_cells / n, "count")
    metrics["linalg.solve_in_span.repeat_basis_ratio"] = (
        tracer.solve_repeats / solves if solves else 0.0, "ratio")
    metrics["bimodules.hom_space.unknowns"] = (tracer.hom_unknowns_max, "count")
    for field, (seconds, ops) in tracer.scalar_totals().items():
        metrics[f"fields.{field}.op_s"] = (seconds / n, "s")
        metrics[f"fields.{field}.ops"] = (ops / n, "count")
    metrics["fields.Q.max_coeff_bits"] = (traced.coeff_bits, "bits")
    for key, total in dims_total.items():
        metrics[f"dims.{key}"] = (total, "count")
    metrics["trace.ops_per_s"] = (traced.ops_per_s, "1/s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the library, generate the documents and exit")
    args = parser.parse_args(argv)

    load_library()
    members = workloads.generate(args.workload, args.seed)
    if args.setup_only:
        return 0

    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            run = run_passes(members, args.seconds, tracer)
        finally:
            tracer.restore()
        dims_total = {key: sum(d.get(key, 0) for _, d in run.results.values())
                      for key in workloads.DIM_KEYS}
        metrics = per_layer(tracer, run, dims_total)
        for line in tracer.table():
            print(line)
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        run = run_passes(members, args.seconds)
        metrics = end_to_end(run, setup_s)
    digest = hashlib.sha256(json.dumps(run.results, sort_keys=True).encode()).hexdigest()
    print(f"results {digest}")
    print(f"samples {run.attempted} operations in {run.passes} passes of "
          f"{len(members)} members; failure_ratio {run.failed / run.attempted:.4f} "
          f"({run.failed}/{run.attempted}); op_latency_p50_s "
          f"{statistics.median(run.latencies):.4f} s")
    for name, times in run.by_member.items():
        print(f"member {name:20s} median {statistics.median(times):9.4f} s "
              f"over {len(times)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
