"""Frontier guard: run one group extension and check its verdict and peak memory.

    python3 .github/frontier_guard.py S5 S4 --field Fp:7 --timeout 900 \
        --max-rss-mib 350 --right-d2 false
    python3 .github/frontier_guard.py --dense 'A4>V4@F5' --timeout 60 \
        --max-rss-mib 120 --right-d2 true
    python3 .github/frontier_guard.py S4 V4 --field Fp:5 --command d2 \
        --timeout 60 --max-rss-mib 60 --right-d2 true
    python3 .github/frontier_guard.py S4 V4 --field Fp:5 --command bialgebroid \
        --timeout 300 --max-rss-mib 120 --right-d2 true
    python3 .github/frontier_guard.py GL23 Q8 --field Fp:5 --timeout 60 \
        --max-rss-mib 300 --right-d2 true

Builds the group document for the subgroup of the group over the field
("Q" or "Fp:<prime>"; a normal subgroup is flagged normal), or with
``--dense`` the document of a group pair of ``perfbench/workloads.py`` in
the benchmark's fixed dense basis (draw 0, signs from a fixed seed).  It
runs ``depthtwo audit --json`` (or, with ``--command d2`` or ``--command
bialgebroid``, that command with ``--json``) on it with a time limit and
passes when the command exits 0, the main theorem audit is consistent (for
``d2``: the corollary agrees with the quasibase solver; for ``bialgebroid``:
every bialgebroid axiom passes), ``right_d2`` has the expected value and, with
``--max-rss-mib``, the peak resident set size of the command stays within
the bound.  ``depthtwo`` is looked up on PATH.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import tempfile

# perfbench's group code: permutation composition, closure and normality;
# imported from its file, writing no bytecode
_spec = importlib.util.spec_from_file_location("workloads", os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
sys.dont_write_bytecode = True
_spec.loader.exec_module(workloads)


# the nonzero vectors of F_3^2; a 2 x 2 matrix ((a, b), (c, d)) over F_3
# permutes them by (x, y) -> (a x + b y, c x + d y)
VECTORS = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]


def _on_vectors(a: int, b: int, c: int, d: int) -> tuple:
    return tuple(VECTORS.index(((a * x + b * y) % 3, (c * x + d * y) % 3)) for x, y in VECTORS)


def _quaternion(p: tuple) -> bool:
    """Whether the matrix acting as p lies in SL(2, 3) and has order 1, 2 or 4:
    the quaternion group Q8 inside GL(2, 3)."""
    (a, c), (b, d) = VECTORS[p[VECTORS.index((1, 0))]], VECTORS[p[VECTORS.index((0, 1))]]
    order, q = 1, p
    while q != tuple(range(len(p))):
        order, q = order + 1, workloads._compose(q, p)
    return (a * d - b * c) % 3 == 1 and order in (1, 2, 4)


# groups as lists of permutations, composed as (g h)(x) = g(h(x)); D4 is the
# rotations and then the reflections of a square with corners 0..3; GL23 is
# GL(2, 3) acting on VECTORS, closed from two generating matrices
SQUARE = ([tuple((k + i) % 4 for i in range(4)) for k in range(4)]
          + [tuple((k - i) % 4 for i in range(4)) for k in range(4)])
GROUPS = {"S4": list(itertools.permutations(range(4))),
          "S5": list(itertools.permutations(range(5))),
          "D4": SQUARE,
          "GL23": workloads._closure([_on_vectors(1, 1, 0, 1), _on_vectors(0, 1, 1, 0)], 8)}


def _even(p: tuple) -> bool:
    return sum(p[a] > p[b] for a in range(len(p)) for b in range(a + 1, len(p))) % 2 == 0


# each subgroup as a test on the elements of its group; Z is the centre of D4
SUBGROUPS = {"V4": lambda p: p in ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
             "Z": lambda p: p in ((0, 1, 2, 3), (2, 3, 0, 1)),
             "A5": _even,
             "S4": lambda p: p[-1] == len(p) - 1,
             "Q8": _quaternion}


def group_document(group: str, subgroup: str, field: str) -> dict:
    elements = GROUPS[group]
    index = {g: i for i, g in enumerate(elements)}
    table = [[index[workloads._compose(g, h)] for h in elements] for g in elements]
    sub = [index[p] for p in elements if SUBGROUPS[subgroup](p)]
    doc = {"field": "Q" if field == "Q" else {"Fp": int(field.split(":", 1)[1])},
           "kind": "group", "table": table, "subgroup": sub}
    if workloads.is_normal(table, sub):
        doc["normal"] = True
    return doc


def dense_document(spec: str) -> dict:
    """The document of the benchmark member PAIR@FIELD in its fixed dense basis."""
    pair, field = spec.split("@")
    entry = workloads.pair_entry(pair, field)
    return workloads.member(spec, entry, random.Random("frontier"), dense_draw=0)["doc"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("group", nargs="?", choices=sorted(GROUPS))
    parser.add_argument("subgroup", nargs="?", choices=sorted(SUBGROUPS))
    parser.add_argument("--field", help="Q or Fp:<prime>")
    parser.add_argument("--dense", metavar="PAIR@FIELD",
                        help="a group pair of perfbench/workloads.py, e.g. A4>V4@F5")
    parser.add_argument("--command", choices=("audit", "d2", "bialgebroid"), default="audit")
    parser.add_argument("--timeout", type=float, required=True, help="seconds")
    parser.add_argument("--max-rss-mib", type=float, default=None)
    parser.add_argument("--right-d2", choices=("true", "false"), required=True)
    args = parser.parse_args(argv)
    named = (args.group, args.subgroup, args.field)
    if None in named if args.dense is None else any(named):
        parser.error("give either GROUP SUBGROUP --field, or --dense")
    if args.dense is None:
        doc = group_document(args.group, args.subgroup, args.field)
    else:
        doc = dense_document(args.dense)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            done = subprocess.run(["depthtwo", args.command, path, "--json"],
                                  stdout=subprocess.PIPE, timeout=args.timeout)
        except subprocess.TimeoutExpired:
            print(f"timed out after {args.timeout:.0f} s")
            return 1
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    bound = "none" if args.max_rss_mib is None else f"{args.max_rss_mib:.0f}"
    print(f"exit {done.returncode}, peak RSS {peak_mib:.0f} MiB (bound {bound})")
    report = json.loads(done.stdout) if done.returncode == 0 else {}
    consistent = {"audit": report.get("main_theorem_consistent"),
                  "d2": report.get("corollary", {}).get("agree"),
                  "bialgebroid": report.get("all_axioms_pass")}[args.command]
    ok = (consistent is True
          and report.get("right_d2") is (args.right_d2 == "true")
          and (args.max_rss_mib is None or peak_mib <= args.max_rss_mib))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
