"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import depthtwo  # noqa: E402
import pipeline  # noqa: E402
import workloads  # noqa: E402
from spans import SCALAR_BINARY, SCALAR_UNARY, Tracer  # noqa: E402


def _bindings():
    """Every attribute of the library and scalar types the tracer may rebind."""
    owners = [m for name, m in sys.modules.items()
              if name == "depthtwo" or name.startswith("depthtwo.")]
    owners += [depthtwo.linalg.Matrix, depthtwo.linalg.Quotient,
               depthtwo.fields.FpElement, Fraction]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_restore_puts_back_every_rebound_name():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {key for key in before if during[key] is not before[key]}
        assert len(changed) >= 5 + 2 + len(SCALAR_BINARY + SCALAR_UNARY) * 2
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_rebinding_reaches_every_importing_module():
    tracer = Tracer()
    tracer.install()
    try:
        for module in (depthtwo.algebras, depthtwo.bialgebroid, depthtwo.actions,
                       depthtwo.linalg, depthtwo):
            assert hasattr(module.solve_in_span, "__wrapped__")
        assert hasattr(depthtwo.galois.nullspace, "__wrapped__")
        assert hasattr(depthtwo.bialgebroid.coproduct_summand_test, "__wrapped__")
    finally:
        tracer.restore()


def test_generators_are_deterministic_for_a_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
        assert workloads.generate(name, 7) != workloads.generate(name, 8)


def test_unimodular_change_of_basis_is_integral():
    rng = random.Random(3)
    for n in range(1, 7):
        p, p_inv = workloads.unimodular(n, rng)
        assert all(x in (-1, 0, 1) for row in p for x in row)
        prod = [[sum(p[i][k] * p_inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def _member(pair, field, seed=5, dense_draw=None):
    return workloads.member(pair, workloads.pair_entry(pair, field), random.Random(seed),
                            dense_draw=dense_draw)


def test_dense_member_keeps_its_natural_dimensions_and_verdicts():
    for pair, field in (("C4>C2", "F2"), ("S3>C2", "F5")):
        natural = pipeline.run(_member(pair, field))
        dense_member = _member(pair, field, dense_draw=0)
        assert dense_member["doc"]["A"] != _member(pair, field)["doc"]["A"]
        dense = pipeline.run(dense_member)
        assert pipeline.check(dense_member, dense) == []
        assert dense["dims"] == natural["dims"]
        assert dense["verdicts"] == natural["verdicts"]


def test_seed_only_negates_basis_vectors():
    one, other = _member("S3>A3", "Q", seed=1), _member("S3>A3", "Q", seed=2)
    cube, cube2 = one["doc"]["A"]["structure"], other["doc"]["A"]["structure"]
    assert cube != cube2
    assert [[[abs(x) for x in row] for row in plane] for plane in cube] == \
        [[[abs(x) for x in row] for row in plane] for plane in cube2]


def test_orbit_counts_agree_with_the_program():
    for pair in ("S3>A3", "V4>C2", "S3>C2"):
        member = _member(pair, "F3")
        assert pipeline.check(member, pipeline.run(member)) == []


def test_check_reports_a_wrong_expectation():
    member = _member("C4>C2", "F2")
    outcome = pipeline.run(member)
    member["expect"] = dict(member["expect"], d2=False)
    assert "right_d2 is True, expected False" in pipeline.check(member, outcome)


def test_traced_run_matches_untraced_and_records_spans():
    member = _member("S3>A3", "Q")
    plain = pipeline.run(member)
    tracer = Tracer()
    tracer.install()
    try:
        traced = pipeline.run(member, tracer.stage)
    finally:
        tracer.restore()
    assert (traced["verdicts"], traced["dims"]) == (plain["verdicts"], plain["dims"])
    assert tracer.totals("bialgebroid.build_T")[0] == 1
    calls, incl, own = tracer.totals("linalg.rref")
    assert calls > 0 and 0 <= own <= incl
    assert tracer.scalar["Q"][1] > 0 and tracer.scalar["Fp"][1] == 0
    assert ("linalg.solve_in_span", "bialgebroid.build_T") in tracer.spans
