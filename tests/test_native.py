"""Native values: inside the library a value of F_p is a plain int in
range(1, p), a value of Q a Fraction, and values from outside come in
through one entry conversion that rejects what is not a field value."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import depthtwo
from depthtwo.algebras import FiniteAlgebra, group_pair, make_algebra
from depthtwo.bialgebroid import axiom_audit, build_T, t_core
from depthtwo.bimodules import left_d2_quasibase, right_d2_quasibase, tensor_square
from depthtwo.catalog import A3_INDICES, S3_TABLE
from depthtwo.fields import GF, QQ, FieldError, FpElement
from depthtwo.galois import galois_data, main_theorem_audit
from depthtwo.jsonio import example_to_json, extension_from_json
from depthtwo.linalg import (Matrix, Subspace, entry, insert_row, nullspace, reverse_rref, rref,
                             solve_in_span)

F5 = GF(5)
BIG_P = 2 ** 61 - 1


# -- GF(p).of ---------------------------------------------------------------

@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(3), 2.5, 3.0, True, False, "3", None],
                         ids=["fraction", "integral-fraction", "float", "integral-float",
                              "true", "false", "string", "none"])
def test_of_rejects_what_is_not_an_int_or_an_element(bad):
    with pytest.raises(FieldError):
        F5.of(bad)


def test_of_accepts_ints_and_elements_of_its_own_modulus():
    assert F5.of(7) == FpElement(2, 5) and F5.of(-1) == FpElement(4, 5)
    x = F5.of(3)
    assert F5.of(x) is x
    with pytest.raises(FieldError, match="mixed moduli"):
        F5.of(GF(7).of(3))


# -- the entry conversion ---------------------------------------------------

ENTRY_POINTS = {
    "Matrix": lambda x: Matrix(F5, [[x, 1]]),
    "from_columns": lambda x: Matrix.from_columns(F5, [{0: x}], nrows=1),
    "unvec": lambda x: Matrix.unvec(F5, {0: x}, 1, 1),
    "make_algebra": lambda x: make_algebra(F5, [[[x]]], [1]),
    "FiniteAlgebra-nonzeros": lambda x: FiniteAlgebra(F5, [[{0: x}]], {0: 1}),
    "FiniteAlgebra-unit": lambda x: FiniteAlgebra(F5, [[{0: 1}]], {0: x}),
    "Subspace.span": lambda x: Subspace.span(F5, 1, [{0: x}]),
    "rref": lambda x: rref([{0: x}], F5, 1),
    "nullspace": lambda x: nullspace([{0: x}], F5, 1),
    "reverse_rref": lambda x: reverse_rref([{0: x}], F5, 1),
    "solve_in_span-target": lambda x: solve_in_span({0: x}, [{0: 1}], F5),
    "solve_in_span-generator": lambda x: solve_in_span({0: 1}, [{0: x}], F5),
    "insert_row": lambda x: insert_row({}, {0: x}, F5),
    "entry": lambda x: entry(F5, {0: x}),
}


@pytest.mark.parametrize("point", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", [Fraction(1, 2), 2.5, True, GF(7).of(1)],
                         ids=["fraction", "float", "bool", "other-modulus"])
def test_every_f_p_entry_point_rejects_values_outside_the_field(point, bad):
    with pytest.raises(FieldError):
        ENTRY_POINTS[point](bad)


def test_the_reported_inputs_are_field_errors():
    with pytest.raises(FieldError):
        Matrix(F5, [[Fraction(1, 2), 1]])
    with pytest.raises(FieldError):
        rref([{0: Fraction(1, 2)}], F5, 1)
    with pytest.raises(FieldError):
        rref([{0: True}], F5, 1)
    with pytest.raises(FieldError, match="mixed moduli"):
        rref([{0: F5.of(1), 1: GF(7).of(1)}], F5, 2)


def test_ints_and_elements_enter_as_residues():
    m = Matrix(F5, [[7, F5.of(3)], [-1, 0]])
    assert m.cols == [{0: 2, 1: 4}, {0: 3}]
    assert all(type(x) is int for col in m.cols for x in col.values())
    assert m.data == [(2, 3), (4, 0)] and all(type(x) is int for row in m.data for x in row)
    assert entry(F5, {0: 5, 1: F5.of(6), 2: -3}) == {1: 1, 2: 2}
    assert rref([{0: F5.of(2), 1: 4}], F5, 2) == ([{0: 1, 1: 2}], [0])
    alg = make_algebra(F5, [[[F5.one]]], [6])
    assert alg.nonzeros == [[{0: 1}]] and alg.unit == {0: 1}
    assert alg.structure == [[[1]]]


def test_rational_entries_are_fractions():
    m = Matrix(QQ, [[1, Fraction(1, 2)], [0, -3]])
    assert m.cols == [{0: 1}, {0: Fraction(1, 2), 1: -3}]
    assert all(type(x) is Fraction for col in m.cols for x in col.values())
    for bad in (0.5, F5.of(1), True):
        with pytest.raises(FieldError):
            Matrix(QQ, [[bad]])


def test_insert_row_eliminates_over_the_given_field():
    # (1, 1) and (1, -1) are independent over Q and equal over F_2
    for field, grows in ((QQ, True), (GF(2), False)):
        basis: dict = {}
        assert insert_row(basis, {0: 1, 1: 1}, field)
        assert insert_row(basis, {0: 1, 1: -1}, field) is grows
    row = {0: 2, 1: 3}
    insert_row({}, row, F5)
    assert row == {0: 2, 1: 3}  # the caller's row is converted, not consumed


# -- the native invariant along the whole pipeline ----------------------------

def _values(obj):
    """Every stored field value of matrices, algebras, subspaces, vectors and
    containers of them."""
    if isinstance(obj, Matrix):
        for col in obj.cols:
            yield from col.values()
    elif isinstance(obj, FiniteAlgebra):
        for plane in obj.nonzeros:
            for c in plane:
                yield from c.values()
        yield from obj.unit.values()
    elif isinstance(obj, Subspace):
        for row in obj.rows.values():
            yield from row.values()
    elif isinstance(obj, dict):
        yield from obj.values()
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _values(x)


def _artifacts(ext):
    """Every matrix, vector and algebra the pipeline builds, as ``_values`` reads them."""
    ts = tensor_square(ext)
    rqb, lqb = right_d2_quasibase(ext), left_d2_quasibase(ext)
    assert rqb is not None and lqb is not None
    core = t_core(ext)
    bgd = build_T(ext, rqb)
    assert axiom_audit(bgd).all_pass
    data = galois_data(ext, rqb)
    report = main_theorem_audit(ext)
    assert report.consistent
    wit = bgd.witness
    out = [ext.A, ext.B, ext.iota.matrix, ts.left_action, ts.right_action,
           list(ts.quot.rows.values()), rqb.pairs, lqb.pairs,
           core.t_basis, [[c for _, c in items] for items in core.t_items],
           core.T_alg, core.R_alg, core.unit_T, core.incl_R, core.s_R, core.t_R, core.eps,
           core.lam_R, core.rho_R, list(core.tt.quot.rows.values()),
           bgd.Delta, wit.w3, wit.w4, wit.q3b, wit.q4b,
           data.delta, data.galois.beta, data.galois.beta_inverse,
           data.coinvariants.subalgebra.space]
    # the per-extension memos: hom-space bases, the comparison map and the
    # coaction the main audit reads off it
    for value in ext._cache.values():
        if isinstance(value, (Matrix, list)):
            out.append(value)
    return out


NATIVE_INPUTS = {
    "s3-a3-f5": lambda: extension_from_json(example_to_json("s3-a3-f5")),
    "c2-over-k-f3": lambda: extension_from_json(example_to_json("c2-over-k-f3")),
    "S3>A3 over F_2": lambda: group_pair(GF(2), S3_TABLE, A3_INDICES)[0],
    "S3>A3 over F_(2^61-1)": lambda: group_pair(GF(BIG_P), S3_TABLE, A3_INDICES)[0],
}


@pytest.mark.parametrize("name", sorted(NATIVE_INPUTS))
def test_every_stored_f_p_value_is_a_reduced_int(name):
    ext = NATIVE_INPUTS[name]()
    p = ext.A.field.char
    values = list(_values(_artifacts(ext)))
    assert len(values) > 50
    bad = [x for x in values if not (type(x) is int and 0 < x < p)]
    assert not bad, bad[:5]


# -- import cost ------------------------------------------------------------

def test_importing_the_package_loads_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(os.path.abspath(depthtwo.__file__)))
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import depthtwo\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = json.loads(out)
    assert "depthtwo.linalg" in added
    foreign = [m for m in added
               if not (m == "depthtwo" or m.startswith("depthtwo.")
                       or m.split(".")[0] in sys.stdlib_module_names)]
    assert not foreign, foreign
