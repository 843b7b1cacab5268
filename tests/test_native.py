"""Native values: inside the library a value of F_p is a plain int in
range(1, p), a value of Q an int when integral and otherwise a Fraction
with denominator > 1, and values from outside come in through one entry
conversion that rejects what is not a field value."""

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
from depthtwo.galois import comparison_map, galois_data, main_theorem_audit
from depthtwo.jsonio import example_to_json, extension_from_json
from depthtwo.linalg import (Matrix, Subspace, entry, insert_row, nullspace, quotient_structure,
                             rref, solve_in_span, sum_nonzeros)

F5 = GF(5)
BIG_P = 2 ** 61 - 1


# -- GF(p).of ---------------------------------------------------------------

@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(3), 2.5, 3.0, True, False, "3", None],
                         ids=["fraction", "integral-fraction", "float", "integral-float",
                              "true", "false", "string", "none"])
def test_of_rejects_what_is_not_an_int_or_an_element(bad):
    with pytest.raises(FieldError):
        F5.of(bad)


@pytest.mark.parametrize("bad", [True, False, 0.5, 2.0, "3", None, F5.of(2)],
                         ids=["true", "false", "float", "integral-float", "string", "none",
                              "f_p-element"])
def test_rational_of_rejects_what_is_not_an_int_or_a_fraction(bad):
    with pytest.raises(FieldError):
        QQ.of(bad)


def test_rational_of_returns_fractions():
    assert QQ.of(3) == 3 and type(QQ.of(3)) is Fraction
    assert QQ.of(Fraction(-1, 2)) == Fraction(-1, 2)


def test_of_accepts_ints_and_elements_of_its_own_modulus():
    assert F5.of(7) == FpElement(2, 5) and F5.of(-1) == FpElement(4, 5)
    x = F5.of(3)
    assert F5.of(x) is x
    with pytest.raises(FieldError, match="mixed moduli"):
        F5.of(GF(7).of(3))


# -- the entry conversion ---------------------------------------------------

ENTRY_POINTS = {
    "Matrix": lambda f, x: Matrix(f, [[x, 1]]),
    "from_columns": lambda f, x: Matrix.from_columns(f, [{0: x}], nrows=1),
    "unvec": lambda f, x: Matrix.unvec(f, {0: x}, 1, 1),
    "make_algebra": lambda f, x: make_algebra(f, [[[x]]], [1]),
    "FiniteAlgebra-nonzeros": lambda f, x: FiniteAlgebra(f, [[{0: x}]], {0: 1}),
    "FiniteAlgebra-unit": lambda f, x: FiniteAlgebra(f, [[{0: 1}]], {0: x}),
    "Subspace.span": lambda f, x: Subspace.span(f, 1, [{0: x}]),
    "Subspace.coords": lambda f, x: Subspace.full(f, 1).coords({0: x}),
    "Quotient.reduce": lambda f, x: quotient_structure(f, 1, []).reduce({0: x}),
    "rref": lambda f, x: rref([{0: x}], f, 1),
    "nullspace": lambda f, x: nullspace([{0: x}], f, 1),
    "solve_in_span-target": lambda f, x: solve_in_span({0: x}, [{0: 1}], f),
    "solve_in_span-generator": lambda f, x: solve_in_span({0: 1}, [{0: x}], f),
    "insert_row": lambda f, x: insert_row({}, {0: x}, f),
    "entry": lambda f, x: entry(f, {0: x}),
}


@pytest.mark.parametrize("point", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", [Fraction(1, 2), 2.5, True, GF(7).of(1)],
                         ids=["fraction", "float", "bool", "other-modulus"])
def test_every_f_p_entry_point_rejects_values_outside_the_field(point, bad):
    with pytest.raises(FieldError):
        ENTRY_POINTS[point](F5, bad)


@pytest.mark.parametrize("point", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", [0.5, 1.0, True, F5.of(1)],
                         ids=["float", "integral-float", "bool", "f_p-element"])
def test_every_rational_entry_point_rejects_values_outside_the_field(point, bad):
    with pytest.raises(FieldError):
        ENTRY_POINTS[point](QQ, bad)


def test_the_reported_inputs_are_field_errors():
    with pytest.raises(FieldError):
        Matrix(F5, [[Fraction(1, 2), 1]])
    with pytest.raises(FieldError):
        rref([{0: Fraction(1, 2)}], F5, 1)
    with pytest.raises(FieldError):
        rref([{0: True}], F5, 1)
    with pytest.raises(FieldError, match="mixed moduli"):
        rref([{0: F5.of(1), 1: GF(7).of(1)}], F5, 2)
    for bad in (0.5, F5.of(1), True):
        with pytest.raises(FieldError):
            rref([{0: bad}], QQ, 1)


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


def is_rational_value(x) -> bool:
    """The stored form of a nonzero rational: an int, or a Fraction that is not one."""
    return (type(x) is int and x != 0) or (type(x) is Fraction and x.denominator > 1)


def test_rational_entries_are_ints_unless_they_have_a_denominator():
    m = Matrix(QQ, [[1, Fraction(1, 2)], [Fraction(4, 2), Fraction(-3)]])
    assert m.cols == [{0: 1, 1: 2}, {0: Fraction(1, 2), 1: -3}]
    assert [[type(x) for x in col.values()] for col in m.cols] == [[int, int], [Fraction, int]]
    assert m.data == [(1, Fraction(1, 2)), (2, -3)]
    assert all(type(x) is int for x in m.data[1])
    assert entry(QQ, {0: Fraction(6, 3), 1: Fraction(0), 2: -4}) == {0: 2, 2: -4}
    assert all(type(x) is int for x in entry(QQ, {0: Fraction(6, 3), 2: -4}).values())
    alg = make_algebra(QQ, [[[QQ.one]]], [QQ.of(1)])
    assert type(alg.nonzeros[0][0][0]) is int and type(alg.unit[0]) is int
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
    """Every matrix, vector and algebra the pipeline builds, as ``_values``
    reads them; T, its witness and the Galois data only for a depth-two
    extension."""
    ts = tensor_square(ext)
    report = main_theorem_audit(ext)
    assert report.consistent
    out = [ext.A, ext.B, ext.iota.matrix, ts.left_action, ts.right_action,
           list(ts.quot.rows.values())]
    rqb, lqb = right_d2_quasibase(ext), left_d2_quasibase(ext)
    if rqb is not None:
        assert lqb is not None
        core = t_core(ext)
        bgd = build_T(ext, rqb)
        assert axiom_audit(bgd).all_pass
        data = galois_data(ext, rqb)
        wit = bgd.witness
        out += [rqb.pairs, lqb.pairs,
                core.t_basis, [[c for _, c in items] for items in core.t_items],
                core.T_alg, core.R_alg, core.unit_T, core.incl_R, core.s_R, core.t_R, core.eps,
                core.lam_R, core.rho_R, list(core.tt.quot.rows.values()),
                bgd.Delta, wit.w3, wit.w4, wit.q3b, wit.q4b,
                data.delta, data.galois.beta, comparison_map(ext),
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
    assert right_d2_quasibase(ext) is not None
    p = ext.A.field.char
    values = list(_values(_artifacts(ext)))
    assert len(values) > 50
    bad = [x for x in values if not (type(x) is int and 0 < x < p)]
    assert not bad, bad[:5]


@pytest.mark.parametrize("name", ["s3-a3", "s3-transposition", "trivial-M2", "field-sqrt2",
                                  "c2-over-k"])
def test_every_stored_rational_value_is_an_int_or_a_proper_fraction(name):
    ext = extension_from_json(example_to_json(name))
    assert ext.A.field == QQ
    values = list(_values(_artifacts(ext)))
    assert len(values) > 10
    bad = [x for x in values if not is_rational_value(x)]
    assert not bad, bad[:5]


def test_rational_arithmetic_never_stores_an_integral_fraction():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # denominator 1 comes up often, so integral Fractions enter and arise
    values = st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3),
                                            st.sampled_from([1, 1, 2, 3]))

    def canonical(vectors) -> bool:
        return all(is_rational_value(x) for v in vectors for x in v.values())

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 4), label="n")
        rows = [[data.draw(values) for _ in range(n)] for _ in range(n)]
        a, b = Matrix(QQ, rows), Matrix(QQ, rows[::-1])
        half = a.scaled(Fraction(1, 2))
        assert half.scaled(2) == a
        for m in (a, b, half, half.scaled(2), a + b, a - b, a @ b, -a):
            assert canonical(m.cols)
        if a.rank() == n:
            assert canonical(a.inverse().cols) and a @ a.inverse() == Matrix.identity(QQ, n)
        coeffs = data.draw(st.lists(values, min_size=n, max_size=n), label="coeffs")
        assert canonical([sum_nonzeros(zip(coeffs, (col.items() for col in a.cols)), 0)])
        # the entry points see the columns written as Fractions, Fraction(n, 1) included
        written = [{i: Fraction(x) for i, x in col.items()} for col in a.cols]
        assert canonical(rref(written, QQ, n)[0])
        space = Subspace.span(QQ, n, written)
        assert canonical(space.basis)
        for vec in written:
            coords = space.coords(vec)
            assert coords is not None and canonical([coords])

    check()


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
