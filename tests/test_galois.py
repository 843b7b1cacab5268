from __future__ import annotations

import gc
import io
import itertools
import json
import weakref

import pytest

from depthtwo.algebras import AlgebraError, SelfCheckError, group_pair
from depthtwo.bialgebroid import WitnessError, axiom_audit, build_T, t_core
from depthtwo.bimodules import (QuasibaseSet, left_d2_quasibase, right_d2_quasibase,
                                tensor_square, unit_tensor)
from depthtwo.catalog import catalog_names, build_example
from depthtwo.cli import EXIT_INCONSISTENT, main
from depthtwo.fields import GF, QQ
from depthtwo.galois import (balanced_audit, canonical_coaction, comparison_map,
                             coassociativity_maps, coinvariants, comodule_algebra_audit,
                             d2_iff_corollary_audit, galois_data, galois_map, ice_matrix,
                             main_theorem_audit, tensor_with_t)
from depthtwo.jsonio import example_to_json
from depthtwo.linalg import LinAlgError, Matrix, Subspace, sum_nonzeros

from conftest import CATALOG_AND_A4, _even_permutations, dense_s3a3


@pytest.fixture(scope="module")
def sqrt2_galois(sqrt2):
    rqb = right_d2_quasibase(sqrt2)
    bgd = build_T(sqrt2, rqb)
    delta = galois_map(sqrt2, rqb).beta @ unit_tensor(sqrt2, unit_first=True)
    return sqrt2, rqb, bgd, delta


@pytest.fixture(scope="module")
def s3_galois(s3a3):
    rqb = right_d2_quasibase(s3a3)
    bgd = build_T(s3a3, rqb)
    delta = galois_map(s3a3, rqb).beta @ unit_tensor(s3a3, unit_first=True)
    return s3a3, rqb, bgd, delta


# -- coaction -----------------------------------------------------------------

def test_coaction_fixes_unit(sqrt2_galois):
    ext, rqb, bgd, delta = sqrt2_galois
    at = tensor_with_t(ext)
    assert delta.image(ext.A.unit) == at.class_of(ext.A.unit, bgd.core.unit_T)


def test_coaction_fixes_subalgebra(s3_galois):
    ext, rqb, bgd, delta = s3_galois
    at = tensor_with_t(ext)
    for j in range(ext.B.dim):
        col = ext.iota.matrix.cols[j]
        assert delta.image(col) == at.class_of(col, bgd.core.unit_T)


def test_coaction_recomputed_from_quasibase(sqrt2_galois):
    # independent path: assemble delta directly from the returned pairs
    ext, rqb, bgd, delta = sqrt2_galois
    core = bgd.core
    at = tensor_with_t(ext)
    for j in range(ext.A.dim):
        acc = sum_nonzeros(
            ((QQ.one, at.class_of(gamma.cols[j], core.t_coords(u, "u escaped T")).items())
             for gamma, u in rqb.pairs), QQ.char)
        assert delta.cols[j] == acc


def test_coaction_is_inverse_image_of_one_tensor(s3_galois):
    # delta(a) = beta(1 (x) a)
    ext, rqb, _, delta = s3_galois
    gmap = galois_map(ext, rqb)
    ts = tensor_square(ext)
    for j in range(ext.A.dim):
        cls = ts.class_of(ext.A.unit, ext.A.basis_vector(j))
        assert delta.cols[j] == gmap.beta.image(cls)


# -- Galois map ------------------------------------------------------------------

def test_galois_map_round_trips(s3_galois):
    ext, rqb, _, _ = s3_galois
    gmap = galois_map(ext, rqb)
    assert gmap.bijective
    ts = tensor_square(ext)
    at = tensor_with_t(ext)
    assert comparison_map(ext) @ gmap.beta == Matrix.identity(QQ, ts.dim)
    assert gmap.beta @ comparison_map(ext) == Matrix.identity(QQ, at.dim)


def test_galois_map_on_x_tensor_one(s3_galois):
    ext, rqb, bgd, _ = s3_galois
    gmap = galois_map(ext, rqb)
    ts = tensor_square(ext)
    at = tensor_with_t(ext)
    for x in range(ext.A.dim):
        ex = ext.A.basis_vector(x)
        assert gmap.beta.image(ts.class_of(ex, ext.A.unit)) == \
            at.class_of(ex, bgd.core.unit_T)


def test_galois_map_trivial_extension(trivial_m2):
    rqb = right_d2_quasibase(trivial_m2)
    gmap = galois_map(trivial_m2, rqb)
    assert gmap.bijective
    assert gmap.beta.nrows == gmap.beta.ncols == trivial_m2.A.dim


def test_galois_data_aggregate(s3a3):
    rqb = right_d2_quasibase(s3a3)
    data = galois_data(s3a3, rqb)
    assert data.galois.bijective
    assert data.coinvariants.equals_b
    assert tensor_with_t(s3a3).dim == data.galois.beta.nrows


@pytest.mark.parametrize("build", [galois_map, galois_data])
def test_galois_map_and_data_reject_what_build_T_rejects(build):
    # a left quasibase, or a right one that fails verification, is bad input:
    # AlgebraError with build_T's messages, not a negative verdict
    # (bijective False) and not a failed self-check
    ext = build_example("s3-a3")
    rqb = right_d2_quasibase(ext)
    truncated = QuasibaseSet("right", rqb.pairs[:-1])
    for qb, message in ((left_d2_quasibase(ext), "build_T needs a right quasibase"),
                        (truncated, "quasibase failed verification")):
        for reader in (build_T, build):
            with pytest.raises(AlgebraError, match=message) as caught:
                reader(ext, qb)
            assert type(caught.value) is AlgebraError


# -- coinvariants ------------------------------------------------------------------

def test_coinvariants_equal_b(s3_galois, sqrt2_galois):
    for ext, rqb, bgd, delta in (s3_galois, sqrt2_galois):
        report = coinvariants(ext, delta)
        assert report.contains_b
        assert report.equals_b
        assert report.symmetric_tensor_ok


def test_coinvariants_contain_b_across_catalog():
    for name in catalog_names():
        ext = build_example(name)
        rqb = right_d2_quasibase(ext)
        if rqb is None:
            continue
        delta = galois_map(ext, rqb).beta @ unit_tensor(ext, unit_first=True)
        assert coinvariants(ext, delta).contains_b, name


# -- balance -------------------------------------------------------------------------

def test_sqrt2_balanced_free_module(sqrt2):
    assert balanced_audit(sqrt2).balanced


def test_s3_a3_balanced_with_freeness_oracle(s3a3):
    # A is free as a right module over iota(B) with basis {e, (12)}:
    # the 6 products iota(b_j) * e_s are a vector-space basis of A
    A = s3a3.A
    vectors = []
    for s in (0, 3):
        for j in range(s3a3.B.dim):
            vectors.append(A.mul(s3a3.iota.matrix.cols[j], A.basis_vector(s)))
    assert Subspace.span(QQ, 6, vectors).dim == 6
    assert balanced_audit(s3a3).balanced


def test_trivial_extension_balanced_by_commutant_oracle(trivial_m2):
    # E = End(A_A) = left multiplications; its commutant is the right
    # multiplications, which is exactly rho(B) since B = A
    A = trivial_m2.A
    report = balanced_audit(trivial_m2)
    assert report.balanced
    assert report.e_dim == 4
    assert report.double_commutant_dim == 4


def test_balanced_audit_reports_dims(s3_transposition):
    report = balanced_audit(s3_transposition)
    assert report.balanced    # free over any subgroup algebra
    assert report.witness is None


# -- comodule algebra ------------------------------------------------------------------

def test_comodule_conditions_pass(s3_galois, sqrt2_galois):
    for ext, rqb, bgd, delta in (s3_galois, sqrt2_galois):
        report = comodule_algebra_audit(ext, delta, bgd)
        assert report.all_pass, report.failing()


def test_comodule_condition_names(sqrt2_galois):
    ext, rqb, bgd, delta = sqrt2_galois
    report = comodule_algebra_audit(ext, delta, bgd)
    assert list(report.results) == [
        "base_map_is_algebra_map", "comodule_counit_and_coassociativity",
        "coaction_unital", "base_twist_compatibility", "coaction_multiplicative"]


def test_corrupted_coproduct_fails_comodule_coassociativity(s3_galois):
    ext, rqb, bgd, delta = s3_galois
    cols = bgd.Delta.cols
    bad = Matrix.from_columns(bgd.Delta.field, [cols[1], cols[0], *cols[2:]],
                              nrows=bgd.Delta.nrows)   # swap two columns of Delta
    report = comodule_algebra_audit(ext, delta, bgd.replaced(Delta=bad))
    assert report.failing() == ["comodule_counit_and_coassociativity"]
    assert report.results["comodule_counit_and_coassociativity"][1].startswith(
        "coassociativity fails at e_")


@pytest.mark.parametrize("name", [*(name for name in catalog_names()
                                     if name != "s3-transposition"), "dense s3-a3"])
def test_the_coaction_side_of_coassociativity_equals_the_double_sum_over_lifts(name):
    # the audit builds (delta (x) id) then W3 once, as a map out of A (x)_R T;
    # applied to delta(a) it must give the double sum over the lifts of
    # delta(a) and of delta(e_k) for each of its items (k, c)
    ext = dense_s3a3() if name == "dense s3-a3" else build_example(name)
    bgd = build_T(ext, right_d2_quasibase(ext))
    delta = canonical_coaction(ext)
    at = tensor_with_t(ext)
    wit = bgd.witness
    delta_id, _ = coassociativity_maps(at, comparison_map(ext), delta, bgd)
    for a in range(ext.A.dim):
        expected = sum_nonzeros(
            ((x * y, wit.q3.left_action[k2].image(
                wit.append(wit.q3, bgd.core.ts, bgd.core.t_basis[c2], c)).items())
             for (k, c), x in at.lift_items(delta.cols[a])
             for (k2, c2), y in at.lift_items(delta.cols[k])), delta.field.char)
        assert delta_id.image(delta.cols[a]) == expected, (name, a)
    assert comodule_algebra_audit(ext, delta, bgd).all_pass, name


def test_corrupted_coaction_fails_multiplicativity(sqrt2_galois):
    ext, rqb, bgd, delta = sqrt2_galois
    # swap the images of the two basis vectors of A
    cols = delta.cols
    bad = Matrix.from_columns(delta.field, [cols[1], cols[0], *cols[2:]], nrows=delta.nrows)
    report = comodule_algebra_audit(ext, bad, bgd)
    assert not report.all_pass
    assert "coaction_multiplicative" in report.failing()
    witness = report.results["coaction_multiplicative"][1]
    assert witness is not None


# -- theorem audits --------------------------------------------------------------------

def test_main_theorem_positive_cases(s3a3, sqrt2, trivial_m2):
    for ext in (s3a3, sqrt2, trivial_m2):
        report = main_theorem_audit(ext)
        assert report.lhs and report.rhs and report.consistent


def test_main_theorem_negative_case(s3_transposition):
    report = main_theorem_audit(s3_transposition)
    assert not report.right_d2
    assert not report.lhs
    assert not report.rhs
    assert report.consistent


def test_main_theorem_on_s4_over_a4_mod_5():
    # literature oracles: a normal subgroup gives depth two in any
    # characteristic, and kG is free over kN, so A_B is balanced
    elems = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[tuple(g[h[x]] for x in range(4))] for h in elems] for g in elems]
    ext, _ = group_pair(GF(5), table, [index[p] for p in _even_permutations()])
    assert ext.A.dim == 24
    report = main_theorem_audit(ext)
    assert report.right_d2 and report.left_d2 and report.balanced
    assert report.lhs is True and report.rhs is True
    assert report.consistent


def test_any_field_extension_is_galois(sqrt2):
    # one-dimensional base field: depth two, balanced, Galois
    report = main_theorem_audit(sqrt2)
    assert report.right_d2 and report.balanced and report.rhs


def test_corollary_audit_agreement(s3a3, s3_transposition, trivial_m2):
    for ext, expected in ((s3a3, True), (s3_transposition, False),
                          (trivial_m2, True)):
        report = d2_iff_corollary_audit(ext)
        assert report.quasibase_right_d2 is expected
        assert report.corollary_right_d2 is expected
        assert report.agree


def test_comparison_map_shape_for_non_d2(s3_transposition):
    # for the failing case the comparison map cannot be a bijection
    core = t_core(s3_transposition)
    at = tensor_with_t(s3_transposition)
    ice = ice_matrix(core, at)
    assert at.dim != core.ts.dim or ice.rank() < core.ts.dim


def test_centralizer_commutes_with_subalgebra_image(s3a3):
    core = t_core(s3a3)
    A = s3a3.A
    for r in range(core.R_alg.dim):
        rvec = core.incl_R.cols[r]
        for j in range(s3a3.B.dim):
            b = s3a3.iota.matrix.cols[j]
            assert A.mul(rvec, b) == A.mul(b, rvec)


def _upper_triangular_extension():
    """M_2(Q) over its upper-triangular subalgebra {e00, e01, e11}."""
    from depthtwo.algebras import AlgebraMorphism, Extension, make_algebra, \
        matrix_algebra
    A = matrix_algebra(QQ, 2)
    z, o = QQ.zero, QQ.one
    structure = [[[o, z, z], [z, o, z], [z, z, z]],
                 [[z, z, z], [z, z, z], [z, o, z]],
                 [[z, z, z], [z, z, z], [z, z, o]]]
    B = make_algebra(QQ, structure, [o, z, o])
    iota = Matrix(QQ, [[o, z, z], [z, o, z], [z, z, z], [z, z, o]])
    return Extension(B, A, AlgebraMorphism(B, A, iota))


def test_depth_two_but_not_balanced_stays_consistent():
    # depth two holds while the balance condition fails: the canonical map
    # is bijective yet the coinvariants grow past iota(B), so both sides of
    # the equivalence come out false together
    ext = _upper_triangular_extension()
    report = main_theorem_audit(ext)
    assert report.right_d2 and not report.balanced
    assert not report.lhs and not report.rhs
    assert report.consistent
    assert report.galois_bijective
    assert report.coinvariants_equal_b is False
    rqb = right_d2_quasibase(ext)
    coinv = coinvariants(ext, galois_map(ext, rqb).beta @ unit_tensor(ext, unit_first=True))
    assert coinv.contains_b and not coinv.equals_b
    assert coinv.subalgebra.dim == ext.A.dim
    assert d2_iff_corollary_audit(ext).agree


# -- verdict provenance: failures after the corollary says depth two --------------


def test_main_theorem_audit_lets_a_failed_witness_propagate(monkeypatch):
    # the quasibase-free branch runs only when the corollary path says depth
    # two, so a failed witness is a failed self-check, not rhs = False
    import depthtwo.galois as galois_mod

    def broken(ext):
        raise WitnessError("forward map is not invertible")

    monkeypatch.setattr(galois_mod, "build_T_quasibase_free", broken)
    with pytest.raises(WitnessError):
        main_theorem_audit(build_example("s3-a3"))


def test_main_theorem_audit_reports_a_singular_comparison_inverse(monkeypatch):
    # a comparison map that fails to invert on a depth-two input makes the
    # corollary disagree with the quasibase solver: never a clean verdict
    def singular(self):
        raise LinAlgError("matrix is singular")

    monkeypatch.setattr(Matrix, "inverse", singular)
    ext = build_example("s3-a3")
    assert d2_iff_corollary_audit(ext).agree is False
    assert main_theorem_audit(ext).consistent is False
    doc = json.dumps(example_to_json("s3-a3"))
    for command in ("d2", "audit"):
        assert main([command, doc, "--json"], out=io.StringIO()) == EXIT_INCONSISTENT


def test_main_theorem_audit_negative_verdict_is_not_an_error():
    report = main_theorem_audit(build_example("s3-transposition"))
    assert report.rhs is False and report.lhs is False and report.consistent


# -- one memo per extension: each derived object is built once ---------------------

def _perfbench_order(ext):
    """The stages of one benchmark operation: the corollary audit, then the main one."""
    rqb = right_d2_quasibase(ext)
    left_d2_quasibase(ext)
    t_core(ext)
    balanced_audit(ext)
    if rqb is not None:
        bgd = build_T(ext, rqb)
        axiom_audit(bgd)
        data = galois_data(ext, rqb)
        comodule_algebra_audit(ext, data.delta, bgd)
    d2_iff_corollary_audit(ext)
    main_theorem_audit(ext)


def _cli_audit_order(ext):
    """``depthtwo audit``: the main audit, then the corollary audit."""
    main_theorem_audit(ext)
    d2_iff_corollary_audit(ext)


@pytest.mark.parametrize("order", [_perfbench_order, _cli_audit_order])
@pytest.mark.parametrize("make", [lambda: build_example("s3-a3"), _upper_triangular_extension],
                         ids=["s3-a3", "upper-triangular"])
def test_audits_share_one_comparison_map_and_one_balance(monkeypatch, order, make):
    calls = _count_calls(monkeypatch, ("left_r_projectivity", "ice_matrix", "intertwiners"))
    for method in ("inverse", "rank"):
        calls[method] = 0

        def counted(self, original=getattr(Matrix, method), method=method):
            calls[method] += 1
            return original(self)
        monkeypatch.setattr(Matrix, method, counted)
    order(make())
    # balanced_audit solves for E = End(A_B); its commutant is solved inside A;
    # the comparison map is inverted once, by canonical_coaction, and never ranked
    assert calls == {"left_r_projectivity": 1, "ice_matrix": 1, "intertwiners": 1,
                     "inverse": 1, "rank": 0}


def _count_calls(monkeypatch, names) -> dict:
    """Count the calls of each name as ``depthtwo.galois`` looks it up."""
    import depthtwo.galois as galois_mod
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(galois_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(galois_mod, name, counted(name))
    return calls


@pytest.mark.parametrize("order", [_perfbench_order, _cli_audit_order])
@pytest.mark.parametrize("make", [lambda: build_example("s3-a3"),
                                  lambda: build_example("s3-a3-f5"),
                                  _upper_triangular_extension],
                         ids=["s3-a3", "s3-a3-f5", "upper-triangular"])
def test_main_audit_reuses_the_coinvariants_and_comodule_reports(monkeypatch, order, make):
    # in galois.py, coinvariants alone builds a SubalgebraData and the
    # comodule audit alone an AuditReport: the main audit's coaction equals
    # the one galois_data audited, so neither runs again
    calls = _count_calls(monkeypatch, ("SubalgebraData", "AuditReport"))
    order(make())
    assert calls == {"SubalgebraData": 1, "AuditReport": 1}


@pytest.mark.parametrize("name", ["s3-a3", "s3-a3-f5"])
def test_equal_coactions_hit_one_memoized_report(name, monkeypatch):
    # the memo is kept per extension for the canonical coaction, so any equal
    # matrix finds it; no matrix is hashed
    ext = build_example(name)
    delta = galois_map(ext, right_d2_quasibase(ext)).beta @ unit_tensor(ext, unit_first=True)
    from_rows = Matrix(delta.field, delta.data)
    from_cols = Matrix.from_columns(delta.field, [dict(col) for col in delta.cols],
                                    nrows=delta.nrows)
    assert from_rows is not from_cols and from_rows == from_cols == delta
    with pytest.raises(TypeError):
        hash(delta)
    calls = _count_calls(monkeypatch, ("SubalgebraData",))
    report = coinvariants(ext, from_rows)
    assert coinvariants(ext, from_cols) is report
    assert coinvariants(ext, canonical_coaction(ext)) is report
    assert calls == {"SubalgebraData": 1}


# the right depth-two extensions of the catalog and the A4 pairs, s3-a3 in a
# dense basis, and one that is depth two but not balanced
RIGHT_D2 = {**{name: make for name, make in CATALOG_AND_A4.items()
               if name not in ("s3-transposition", "A4>C3 over F_2")},
            "dense s3-a3": dense_s3a3, "upper-triangular": _upper_triangular_extension}


@pytest.mark.parametrize("name", list(RIGHT_D2))
def test_the_quasibase_coaction_is_the_canonical_one(name):
    # ice(sum_i gamma_i(a) (x) u_i) = sum_i gamma_i(a) u_i = 1 (x) a
    ext = RIGHT_D2[name]()
    delta = galois_map(ext, right_d2_quasibase(ext)).beta @ unit_tensor(ext, unit_first=True)
    assert delta == canonical_coaction(ext)


def test_galois_data_rejects_a_coaction_other_than_the_canonical_one(monkeypatch):
    import depthtwo.galois as galois_mod
    ext = build_example("s3-a3")
    delta = canonical_coaction(ext)
    cols = delta.cols[:]
    cols[0], cols[1] = cols[1], cols[0]
    swapped = Matrix.from_columns(delta.field, cols, nrows=delta.nrows)
    assert swapped != delta
    monkeypatch.setattr(galois_mod, "canonical_coaction", lambda ext: swapped)
    with pytest.raises(SelfCheckError, match="quasibase coaction is not"):
        galois_data(ext, right_d2_quasibase(ext))


def test_a_replaced_bialgebroid_is_audited_afresh(s3_galois, monkeypatch):
    ext, rqb, bgd, delta = s3_galois
    assert comodule_algebra_audit(ext, delta, bgd).all_pass
    calls = _count_calls(monkeypatch, ("AuditReport",))
    assert comodule_algebra_audit(ext, delta, bgd).all_pass
    assert calls["AuditReport"] == 0
    # equal entries in new objects still count as another bialgebroid
    rebuilt = Matrix(bgd.Delta.field, bgd.Delta.data)
    for replaced in (bgd.replaced(Delta=rebuilt), bgd.replaced(eps=bgd.core.eps)):
        assert comodule_algebra_audit(ext, delta, replaced).all_pass
    assert calls["AuditReport"] == 2


# -- memory ---------------------------------------------------------------------

def test_a_finished_extension_is_freed_without_the_cyclic_collector():
    # everything the stages cache lives in the extension's memo; none of it may
    # point back at the extension, or only the cyclic collector could free it
    enabled = gc.isenabled()
    gc.disable()
    try:
        ext = build_example("s3-a3")
        tensor_square(ext)
        rqb = right_d2_quasibase(ext)
        left_d2_quasibase(ext)
        t_core(ext)
        assert balanced_audit(ext).balanced
        bgd = build_T(ext, rqb)
        assert axiom_audit(bgd).all_pass
        data = galois_data(ext, rqb)
        assert comodule_algebra_audit(ext, data.delta, bgd).all_pass
        assert d2_iff_corollary_audit(ext).agree
        assert main_theorem_audit(ext).consistent
        ref = weakref.ref(ext)
        del ext, rqb, bgd, data
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
