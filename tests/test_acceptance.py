"""Acceptance suite: every criterion runs at exact arithmetic (zero tolerance)
and prints one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from depthtwo.actions import LeftModule, action_invariants, t_action
from depthtwo.algebras import group_pair, ideal_closure, normality_audit, \
    trivial_extension
from depthtwo.bialgebroid import axiom_audit, build_T, commutative_flip_check, t_core
from depthtwo.bimodules import (compose_extensions, group_quasibase,
                                h_separability_test, hom_space,
                                left_d2_quasibase, left_module_bimodule,
                                right_d2_quasibase, split_projectivity_audit,
                                verify_left_quasibase, verify_right_quasibase)
from depthtwo.catalog import (A3_INDICES, S3_TABLE, build_example, catalog_names,
                              m2_over_ground_field)
from depthtwo.fields import GF, QQ
from depthtwo.galois import (coaction, comodule_algebra_audit,
                             d2_iff_corollary_audit, main_theorem_audit)
from depthtwo.linalg import Matrix, Subspace


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL: {description}")
        raise
    print(f"criterion {num:2d} PASS: {description}")


@pytest.fixture(scope="module")
def catalog_exts():
    return {name: build_example(name) for name in catalog_names()}


@pytest.fixture(scope="module")
def s3_pairs():
    """(extension, transversal) for the normal group pair over Q and F_5."""
    out = {}
    for field in (QQ, GF(5)):
        out[field] = group_pair(field, S3_TABLE, A3_INDICES)
    return out


def test_criterion_01_quasibase_soundness(s3_pairs):
    with criterion(1, "solver and transversal quasibases verify on all 36 pairs "
                      "over Q and F_5"):
        for field, (ext, transversal) in s3_pairs.items():
            rqb = right_d2_quasibase(ext)
            lqb = left_d2_quasibase(ext)
            assert rqb is not None and lqb is not None
            assert verify_right_quasibase(ext, rqb)
            assert verify_left_quasibase(ext, lqb)
            gq_right = group_quasibase(ext, S3_TABLE, A3_INDICES, transversal,
                                       "right")
            gq_left = group_quasibase(ext, S3_TABLE, A3_INDICES, transversal,
                                      "left")
            assert verify_right_quasibase(ext, gq_right)
            assert verify_left_quasibase(ext, gq_left)


def test_criterion_02_bialgebroid_axiom_suite(catalog_exts):
    with criterion(2, "every bialgebroid axiom passes exactly on s3-a3, "
                      "field-sqrt2 and trivial-M2"):
        for name in ("s3-a3", "field-sqrt2", "trivial-M2"):
            ext = catalog_exts[name]
            bgd = build_T(ext, right_d2_quasibase(ext))
            report = axiom_audit(bgd)
            assert report.all_pass, (name, report.failing())


def test_criterion_03_commutative_specialization(catalog_exts):
    with criterion(3, "quadratic field extension: T is the 4-dim tensor algebra "
                      "with Sweedler coproduct, counit mu, involutive flip"):
        ext = catalog_exts["field-sqrt2"]
        rqb = right_d2_quasibase(ext)
        bgd = build_T(ext, rqb)
        core, wit = bgd.core, bgd.witness
        A = ext.A
        assert core.dim == 4
        assert core.R_alg.dim == 2 and core.R.space.dim == A.dim  # R = A
        eps_in_a = core.incl_R @ core.eps
        for i in range(A.dim):
            for j in range(A.dim):
                cls = core.t_coords(core.ts.class_of(A.basis_vector(i),
                                                     A.basis_vector(j)), "escape")
                # Sweedler form through the witness isomorphism
                img = wit.w3.apply(bgd.Delta.apply(cls))
                expected = wit.q3.project_items(
                    [((i, u, j), cu) for u, cu in enumerate(A.unit) if cu])
                assert img == expected
                # counit is multiplication
                assert eps_in_a.apply(cls) == A.table[i][j]
        flip = commutative_flip_check(ext)
        assert flip.flip_involutive and flip.flip_antimultiplicative
        assert flip.all_pass


def test_criterion_04_main_theorem_consistency(catalog_exts):
    with criterion(4, "main-theorem audit is consistent on the whole catalog, "
                      "including the negative transposition case"):
        for name, ext in catalog_exts.items():
            report = main_theorem_audit(ext)
            assert report.consistent, name
        negative = main_theorem_audit(catalog_exts["s3-transposition"])
        assert not negative.lhs and not negative.rhs


def test_criterion_05_corollary_oracle(catalog_exts):
    with criterion(5, "comparison-map criterion agrees with the quasibase solver "
                      "on every catalog input"):
        for name, ext in catalog_exts.items():
            report = d2_iff_corollary_audit(ext)
            assert report.agree, name


def test_criterion_06_invariants_theorem(catalog_exts):
    with criterion(6, "T-action invariants equal the A-linear endomorphisms for "
                      "the regular and twisted test modules"):
        ext = catalog_exts["s3-a3"]
        rqb = right_d2_quasibase(ext)
        bgd = build_T(ext, rqb)
        M = LeftModule.regular(ext.A)
        me = t_action(ext, rqb, M, bgd=bgd)   # measuring checked on all triples
        inv = action_invariants(me, M)
        a_bm = left_module_bimodule(ext.A, M.dim, M.action)
        expected = Subspace.span(QQ, M.dim ** 2,
                                 [f.vec() for f in hom_space(a_bm, a_bm)])
        assert inv == expected

        ext2 = catalog_exts["field-sqrt2"]
        rqb2 = right_d2_quasibase(ext2)
        bgd2 = build_T(ext2, rqb2)
        field = ext2.A.field
        two = field.of(2)
        twisted = LeftModule(ext2.A, 2, [
            Matrix.identity(field, 2),
            Matrix(field, [[field.zero, -two], [-field.one, field.zero]])])
        me2 = t_action(ext2, rqb2, twisted, bgd=bgd2)
        inv2 = action_invariants(me2, twisted)
        a_bm2 = left_module_bimodule(ext2.A, 2, twisted.action)
        expected2 = Subspace.span(field, 4,
                                  [f.vec() for f in hom_space(a_bm2, a_bm2)])
        assert inv2 == expected2


def test_criterion_07_necessary_conditions(catalog_exts):
    with criterion(7, "centralizer contractions of all single-generator ideals "
                      "are A-invariant for D2 entries; split projectivity "
                      "reconstructs the group algebra"):
        for name, ext in catalog_exts.items():
            if right_d2_quasibase(ext) is None:
                continue
            A = ext.A
            for i in range(A.dim):
                ideal = ideal_closure(A, [A.basis_vector(i)])
                assert normality_audit(ext, ideal).equal, (name, i)
        ext = catalog_exts["s3-a3"]
        p = Matrix.from_columns(QQ, [{j: QQ.one} for j in range(3)] + [{}] * 3, nrows=3)
        dual = split_projectivity_audit(ext, p)
        A = ext.A
        for y in range(A.dim):
            ey = A.basis_vector(y)
            acc = [QQ.zero] * A.dim
            for functional, elem in dual.pairs:
                piece = A.mul(ext.iota.apply(functional.apply(ey)), elem)
                acc = [a + b for a, b in zip(acc, piece)]
            assert acc == ey


def test_criterion_08_composite_depth_two():
    with criterion(8, "H-separable inner extension composed with a trivial outer "
                      "extension stays right depth two"):
        inner = m2_over_ground_field()
        assert h_separability_test(inner) is not None
        outer = trivial_extension(inner.A)
        assert right_d2_quasibase(outer) is not None
        composite = compose_extensions(inner, outer)
        assert right_d2_quasibase(composite) is not None


def test_criterion_09_quasibase_independence():
    with criterion(9, "solver-derived and transversal-derived quasibases give "
                      "bit-identical structure maps"):
        ext1, _ = group_pair(QQ, S3_TABLE, A3_INDICES)
        ext2, transversal = group_pair(QQ, S3_TABLE, A3_INDICES)
        bgd1 = build_T(ext1, right_d2_quasibase(ext1))
        bgd2 = build_T(ext2, group_quasibase(ext2, S3_TABLE, A3_INDICES,
                                             transversal, "right"))
        assert bgd1.Delta == bgd2.Delta
        assert bgd1.core.eps == bgd2.core.eps
        assert bgd1.core.s_R == bgd2.core.s_R
        assert bgd1.core.t_R == bgd2.core.t_R


def _swapped_columns(matrix: Matrix) -> Matrix:
    cols = matrix.cols
    assert cols[0] != cols[1], "columns must differ for the mutation"
    return Matrix.from_columns(matrix.field, [cols[1], cols[0], *cols[2:]], nrows=matrix.nrows)


def test_criterion_10_mutation_sensitivity(catalog_exts):
    with criterion(10, "corrupting any single structure map trips an audit "
                       "with a concrete witness"):
        ext = catalog_exts["field-sqrt2"]
        rqb = right_d2_quasibase(ext)
        bgd = build_T(ext, rqb)
        delta_coaction = coaction(ext, rqb)

        for field_name in ("Delta", "eps", "s_R", "t_R"):
            source = bgd.Delta if field_name == "Delta" else \
                getattr(bgd.core, field_name)
            corrupted = bgd.replaced(**{field_name: _swapped_columns(source)})
            report = axiom_audit(corrupted)
            assert not report.all_pass, field_name
            assert all(report.results[n][1] is not None
                       for n in report.failing()), field_name

        bad_coaction = _swapped_columns(delta_coaction)
        comodule = comodule_algebra_audit(ext, bad_coaction, bgd)
        assert not comodule.all_pass
        assert any(wit is not None for ok, wit in comodule.results.values()
                   if not ok)
