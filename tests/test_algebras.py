from __future__ import annotations

import random
import re

import pytest

from depthtwo.algebras import (AlgebraError, FiniteAlgebra, centralizer,
                               field_as_algebra, group_algebra, group_pair,
                               ground_field_extension, ideal_closure,
                               is_two_sided_ideal, make_algebra, matrix_algebra,
                               normality_audit, per_extension, subgroup_extension,
                               trivial_extension)
from depthtwo.catalog import (A3_INDICES, C2_TABLE, S3_TABLE, TRANSPOSITION_INDICES,
                              build_example, catalog_names)
from depthtwo.bialgebroid import t_core
from depthtwo.fields import GF, QQ
from depthtwo.linalg import Subspace, insert_row, sum_nonzeros

from conftest import (GROUP_PAIRS, alternating_group_table, dense, dense_s3a3,
                      permutation_group, sparse)


def _unvalidated(field, cube, unit) -> FiniteAlgebra:
    """The algebra of a dense cube and dense unit, read into nonzeros and not validated."""
    return FiniteAlgebra(field, [[sparse(row) for row in plane] for plane in cube],
                         sparse(unit), validate=False)


def _dense_unit(alg) -> list:
    return dense(alg.field, alg.unit, alg.dim)


# -- make_algebra -----------------------------------------------------------

def test_one_dimensional_field_algebra():
    alg = make_algebra(QQ, [[[QQ.one]]], [QQ.one])
    assert alg.dim == 1
    assert alg.mul({0: QQ.of(3)}, {0: QQ.of(4)}) == {0: QQ.of(12)}
    assert alg.structure == [[[QQ.one]]] and alg.unit == {0: QQ.one}


def test_matrix_units_give_m2():
    m2 = matrix_algebra(QQ, 2)
    FiniteAlgebra(QQ, m2.nonzeros, m2.unit, validate=True)
    assert m2.dim == 4
    # e01 * e10 = e00, e10 * e01 = e11
    assert m2.mul(m2.basis_vector(1), m2.basis_vector(2)) == m2.basis_vector(0)
    assert m2.mul(m2.basis_vector(2), m2.basis_vector(1)) == m2.basis_vector(3)
    assert not m2.is_commutative()


def test_bad_unit_rejected():
    with pytest.raises(AlgebraError, match="unit law"):
        make_algebra(QQ, [[[QQ.one]]], [QQ.zero])


def test_non_associative_rejected():
    z, o = QQ.zero, QQ.one
    # basis {1, x, y} with x*x = y, x*y = 1, y*x = 0: (xx)x = 0 but x(xx) = 1
    structure = [
        [[o, z, z], [z, o, z], [z, z, o]],
        [[z, o, z], [z, z, o], [o, z, z]],
        [[z, z, o], [z, z, z], [z, z, z]],
    ]
    with pytest.raises(AlgebraError, match="associativity"):
        make_algebra(QQ, structure, [o, z, z])


@pytest.mark.parametrize("structure, unit, message", [
    ([], [], "positive dimension"),
    ([], [QQ.one], "positive dimension"),
    ([[[QQ.one]], [[QQ.one]]], [QQ.one, QQ.zero], "not dim x dim x dim"),
    ([[[QQ.one, QQ.zero]]], [QQ.one], "not dim x dim x dim"),
    ([[[QQ.one]]], [QQ.one, QQ.zero], "unit vector has wrong length"),
])
def test_make_algebra_names_the_first_shape_violation(structure, unit, message):
    with pytest.raises(AlgebraError, match=message):
        make_algebra(QQ, structure, unit)


def test_nonzeros_outside_the_dimension_are_shape_violations():
    one = QQ.one
    with pytest.raises(AlgebraError, match="not dim x dim x dim"):
        FiniteAlgebra(QQ, [[{1: one}]], {0: one})
    with pytest.raises(AlgebraError, match="not dim x dim x dim"):
        FiniteAlgebra(QQ, [[{0: one}, {0: one}]], {0: one})
    with pytest.raises(AlgebraError, match="unit vector has wrong length"):
        FiniteAlgebra(QQ, [[{0: one}]], {1: one})


# -- group algebras ---------------------------------------------------------

def test_trivial_group_is_the_field():
    alg = group_algebra(QQ, [[0]])
    assert alg.dim == 1 and alg.unit == {0: QQ.one}


def test_c2_squares_to_identity():
    alg = group_algebra(QQ, C2_TABLE)
    assert alg.dim == 2
    g = alg.basis_vector(1)
    assert alg.mul(g, g) == alg.unit


def test_s3_passes_full_associativity_sweep():
    alg = group_algebra(QQ, S3_TABLE)
    # independent re-validation through the generic identity sweep
    FiniteAlgebra(QQ, alg.nonzeros, alg.unit, validate=True)
    assert alg.dim == 6


def test_group_table_must_be_group():
    with pytest.raises(AlgebraError):
        group_algebra(QQ, [[0, 1], [0, 1]])  # rows not permutations


# -- group pairs -------------------------------------------------------------

def test_trivial_subgroup_pair():
    ext, transversal = group_pair(QQ, C2_TABLE, [0])
    assert ext.B.dim == 1 and ext.A.dim == 2
    assert transversal == [0, 1]


def test_s3_a3_pair_dims_and_transversal():
    ext, transversal = group_pair(QQ, S3_TABLE, A3_INDICES)
    assert ext.B.dim == 3 and ext.A.dim == 6
    assert transversal == [0, 3]


def test_non_normal_subgroup_rejected_by_group_pair():
    with pytest.raises(AlgebraError, match="not normal"):
        group_pair(QQ, S3_TABLE, TRANSPOSITION_INDICES)


def test_non_normal_subgroup_accepted_by_subgroup_extension():
    ext, sub = subgroup_extension(QQ, S3_TABLE, TRANSPOSITION_INDICES)
    assert ext.B.dim == 2 and sub == [0, 3]


def test_subgroup_must_be_closed():
    with pytest.raises(AlgebraError, match="closed"):
        subgroup_extension(QQ, S3_TABLE, [0, 1])  # {e, (123)} misses (132)


# -- centralizer --------------------------------------------------------------

def test_centralizer_of_trivial_m2_extension_is_scalars():
    ext = trivial_extension(matrix_algebra(QQ, 2))
    R = centralizer(ext)
    assert R.dim == 1
    assert R.space.contains(ext.A.unit)


def test_centralizer_over_ground_field_is_everything():
    ext = ground_field_extension(group_algebra(QQ, S3_TABLE))
    assert centralizer(ext).dim == 6


def _conjugation_orbit_sums(field, table, subgroup):
    """Independent oracle: orbit sums of N acting on G by twisted conjugation
    h -> n h n^-1 span the centralizer of k[N] in k[G]."""
    n = len(table)
    identity = next(e for e in range(n)
                    if all(table[e][j] == j and table[j][e] == j for j in range(n)))
    inv = [table[i].index(identity) for i in range(n)]
    seen, sums = set(), []
    for h in range(n):
        if h in seen:
            continue
        orbit = set()
        stack = [h]
        while stack:
            x = stack.pop()
            if x in orbit:
                continue
            orbit.add(x)
            for m in subgroup:
                stack.append(table[table[m][x]][inv[m]])
        seen |= orbit
        sums.append({x: field.one for x in orbit})
    return sums


def test_centralizer_s3_a3_matches_orbit_sum_oracle(s3a3):
    R = centralizer(s3a3)
    oracle = Subspace.span(QQ, 6, _conjugation_orbit_sums(QQ, S3_TABLE, A3_INDICES))
    assert R.space == oracle
    assert R.dim == 4


# -- ideals and normality -------------------------------------------------------

def test_ideal_closure_of_zero():
    A = group_algebra(QQ, C2_TABLE)
    assert ideal_closure(A, [{}]).dim == 0


def test_ideal_closure_of_unit_is_everything():
    A = group_algebra(QQ, S3_TABLE)
    assert ideal_closure(A, [A.unit]).dim == 6


def test_augmentation_complement_ideal_in_c2():
    A = group_algebra(QQ, C2_TABLE)
    gen = {0: QQ.one, 1: -QQ.one}  # e - g
    ideal = ideal_closure(A, [gen])
    assert ideal.dim == 1
    assert is_two_sided_ideal(A, ideal)
    assert ideal.contains(gen)


def test_normality_audit_extremes(s3a3):
    A = s3a3.A
    zero = Subspace.zero(QQ, A.dim)
    assert normality_audit(s3a3, zero).equal
    assert normality_audit(s3a3, Subspace.full(QQ, A.dim)).equal


def test_normality_audit_trivial_m2(trivial_m2):
    A = trivial_m2.A
    for i in range(A.dim):
        ideal = ideal_closure(A, [A.basis_vector(i)])
        report = normality_audit(trivial_m2, ideal)
        assert report.equal


def test_normality_audit_rejects_non_ideal(s3a3):
    not_ideal = Subspace.span(QQ, 6, [s3a3.A.basis_vector(1)])
    with pytest.raises(AlgebraError, match="ideal"):
        normality_audit(s3a3, not_ideal)


# -- morphism validation ---------------------------------------------------------

def test_extension_of_prime_field_variants():
    ext, _ = group_pair(GF(5), S3_TABLE, A3_INDICES)
    assert ext.A.field == GF(5)
    assert centralizer(ext).dim == 4


def test_field_as_algebra_unit():
    k = field_as_algebra(QQ)
    assert k.dim == 1 and k.unit == {0: QQ.one}


def test_non_injective_extension_accepted():
    # the augmentation k[C_2] -> k is unit-preserving but not monic;
    # the whole pipeline must accept it
    from depthtwo.algebras import AlgebraMorphism, Extension
    from depthtwo.bimodules import right_d2_quasibase
    from depthtwo.galois import main_theorem_audit
    from depthtwo.linalg import Matrix

    B = group_algebra(QQ, C2_TABLE)
    A = field_as_algebra(QQ)
    iota = AlgebraMorphism(B, A, Matrix(QQ, [[QQ.one, QQ.one]]))
    assert iota.matrix.rank() == 1 < B.dim
    ext = Extension(B, A, iota)
    assert centralizer(ext).dim == 1
    assert right_d2_quasibase(ext) is not None
    report = main_theorem_audit(ext)
    assert report.lhs and report.rhs and report.consistent


# -- associativity check ------------------------------------------------------


def _unit_plus_products(field, n: int, products: dict) -> list:
    """Cube on e_0 = 1, e_1..e_(n-1) with e_i e_j = e_m for (i, j): m in products, else 0."""
    z, o = field.zero, field.one
    cube = [[[z] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        cube[0][i][i] = o
        cube[i][0][i] = o
    for (i, j), m in products.items():
        cube[i][j][m] = o
    return cube


def _first_associativity_failure(field, cube, unit):
    """The dense basis-triple loop, in i, j, k order."""
    alg = _unvalidated(field, cube, unit)
    n = alg.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = alg.mul(alg.nonzeros[i][j], alg.basis_vector(k))
                right = alg.mul(alg.basis_vector(i), alg.nonzeros[j][k])
                if left != right:
                    return i, j, k
    return None


def _assert_rejected_at(field, cube, unit, triple):
    assert _first_associativity_failure(field, cube, unit) == triple
    i, j, k = triple
    with pytest.raises(AlgebraError, match=re.escape(
            f"associativity fails: (e_{i}e_{j})e_{k} != e_{i}(e_{j}e_{k})")):
        make_algebra(field, cube, unit)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
@pytest.mark.parametrize("products, triple", [
    ({(1, 2): 1}, (1, 2, 2)),              # (e1 e2) e2 = e1, e1 (e2 e2) = 0: the only failure
    ({(3, 2): 2}, (3, 3, 2)),              # (e3 e3) e2 = 0, e3 (e3 e2) = e2
    ({(4, 4): 3, (3, 4): 2}, (4, 4, 4)),   # (e4 e4) e4 = e2, e4 (e4 e4) = 0: the last triple
])
def test_associativity_rejects_a_single_failing_triple(field, products, triple):
    cube = _unit_plus_products(field, 5, products)
    unit = [field.one] + [field.zero] * 4
    alg = _unvalidated(field, cube, unit)
    failing = [(i, j, k) for i in range(5) for j in range(5) for k in range(5)
               if alg.mul(alg.nonzeros[i][j], alg.basis_vector(k))
               != alg.mul(alg.basis_vector(i), alg.nonzeros[j][k])]
    assert failing == [triple]
    _assert_rejected_at(field, cube, unit, triple)


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("i, j, bump", [(1, 1, 0), (3, 4, 2), (5, 5, 5), (2, 5, 3)])
def test_associativity_names_the_first_failure_of_the_dense_loop(field, i, j, bump):
    # S3 with one structure constant off the identity row and column moved
    alg = group_algebra(field, S3_TABLE)
    cube = alg.structure
    cube[i][j][bump] = cube[i][j][bump] + field.one
    unit = _dense_unit(alg)
    triple = _first_associativity_failure(field, cube, unit)
    assert triple is not None
    _assert_rejected_at(field, cube, unit, triple)


@pytest.mark.parametrize("name", catalog_names())
def test_every_catalog_algebra_passes_validation(name):
    ext = build_example(name)
    for alg in (ext.A, ext.B):
        assert _first_associativity_failure(alg.field, alg.structure, _dense_unit(alg)) is None
        assert make_algebra(alg.field, alg.structure, _dense_unit(alg)).dim == alg.dim


GROUP_TABLES = {"S3": S3_TABLE, "A4": alternating_group_table()}


def _fails_at_a_generator(field, cube, unit) -> bool:
    alg = _unvalidated(field, cube, unit)
    n = alg.dim
    return any(alg.mul(alg.nonzeros[i][g], alg.basis_vector(k))
               != alg.mul(alg.basis_vector(i), alg.nonzeros[g][k])
               for g in alg.generating_indices() for i in range(n) for k in range(n))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
@pytest.mark.parametrize("group", sorted(GROUP_TABLES))
def test_generator_check_rejects_exactly_the_dense_loop_failures(field, group):
    # one structure constant moved off the identity row and column, so the
    # unit law holds and only associativity can fail
    alg = group_algebra(field, GROUP_TABLES[group])
    n = alg.dim
    rng = random.Random(f"{group}/{field!r}")
    others = [x for x in range(n) if x not in alg.unit]
    unit = _dense_unit(alg)
    failures = 0
    for _ in range(16):
        i, j, m = rng.choice(others), rng.choice(others), rng.randrange(n)
        cube = alg.structure
        cube[i][j][m] = cube[i][j][m] + field.of(rng.choice((1, -1, 2, 3)))
        triple = _first_associativity_failure(field, cube, unit)
        if triple is None:
            assert make_algebra(field, cube, unit).dim == n
            continue
        failures += 1
        _assert_rejected_at(field, cube, unit, triple)
        # Light's test: a non-associative cube fails at a generator too
        assert _fails_at_a_generator(field, cube, unit)
    assert failures


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
def test_first_failure_is_named_when_its_middle_index_is_no_generator(field):
    # e_5 e_1 moved: the first failing triple (1, 4, 1) has the middle index 4,
    # which is no generator of the moved cube, yet the generators still fail
    alg = group_algebra(field, S3_TABLE)
    cube = alg.structure
    cube[5][1][0] = cube[5][1][0] + field.one
    unit = _dense_unit(alg)
    moved = _unvalidated(field, cube, unit)
    assert 4 not in moved.generating_indices()
    assert _fails_at_a_generator(field, cube, unit)
    _assert_rejected_at(field, cube, unit, (1, 4, 1))


def _pair_closure_generators(alg) -> list[int]:
    """The greedy basis-order choice with the closure under all pairwise products."""
    def closure(vectors):
        span = Subspace.span(alg.field, alg.dim, [alg.unit] + vectors)
        while True:
            products = [alg.mul(u, v) for u in span.basis for v in span.basis]
            bigger = Subspace.span(alg.field, alg.dim, span.basis + products)
            if bigger.dim == span.dim:
                return bigger
            span = bigger

    gens: list[int] = []
    span = Subspace.span(alg.field, alg.dim, [alg.unit])
    for i in range(alg.dim):
        if span.contains(alg.basis_vector(i)):
            continue
        gens.append(i)
        span = closure(span.basis + [alg.basis_vector(i)])
        if span.dim == alg.dim:
            break
    return gens


def _a4_over_v4(field):
    table = GROUP_TABLES["A4"]
    v4 = [g for g in range(12) if table[g][g] == table[0][0]]  # 1 and the involutions
    return group_pair(field, table, v4)[0]


GENERATOR_CASES = {**{name: (lambda name=name: build_example(name)) for name in catalog_names()},
                   "s3-a3 dense": dense_s3a3,
                   # A4 is no product <a><b>, so right words need every generator
                   "A4>V4 over F_3": lambda: _a4_over_v4(GF(3))}


def _fixpoint_ideal(A, generators: list[dict]) -> Subspace:
    """The ideal as the span of every product with a basis element, re-spanned
    until its dimension stops growing."""
    span = Subspace.span(A.field, A.dim, generators)
    for _ in range(A.dim + 1):
        extra = [p for v in span.basis for i in range(A.dim)
                 for p in (A.mul({i: 1}, v), A.mul(v, {i: 1}))]
        bigger = Subspace.span(A.field, A.dim, span.basis + extra)
        if bigger.dim == span.dim:
            return bigger
        span = bigger
    return span


def _scanned_ideal(A, space: Subspace) -> bool:
    """Whether every product of a basis vector of space with a basis element stays in it."""
    return all(space.contains(A.mul({i: 1}, v)) and space.contains(A.mul(v, {i: 1}))
               for v in space.basis for i in range(A.dim))


def _word_generators(A) -> list[int]:
    """The greedy generators, closed one word at a time: a new generator e_i
    multiplies the old words, and a word that enlarges the span is multiplied
    by every generator in turn."""
    n, nz, field, mod = A.dim, A.nonzeros, A.field, A.field.char
    span: dict[int, dict] = {}
    words = [A.unit]
    insert_row(span, A.unit, field)
    gens: list[int] = []
    for i in range(n):
        if len(span) == n:
            break
        if not insert_row(span, {i: 1}, field):
            continue
        gens.append(i)
        todo = [(w, (i,)) for w in words]
        words.append({i: 1})
        todo.append((words[-1], tuple(gens)))
        while todo and len(span) < n:
            w, by = todo.pop()
            for g in by:
                v = sum_nonzeros(((c, nz[m][g].items()) for m, c in w.items()), mod)
                if insert_row(span, v, field):
                    words.append(v)
                    todo.append((v, tuple(gens)))
    return gens


CLOSURE_ALGEBRAS = {
    **{f"{name} {side}": (lambda name=name, side=side: getattr(build_example(name), side))
       for name in catalog_names() for side in ("A", "B")},
    **{f"k[{group}] over {fname}": (lambda table=table, field=field: group_algebra(field, table))
       for group, table in (("D4", permutation_group(GROUP_PAIRS["D4>C4"][0])),
                            ("A4", alternating_group_table()))
       for fname, field in (("Q", QQ), ("F_2", GF(2)))},
}


@pytest.mark.parametrize("name", sorted(CLOSURE_ALGEBRAS))
def test_span_closures_equal_the_fixpoint_references(name):
    A = CLOSURE_ALGEBRAS[name]()
    assert A.generating_indices() == _word_generators(A)
    non_ideals = 0
    for gen in [{i: 1} for i in range(A.dim)] + [A.unit, {}]:
        ideal = ideal_closure(A, [gen])
        assert ideal == _fixpoint_ideal(A, [gen]), gen
        assert is_two_sided_ideal(A, ideal) and _scanned_ideal(A, ideal), gen
        line = Subspace.span(A.field, A.dim, [gen])
        assert is_two_sided_ideal(A, line) == _scanned_ideal(A, line), gen
        non_ideals += not _scanned_ideal(A, line)
    # every algebra of dimension > 1 here has a basis vector whose line is no ideal
    assert non_ideals > 0 or A.dim == 1


@pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
def test_right_word_generators_equal_the_pair_closure_generators(name):
    ext = GENERATOR_CASES[name]()
    core = t_core(ext)
    for alg in (ext.A, ext.B, core.R_alg, core.T_alg):
        expected = _pair_closure_generators(alg)
        assert alg.generating_indices() == expected
        # the same indices whether chosen inside validation or afterwards
        assert make_algebra(alg.field, alg.structure,
                            _dense_unit(alg)).generating_indices() == expected
        assert FiniteAlgebra(alg.field, alg.nonzeros, alg.unit,
                             validate=False).generating_indices() == expected


# -- per_extension ------------------------------------------------------------

def test_per_extension_returns_the_cached_object_until_the_extension_changes():
    calls = []

    @per_extension
    def probe(ext):
        calls.append(ext)
        return object()

    ext, fresh = build_example("c2-over-k"), build_example("c2-over-k")
    first = probe(ext)
    assert probe(ext) is first and calls == [ext]
    assert probe(fresh) is not first and calls == [ext, fresh]
    assert t_core(ext) is t_core(ext) and t_core(fresh) is not t_core(ext)


def test_per_extension_keeps_arguments_apart():
    from depthtwo.bimodules import (left_d2_quasibase, right_d2_quasibase,
                                    tensor_power)
    ext = build_example("s3-a3")
    q3, q4 = tensor_power(ext, 3), tensor_power(ext, 4)
    assert q3 is not q4 and q3.dim != q4.dim
    assert tensor_power(ext, 3) is q3 and tensor_power(ext, 4) is q4
    rqb, lqb = right_d2_quasibase(ext), left_d2_quasibase(ext)
    assert (rqb.side, lqb.side) == ("right", "left")
    assert right_d2_quasibase(ext) is rqb and left_d2_quasibase(ext) is lqb


def test_per_extension_caches_none(monkeypatch):
    import depthtwo.bimodules as bimodules_mod
    solves = []
    original = bimodules_mod._summand_solve

    def counted(*args):
        solves.append(args)
        return original(*args)

    monkeypatch.setattr(bimodules_mod, "_summand_solve", counted)
    ext = build_example("s3-transposition")
    assert bimodules_mod.right_d2_quasibase(ext) is None
    assert bimodules_mod.right_d2_quasibase(ext) is None
    assert len(solves) == 1
