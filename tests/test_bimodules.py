from __future__ import annotations

import os
import random
import sys

import pytest

from depthtwo.algebras import (AlgebraError, group_pair, ground_field_extension,
                               matrix_algebra, trivial_extension)
from depthtwo.bialgebroid import t_core
from depthtwo.bimodules import (BalancedTensor, Bimodule, QuasibaseSet, _generator_maps,
                                _summand_system, algebra_bimodule, bb_endomorphisms, b_centralized, balanced_tensor,
                                bimodule_generators, compose_extensions,
                                coproduct_summand_test, group_quasibase,
                                h_separability_test, hom_space, intertwiners,
                                left_d2_quasibase, left_module_bimodule, restrict,
                                right_d2_quasibase, split_projectivity_audit,
                                tensor_power, tensor_square, unit_tensor,
                                verify_quasibase)
from depthtwo.catalog import (A3_INDICES, S3_TABLE, build_example, catalog_names,
                              m2_over_ground_field)
from depthtwo.fields import GF, QQ
from depthtwo.galois import d2_iff_corollary_audit, tensor_with_t
from depthtwo.jsonio import extension_from_json
from depthtwo.linalg import (Matrix, Subspace, combine, insert_row, nullspace,
                             solve_in_span, sum_nonzeros)

from conftest import (CATALOG_AND_A4, CATALOG_AND_GROUPS, dense, dense_apply, dense_eye,
                      dense_s3a3, kron, native, sparse, unit_vectors)
from test_galois import _upper_triangular_extension

# the benchmark's corpus generator, for its dense members
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import workloads  # noqa: E402


# -- tensor square -----------------------------------------------------------

def test_tensor_square_over_itself_collapses(trivial_m2):
    ts = tensor_square(trivial_m2)
    assert ts.dim == trivial_m2.A.dim


def test_tensor_square_over_ground_field_is_full(sqrt2):
    ts = tensor_square(sqrt2)
    assert ts.dim == sqrt2.A.dim ** 2


def test_tensor_square_s3_a3_coset_basis_oracle(s3a3):
    # the 12 classes e_g (x) e_s for g in G and s a transversal rep span
    # the quotient and are independent
    ts = tensor_square(s3a3)
    A = s3a3.A
    vectors = [ts.class_of(A.basis_vector(g), A.basis_vector(s))
               for g in range(6) for s in (0, 3)]
    span = Subspace.span(QQ, ts.dim, vectors)
    assert span.dim == 12 == ts.dim


def test_tensor_square_actions_are_bimodules(s3a3):
    ts = tensor_square(s3a3)
    restrict(ts, right=s3a3.iota).check()
    restrict(ts, left=s3a3.iota).check()
    ts.check()
    restrict(ts, s3a3.iota, s3a3.iota).check()


def test_mu_factors_through_quotient(s3a3):
    ts = tensor_square(s3a3)
    A = s3a3.A
    for i in range(A.dim):
        for j in range(A.dim):
            cls = ts.class_of(A.basis_vector(i), A.basis_vector(j))
            product = sum_nonzeros(((c, A.nonzeros[s][t].items())
                                    for (s, t), c in ts.lift_items(cls)), QQ.char)
            assert product == A.nonzeros[i][j]


def test_tensor_power_dims_chain(s3a3):
    q3 = tensor_power(s3a3, 3)
    q4 = tensor_power(s3a3, 4)
    # |G| * [G:N]^(k-1) for the group pair
    assert q3.dim == 24
    assert q4.dim == 48


# -- balanced tensor products ---------------------------------------------------

def _balanced_quotient(ext, name):
    core = t_core(ext)
    if name == "ts":
        return tensor_square(ext)
    if name == "q3":
        return tensor_power(ext, 3)
    if name == "tt":
        return core.tt
    if name == "ttt":
        return balanced_tensor(core.tt, core.r_bimodule())
    return tensor_with_t(ext)


@pytest.mark.parametrize("name", ["ts", "q3", "tt", "ttt", "at"])
@pytest.mark.parametrize("fixture", ["s3a3", "s3a3_f5", "c2_over_k"])
def test_balanced_tensor_relations_and_items(fixture, name, request):
    ext = request.getfixturevalue(fixture)
    X = _balanced_quotient(ext, name)
    M, N = X.M, X.N
    field = ext.A.field
    eye_m = unit_vectors(field, M.dim)
    eye_n = unit_vectors(field, N.dim)
    # m.c (x) n and m (x) c.n have the same class for every generator c
    for c in M.right_algebra.generating_indices():
        for m in eye_m:
            mc = M.right_action[c].image(m)
            for n in eye_n:
                assert X.class_of(mc, n) == X.class_of(m, N.left_action[c].image(n))
    # the sparse lift is a section of the stagewise reduction
    for x in unit_vectors(field, X.dim):
        assert X.reduce_items(X.lift_items(x)) == x
    if name in ("ts", "q3"):
        X.check()


@pytest.mark.parametrize("name", ["ts", "tt", "at", "ttt"])
@pytest.mark.parametrize("fixture", ["s3a3", "s3a3_f5"])
def test_class_of_sum_equals_the_summed_classes(fixture, name, request):
    ext = request.getfixturevalue(fixture)
    X = _balanced_quotient(ext, name)
    field = ext.A.field
    rng = random.Random(f"{fixture}/{name}")

    def leg(dim):
        return sparse([field.of(rng.choice((0, 0, 0, 1, -1, 2))) for _ in range(dim)])

    for _ in range(4):
        terms = [(native(field.of(rng.choice((0, 1, -1, 3)))), leg(X.M.dim), leg(X.N.dim))
                 for _ in range(rng.randint(1, 5))]
        # a term and its negative cancel
        c, x, y = terms[0]
        terms += [(native(field.of(2)), x, y), (native(-field.of(2)), x, y)]
        classes = []
        for c, x, y in terms:
            cls = X.class_of(x, y)
            # one term: the reduction of the ambient vector x_i y_j at i * N.dim + j
            assert cls == X.quot.reduce(sparse([a * b for a in dense(field, x, X.M.dim)
                                                for b in dense(field, y, X.N.dim)]))
            classes.append((c, cls.items()))
        assert X.class_of_sum(terms) == sum_nonzeros(classes, field.char)
    cancelling = [(field.one, x, y), (-field.one, x, y)]
    assert X.class_of_sum(cancelling) == {}
    assert X.class_of_sum([(field.zero, x, y)]) == {}
    assert X.class_of_sum([]) == {}


def test_d2_path_induces_only_the_tensor_square_actions(monkeypatch):
    # B-actions are combined from A-actions through iota, and the actions of
    # T (x)_R T and A (x)_R T are induced only when an audit needs them
    calls = []
    leg_map = BalancedTensor.leg_map

    def counted(self, mat, first):
        calls.append(self.dim)
        return leg_map(self, mat, first)

    monkeypatch.setattr(BalancedTensor, "leg_map", counted)
    ext = build_example("s3-a3")
    tensor_square(ext)
    right_d2_quasibase(ext)
    left_d2_quasibase(ext)
    t_core(ext)
    d2_iff_corollary_audit(ext)
    assert len(calls) <= 2 * ext.A.dim


@pytest.mark.parametrize("name", ["ts", "q3", "tt", "ttt", "at"])
@pytest.mark.parametrize("fixture", ["s3a3", "s3a3_f5", "c2_over_k"])
def test_balanced_tensor_relations_match_the_kron_difference(fixture, name, request):
    ext = request.getfixturevalue(fixture)
    X = _balanced_quotient(ext, name)
    M, N = X.M, X.N
    field = ext.A.field
    eye_m = Matrix.identity(field, M.dim)
    eye_n = Matrix.identity(field, N.dim)
    rows = []
    for c in M.right_algebra.generating_indices():
        diff = kron(M.right_action[c], eye_n) - kron(eye_m, N.left_action[c])
        rows.extend(diff.transpose().data)
    # the quotient kills exactly the span of the kron-difference rows
    for r in rows:
        assert X.quot.reduce(sparse(r)) == {}
    assert X.dim == M.dim * N.dim - Matrix(field, rows).rank()


def test_balanced_tensor_writes_relations_without_dense_blocks(monkeypatch):
    def forbidden(*args):
        raise AssertionError("dense block built")

    monkeypatch.setattr(Matrix, "__sub__", forbidden)
    # the outer actions of a product are induced later; only the relations are built here
    assert tensor_square(build_example("s3-a3")).dim == 12


# -- hom spaces ---------------------------------------------------------------


def _dense_sylvester_system(field, dm, dn, pairs):
    """Rows of F @ a - b @ F = 0 over the row-major unknowns F[r][c], written densely."""
    rows = []
    for a, b in pairs:
        a_rows, b_rows = a.data, b.data
        for r in range(dn):
            for c in range(dm):
                row = [field.zero] * (dn * dm)
                for k in range(dm):
                    row[r * dm + k] = row[r * dm + k] + a_rows[k][c]
                for k in range(dn):
                    row[k * dm + c] = row[k * dm + c] - b_rows[r][k]
                rows.append(row)
    return rows


def _check_intertwiners(field, dm, dn, pairs):
    homs = intertwiners(field, dm, dn, pairs)
    for F in homs:
        assert (F.nrows, F.ncols) == (dn, dm)
        for a, b in pairs:
            assert F @ a == b @ F
    rank = Matrix(field, _dense_sylvester_system(field, dm, dn, pairs)).rank()
    assert len(homs) == dm * dn - rank
    assert Subspace.span(field, dm * dn, [F.vec() for F in homs]).dim == len(homs)


@pytest.mark.parametrize("fixture", ["s3a3", "s3a3_f5", "c2_over_k"])
def test_intertwiners_solve_the_sylvester_system(fixture, request):
    ext = request.getfixturevalue(fixture)
    ts = restrict(tensor_square(ext), right=ext.iota)
    A_AB = algebra_bimodule(ext, "A", "B")
    for M, N in ((A_AB, ts), (ts, A_AB), (A_AB, A_AB)):
        pairs = [(M.left_action[i], N.left_action[i])
                 for i in M.left_algebra.generating_indices()]
        pairs += [(M.right_action[j], N.right_action[j])
                  for j in M.right_algebra.generating_indices()]
        _check_intertwiners(ext.A.field, M.dim, N.dim, pairs)


def test_intertwiners_of_random_pairs():
    rng = random.Random(61)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(15):
            dm, dn = rng.randint(1, 4), rng.randint(1, 4)
            pairs = []
            for _ in range(rng.randint(1, 2)):
                a = Matrix(field, [[field.of(rng.choice((0, 0, 1, -1, 2))) for _ in range(dm)]
                                   for _ in range(dm)])
                b = Matrix(field, [[field.of(rng.choice((0, 0, 1, -1, 2))) for _ in range(dn)]
                                   for _ in range(dn)])
                pairs.append((a, b))
            _check_intertwiners(field, dm, dn, pairs)

def test_hom_space_contains_identity(s3a3):
    ts = tensor_square(s3a3)
    M = restrict(ts, right=s3a3.iota)
    homs = hom_space(M, M)
    vecs = [h.vec() for h in homs]
    span = Subspace.span(QQ, ts.dim ** 2, vecs)
    assert span.contains(Matrix.identity(QQ, ts.dim).vec())


def test_hom_from_a_is_b_central_tensor_square(s3a3):
    # Hom of A-B-bimodules (A, A(x)_B A) = (A(x)_B A)^B via f -> f(1)
    ts = tensor_square(s3a3)
    homs = hom_space(algebra_bimodule(s3a3, "A", "B"), restrict(ts, right=s3a3.iota))
    central = b_centralized(s3a3, ts)
    assert len(homs) == central.dim
    images = [f.image(s3a3.A.unit) for f in homs]
    assert Subspace.span(QQ, ts.dim, images).dim == len(homs)
    for img in images:
        assert central.contains(img)


def test_hom_to_a_is_bb_endomorphisms(s3a3):
    # Hom of A-B-bimodules (A(x)_B A, A) = End of the B-B-bimodule A
    ts = tensor_square(s3a3)
    homs = hom_space(restrict(ts, right=s3a3.iota), algebra_bimodule(s3a3, "A", "B"))
    bb_endos = hom_space(algebra_bimodule(s3a3, "B", "B"),
                         algebra_bimodule(s3a3, "B", "B"))
    assert len(homs) == len(bb_endos)


def test_hom_space_mismatch_raises(s3a3, sqrt2):
    with pytest.raises(AlgebraError):
        hom_space(algebra_bimodule(s3a3, "A", "B"), algebra_bimodule(sqrt2, "A", "B"))


# -- B-central subspace --------------------------------------------------------

def test_b_central_over_ground_field_is_everything(c2_over_k):
    ts = tensor_square(c2_over_k)
    assert b_centralized(c2_over_k, ts).dim == ts.dim


def test_b_central_trivial_extension_matches_center(trivial_m2):
    ts = tensor_square(trivial_m2)
    central = b_centralized(trivial_m2, ts)
    # center of M2 computed independently
    A = trivial_m2.A
    rows = []
    for i in range(A.dim):
        diff = A.left_mults[i] - A.right_mults[i]
        rows.extend(sparse(r) for r in diff.data)
    center = Subspace.span(QQ, A.dim, nullspace(rows, QQ, A.dim))
    assert central.dim == center.dim == 1


def test_b_central_contains_transversal_tensors(s3a3):
    ts = tensor_square(s3a3)
    central = b_centralized(s3a3, ts)
    A = s3a3.A
    inv = {0: 0, 3: 3}  # e and (12) are involutions
    for g, gi in inv.items():
        u = ts.class_of(A.basis_vector(gi), A.basis_vector(g))
        assert central.contains(u)


# -- summand test ----------------------------------------------------------------

def test_summand_test_on_itself(s3a3):
    P = algebra_bimodule(s3a3, "A", "B")
    pairs = coproduct_summand_test(P, P)
    assert pairs is not None
    total = Matrix.zeros(QQ, P.dim, P.dim)
    for f, g in pairs:
        total = total + f @ g
    assert total == Matrix.identity(QQ, P.dim)


def _doubled(bm: Bimodule) -> Bimodule:
    field = bm.left_algebra.field
    n = bm.dim

    def block(m: Matrix) -> Matrix:
        cols = m.cols + [{n + i: x for i, x in col.items()} for col in m.cols]
        return Matrix.from_columns(field, cols, nrows=2 * n)

    return Bimodule(bm.left_algebra, bm.right_algebra, 2 * n,
                    [block(m) for m in bm.left_action],
                    [block(m) for m in bm.right_action])


def test_summand_test_on_doubled_module(sqrt2):
    P = algebra_bimodule(sqrt2, "A", "B")
    M = _doubled(P)
    M.check()
    pairs = coproduct_summand_test(M, P)
    assert pairs is not None
    total = Matrix.zeros(QQ, M.dim, M.dim)
    for f, g in pairs:
        total = total + f @ g
    assert total == Matrix.identity(QQ, M.dim)


def test_summand_test_absent_for_non_d2_tensor_square(s3_transposition):
    ts = tensor_square(s3_transposition)
    M = restrict(ts, right=s3_transposition.iota)
    P = algebra_bimodule(s3_transposition, "A", "B")
    assert coproduct_summand_test(M, P) is None


# -- quasibases --------------------------------------------------------------------

def test_right_quasibase_s3_a3_and_transversal_agreement(s3a3):
    rqb = right_d2_quasibase(s3a3)
    assert rqb is not None
    assert verify_quasibase(s3a3, rqb)
    gq = group_quasibase(s3a3, S3_TABLE, A3_INDICES, [0, 3], "right")
    assert verify_quasibase(s3a3, gq)


def test_left_quasibase_s3_a3(s3a3):
    lqb = left_d2_quasibase(s3a3)
    assert lqb is not None
    assert verify_quasibase(s3a3, lqb)
    gq = group_quasibase(s3a3, S3_TABLE, A3_INDICES, [0, 3], "left")
    assert verify_quasibase(s3a3, gq)


@pytest.mark.parametrize("fixture", ["s3a3", "s3a3_f5", "c2_over_k", "trivial_m2", "dense"])
def test_quasibase_verifiers_reject_doubled_tensors(fixture, request):
    # every tensor doubled: the sums become 2 (x (x) y), the pairs stay central
    ext = dense_s3a3() if fixture == "dense" else request.getfixturevalue(fixture)
    mod = ext.A.field.char
    for qb in (right_d2_quasibase(ext), left_d2_quasibase(ext)):
        assert verify_quasibase(ext, qb)
        doubled = QuasibaseSet(qb.side, [(endo, sum_nonzeros([(2, t.items())], mod))
                                         for endo, t in qb.pairs])
        assert not verify_quasibase(ext, doubled)


def test_ground_field_extension_always_d2(c2_over_k, sqrt2):
    for ext in (c2_over_k, sqrt2):
        assert right_d2_quasibase(ext) is not None
        assert left_d2_quasibase(ext) is not None


def test_trivial_extension_d2_with_single_pair(trivial_m2):
    lqb = left_d2_quasibase(trivial_m2)
    assert lqb is not None and len(lqb) == 1


def test_non_normal_subgroup_is_not_d2(s3_transposition):
    assert right_d2_quasibase(s3_transposition) is None
    assert left_d2_quasibase(s3_transposition) is None


def test_quasibase_size_bound(s3a3):
    # |pairs| <= dim Hom(A, A(x)A) * dim Hom(A(x)A, A)
    ts = tensor_square(s3a3)
    rqb = right_d2_quasibase(s3a3)
    hp = hom_space(algebra_bimodule(s3a3, "A", "B"), restrict(ts, right=s3a3.iota))
    hm = hom_space(restrict(ts, right=s3a3.iota), algebra_bimodule(s3a3, "A", "B"))
    assert len(rqb) <= len(hp) * len(hm)


def test_endo_ring_splitting_from_quasibase(s3a3):
    # every left-B endomorphism of A is recovered from the quasibase:
    # alpha = sum_i gamma_i(-) u_i^1 alpha(u_i^2)
    from depthtwo.bimodules import left_module_bimodule
    A = s3a3.A
    rqb = right_d2_quasibase(s3a3)
    ts = tensor_square(s3a3)
    left_b = left_module_bimodule(
        s3a3.B, A.dim, [s3a3.left_mult_iota(j) for j in range(s3a3.B.dim)])
    endos = hom_space(left_b, left_b)
    for alpha in endos:
        total = Matrix.zeros(QQ, A.dim, A.dim)
        for gamma, u in rqb.pairs:
            w = sum_nonzeros(((c, A.mul(A.basis_vector(s), alpha.cols[t]).items())
                              for (s, t), c in ts.lift_items(u)), QQ.char)
            total = total + combine(A.right_mults, w) @ gamma
        assert total == alpha


# -- H-separability and composites ------------------------------------------------

def test_m2_over_q_is_h_separable_with_azumaya_oracle():
    ext = m2_over_ground_field()
    assert h_separability_test(ext) is not None
    # oracle: the enveloping map a (x) b -> (x -> a x b) has full rank
    A = ext.A
    cols = []
    for i in range(A.dim):
        for j in range(A.dim):
            cols.append((A.left_mults[i] @ A.right_mults[j]).vec())
    env = Matrix.from_columns(QQ, cols, nrows=A.dim ** 2)
    assert env.rank() == A.dim ** 2


def test_trivial_extension_h_separable(trivial_m2):
    assert h_separability_test(trivial_m2) is not None


def test_c2_over_q_not_h_separable(c2_over_k):
    # commutative non-trivial extension of the ground field: the enveloping
    # map has rank 2 < 4, so A (x) A cannot divide a free power of A
    assert h_separability_test(c2_over_k) is None
    A = c2_over_k.A
    cols = [(A.left_mults[i] @ A.right_mults[j]).vec()
            for i in range(A.dim) for j in range(A.dim)]
    assert Matrix.from_columns(QQ, cols, nrows=A.dim ** 2).rank() == 2


def test_compose_with_identity_extensions(sqrt2):
    ident = trivial_extension(sqrt2.A)
    left = compose_extensions(sqrt2, ident)
    assert left.iota.matrix == sqrt2.iota.matrix
    ident_b = trivial_extension(sqrt2.B)
    right = compose_extensions(ident_b, sqrt2)
    assert right.iota.matrix == sqrt2.iota.matrix


def test_compose_mismatch_raises(sqrt2, s3a3):
    with pytest.raises(AlgebraError):
        compose_extensions(sqrt2, s3a3)


def test_composite_d2_from_h_separable_inner():
    inner = m2_over_ground_field()           # M2 | Q, H-separable
    outer = trivial_extension(inner.A)       # M2 | M2, right D2
    assert h_separability_test(inner) is not None
    assert right_d2_quasibase(outer) is not None
    composite = compose_extensions(inner, outer)
    assert composite.B.dim == 1 and composite.A.dim == 4
    assert right_d2_quasibase(composite) is not None


def test_composite_d2_second_instance(s3a3):
    # trivial inner extensions are H-separable, so composing one under a
    # right-D2 outer extension must stay right D2
    inner = trivial_extension(s3a3.B)
    assert h_separability_test(inner) is not None
    composite = compose_extensions(inner, s3a3)
    assert right_d2_quasibase(composite) is not None


# -- split projectivity --------------------------------------------------------------

def test_split_projectivity_trivial_extension(trivial_m2):
    p = Matrix.identity(QQ, trivial_m2.A.dim)
    db = split_projectivity_audit(trivial_m2, p)
    assert len(db) >= 1


def test_split_projectivity_s3_a3_identity_coset(s3a3):
    p = Matrix.from_columns(QQ, [{j: QQ.one} for j in range(3)] + [{}] * 3, nrows=3)
    db = split_projectivity_audit(s3a3, p)
    assert len(db) >= 2


def test_split_projectivity_rejects_non_splitting(s3a3):
    with pytest.raises(AlgebraError, match="split"):
        split_projectivity_audit(s3a3, Matrix.zeros(QQ, 3, 6))


def test_quasibase_is_bit_reproducible():
    # two independent builds of the same extension produce identical pairs
    ext1, _ = group_pair(QQ, S3_TABLE, A3_INDICES)
    ext2, _ = group_pair(QQ, S3_TABLE, A3_INDICES)
    qb1 = right_d2_quasibase(ext1)
    qb2 = right_d2_quasibase(ext2)
    assert len(qb1) == len(qb2)
    for (g1, u1), (g2, u2) in zip(qb1.pairs, qb2.pairs):
        assert g1 == g2 and u1 == u2


# -- summand test on bimodule generators ----------------------------------------


def _sub_bimodule(M: Bimodule, indices: list[int]) -> Subspace:
    """Span of a.e_i.b over all basis elements a, b of both acting algebras."""
    field = M.left_algebra.field
    eye = unit_vectors(field, M.dim)
    vectors = [rho.image(lam.image(eye[i]))
               for i in indices for lam in M.left_action for rho in M.right_action]
    return Subspace.span(field, M.dim, vectors)


def _catalog_bimodules(ext):
    """The tensor square restricted A-B, B-A and A-A, and T as a left R-module."""
    ts = tensor_square(ext)
    core = t_core(ext)
    return {"A-B": restrict(ts, right=ext.iota), "B-A": restrict(ts, left=ext.iota),
            "A-A": ts, "T over R": left_module_bimodule(core.R_alg, core.dim, core.lam_R)}


@pytest.mark.parametrize("name", catalog_names())
def test_bimodule_generators_generate_greedily_and_deterministically(name):
    bimodules = _catalog_bimodules(build_example(name))
    again = _catalog_bimodules(build_example(name))
    for kind, M in bimodules.items():
        gens = bimodule_generators(M)
        assert gens == sorted(set(gens)), kind
        assert _sub_bimodule(M, gens).dim == M.dim, kind
        # greedy in basis order: a generator lies outside the sub-bimodule of
        # the generators before it, and every basis vector skipped lies inside
        eye = unit_vectors(M.left_algebra.field, M.dim)
        for pos, g in enumerate(gens):
            before = _sub_bimodule(M, gens[:pos])
            assert not before.contains(eye[g]), kind
            skipped = range(gens[pos - 1] + 1 if pos else 0, g)
            assert all(before.contains(eye[i]) for i in skipped), kind
        assert bimodule_generators(again[kind]) == gens, kind


def test_bimodule_generators_of_a_direct_sum(sqrt2):
    # two copies of A as an A-k-bimodule need one generator per copy
    M = _doubled(algebra_bimodule(sqrt2, "A", "B"))
    assert bimodule_generators(M) == [0, 2]


def _summand_pairs_on_all_of_end(M: Bimodule, P: Bimodule):
    """The summand solve written over every coordinate of End_k(M)."""
    field = M.left_algebra.field
    homs_pm, homs_mp = hom_space(P, M), hom_space(M, P)
    if not homs_pm or not homs_mp:
        return [] if M.dim == 0 else None
    products = [(f @ g).vec() for f in homs_pm for g in homs_mp]
    coeffs = solve_in_span(Matrix.identity(field, M.dim).vec(), products, field)
    if coeffs is None:
        return None
    pairs = []
    for b, g in enumerate(homs_mp):
        column = {a: coeffs[a * len(homs_mp) + b] for a in range(len(homs_pm))
                  if a * len(homs_mp) + b in coeffs}
        if column:
            pairs.append((combine(homs_pm, column), g))
    return pairs


@pytest.mark.parametrize("name", catalog_names())
def test_summand_test_matches_the_full_end_solve(name):
    ext = build_example(name)
    bimodules = _catalog_bimodules(ext)
    A_AB, A_BA = algebra_bimodule(ext, "A", "B"), algebra_bimodule(ext, "B", "A")
    A_AA = algebra_bimodule(ext, "A", "A")
    core = t_core(ext)
    R_R = left_module_bimodule(core.R_alg, core.R_alg.dim, core.R_alg.left_mults)
    cases = {"A-B": A_AB, "B-A": A_BA, "A-A": A_AA, "T over R": R_R}
    for kind, P in cases.items():
        M = bimodules[kind]
        pairs = coproduct_summand_test(M, P)
        expected = _summand_pairs_on_all_of_end(M, P)
        if expected is None:
            assert pairs is None, kind
        else:
            assert pairs == expected, kind
    expected_hsep = _summand_pairs_on_all_of_end(tensor_square(ext), A_AA)
    hsep = h_separability_test(ext)
    assert (hsep is None) == (expected_hsep is None)
    if hsep is not None:
        assert hsep == expected_hsep


def test_summand_test_on_transposition_is_none_both_ways(s3_transposition):
    ext = s3_transposition
    M = restrict(tensor_square(ext), right=ext.iota)
    P = algebra_bimodule(ext, "A", "B")
    assert coproduct_summand_test(M, P) is None
    assert _summand_pairs_on_all_of_end(M, P) is None
    assert right_d2_quasibase(ext) is None


def test_summand_test_builds_no_vectorized_endomorphism(monkeypatch):
    def forbidden(self):
        raise AssertionError("an endomorphism was vectorized")

    monkeypatch.setattr(Matrix, "vec", forbidden)
    ext = build_example("s3-a3")
    assert right_d2_quasibase(ext) is not None
    assert left_d2_quasibase(ext) is not None
    assert h_separability_test(ext) is None


# -- depth-two quasibases on T's R-generators against the generic summand test ----


def _dense_sweep_case(name: str):
    """A member of the benchmark's ``sweep`` in its fixed dense basis (draw 0,
    signs of seed 1), parsed."""
    if "@" in name:
        entry = workloads.pair_entry(*name.split("@"))
    else:
        entry = workloads.catalog_entry(name)
    member = workloads.member(name, entry, random.Random(1), dense_draw=0)
    return extension_from_json(member["doc"])


D2_ORACLE_CASES = {
    **CATALOG_AND_GROUPS,
    **{f"{name} dense": (lambda name=name: _dense_sweep_case(name))
       for name in [*workloads.DENSE_CATALOG,
                    *(f"{pair}@{field}" for pair, field in workloads.DENSE_PAIRS)]},
    "s3-a3 dense": dense_s3a3,
    "M_2 over upper-triangular": _upper_triangular_extension,
}


@pytest.mark.parametrize("name", sorted(D2_ORACLE_CASES))
def test_d2_verdicts_equal_the_generic_summand_test(name):
    """Both sides decide as ``coproduct_summand_test`` does, and every pair
    holds one of T's R-generators on that side, which generate T."""
    ext = D2_ORACLE_CASES[name]()
    ts = tensor_square(ext)
    core = t_core(ext)
    field = ext.A.field
    sides = {"right": (right_d2_quasibase(ext), restrict(ts, right=ext.iota),
                       algebra_bimodule(ext, "A", "B"), core.left_gens, core.lam_R),
             "left": (left_d2_quasibase(ext), restrict(ts, left=ext.iota),
                      algebra_bimodule(ext, "B", "A"), core.right_gens, core.rho_R)}
    for side, (qb, M, P, gens, actions) in sides.items():
        generated = Subspace.span(field, core.dim, [act.cols[g] for act in actions for g in gens])
        assert generated.dim == core.dim, (name, side)
        assert (qb is None) == (coproduct_summand_test(M, P) is None), (name, side)
        if qb is not None:
            tensors = [core.t_basis[g] for g in gens]
            assert qb.side == side and 0 < len(qb) <= len(gens), (name, side)
            assert all(t in tensors for _, t in qb.pairs), (name, side)
            assert verify_quasibase(ext, qb), (name, side)


def test_dense_basis_case_is_dense():
    # a group basis has one nonzero coordinate per product of basis elements
    nonzeros = sum(1 for plane in dense_s3a3().A.structure for row in plane for x in row if x)
    assert nonzeros > 2 * 6 * 6


def test_d2_quasibases_solve_no_hom_space(monkeypatch):
    import depthtwo.bimodules as bimodules_mod
    calls = []
    for name in ("hom_space", "coproduct_summand_test"):
        original = getattr(bimodules_mod, name)

        def counted(*args, _name=name, _fn=original):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(bimodules_mod, name, counted)
    for example in ("s3-a3", "s3-transposition", "c2-over-k-f3"):
        ext = build_example(example)
        right_d2_quasibase(ext)
        left_d2_quasibase(ext)
    assert calls == []
    # the generic path still counts through the same names
    assert h_separability_test(build_example("s3-a3")) is None
    assert calls == ["coproduct_summand_test", "hom_space", "hom_space"]


# -- the sparse d2 kernels against the dense construction they replaced ---------


def _dense_bimodule_generators(M: Bimodule) -> list[int]:
    """The generator closure with every action applied densely, row by row."""
    field = M.left_algebra.field
    acts = [M.left_action[i] for i in M.left_algebra.generating_indices()]
    acts += [M.right_action[j] for j in M.right_algebra.generating_indices()]
    span: dict = {}

    def grow(v: list) -> bool:
        return insert_row(span, {j: x for j, x in enumerate(v) if x}, field)

    gens = []
    for i, e in enumerate(dense_eye(field, M.dim)):
        if len(span) == M.dim:
            break
        if not grow(e):
            continue
        gens.append(i)
        frontier = [e]
        while frontier:
            w = frontier.pop()
            for act in acts:
                img = dense_apply(act, w)
                if grow(img):
                    frontier.append(img)
    return gens


def _dense_summand_system(homs_pm, homs_mp, gens, target: Matrix):
    """Every product f o g on the generators as one dense application of f per generator."""
    g_on_gens = [[[row[i] for row in g.data] for i in gens] for g in homs_mp]
    products = [[x for col in cols for x in dense_apply(f, col)]
                for f in homs_pm for cols in g_on_gens]
    rows = target.data
    return products, [row[i] for i in gens for row in rows]


def _dense_generator_maps(actions: list[Matrix], elements: list[dict]) -> list[Matrix]:
    """``_generator_maps`` with every action applied densely, row by row."""
    field, n = actions[0].field, actions[0].nrows
    return [Matrix(field, [list(row) for row in zip(*(dense_apply(act, dense(field, m, n))
                                                      for act in actions))])
            for m in elements]


def _summand_cases(ext):
    """(Hom(P, M) or the generator maps, the second factors, the generators
    they are written on, the target) for both depth-two sides and for T over R."""
    field = ext.A.field
    ts = tensor_square(ext)
    core = t_core(ext)
    M_R = left_module_bimodule(core.R_alg, core.dim, core.lam_R)
    R_R = left_module_bimodule(core.R_alg, core.R_alg.dim, core.R_alg.left_mults)
    a_gens = bimodule_generators(algebra_bimodule(ext, "B", "B"))
    return {
        "right": (ts.left_action, [core.t_basis[g] for g in core.left_gens],
                  bb_endomorphisms(ext), a_gens, unit_tensor(ext, unit_first=True)),
        "left": (ts.right_action, [core.t_basis[g] for g in core.right_gens],
                 bb_endomorphisms(ext), a_gens, unit_tensor(ext, unit_first=False)),
        "T over R": (core.lam_R, [{g: 1} for g in core.left_gens],
                     hom_space(M_R, R_R), core.left_gens, Matrix.identity(field, core.dim)),
    }


@pytest.mark.parametrize("name", sorted(CATALOG_AND_A4))
def test_sparse_d2_kernels_equal_the_dense_construction(name):
    ext = CATALOG_AND_A4[name]()
    field = ext.A.field
    for kind, M in _catalog_bimodules(ext).items():
        assert bimodule_generators(M) == _dense_bimodule_generators(M), (name, kind)
    for kind, (actions, elements, homs_mp, gens, target) in _summand_cases(ext).items():
        homs_pm = _generator_maps(actions, elements)
        assert homs_pm == _dense_generator_maps(actions, elements), (name, kind)
        if not homs_mp:
            continue
        products, rhs = _summand_system(homs_pm, homs_mp, gens, target)
        expected_products, expected_rhs = _dense_summand_system(homs_pm, homs_mp, gens, target)
        assert rhs == sparse(expected_rhs), (name, kind)
        assert len(products) == len(expected_products), (name, kind)
        for got, want in zip(products, expected_products):
            assert all(x for x in got.values()), (name, kind)
            assert [got.get(i, field.zero) for i in range(len(want))] == want, (name, kind)


@pytest.mark.parametrize("name", ["s3-a3", "s3-a3-f5", "field-sqrt2"])
def test_sparse_constructions_hand_over_their_column_view(name):
    """leg_map, Quotient.induced and matrix_of return matrices that already
    carry their column view, equal to the one read back from their rows."""
    ext = build_example(name)
    A = ext.A
    ts = tensor_square(ext)
    g = A.generating_indices()[-1]
    cube = A.structure
    first_leg = kron(A.left_mults[g], Matrix.identity(A.field, A.dim))
    built = [ts.leg_map(A.left_mults[g], first=True),
             ts.leg_map(A.right_mults[g], first=False),
             ts.quot.induced(first_leg),
             ts.matrix_of(A.dim, lambda i, j: A.nonzeros[i][j]),
             ts.matrix_of(A.dim, lambda i, j: sparse(cube[i][j]))]
    for m in built:
        assert m.cols == Matrix(m.field, m.data).cols
    assert built[2] == built[0]
    assert built[3] == built[4]
