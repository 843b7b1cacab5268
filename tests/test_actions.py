from __future__ import annotations

import pytest

from depthtwo.actions import (LeftModule, MeasuredEndos, action_invariants, b_endomorphisms,
                              t_action)
from depthtwo.algebras import AlgebraError
from depthtwo.bialgebroid import build_T
from depthtwo.bimodules import (hom_space, left_module_bimodule,
                                right_d2_quasibase)
from depthtwo.fields import QQ
from depthtwo.linalg import Matrix, Subspace, combine, solve_in_span, sum_nonzeros

from conftest import kron, sparse


@pytest.fixture(scope="module")
def s3_setup(s3a3):
    rqb = right_d2_quasibase(s3a3)
    bgd = build_T(s3a3, rqb)
    M = LeftModule.regular(s3a3.A)
    me = t_action(s3a3, M, bgd=bgd)
    return s3a3, rqb, bgd, M, me


def twisted_sqrt2_module(ext) -> LeftModule:
    """The conjugate 2-dimensional module: x acts as multiplication by -x."""
    field = ext.A.field
    two = field.of(2)
    act1 = Matrix.identity(field, 2)
    act_x = Matrix(field, [[field.zero, -two], [-field.one, field.zero]])
    return LeftModule(ext.A, 2, [act1, act_x], validate=True)


def test_left_module_validation_rejects_bad_action(sqrt2):
    bad = [Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 2)]
    with pytest.raises(AlgebraError):
        LeftModule(sqrt2.A, 2, bad, validate=True)


def test_twisted_module_differs_from_regular(sqrt2):
    M = twisted_sqrt2_module(sqrt2)
    regular = LeftModule.regular(sqrt2.A)
    assert M.action[1] != regular.action[1]


def test_action_unital(s3_setup):
    _, _, bgd, _, me = s3_setup
    assert combine(me.action, bgd.core.unit_T) == Matrix.identity(QQ, me.dim)


def test_endomorphism_ring_dimension(s3_setup):
    ext, _, _, M, me = s3_setup
    # A is free of rank 2 over B, so End of A over B has dimension 4*dim B
    assert me.dim == 12
    assert len(b_endomorphisms(ext, M)) == 12


def test_left_multiplication_by_centralizer_is_t_stable(s3_setup):
    # lambda(r) . t = lambda(r . t), where r . t = t^1 r t^2 on R
    ext, rqb, bgd, M, me = s3_setup
    core = bgd.core
    A = ext.A
    for c in range(core.dim):
        tvec = {c: QQ.one}
        for r_vec in core.incl_R.cols:
            lam_r = combine(A.left_mults, r_vec)
            lhs = combine(me.endo_basis,
                          combine(me.action, tvec).image(me.endo_coords(lam_r)))
            moved = sum_nonzeros(((x, A.mul(A.mul(A.basis_vector(s), r_vec),
                                            A.basis_vector(t)).items())
                                  for (s, t), x in core.t_items[c]), QQ.char)
            assert lhs == combine(A.left_mults, moved)


def test_invariants_equal_right_multiplications(s3_setup):
    # for M = A the invariants are exactly rho(A)
    ext, _, _, M, me = s3_setup
    inv = action_invariants(me)
    rho = Subspace.span(QQ, 36, [ext.A.right_mults[i].vec() for i in range(6)])
    assert inv == rho


def test_invariants_trivial_extension(trivial_m2):
    rqb = right_d2_quasibase(trivial_m2)
    bgd = build_T(trivial_m2, rqb)
    M = LeftModule.regular(trivial_m2.A)
    me = t_action(trivial_m2, M, bgd=bgd)
    inv = action_invariants(me)
    # over B = A every B-endomorphism is already A-linear
    endo_span = Subspace.span(QQ, 16, [f.vec() for f in me.endo_basis])
    assert inv == endo_span


def test_invariants_ground_field_twisted_module(sqrt2):
    rqb = right_d2_quasibase(sqrt2)
    bgd = build_T(sqrt2, rqb)
    M = twisted_sqrt2_module(sqrt2)
    me = t_action(sqrt2, M, bgd=bgd)
    inv = action_invariants(me)
    a_bm = left_module_bimodule(sqrt2.A, M.dim, M.action)
    independent = Subspace.span(QQ, 4, [f.vec() for f in hom_space(a_bm, a_bm)])
    assert inv == independent


def test_the_unit_and_counit_of_t_act_on_r(s3_setup):
    # r . t = t^1 r t^2 on R: 1_T fixes every r, and 1_R . t = eps(t)
    ext, rqb, bgd, _, _ = s3_setup
    core = bgd.core
    A = ext.A

    def act(tvec, r_vec):
        return sum_nonzeros(((y * x, A.mul(A.mul(A.basis_vector(s), r_vec),
                                             A.basis_vector(t)).items())
                             for c, y in tvec.items() for (s, t), x in core.t_items[c]), QQ.char)

    assert core.eps.image(core.unit_T) == core.R_alg.unit
    for r_vec in core.incl_R.cols:
        assert act(core.unit_T, r_vec) == r_vec
    for c in range(core.dim):
        assert act({c: QQ.one}, A.unit) == core.incl_R.image(core.eps.cols[c])


def test_action_identified_with_composition(s3_setup):
    # f . t corresponds to composing the transported endomorphisms on the
    # tensor square: hat(f . t) = hat(f) o F_t
    ext, rqb, bgd, M, me = s3_setup
    core = bgd.core
    ts = core.ts
    A = ext.A

    def hat(f: Matrix) -> Matrix:
        cols = []
        for w in range(ts.dim):
            cols.append(sum_nonzeros(((c, A.mul(A.basis_vector(s), f.cols[t]).items())
                                      for (s, t), c in ts.lift_items({w: QQ.one})), QQ.char))
        return Matrix.from_columns(QQ, cols, nrows=A.dim)

    def f_t(c: int) -> Matrix:
        out = Matrix.zeros(QQ, ts.dim, ts.dim)
        for (s, t), coeff in core.t_items[c]:
            amb = kron(A.right_mults[s], A.left_mults[t])
            out = out + ts.quot.induced(amb).scaled(coeff)
        return out

    for a in range(me.dim):
        f = me.endo_basis[a]
        for c in range(core.dim):
            tvec = {c: QQ.one}
            acted = combine(me.endo_basis,
                            combine(me.action, tvec).image(me.endo_coords(f)))
            assert hat(acted) == hat(f) @ f_t(c)


def test_endo_coords_read_off_the_free_positions(s3_setup):
    # coordinates come from the entries at each basis map's last nonzero,
    # and equal those of a full solve against the vectorized basis
    ext, _, _, M, me = s3_setup
    vecs = [f.vec() for f in me.endo_basis]
    for k in range(me.dim):
        coeffs = sparse([QQ.of((3 * a + k) % 5 - 2) for a in range(me.dim)])
        endo = combine(me.endo_basis, coeffs)
        assert me.endo_coords(endo) == coeffs == solve_in_span(endo.vec(), vecs, QQ)
    assert me.endo_coords(Matrix.zeros(QQ, M.dim, M.dim)) == {}


def test_endo_coords_reject_a_map_that_is_not_b_linear(s3_setup):
    ext, _, _, M, me = s3_setup
    # swapping two elements of different B-cosets is k-linear but not B-linear
    perm = [3, 1, 2, 0, *range(4, M.dim)]
    swap = Matrix.from_columns(QQ, [{perm[j]: QQ.one} for j in range(M.dim)], nrows=M.dim)
    assert solve_in_span(swap.vec(), [f.vec() for f in me.endo_basis], QQ) is None
    with pytest.raises(AlgebraError, match="not B-linear"):
        me.endo_coords(swap)


def test_endo_coords_on_a_dense_basis(s3a3):
    # the regular module conjugated by a dense matrix: its canonical
    # B-endomorphisms overlap in support, so only the last nonzero of each
    # basis map is free of the others
    n = s3a3.A.dim
    upper = Matrix(QQ, [[QQ.of(1 if j == i else (-1) ** j if j > i else 0) for j in range(n)]
                        for i in range(n)])
    lower = Matrix(QQ, [[QQ.of(1 if j == i else 1 if j == i - 1 else 0) for j in range(n)]
                        for i in range(n)])
    p = upper @ lower
    p_inv = p.inverse()
    M = LeftModule(s3a3.A, n, [p_inv @ a @ p for a in s3a3.A.left_mults])
    endos = b_endomorphisms(s3a3, M)
    me = MeasuredEndos(None, M, endos, [])
    vecs = [f.vec() for f in endos]
    for k in range(len(endos)):
        coeffs = sparse([QQ.of((2 * a + k) % 7 - 3) for a in range(len(endos))])
        endo = combine(endos, coeffs)
        assert me.endo_coords(endo) == coeffs == solve_in_span(endo.vec(), vecs, QQ)


def test_the_actions_default_to_the_extension_bialgebroid(s3a3, s3_transposition):
    M = LeftModule.regular(s3a3.A)
    bgd = build_T(s3a3, right_d2_quasibase(s3a3))
    assert t_action(s3a3, M).action == t_action(s3a3, M, bgd=bgd).action
    # with no right quasibase there is no bialgebroid to default to
    M = LeftModule.regular(s3_transposition.A)
    with pytest.raises(AlgebraError) as err:
        t_action(s3_transposition, M)
    assert str(err.value) == "build_T needs a right quasibase"
