from __future__ import annotations

import pytest

from depthtwo.algebras import AlgebraError, SelfCheckError
from depthtwo.bialgebroid import (ModuleDualBasis, WitnessError, _certify,
                                  _check_reconstruction, _delta_from_witness, axiom_audit,
                                  build_T, build_T_quasibase_free,
                                  commutative_flip_check, left_r_projectivity,
                                  r_module_dual_bases, t_core,
                                  triple_tensor_witness)
from depthtwo.bimodules import left_d2_quasibase, right_d2_quasibase
from depthtwo.catalog import build_example, catalog_names
from depthtwo.fields import GF, QQ
from depthtwo.galois import galois_map, ice_matrix, main_theorem_audit, tensor_with_t
from depthtwo.linalg import Matrix, combine

from conftest import CATALOG_AND_A4, unit_vectors


def _bgd(ext):
    rqb = right_d2_quasibase(ext)
    assert rqb is not None
    return build_T(ext, rqb)


@pytest.fixture(scope="module")
def bgd_s3a3(s3a3):
    return _bgd(s3a3)


@pytest.fixture(scope="module")
def bgd_sqrt2(sqrt2):
    return _bgd(sqrt2)


@pytest.fixture(scope="module")
def bgd_trivial(trivial_m2):
    return _bgd(trivial_m2)


# -- construction ---------------------------------------------------------

def test_trivial_extension_gives_center(bgd_trivial):
    core = bgd_trivial.core
    assert core.dim == 1               # T = Z(M2) = scalars
    assert core.R_alg.dim == 1
    assert core.eps.apply(core.unit_T) == core.R_alg.unit
    assert bgd_trivial.Delta.apply(core.unit_T) == \
        core.tt.class_of(core.unit_T, core.unit_T)


def test_sqrt2_gives_full_tensor_algebra(bgd_sqrt2, sqrt2):
    core = bgd_sqrt2.core
    assert core.dim == 4
    assert core.R_alg.dim == 2
    assert core.R.space.dim == sqrt2.A.dim  # R = A


def test_s3_a3_dims(bgd_s3a3):
    core = bgd_s3a3.core
    assert core.dim == 8
    assert core.R_alg.dim == 4
    assert core.tt.dim == bgd_s3a3.witness.q3b.dim


def test_unit_of_t_is_class_of_one_tensor_one(bgd_s3a3, s3a3):
    core = bgd_s3a3.core
    A = s3a3.A
    assert core.lift_T(core.unit_T) == core.ts.class_of(A.unit, A.unit)


# -- axiom audit -------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["bgd_s3a3", "bgd_sqrt2", "bgd_trivial"])
def test_axiom_audit_all_pass(fixture, request):
    bgd = request.getfixturevalue(fixture)
    report = axiom_audit(bgd)
    assert report.all_pass, report.failing()


def test_axiom_names_are_stable(bgd_sqrt2):
    report = axiom_audit(bgd_sqrt2)
    assert list(report.results) == [
        "source_homomorphism", "target_antihomomorphism", "source_target_commute",
        "base_bimodule_compatibility", "counit_unital", "coproduct_unital",
        "counit_law_left", "counit_law_right", "coproduct_right_linear",
        "base_balance", "multiplicativity", "coassociativity"]


def test_corrupted_coproduct_fails_with_witness(bgd_s3a3):
    cols = bgd_s3a3.Delta.cols
    delta = Matrix.from_columns(bgd_s3a3.Delta.field, [cols[1], cols[0], *cols[2:]],
                                nrows=bgd_s3a3.Delta.nrows)   # swap two columns of Delta
    report = axiom_audit(bgd_s3a3.replaced(Delta=delta))
    assert not report.all_pass
    failing = report.failing()
    assert failing
    assert all(report.results[name][1] for name in failing)


# -- witness isomorphisms ------------------------------------------------------

def _dense_tee_product(core, c: int, d: int) -> list:
    """T coordinates of t_c * t_d, with A's products read off dense ``table`` rows."""
    table = core.A.table
    terms = [(c1 * c2, table[p][s], table[t][q])
             for (s, t), c1 in core.t_items[c] for (p, q), c2 in core.t_items[d]]
    return core.t_coords(core.ts.class_of_sum(terms), "product escaped T")


def _dense_restricted_action(core, ambient: Matrix) -> Matrix:
    cols = [core.t_coords(ambient.apply(t), "R-action escaped T") for t in core.t_basis]
    return Matrix.from_columns(core.A.field, cols, nrows=core.dim)


@pytest.mark.parametrize("name", sorted(CATALOG_AND_A4))
def test_t_core_equals_the_dense_construction(name):
    core = t_core(CATALOG_AND_A4[name]())
    for c in range(core.dim):
        for d in range(core.dim):
            expected = _dense_tee_product(core, c, d)
            assert core._tee_product(c, d) == expected == core.T_alg.structure[c][d], name
    for r in range(core.R_alg.dim):
        r_vec = core.incl_R.column(r)
        assert core.lam_R[r] == _dense_restricted_action(
            core, combine(core.ts.left_action, r_vec)), name
        assert core.rho_R[r] == _dense_restricted_action(
            core, combine(core.ts.right_action, r_vec)), name


def test_witness_round_trips(s3a3, bgd_s3a3):
    wit = triple_tensor_witness(s3a3)
    core = bgd_s3a3.core
    assert wit.q3b.dim == core.tt.dim
    assert wit.q4b.dim == wit.ttt.dim


def test_forward_of_coproduct_is_middle_unit(bgd_s3a3, s3a3):
    # W3(Delta(t)) = t^1 (x) 1 (x) t^2 for every basis t
    core = bgd_s3a3.core
    wit = bgd_s3a3.witness
    for c in range(core.dim):
        tvec = [QQ.one if i == c else QQ.zero for i in range(core.dim)]
        assert wit.w3.apply(bgd_s3a3.Delta.apply(tvec)) == \
            wit.sandwich3(tvec, s3a3.A.unit)


def test_image_of_unit_tensor_unit(bgd_sqrt2, sqrt2):
    core = bgd_sqrt2.core
    wit = bgd_sqrt2.witness
    img = wit.w3.apply(core.tt.class_of(core.unit_T, core.unit_T))
    unit_items = [((i, j, k), ci * cj * ck)
                  for i, ci in enumerate(sqrt2.A.unit) if ci
                  for j, cj in enumerate(sqrt2.A.unit) if cj
                  for k, ck in enumerate(sqrt2.A.unit) if ck]
    assert img == wit.q3.project_items(unit_items)


def _dense_forward(wit, power: int) -> Matrix:
    """The forward map written densely: column (c, d[, e]) is the class of
    t_c^1 (x) t_c^2 t_d^1 (x) ... (x) t_last^2, summed over the lift of the source class."""
    core = wit.core
    A = core.A
    source, target = (core.tt, wit.q3) if power == 3 else (wit.ttt, wit.q4)
    cols = []
    for e in unit_vectors(A.field, source.dim):
        acc = [A.field.zero] * target.dim
        for idx, coeff in source.lift_items(e):
            # one pure tensor in A^(x)(power), as {legs: coefficient}
            legs = {(): coeff}
            for c in idx:
                nxt: dict = {}
                for prefix, x in legs.items():
                    for (s, t), y in core.t_lift_items(c):
                        if not prefix:
                            nxt[(s, t)] = nxt.get((s, t), A.field.zero) + x * y
                            continue
                        for k, z in enumerate(A.mul(A.basis_vector(prefix[-1]),
                                                    A.basis_vector(s))):
                            if z:
                                key = prefix[:-1] + (k, t)
                                nxt[key] = nxt.get(key, A.field.zero) + x * y * z
                legs = nxt
            img = target.project_items(list(legs.items()))
            acc = [a + b for a, b in zip(acc, img)]
        cols.append(acc)
    return Matrix.from_columns(A.field, cols, nrows=target.dim)


@pytest.mark.parametrize("fixture", ["s3a3", "s3a3_f5", "sqrt2", "c2_over_k"])
def test_forward_maps_equal_the_dense_reference(fixture, request):
    ext = request.getfixturevalue(fixture)
    wit = _bgd(ext).witness
    assert wit.w3 == _dense_forward(wit, 3)
    assert wit.w4 == _dense_forward(wit, 4)


def _old_ice(core, at):
    # the comparison map as an identity-column loop with dense accumulation
    field = core.A.field
    cols = []
    for e in unit_vectors(field, at.dim):
        acc = [field.zero] * core.ts.dim
        for (k, c), coeff in at.lift_items(e):
            term = core.ts.left_action[k].apply(core.t_basis[c])
            acc = [x + coeff * y for x, y in zip(acc, term)]
        cols.append(acc)
    return Matrix.from_columns(field, cols, nrows=core.ts.dim)


def _old_beta(ext, core, at, rqb):
    # beta(x (x) y) = sum_i x gamma_i(y) (x)_R u_i, one class_of per term
    A = ext.A
    field = A.field
    u_ts = [core.t_coords(u, "u escaped T") for _, u in rqb.pairs]
    cols = []
    for e in unit_vectors(field, core.ts.dim):
        acc = [field.zero] * at.dim
        for (s, t), coeff in core.ts.lift_items(e):
            for (gamma, _), u_t in zip(rqb.pairs, u_ts):
                term = at.class_of(A.mul(A.basis_vector(s), gamma.column(t)), u_t)
                acc = [x + coeff * y for x, y in zip(acc, term)]
        cols.append(acc)
    return Matrix.from_columns(field, cols, nrows=at.dim)


def _old_counit_maps(core):
    # t_c (x) t_d -> eps(t_c) t_d and t_c eps(t_d), summed over identity columns
    field = core.A.field
    m, tt, tvec = core.dim, core.tt, core.T_alg.basis_vector
    e1_cols, e2_cols = [], []
    for e in unit_vectors(field, tt.dim):
        acc1 = [field.zero] * m
        acc2 = [field.zero] * m
        for (c, d), coeff in tt.lift_items(e):
            t1 = combine(core.lam_R, core.eps.column(c)).apply(tvec(d))
            t2 = combine(core.rho_R, core.eps.column(d)).apply(tvec(c))
            acc1 = [x + coeff * y for x, y in zip(acc1, t1)]
            acc2 = [x + coeff * y for x, y in zip(acc2, t2)]
        e1_cols.append(acc1)
        e2_cols.append(acc2)
    return (Matrix.from_columns(field, e1_cols, nrows=m),
            Matrix.from_columns(field, e2_cols, nrows=m))


@pytest.mark.parametrize("fixture", ["s3a3", "s3a3_f5", "sqrt2", "c2_over_k"])
def test_matrix_of_maps_equal_the_identity_column_loop(fixture, request):
    ext = request.getfixturevalue(fixture)
    bgd = _bgd(ext)
    core = bgd.core
    at = tensor_with_t(ext)
    assert ice_matrix(core, at) == _old_ice(core, at)
    assert galois_map(ext, bgd.rqb).beta == _old_beta(ext, core, at, bgd.rqb)
    eps_left = [combine(core.lam_R, core.eps.column(c)) for c in range(core.dim)]
    eps_right = [combine(core.rho_R, core.eps.column(c)) for c in range(core.dim)]
    e1 = core.tt.matrix_of(core.dim, lambda c, d: eps_left[c].column(d))
    e2 = core.tt.matrix_of(core.dim, lambda c, d: eps_right[d].column(c))
    assert (e1, e2) == _old_counit_maps(core)
    eye = Matrix.identity(ext.A.field, core.dim)
    assert e1 @ bgd.Delta == eye and e2 @ bgd.Delta == eye


def test_quasibase_free_construction_matches(s3a3, bgd_s3a3):
    free = build_T_quasibase_free(s3a3)
    assert free.witness is bgd_s3a3.witness
    assert free.rqb is None and bgd_s3a3.rqb is not None
    assert free.Delta == bgd_s3a3.Delta
    assert free.core.eps == bgd_s3a3.core.eps
    assert free.core.s_R == bgd_s3a3.core.s_R
    assert free.core.t_R == bgd_s3a3.core.t_R


# -- one witness per extension -----------------------------------------------------

def test_witness_reads_no_quasibase(monkeypatch):
    import depthtwo.bimodules as bimodules_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("the witness read a quasibase")

    for name in ("right_d2_quasibase", "left_d2_quasibase", "verify_right_quasibase"):
        monkeypatch.setattr(bimodules_mod, name, forbidden)
    ext = build_example("s3-a3")
    free = build_T_quasibase_free(ext)
    assert triple_tensor_witness(ext) is free.witness
    assert free.rqb is None


def test_build_T_and_main_theorem_audit_build_one_witness(monkeypatch):
    import depthtwo.bialgebroid as bialgebroid_mod
    built = []

    class CountingWitness(bialgebroid_mod.TripleTensorWitness):
        __slots__ = ()

        def __init__(self, core):
            built.append(core)
            super().__init__(core)

    monkeypatch.setattr(bialgebroid_mod, "TripleTensorWitness", CountingWitness)
    ext = build_example("s3-a3")
    build_T(ext, right_d2_quasibase(ext))
    assert main_theorem_audit(ext).consistent
    assert len(built) == 1


def _quasibase_inverses(wit, rqb) -> tuple[Matrix, Matrix]:
    """The paper's inverses of the comparison maps, written with a right
    quasibase (gamma_i, u_i):
      triple:    v -> sum_i (v^1 (x) v^2 gamma_i(v^3)) (x)_R u_i,
      quadruple: fold the last leg the same way, then apply the triple inverse;
    one column per basis vector of the B-central power."""
    core = wit.core
    A = core.A
    one = A.field.one
    pairs = core.quasibase_in_T(rqb)

    def fold(items):
        # v^1 (x) ... (x) v^(last-1) gamma(v^last) for each quasibase pair
        for gamma, u_t in pairs:
            folded = [(idx[:-2] + (l,), c * a) for idx, c in items
                      for l, a in enumerate(A.mul(A.basis_vector(idx[-2]),
                                                  gamma.column(idx[-1]))) if a]
            yield folded, u_t

    inv3 = [core.tt.class_of_sum([(one, core.t_coords(core.ts.project_items(f), "left T"), u)
                                  for f, u in fold(wit.q3.lift_items(v))])
            for v in wit.q3b.basis]
    w3_inv = Matrix.from_columns(A.field, inv3, nrows=core.tt.dim)
    inv4 = [wit.ttt.class_of_sum([(one, w3_inv.apply(wit.q3b.coords(wit.q3.project_items(f))),
                                   u)
                                  for f, u in fold(wit.q4.lift_items(v))])
            for v in wit.q4b.basis]
    return w3_inv, Matrix.from_columns(A.field, inv4, nrows=wit.ttt.dim)


def _on_central(fwd: Matrix, target) -> Matrix:
    """A forward map in coordinates of the B-central power it lands in."""
    return Matrix.from_columns(fwd.field, [target.coords(fwd.column(j)) for j in range(fwd.ncols)],
                               nrows=target.dim)


def test_quasibase_inverses_invert_the_witness():
    # the library forms no inverse; the paper's quasibase formulas must
    # invert both comparison maps on every positive example, and the triple
    # one must send t^1 (x) 1 (x) t^2 to Delta(t)
    positive = []
    for name in catalog_names():
        ext = build_example(name)
        rqb = right_d2_quasibase(ext)
        if rqb is None:
            continue
        positive.append(name)
        bgd = build_T(ext, rqb)
        wit, core, field = bgd.witness, bgd.core, ext.A.field
        inv3, inv4 = _quasibase_inverses(wit, rqb)
        for fwd, target, inv in ((wit.w3, wit.q3b, inv3), (wit.w4, wit.q4b, inv4)):
            on_b = _on_central(fwd, target)
            assert inv @ on_b == Matrix.identity(field, fwd.ncols), name
            assert on_b @ inv == Matrix.identity(field, target.dim), name
        for c in range(core.dim):
            image = wit.sandwich3(core.T_alg.basis_vector(c), ext.A.unit)
            assert inv3.apply(wit.q3b.coords(image)) == bgd.Delta.column(c), (name, c)
    assert len(positive) >= 7, positive


def _outside(space) -> list:
    """The first standard basis vector outside a proper subspace."""
    field = space.field
    return next(e for e in unit_vectors(field, space.ambient_dim)
                if not space.contains(e))


@pytest.mark.parametrize("mutate", ["column_outside", "dependent_columns", "larger_target"])
def test_certify_rejects_a_forward_map_that_is_not_an_isomorphism(mutate, s3a3):
    wit = triple_tensor_witness(s3a3)
    cols = [wit.w3.column(j) for j in range(wit.w3.ncols)]
    _certify(wit.w3, wit.q3b, "triple")
    if mutate == "column_outside":
        cols[0] = _outside(wit.q3b)
    elif mutate == "dependent_columns":
        cols.append(cols[0])  # the span is still the target
    else:
        cols = cols[1:]
    with pytest.raises(WitnessError):
        _certify(Matrix.from_columns(wit.w3.field, cols, nrows=wit.w3.nrows), wit.q3b,
                 "triple")


def test_delta_rejects_a_corrupted_sandwich_image(monkeypatch, s3a3):
    import depthtwo.bialgebroid as bialgebroid_mod
    wit = triple_tensor_witness(s3a3)
    core = wit.core
    sandwich3 = bialgebroid_mod.TripleTensorWitness.sandwich3
    stray = _outside(wit.q3b)

    def corrupted(self, tcoords, mid):
        image = sandwich3(self, tcoords, mid)
        return [x + y for x, y in zip(image, stray)] if tcoords[-1] else image

    monkeypatch.setattr(bialgebroid_mod.TripleTensorWitness, "sandwich3", corrupted)
    with pytest.raises(WitnessError, match="no preimage"):
        _delta_from_witness(core, wit)


def test_delta_check_catches_a_wrong_preimage(monkeypatch, s3a3):
    import depthtwo.bialgebroid as bialgebroid_mod
    wit = triple_tensor_witness(s3a3)
    solve = bialgebroid_mod.solve_in_span

    def off_by_one(target, generators, field):
        coeffs = solve(target, generators, field)
        return [coeffs[0] + field.one] + coeffs[1:]

    monkeypatch.setattr(bialgebroid_mod, "solve_in_span", off_by_one)
    with pytest.raises(WitnessError, match="W3 o Delta"):
        _delta_from_witness(wit.core, wit)


# -- projectivity and dual bases ------------------------------------------------

def test_left_projectivity_over_r(s3a3):
    db = left_r_projectivity(t_core(s3a3))
    assert db is not None and len(db) >= 1


def test_dual_bases_trivial_extension(trivial_m2):
    lqb = left_d2_quasibase(trivial_m2)
    rqb = right_d2_quasibase(trivial_m2)
    right_db, left_db = r_module_dual_bases(trivial_m2, lqb, rqb)
    core = t_core(trivial_m2)
    assert len(right_db) == 1
    assert right_db.elements == [core.unit_T]
    assert right_db.functionals == [core.eps]


def test_dual_bases_s3_a3(s3a3):
    lqb = left_d2_quasibase(s3a3)
    rqb = right_d2_quasibase(s3a3)
    right_db, left_db = r_module_dual_bases(s3a3, lqb, rqb)
    assert len(right_db) == len(lqb)
    assert len(left_db) == len(rqb)


def test_dual_bases_free_over_ground_field(c2_over_k):
    # B = k: T is free over R = A and the dual system is biorthogonal
    lqb = left_d2_quasibase(c2_over_k)
    rqb = right_d2_quasibase(c2_over_k)
    _, left_db = r_module_dual_bases(c2_over_k, lqb, rqb)
    core = t_core(c2_over_k)
    n = c2_over_k.A.dim
    assert len(left_db) == n
    elems = Matrix.from_columns(QQ, left_db.elements, nrows=core.dim)
    assert elems.rank() == n
    for i, phi in enumerate(left_db.functionals):
        for j, elem in enumerate(left_db.elements):
            expected = core.R_alg.unit if i == j else [QQ.zero] * core.R_alg.dim
            assert phi.apply(elem) == expected


def _reconstructs(core, actions, db) -> bool:
    """The identity-column loop: x = sum_i combine(actions, phi_i(x)) m_i for every e_c."""
    field = core.A.field
    for x in unit_vectors(field, core.dim):
        acc = [field.zero] * core.dim
        for m_i, phi in zip(db.elements, db.functionals):
            term = combine(actions, phi.apply(x)).apply(m_i)
            acc = [a + b for a, b in zip(acc, term)]
        if acc != x:
            return False
    return True


def _variants(db):
    """The dual basis and three perturbations of it."""
    elems, funcs = db.elements, db.functionals
    yield db
    yield ModuleDualBasis(elems[:-1], funcs[:-1])
    yield ModuleDualBasis(elems, [funcs[0].scaled(funcs[0].field.of(2))] + funcs[1:])
    yield ModuleDualBasis(elems[::-1], funcs)


@pytest.mark.parametrize("fixture", ["s3a3", "trivial_m2", "c2_over_k", "sqrt2", "sqrt2_f5"])
def test_reconstruction_check_agrees_with_the_identity_column_loop(fixture, request):
    ext = request.getfixturevalue(fixture)
    right_db, left_db = r_module_dual_bases(ext, left_d2_quasibase(ext), right_d2_quasibase(ext))
    core = t_core(ext)
    cases = [(core.rho_R, right_db), (core.lam_R, left_db)]
    projective = left_r_projectivity(core)
    if projective is not None:
        cases.append((core.lam_R, projective))
    rejected = 0
    for actions, db in cases:
        for k, variant in enumerate(_variants(db)):
            if _reconstructs(core, actions, variant):
                _check_reconstruction(core, actions, variant, "reconstruction failed")
                continue
            assert k, "the computed dual basis must reconstruct"
            rejected += 1
            with pytest.raises(SelfCheckError, match="^reconstruction failed$"):
                _check_reconstruction(core, actions, variant, "reconstruction failed")
    assert rejected


# -- commutative specialization ----------------------------------------------------

@pytest.mark.parametrize("name", ["sqrt2", "sqrt2_f5"])
def test_flip_check_passes(name, request):
    ext = request.getfixturevalue(name)
    report = commutative_flip_check(ext)
    assert report.all_pass, report.to_json()


def test_flip_check_rejects_noncommutative(s3a3):
    with pytest.raises(AlgebraError, match="commutative"):
        commutative_flip_check(s3a3)


def test_flip_check_f5_field_object(sqrt2_f5):
    assert sqrt2_f5.A.field == GF(5)
