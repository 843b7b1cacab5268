from __future__ import annotations

import io
import json

import pytest

from depthtwo.algebras import AlgebraError, SelfCheckError
from depthtwo.bialgebroid import (TCore, TripleTensorWitness, WitnessError, _certify,
                                  _delta_from_witness, axiom_audit, build_T,
                                  build_T_quasibase_free, commutative_flip_check,
                                  left_r_projectivity, t_core)
from depthtwo.bimodules import (DualBasis, balanced_tensor, bimodule_generators,
                                coproduct_summand_test, left_d2_quasibase, left_module_bimodule,
                                right_d2_quasibase, split_projectivity_audit, tensor_power)
from depthtwo.catalog import build_example, catalog_names
from depthtwo.cli import main
from depthtwo.fields import GF, QQ
from depthtwo.galois import (comodule_algebra_audit, d2_iff_corollary_audit, galois_data,
                             galois_map, ice_matrix, main_theorem_audit, tensor_with_t)
from depthtwo.jsonio import example_to_json
from depthtwo.linalg import Matrix, combine, sum_nonzeros

from conftest import CATALOG_AND_A4, CATALOG_AND_GROUPS, dense_s3a3, sparse, unit_vectors


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
    assert core.eps.image(core.unit_T) == core.R_alg.unit
    assert bgd_trivial.Delta.image(core.unit_T) == \
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
    lifted = sum_nonzeros(((x, core.t_basis[c].items()) for c, x in core.unit_T.items()),
                          A.field.char)
    assert lifted == core.ts.class_of(A.unit, A.unit)


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

def _dense_tee_product(core, c: int, d: int) -> dict:
    """T coordinates of t_c * t_d, with A's products read off the dense structure cube."""
    cube = core.A.structure
    terms = [(c1 * c2, sparse(cube[p][s]), sparse(cube[t][q]))
             for (s, t), c1 in core.t_items[c] for (p, q), c2 in core.t_items[d]]
    return core.t_coords(core.ts.class_of_sum(terms), "product escaped T")


def _dense_restricted_action(core, ambient: Matrix) -> Matrix:
    cols = [core.t_coords(ambient.image(t), "R-action escaped T") for t in core.t_basis]
    return Matrix.from_columns(core.A.field, cols, nrows=core.dim)


@pytest.mark.parametrize("name", sorted(CATALOG_AND_A4))
def test_t_core_equals_the_dense_construction(name):
    core = t_core(CATALOG_AND_A4[name]())
    for c in range(core.dim):
        for d in range(core.dim):
            expected = _dense_tee_product(core, c, d)
            assert core._tee_product(c, d) == expected == core.T_alg.nonzeros[c][d], name
            assert sparse(core.T_alg.structure[c][d]) == expected, name
    for r in range(core.R_alg.dim):
        r_vec = core.incl_R.cols[r]
        assert core.lam_R[r] == _dense_restricted_action(
            core, combine(core.ts.left_action, r_vec)), name
        assert core.rho_R[r] == _dense_restricted_action(
            core, combine(core.ts.right_action, r_vec)), name


def test_witness_round_trips(s3a3, bgd_s3a3):
    wit = build_T_quasibase_free(s3a3).witness
    core = bgd_s3a3.core
    assert wit.q3b.dim == core.tt.dim
    assert wit.q4b.dim == wit.ttt.dim


def test_forward_of_coproduct_is_middle_unit(bgd_s3a3, s3a3):
    # W3(Delta(t)) = t^1 (x) 1 (x) t^2 for every basis t
    core = bgd_s3a3.core
    wit = bgd_s3a3.witness
    for c in range(core.dim):
        tvec = {c: QQ.one}
        assert wit.w3.image(bgd_s3a3.Delta.image(tvec)) == \
            wit.sandwich3(tvec, s3a3.A.unit)


def test_image_of_unit_tensor_unit(bgd_sqrt2, sqrt2):
    core = bgd_sqrt2.core
    wit = bgd_sqrt2.witness
    img = wit.w3.image(core.tt.class_of(core.unit_T, core.unit_T))
    unit = sqrt2.A.unit.items()
    unit_items = [((i, j, k), ci * cj * ck)
                  for i, ci in unit for j, cj in unit for k, ck in unit]
    assert img == wit.q3.reduce_items(unit_items)


def _dense_product(wit, target, idx: tuple) -> dict:
    """Coordinates in target of t_c^1 (x) t_c^2 t_d^1 (x) ... (x) t_last^2 for
    the T indices c, d, ... in idx, every lift multiplied out."""
    core = wit.core
    A = core.A
    # one pure tensor in A^(x)(len(idx) + 1), as {legs: coefficient}
    legs = {(): 1}
    for c in idx:
        nxt: dict = {}
        for prefix, x in legs.items():
            for (s, t), y in core.t_items[c]:
                if not prefix:
                    nxt[(s, t)] = nxt.get((s, t), 0) + x * y
                    continue
                for k, z in A.mul(A.basis_vector(prefix[-1]), A.basis_vector(s)).items():
                    key = prefix[:-1] + (k, t)
                    nxt[key] = nxt.get(key, 0) + x * y * z
        legs = nxt
    return target.reduce_items(list(legs.items()))


def _dense_forward(wit, power: int) -> Matrix:
    """The forward map written densely: column (c, d[, e]) is the class of
    t_c^1 (x) t_c^2 t_d^1 (x) ... (x) t_last^2, summed over the lift of the source class."""
    field = wit.core.A.field
    source, target = (wit.core.tt, wit.q3) if power == 3 else (wit.ttt, wit.q4)
    cols = [sum_nonzeros(((coeff, _dense_product(wit, target, idx).items())
                          for idx, coeff in source.lift_items(e)), field.char)
            for e in unit_vectors(field, source.dim)]
    return Matrix.from_columns(field, cols, nrows=target.dim)


def _ext(fixture, request):
    return dense_s3a3() if fixture == "dense_s3a3" else request.getfixturevalue(fixture)


# dense_s3a3 has A on a dense basis, where the lifts of T's basis have many items
@pytest.mark.parametrize("fixture", ["s3a3", "s3a3_f5", "sqrt2", "c2_over_k", "dense_s3a3"])
def test_forward_maps_equal_the_dense_reference(fixture, request):
    wit = _bgd(_ext(fixture, request)).witness
    assert wit.w3 == _dense_forward(wit, 3)
    assert wit.w4 == _dense_forward(wit, 4)


@pytest.mark.parametrize("fixture", ["s3a3", "s3a3_f5", "sqrt2", "c2_over_k", "dense_s3a3"])
def test_forward3_equals_the_dense_reference_on_every_pair(fixture, request):
    # the comodule audit reads W3(t_c (x) t_d) on pairs outside tt's free columns
    wit = _bgd(_ext(fixture, request)).witness
    m = wit.core.dim
    for c in range(m):
        for d in range(m):
            assert (wit.append(wit.q3, wit.core.ts, wit.core.t_basis[c], d)
                    == _dense_product(wit, wit.q3, (c, d))), (c, d)


def test_a_corrupted_triple_right_action_fails_the_quadruple_certificate(monkeypatch):
    # W4 appends t_e through the triple power's realized right action; with
    # two of its matrices swapped, _certify must reject the quadruple map
    ext = build_example("s3-a3")
    q3 = tensor_power(ext, 3)
    right = list(q3.right_action)
    assert right[0] != right[1]
    right[0], right[1] = right[1], right[0]
    monkeypatch.setattr(q3, "_right", right)
    with pytest.raises(WitnessError, match="quadruple"):
        build_T_quasibase_free(ext)


def _old_ice(core, at):
    # the comparison map as an identity-column loop with dense accumulation
    field = core.A.field
    cols = []
    for e in unit_vectors(field, at.dim):
        cols.append(sum_nonzeros(((coeff, core.ts.left_action[k].image(core.t_basis[c]).items())
                                  for (k, c), coeff in at.lift_items(e)), field.char))
    return Matrix.from_columns(field, cols, nrows=core.ts.dim)


def _old_beta(ext, core, at, rqb):
    # beta(x (x) y) = sum_i x gamma_i(y) (x)_R u_i, one class_of per term
    A = ext.A
    field = A.field
    u_ts = [core.t_coords(u, "u escaped T") for _, u in rqb.pairs]
    cols = []
    for e in unit_vectors(field, core.ts.dim):
        cols.append(sum_nonzeros(
            ((coeff, at.class_of(A.mul(A.basis_vector(s), gamma.cols[t]), u_t).items())
             for (s, t), coeff in core.ts.lift_items(e)
             for (gamma, _), u_t in zip(rqb.pairs, u_ts)), field.char))
    return Matrix.from_columns(field, cols, nrows=at.dim)


def _old_counit_maps(core):
    # t_c (x) t_d -> eps(t_c) t_d and t_c eps(t_d), summed over identity columns
    field = core.A.field
    m, tt, tvec = core.dim, core.tt, core.T_alg.basis_vector
    e1_cols, e2_cols = [], []
    for e in unit_vectors(field, tt.dim):
        items = tt.lift_items(e)
        e1_cols.append(sum_nonzeros(
            ((coeff, combine(core.lam_R, core.eps.cols[c]).image(tvec(d)).items())
             for (c, d), coeff in items), field.char))
        e2_cols.append(sum_nonzeros(
            ((coeff, combine(core.rho_R, core.eps.cols[d]).image(tvec(c)).items())
             for (c, d), coeff in items), field.char))
    return (Matrix.from_columns(field, e1_cols, nrows=m),
            Matrix.from_columns(field, e2_cols, nrows=m))


@pytest.mark.parametrize("fixture", ["s3a3", "s3a3_f5", "sqrt2", "c2_over_k"])
def test_matrix_of_maps_equal_the_identity_column_loop(fixture, request):
    ext = request.getfixturevalue(fixture)
    bgd = _bgd(ext)
    core = bgd.core
    at = tensor_with_t(ext)
    assert ice_matrix(core, at) == _old_ice(core, at)
    rqb = right_d2_quasibase(ext)
    assert galois_map(ext, rqb).beta == _old_beta(ext, core, at, rqb)
    eps_left = [combine(core.lam_R, col) for col in core.eps.cols]
    eps_right = [combine(core.rho_R, col) for col in core.eps.cols]
    e1 = core.tt.matrix_of(core.dim, lambda c, d: eps_left[c].cols[d])
    e2 = core.tt.matrix_of(core.dim, lambda c, d: eps_right[d].cols[c])
    assert (e1, e2) == _old_counit_maps(core)
    eye = Matrix.identity(ext.A.field, core.dim)
    assert e1 @ bgd.Delta == eye and e2 @ bgd.Delta == eye


def test_quasibase_free_construction_matches(s3a3, bgd_s3a3):
    # build_T verifies the quasibase and returns the extension's one bialgebroid
    free = build_T_quasibase_free(s3a3)
    assert bgd_s3a3 is free
    assert build_T(s3a3, right_d2_quasibase(s3a3)) is free


# -- one witness per extension -----------------------------------------------------

def test_witness_reads_no_quasibase(monkeypatch):
    import depthtwo.bimodules as bimodules_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("the witness read a quasibase")

    for name in ("right_d2_quasibase", "left_d2_quasibase", "verify_quasibase"):
        monkeypatch.setattr(bimodules_mod, name, forbidden)
    ext = build_example("s3-a3")
    free = build_T_quasibase_free(ext)
    assert build_T_quasibase_free(ext).witness is free.witness


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


def _count_tee_products(monkeypatch) -> list:
    """Patch TCore._tee_product to record each call; the list of calls."""
    calls = []
    product = TCore._tee_product

    def counted(core, c, d):
        calls.append((c, d))
        return product(core, c, d)

    monkeypatch.setattr(TCore, "_tee_product", counted)
    return calls


@pytest.mark.parametrize("name", catalog_names())
def test_the_depth_two_path_builds_no_product_of_t(name, monkeypatch):
    # both decisions, the comparison map's domain and the d2 and analyze
    # commands read T only as an R-bimodule
    calls = _count_tee_products(monkeypatch)
    ext = build_example(name)
    right_d2_quasibase(ext)
    left_d2_quasibase(ext)
    assert d2_iff_corollary_audit(ext).agree
    tensor_with_t(ext)
    doc = json.dumps(example_to_json(name))
    for command in ("d2", "analyze"):
        assert main([command, doc, "--json"], out=io.StringIO()) == 0
    assert calls == []


@pytest.mark.parametrize("name", catalog_names())
def test_the_depth_two_path_builds_no_t_tensor_t(name, monkeypatch):
    # both quasibases build the core and read its R-generators; T (x)_R T is
    # read by the witness and the axiom audit alone
    reads = []
    tt = TCore.tt
    monkeypatch.setattr(TCore, "tt", property(lambda core: reads.append(core) or tt.fget(core)))
    ext = build_example(name)
    right_d2_quasibase(ext)
    left_d2_quasibase(ext)
    assert d2_iff_corollary_audit(ext).agree
    assert main(["d2", json.dumps(example_to_json(name)), "--json"], out=io.StringIO()) == 0
    assert reads == [] and t_core(ext)._tt is None
    built = t_core(ext).tt
    assert t_core(ext).tt is built and t_core(ext).replaced().tt is built


def test_replaced_swaps_t_tensor_t_without_building_it():
    core = t_core(build_example("s3-a3"))
    stand_in = balanced_tensor(core.r_bimodule(), core.r_bimodule())
    clone = core.replaced(tt=stand_in)
    assert clone.tt is stand_in and core._tt is None
    assert core.tt is not stand_in and core.tt.dim == stand_in.dim


def test_the_algebra_of_t_is_built_once_per_extension(monkeypatch):
    calls = _count_tee_products(monkeypatch)
    ext = build_example("s3-a3")
    rqb = right_d2_quasibase(ext)
    bgd = build_T(ext, rqb)
    assert axiom_audit(bgd).all_pass
    data = galois_data(ext, rqb)
    assert comodule_algebra_audit(ext, data.delta, bgd).all_pass
    assert main_theorem_audit(ext).consistent
    assert len(calls) == bgd.core.dim ** 2


def test_replacing_a_field_before_any_algebra_read_keeps_the_others(monkeypatch):
    calls = _count_tee_products(monkeypatch)
    core = t_core(build_example("s3-a3"))
    assert calls == []
    bad = Matrix.from_columns(core.A.field, [{} for _ in range(core.dim)],
                              nrows=core.R_alg.dim)
    clone = core.replaced(eps=bad)
    assert clone.eps is bad and core.eps is not bad
    for name in ("T_alg", "unit_T", "s_R", "t_R"):
        assert getattr(clone, name) is getattr(core, name), name
    assert len(calls) == core.dim ** 2


def test_replaced_rejects_a_name_that_is_no_field():
    # a misspelt field would otherwise audit the unmutated structure
    ext = build_example("s3-a3")
    with pytest.raises(TypeError, match="'epsilon'"):
        t_core(ext).replaced(epsilon=None).eps
    with pytest.raises(TypeError, match="'Delt'"):
        build_T(ext, right_d2_quasibase(ext)).replaced(Delt=None).Delta


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
                      for l, a in A.mul(A.basis_vector(idx[-2]), gamma.cols[idx[-1]]).items()]
            yield folded, u_t

    inv3 = [core.tt.class_of_sum([(one, core.t_coords(core.ts.reduce_items(f), "left T"), u)
                                  for f, u in fold(wit.q3.lift_items(v))])
            for v in wit.q3b.basis]
    w3_inv = Matrix.from_columns(A.field, inv3, nrows=core.tt.dim)
    inv4 = [wit.ttt.class_of_sum([(one, w3_inv.image(wit.q3b.coords(wit.q3.reduce_items(f))),
                                   u)
                                  for f, u in fold(wit.q4.lift_items(v))])
            for v in wit.q4b.basis]
    return w3_inv, Matrix.from_columns(A.field, inv4, nrows=wit.ttt.dim)


def _on_central(fwd: Matrix, target) -> Matrix:
    """A forward map in coordinates of the B-central power it lands in."""
    return Matrix.from_columns(fwd.field, [target.coords(col) for col in fwd.cols],
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
            assert inv3.image(wit.q3b.coords(image)) == bgd.Delta.cols[c], (name, c)
    assert len(positive) >= 7, positive


def _outside(space) -> dict:
    """The first standard basis vector outside a proper subspace."""
    field = space.field
    return next(e for e in unit_vectors(field, space.ambient_dim)
                if not space.contains(e))


@pytest.mark.parametrize("mutate", ["column_outside", "dependent_columns", "larger_target"])
def test_certify_rejects_a_forward_map_that_is_not_an_isomorphism(mutate, s3a3):
    wit = build_T_quasibase_free(s3a3).witness
    cols = list(wit.w3.cols)
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
    wit = build_T_quasibase_free(s3a3).witness
    core = wit.core
    sandwich3 = bialgebroid_mod.TripleTensorWitness.sandwich3
    stray = _outside(wit.q3b)

    def corrupted(self, tcoords, mid):
        image = sandwich3(self, tcoords, mid)
        if core.dim - 1 not in tcoords:
            return image
        return sum_nonzeros(((QQ.one, image.items()), (QQ.one, stray.items())), QQ.char)

    monkeypatch.setattr(bialgebroid_mod.TripleTensorWitness, "sandwich3", corrupted)
    with pytest.raises(WitnessError, match="no preimage"):
        _delta_from_witness(core, wit)


def test_delta_check_catches_a_wrong_preimage(monkeypatch, s3a3):
    import depthtwo.bialgebroid as bialgebroid_mod
    wit = build_T_quasibase_free(s3a3).witness
    solve = bialgebroid_mod.solve_in_span

    def off_by_one(target, generators, field):
        coeffs = solve(target, generators, field)
        return {**coeffs, 0: coeffs.get(0, field.zero) + field.one}

    monkeypatch.setattr(bialgebroid_mod, "solve_in_span", off_by_one)
    with pytest.raises(WitnessError, match="W3 o Delta"):
        _delta_from_witness(wit.core, wit)


# -- projectivity and dual bases ------------------------------------------------

def test_left_projectivity_over_r(s3a3):
    db = left_r_projectivity(s3a3)
    assert db is not None and len(db) >= 1


def test_left_projectivity_trivial_extension(trivial_m2):
    # A = B: T = R is free of rank one, on 1_T, with eps as its functional
    core = t_core(trivial_m2)
    db = left_r_projectivity(trivial_m2)
    assert db.elements == [core.unit_T]
    assert db.functionals == [core.eps]


def test_left_projectivity_free_over_ground_field(c2_over_k):
    # B = k: T is free over R = A and the dual basis is biorthogonal
    core = t_core(c2_over_k)
    db = left_r_projectivity(c2_over_k)
    n = c2_over_k.A.dim
    assert len(db) == n
    assert Matrix.from_columns(QQ, db.elements, nrows=core.dim).rank() == n
    for i, phi in enumerate(db.functionals):
        for j, elem in enumerate(db.elements):
            assert phi.image(elem) == (core.R_alg.unit if i == j else {})


def test_the_projectivity_functionals_are_left_r_linear():
    # phi_j lies in Hom_R(T, R): phi_j(r . t) = r phi_j(t) on a basis of R
    for name in catalog_names():
        ext = build_example(name)
        core = t_core(ext)
        db = left_r_projectivity(ext)
        assert db is not None, name
        for phi in db.functionals:
            for lam, r_mult in zip(core.lam_R, core.R_alg.left_mults):
                assert phi @ lam == r_mult @ phi, name


PROJECTIVITY_CASES = CATALOG_AND_GROUPS


@pytest.mark.parametrize("name", sorted(PROJECTIVITY_CASES))
def test_dual_basis_verdict_equals_the_summand_test(name):
    ext = PROJECTIVITY_CASES[name]()
    core = t_core(ext)
    R = core.R_alg
    T_over_R = left_module_bimodule(R, core.dim, core.lam_R)
    summand = coproduct_summand_test(T_over_R, left_module_bimodule(R, R.dim, R.left_mults))
    db = left_r_projectivity(ext)
    assert (db is not None) == (summand is not None), name
    if db is not None:
        # one element per R-generator, each the generator itself
        assert db.elements == [{g: 1} for g in bimodule_generators(T_over_R)], name
        db.check(core.lam_R, "reconstruction failed")
        assert left_r_projectivity(ext) is db


def test_a4_over_c3_in_characteristic_two_is_not_projective():
    ext = PROJECTIVITY_CASES["A4>C3 over F_2"]()
    assert left_r_projectivity(ext) is None
    assert d2_iff_corollary_audit(ext).rt_projective is False


@pytest.mark.parametrize("name", ["s3-a3", "s3-a3-f5", "field-sqrt2", "c2-over-k-f3"])
def test_a_corrupted_dual_basis_functional_fails_the_check(name):
    ext = build_example(name)
    core = t_core(ext)
    db = left_r_projectivity(ext)
    (g,), phi = db.elements[0], db.functionals[0]
    # phi_0 + (e_g -> 1_R): the reconstruction of e_g gains m_0 = e_g
    bump = Matrix.from_columns(ext.A.field, [core.R_alg.unit if c == g else {}
                                             for c in range(core.dim)], nrows=core.R_alg.dim)
    corrupted = DualBasis(db.elements, [phi + bump, *db.functionals[1:]])
    with pytest.raises(SelfCheckError, match="^reconstruction failed$"):
        corrupted.check(core.lam_R, "reconstruction failed")


@pytest.mark.parametrize("name", catalog_names())
def test_dual_basis_triple_tensor_has_the_sylvester_dimension(name):
    ext = build_example(name)
    if right_d2_quasibase(ext) is None:
        return
    wit = build_T_quasibase_free(ext).witness
    core = wit.core
    assert wit.ttt.dim == balanced_tensor(core.tt, core.r_bimodule()).dim == wit.q4b.dim


@pytest.mark.parametrize("fixture", ["s3a3", "s3a3_f5", "c2_over_k", "dense_s3a3"])
def test_dual_basis_triple_tensor_is_balanced_and_lifts_to_itself(fixture, request):
    wit = _bgd(_ext(fixture, request)).witness
    X, tt, T = wit.ttt, wit.core.tt, wit.core.r_bimodule()
    field = wit.core.A.field
    # x.r (x) y and x (x) r.y have the same class for every generator r of R
    for r in T.left_algebra.generating_indices():
        for x in unit_vectors(field, tt.dim):
            xr = tt.right_action[r].image(x)
            for y in unit_vectors(field, T.dim):
                assert X.class_of(xr, y) == X.class_of(x, T.left_action[r].image(y))
    # a class lifts to a sum of pure tensors of plain basis vectors that
    # adds up to the class again
    for q in unit_vectors(field, X.dim):
        items = X.lift_items(q)
        assert X.class_of_sum([(c, tt.class_of({a: 1}, {b: 1}), {f: 1})
                               for (a, b, f), c in items]) == q


def test_the_witness_needs_a_dual_basis(monkeypatch):
    import depthtwo.bialgebroid as bialgebroid_mod
    monkeypatch.setattr(bialgebroid_mod, "left_r_projectivity", lambda ext: None)
    with pytest.raises(WitnessError, match="not left R-projective"):
        TripleTensorWitness(build_example("s3-a3"))


def _reconstructs(actions, db) -> bool:
    """The identity-column loop: x = sum_i combine(actions, phi_i(x)) m_i for every e_c."""
    field = actions[0].field
    for x in unit_vectors(field, actions[0].nrows):
        acc = sum_nonzeros(((1, combine(actions, phi.image(x)).image(m_i).items())
                            for m_i, phi in zip(db.elements, db.functionals)), field.char)
        if acc != x:
            return False
    return True


def _variants(db):
    """The dual basis and three perturbations of it."""
    elems, funcs = db.elements, db.functionals
    yield db
    yield DualBasis(elems[:-1], funcs[:-1])
    yield DualBasis(elems, [funcs[0].scaled(2)] + funcs[1:])
    yield DualBasis(elems[::-1], funcs)


# B-B-bimodule projections A -> B splitting iota, for split_projectivity_audit
SPLITTINGS = {
    "s3a3": lambda ext: Matrix.from_columns(QQ, [{j: 1} for j in range(3)] + [{}] * 3, nrows=3),
    "trivial_m2": lambda ext: Matrix.identity(QQ, ext.A.dim),
}


@pytest.mark.parametrize("fixture", ["s3a3", "trivial_m2", "c2_over_k", "sqrt2", "sqrt2_f5"])
def test_reconstruction_check_agrees_with_the_identity_column_loop(fixture, request):
    ext = request.getfixturevalue(fixture)
    projective = left_r_projectivity(ext)
    assert projective is not None
    cases = [(t_core(ext).lam_R, projective)]
    if fixture in SPLITTINGS:
        # A over B: the action of e_j is left multiplication by iota(e_j)
        split = split_projectivity_audit(ext, SPLITTINGS[fixture](ext))
        cases.append(([ext.left_mult_iota(j) for j in range(ext.B.dim)], split))
    for actions, db in cases:
        rejected = 0
        for k, variant in enumerate(_variants(db)):
            if _reconstructs(actions, variant):
                variant.check(actions, "reconstruction failed")
                continue
            assert k, "the computed dual basis must reconstruct"
            rejected += 1
            with pytest.raises(SelfCheckError, match="^reconstruction failed$"):
                variant.check(actions, "reconstruction failed")
        assert rejected, "every dual basis has a perturbation that fails"


# -- commutative specialization ----------------------------------------------------

@pytest.mark.parametrize("name", ["sqrt2", "sqrt2_f5"])
def test_flip_check_passes(name, request):
    ext = request.getfixturevalue(name)
    report = commutative_flip_check(ext)
    assert report.all_pass, [k for k in report.__slots__ if not getattr(report, k)]


def test_flip_check_rejects_noncommutative(s3a3):
    with pytest.raises(AlgebraError, match="commutative"):
        commutative_flip_check(s3a3)


def test_flip_check_f5_field_object(sqrt2_f5):
    assert sqrt2_f5.A.field == GF(5)
