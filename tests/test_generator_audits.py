"""The generator passes of the audits decide what scans of every basis tuple decide.

``axiom_audit`` and the comodule audit check each multiplicative or
module-linear identity with that variable on ``generating_indices()`` only,
and rescan every basis tuple only to name a first failure.  Patching
``FiniteAlgebra.generating_indices`` to return every index, around the audit
calls only, turns each generator pass into the full scan, so both runs must
give the same report.  The balance audit and the quasibase verifiers are
compared with the (dim A)^2 computations they replace, written out here.
W3 Delta and ice delta, which the audits pin on a basis, are checked at
every product.
The validators of morphisms, bimodules, modules and the T-action raise
the first failure of the pairwise scan written out here, also
when the generators are every index in reverse order.
"""

from __future__ import annotations

import pytest

from depthtwo.actions import LeftModule, t_action
from depthtwo.algebras import AlgebraError, AlgebraMorphism, FiniteAlgebra, group_inverses
from depthtwo.bialgebroid import axiom_audit, build_T
from depthtwo.bimodules import (Bimodule, QuasibaseSet, algebra_bimodule, intertwiners,
                                left_d2_quasibase, right_d2_quasibase, t_space, tensor_square,
                                unit_tensor, verify_quasibase)
from depthtwo.catalog import S3_TABLE, build_example, catalog_names
from depthtwo.galois import (_comodule_audit, balanced_audit, comparison_map, galois_map,
                             tensor_with_t)
from depthtwo.linalg import Matrix, Subspace, combine, sum_nonzeros

from conftest import CATALOG_AND_A4, dense_s3a3
from test_galois import _upper_triangular_extension

EXTENSIONS = {**CATALOG_AND_A4, "dense s3-a3": dense_s3a3,
              "upper-triangular": _upper_triangular_extension}
# the right depth-two ones
D2_NAMES = [name for name in EXTENSIONS if name not in ("s3-transposition", "A4>C3 over F_2")]


@pytest.fixture(scope="module")
def galois_inputs():
    """(ext, bialgebroid, coaction) per right depth-two extension, built once,
    with every memoized object the audits read already in place."""
    out = {}
    for name in D2_NAMES:
        ext = EXTENSIONS[name]()
        rqb = right_d2_quasibase(ext)
        bgd = build_T(ext, rqb)
        tensor_with_t(ext)
        comparison_map(ext)
        out[name] = (ext, bgd, galois_map(ext, rqb).beta @ unit_tensor(ext, unit_first=True))
    return out


def _on_generators_and_in_full(monkeypatch, audit):
    """audit() as it runs, then with every basis index a generator."""
    reduced = audit()
    with monkeypatch.context() as mp:
        mp.setattr(FiniteAlgebra, "generating_indices", lambda self: list(range(self.dim)))
        full = audit()
    return reduced, full


def _swapped(matrix: Matrix, i: int, j: int) -> Matrix:
    cols = list(matrix.cols)
    cols[i], cols[j] = cols[j], cols[i]
    return Matrix.from_columns(matrix.field, cols, nrows=matrix.nrows)


def _swap_outside(matrix: Matrix, gens: list[int]) -> Matrix | None:
    """matrix with its first two distinct columns outside gens swapped, if any."""
    outside = [i for i in range(matrix.ncols) if i not in gens]
    for a, i in enumerate(outside):
        for j in outside[a + 1:]:
            if matrix.cols[i] != matrix.cols[j]:
                return _swapped(matrix, i, j)
    return None


def _mutations(bgd, delta, ext):
    """(bialgebroid, coaction) pairs with one structure map corrupted at
    indices outside the generators its reduction reads."""
    core = bgd.core
    t_gens = core.T_alg.generating_indices()
    r_gens = core.R_alg.generating_indices()
    out = {}
    for name, source, gens in (("Delta", bgd.Delta, t_gens), ("eps", core.eps, t_gens),
                               ("s_R", core.s_R, r_gens), ("t_R", core.t_R, r_gens)):
        bad = _swap_outside(source, gens)
        if bad is not None:
            out[name] = (bgd.replaced(**{name: bad}), delta)
    bad = _swap_outside(delta, ext.A.generating_indices())
    if bad is not None:
        out["delta"] = (bgd, bad)
    return out


@pytest.mark.parametrize("name", D2_NAMES)
def test_audits_on_generators_equal_the_full_scans(name, galois_inputs, monkeypatch):
    ext, bgd, delta = galois_inputs[name]
    cases = {"as built": (bgd, delta), **_mutations(bgd, delta, ext)}
    for label, (b, d) in cases.items():
        for audit in (lambda: axiom_audit(b).to_json(),
                      lambda: _comodule_audit(ext, d, b).to_json()):
            reduced, full = _on_generators_and_in_full(monkeypatch, audit)
            assert reduced == full, (name, label)


def test_mutations_outside_the_generators_are_caught(galois_inputs):
    # the swaps above must reach the failure path, or the comparison shows little
    caught = set()
    for ext, bgd, delta in galois_inputs.values():
        for label, (b, d) in _mutations(bgd, delta, ext).items():
            axioms = axiom_audit(b)
            comodule = _comodule_audit(ext, d, b)
            if not axioms.all_pass or not comodule.all_pass:
                caught.add(label)
    assert caught == {"Delta", "eps", "s_R", "t_R", "delta"}


# -- identities the audits pin on a basis, checked at every product --------------


@pytest.mark.parametrize("name", D2_NAMES)
def test_w3_delta_of_every_product_is_its_sandwich(name, galois_inputs):
    # axiom_audit pins W3 Delta(t) = t^1 (x) 1 (x) t^2 on the basis of T only,
    # in coproduct_right_linear at 1_R; linearity carries it to t_c t_d
    ext, bgd, _ = galois_inputs[name]
    core, wit = bgd.core, bgd.witness
    w3_delta = wit.w3 @ bgd.Delta
    for c in range(core.dim):
        for d in range(core.dim):
            prod = core.T_alg.mul({c: 1}, {d: 1})
            assert w3_delta.image(prod) == wit.sandwich3(prod, ext.A.unit), (c, d)


@pytest.mark.parametrize("name", D2_NAMES)
def test_ice_of_every_coaction_product_is_one_tensor_the_product(name, galois_inputs):
    # the comodule audit pins ice(delta(a)) = 1 (x) a on the basis of A only,
    # in base_twist_compatibility at 1_R; here at delta(x)delta(y), for all x, y
    ext, bgd, delta = galois_inputs[name]
    A, T, ts = ext.A, bgd.core.T_alg, bgd.core.ts
    at, ice = tensor_with_t(ext), comparison_map(ext)
    lifts = [at.lift_items(col) for col in delta.cols]
    for x in range(A.dim):
        for y in range(A.dim):
            product = at.class_of_sum([(c1 * c2, A.nonzeros[k][l], T.nonzeros[c][d])
                                       for (k, c), c1 in lifts[x] for (l, d), c2 in lifts[y]])
            assert ice.image(product) == ts.class_of(A.unit, A.nonzeros[x][y]), (x, y)


# -- balance: the double commutant in dim A unknowns ------------------------------


def _balanced_in_full(ext):
    """The balance verdict with the double commutant solved in (dim A)^2 unknowns."""
    A = ext.A
    field, n = A.field, A.dim
    rho = [ext.right_mult_iota(j) for j in range(ext.B.dim)]
    e_mats = intertwiners(field, n, n, [(rb, rb) for rb in rho])
    dc = intertwiners(field, n, n, [(em, em) for em in e_mats])
    dc_space = Subspace.span(field, n * n, [f.vec() for f in dc])
    rho_b = Subspace.span(field, n * n, [rb.vec() for rb in rho])
    outside = [v for v in dc_space.basis if not rho_b.contains(v)]
    witness = Matrix.unvec(field, outside[0], n, n) if outside else None
    return not outside, len(e_mats), dc_space.dim, witness


@pytest.mark.parametrize("name", list(EXTENSIONS))
def test_balance_equals_the_full_commutant_solve(name):
    ext = EXTENSIONS[name]()
    report = balanced_audit(ext)
    got = (report.balanced, report.e_dim, report.double_commutant_dim, report.witness)
    assert got == _balanced_in_full(ext)


def test_balance_witness_is_compared():
    # the upper-triangular extension is depth two but not balanced
    assert balanced_audit(_upper_triangular_extension()).witness is not None


# -- quasibase verifiers: one value of x (right) or y (left) ----------------------


def _bb_linear(ext, endo):
    return all(endo @ m == m @ endo for j in range(ext.B.dim)
               for m in (ext.left_mult_iota(j), ext.right_mult_iota(j)))


def _holds_on_every_pair(ext, qb) -> bool:
    """The quasibase identity on all (dim A)^2 basis pairs, with B-B-linearity
    over every basis element of B and B-centrality of every tensor."""
    A, ts = ext.A, tensor_square(ext)
    if not all(_bb_linear(ext, endo) and t_space(ext).contains(t) for endo, t in qb.pairs):
        return False
    for x in range(A.dim):
        for y in range(A.dim):
            if qb.side == "right":   # x gamma_i(y) acting on u_i from the left
                images = [combine(ts.left_action, A.mul({x: 1}, endo.cols[y])).image(t)
                          for endo, t in qb.pairs]
            else:                    # beta_i(x) y acting on t_i from the right
                images = [combine(ts.right_action, A.mul(endo.cols[x], {y: 1})).image(t)
                          for endo, t in qb.pairs]
            total = sum_nonzeros(((1, img.items()) for img in images), A.field.char)
            if ts.class_of({x: 1}, {y: 1}) != total:
                return False
    return True


def _corrupted(qb: QuasibaseSet) -> dict[str, QuasibaseSet]:
    """The quasibase with one endomorphism column or one tensor changed, and
    with its pairs reversed (still a quasibase)."""
    (endo, t), *rest = qb.pairs
    n = endo.ncols
    out = {"reversed": QuasibaseSet(qb.side, qb.pairs[::-1])}
    bad_endo = _swap_outside(endo, [])
    if bad_endo is not None:
        out["endo column"] = QuasibaseSet(qb.side, [(bad_endo, t), *rest])
    zeroed = Matrix.from_columns(endo.field, [{} if i == n - 1 else c
                                              for i, c in enumerate(endo.cols)], nrows=n)
    out["endo column zeroed"] = QuasibaseSet(qb.side, [(zeroed, t), *rest])
    if rest:
        doubled = sum_nonzeros([(1, t.items()), (1, rest[0][1].items())], endo.field.char)
        out["tensor"] = QuasibaseSet(qb.side, [(endo, doubled), *rest])
    return out


@pytest.mark.parametrize("name", D2_NAMES)
def test_quasibase_verifiers_equal_the_pairwise_identity(name):
    ext = EXTENSIONS[name]()
    for qb in (right_d2_quasibase(ext), left_d2_quasibase(ext)):
        if qb is None:
            continue
        assert verify_quasibase(ext, qb) and _holds_on_every_pair(ext, qb)
        for label, bad in _corrupted(qb).items():
            assert verify_quasibase(ext, bad) == _holds_on_every_pair(ext, bad), \
                (name, qb.side, label)


# -- validators: the first failure of the pairwise scan ---------------------------


def _raised(build) -> str | None:
    try:
        build()
    except AlgebraError as exc:
        return str(exc)
    return None


def _action_law_failure(alg, action, unit_failure, pair_failure, anti=False):
    """First failure of: the action of 1 is the identity, then act(e_i e_j) =
    act(e_i) act(e_j), or act(e_j) act(e_i) with anti, over every pair."""
    if combine(action, alg.unit) != Matrix.identity(alg.field, action[0].nrows):
        return unit_failure
    for i in range(alg.dim):
        for j in range(alg.dim):
            prod = action[j] @ action[i] if anti else action[i] @ action[j]
            if prod != combine(action, alg.nonzeros[i][j]):
                return pair_failure.format(i=i, j=j)
    return None


def _commutation_failure(left, right):
    for i, lam in enumerate(left):
        for j, rho in enumerate(right):
            if lam @ rho != rho @ lam:
                return f"actions do not commute at (e_{i}, e_{j})"
    return None


def _swapped_list(xs, a, b):
    out = list(xs)
    out[a], out[b] = out[b], out[a]
    return out


def _in_both_generator_orders(monkeypatch, build) -> list:
    """The message build() raises, then the one it raises when the generators
    are every index in reverse order.

    With f(1) = one, the first failing row of the full scan of a law is a
    generator of the greedy choice: the earlier generators generate every
    earlier index.  So only a generating set in another order tells the
    first failure of a generator pass from the full scan's."""
    first = _raised(build)
    with monkeypatch.context() as mp:
        mp.setattr(FiniteAlgebra, "generating_indices",
                   lambda self: list(reversed(range(self.dim))))
        return [first, _raised(build)]


@pytest.fixture(scope="module")
def s3a3_corrupted():
    """s3-a3 and two indices of its algebra that are neither generators nor in
    the support of the unit."""
    ext = build_example("s3-a3")
    A = ext.A
    a, b = [i for i in range(A.dim) if i not in A.generating_indices() and i not in A.unit][-2:]
    return ext, a, b


def test_a_morphism_names_the_first_failing_pair(s3a3_corrupted, monkeypatch):
    ext, a, b = s3a3_corrupted
    A = ext.A
    bad = Matrix.from_columns(A.field, _swapped_list(Matrix.identity(A.field, A.dim).cols, a, b),
                              nrows=A.dim)
    cases = [(bad.image(A.unit) == A.unit, "morphism does not preserve the unit")]
    cases += [(A.mul(bad.cols[i], bad.cols[j]) == bad.image(A.nonzeros[i][j]),
               f"morphism not multiplicative on (e_{i}, e_{j})")
              for i in range(A.dim) for j in range(A.dim)]
    expected = next(witness for ok, witness in cases if not ok)
    assert _in_both_generator_orders(
        monkeypatch, lambda: AlgebraMorphism(A, A, bad)) == [expected] * 2


def test_a_left_module_names_the_first_failing_pair(s3a3_corrupted, monkeypatch):
    ext, a, b = s3a3_corrupted
    A = ext.A
    bad = _swapped_list(A.left_mults, a, b)
    expected = _action_law_failure(A, bad, "module action is not unital",
                                   "module action fails on (e_{i}, e_{j})")
    assert expected is not None
    assert _in_both_generator_orders(
        monkeypatch, lambda: LeftModule(A, A.dim, bad)) == [expected] * 2


def test_each_bimodule_law_names_its_first_failing_pair(s3a3_corrupted, monkeypatch):
    ext, a, b = s3a3_corrupted
    A = ext.A
    lam, rho = A.left_mults, A.right_mults
    bad_lam, bad_rho = _swapped_list(lam, a, b), _swapped_list(rho, a, b)
    # y -> lambda(y^-1) is an anti-representation, commuting with lambda only on the centre
    inv = group_inverses(S3_TABLE)
    twisted = [lam[inv[j]] for j in range(A.dim)]
    for left, right, expected in (
            (bad_lam, rho, _action_law_failure(
                A, bad_lam, "left action is not unital",
                "left action not multiplicative on (e_{i}, e_{j})")),
            (lam, bad_rho, _action_law_failure(
                A, bad_rho, "right action is not unital",
                "right action not anti-multiplicative on (e_{i}, e_{j})", anti=True)),
            (lam, twisted, _commutation_failure(lam, twisted))):
        assert expected is not None
        assert _in_both_generator_orders(
            monkeypatch, lambda: Bimodule(A, A, A.dim, left, right).check()) == [expected] * 2
    # both unit laws come before the left law
    half = [x.scaled(2) for x in rho]
    assert _raised(lambda: Bimodule(A, A, A.dim, bad_lam, half).check()) == \
        "right action is not unital"


@pytest.fixture(scope="module")
def s3a3_t_corrupted():
    """s3-a3 with its bialgebroid, and the same bialgebroid with the lifts of two
    basis elements of T swapped: neither a generator nor in the support of 1_T."""
    ext = build_example("s3-a3")
    rqb = right_d2_quasibase(ext)
    bgd = build_T(ext, rqb)
    core = bgd.core
    T = core.T_alg
    a, b = [c for c in range(T.dim) if c not in T.generating_indices()
            and c not in core.unit_T][-2:]
    bad = bgd.replaced(t_items=_swapped_list(core.t_items, a, b))
    return ext, rqb, bgd, bad, a, b


def test_the_t_action_names_the_first_failing_pair(s3a3_t_corrupted, monkeypatch):
    ext, rqb, bgd, bad, a, b = s3a3_t_corrupted
    M = LeftModule.regular(ext.A)
    # the action of t_c is built from the lift of t_c alone
    action = _swapped_list(t_action(ext, M, bgd).action, a, b)
    expected = _action_law_failure(bgd.core.T_alg, action, "T-action is not unital",
                                   "T-action fails the module law on (t_{i}, t_{j})", anti=True)
    assert expected is not None
    assert _in_both_generator_orders(
        monkeypatch, lambda: t_action(ext, M, bad)) == [expected] * 2


@pytest.mark.parametrize("name", catalog_names())
def test_the_validators_pass_on_the_catalog(name):
    ext = build_example(name)
    A, B = ext.A, ext.B
    AlgebraMorphism(B, A, ext.iota.matrix)
    LeftModule(A, A.dim, A.left_mults)
    for left, right in (("A", "A"), ("B", "A"), ("A", "B")):
        algebra_bimodule(ext, left, right).check()
    tensor_square(ext).check()
    rqb = right_d2_quasibase(ext)
    if rqb is not None:
        t_action(ext, LeftModule.regular(A))
