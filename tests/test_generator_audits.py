"""The generator passes of the audits decide what scans of every basis tuple decide.

``axiom_audit`` and the comodule audit check each multiplicative or
module-linear identity with that variable on ``generating_indices()`` only,
and rescan every basis tuple only to name a first failure.  Patching
``FiniteAlgebra.generating_indices`` to return every index, around the audit
calls only, turns each generator pass into the full scan, so both runs must
give the same report.  The balance audit and the quasibase verifiers are
compared with the (dim A)^2 computations they replace, written out here.
"""

from __future__ import annotations

import pytest

from depthtwo.algebras import FiniteAlgebra
from depthtwo.bialgebroid import axiom_audit, build_T
from depthtwo.bimodules import (QuasibaseSet, intertwiners, left_d2_quasibase,
                                right_d2_quasibase, t_space, verify_left_quasibase,
                                verify_right_quasibase)
from depthtwo.galois import (_comodule_audit, balanced_audit, coaction, comparison_map,
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
        out[name] = (ext, bgd, coaction(ext, rqb))
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
    A, ts = ext.A, qb.ts
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
    out = {"reversed": QuasibaseSet(qb.side, qb.pairs[::-1], qb.ts)}
    bad_endo = _swap_outside(endo, [])
    if bad_endo is not None:
        out["endo column"] = QuasibaseSet(qb.side, [(bad_endo, t), *rest], qb.ts)
    zeroed = Matrix.from_columns(endo.field, [{} if i == n - 1 else c
                                              for i, c in enumerate(endo.cols)], nrows=n)
    out["endo column zeroed"] = QuasibaseSet(qb.side, [(zeroed, t), *rest], qb.ts)
    if rest:
        doubled = sum_nonzeros([(1, t.items()), (1, rest[0][1].items())], endo.field.char)
        out["tensor"] = QuasibaseSet(qb.side, [(endo, doubled), *rest], qb.ts)
    return out


@pytest.mark.parametrize("name", D2_NAMES)
def test_quasibase_verifiers_equal_the_pairwise_identity(name):
    ext = EXTENSIONS[name]()
    for qb, verify in ((right_d2_quasibase(ext), verify_right_quasibase),
                       (left_d2_quasibase(ext), verify_left_quasibase)):
        if qb is None:
            continue
        assert verify(ext, qb) and _holds_on_every_pair(ext, qb)
        for label, bad in _corrupted(qb).items():
            assert verify(ext, bad) == _holds_on_every_pair(ext, bad), (name, qb.side, label)
