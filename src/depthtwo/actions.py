"""The right T-action on endomorphism rings of left modules.

For a left A-module M, the endomorphisms of M as a B-module carry a
right T-action f . t = t^1 f(t^2 -).  The action measures composition
through the coproduct, and its invariants recover exactly the A-linear
endomorphisms.
"""

from __future__ import annotations

from .algebras import AlgebraError, Extension, FiniteAlgebra, action_cases, require
from .bialgebroid import RightBialgebroid, build_T
from .bimodules import hom_space, left_module_bimodule, right_d2_quasibase
from .linalg import Matrix, Subspace, combine, nullspace
# re-exported: read here by perfbench's test_rebinding_reaches_every_importing_module
from .linalg import solve_in_span  # noqa: F401


class LeftModule:
    """A unital left module over an algebra, given by action matrices."""

    __slots__ = ("algebra", "dim", "action")

    def __init__(self, algebra: FiniteAlgebra, dim: int, action: list[Matrix],
                 validate: bool = True):
        self.algebra = algebra
        self.dim = dim
        self.action = action
        if validate:
            self._validate()

    def _validate(self):
        require(lambda rows: action_cases(self.algebra, self.action, rows,
                                          "module action is not unital",
                                          "module action fails on (e_{i}, e_{j})"), self.algebra)

    @classmethod
    def regular(cls, A: FiniteAlgebra) -> "LeftModule":
        return cls(A, A.dim, A.left_mults, validate=False)


def b_endomorphisms(ext: Extension, M: LeftModule) -> list[Matrix]:
    """Basis of endomorphisms of M as a module over B (restricted via iota)."""
    action = [combine(M.action, col) for col in ext.iota.matrix.cols]
    bm = left_module_bimodule(ext.B, M.dim, action)
    return hom_space(bm, bm)


class MeasuredEndos:
    """End of M over B with its verified right T-module algebra structure."""

    __slots__ = ("bgd", "module", "endo_basis", "action", "_free")

    def __init__(self, bgd: RightBialgebroid, module: LeftModule,
                 endo_basis: list[Matrix], action: list[Matrix]):
        self.bgd = bgd
        self.module = module
        self.endo_basis = endo_basis
        self.action = action
        # in the canonical basis from hom_space each map is 1 at its last
        # nonzero entry (row-major) and every other basis map is 0 there
        self._free = [max((r, c) for c, col in enumerate(f.cols) for r in col)
                      for f in endo_basis]

    @property
    def dim(self) -> int:
        return len(self.endo_basis)

    def endo_coords(self, endo: Matrix, err: str = "endomorphism is not B-linear") -> dict:
        """Coordinates {i: value} in ``endo_basis``: the entries of endo at the
        basis maps' free positions, checked by an exact reconstruction."""
        cols = endo.cols
        coords = {i: cols[c][r] for i, (r, c) in enumerate(self._free) if r in cols[c]}
        recon = combine(self.endo_basis, coords) if self.endo_basis else \
            Matrix.zeros(endo.field, endo.nrows, endo.ncols)
        if recon != endo:
            raise AlgebraError(err)
        return coords


def t_action(ext: Extension, M: LeftModule,
             bgd: RightBialgebroid | None = None) -> MeasuredEndos:
    """The right T-action f . t = t^1 f(t^2 -) on End of M over B.

    Construction verifies: unitality, the module law over products,
    the measuring identity through the coproduct on all basis triples,
    and that id_M . t = id_M . s_R(eps(t)).  bgd defaults to the
    extension's bialgebroid, built from its right quasibase.
    """
    if bgd is None:
        bgd = build_T(ext, right_d2_quasibase(ext))
    core = bgd.core
    A = ext.A
    field = A.field
    endos = b_endomorphisms(ext, M)
    ne = len(endos)
    m = core.dim
    me = MeasuredEndos(bgd, M, endos, [])

    def acted(f: Matrix, c: int) -> Matrix:
        # f . t_c = t_c^1 f(t_c^2 -), summed over the lift of t_c
        out = Matrix.zeros(field, M.dim, M.dim)
        for (s, t), coeff in core.t_items[c]:
            out = out + (M.action[s] @ f @ M.action[t]).scaled(coeff)
        return out

    acted_table = [[acted(endos[a], c) for c in range(m)] for a in range(ne)]
    action = me.action
    for c in range(m):
        cols = [me.endo_coords(acted_table[a][c], "T-action left the B-endomorphism algebra")
                for a in range(ne)]
        action.append(Matrix.from_columns(field, cols, nrows=ne))

    # f . 1_T = f, and the module law (f . t) . u = f . (t u), anti on gens(T)
    require(lambda rows: action_cases(
        core.T_alg, action, rows, "T-action is not unital",
        "T-action fails the module law on (t_{i}, t_{j})", anti=True), core.T_alg)
    # measuring: (f . t_(1)) o (g . t_(2)) = (f o g) . t
    for c in range(m):
        lift = core.tt.lift_items(bgd.Delta.cols[c])
        for a in range(ne):
            for b in range(ne):
                rhs_m = Matrix.zeros(field, M.dim, M.dim)
                for (e, f), coeff in lift:
                    rhs_m = rhs_m + (acted_table[a][e] @ acted_table[b][f]).scaled(coeff)
                lhs_m = acted(endos[a] @ endos[b], c)
                if lhs_m != rhs_m:
                    raise AlgebraError(
                        f"measuring identity fails at (f_{a}, f_{b}, t_{c})")
    # id_M . t = id_M . s_R(eps(t))
    id_coords = me.endo_coords(Matrix.identity(field, M.dim))
    for c in range(m):
        tvec = core.T_alg.basis_vector(c)
        twisted = core.s_R.image(core.eps.cols[c])
        if combine(action, tvec).image(id_coords) != combine(action, twisted).image(id_coords):
            raise AlgebraError(f"identity is not invariant at t_{c}")
    return me


def action_invariants(me: MeasuredEndos) -> Subspace:
    """Invariants {phi : phi . t = phi . s_R(eps(t))} inside End_k(M), M the
    module ``me`` measures, verified to coincide with the A-linear
    endomorphisms of M."""
    M = me.module
    core = me.bgd.core
    field = M.algebra.field
    m = core.dim
    rows = []
    for c in range(m):
        tvec = core.T_alg.basis_vector(c)
        twisted = core.s_R.image(core.eps.cols[c])
        diff = combine(me.action, tvec) - combine(me.action, twisted)
        rows.extend(diff.transpose().cols)
    coords_basis = nullspace(rows, field, me.dim)
    amb = M.dim * M.dim
    vectors = [combine(me.endo_basis, coords).vec() for coords in coords_basis]
    invariants = Subspace.span(field, amb, vectors)

    a_bm = left_module_bimodule(M.algebra, M.dim, M.action)
    a_endos = hom_space(a_bm, a_bm)
    a_space = Subspace.span(field, amb, [f.vec() for f in a_endos])
    if invariants != a_space:
        raise AlgebraError("invariants differ from the A-linear endomorphisms")
    return invariants
