"""The right T-action on endomorphism rings of left modules, and the
anchor action on the centralizer.

For a left A-module M, the endomorphisms of M as a B-module carry a
right T-action f . t = t^1 f(t^2 -).  The action measures composition
through the coproduct, and its invariants recover exactly the A-linear
endomorphisms; the anchor is the same action specialized to R inside
End(A).
"""

from __future__ import annotations

from .algebras import AlgebraError, Extension, FiniteAlgebra
from .bialgebroid import RightBialgebroid, build_T
from .bimodules import QuasibaseSet, hom_space, left_module_bimodule
from .linalg import Matrix, Subspace, combine, nullspace
# re-exported: callers and profiling tools look solve_in_span up in this module
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
        A = self.algebra
        if combine(self.action, A.unit) != Matrix.identity(A.field, self.dim):
            raise AlgebraError("module action is not unital")
        for i in range(A.dim):
            for j in range(A.dim):
                if self.action[i] @ self.action[j] != combine(self.action, A.table[i][j]):
                    raise AlgebraError(f"module action fails on (e_{i}, e_{j})")

    @classmethod
    def regular(cls, A: FiniteAlgebra) -> "LeftModule":
        return cls(A, A.dim, A.left_mults, validate=False)


def b_endomorphisms(ext: Extension, M: LeftModule) -> list[Matrix]:
    """Basis of endomorphisms of M as a module over B (restricted via iota)."""
    action = [combine(M.action, ext.iota_col(j)) for j in range(ext.B.dim)]
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

    def endo_coords(self, endo: Matrix, err: str = "endomorphism is not B-linear") -> list:
        """Coordinates in ``endo_basis``: the entries of endo at the basis
        maps' free positions, checked by an exact reconstruction."""
        zero = endo.field.zero
        coords = [endo.cols[c].get(r, zero) for r, c in self._free]
        recon = combine(self.endo_basis, coords) if self.endo_basis else \
            Matrix.zeros(endo.field, endo.nrows, endo.ncols)
        if recon != endo:
            raise AlgebraError(err)
        return coords


def t_action(ext: Extension, rqb: QuasibaseSet, M: LeftModule,
             bgd: RightBialgebroid | None = None) -> MeasuredEndos:
    """The right T-action f . t = t^1 f(t^2 -) on End of M over B.

    Construction verifies: unitality, the module law over products,
    the measuring identity through the coproduct on all basis triples,
    and that id_M . t = id_M . s_R(eps(t)).
    """
    if bgd is None:
        bgd = build_T(ext, rqb)
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
        for (s, t), coeff in core.t_lift_items(c):
            out = out + (M.action[s] @ f @ M.action[t]).scaled(coeff)
        return out

    acted_table = [[acted(endos[a], c) for c in range(m)] for a in range(ne)]
    action = me.action
    for c in range(m):
        cols = [me.endo_coords(acted_table[a][c], "T-action left the B-endomorphism algebra")
                for a in range(ne)]
        action.append(Matrix.from_columns(field, cols, nrows=ne))

    # unitality: f . 1_T = f
    if combine(action, core.unit_T) != Matrix.identity(field, ne):
        raise AlgebraError("T-action is not unital")
    # module law: (f . t) . u = f . (t u)
    for c in range(m):
        for d in range(m):
            prod = core.T_alg.table[c][d]
            if action[d] @ action[c] != combine(action, prod):
                raise AlgebraError(f"T-action fails the module law on (t_{c}, t_{d})")
    # measuring: (f . t_(1)) o (g . t_(2)) = (f o g) . t
    for c in range(m):
        lift = core.tt.lift_items(bgd.Delta.column(c))
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
        twisted = core.s_R.apply(core.eps.apply(tvec))
        if combine(action, tvec).apply(id_coords) != combine(action, twisted).apply(id_coords):
            raise AlgebraError(f"identity is not invariant at t_{c}")
    return me


def action_invariants(me: MeasuredEndos, M: LeftModule) -> Subspace:
    """Invariants {phi : phi . t = phi . s_R(eps(t))} inside End_k(M),
    verified to coincide with the A-linear endomorphisms of M."""
    core = me.bgd.core
    field = M.algebra.field
    m = core.dim
    rows = []
    for c in range(m):
        tvec = core.T_alg.basis_vector(c)
        twisted = core.s_R.apply(core.eps.apply(tvec))
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


class AnchorAction:
    """The right T-action r . t = t^1 r t^2 on the centralizer."""

    __slots__ = ("bgd", "action")

    def __init__(self, bgd: RightBialgebroid, action: list[Matrix]):
        self.bgd = bgd
        self.action = action


def anchor(ext: Extension, rqb: QuasibaseSet,
           bgd: RightBialgebroid | None = None) -> AnchorAction:
    """Build and verify the anchor: r . 1_T = r, 1_R . t = eps(t), and R is
    a right T-module algebra under it."""
    if bgd is None:
        bgd = build_T(ext, rqb)
    core = bgd.core
    A = ext.A
    field = A.field
    m = core.dim
    rdim = core.R_alg.dim
    # r . t_c = t_c^1 r t_c^2
    right_by_r = [combine(A.right_mults, core.incl_R.column(r)) for r in range(rdim)]
    action = []
    for c in range(m):
        cols = []
        for r in range(rdim):
            coords = core.R.coords_of(core.contract(c, left=right_by_r[r]))
            if coords is None:
                raise AlgebraError("anchor value escaped the centralizer")
            cols.append(coords)
        action.append(Matrix.from_columns(field, cols, nrows=rdim))
    out = AnchorAction(bgd, action)

    if combine(action, core.unit_T) != Matrix.identity(field, rdim):
        raise AlgebraError("anchor: r . 1_T != r")
    for c in range(m):
        if action[c].apply(core.R_alg.unit) != core.eps.column(c):
            raise AlgebraError(f"anchor: 1_R . t_{c} != eps(t_{c})")
    # module law over products of T
    for c in range(m):
        for d in range(m):
            if combine(action, core.T_alg.table[c][d]) != action[d] @ action[c]:
                raise AlgebraError("anchor fails the module law")
    # measuring: (r s) . t = (r . t_(1)) (s . t_(2))
    for c in range(m):
        lift = core.tt.lift_items(bgd.Delta.column(c))
        for r in range(rdim):
            for s in range(rdim):
                lhs = action[c].apply(core.R_alg.table[r][s])
                rhs = [field.zero] * rdim
                for (e, f), coeff in lift:
                    term = core.R_alg.mul(
                        action[e].apply(core.R_alg.basis_vector(r)),
                        action[f].apply(core.R_alg.basis_vector(s)))
                    rhs = [x + coeff * y for x, y in zip(rhs, term)]
                if lhs != rhs:
                    raise AlgebraError(
                        f"anchor measuring fails at (r_{r}, r_{s}, t_{c})")
    return out
