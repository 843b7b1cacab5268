"""Bimodules, balanced tensor products, hom spaces and depth-two quasibases.

Elements are {index: value} vectors and maps are column-stored matrices,
as in ``linalg``; a class, a quasibase tensor and a hom-space basis map
are built from nonzeros and never pass through a dense list.  A tensor
product over an algebra is read through one small interface
(``TensorRealization``) and realized one of two ways.
``balanced_tensor(M, N)`` realizes M (x)_C N as a sparse quotient of
M (x)_k N (reduced relation rows and free columns); it needs nothing of
N, so every product built before projectivity is known is one.
``DualBasisTensor(M, N, db)`` realizes M (x)_R N as the image of an
idempotent on M^n when N has a dual basis of n elements over R; a class
lifts to a sum of n pure tensors.  For a quotient, outer actions,
classes of pure tensors and every map acting on one leg are computed the
same way: lift sparsely, act on one leg, reduce.  A sum of pure tensors is
added in one ambient vector and reduced once (``class_of_sum``), and a map
out of a quotient given on pure tensors of basis vectors is summed over
the sparse lifts (``matrix_of``).  The
tensor square A (x)_B A is the first instance; higher powers nest it on
the left, (A (x)_B A) (x)_B A and so on, so ambient dimensions stay
manageable and every quotient basis vector lifts to a single pure tensor.
(T (x)_R T) (x)_R T is the one idempotent image.
Actions of B are those of A pulled back along iota (``restrict``).

The generic summand test (``coproduct_summand_test``) decides M + * = P^(I)
as span membership of id_M in the image of the composition pairing
Hom(P, M) x Hom(M, P) -> End(M).  The pairing's products are bimodule
maps, so the solve compares them on bimodule generators of M only
(``bimodule_generators``), never on all of End_k(M); H-separability reads
it.  Depth two is decided on smaller data.  A right quasibase is
(gamma_i, u_i) with gamma_i in S = End_{B-B}(A), u_i in T = (A (x)_B A)^B
and 1 (x) a = sum_i gamma_i(a) u_i (Kadison and Szlachanyi).  If m_1..m_g
generate T as a left R-module, R = C_A(B), then u_i = sum_j r_ij . m_j,
and gamma'_j = sum_i gamma_i(-) r_ij lies in S (R commutes with iota(B)),
so (gamma'_j, m_j) is again a quasibase.  Hence the right side solves
1 (x) a = sum_j gamma_j(a) m_j for gamma_j in the span of S, and the left
side a (x) 1 = sum_j m'_j beta_j(a) over generators m'_j of T as a right
R-module; g * dim S unknowns.  Both sides of each identity are B-B-linear
in a (the m_j are B-central), so the identity is written only at
bimodule generators of A over B.  A solution is re-verified by
``verify_quasibase`` before it is returned: the quasibase identity is
A-linear in one argument, so it is checked with that argument 1 and the
other on every basis element.  That is the one reconstruction check of a
dual basis, sum_i phi_i(x) . m_i = target(x) (``DualBasis.reconstructs``),
with target a -> 1 (x) a or a -> a (x) 1.
"""

from __future__ import annotations

import copy
import itertools

from .algebras import (AlgebraError, AlgebraMorphism, Extension, FiniteAlgebra,
                       SelfCheckError, action_cases, field_as_algebra, group_inverses,
                       per_extension, require)
from .linalg import (Matrix, Subspace, close_span, combine, entry, insert_row, nullspace,
                     quotient_structure, solve_in_span, sum_nonzeros)


class Bimodule:
    """A space with a left P-action and a commuting right Q-action.

    ``left_action[i]`` is the matrix of the i-th basis element of P acting
    on the left; ``right_action[j]`` likewise on the right.  Left actions
    form a unital representation, right actions a unital anti-representation.
    Either action may be given as a function that builds the list on first use.
    """

    __slots__ = ("left_algebra", "right_algebra", "dim", "_left", "_right")

    def __init__(self, left_algebra: FiniteAlgebra, right_algebra: FiniteAlgebra,
                 dim: int, left_action, right_action):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = dim
        self._left = left_action
        self._right = right_action

    @property
    def left_action(self) -> list[Matrix]:
        if callable(self._left):
            self._left = self._left()
        return self._left

    @property
    def right_action(self) -> list[Matrix]:
        if callable(self._right):
            self._right = self._right()
        return self._right

    def check(self):
        """Raise AlgebraError naming the first violation: both unit laws, the
        left law, the right anti-law, then commutation, each decided on
        generators (commutation by the argument of ``source_target_commute``)."""
        P, Q = self.left_algebra, self.right_algebra
        lam, rho = self.left_action, self.right_action

        def laws(p_rows, q_rows):
            left = action_cases(P, lam, p_rows, "left action is not unital",
                                "left action not multiplicative on (e_{i}, e_{j})")
            right = action_cases(Q, rho, q_rows, "right action is not unital",
                                 "right action not anti-multiplicative on (e_{i}, e_{j})",
                                 anti=True)
            commute = ((lam[i] @ rho[j] == rho[j] @ lam[i],
                        f"actions do not commute at (e_{i}, e_{j})")
                       for i in p_rows for j in q_rows)
            # each unit case is the first of its law
            return itertools.chain(itertools.islice(left, 1), itertools.islice(right, 1),
                                   left, right, commute)
        require(laws, P, Q)

    # A plain bimodule is a single tensor leg: its items are ((index,), coefficient).

    def lift_items(self, coords: dict) -> list[tuple[tuple, object]]:
        """Items of {index: value} coordinates."""
        return [((i,), c) for i, c in coords.items()]

    def reduce_items(self, items: list[tuple[tuple, object]]) -> dict:
        """Nonzero coordinates {index: value} of a sum of items."""
        return sum_nonzeros(((c, ((i, 1),)) for (i,), c in items), self.left_algebra.field.char)


def restrict(M: Bimodule, left: AlgebraMorphism | None = None,
             right: AlgebraMorphism | None = None) -> Bimodule:
    """M with its left and/or right action pulled back along an algebra map
    into the acting algebra; the pulled-back actions are combined on first use.
    A balanced tensor product stays one, with the same quotient coordinates."""
    out = copy.copy(M)
    out._left = lambda: M.left_action if left is None else \
        [combine(M.left_action, col) for col in left.matrix.cols]
    out._right = lambda: M.right_action if right is None else \
        [combine(M.right_action, col) for col in right.matrix.cols]
    if left is not None:
        out.left_algebra = left.source
    if right is not None:
        out.right_algebra = right.source
    return out


def algebra_bimodule(ext: Extension, left: str, right: str) -> Bimodule:
    """A itself as a bimodule, with 'A' or 'B' (through iota) acting on each side."""
    for side in (left, right):
        if side not in ("A", "B"):
            raise ValueError(f"unknown side {side!r}")
    A = ext.A
    regular = Bimodule(A, A, A.dim, A.left_mults, A.right_mults)
    return restrict(regular, ext.iota if left == "B" else None,
                    ext.iota if right == "B" else None)


def left_module_bimodule(P: FiniteAlgebra, dim: int, action: list[Matrix]) -> Bimodule:
    """A left P-module viewed as a P-k-bimodule (scalars acting trivially on the right)."""
    k = field_as_algebra(P.field)
    return Bimodule(P, k, dim, action, [Matrix.identity(P.field, dim)])


# -- balanced tensor products ----------------------------------------------


def _sylvester_rows(n1: int, n2: int, p_cols: list, q_rows: list, mod: int) -> list[dict]:
    """Sparse rows of X -> X @ P - Q @ X on n1 x n2 matrices X, unknown X[a][b] at a*n2 + b.

    ``p_cols[b]`` and ``q_rows[a]`` are the nonzeros {k: x} of column b of P
    and of row a of Q; row (a, b) has P[k][b] at (a, k) and -Q[a][k] at (k, b).
    Every entry is reduced mod the characteristic ``mod`` (0 over Q).
    """
    rows = []
    for a in range(n1):
        base = a * n2
        neg = [(k * n2, mod - x if mod else -x) for k, x in q_rows[a].items()]
        for b in range(n2):
            row = {base + k: x for k, x in p_cols[b].items()}
            for off, x in neg:
                f = off + b
                y = row.get(f)
                if y is None:
                    row[f] = x
                elif (y := (y + x) % mod if mod else y + x):
                    row[f] = y
                else:
                    del row[f]
            rows.append(row)
    return rows



class TensorRealization:
    """The part of a realized tensor product M (x)_C N that reads it only
    through ``class_of_sum``, ``lift_items`` and ``dim``: the class of one
    pure tensor, and linear maps out of the product given on pure tensors.

    ``BalancedTensor`` realizes the product as a Sylvester quotient of
    M (x)_k N, ``DualBasisTensor`` as the image of an idempotent on M^n.
    """

    __slots__ = ()

    def class_of(self, x: dict, y: dict) -> dict:
        """Coordinates of x (x) y for x in M and y in N coordinates."""
        return self.class_of_sum([(1, x, y)])

    def matrix_of(self, target_dim: int, pure) -> Matrix:
        """The linear map out of this product that sends the class of a pure
        tensor of plain basis vectors e_i (x) e_j (x) ... to ``pure(i, j, ...)``.

        Column q sums ``pure`` over the sparse lift of basis vector q; images
        are {index: value} coordinates, added into one sparse column.
        """
        field = self.M.left_algebra.field
        cols = [sum_nonzeros(((coeff, pure(*idx).items())
                              for idx, coeff in self.lift_items({q: 1})), field.char)
                for q in range(self.dim)]
        return Matrix.from_columns(field, cols, nrows=target_dim)


class BalancedTensor(Bimodule, TensorRealization):
    """M (x)_C N realized as a quotient of M (x)_k N; built by ``balanced_tensor``.

    Ambient index (i, j) flattens to i * N.dim + j, and a quotient basis
    vector lifts to the single ambient basis vector at its free column.  The
    outer actions are induced from M's left and N's right action on first
    use, one leg at a time (``leg_map``).  Items of ``lift_items`` and
    ``reduce_items`` are indexed by tuples over the plain factors, so a
    product nested on the left stays sparse at every level.
    """

    __slots__ = ("M", "N", "quot")

    def __init__(self, M: Bimodule, N: Bimodule, quot):
        self.M = M
        self.N = N
        self.quot = quot
        super().__init__(M.left_algebra, N.right_algebra, quot.dim,
                         lambda: [self.leg_map(a, first=True) for a in M.left_action],
                         lambda: [self.leg_map(b, first=False) for b in N.right_action])

    def leg_map(self, mat: Matrix, first: bool) -> Matrix:
        """The map induced by mat acting on the M leg (first) or the N leg.

        Each quotient basis vector is lifted, mat acts on one leg of its
        pure tensor, and the result is reduced; no Kronecker product of
        mat with an identity is formed.  The reductions are the result's view.
        """
        dn = self.N.dim
        mat_cols = mat.cols
        cols = []
        for f in self.quot.free:
            i, j = divmod(f, dn)
            if first:
                amb = {k * dn + j: x for k, x in mat_cols[i].items()}
            else:
                amb = {i * dn + k: x for k, x in mat_cols[j].items()}
            cols.append(self.quot.reduce(amb))
        return Matrix.from_columns(self.quot.field, cols, nrows=self.dim)

    def class_of_sum(self, terms) -> dict:
        """Quotient coordinates of sum c * x (x) y over the (c, x, y) terms.

        x and y are {index: value} coordinates in M and N; the terms are
        added in one sparse ambient vector that is reduced once.
        """
        dn = self.N.dim
        amb: dict = {}
        for c, x, y in terms:
            if not c:
                continue
            ys = list(y.items())
            for i, a in x.items():
                ca = c * a
                off = i * dn
                for j, b in ys:
                    z = amb.get(off + j)
                    amb[off + j] = ca * b if z is None else z + ca * b
        return self.quot.reduce(amb)

    def lift_items(self, coords: dict) -> list[tuple[tuple, object]]:
        """Sparse lift of {index: value} coordinates to the full tensor
        product of the plain factors."""
        dn = self.N.dim
        out = []
        for f, c in self.quot.lift(coords).items():
            i, j = divmod(f, dn)
            out.extend((idx + (j,), a) for idx, a in self.M.lift_items({i: c}))
        return out

    def reduce_items(self, items: list[tuple[tuple, object]]) -> dict:
        """Nonzero quotient coordinates of a sparse full-tensor vector, computed stagewise."""
        dn = self.N.dim
        by_last: dict[int, list[tuple[tuple, object]]] = {}
        for idx, c in items:
            by_last.setdefault(idx[-1], []).append((idx[:-1], c))
        amb = {}
        for j, sub in by_last.items():
            for i, c in self.M.reduce_items(sub).items():
                amb[i * dn + j] = c
        return self.quot.reduce(amb)


def balanced_tensor(M: Bimodule, N: Bimodule) -> BalancedTensor:
    """M (x)_C N for a P-C-bimodule M and a C-Q-bimodule N, as a P-Q-bimodule.

    The relations m.c (x) n - m (x) c.n are imposed for the generators of C;
    multiplicativity extends them to all of C.  Products nest on the left
    only, so N must be a plain bimodule.
    """
    C = M.right_algebra
    if N.left_algebra.dim != C.dim:
        raise AlgebraError("balanced_tensor: M's right and N's left algebra differ")
    if isinstance(N, BalancedTensor):
        raise AlgebraError("balanced_tensor: nest products on the left")
    field = C.field
    dm, dn = M.dim, N.dim
    relations: list[dict] = []
    for c in C.generating_indices():
        # row (i, j) is minus the relation for e_i (x) e_j: lambda(c)[l][j] at (i, l)
        # minus rho(c)[k][i] at (k, j), i.e. X -> X @ lambda(c) - rho(c)^T @ X
        relations += _sylvester_rows(dm, dn, N.left_action[c].cols, M.right_action[c].cols,
                                     field.char)
    return BalancedTensor(M, N, quotient_structure(field, dm * dn, relations))


@per_extension
def tensor_square(ext: Extension) -> BalancedTensor:
    """A (x)_B A as an A-A-bimodule."""
    return balanced_tensor(algebra_bimodule(ext, "A", "B"), algebra_bimodule(ext, "B", "A"))


@per_extension
def tensor_power(ext: Extension, k: int) -> BalancedTensor:
    """The k-fold tensor power of A over B (k >= 2)."""
    if k < 2:
        raise ValueError("tensor_power needs k >= 2")
    if k == 2:
        return tensor_square(ext)
    prev = restrict(tensor_power(ext, k - 1), right=ext.iota)
    return balanced_tensor(prev, algebra_bimodule(ext, "B", "A"))


def b_centralized(ext: Extension, M: Bimodule) -> Subspace:
    """B-central elements {m : b.m = m.b for all b} of A or of a tensor power of A over B.

    The first plain factor of M carries the left and the last the right
    regular action of A.  For each generator b of B, b.m - m.b is written
    on every basis vector by acting on those legs of its sparse lift and
    reducing the items; the columns become sparse rows of one system.
    """
    A = ext.A
    field = A.field
    legs = []
    for j in ext.B.generating_indices():
        b = ext.iota.matrix.cols[j]
        legs.append((combine(A.left_mults, b).cols, combine(A.right_mults, b).cols))
    if not legs:
        return Subspace.full(field, M.dim)
    rows: list[dict] = [{} for _ in range(len(legs) * M.dim)]
    for q in range(M.dim):
        items = M.lift_items({q: 1})
        for g, (left, right) in enumerate(legs):
            moved = [((k,) + idx[1:], c * x) for idx, c in items for k, x in left[idx[0]].items()]
            moved += [(idx[:-1] + (k,), -(c * x))
                      for idx, c in items for k, x in right[idx[-1]].items()]
            base = g * M.dim
            for r, x in M.reduce_items(moved).items():
                rows[base + r][q] = x
    return Subspace.span(field, M.dim, nullspace(rows, field, M.dim))


@per_extension
def t_space(ext: Extension) -> Subspace:
    """T = (A (x)_B A)^B, the B-central tensor square."""
    return b_centralized(ext, tensor_square(ext))


def unit_tensor(ext: Extension, unit_first: bool) -> Matrix:
    """The map a -> 1 (x) a (unit_first) or a -> a (x) 1 into the tensor square."""
    A = ext.A
    ts = tensor_square(ext)
    cols = [ts.class_of(A.unit, A.basis_vector(a)) if unit_first
            else ts.class_of(A.basis_vector(a), A.unit) for a in range(A.dim)]
    return Matrix.from_columns(A.field, cols, nrows=ts.dim)


# -- hom spaces and the direct-summand criterion -------------------------


def intertwiners(field, dm: int, dn: int, pairs: list[tuple[Matrix, Matrix]]) -> list[Matrix]:
    """Canonical basis of the maps F (dn x dm) with F @ a = b @ F for every pair (a, b)."""
    nunk = dn * dm
    rows: list[dict] = []
    for act_M, act_N in pairs:
        rows += _sylvester_rows(dn, dm, act_M.cols, act_N.transpose().cols, field.char)
    return [Matrix.unvec(field, v, dn, dm) for v in nullspace(rows, field, nunk)]


def hom_space(M: Bimodule, N: Bimodule) -> list[Matrix]:
    """Canonical basis of bimodule maps M -> N (matrices N.dim x M.dim).

    Intertwining is imposed on generating sets of both acting algebras;
    multiplicativity extends it to the full algebras.
    """
    if M.left_algebra.dim != N.left_algebra.dim or \
            M.right_algebra.dim != N.right_algebra.dim:
        raise AlgebraError("hom_space: algebra mismatch")
    pairs = [(M.left_action[i], N.left_action[i])
             for i in M.left_algebra.generating_indices()]
    pairs += [(M.right_action[j], N.right_action[j])
              for j in M.right_algebra.generating_indices()]
    return intertwiners(M.left_algebra.field, M.dim, N.dim, pairs)


@per_extension
def bb_endomorphisms(ext: Extension) -> list[Matrix]:
    """S = End_{B-B}(A): maps commuting with left and right multiplication by
    the generators of B."""
    pairs = []
    for j in ext.B.generating_indices():
        lb, rb = ext.left_mult_iota(j), ext.right_mult_iota(j)
        pairs += [(lb, lb), (rb, rb)]
    return intertwiners(ext.A.field, ext.A.dim, ext.A.dim, pairs)


def bimodule_generators(M: Bimodule) -> list[int]:
    """Indices of basis vectors generating M as a bimodule, greedy in basis order.

    A basis vector is skipped when it already lies in the sub-bimodule
    generated so far.  That sub-bimodule is closed under the actions of the
    generating indices of both acting algebras, which extends to the full
    algebras by multiplicativity.  One reduced span {pivot: row} grows
    vector by vector (``close_span``); vectors are sparse, and each action
    is applied through its column view (``Matrix.image``).
    """
    field = M.left_algebra.field
    acts = [M.left_action[i].image for i in M.left_algebra.generating_indices()]
    acts += [M.right_action[j].image for j in M.right_algebra.generating_indices()]
    span: dict[int, dict] = {}
    gens: list[int] = []
    for i in range(M.dim):
        if insert_row(span, {i: 1}, field):
            gens.append(i)
            close_span(span, [{i: 1}], acts, field, M.dim)
    return gens


def coproduct_summand_test(M: Bimodule, P: Bimodule) -> list[tuple[Matrix, Matrix]] | None:
    """Decide M + * = P^(I) as bimodules: pairs (f_i, g_i) with sum f_i g_i = id_M, or None.

    f_i and g_i range over canonical bases of Hom(P, M) and Hom(M, P).  The
    span of the composition pairing equals the image of
    Hom(P,M) (x) Hom(M,P) -> End(M), so membership of id_M is an exact
    linear solve.  Every f o g and id_M are bimodule maps, and a bimodule
    map is fixed by its values on generators of M, so each product is
    written as its values on ``bimodule_generators(M)``: the system has the
    solutions, and the RREF the pivots, of the one over all of End_k(M).
    The returned pairs are checked to sum to id_M on all of M, adding only
    nonzeros.  Pairs are grouped by the Hom(M, P) basis element.
    """
    field = M.left_algebra.field
    homs_pm, homs_mp = hom_space(P, M), hom_space(M, P)
    if not homs_pm or not homs_mp:
        return [] if M.dim == 0 else None
    by_f = _summand_solve(homs_pm, homs_mp, bimodule_generators(M),
                          Matrix.identity(field, M.dim))
    if by_f is None:
        return None
    by_g: dict[int, dict] = {}
    for a, coeffs in enumerate(by_f):
        for b, x in coeffs.items():
            by_g.setdefault(b, {})[a] = x
    pairs = [(combine(homs_pm, by_g[b]), g) for b, g in enumerate(homs_mp) if b in by_g]
    if any(sum_nonzeros(((1, f.image(g.cols[c]).items()) for f, g in pairs), field.char) != {c: 1}
           for c in range(M.dim)):
        raise SelfCheckError("summand factorization failed its own reconstruction")
    return pairs


def _summand_system(homs_pm: list[Matrix], homs_mp: list[Matrix], gens: list[int],
                    target: Matrix) -> tuple[list[dict], dict]:
    """The products f o g, f-major, and the map ``target``, all from one
    module into another, written on the basis vectors ``gens`` of the source.

    The value on the generator at position p is placed at p * target.nrows
    + row.  Each product is an {index: value} vector: f o g (e_i) is f
    applied to column i of g, read through both column views.
    """
    dim = target.nrows
    g_on_gens = [[(p * dim, g.cols[i]) for p, i in enumerate(gens)] for g in homs_mp]
    products = []
    for f in homs_pm:
        for on_gens in g_on_gens:
            prod = {}
            for off, g_col in on_gens:
                for r, x in f.image(g_col).items():
                    prod[off + r] = x
            products.append(prod)
    return products, {p * dim + r: x for p, i in enumerate(gens)
                      for r, x in target.cols[i].items()}


def _summand_solve(homs_pm: list[Matrix], homs_mp: list[Matrix], gens: list[int],
                   target: Matrix) -> list[dict] | None:
    """Coefficients c with sum_(a, b) c[a][b] f_a o g_b = target on ``gens``
    (``_summand_system``), one {b: value} per f_a, or None when there are none.

    The solution is ``solve_in_span``'s RREF particular solution.
    """
    products, rhs = _summand_system(homs_pm, homs_mp, gens, target)
    coeffs = solve_in_span(rhs, products, target.field)
    if coeffs is None:
        return None
    by_f: list[dict] = [{} for _ in homs_pm]
    for k, x in coeffs.items():
        a, b = divmod(k, len(homs_mp))
        by_f[a][b] = x
    return by_f


def _generator_maps(actions: list[Matrix], elements: list[dict]) -> list[Matrix]:
    """For each m in ``elements`` the map y -> y . m = sum_a y_a actions[a] m,
    column a the action of e_a on m."""
    first = actions[0]
    return [Matrix.from_columns(first.field, [act.image(m) for act in actions], nrows=first.nrows)
            for m in elements]


# -- quasibases ----------------------------------------------------------


class QuasibaseSet:
    """A finite quasibase for one side of the depth-two condition.

    ``pairs`` holds (endo, tensor): for the right side these are
    (gamma_i, u_i) with gamma_i a B-B-endomorphism of A and u_i a
    B-central class in the extension's ``tensor_square``; for the left side
    (beta_i, t_i).  ``right_d2_quasibase`` and ``left_d2_quasibase`` return
    one pair per R-generator of T whose endomorphism is not zero: u_i (t_i)
    is the generator itself, so the size is at most the number of T's left
    (right) R-generators.  By the lemma in the module docstring any
    quasibase can be moved onto those generators, so none is lost.
    """

    __slots__ = ("side", "pairs")

    def __init__(self, side: str, pairs: list[tuple[Matrix, dict]]):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.side = side
        self.pairs = pairs

    def __len__(self):
        return len(self.pairs)


def verify_quasibase(ext: Extension, qb: QuasibaseSet) -> bool:
    """Check the quasibase identity of the side ``qb.side`` on every pair of
    elements, plus that each endomorphism of the pairs is B-B-linear and each
    tensor B-central.

    The right identity x (x) y = sum_i x gamma_i(y) u_i is left A-linear in
    x (A acts on the tensor square by a representation), the left identity
    x (x) y = sum_i t_i beta_i(x) y right A-linear in y (by an
    anti-representation).  So the free variable is set to 1 and the identity
    checked on every basis element e_a: 1 (x) e_a = sum_i gamma_i(e_a) u_i,
    or e_a (x) 1 = sum_i t_i beta_i(e_a) (``DualBasis.reconstructs``).
    B-B-linearity is checked for b in gens(B): the b whose iota(b) commutes
    with an endomorphism on both sides form a subalgebra of B, as iota is a
    unital algebra map.
    """
    right = qb.side == "right"
    ts = tensor_square(ext)
    mults = [m for j in ext.B.generating_indices()
             for m in (ext.left_mult_iota(j), ext.right_mult_iota(j))]
    central = t_space(ext)
    if not all(all(endo @ m == m @ endo for m in mults) and central.contains(t)
               for endo, t in qb.pairs):
        return False
    pairs = DualBasis([t for _, t in qb.pairs], [endo for endo, _ in qb.pairs])
    return pairs.reconstructs(ts.left_action if right else ts.right_action,
                              unit_tensor(ext, unit_first=right))


def _require_right_quasibase(ext: Extension, rqb: QuasibaseSet) -> None:
    """Raise AlgebraError unless rqb is a right quasibase passing ``verify_quasibase``."""
    if rqb is None or rqb.side != "right":
        raise AlgebraError("build_T needs a right quasibase")
    if not verify_quasibase(ext, rqb):
        raise AlgebraError("quasibase failed verification")


def right_d2_quasibase(ext: Extension) -> QuasibaseSet | None:
    """Right depth-two quasibase (gamma_i, u_i), or None when the
    tensor square is not a summand of a free A-B-bimodule power of A."""
    return _d2_quasibase(ext, "right")


def left_d2_quasibase(ext: Extension) -> QuasibaseSet | None:
    """Left depth-two quasibase (beta_i, t_i), mirror of the right case."""
    return _d2_quasibase(ext, "left")


@per_extension
def _d2_quasibase(ext: Extension, side: str) -> QuasibaseSet | None:
    """The quasibase of one side on T's R-generators m_j, or None.

    Solves 1 (x) a = sum_j gamma_j(a) m_j (right, m_j generating T as a
    left R-module) or a (x) 1 = sum_j m_j beta_j(a) (left, as a right
    R-module) for gamma_j, beta_j in the span of S = ``bb_endomorphisms``,
    at the bimodule generators a of A over B: the products are
    (y -> y m_j) o s or (y -> m_j y) o s for s in S (``_summand_system``).
    """
    from .bialgebroid import t_core
    right = side == "right"
    core = t_core(ext)
    gens = core.left_gens if right else core.right_gens
    maps = core.left_maps if right else core.right_maps
    S = bb_endomorphisms(ext)
    by_tensor = _summand_solve([maps[g] for g in gens], S,
                               bimodule_generators(algebra_bimodule(ext, "B", "B")),
                               unit_tensor(ext, unit_first=right))
    if by_tensor is None:
        return None
    result = QuasibaseSet(side, [(combine(S, c), core.t_basis[g])
                                 for c, g in zip(by_tensor, gens) if c])
    if not verify_quasibase(ext, result):
        raise SelfCheckError(f"derived {side} quasibase failed verification")
    return result


def group_quasibase(ext: Extension, table: list[list[int]], subgroup: list[int],
                    transversal: list[int], side: str) -> QuasibaseSet:
    """The coset-projection quasibase for k[N] in k[G], N normal.

    gamma_i projects onto the coset N g_i; the tensors are g_i^-1 (x) g_i
    (right side) or g_i (x) g_i^-1 (left side).
    """
    A = ext.A
    field = A.field
    ts = tensor_square(ext)
    inv = group_inverses(table)
    sub = sorted(set(subgroup))
    pairs = []
    for g in transversal:
        coset = {table[m][g] for m in sub}
        proj = Matrix.from_columns(field, [{h: 1} if h in coset else {}
                                           for h in range(A.dim)], nrows=A.dim)
        if side == "right":
            tensor = ts.class_of(A.basis_vector(inv[g]), A.basis_vector(g))
        else:
            tensor = ts.class_of(A.basis_vector(g), A.basis_vector(inv[g]))
        pairs.append((proj, tensor))
    qb = QuasibaseSet(side, pairs)
    if not verify_quasibase(ext, qb):
        raise AlgebraError("transversal quasibase failed verification")
    return qb


# -- H-separability, composites, split projectivity ----------------------


def h_separability_test(ext: Extension) -> list[tuple[Matrix, Matrix]] | None:
    """Is the tensor square a summand of a free power of A as an A-A-bimodule?"""
    return coproduct_summand_test(tensor_square(ext), algebra_bimodule(ext, "A", "A"))


def compose_extensions(inner: Extension, outer: Extension) -> Extension:
    """The composite A|C of inner B|C and outer A|B."""
    if inner.A is not outer.B and inner.A.nonzeros != outer.B.nonzeros:
        raise AlgebraError("compose: inner target must equal outer source")
    iota = AlgebraMorphism(inner.B, outer.A, outer.iota.matrix @ inner.iota.matrix,
                           validate=False)
    return Extension(inner.B, outer.A, iota)


class DualBasis:
    """Dual bases of a module M over an algebra S: elements m_i of M and
    functionals phi_i: M -> S with x = sum_i phi_i(x) . m_i for every x."""

    __slots__ = ("elements", "functionals")

    def __init__(self, elements: list[dict], functionals: list[Matrix]):
        self.elements = elements
        self.functionals = functionals

    def __len__(self):
        return len(self.elements)

    def reconstructs(self, actions: list[Matrix], target: Matrix) -> bool:
        """Whether sum_i phi_i(x) . m_i = target(x) on every basis vector x = e_c,
        s . m being sum_a s_a actions[a] m: each actions[a] m_i is computed once
        and weighted by the column c of phi_i.  A right quasibase (gamma_i, u_i)
        is one for the target a -> 1 (x) a (``verify_quasibase``)."""
        images = [[act.image(m) for act in actions] for m in self.elements]
        mod = target.field.char
        return all(sum_nonzeros(((x, imgs[a].items())
                                 for imgs, phi in zip(images, self.functionals)
                                 for a, x in phi.cols[c].items()), mod) == target.cols[c]
                   for c in range(target.ncols))

    def check(self, actions: list[Matrix], err: str) -> None:
        """Raise SelfCheckError(err) unless x = sum_i phi_i(x) . m_i on M's basis."""
        if not self.reconstructs(actions, Matrix.identity(actions[0].field, actions[0].nrows)):
            raise SelfCheckError(err)


class DualBasisTensor(TensorRealization):
    """M (x)_R N for a left R-module N with a dual basis (n_j, phi_j), realized
    as the image of the idempotent (x_i) -> (sum_i x_i . phi_j(n_i))_j on M^n.

    x (x) y -> (x . phi_j(y))_j embeds M (x)_R N in M^n, through M's right
    R-action, and (x_j) -> sum_j x_j (x) n_j inverts it on the image, so no
    quotient of M (x)_k N is formed.  Ambient index (j, i) flattens to
    j * M.dim + i.  The image is spanned by the classes of e_i (x) n_j and
    kept as its reduced echelon basis, whose coordinates are the class
    coordinates; a basis vector lifts to sum_j x_j (x) n_j, a sum of pure
    tensors and not one.
    """

    __slots__ = ("M", "db", "image", "basis", "pivots", "_phi_at")

    def __init__(self, M: Bimodule, N: Bimodule, db: DualBasis):
        self.M = M
        self.db = db
        # the nonzeros (j, b, z) of phi_j(e_f) = sum_b z e_b, for each basis vector e_f of N
        self._phi_at = [[(j, b, z) for j, phi in enumerate(db.functionals)
                         for b, z in phi.cols[f].items()] for f in range(N.dim)]
        field = M.left_algebra.field
        self.image = Subspace.span(field, len(db) * M.dim, [
            self._ambient([(1, {i: 1}, n)]) for n in db.elements for i in range(M.dim)])
        self.basis = self.image.basis
        self.pivots = self.image.pivots

    @property
    def dim(self) -> int:
        return self.image.dim

    def _ambient(self, terms) -> dict:
        """sum c * x . phi_j(y) in slot j of M^n, over the (c, x, y) terms
        with c native.  The x are first added per slot j and basis vector e_b
        of R, so each action of R is applied once per slot."""
        mod = self.M.left_algebra.field.char
        phi_at = self._phi_at
        parts: dict[tuple[int, int], list] = {}
        for c, x, y in terms:
            items = x.items()
            for f, yf in y.items():
                cy = c * yf
                for j, b, z in phi_at[f]:
                    parts.setdefault((j, b), []).append((cy * z, items))
        right, dm = self.M.right_action, self.M.dim
        return sum_nonzeros(((1, [(j * dm + i, w) for i, w in
                                  right[b].image(sum_nonzeros(part, mod)).items()])
                             for (j, b), part in parts.items()), mod)

    def class_of_sum(self, terms) -> dict:
        """Coordinates of sum c * x (x) y over the (c, x, y) terms, x in M and
        y in N coordinates, in the image's reduced basis.

        An embedded tensor lies in the image, fixed by the idempotent as
        sum_j phi_j(y) . n_j = y, so its coordinates are its entries at the
        basis's pivots.
        """
        field = self.M.left_algebra.field
        amb = self._ambient([(entry(field, {0: c}).get(0, 0), x, y) for c, x, y in terms])
        return {i: amb[p] for i, p in enumerate(self.pivots) if p in amb}

    def lift_items(self, coords: dict) -> list[tuple[tuple, object]]:
        """Items over the plain factors of sum_j x_j (x) n_j, (x_j) the image
        vector with these coordinates."""
        mod = self.M.left_algebra.field.char
        dm = self.M.dim
        slots: dict[int, dict] = {}
        for k, x in sum_nonzeros(((c, self.basis[q].items()) for q, c in coords.items()),
                                 mod).items():
            j, i = divmod(k, dm)
            slots.setdefault(j, {})[i] = x
        out = []
        for j, x_j in slots.items():
            n_j = self.db.elements[j].items()
            for idx, c in self.M.lift_items(x_j):
                out.extend((idx + (f,), (c * y) % mod if mod else c * y) for f, y in n_j)
        return out


def split_projectivity_audit(ext: Extension, p: Matrix) -> DualBasis:
    """Dual bases for A as a left B-module from a bimodule splitting p of iota.

    p must be a B-B-bimodule projection A -> B with p o iota = id_B; the
    returned dual basis reconstructs y = sum iota(f(y)) * m on every basis y.
    """
    A, B = ext.A, ext.B
    field = A.field
    if (p.nrows, p.ncols) != (B.dim, A.dim):
        raise AlgebraError("p has wrong shape")
    if p @ ext.iota.matrix != Matrix.identity(field, B.dim):
        raise AlgebraError("p does not split iota")
    lb = [ext.left_mult_iota(j) for j in range(B.dim)]
    for j in range(B.dim):
        if p @ lb[j] != B.left_mults[j] @ p:
            raise AlgebraError("p is not left B-linear")
        if p @ ext.right_mult_iota(j) != B.right_mults[j] @ p:
            raise AlgebraError("p is not right B-linear")
    rqb = right_d2_quasibase(ext)
    if rqb is None:
        raise AlgebraError("extension is not right depth two")
    ts = tensor_square(ext)
    db = DualBasis([], [])
    for gamma, u in rqb.pairs:
        for (s, t), c in ts.lift_items(u):
            # functional y -> p(gamma(y) * (c * e_s)), element e_t
            db.functionals.append(p @ A.right_mults[s].scaled(c) @ gamma)
            db.elements.append(A.basis_vector(t))
    db.check(lb, "dual basis reconstruction failed")
    return db
