"""Bimodules, balanced tensor products, hom spaces and depth-two quasibases.

Elements are {index: value} vectors and maps are column-stored matrices,
as in ``linalg``; a class, a quasibase tensor and a hom-space basis map
are built from nonzeros and never pass through a dense list.  Every
tensor product over an algebra is one construction:
``balanced_tensor(M, N)`` realizes M (x)_C N as a sparse quotient of
M (x)_k N (reduced relation rows and free columns).  Outer actions,
classes of pure tensors and every map acting on one leg are computed the
same way: lift sparsely, act on one leg, reduce.  A sum of pure tensors is
added in one ambient vector and reduced once (``class_of_sum``), and a map
out of a quotient given on pure tensors of basis vectors is summed over
the sparse lifts (``matrix_of``).  The
tensor square A (x)_B A is the first instance; higher powers nest it on
the left, (A (x)_B A) (x)_B A and so on, so ambient dimensions stay
manageable and every quotient basis vector lifts to a single pure tensor.
Actions of B are those of A pulled back along iota (``restrict``).

The depth-two decision is span membership of the identity in the image
of the composition pairing Hom(P, M) x Hom(M, P) -> End(M).  The pairing's
products are bimodule maps, so the solve compares them on bimodule
generators of M only (``bimodule_generators``), never on all of End_k(M);
a successful solve is converted into a quasibase and re-verified before
being returned: the quasibase identity is A-linear in one argument, so it
is checked with that argument 1 and the other on every basis element.
For depth two, M = A (x)_B A and P = A, and neither hom space is solved
for: Hom(A, A (x)_B A) is read off
T = (A (x)_B A)^B through f -> f(1), and Hom(A (x)_B A, A) off
S = End_{B-B}(A) through g -> g(1 (x) -) or g(- (x) 1) (Kadison and
Szlachanyi), both brought into the canonical basis ``hom_space`` would
return.  The generic ``coproduct_summand_test`` solves both hom spaces and
serves H-separability and projectivity over R.
"""

from __future__ import annotations

import copy
import itertools

from .algebras import (AlgebraError, AlgebraMorphism, Extension, FiniteAlgebra,
                       SelfCheckError, action_cases, field_as_algebra, group_inverses,
                       per_extension, require)
from .linalg import (Matrix, Subspace, combine, insert_row, nullspace, quotient_structure,
                     reverse_rref, solve_in_span, sum_nonzeros)


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



class BalancedTensor(Bimodule):
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

    def class_of(self, x: dict, y: dict) -> dict:
        """Quotient coordinates of x (x) y for x in M and y in N coordinates."""
        return self.class_of_sum([(1, x, y)])

    def matrix_of(self, target_dim: int, pure) -> Matrix:
        """The linear map out of this quotient that sends the class of a pure
        tensor of plain basis vectors e_i (x) e_j (x) ... to ``pure(i, j, ...)``.

        Column q sums ``pure`` over the sparse lift of basis vector q; images
        are {index: value} coordinates, added into one sparse column.
        """
        field = self.quot.field
        cols = [sum_nonzeros(((coeff, pure(*idx).items())
                              for idx, coeff in self.lift_items({q: 1})), field.char)
                for q in range(self.dim)]
        return Matrix.from_columns(field, cols, nrows=target_dim)

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


class SummandFactorization:
    """Maps witnessing M + complement = P^(I): pairs (f_i: P->M, g_i: M->P)
    with sum f_i o g_i = id_M."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: list[tuple[Matrix, Matrix]]):
        self.pairs = pairs

    def __len__(self):
        return len(self.pairs)


def bimodule_generators(M: Bimodule) -> list[int]:
    """Indices of basis vectors generating M as a bimodule, greedy in basis order.

    A basis vector is skipped when it already lies in the sub-bimodule
    generated so far.  That sub-bimodule is closed under the actions of the
    generating indices of both acting algebras, which extends to the full
    algebras by multiplicativity.  One reduced span {pivot: row} grows
    vector by vector through ``insert_row``; vectors are sparse, and each
    action is applied through its column view (``Matrix.image``).
    """
    field = M.left_algebra.field
    acts = [M.left_action[i] for i in M.left_algebra.generating_indices()]
    acts += [M.right_action[j] for j in M.right_algebra.generating_indices()]
    span: dict[int, dict] = {}
    gens: list[int] = []
    for i in range(M.dim):
        if len(span) == M.dim:
            break
        if not insert_row(span, {i: 1}, field):
            continue
        gens.append(i)
        frontier = [{i: 1}]
        while frontier:
            w = frontier.pop()
            for act in acts:
                img = act.image(w)
                if insert_row(span, img, field):
                    frontier.append(img)
    return gens


def coproduct_summand_test(M: Bimodule, P: Bimodule) -> SummandFactorization | None:
    """Decide M + * = P^(I) as bimodules; return a finite factorization or None."""
    return summand_factorization(M, hom_space(P, M), hom_space(M, P))


def summand_factorization(M: Bimodule, homs_pm: list[Matrix],
                          homs_mp: list[Matrix]) -> SummandFactorization | None:
    """Solve sum f_i o g_i = id_M over bases of Hom(P, M) and Hom(M, P).

    The span of the composition pairing equals the image of
    Hom(P,M) (x) Hom(M,P) -> End(M), so membership of id_M is an exact
    linear solve.  Every f o g and id_M are bimodule maps, and a bimodule
    map is fixed by its values on generators of M, so each product is
    written as its values on ``bimodule_generators(M)``: the system has the
    solutions, and the RREF the pivots, of the one over all of End_k(M).
    The products are built sparse by ``_summand_system``, and the returned
    pairs are checked to sum to id_M on all of M, adding only nonzeros.
    Pairs are grouped by the Hom(M, P) basis element.
    """
    field = M.left_algebra.field
    if not homs_pm or not homs_mp:
        if M.dim == 0:
            return SummandFactorization([])
        return None
    products, target = _summand_system(M, homs_pm, homs_mp)
    coeffs = solve_in_span(target, products, field)
    if coeffs is None:
        return None
    by_g: dict[int, dict] = {}
    for k, x in coeffs.items():
        a, b = divmod(k, len(homs_mp))
        by_g.setdefault(b, {})[a] = x
    pairs = [(combine(homs_pm, by_g[b]), g) for b, g in enumerate(homs_mp) if b in by_g]
    if any(sum_nonzeros(((1, f.image(g.cols[c]).items()) for f, g in pairs), field.char) != {c: 1}
           for c in range(M.dim)):
        raise SelfCheckError("summand factorization failed its own reconstruction")
    return SummandFactorization(pairs)


def _summand_system(M: Bimodule, homs_pm: list[Matrix],
                    homs_mp: list[Matrix]) -> tuple[list[dict], dict]:
    """The products f o g, f-major, and id_M, written on ``bimodule_generators(M)``.

    The value on the generator at position p is placed at p * M.dim + row.
    Each product is an {index: value} vector: f o g (e_i) is f applied to
    column i of g, read through both column views.
    """
    dim = M.dim
    gens = bimodule_generators(M)
    g_on_gens = [[(p * dim, g.cols[i]) for p, i in enumerate(gens)] for g in homs_mp]
    products = []
    for f in homs_pm:
        for on_gens in g_on_gens:
            prod = {}
            for off, g_col in on_gens:
                for r, x in f.image(g_col).items():
                    prod[off + r] = x
            products.append(prod)
    return products, {p * dim + i: 1 for p, i in enumerate(gens)}


# -- quasibases ----------------------------------------------------------


class QuasibaseSet:
    """A finite quasibase for one side of the depth-two condition.

    ``pairs`` holds (endo, tensor): for the right side these are
    (gamma_i, u_i) with gamma_i a B-B-endomorphism of A and u_i a
    B-central class in the tensor square; for the left side (beta_i, t_i).
    """

    __slots__ = ("side", "pairs", "ts")

    def __init__(self, side: str, pairs: list[tuple[Matrix, dict]], ts: BalancedTensor):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.side = side
        self.pairs = pairs
        self.ts = ts

    def __len__(self):
        return len(self.pairs)


def _verify_quasibase(ext: Extension, qb: QuasibaseSet, side: str) -> bool:
    """Check the quasibase identity of one side on every pair of elements,
    plus that each endomorphism of the pairs is B-B-linear and each tensor
    B-central.

    The right identity x (x) y = sum_i x gamma_i(y) u_i is left A-linear in
    x (A acts on the tensor square by a representation), the left identity
    x (x) y = sum_i t_i beta_i(x) y right A-linear in y (by an
    anti-representation).  So the free variable is set to 1 and the identity
    checked on every basis element e_a: 1 (x) e_a = sum_i gamma_i(e_a) u_i,
    or e_a (x) 1 = sum_i t_i beta_i(e_a).  B-B-linearity is checked for b in
    gens(B): the b whose iota(b) commutes with an endomorphism on both sides
    form a subalgebra of B, as iota is a unital algebra map.
    """
    right = side == "right"
    ts = qb.ts
    A = ext.A
    mults = [m for j in ext.B.generating_indices()
             for m in (ext.left_mult_iota(j), ext.right_mult_iota(j))]
    central = t_space(ext)
    if not all(all(endo @ m == m @ endo for m in mults) and central.contains(t)
               for endo, t in qb.pairs):
        return False
    mod = A.field.char
    actions = ts.left_action if right else ts.right_action
    images = [(endo, [act.image(t) for act in actions]) for endo, t in qb.pairs]
    for a in range(A.dim):
        expected = sum_nonzeros(((c, imgs[k].items()) for endo, imgs in images
                                 for k, c in endo.cols[a].items()), mod)
        e_a = A.basis_vector(a)
        if (ts.class_of(A.unit, e_a) if right else ts.class_of(e_a, A.unit)) != expected:
            return False
    return True


def verify_right_quasibase(ext: Extension, qb: QuasibaseSet) -> bool:
    """``_verify_quasibase`` for (gamma_i, u_i): x (x) y = sum_i x gamma_i(y) u_i."""
    return _verify_quasibase(ext, qb, "right")


def verify_left_quasibase(ext: Extension, qb: QuasibaseSet) -> bool:
    """``_verify_quasibase`` for (beta_i, t_i): x (x) y = sum_i t_i beta_i(x) y."""
    return _verify_quasibase(ext, qb, "left")


def right_d2_quasibase(ext: Extension) -> QuasibaseSet | None:
    """Right depth-two quasibase (gamma_i, u_i), or None when the
    tensor square is not a summand of a free A-B-bimodule power of A."""
    return _d2_quasibase(ext, "right")


def left_d2_quasibase(ext: Extension) -> QuasibaseSet | None:
    """Left depth-two quasibase (beta_i, t_i), mirror of the right case."""
    return _d2_quasibase(ext, "left")


@per_extension
def _d2_quasibase(ext: Extension, side: str) -> QuasibaseSet | None:
    right = side == "right"
    ts = tensor_square(ext)
    M = restrict(ts, right=ext.iota) if right else restrict(ts, left=ext.iota)
    fact = summand_factorization(M, *_d2_hom_bases(ext, right))
    result = None
    if fact is not None:
        # gamma_i = g_i(1 (x) -) on the right side, beta_i = g_i(- (x) 1) on the left
        unit_map = unit_tensor(ext, unit_first=right)
        pairs = [(g @ unit_map, f.image(ext.A.unit)) for f, g in fact.pairs]
        result = QuasibaseSet(side, pairs, ts)
        if not _verify_quasibase(ext, result, side):
            raise SelfCheckError(f"derived {side} quasibase failed verification")
    return result


def _d2_hom_bases(ext: Extension, right: bool) -> tuple[list[Matrix], list[Matrix]]:
    """Hom(A, A (x)_B A) and Hom(A (x)_B A, A) as A-B-bimodule maps (right)
    or B-A-bimodule maps (left), in the canonical basis of ``hom_space``.

    f -> f(1) identifies the first with T: f_t(a) = a.t (right) or t.a
    (left).  g -> g(1 (x) -) (right) or g(- (x) 1) (left) identifies the
    second with S = End_{B-B}(A): g(x (x) y) = x gamma(y) or beta(x) y,
    read on the pure tensor e_i (x) e_j each quotient basis vector lifts to.
    Both spans go through ``reverse_rref``, which returns the nullspace
    basis ``hom_space`` would solve for, with its unknowns in the same order.
    The rows are written from nonzeros only: the tensor-square actions act
    through their column views, and A's multiplication through its nonzero
    structure constants.
    """
    A = ext.A
    field, n = A.field, A.dim
    ts = tensor_square(ext)
    d = ts.dim
    acts = ts.left_action if right else ts.right_action
    into = []
    for t in t_space(ext).basis:
        # column j of f_t is e_j acting on t; unknown (a, j) of the d x n map sits at a*n + j
        row = {}
        for j, act in enumerate(acts):
            for a, x in act.image(t).items():
                row[a * n + j] = x
        into.append(row)
    pure = [divmod(f, n) for f in ts.quot.free]
    nz, mod = A.nonzeros, field.char
    onto = []
    for s in bb_endomorphisms(ext):
        cols = s.cols
        row = {}
        for q, (i, j) in enumerate(pure):
            # e_i s(e_j) on the right side, s(e_i) e_j on the left
            img = (sum_nonzeros(((x, nz[i][k].items()) for k, x in cols[j].items()), mod)
                   if right
                   else sum_nonzeros(((x, nz[k][j].items()) for k, x in cols[i].items()), mod))
            for a, x in img.items():
                row[a * d + q] = x
        onto.append(row)
    return ([Matrix.unvec(field, v, d, n) for v in reverse_rref(into, field, d * n)],
            [Matrix.unvec(field, v, n, d) for v in reverse_rref(onto, field, n * d)])


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
    qb = QuasibaseSet(side, pairs, ts)
    if not _verify_quasibase(ext, qb, side):
        raise AlgebraError("transversal quasibase failed verification")
    return qb


# -- H-separability, composites, split projectivity ----------------------


def h_separability_test(ext: Extension) -> SummandFactorization | None:
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
    """Dual bases: pairs (functional, element) with x = sum_i iota(f_i(x)) . m_i."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: list[tuple[Matrix, dict]]):
        self.pairs = pairs

    def __len__(self):
        return len(self.pairs)


def split_projectivity_audit(ext: Extension, p: Matrix) -> DualBasis:
    """Dual bases for A as a left B-module from a bimodule splitting p of iota.

    p must be a B-B-bimodule projection A -> B with p o iota = id_B; the
    returned pairs reconstruct y = sum iota(f(y)) * m on every basis y.
    """
    A, B = ext.A, ext.B
    field = A.field
    if (p.nrows, p.ncols) != (B.dim, A.dim):
        raise AlgebraError("p has wrong shape")
    if p @ ext.iota.matrix != Matrix.identity(field, B.dim):
        raise AlgebraError("p does not split iota")
    for j in range(B.dim):
        if p @ ext.left_mult_iota(j) != B.left_mult(j) @ p:
            raise AlgebraError("p is not left B-linear")
        if p @ ext.right_mult_iota(j) != B.right_mult(j) @ p:
            raise AlgebraError("p is not right B-linear")
    rqb = right_d2_quasibase(ext)
    if rqb is None:
        raise AlgebraError("extension is not right depth two")
    ts = rqb.ts
    n = A.dim
    pairs: list[tuple[Matrix, dict]] = []
    for gamma, u in rqb.pairs:
        for (s, t), c in ts.lift_items(u):
            # functional y -> p(gamma(y) * (c * e_s)), element e_t
            functional = p @ A.right_mult(s).scaled(c) @ gamma
            pairs.append((functional, A.basis_vector(t)))
    for y in range(n):
        ey = A.basis_vector(y)
        acc = sum_nonzeros(((1, A.mul(ext.iota.matrix.image(f.image(ey)), m).items())
                            for f, m in pairs), field.char)
        if acc != {y: 1}:
            raise SelfCheckError("dual basis reconstruction failed")
    return DualBasis(pairs)
