"""Structure-constant algebras, morphisms, extensions and group algebras.

An algebra lives entirely in coordinates: a cube c[i][j][k] with
e_i e_j = sum_k c[i][j][k] e_k plus the coordinates of the unit.
Extensions are unit-preserving morphisms iota: B -> A; they are never
assumed injective, and all downstream code multiplies by iota(b)
rather than by b itself.
"""

from __future__ import annotations

import functools

from .linalg import Matrix, Subspace, combine, entries, insert_row, nullspace, sum_nonzeros
# re-exported: callers and profiling tools look solve_in_span up in this module
from .linalg import solve_in_span  # noqa: F401


class AlgebraError(ValueError):
    """Invalid algebraic data; the message names the first violated identity."""


class SelfCheckError(AlgebraError):
    """A computed result failed its own verification: a bug, not bad input."""


class FiniteAlgebra:
    """A finite-dimensional unital associative algebra over an exact field."""

    __slots__ = ("field", "dim", "structure", "unit", "_table", "_nonzeros", "_left",
                 "_right", "_generators")

    def __init__(self, field, structure: list[list[list]], unit: list, validate: bool = True):
        self.field = field
        self.dim = len(structure)
        self.structure = structure
        self.unit = unit
        self._table: list[list[list]] | None = None
        self._nonzeros: list[list[dict]] | None = None
        self._left: list[Matrix] | None = None
        self._right: list[Matrix] | None = None
        self._generators: list[int] | None = None
        if validate:
            self._validate()

    def _validate(self):
        """Check the shapes, the unit law and associativity.

        Associativity is checked as (e_i g) e_k = e_i (g e_k) for the
        generators g of ``generating_indices`` and all i, k, which is exact.
        Call y good if (xy)z = x(yz) for all x, z.  The good elements form a
        subspace containing 1, and it is closed under products: for good
        y1, y2, (x(y1 y2))z = ((x y1) y2)z = (x y1)(y2 z) = x(y1(y2 z))
        = x((y1 y2)z).  The generators are chosen so that 1 and their right
        words span the algebra, which needs no associativity, so every
        element is good.  Only when a generator fails are all basis triples
        scanned, to name the first failing one in (i, j, k) order.
        """
        n = self.dim
        if n == 0:
            raise AlgebraError("algebra must have positive dimension")
        for i in range(n):
            if len(self.structure[i]) != n:
                raise AlgebraError("structure cube is not dim x dim x dim")
            for j in range(n):
                if len(self.structure[i][j]) != n:
                    raise AlgebraError("structure cube is not dim x dim x dim")
        if len(self.unit) != n:
            raise AlgebraError("unit vector has wrong length")
        # unit law on both sides
        for i in range(n):
            e_i = self.basis_vector(i)
            if self.mul(self.unit, e_i) != e_i:
                raise AlgebraError(f"unit law fails: 1*e_{i} != e_{i}")
            if self.mul(e_i, self.unit) != e_i:
                raise AlgebraError(f"unit law fails: e_{i}*1 != e_{i}")
        nz = self.nonzeros
        self._generators = _greedy_generators(nz, self.unit, self.field.one)
        if all(_associates(nz, i, g, k)
               for g in self._generators for i in range(n) for k in range(n)):
            return
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if not _associates(nz, i, j, k):
                        raise AlgebraError(
                            f"associativity fails: (e_{i}e_{j})e_{k} != e_{i}(e_{j}e_{k})")

    # -- basic structure ----------------------------------------------

    @property
    def table(self) -> list[list[list]]:
        """table[i][j] = coordinates of e_i * e_j."""
        if self._table is None:
            self._table = [[list(self.structure[i][j]) for j in range(self.dim)]
                           for i in range(self.dim)]
        return self._table

    @property
    def nonzeros(self) -> list[list[dict]]:
        """nonzeros[i][j] = the nonzero coordinates {k: value} of e_i * e_j."""
        if self._nonzeros is None:
            self._nonzeros = [[{k: c for k, c in enumerate(tij) if c} for tij in ti]
                              for ti in self.table]
        return self._nonzeros

    def basis_vector(self, i: int) -> list:
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    def mul(self, x, y) -> list:
        """Coordinates of x * y for dense or {index: value} x and y, summed
        over the nonzero structure constants."""
        nz = self.nonzeros
        ys = entries(y)
        out = [self.field.zero] * self.dim
        for k, v in sum_nonzeros((xi * yj, nz[i][j].items())
                                 for i, xi in entries(x) for j, yj in ys).items():
            out[k] = v
        return out

    @property
    def left_mults(self) -> list[Matrix]:
        """Matrices of x -> e_i * x, one per basis element."""
        if self._left is None:
            n, nz = self.dim, self.nonzeros
            self._left = [Matrix.from_columns(self.field, nz[a], nrows=n) for a in range(n)]
        return self._left

    @property
    def right_mults(self) -> list[Matrix]:
        """Matrices of x -> x * e_j, one per basis element."""
        if self._right is None:
            n, nz = self.dim, self.nonzeros
            self._right = [Matrix.from_columns(self.field, [nz[i][b] for i in range(n)], nrows=n)
                           for b in range(n)]
        return self._right

    def left_mult(self, i: int) -> Matrix:
        return self.left_mults[i]

    def right_mult(self, j: int) -> Matrix:
        return self.right_mults[j]

    def is_commutative(self) -> bool:
        t = self.table
        return all(t[i][j] == t[j][i] for i in range(self.dim) for j in range(self.dim))

    def generating_indices(self) -> list[int]:
        """A small set of basis indices generating the whole unital algebra.

        Greedy over the basis order, so the result is deterministic.
        Intertwining constraints written over this set extend to the whole
        algebra by multiplicativity and linearity.
        """
        if self._generators is None:
            self._generators = _greedy_generators(self.nonzeros, self.unit, self.field.one)
        return self._generators


def _associates(nz, i: int, j: int, k: int) -> bool:
    """(e_i e_j) e_k == e_i (e_j e_k)."""
    return (sum_nonzeros((c, nz[m][k].items()) for m, c in nz[i][j].items())
            == sum_nonzeros((c, nz[i][m].items()) for m, c in nz[j][k].items()))


def _greedy_generators(nz, unit: list, one) -> list[int]:
    """Basis indices, taken greedily in basis order, whose right words span the algebra.

    The span of 1 and of the right words g_1 g_2 ... g_r, multiplied left to
    right, is grown as one reduced basis: a word that enlarges it is
    multiplied on the right by every generator in turn.  An e_i outside the
    span becomes the next generator.  For an associative algebra the span
    is the subalgebra the generators generate.
    """
    n = len(nz)
    span: dict[int, dict] = {}
    words = [{m: c for m, c in enumerate(unit) if c}]
    insert_row(span, dict(words[0]), one)
    gens: list[int] = []
    for i in range(n):
        if len(span) == n:
            break
        if not insert_row(span, {i: one}, one):
            continue
        gens.append(i)
        # the span is closed under the earlier generators: close it under e_i too
        todo = [(w, (i,)) for w in words]
        words.append({i: one})
        todo.append((words[-1], tuple(gens)))
        while todo and len(span) < n:
            w, by = todo.pop()
            for g in by:
                v = sum_nonzeros((c, nz[m][g].items()) for m, c in w.items())
                if insert_row(span, dict(v), one):
                    words.append(v)
                    todo.append((v, tuple(gens)))
    return gens


def make_algebra(field, structure, unit) -> FiniteAlgebra:
    """Validate and build an algebra; raises AlgebraError naming the first violation."""
    return FiniteAlgebra(field, structure, unit, validate=True)


def field_as_algebra(field) -> FiniteAlgebra:
    return FiniteAlgebra(field, [[[field.one]]], [field.one], validate=False)


def matrix_algebra(field, n: int) -> FiniteAlgebra:
    """M_n via matrix units, basis e_{uv} at index u*n + v."""
    dim = n * n
    zero, one = field.zero, field.one
    structure = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for u in range(n):
        for v in range(n):
            for w in range(n):
                for x in range(n):
                    if v == w:
                        structure[u * n + v][w * n + x][u * n + x] = one
    unit = [zero] * dim
    for u in range(n):
        unit[u * n + u] = one
    return FiniteAlgebra(field, structure, unit, validate=False)


# -- groups ------------------------------------------------------------


def _is_index_list(xs, n: int) -> bool:
    return isinstance(xs, list) and all(
        isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n for x in xs)


def _check_group_table(table: list[list[int]]) -> int:
    """Validate a Cayley table (indices); returns the identity index."""
    if not isinstance(table, list) or not table:
        raise AlgebraError("group table must be a non-empty list of rows")
    n = len(table)
    for row in table:
        if not _is_index_list(row, n) or len(row) != n:
            raise AlgebraError("group table is not an n x n table of indices")
    identity = -1
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and all(table[i][e] == i for i in range(n)):
            identity = e
            break
    if identity < 0:
        raise AlgebraError("group table has no identity")
    for i in range(n):
        if sorted(table[i]) != list(range(n)) or sorted(r[i] for r in table) != list(range(n)):
            raise AlgebraError("group table rows/columns are not permutations")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise AlgebraError(
                        f"group table not associative at ({i},{j},{k})")
    return identity


def group_inverses(table: list[list[int]]) -> list[int]:
    n = len(table)
    identity = _check_group_table(table)
    inv = [0] * n
    for i in range(n):
        inv[i] = table[i].index(identity)
    return inv


def group_algebra(field, table: list[list[int]]) -> FiniteAlgebra:
    """k[G] from a validated Cayley table; basis indexed by group elements."""
    identity = _check_group_table(table)
    n = len(table)
    zero, one = field.zero, field.one
    structure = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            structure[i][j][table[i][j]] = one
    unit = [zero] * n
    unit[identity] = one
    return FiniteAlgebra(field, structure, unit, validate=False)


def subgroup_extension(field, table: list[list[int]], subgroup: list[int]):
    """Extension k[N] -> k[G] for a (not necessarily normal) subgroup N.

    Returns (Extension, sorted subgroup indices).
    """
    identity = _check_group_table(table)
    if not _is_index_list(subgroup, len(table)):
        raise AlgebraError("subgroup must be a list of indices into the group table")
    sub = sorted(set(subgroup))
    if not sub:
        raise AlgebraError("empty subgroup")
    pos = {g: i for i, g in enumerate(sub)}
    for a in sub:
        for b in sub:
            if table[a][b] not in pos:
                raise AlgebraError(f"subgroup not closed: {a}*{b} escapes")
    if identity not in pos:
        raise AlgebraError("subgroup does not contain the identity")
    subtable = [[pos[table[a][b]] for b in sub] for a in sub]
    B = group_algebra(field, subtable)
    A = group_algebra(field, table)
    iota = Matrix.from_columns(field, [{g: field.one} for g in sub], nrows=len(table))
    ext = Extension(B, A, AlgebraMorphism(B, A, iota))
    return ext, sub


def group_pair(field, table: list[list[int]], subgroup: list[int]):
    """Extension k[N] -> k[G] for a normal subgroup, plus a coset transversal.

    The transversal lists the lexicographically least representative of
    each right coset Ng, in ascending order.  Raises if N is not normal;
    non-normal subgroups are still accepted by ``subgroup_extension``.
    """
    ext, sub = subgroup_extension(field, table, subgroup)
    inv = group_inverses(table)
    subset = set(sub)
    for g in range(len(table)):
        for m in sub:
            if table[table[g][m]][inv[g]] not in subset:
                raise AlgebraError(f"subgroup not normal: {g}*{m}*{g}^-1 escapes")
    seen: set[int] = set()
    transversal: list[int] = []
    for g in range(len(table)):
        if g in seen:
            continue
        transversal.append(g)
        seen.update(table[m][g] for m in sub)
    return ext, transversal


# -- morphisms and extensions ------------------------------------------


class AlgebraMorphism:
    """A unit-preserving algebra homomorphism given by its matrix."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FiniteAlgebra, target: FiniteAlgebra, matrix: Matrix,
                 validate: bool = True):
        self.source = source
        self.target = target
        self.matrix = matrix
        if validate:
            self._validate()

    def _validate(self):
        if (self.matrix.nrows, self.matrix.ncols) != (self.target.dim, self.source.dim):
            raise AlgebraError("morphism matrix has wrong shape")
        if self.matrix.apply(self.source.unit) != self.target.unit:
            raise AlgebraError("morphism does not preserve the unit")
        cols = self.matrix.cols
        for i in range(self.source.dim):
            for j in range(self.source.dim):
                lhs = self.target.mul(cols[i], cols[j])
                rhs = self.matrix.apply(self.source.table[i][j])
                if lhs != rhs:
                    raise AlgebraError(
                        f"morphism not multiplicative on (e_{i}, e_{j})")

    def apply(self, vec: list) -> list:
        return self.matrix.apply(vec)


class Extension:
    """An algebra extension A|B: the morphism iota: B -> A with both algebras."""

    __slots__ = ("B", "A", "iota", "_cache", "__weakref__")

    def __init__(self, B: FiniteAlgebra, A: FiniteAlgebra, iota: AlgebraMorphism):
        if iota.source is not B or iota.target is not A:
            raise AlgebraError("iota must map B into A")
        self.B = B
        self.A = A
        self.iota = iota
        self._cache: dict = {}  # written only by per_extension

    def iota_col(self, j: int) -> list:
        return self.iota.matrix.column(j)

    def b_image_subspace(self) -> Subspace:
        return Subspace.span(self.A.field, self.A.dim, self.iota.matrix.cols)

    def left_mult_iota(self, j: int) -> Matrix:
        return combine(self.A.left_mults, self.iota_col(j))

    def right_mult_iota(self, j: int) -> Matrix:
        return combine(self.A.right_mults, self.iota_col(j))


def per_extension(f):
    """Run f(ext, *args) once per extension and arguments: the result, None
    included, is kept in ``ext._cache`` under (f, *args) and returned as is."""
    @functools.wraps(f)
    def memo(ext: Extension, *args):
        key = (f, *args)
        if key not in ext._cache:
            ext._cache[key] = f(ext, *args)
        return ext._cache[key]
    return memo


def trivial_extension(A: FiniteAlgebra) -> Extension:
    eye = Matrix.identity(A.field, A.dim)
    return Extension(A, A, AlgebraMorphism(A, A, eye, validate=False))


def ground_field_extension(A: FiniteAlgebra) -> Extension:
    B = field_as_algebra(A.field)
    iota = Matrix.from_columns(A.field, [A.unit])
    return Extension(B, A, AlgebraMorphism(B, A, iota, validate=False))


# -- centralizer, ideals, normality ------------------------------------


class SubalgebraData:
    """A unital, multiplicatively closed subspace of an ambient algebra."""

    __slots__ = ("ambient", "space")

    def __init__(self, ambient: FiniteAlgebra, space: Subspace, check: bool = True):
        self.ambient = ambient
        self.space = space
        if check:
            if not space.contains(ambient.unit):
                raise AlgebraError("subalgebra does not contain the unit")
            basis = space.basis
            for u in basis:
                for v in basis:
                    if not space.contains(ambient.mul(u, v)):
                        raise AlgebraError("subspace not closed under multiplication")

    @property
    def dim(self) -> int:
        return self.space.dim

    def as_algebra(self) -> tuple[FiniteAlgebra, Matrix]:
        """The subalgebra as an abstract algebra plus its inclusion matrix."""
        amb = self.ambient
        basis = self.space.basis
        m = len(basis)
        structure = []
        for u in basis:
            row = []
            for v in basis:
                coords = self.space.coords(amb.mul(u, v))
                if coords is None:
                    raise AlgebraError("subspace not closed under multiplication")
                row.append(coords)
            structure.append(row)
        unit = self.space.coords(amb.unit)
        if unit is None:
            raise AlgebraError("subalgebra does not contain the unit")
        alg = FiniteAlgebra(amb.field, structure, unit, validate=False)
        incl = Matrix.from_columns(amb.field, basis)
        return alg, incl

    def coords_of(self, vec: list) -> list | None:
        return self.space.coords(vec)


def centralizer(ext: Extension) -> SubalgebraData:
    """R = C_A(B): all a in A with a*iota(b) = iota(b)*a for every b."""
    A = ext.A
    rows: list[dict] = []
    for j in ext.B.generating_indices():
        diff = ext.left_mult_iota(j) - ext.right_mult_iota(j)
        rows.extend(diff.transpose().cols)
    space = Subspace.span(A.field, A.dim, nullspace(rows, A.field, A.dim))
    return SubalgebraData(A, space, check=True)


def ideal_closure(A: FiniteAlgebra, generators: list[list]) -> Subspace:
    """Smallest two-sided ideal containing the generators (fixpoint iteration)."""
    span = Subspace.span(A.field, A.dim, [list(g) for g in generators])
    for _ in range(A.dim + 1):
        extra = []
        for v in span.basis:
            for i in range(A.dim):
                extra.append(A.mul(A.basis_vector(i), v))
                extra.append(A.mul(v, A.basis_vector(i)))
        bigger = Subspace.span(A.field, A.dim, span.basis + extra)
        if bigger.dim == span.dim:
            return bigger
        span = bigger
    return span


def is_two_sided_ideal(A: FiniteAlgebra, space: Subspace) -> bool:
    for v in space.basis:
        for i in range(A.dim):
            if not space.contains(A.mul(A.basis_vector(i), v)):
                return False
            if not space.contains(A.mul(v, A.basis_vector(i))):
                return False
    return True


class NormalityReport:
    """Outcome of the centralizer-contraction audit for one ideal."""

    __slots__ = ("intersection_dim", "left_in_right", "right_in_left")

    def __init__(self, intersection_dim, left_in_right, right_in_left):
        self.intersection_dim = intersection_dim
        self.left_in_right = left_in_right    # A(I cap R) contained in (I cap R)A
        self.right_in_left = right_in_left    # (I cap R)A contained in A(I cap R)

    @property
    def equal(self) -> bool:
        return self.left_in_right and self.right_in_left

    def to_json(self):
        return {"intersection_dim": self.intersection_dim,
                "A_IR_in_IR_A": self.left_in_right,
                "IR_A_in_A_IR": self.right_in_left,
                "equal": self.equal}


def normality_audit(ext: Extension, ideal: Subspace) -> NormalityReport:
    """Compare the spans A*(I cap R) and (I cap R)*A for a two-sided ideal I."""
    A = ext.A
    if not is_two_sided_ideal(A, ideal):
        raise AlgebraError("input subspace is not a two-sided ideal")
    R = centralizer(ext)
    inter = ideal.intersect(R.space)
    left = Subspace.span(A.field, A.dim,
                         [A.mul(A.basis_vector(i), v)
                          for v in inter.basis for i in range(A.dim)] + inter.basis)
    right = Subspace.span(A.field, A.dim,
                          [A.mul(v, A.basis_vector(i))
                           for v in inter.basis for i in range(A.dim)] + inter.basis)
    return NormalityReport(inter.dim, left.is_contained_in(right),
                           right.is_contained_in(left))
