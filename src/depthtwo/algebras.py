"""Structure-constant algebras, morphisms, extensions and group algebras.

An algebra lives entirely in coordinates: the nonzero structure constants
``nonzeros[i][j]`` = {k: c} with e_i e_j = sum_k c e_k, and the unit as an
{index: value} vector, the vector format of ``linalg``, with native values
(ints mod p over F_p; over Q ints, and Fractions only off the integers)
taken through ``linalg.entry``.  A dense cube
c[i][j][k] is read once where it enters (``make_algebra``), and
``structure`` rebuilds it on each read, for output.  Extensions are
unit-preserving morphisms iota: B -> A; they are never assumed injective,
and all downstream code multiplies by iota(b) rather than by b itself.
"""

from __future__ import annotations

import functools
import operator

from .linalg import (Matrix, Subspace, close_span, combine, entry, insert_row, nullspace,
                     sum_nonzeros)
# re-exported: read here by perfbench's test_rebinding_reaches_every_importing_module
from .linalg import solve_in_span  # noqa: F401


class AlgebraError(ValueError):
    """Invalid algebraic data; the message names the first violated identity."""


class SelfCheckError(AlgebraError):
    """A computed result failed its own verification: a bug, not bad input."""


class FiniteAlgebra:
    """A finite-dimensional unital associative algebra over an exact field.

    ``nonzeros[i][j]`` is the {k: value} dict of the nonzero coordinates of
    e_i * e_j, and ``unit`` the {index: value} coordinates of 1; neither
    holds a zero, and both are read through the entry conversion.
    """

    __slots__ = ("field", "dim", "nonzeros", "unit", "_left", "_right", "_generators")

    def __init__(self, field, nonzeros: list[list[dict]], unit: dict, validate: bool = True):
        self.field = field
        self.dim = len(nonzeros)
        self.nonzeros = [[entry(field, c) for c in plane] for plane in nonzeros]
        self.unit = entry(field, unit)
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
        element is good.
        """
        n = self.dim
        if n == 0:
            raise AlgebraError("algebra must have positive dimension")
        nz = self.nonzeros
        for i in range(n):
            if len(nz[i]) != n or not all(_is_index_list(list(c), n) for c in nz[i]):
                raise AlgebraError("structure cube is not dim x dim x dim")
        if not _is_index_list(list(self.unit), n):
            raise AlgebraError("unit vector has wrong length")
        # unit law on both sides
        for i in range(n):
            e_i = self.basis_vector(i)
            if self.mul(self.unit, e_i) != e_i:
                raise AlgebraError(f"unit law fails: 1*e_{i} != e_{i}")
            if self.mul(e_i, self.unit) != e_i:
                raise AlgebraError(f"unit law fails: e_{i}*1 != e_{i}")
        mod = self.field.char

        def associativity(middles):
            for i in range(n):
                for j in middles:
                    for k in range(n):
                        ok = _associates(nz, i, j, k, mod)
                        yield ok, None if ok else \
                            f"associativity fails: (e_{i}e_{j})e_{k} != e_{i}(e_{j}e_{k})"
        require(associativity, self)

    # -- basic structure ----------------------------------------------

    @property
    def structure(self) -> list[list[list]]:
        """The dense cube c[i][j][k] of native values, rebuilt from the
        nonzeros on each read."""
        n = self.dim
        return [[[nij.get(k, 0) for k in range(n)] for nij in ni] for ni in self.nonzeros]

    def basis_vector(self, i: int) -> dict:
        return {i: 1}

    def mul(self, x: dict, y: dict) -> dict:
        """Coordinates {k: value} of x * y for {index: value} x and y, summed
        over the nonzero structure constants."""
        nz = self.nonzeros
        ys = list(y.items())
        return sum_nonzeros(((xi * yj, nz[i][j].items()) for i, xi in x.items() for j, yj in ys),
                            self.field.char)

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

    def is_commutative(self) -> bool:
        nz = self.nonzeros
        return all(nz[i][j] == nz[j][i] for i in range(self.dim) for j in range(self.dim))

    def generating_indices(self) -> list[int]:
        """A small set of basis indices generating the whole unital algebra.

        Greedy over the basis order, so the result is deterministic.
        Intertwining constraints written over this set extend to the whole
        algebra by multiplicativity and linearity.
        """
        if self._generators is None:
            self._generators = _greedy_generators(self)
        return self._generators


# -- laws checked on generators ----------------------------------------


def first_failure(cases):
    """Witness of the first failing (ok, witness) case, or None when all pass;
    cases after it are not computed."""
    for ok, witness in cases:
        if not ok:
            return witness
    return None


def require(cases, *algebras) -> None:
    """The raising twin of ``AuditReport.check``: cases(*rows) yields the
    (ok, witness) cases with one set of rows per algebra.  Passing cases on
    the generators of each algebra decide a pass; when one fails,
    AlgebraError names the first failing case on every index."""
    if first_failure(cases(*(alg.generating_indices() for alg in algebras))) is not None:
        raise AlgebraError(first_failure(cases(*(range(alg.dim) for alg in algebras))))


def homomorphism_cases(alg: FiniteAlgebra, f, mul, one, rows, unit_failure: str,
                       pair_failure: str, anti: bool = False):
    """(ok, witness) cases of f(1) = one, then f(e_i e_j) = f(e_i)f(e_j), or
    f(e_j)f(e_i) with ``anti``, for i in ``rows`` and every j.

    f is linear and mul associative; ``pair_failure`` is formatted with i
    and j.  On rows = alg.generating_indices() the cases decide the law:
    once f(1) = one, the x with f(xy) = f(x)f(y) for every y form a subspace
    holding 1 and closed under products, as f(x1 x2 y) = f(x1)f(x2 y) =
    f(x1)f(x2)f(y) = f(x1 x2)f(y); a subalgebra holding the generators, so
    all of alg.  Likewise the x with f(xy) = f(y)f(x).
    """
    yield f(alg.unit) == one, unit_failure
    images = [f({j: 1}) for j in range(alg.dim)]
    for i in rows:
        for j in range(alg.dim):
            a, b = (j, i) if anti else (i, j)
            ok = f(alg.nonzeros[i][j]) == mul(images[a], images[b])
            yield ok, None if ok else pair_failure.format(i=i, j=j)


def action_cases(alg: FiniteAlgebra, action: list[Matrix], rows, unit_failure: str,
                 pair_failure: str, anti: bool = False):
    """``homomorphism_cases`` of x -> combine(action, x), into matrices under @."""
    return homomorphism_cases(alg, functools.partial(combine, action), operator.matmul,
                              Matrix.identity(alg.field, action[0].nrows), rows,
                              unit_failure, pair_failure, anti)


def _associates(nz, i: int, j: int, k: int, mod: int) -> bool:
    """(e_i e_j) e_k == e_i (e_j e_k)."""
    return (sum_nonzeros(((c, nz[m][k].items()) for m, c in nz[i][j].items()), mod)
            == sum_nonzeros(((c, nz[i][m].items()) for m, c in nz[j][k].items()), mod))


def _greedy_generators(alg: FiniteAlgebra) -> list[int]:
    """Basis indices, taken greedily in basis order, whose right words span the algebra.

    The span of 1 and of the right words g_1 g_2 ... g_r, multiplied left to
    right, is grown as one reduced basis (``close_span``).  An e_i outside
    the span becomes the next generator: the words found so far are
    multiplied by e_i, and e_i and the products that enlarge the span are
    closed under every generator.  For an associative algebra the span is
    the subalgebra the generators generate.
    """
    n, field = alg.dim, alg.field
    span: dict[int, dict] = {}
    insert_row(span, alg.unit, field)
    words = [alg.unit]
    gens: list[int] = []
    maps = []
    for i in range(n):
        if not insert_row(span, {i: 1}, field):
            continue
        gens.append(i)
        maps.append(lambda w, g=i: alg.mul(w, {g: 1}))
        # the span is closed under the earlier generators: close it under e_i too
        new = [{i: 1}] + [v for v in map(maps[-1], words) if insert_row(span, v, field)]
        words += new
        words += close_span(span, new, maps, field, n)
    return gens


def make_algebra(field, structure: list[list[list]], unit: list) -> FiniteAlgebra:
    """Read a dense cube c[i][j][k] and dense unit once into nonzeros, then
    validate and build the algebra; raises AlgebraError naming the first
    violation.  Only the lengths, which the nonzeros no longer show, are
    checked here, each where ``_validate`` would name it."""
    n = len(structure)
    if n and any(len(plane) != n or any(len(row) != n for row in plane) for plane in structure):
        raise AlgebraError("structure cube is not dim x dim x dim")
    if n and len(unit) != n:
        raise AlgebraError("unit vector has wrong length")
    nonzeros = [[dict(enumerate(row)) for row in plane] for plane in structure]
    return FiniteAlgebra(field, nonzeros, dict(enumerate(unit)))


def field_as_algebra(field) -> FiniteAlgebra:
    return FiniteAlgebra(field, [[{0: 1}]], {0: 1}, validate=False)


def matrix_algebra(field, n: int) -> FiniteAlgebra:
    """M_n via matrix units, basis e_{uv} at index u*n + v."""
    nonzeros = [[{u * n + x: 1} if v == w else {} for w in range(n) for x in range(n)]
                for u in range(n) for v in range(n)]
    return FiniteAlgebra(field, nonzeros, {u * n + u: 1 for u in range(n)}, validate=False)


# -- groups ------------------------------------------------------------


def _is_index_list(xs, n: int) -> bool:
    return isinstance(xs, list) and all(
        isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n for x in xs)


def _check_group_table(table: list[list[int]]) -> int:
    """Check what the algebra check of k[G] cannot see: an n x n table of
    indices with an identity, whose rows and columns are permutations.
    Returns the identity index; associativity is left to ``group_algebra``."""
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
    return identity


def group_inverses(table: list[list[int]]) -> list[int]:
    identity = _check_group_table(table)
    return [row.index(identity) for row in table]


def group_algebra(field, table: list[list[int]]) -> FiniteAlgebra:
    """k[G] from a Cayley table; basis indexed by group elements.  The
    algebra's own check decides associativity, on generators."""
    identity = _check_group_table(table)
    return FiniteAlgebra(field, [[{k: 1} for k in row] for row in table], {identity: 1})


def subgroup_extension(field, table: list[list[int]], subgroup: list[int]):
    """Extension k[N] -> k[G] for a (not necessarily normal) subgroup N.

    Returns (Extension, sorted subgroup indices).  Only the table of G is
    checked: a closed subset of a finite group holding the identity is a
    group, so the table of N needs no check of its own.
    """
    A = group_algebra(field, table)
    (identity,) = A.unit
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
    B = FiniteAlgebra(field, [[{pos[table[a][b]]: 1} for b in sub] for a in sub],
                      {pos[identity]: 1}, validate=False)
    iota = Matrix.from_columns(field, [{g: 1} for g in sub], nrows=len(table))
    ext = Extension(B, A, AlgebraMorphism(B, A, iota))
    return ext, sub


def group_pair(field, table: list[list[int]], subgroup: list[int]):
    """Extension k[N] -> k[G] for a normal subgroup, plus a coset transversal.

    The transversal lists the lexicographically least representative of
    each right coset Ng, in ascending order.  Raises if N is not normal;
    non-normal subgroups are still accepted by ``subgroup_extension``.
    The inverses are read off the table ``subgroup_extension`` checked.
    """
    ext, sub = subgroup_extension(field, table, subgroup)
    (identity,) = ext.A.unit
    inv = [row.index(identity) for row in table]
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
        S, T = self.source, self.target
        require(lambda rows: homomorphism_cases(
            S, self.matrix.image, T.mul, T.unit, rows, "morphism does not preserve the unit",
            "morphism not multiplicative on (e_{i}, e_{j})"), S)


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

    def b_image_subspace(self) -> Subspace:
        return Subspace.span(self.A.field, self.A.dim, self.iota.matrix.cols)

    def left_mult_iota(self, j: int) -> Matrix:
        return combine(self.A.left_mults, self.iota.matrix.cols[j])

    def right_mult_iota(self, j: int) -> Matrix:
        return combine(self.A.right_mults, self.iota.matrix.cols[j])


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
    iota = Matrix.from_columns(A.field, [A.unit], nrows=A.dim)
    return Extension(B, A, AlgebraMorphism(B, A, iota, validate=False))


# -- centralizer, ideals, normality ------------------------------------


class SubalgebraData:
    """A unital, multiplicatively closed subspace of an ambient algebra; the
    constructor reads the coordinates of 1 and of every product of basis
    vectors once, which checks both, into the algebra ``as_algebra`` returns."""

    __slots__ = ("ambient", "space", "_algebra")

    def __init__(self, ambient: FiniteAlgebra, space: Subspace):
        self.ambient = ambient
        self.space = space
        unit = space.coords(ambient.unit)
        if unit is None:
            raise AlgebraError("subalgebra does not contain the unit")
        products = [[space.coords(ambient.mul(u, v)) for v in space.basis] for u in space.basis]
        if any(None in row for row in products):
            raise AlgebraError("subspace not closed under multiplication")
        self._algebra = FiniteAlgebra(ambient.field, products, unit, validate=False)

    @property
    def dim(self) -> int:
        return self.space.dim

    def as_algebra(self) -> tuple[FiniteAlgebra, Matrix]:
        """The subalgebra as an abstract algebra plus its inclusion matrix."""
        amb = self.ambient
        return self._algebra, Matrix.from_columns(amb.field, self.space.basis, nrows=amb.dim)


def centralizer(ext: Extension) -> SubalgebraData:
    """R = C_A(B): all a in A with a*iota(b) = iota(b)*a for every b."""
    A = ext.A
    rows: list[dict] = []
    for j in ext.B.generating_indices():
        diff = ext.left_mult_iota(j) - ext.right_mult_iota(j)
        rows.extend(diff.transpose().cols)
    space = Subspace.span(A.field, A.dim, nullspace(rows, A.field, A.dim))
    return SubalgebraData(A, space)


def ideal_closure(A: FiniteAlgebra, generators: list[dict]) -> Subspace:
    """Smallest two-sided ideal containing the {index: value} generators: their
    span closed under left and right multiplication by the generators of A
    (``close_span``), so under all of A, as 1 and their right words span A."""
    span = Subspace.span(A.field, A.dim, generators)
    maps = [f for g in A.generating_indices()
            for f in (functools.partial(A.mul, {g: 1}), lambda v, g=g: A.mul(v, {g: 1}))]
    # a basis vector may share its dict with a stored row, which insert_row edits in place
    close_span(span.rows, [dict(v) for v in span.basis], maps, A.field, A.dim)
    return span


def is_two_sided_ideal(A: FiniteAlgebra, space: Subspace) -> bool:
    return ideal_closure(A, space.basis) == space


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
