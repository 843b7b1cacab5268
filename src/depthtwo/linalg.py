"""Exact linear algebra: matrices, sparse-row RREF, subspaces, sparse quotients.

A vector is the dict {index: value} of its nonzero entries, with no zeros
stored, so equal vectors are equal dicts; its length is known from the
map, subspace or quotient it belongs to.  Stored values are native: over
F_p a plain ``int`` in range(1, p); over Q an ``int`` when integral and
otherwise a ``Fraction`` with denominator > 1, never ``Fraction(n, 1)``.
The stored 1 and 0 are the ints 1 and 0 in both fields, and
``sum_nonzeros`` adds products of native values and brings each entry
back to that form once.  Values from outside come in through one
conversion, ``entry``: over F_p it takes an int or a public element of
the same modulus (``GF(p).of``), over Q an int or a ``Fraction``, and
anything else is a ``FieldError``.  ``Matrix(field, rows)``,
``from_columns``, ``unvec``, the algebra constructors, ``insert_row`` and
every elimination entry point (``rref``, ``nullspace``, ``solve_in_span``,
``Subspace.span``, ``Subspace.coords``, ``Quotient.reduce``) read their
values through it.

A ``Matrix`` is stored the same way, as its nonzero columns ``cols`` and
its shape, and never edited in place.  Products, images, sums,
transposes, inverses and linear combinations read and build columns, so
their cost follows the nonzeros.  Dense data appears only where it enters
or leaves: ``Matrix(field, rows)`` reads dense rows once, and ``data``
rebuilds read-only dense rows on each read, for output.

Elimination works on sparse {column: value} rows, so its cost follows the
nonzeros of the system rather than rows x columns; it takes and returns
dict rows.  Inside, rows are machine integers.

- Over F_p a native row holds residues in range(p); a stored row is 1 at
  its pivot.
- Over Q a stored row is a primitive integer row whose pivot entry is
  positive, and its value is the row divided by that entry; a working row
  carries one integer denominator.

Both are unique for a reduced row, so equal spans store equal rows.
A row enters through the kernel's ``native``, which is the entry
conversion, and an F_p row leaves as it is stored.  Over Q a row is
divided by its denominator where it leaves (``rref``'s rows,
``Subspace.basis`` and ``Quotient.reduce``): each entry becomes an int
where the denominator divides it and a Fraction where it does not, and a
row with denominator 1 leaves as it is.  A vector one of these returns
may share its dict with a stored row, so no consumer edits a vector in
place.

All rows are checked first and then inserted latest leading column first.
A stored row is zero left of its own pivot, so when a new row leads left
of every stored pivot, no stored row has an entry in its column and the
clearing scan is skipped; that is the usual case in this order.  A
subspace keeps its reduced basis as native rows, and a quotient only its
reduced relation rows and free columns.  One ``residue`` reduction along
such rows serves row insertion, membership in a subspace, and projection
onto a quotient, which rewrites the pivot coordinates along their rows;
lifting places coordinates at the free columns.  Every reduced echelon
form, nullspace basis and quotient coordinate system produced here is the
unique canonical one; identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from math import gcd

from .fields import FieldError, FpElement


class LinAlgError(ValueError):
    """Dimension mismatch or singular input."""


class Matrix:
    """A field-valued matrix stored as its nonzero columns.

    ``cols[j]`` is the {row: value} dict of the nonzeros of column j; it
    never holds a zero, so equal matrices have equal columns, and ``nrows``
    and ``ncols`` are kept beside them, so empty shapes keep their size.
    Every operation reads and builds columns.  ``data`` is a read-only view:
    dense tuple rows rebuilt on each read and not kept.  A matrix is never
    edited in place, and no consumer mutates a column.
    """

    __slots__ = ("field", "nrows", "ncols", "cols")

    def __init__(self, field, rows: list):
        """The matrix with the given dense rows, read into columns once
        through the entry conversion."""
        ncols = len(rows[0]) if rows else 0
        cols: list[dict] = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise LinAlgError("ragged rows")
            for j, x in enumerate(row):
                cols[j][i] = x
        k = _kernel(field)
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.cols = [k.entry(col) for col in cols]

    # -- constructors ------------------------------------------------

    @classmethod
    def _of(cls, field, nrows: int, ncols: int, cols: list[dict]) -> "Matrix":
        """The matrix with these zero-free {row: value} columns, taken as they are."""
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols, m.cols = field, nrows, ncols, cols
        return m

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        return cls._of(field, nrows, ncols, [{} for _ in range(ncols)])

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls._of(field, n, n, [{i: 1} for i in range(n)])

    @classmethod
    def from_columns(cls, field, columns: list[dict], nrows: int) -> "Matrix":
        """The matrix with these {row: value} columns, each checked and kept
        as its nonzeros through the entry conversion."""
        k = _kernel(field)
        return cls._of(field, nrows, len(columns),
                       [_entry(col, nrows, "from_columns", k) for col in columns])

    @classmethod
    def unvec(cls, field, flat: dict, nrows: int, ncols: int) -> "Matrix":
        """The inverse of ``vec``: a row-major {index: value} vector read into columns."""
        cols: list[dict] = [{} for _ in range(ncols)]
        for k, x in _entry(flat, nrows * ncols, "unvec", _kernel(field)).items():
            cols[k % ncols][k // ncols] = x
        return cls._of(field, nrows, ncols, cols)

    # -- access ------------------------------------------------------

    @property
    def data(self) -> list[tuple]:
        """The dense rows as tuples of native values, rebuilt from the
        columns on each read."""
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                rows[i][j] = x
        return [tuple(row) for row in rows]

    def vec(self) -> dict:
        """Row-major flattening {i * ncols + j: value}, the canonical
        vectorization used for hom spaces."""
        n = self.ncols
        return {i * n + j: x for j, col in enumerate(self.cols) for i, x in col.items()}

    # -- arithmetic --------------------------------------------------

    def image(self, vec: dict) -> dict:
        """The matrix applied to an {index: value} vector, read through
        ``cols`` at the vector's nonzeros."""
        _check_indices(vec, self.ncols, "image")
        cols = self.cols
        return sum_nonzeros(((x, cols[k].items()) for k, x in vec.items()), self.field.char)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise LinAlgError(f"matmul: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        cols, mod = self.cols, self.field.char
        return Matrix._of(self.field, self.nrows, other.ncols,
                          [sum_nonzeros(((x, cols[k].items()) for k, x in col.items()), mod)
                           for col in other.cols])

    def _plus(self, other: "Matrix", c, op: str) -> "Matrix":
        """self + c * other, column by column."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError(f"shape mismatch in {op}")
        mod = self.field.char
        return Matrix._of(self.field, self.nrows, self.ncols,
                          [sum_nonzeros(((1, a.items()), (c, b.items())), mod)
                           for a, b in zip(self.cols, other.cols)])

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1, "+")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1, "-")

    def __neg__(self) -> "Matrix":
        return self.scaled(-1)

    def scaled(self, c) -> "Matrix":
        """c times the matrix, for a native scalar c."""
        mod = self.field.char
        return Matrix._of(self.field, self.nrows, self.ncols,
                          [sum_nonzeros(((c, col.items()),), mod) for col in self.cols])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.cols == other.cols)

    def transpose(self) -> "Matrix":
        rows: list[dict] = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                rows[i][j] = x
        return Matrix._of(self.field, self.ncols, self.nrows, rows)

    def rank(self) -> int:
        k = _kernel(self.field)
        return len(_echelon([k.native(col)[0] for col in self.cols], k))

    def inverse(self) -> "Matrix":
        """Column i of the inverse is row i of the inverse transpose, read off
        the reduced rows (column j of self, e_j)."""
        if self.nrows != self.ncols:
            raise LinAlgError("inverse of non-square matrix")
        n = self.nrows
        k = _kernel(self.field)
        basis = _echelon([k.native({**col, n + j: 1})[0] for j, col in enumerate(self.cols)], k)
        if sorted(basis)[:n] != list(range(n)):
            raise LinAlgError("matrix is singular")
        cols = []
        for i in range(n):
            row = basis[i]
            cols.append({c - n: x for c, x in k.values(row, row[i]).items() if c >= n})
        return Matrix._of(self.field, n, n, cols)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


def combine(mats: list[Matrix], coeffs: dict) -> Matrix:
    """sum_i coeffs[i] * mats[i] for a non-empty list of equally shaped matrices
    and {index: value} coefficients."""
    if not mats:
        raise LinAlgError("combine: need at least one matrix")
    _check_indices(coeffs, len(mats), "combine")
    first = mats[0]
    terms, mod = list(coeffs.items()), first.field.char
    return Matrix._of(first.field, first.nrows, first.ncols,
                      [sum_nonzeros(((c, mats[i].cols[j].items()) for i, c in terms), mod)
                       for j in range(first.ncols)])


def _check_indices(vec: dict, n: int, what: str) -> None:
    """Raise LinAlgError unless every index of vec lies in range(n)."""
    if vec and (min(vec) < 0 or max(vec) >= n):
        raise LinAlgError(f"{what}: indices {min(vec)}..{max(vec)} outside range({n})")


def sum_nonzeros(terms, mod: int) -> dict:
    """{index: value} of sum c * v over (c, nonzeros (index, value) of v),
    zeros dropped, for native values.

    ``mod`` is the field's characteristic: over F_p (mod = p) the products
    are added as plain ints, unreduced, and each output entry is reduced
    once; over Q (mod = 0) an integral entry is written as an int.
    """
    acc: dict = {}
    get = acc.get
    for c, v in terms:
        for l, x in v:
            y = get(l)
            acc[l] = c * x if y is None else y + c * x
    if mod:
        return {l: r for l, x in acc.items() if (r := x % mod)}
    return {l: x if type(x) is int or x.denominator != 1 else x.numerator
            for l, x in acc.items() if x}


def _check_columns(vec: dict, ncols: int, what: str) -> None:
    """Raise LinAlgError unless every column of vec is an int in range(ncols)."""
    for c in vec:
        if not (isinstance(c, int) and 0 <= c < ncols):
            raise LinAlgError(f"{what}: column {c!r} outside range({ncols})")


def _entry(vec: dict, ncols: int, what: str, k) -> dict:
    """A vector from outside, its columns checked, in native values."""
    _check_columns(vec, ncols, what)
    return k.entry(vec)


def entry(field, vec: dict) -> dict:
    """The entry conversion: the nonzeros {index: native value} of an
    {index: value} vector whose values come from outside the library.

    Over F_p a value is an int or a public element of F_p (``GF(p).of``)
    of the same modulus; over Q an int or a ``Fraction``, an integral one
    stored as its numerator.  Anything else, a bool or a float included,
    is a ``FieldError``.
    """
    return _kernel(field).entry(vec)


class _PrimeRows:
    """Native rows over F_p: {column: residue in range(p)}, each stored row 1
    at its pivot.  A working row carries the denominator 1."""

    __slots__ = ("p",)

    def __init__(self, field):
        self.p = field.p

    def entry(self, vec: dict) -> dict:
        """{column: residue in range(1, p)} of a row of ints and elements of
        F_p; the one place a value from outside is converted."""
        p = self.p
        out = {}
        for c, x in vec.items():
            if type(x) is not int:
                if type(x) is not FpElement:  # a bool, a Fraction, a float
                    raise FieldError(f"not an F_{p} value: {x!r}")
                if x.p != p:
                    raise FieldError(f"mixed moduli {p} and {x.p}")
                x = x.v
            x %= p
            if x:
                out[c] = x
        return out

    def native(self, row: dict) -> tuple[dict, int]:
        """The native row and denominator of a {column: value} row."""
        return self.entry(row), 1

    def values(self, row: dict, den: int) -> dict:
        """The {column: value} vector of a native row: the row itself."""
        return row

    def _subtract(self, row: dict, f: int, other: dict) -> None:
        """row -= f * other, dropping the entries that cancel."""
        p = self.p
        get = row.get
        for c, y in other.items():
            x = (get(c, 0) - f * y) % p
            if x:
                row[c] = x
            else:
                del row[c]

    def residue(self, basis: dict[int, dict], row: dict, den: int) -> tuple[dict, int]:
        # a stored row is zero at every other pivot, so one pass reduces fully
        for piv in [c for c in row if c in basis]:
            self._subtract(row, row[piv], basis[piv])
        return row, den

    def normalized(self, row: dict, lead: int) -> dict:
        p, pv = self.p, row[lead]
        if pv == 1:
            return row
        inv = pow(pv, p - 2, p)
        return {c: x * inv % p for c, x in row.items()}

    def clear(self, other: dict, row: dict, lead: int) -> None:
        """Clear the column lead, row's pivot, from a stored row."""
        self._subtract(other, other[lead], row)


class _RationalRows:
    """Native rows over Q: integer rows {column: int}.  A stored row is
    primitive with a positive pivot entry and stands for itself divided by
    that entry; a working row stands for itself divided by its denominator."""

    __slots__ = ()

    @staticmethod
    def entry(vec: dict) -> dict:
        """{column: nonzero value} of a row of ints and Fractions, an
        integral Fraction written as its numerator."""
        out = {}
        for c, x in vec.items():
            if type(x) is not int:
                if type(x) is not Fraction:  # a bool, a float, an element of F_p
                    raise FieldError(f"not a rational value: {x!r}")
                if x.denominator == 1:
                    x = x.numerator
            if x:
                out[c] = x
        return out

    def native(self, row: dict) -> tuple[dict, int]:
        """The native row and denominator of a {column: int or Fraction}
        row: ``entry``, then the least common denominator cleared."""
        row = self.entry(row)
        den = 1
        for x in row.values():
            if type(x) is not int:
                d = x.denominator
                den = den * d // gcd(den, d)
        if den == 1:
            return row, 1
        return {c: x.numerator * (den // x.denominator) for c, x in row.items()}, den

    @staticmethod
    def values(row: dict, den: int) -> dict:
        """The {column: value} vector of a native row over den: the row
        itself when den is 1, else an int where den divides the entry."""
        if den == 1:
            return row
        return {c: x // den if x % den == 0 else Fraction(x, den) for c, x in row.items()}

    @staticmethod
    def _eliminate(row: dict, other: dict, col: int) -> int:
        """row <- a row - b other, with a > 0 and b the least that make it zero
        at col; drops the entries that cancel and returns a."""
        g = gcd(other[col], row[col])
        a, b = other[col] // g, row[col] // g
        if a != 1:
            for c in row:
                row[c] *= a
        get = row.get
        for c, y in other.items():
            x = get(c, 0) - b * y
            if x:
                row[c] = x
            else:
                del row[c]
        return a

    def residue(self, basis: dict[int, dict], row: dict, den: int) -> tuple[dict, int]:
        # row/den - (row[piv]/den) (s/s[piv]) = (a row - b s) / (a den)
        for piv in [c for c in row if c in basis]:
            den *= self._eliminate(row, basis[piv], piv)
        return row, den

    def normalized(self, row: dict, lead: int) -> dict:
        g = gcd(*row.values())
        if row[lead] < 0:
            g = -g
        return row if g == 1 else {c: x // g for c, x in row.items()}

    def clear(self, other: dict, row: dict, lead: int) -> None:
        # row is zero at other's pivot, so a > 0 keeps that entry positive
        self._eliminate(other, row, lead)
        g = gcd(*other.values())
        if g != 1:
            for c in other:
                other[c] //= g


_KERNELS: dict = {}


def _kernel(field):
    """The native row arithmetic of Q or of F_p."""
    k = _KERNELS.get(field)
    if k is None:
        k = _KERNELS[field] = _RationalRows() if field.char == 0 else _PrimeRows(field)
    return k


def _native(vec: dict, ncols: int, what: str, k) -> tuple[dict, int]:
    """A checked {column: value} row as a native row and its denominator."""
    _check_columns(vec, ncols, what)
    return k.native(vec)


def insert_row(basis: dict[int, dict], row: dict, field) -> bool:
    """Insert a {column: value} row into a reduced basis {pivot: native row}
    over the field.

    The row is converted (so the caller's dict is left as it is), reduced
    by the stored pivots, normalized at its leading column, and that column
    is cleared from the stored rows, so the basis stays reduced.  Returns
    False, leaving the basis as it was, when the row lies in its span.
    """
    k = _kernel(field)
    row = k.residue(basis, k.native(row)[0], 1)[0]
    if not row:
        return False
    lead = min(row)
    row = k.normalized(row, lead)
    # a stored row is zero left of its own pivot
    if lead > min(basis, default=lead):
        for other in basis.values():
            if lead in other:
                k.clear(other, row, lead)
    basis[lead] = row
    return True


def close_span(basis: dict[int, dict], frontier: list[dict], maps, field,
               dim: int) -> list[dict]:
    """Grow a reduced basis {pivot: native row} by the images of the frontier's
    {index: value} vectors under every word in the maps, callables on vectors.

    The frontier is consumed, and an image that enlarges the span joins it;
    the closure stops once the basis has ``dim`` rows.  Returns the inserted
    images in order."""
    added = []
    while frontier and len(basis) < dim:
        w = frontier.pop()
        for f in maps:
            v = f(w)
            if insert_row(basis, v, field):
                added.append(v)
                frontier.append(v)
    return added


def _echelon(rows: list[dict], k) -> dict[int, dict]:
    """The reduced echelon basis {pivot: row} of the span of native rows.

    The rows are inserted latest leading column first.  A new row then
    usually leads left of every stored pivot, and a stored row is zero left
    of its own pivot, so no stored row has an entry to clear and the scan is
    skipped.  A row that still leads right of the least stored pivot
    (``low``) after its reduction is cleared from the stored rows that lead
    left of it, the only ones that can hold its column: the pivots placed
    at the left end are kept in descending order (``order``, negated to
    ascend) and the others in ascending order (``inner``), so those rows
    are two slices found by bisection.  The reduced echelon basis of a span
    is unique, so the order changes the work and not the result.  The rows
    are consumed.
    """
    basis: dict[int, dict] = {}
    low = None
    order: list[int] = []
    inner: list[int] = []
    for row in sorted((r for r in rows if r), key=min, reverse=True):
        row = k.residue(basis, row, 1)[0]
        if not row:
            continue
        lead = min(row)
        row = k.normalized(row, lead)
        if low is None or lead < low:
            low = lead
            order.append(-lead)
        else:
            below = [-p for p in order[bisect.bisect_right(order, -lead):]]
            for piv in below + inner[:bisect.bisect_left(inner, lead)]:
                other = basis[piv]
                if lead in other:
                    k.clear(other, row, lead)
            bisect.insort(inner, lead)
        basis[lead] = row
    return basis


def rref(rows: list[dict], field, ncols: int) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of {column: value} rows.

    Returns (nonzero rows, pivot cols), the rows ordered by pivot.  Every
    row is checked against ncols and converted to a native row before any
    is inserted; ``_echelon`` then inserts them into a reduced basis keyed
    by pivot column, latest leading column first, so the work follows the
    nonzeros.
    """
    k = _kernel(field)
    basis = _echelon([_native(vec, ncols, "rref", k)[0] for vec in rows], k)
    pivots = sorted(basis)
    return [k.values(basis[p], basis[p][p]) for p in pivots], pivots


def solve_in_span(target: dict, generators: list[dict], field) -> dict | None:
    """Coefficients {i: c_i} with sum_i c_i * generators[i] = target, or None.

    The returned solution is the RREF particular solution: free variables
    are pinned to zero, so it is unique and reproducible.  The target and
    the generators are {index: value} vectors of one coordinate space.
    """
    ng = len(generators)
    rows: dict[int, dict] = {}
    for i, g in enumerate(generators):
        for r, x in g.items():
            rows.setdefault(r, {})[i] = x
    for r, x in target.items():
        rows.setdefault(r, {})[ng] = x
    red, pivots = rref(list(rows.values()), field, ng + 1)
    if pivots and pivots[-1] == ng:
        return None
    return {c: red[i][ng] for i, c in enumerate(pivots) if ng in red[i]}


def nullspace(rows: list[dict], field, ncols: int) -> list[dict]:
    """Canonical basis of {x : rows @ x = 0} as {column: value} vectors,
    ordered by ascending free column."""
    red, pivots = rref(rows, field, ncols)
    mod = field.char
    basis = {f: {f: 1} for f in range(ncols)}
    for p in pivots:
        del basis[p]
    for row, p in zip(red, pivots):
        for f, x in row.items():
            if f != p:
                basis[f][p] = mod - x if mod else -x
    return list(basis.values())


class Subspace:
    """A subspace of a coordinate space, stored as its unique reduced echelon
    basis {pivot: native row}; ``basis`` and ``pivots`` are views."""

    __slots__ = ("field", "ambient_dim", "rows", "_k")

    def __init__(self, field, ambient_dim: int, rows: dict[int, dict]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self._k = _kernel(field)

    @classmethod
    def span(cls, field, ambient_dim: int, vectors: list[dict]) -> "Subspace":
        """The span of {index: value} vectors, each checked against ambient_dim."""
        k = _kernel(field)
        return cls(field, ambient_dim,
                   _echelon([_native(v, ambient_dim, "span", k)[0] for v in vectors], k))

    @classmethod
    def zero(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, {})

    @classmethod
    def full(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, {i: {i: 1} for i in range(ambient_dim)})

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self.rows)

    @property
    def basis(self) -> list[dict]:
        """The reduced echelon basis as {index: value} vectors, ordered by pivot."""
        k, rows = self._k, self.rows
        return [k.values(rows[p], rows[p][p]) for p in sorted(rows)]

    def contains(self, vec: dict) -> bool:
        k = self._k
        return not k.residue(self.rows, *_native(vec, self.ambient_dim, "subspace", k))[0]

    def coords(self, vec: dict) -> dict | None:
        """Coordinates {i: value} of vec in the reduced basis, or None when vec
        is not in the span.

        A basis row is 1 at its own pivot and 0 at the others, so the
        coordinates are the entries of vec at the pivots, read off its native
        row before the reduction; a pivot where vec is zero gives a zero
        coordinate, left out.
        """
        k = self._k
        row, den = _native(vec, self.ambient_dim, "subspace", k)
        at = {i: row[p] for i, p in enumerate(self.pivots) if p in row}
        if k.residue(self.rows, row, den)[0]:
            return None
        return k.values(at, den)

    def is_contained_in(self, other: "Subspace") -> bool:
        return all(not self._k.residue(other.rows, dict(row), 1)[0] for row in self.rows.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.field == other.field and self.rows == other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        # Zassenhaus: the reduced basis of the rows (u, u) and (v, 0) leaves
        # the intersection in the right half of the rows that lead there
        if self.ambient_dim != other.ambient_dim:
            raise LinAlgError("intersect: ambient dimension mismatch")
        n = self.ambient_dim
        rows = [{**u, **{n + c: x for c, x in u.items()}} for u in self.rows.values()]
        rows += [dict(v) for v in other.rows.values()]
        red = _echelon(rows, self._k)
        # a reduced row leads at its pivot, so these rows are the reduced basis there
        return Subspace(self.field, n, {p - n: {c - n: x for c, x in row.items()}
                                        for p, row in red.items() if p >= n})

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


class Quotient:
    """A coordinate realization of ambient/relations, kept sparse.

    ``rows`` is the reduced echelon basis of the relations, {pivot: native
    row}, each row zero at the other pivots.  Quotient coordinates are
    indexed by the non-pivot columns ``free`` in ascending order: a free
    column lifts to its own ambient basis vector, and a pivot column is
    rewritten along its row.
    """

    __slots__ = ("field", "ambient_dim", "rows", "free", "_index", "_k")

    def __init__(self, field, ambient_dim: int, rows: dict[int, dict]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self._k = _kernel(field)
        self.free = [c for c in range(ambient_dim) if c not in rows]
        self._index = {f: i for i, f in enumerate(self.free)}

    @property
    def dim(self) -> int:
        return len(self.free)

    def reduce(self, vec: dict) -> dict:
        """Quotient coordinates {index: value} of an {index: value} ambient
        vector: its residue along the relation rows lives on the free columns."""
        index, k = self._index, self._k
        row, den = k.residue(self.rows, *_native(vec, self.ambient_dim, "reduce", k))
        return {index[c]: x for c, x in k.values(row, den).items()}

    def lift(self, coords: dict) -> dict:
        """The ambient vector {column: value} with the coordinates placed at ``free``."""
        free = self.free
        _check_columns(coords, self.dim, "lift")
        return {free[i]: x for i, x in coords.items() if x}

    def induced(self, ambient_map: Matrix) -> Matrix:
        """Induced map on the quotient; valid when ambient_map preserves the relations.

        Column i is the reduction of the ambient map's column at ``free[i]``;
        the reductions are kept as the result's view.
        """
        if (ambient_map.nrows, ambient_map.ncols) != (self.ambient_dim, self.ambient_dim):
            raise LinAlgError("induced: map does not act on the ambient space")
        cols = ambient_map.cols
        return Matrix.from_columns(self.field, [self.reduce(cols[f]) for f in self.free],
                                   nrows=self.dim)


def quotient_structure(field, ambient_dim: int, relations: list[dict]) -> Quotient:
    """The quotient of the coordinate space by the span of {column: value} rows.

    The relations are checked, then reduced by ``_echelon``, latest leading
    column first.
    """
    k = _kernel(field)
    rows = _echelon([_native(r, ambient_dim, "quotient", k)[0] for r in relations], k)
    return Quotient(field, ambient_dim, rows)
