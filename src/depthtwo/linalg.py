"""Exact linear algebra: matrices, sparse-row RREF, subspaces, sparse quotients.

A ``Matrix`` is stored as its nonzero columns ``cols`` and its shape, and
never edited in place.  Products, sums, transposes, inverses and linear
combinations read and build columns, so their cost follows the nonzeros;
``data`` rebuilds read-only dense rows on each read, for output.

Elimination works on sparse {column: value} rows, so its cost follows the
nonzeros of the system rather than rows x columns; it accepts dense lists
or dicts and returns dense rows.  Inside, rows are native: machine
integers rather than field elements.

- Over F_p a native row holds residues in range(p); a stored row is 1 at
  its pivot.
- Over Q a stored row is a primitive integer row whose pivot entry is
  positive, and its value is the row divided by that entry; a working row
  carries one integer denominator.

Both are unique for a reduced row, so equal spans store equal rows.
Field values are converted once where they enter (``_sparse_row`` and the
kernel's ``native``) and rebuilt only where they leave: ``rref``'s dense
rows, ``reverse_rref``, ``Subspace.basis`` and ``Quotient.reduce``.

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
``reverse_rref`` brings any spanning set of a solution space into the
basis ``nullspace`` returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fields import QQ, FpElement, GF, fp_element


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
        """The matrix with the given dense rows, read into columns once."""
        ncols = len(rows[0]) if rows else 0
        cols: list[dict] = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise LinAlgError("ragged rows")
            for j, x in enumerate(row):
                if x:
                    cols[j][i] = x
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.cols = cols

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
        one = field.one
        return cls._of(field, n, n, [{i: one} for i in range(n)])

    @classmethod
    def from_columns(cls, field, columns: list, nrows: int | None = None) -> "Matrix":
        """The matrix with dense or {row: value} columns (these need ``nrows``),
        each checked and kept as its nonzeros."""
        n = (len(columns[0]) if columns else 0) if nrows is None else nrows
        return cls._of(field, n, len(columns),
                       [_sparse_row(col, n, "from_columns") for col in columns])

    @classmethod
    def unvec(cls, field, flat: list, nrows: int, ncols: int) -> "Matrix":
        """The inverse of ``vec``: a dense row-major list read into columns."""
        if len(flat) != nrows * ncols:
            raise LinAlgError("unvec: wrong length")
        cols: list[dict] = [{} for _ in range(ncols)]
        for k, x in enumerate(flat):
            if x:
                cols[k % ncols][k // ncols] = x
        return cls._of(field, nrows, ncols, cols)

    # -- access ------------------------------------------------------

    @property
    def data(self) -> list[tuple]:
        """The dense rows as tuples, rebuilt from the columns on each read."""
        zero = self.field.zero
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                rows[i][j] = x
        return [tuple(row) for row in rows]

    def column(self, j: int) -> list:
        """Column j as a dense list."""
        out = [self.field.zero] * self.nrows
        for i, x in self.cols[j].items():
            out[i] = x
        return out

    def vec(self) -> list:
        """Row-major flattening, the canonical vectorization used for hom spaces."""
        n = self.ncols
        out = [self.field.zero] * (self.nrows * n)
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                out[i * n + j] = x
        return out

    # -- arithmetic --------------------------------------------------

    def image(self, vec) -> dict:
        """The nonzeros {row: value} of the matrix applied to a dense or
        {index: value} vector, read through ``cols`` at the vector's nonzeros."""
        if not isinstance(vec, dict) and len(vec) != self.ncols:
            raise LinAlgError(f"apply: {self.ncols} columns vs vector of length {len(vec)}")
        cols = self.cols
        return sum_nonzeros((x, cols[k].items()) for k, x in entries(vec))

    def apply(self, vec) -> list:
        out = [self.field.zero] * self.nrows
        for i, x in self.image(vec).items():
            out[i] = x
        return out

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise LinAlgError(f"matmul: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        cols = self.cols
        return Matrix._of(self.field, self.nrows, other.ncols,
                          [sum_nonzeros((x, cols[k].items()) for k, x in col.items())
                           for col in other.cols])

    def _plus(self, other: "Matrix", c, op: str) -> "Matrix":
        """self + c * other, column by column."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError(f"shape mismatch in {op}")
        one = self.field.one
        return Matrix._of(self.field, self.nrows, self.ncols,
                          [sum_nonzeros(((one, a.items()), (c, b.items())))
                           for a, b in zip(self.cols, other.cols)])

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, self.field.one, "+")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -self.field.one, "-")

    def __neg__(self) -> "Matrix":
        return self.scaled(-self.field.one)

    def scaled(self, c) -> "Matrix":
        return Matrix._of(self.field, self.nrows, self.ncols,
                          [sum_nonzeros(((c, col.items()),)) for col in self.cols])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.cols == other.cols)

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(frozenset(col.items()) for col in self.cols)))

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
        k, one = _kernel(self.field), self.field.one
        basis = _echelon([k.native({**col, n + j: one})[0] for j, col in enumerate(self.cols)], k)
        if sorted(basis)[:n] != list(range(n)):
            raise LinAlgError("matrix is singular")
        cols = []
        for i in range(n):
            row = basis[i]
            cols.append({c - n: x for c, x in k.values(row, row[i]).items() if c >= n})
        return Matrix._of(self.field, n, n, cols)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


def combine(mats: list[Matrix], coeffs) -> Matrix:
    """sum_i coeffs[i] * mats[i] for a non-empty list of equally shaped matrices
    and a dense or {index: value} list of coefficients."""
    if not mats or (not isinstance(coeffs, dict) and len(mats) != len(coeffs)):
        raise LinAlgError("combine: need one coefficient per matrix")
    first = mats[0]
    terms = entries(coeffs)
    return Matrix._of(first.field, first.nrows, first.ncols,
                      [sum_nonzeros((c, mats[i].cols[j].items()) for i, c in terms)
                       for j in range(first.ncols)])


def entries(vec) -> list[tuple[int, object]]:
    """The nonzero (index, value) pairs of a dense list or an {index: value} dict."""
    pairs = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return [(i, x) for i, x in pairs if x]


def sum_nonzeros(terms) -> dict:
    """{index: value} of sum c * v over (c, nonzeros (index, value) of v), zeros dropped."""
    acc: dict = {}
    for c, v in terms:
        for l, x in v:
            y = acc.get(l)
            acc[l] = c * x if y is None else y + c * x
    return {l: x for l, x in acc.items() if x}


def combine_images(field, dim: int, images: list[list[dict]], coeffs: list[list]) -> list:
    """sum_i sum_a coeffs[i][a] * images[i][a] as a dense list, for {index: value}
    images (``Matrix.image``), adding only the nonzeros."""
    out = [field.zero] * dim
    for imgs, coeff in zip(images, coeffs):
        for a, c in enumerate(coeff):
            if c:
                for k, y in imgs[a].items():
                    out[k] = out[k] + c * y
    return out


def _sparse_row(vec, ncols: int, what: str) -> dict:
    """The nonzero entries {column: value} of a dense list or a dict of length ncols."""
    if isinstance(vec, dict):
        for c in vec:
            if not (isinstance(c, int) and 0 <= c < ncols):
                raise LinAlgError(f"{what}: column {c!r} outside range({ncols})")
        return {c: x for c, x in vec.items() if x}
    if len(vec) != ncols:
        raise LinAlgError(f"{what}: row of length {len(vec)} in {ncols} columns")
    return {c: x for c, x in enumerate(vec) if x}


class _PrimeRows:
    """Native rows over F_p: {column: residue in range(p)}, each stored row 1
    at its pivot.  A working row carries the denominator 1."""

    __slots__ = ("field", "p")

    def __init__(self, field):
        self.field = field
        self.p = field.p

    def native(self, row: dict) -> tuple[dict, int]:
        """The native row and denominator of a {column: field value} row."""
        p, of = self.p, self.field.of
        out = {}
        for c, x in row.items():
            if type(x) is not FpElement or x.p != p:
                x = of(x)  # an int, or FieldError for another modulus
            if x.v:
                out[c] = x.v
        return out, 1

    def values(self, row: dict, den: int) -> dict:
        """{column: field value} of a native row over its denominator."""
        p = self.p
        return {c: fp_element(x, p) for c, x in row.items()}

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

    def native(self, row: dict) -> tuple[dict, int]:
        """The native row and denominator of a {column: Fraction or int} row."""
        den = 1
        for x in row.values():
            d = x.denominator
            if d != 1:
                den = den * d // gcd(den, d)
        if den == 1:
            return {c: x.numerator for c, x in row.items()}, 1
        return {c: x.numerator * (den // x.denominator) for c, x in row.items()}, den

    def values(self, row: dict, den: int) -> dict:
        return {c: Fraction(x, den) for c, x in row.items()}

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


def _native(vec, ncols: int, what: str, k) -> tuple[dict, int]:
    """A checked dense or {column: value} row as a native row and its denominator."""
    return k.native(_sparse_row(vec, ncols, what))


def _insert(basis: dict[int, dict], row: dict, low: int | None, k) -> int | None:
    """Insert a native row into a reduced basis {pivot: native row}; returns
    the new pivot, or None when the row lies in the span.  The row is consumed.

    ``low`` is the least stored pivot (None: not known).  A stored row is zero
    left of its own pivot, so a new pivot left of ``low`` is already zero in
    every stored row and the clearing scan is skipped.
    """
    row = k.residue(basis, row, 1)[0]
    if not row:
        return None
    lead = min(row)
    row = k.normalized(row, lead)
    if low is None:
        low = min(basis, default=lead)
    if lead > low:
        for other in basis.values():
            if lead in other:
                k.clear(other, row, lead)
    basis[lead] = row
    return lead


def insert_row(basis: dict[int, dict], row: dict, one) -> bool:
    """Insert a {column: field value} row into a reduced basis {pivot: native row}.

    ``one`` is the field's unit.  The row is reduced by the stored pivots,
    normalized at its leading column, and that column is cleared from the
    stored rows, so the basis stays reduced.  Returns False, leaving the
    basis as it was, when the row lies in its span.
    """
    k = _kernel(GF(one.p) if isinstance(one, FpElement) else QQ)
    return _insert(basis, k.native(row)[0], None, k) is not None


def _echelon(rows: list[dict], k) -> dict[int, dict]:
    """The reduced echelon basis {pivot: row} of the span of native rows.

    The rows are inserted latest leading column first.  A new row then
    usually leads left of every stored pivot, and a stored row is zero left
    of its own pivot, so no stored row has an entry to clear and the scan is
    skipped.  The reduced echelon basis of a span is unique, so the order
    changes the work and not the result.  The rows are consumed.
    """
    basis: dict[int, dict] = {}
    low = None
    for row in sorted((r for r in rows if r), key=min, reverse=True):
        lead = _insert(basis, row, low, k)
        if lead is not None and (low is None or lead < low):
            low = lead
    return basis


def rref(rows: list, field, ncols: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of dense or {column: value} rows.

    Returns (nonzero rows, pivot cols) with dense rows.  Every row is checked
    against ncols and converted to a native row before any is inserted;
    ``_echelon`` then inserts them into a reduced basis keyed by pivot
    column, latest leading column first, so the work follows the nonzeros.
    """
    k = _kernel(field)
    basis = _echelon([_native(vec, ncols, "rref", k)[0] for vec in rows], k)
    return _dense_rows(basis, field, ncols), sorted(basis)


def _dense_rows(basis: dict[int, dict], field, ncols: int) -> list[list]:
    """The rows of a native reduced basis {pivot: row} as dense field rows, ordered by pivot."""
    k = _kernel(field)
    zero = field.zero
    out = []
    for p in sorted(basis):
        row = basis[p]
        dense = [zero] * ncols
        for c, x in k.values(row, row[p]).items():
            dense[c] = x
        out.append(dense)
    return out


def solve_in_span(target, generators: list, field) -> list | None:
    """Coefficients c with sum_i c_i * generators[i] = target, or None.

    The returned solution is the RREF particular solution: free variables
    are pinned to zero, so it is unique and reproducible.  The target is a
    dense list; the generators may be dense lists or {index: value} dicts.
    """
    if isinstance(target, dict):
        raise LinAlgError("solve_in_span: the target must be a dense list")
    n = len(target)
    ng = len(generators)
    rows: list[dict] = [{} for _ in range(n)]
    for i, g in enumerate(generators):
        for r, x in _sparse_row(g, n, "solve_in_span").items():
            rows[r][i] = x
    for r, x in _sparse_row(target, n, "solve_in_span").items():
        rows[r][ng] = x
    red, pivots = rref(rows, field, ng + 1)
    if pivots and pivots[-1] == ng:
        return None
    zero = field.zero
    coeffs = [zero] * ng
    for i, c in enumerate(pivots):
        coeffs[c] = red[i][ng]
    return coeffs


def nullspace(rows: list, field, ncols: int) -> list[list]:
    """Canonical basis of {x : rows @ x = 0}, ordered by ascending free column."""
    red, pivots = rref(rows, field, ncols)
    pivot_set = set(pivots)
    zero, one = field.zero, field.one
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [zero] * ncols
        v[f] = one
        for i, p in enumerate(pivots):
            x = red[i][f]
            if x:
                v[p] = -x
        basis.append(v)
    return basis


def reverse_rref(vectors: list, field, ncols: int) -> list[list]:
    """The reduced echelon basis of the span of dense or {column: value}
    vectors with the column order reversed, as dense rows ordered by
    ascending leading column (a row leads at its last nonzero entry).

    This is the basis ``nullspace`` returns for any system whose solution
    space is that span.  nullspace's vector for the free column f is 1 at
    f, 0 at every other free column, and nonzero elsewhere only at pivots
    p < f, since an RREF row is zero before its pivot.  So its last
    nonzero entry is the 1 at f, and every other basis vector is 0 there:
    read with the columns reversed, those vectors are the reduced echelon
    basis of their span.  That basis is unique, so inserting any spanning
    set with the columns reversed reproduces them entry for entry.
    """
    last = ncols - 1
    k = _kernel(field)
    basis = _echelon([{last - c: x for c, x in _native(vec, ncols, "reverse_rref", k)[0].items()}
                      for vec in vectors], k)
    zero = field.zero
    out = []
    for p in sorted(basis, reverse=True):
        row = basis[p]
        dense = [zero] * ncols
        for c, x in k.values(row, row[p]).items():
            dense[last - c] = x
        out.append(dense)
    return out


class Subspace:
    """A subspace of a coordinate space, stored as its unique reduced echelon
    basis {pivot: native row}; ``basis`` and ``pivots`` are dense views."""

    __slots__ = ("field", "ambient_dim", "rows", "_k")

    def __init__(self, field, ambient_dim: int, rows: dict[int, dict]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self._k = _kernel(field)

    @classmethod
    def span(cls, field, ambient_dim: int, vectors: list) -> "Subspace":
        """The span of dense or {index: value} vectors, each checked against ambient_dim."""
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
    def basis(self) -> list[list]:
        """The reduced echelon basis as dense rows, ordered by pivot."""
        return _dense_rows(self.rows, self.field, self.ambient_dim)

    def contains(self, vec) -> bool:
        k = self._k
        return not k.residue(self.rows, *_native(vec, self.ambient_dim, "subspace", k))[0]

    def coords(self, vec: list) -> list | None:
        """Coordinates of vec in the reduced basis, or None when vec is not in the span.

        A basis row is 1 at its own pivot and 0 at the others, so the
        coordinates are the entries of vec at the pivots.
        """
        if not self.contains(vec):
            return None
        return [vec[p] for p in self.pivots]

    def is_contained_in(self, other: "Subspace") -> bool:
        return all(not self._k.residue(other.rows, dict(row), 1)[0] for row in self.rows.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.field == other.field and self.rows == other.rows)

    def sum_with(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise LinAlgError("sum: ambient dimension mismatch")
        rows = [dict(r) for r in self.rows.values()] + [dict(r) for r in other.rows.values()]
        return Subspace(self.field, self.ambient_dim, _echelon(rows, self._k))

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

    def reduce(self, vec) -> dict:
        """Nonzero quotient coordinates {index: value} of a dense or {index: value}
        vector: its residue along the relation rows lives on the free columns."""
        index, k = self._index, self._k
        row, den = k.residue(self.rows, *_native(vec, self.ambient_dim, "project", k))
        return {index[c]: x for c, x in k.values(row, den).items()}

    def project(self, vec) -> list:
        """Quotient coordinates of a dense or {index: value} ambient vector."""
        out = [self.field.zero] * self.dim
        for i, x in self.reduce(vec).items():
            out[i] = x
        return out

    def lift(self, coords) -> dict:
        """The ambient vector {column: value} with the coordinates placed at ``free``."""
        free = self.free
        return {free[i]: x for i, x in _sparse_row(coords, self.dim, "lift").items()}

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


def quotient_structure(field, ambient_dim: int, relations: list) -> Quotient:
    """The quotient of the coordinate space by the span of dense or {column: value} rows.

    The relations are checked, then reduced by ``_echelon``, latest leading
    column first.
    """
    k = _kernel(field)
    rows = _echelon([_native(r, ambient_dim, "quotient", k)[0] for r in relations], k)
    return Quotient(field, ambient_dim, rows)
