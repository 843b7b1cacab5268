"""Exact linear algebra: dense matrices, sparse-row RREF, subspaces, sparse quotients.

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
    """A dense field-valued matrix stored row-major."""

    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field, data: list[list]):
        self.field = field
        self.data = data
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.ncols:
                raise LinAlgError("ragged rows")

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        one = field.one
        for i in range(n):
            m.data[i][i] = one
        return m

    @classmethod
    def from_columns(cls, field, columns: list[list], nrows: int | None = None) -> "Matrix":
        if not columns:
            return cls.zeros(field, nrows or 0, 0)
        n = len(columns[0])
        m = cls.zeros(field, n, len(columns))
        for j, col in enumerate(columns):
            if len(col) != n:
                raise LinAlgError("ragged columns")
            for i, x in enumerate(col):
                m.data[i][j] = x
        return m

    # -- access ------------------------------------------------------

    def column(self, j: int) -> list:
        return [row[j] for row in self.data]

    def columns(self) -> list[list]:
        return [self.column(j) for j in range(self.ncols)]

    def copy(self) -> "Matrix":
        return Matrix(self.field, [row[:] for row in self.data])

    # -- arithmetic --------------------------------------------------

    def apply(self, vec: list) -> list:
        if len(vec) != self.ncols:
            raise LinAlgError(f"apply: {self.ncols} columns vs vector of length {len(vec)}")
        zero = self.field.zero
        hot = [(k, x) for k, x in enumerate(vec) if x]
        out = []
        for row in self.data:
            s = zero
            for k, x in hot:
                rk = row[k]
                if rk:
                    s = s + rk * x
            out.append(s)
        return out

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise LinAlgError(f"matmul: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        zero = self.field.zero
        out = [[zero] * other.ncols for _ in range(self.nrows)]
        odata = other.data
        for i, arow in enumerate(self.data):
            crow = out[i]
            for k, a in enumerate(arow):
                if not a:
                    continue
                brow = odata[k]
                for j, b in enumerate(brow):
                    if b:
                        crow[j] = crow[j] + a * b
        return Matrix(self.field, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError("shape mismatch in +")
        return Matrix(self.field, [[a + b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError("shape mismatch in -")
        return Matrix(self.field, [[a - b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, [[-a for a in row] for row in self.data])

    def scaled(self, c) -> "Matrix":
        return Matrix(self.field, [[c * a for a in row] for row in self.data])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.data == other.data)

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.data)))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [list(col) for col in zip(*self.data)]) if self.data \
            else Matrix.zeros(self.field, self.ncols, 0)

    def vec(self) -> list:
        """Row-major flattening, the canonical vectorization used for hom spaces."""
        out = []
        for row in self.data:
            out.extend(row)
        return out

    @classmethod
    def unvec(cls, field, flat: list, nrows: int, ncols: int) -> "Matrix":
        if len(flat) != nrows * ncols:
            raise LinAlgError("unvec: wrong length")
        return cls(field, [list(flat[i * ncols:(i + 1) * ncols]) for i in range(nrows)])

    def rank(self) -> int:
        _, pivots = rref([row[:] for row in self.data], self.field, self.ncols)
        return len(pivots)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise LinAlgError("inverse of non-square matrix")
        n = self.nrows
        aug = [row[:] + irow[:] for row, irow in
               zip(self.data, Matrix.identity(self.field, n).data)]
        rows, pivots = rref(aug, self.field, 2 * n)
        if pivots[:n] != list(range(n)):
            raise LinAlgError("matrix is singular")
        return Matrix(self.field, [row[n:] for row in rows[:n]])

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


def combine(mats: list[Matrix], coeffs: list) -> Matrix:
    """sum_i coeffs[i] * mats[i] for a non-empty list of equally shaped matrices."""
    if not mats or len(mats) != len(coeffs):
        raise LinAlgError("combine: need one coefficient per matrix")
    first = mats[0]
    out = Matrix.zeros(first.field, first.nrows, first.ncols)
    for m, c in zip(mats, coeffs):
        if not c:
            continue
        for orow, row in zip(out.data, m.data):
            for j, x in enumerate(row):
                if x:
                    orow[j] = orow[j] + c * x
    return out


def nonzero_columns(mat: Matrix) -> list[list[tuple[int, object]]]:
    """cols[j] = the nonzeros (i, value) of column j of mat.

    mat applied to x is ``sum_nonzeros((x_j, cols[j]) for the nonzeros x_j)``,
    which reads only the nonzeros of both.
    """
    cols: list[list] = [[] for _ in range(mat.ncols)]
    for i, row in enumerate(mat.data):
        for j, x in enumerate(row):
            if x:
                cols[j].append((i, x))
    return cols


def sum_nonzeros(terms) -> dict:
    """{index: value} of sum c * v over (c, nonzeros (index, value) of v), zeros dropped."""
    acc: dict = {}
    for c, v in terms:
        for l, x in v:
            y = acc.get(l)
            acc[l] = c * x if y is None else y + c * x
    return {l: x for l, x in acc.items() if x}


def action_images(actions: list[Matrix], vectors: list[list]) -> list[list[list]]:
    """images[i][a] = the nonzeros (k, value) of actions[a] applied to vectors[i],
    each computed once."""
    return [[[(k, y) for k, y in enumerate(act.apply(v)) if y] for act in actions]
            for v in vectors]


def combine_images(field, dim: int, images: list[list[list]], coeffs: list[list]) -> list:
    """sum_i sum_a coeffs[i][a] * images[i][a] for ``action_images``, adding only the nonzeros."""
    out = [field.zero] * dim
    for imgs, coeff in zip(images, coeffs):
        for a, c in enumerate(coeff):
            if c:
                for k, y in imgs[a]:
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

        Column i is the projection of the ambient map's column at ``free[i]``.
        """
        if (ambient_map.nrows, ambient_map.ncols) != (self.ambient_dim, self.ambient_dim):
            raise LinAlgError("induced: map does not act on the ambient space")
        cols = [self.project({r: row[f] for r, row in enumerate(ambient_map.data) if row[f]})
                for f in self.free]
        return Matrix.from_columns(self.field, cols, nrows=self.dim)


def quotient_structure(field, ambient_dim: int, relations: list) -> Quotient:
    """The quotient of the coordinate space by the span of dense or {column: value} rows.

    The relations are checked, then reduced by ``_echelon``, latest leading
    column first.
    """
    k = _kernel(field)
    rows = _echelon([_native(r, ambient_dim, "quotient", k)[0] for r in relations], k)
    return Quotient(field, ambient_dim, rows)
