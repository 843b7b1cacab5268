"""Exact linear algebra: dense matrices, sparse-row RREF, subspaces, sparse quotients.

Elimination works on sparse {column: value} rows, so its cost follows the
nonzeros of the system rather than rows x columns; it accepts dense lists
or dicts and returns dense rows.  All rows are checked first and then
inserted latest leading column first, so a new pivot seldom has to be
cleared from the rows already stored.  A subspace keeps its reduced
basis as sparse rows, and a quotient only its reduced relation rows and
free columns.  One ``residue`` reduction along such rows serves row
insertion, membership and coordinates in a subspace, and projection onto
a quotient, which rewrites the pivot coordinates along their rows; lifting
places coordinates at the free columns.  Every reduced echelon form,
nullspace basis and quotient coordinate system produced here is the
unique canonical one; identical inputs give bit-identical outputs.
``reverse_rref`` brings any spanning set of a solution space into the
basis ``nullspace`` returns.
"""

from __future__ import annotations


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


def _subtract(row: dict, f, other: dict) -> None:
    """row -= f * other on sparse rows, dropping the entries that cancel."""
    for c, y in other.items():
        x = row.get(c)
        if x is None:
            row[c] = -(f * y)
        else:
            x = x - f * y
            if x:
                row[c] = x
            else:
                del row[c]


def residue(basis: dict[int, dict], row: dict) -> dict:
    """The {column: value} row minus its components along a reduced basis
    {pivot: row}: zero at every pivot, and empty exactly when the row lies
    in the span.  The row is consumed and returned.
    """
    # a stored row is zero at every other pivot, so one pass reduces fully
    for p in [c for c in row if c in basis]:
        _subtract(row, row[p], basis[p])
    return row


def insert_row(basis: dict[int, dict], row: dict, one) -> bool:
    """Insert a {column: value} row into a reduced basis {pivot: row}.

    The row is reduced by the stored pivots, scaled to 1 at its leading
    column, and that column is cleared from the stored rows, so the basis
    stays reduced.  Returns False, leaving the basis as it was, when the
    row lies in its span.  The row is consumed.
    """
    row = residue(basis, row)
    if not row:
        return False
    lead = min(row)
    pv = row[lead]
    if pv != one:
        row = {c: x / pv for c, x in row.items()}
    for other in basis.values():
        f = other.get(lead)
        if f:
            _subtract(other, f, row)
    basis[lead] = row
    return True


def _echelon(rows: list[dict], one) -> dict[int, dict]:
    """The reduced echelon basis {pivot: row} of the span of {column: value} rows.

    The rows are inserted latest leading column first.  A new row then
    usually leads left of every stored pivot, and a stored row is zero left
    of its own pivot, so no stored row needs that column cleared.  The
    reduced echelon basis of a span is unique, so the order changes the
    work and not the result.  The rows are consumed.
    """
    basis: dict[int, dict] = {}
    for row in sorted((r for r in rows if r), key=min, reverse=True):
        insert_row(basis, row, one)
    return basis


def rref(rows: list, field, ncols: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of dense or {column: value} rows.

    Returns (nonzero rows, pivot cols) with dense rows.  Every row is checked
    against ncols before any is inserted; ``_echelon`` then inserts them into
    a reduced basis keyed by pivot column, latest leading column first, so
    the work follows the nonzeros.
    """
    basis = _echelon([_sparse_row(vec, ncols, "rref") for vec in rows], field.one)
    return _dense_rows(basis, field, ncols), sorted(basis)


def _dense_rows(basis: dict[int, dict], field, ncols: int) -> list[list]:
    """The rows of a reduced basis {pivot: row} as dense lists, ordered by pivot."""
    zero = field.zero
    out = []
    for p in sorted(basis):
        dense = [zero] * ncols
        for c, x in basis[p].items():
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
    basis = _echelon([{last - c: x for c, x in _sparse_row(vec, ncols, "reverse_rref").items()}
                      for vec in vectors], field.one)
    zero = field.zero
    out = []
    for p in sorted(basis, reverse=True):
        dense = [zero] * ncols
        for c, x in basis[p].items():
            dense[last - c] = x
        out.append(dense)
    return out


class Subspace:
    """A subspace of a coordinate space, stored as its unique reduced echelon
    basis {pivot: {column: value}}; ``basis`` and ``pivots`` are dense views."""

    __slots__ = ("field", "ambient_dim", "rows")

    def __init__(self, field, ambient_dim: int, rows: dict[int, dict]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows

    @classmethod
    def span(cls, field, ambient_dim: int, vectors: list) -> "Subspace":
        """The span of dense or {index: value} vectors, each checked against ambient_dim."""
        return cls(field, ambient_dim,
                   _echelon([_sparse_row(v, ambient_dim, "span") for v in vectors], field.one))

    @classmethod
    def zero(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, {})

    @classmethod
    def full(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, {i: {i: field.one} for i in range(ambient_dim)})

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
        return not residue(self.rows, _sparse_row(vec, self.ambient_dim, "subspace"))

    def coords(self, vec: list) -> list | None:
        """Coordinates of vec in the reduced basis, or None when vec is not in the span.

        A basis row is 1 at its own pivot and 0 at the others, so the
        coordinates are the entries of vec at the pivots.
        """
        if not self.contains(vec):
            return None
        return [vec[p] for p in self.pivots]

    def is_contained_in(self, other: "Subspace") -> bool:
        return all(other.contains(row) for row in self.rows.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.field == other.field and self.rows == other.rows)

    def sum_with(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise LinAlgError("sum: ambient dimension mismatch")
        return Subspace.span(self.field, self.ambient_dim,
                             list(self.rows.values()) + list(other.rows.values()))

    def intersect(self, other: "Subspace") -> "Subspace":
        # Zassenhaus: the reduced basis of the rows (u, u) and (v, 0) leaves
        # the intersection in the right half of the rows that lead there
        if self.ambient_dim != other.ambient_dim:
            raise LinAlgError("intersect: ambient dimension mismatch")
        n = self.ambient_dim
        rows = [{**u, **{n + c: x for c, x in u.items()}} for u in self.rows.values()]
        rows += [dict(v) for v in other.rows.values()]
        red = _echelon(rows, self.field.one)
        # a reduced row leads at its pivot, so these rows are the reduced basis there
        return Subspace(self.field, n, {p - n: {c - n: x for c, x in row.items()}
                                        for p, row in red.items() if p >= n})

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


class Quotient:
    """A coordinate realization of ambient/relations, kept sparse.

    ``rows`` is the reduced echelon basis of the relations, {pivot: {column:
    value}}, each row 1 at its own pivot and 0 at the others.  Quotient
    coordinates are indexed by the non-pivot columns ``free`` in ascending
    order: a free column lifts to its own ambient basis vector, and a pivot
    column is rewritten along its row.
    """

    __slots__ = ("field", "ambient_dim", "rows", "free", "_index")

    def __init__(self, field, ambient_dim: int, rows: dict[int, dict]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.free = [c for c in range(ambient_dim) if c not in rows]
        self._index = {f: i for i, f in enumerate(self.free)}

    @property
    def dim(self) -> int:
        return len(self.free)

    def reduce(self, vec) -> dict:
        """Nonzero quotient coordinates {index: value} of a dense or {index: value}
        vector: its residue along the relation rows lives on the free columns."""
        index = self._index
        return {index[c]: x for c, x in
                residue(self.rows, _sparse_row(vec, self.ambient_dim, "project")).items()}

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
    rows = _echelon([_sparse_row(r, ambient_dim, "quotient") for r in relations], field.one)
    return Quotient(field, ambient_dim, rows)
