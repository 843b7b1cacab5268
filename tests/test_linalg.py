from __future__ import annotations

import random
from fractions import Fraction

import pytest

from depthtwo.fields import GF, QQ, FpElement
from depthtwo.linalg import (LinAlgError, Matrix, Subspace, combine, insert_row, nullspace,
                             quotient_structure, reverse_rref, rref, solve_in_span, sum_nonzeros)

from conftest import kron, unit_vectors


def vec(field, *entries):
    return [field.of(e) for e in entries]


def random_matrix(rng, field, nrows, ncols, span=5):
    return [[field.of(rng.randint(-span, span)) for _ in range(ncols)]
            for _ in range(nrows)]


# -- solve_in_span --------------------------------------------------------

def test_solve_zero_vector_in_any_span():
    assert solve_in_span(vec(QQ, 0, 0), [vec(QQ, 1, 2)], QQ) == vec(QQ, 0)


def test_solve_identity_case():
    assert solve_in_span(vec(QQ, 1, 2), [vec(QQ, 1, 2)], QQ) == vec(QQ, 1)


def test_solve_diagonal_case():
    coeffs = solve_in_span(vec(QQ, 1, 1), [vec(QQ, 1, 0), vec(QQ, 0, 2)], QQ)
    assert coeffs == [QQ.of(1), QQ.parse("1/2")]


def test_solve_absent_when_outside_span():
    assert solve_in_span(vec(QQ, 0, 1), [vec(QQ, 1, 0)], QQ) is None


def test_solve_dimension_mismatch():
    with pytest.raises(LinAlgError):
        solve_in_span(vec(QQ, 1), [vec(QQ, 1, 0)], QQ)


def test_solve_succeeds_iff_rank_unchanged():
    rng = random.Random(7)
    for field in (QQ, GF(5)):
        for _ in range(40):
            gens = random_matrix(rng, field, rng.randint(0, 4), 5)
            target = [field.of(rng.randint(-5, 5)) for _ in range(5)]
            _, p1 = rref(gens, field, 5)
            _, p2 = rref(gens + [target], field, 5)
            coeffs = solve_in_span(target, gens, field)
            if len(p1) == len(p2):
                assert coeffs is not None
                combo = [field.zero] * 5
                for c, g in zip(coeffs, gens):
                    combo = [a + c * b for a, b in zip(combo, g)]
                assert combo == target
            else:
                assert coeffs is None


# -- rref / nullspace ------------------------------------------------------

def test_rref_is_idempotent():
    rng = random.Random(11)
    for field in (QQ, GF(3)):
        for _ in range(30):
            rows = random_matrix(rng, field, 4, 6)
            red, piv = rref(rows, field, 6)
            red2, piv2 = rref(red, field, 6)
            assert red == red2 and piv == piv2


def test_nullspace_vectors_annihilate():
    rng = random.Random(13)
    for field in (QQ, GF(5)):
        for _ in range(30):
            rows = random_matrix(rng, field, 3, 5)
            m = Matrix(field, [r[:] for r in rows])
            basis = nullspace(rows, field, 5)
            _, piv = rref(rows, field, 5)
            assert len(basis) == 5 - len(piv)
            for v in basis:
                assert all(not x for x in m.apply(v))


# -- matrix ops ------------------------------------------------------------

def test_matmul_against_apply():
    rng = random.Random(17)
    a = Matrix(QQ, random_matrix(rng, QQ, 3, 4))
    b = Matrix(QQ, random_matrix(rng, QQ, 4, 2))
    ab = a @ b
    for j in range(2):
        assert ab.column(j) == a.apply(b.column(j))


def _row_dot(m: Matrix, v: list) -> list:
    """Dense reference for m applied to v: one dot product per row."""
    out = []
    for row in m.data:
        s = m.field.zero
        for a, x in zip(row, v):
            s = s + a * x
        out.append(s)
    return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=["Q", "F2", "F5"])
def test_column_view_image_and_apply_match_a_dense_reference(field):
    rng = random.Random(11)
    shapes = [(3, 4), (5, 2), (1, 1), (4, 6)]
    mats = [Matrix(field, random_matrix(rng, field, r, c, span=1)) for r, c in shapes]
    with_zero_columns = random_matrix(rng, field, 4, 5)
    for row in with_zero_columns:
        row[1] = row[3] = field.zero
    mats.append(Matrix(field, with_zero_columns))
    mats += [Matrix.zeros(field, 0, 3), Matrix.zeros(field, 3, 0), Matrix.zeros(field, 2, 2)]
    for m in mats:
        assert len(m.cols) == m.ncols
        for j, col in enumerate(m.cols):
            assert col == {i: x for i, x in enumerate(m.column(j)) if x}
        vectors = [random_matrix(rng, field, 1, m.ncols)[0] for _ in range(4)]
        vectors.append([field.zero] * m.ncols)
        for v in vectors:
            expected = _row_dot(m, v)
            assert m.apply(v) == expected
            assert m.image(v) == {i: x for i, x in enumerate(expected) if x}
            assert m.image({j: x for j, x in enumerate(v) if x}) == m.image(v)
        with pytest.raises(LinAlgError):
            m.apply([field.zero] * (m.ncols + 1))
    assert Matrix.zeros(field, 0, 3).cols == [{}, {}, {}]
    assert Matrix.zeros(field, 3, 0).cols == []
    assert Matrix.zeros(field, 2, 2).cols == [{}, {}]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=["Q", "F2", "F5"])
def test_from_columns_keeps_dict_columns_as_the_view(field):
    rng = random.Random(5)
    dense = random_matrix(rng, field, 4, 3)
    dense[2] = [field.zero] * 3
    columns = [{i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(3)]
    columns.append({})
    m = Matrix.from_columns(field, columns, nrows=4)
    assert (m.nrows, m.ncols) == (4, 4)
    assert m.cols == columns
    assert m.data == [tuple(row + [field.zero]) for row in dense]
    assert Matrix(field, m.data).cols == columns
    # dense columns give the same matrix and view
    assert Matrix.from_columns(field, [m.column(j) for j in range(4)]).cols == columns
    with pytest.raises(LinAlgError):
        Matrix.from_columns(field, [{4: field.one}], nrows=4)


def test_writing_into_data_raises_and_leaves_the_matrix_unchanged():
    m = Matrix.identity(QQ, 3)
    with pytest.raises(TypeError):
        m.data[0][2] = QQ.of(7)
    assert m.cols == [{0: QQ.one}, {1: QQ.one}, {2: QQ.one}]
    assert m == Matrix.identity(QQ, 3)


@pytest.mark.parametrize("build, shape", [
    (lambda: Matrix.zeros(QQ, 0, 3), (0, 3)),
    (lambda: Matrix.zeros(QQ, 3, 0).transpose(), (0, 3)),
    (lambda: Matrix.from_columns(QQ, [{}, {}], nrows=0), (0, 2)),
    (lambda: Matrix.zeros(QQ, 2, 0) @ Matrix.zeros(QQ, 0, 3), (2, 3)),
], ids=["zeros", "transpose", "from_columns", "matmul"])
def test_empty_shapes_keep_their_size(build, shape):
    m = build()
    nrows, ncols = shape
    assert (m.nrows, m.ncols) == shape
    assert m.cols == [{}] * ncols
    assert m.data == [(QQ.zero,) * ncols] * nrows
    assert (m.transpose().nrows, m.transpose().ncols) == (ncols, nrows)
    assert m == Matrix.zeros(QQ, nrows, ncols) != Matrix.zeros(QQ, 0, 0)


def _dense_gauss_jordan(field, rows: list[list], ncols: int) -> tuple[list[list], int]:
    """Plain Gauss-Jordan elimination on nested lists: (reduced rows, rank)."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.one / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rows, rank


def test_column_arithmetic_matches_nested_list_arithmetic():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        field = data.draw(st.sampled_from([QQ, GF(2), GF(5)]), label="field")
        zero = field.zero

        # over Q the entries have denominators, which the native rows clear
        dens = st.integers(1, 3) if field.char == 0 else st.just(1)

        def rows(r, c):
            return [[field.of(data.draw(st.integers(-2, 2))) / field.of(data.draw(dens))
                     for _ in range(c)] for _ in range(r)]

        def dense(m: Matrix) -> tuple:
            return m.nrows, m.ncols, [list(row) for row in m.data]

        r, k, c = (data.draw(st.integers(0, 4), label=x) for x in "rkc")
        a, a2, b = rows(r, k), rows(r, k), rows(k, c)
        ma, ma2, mb = Matrix(field, a), Matrix(field, a2), Matrix(field, b)
        # Matrix(field, []) cannot know its width, so empty inputs come from zeros
        if not r:
            ma = ma2 = Matrix.zeros(field, 0, k)
        if not k:
            mb = Matrix.zeros(field, 0, c)
        s = field.of(data.draw(st.integers(-2, 2), label="scalar"))

        assert dense(ma @ mb) == (r, c, [[sum((a[i][t] * b[t][j] for t in range(k)), zero)
                                          for j in range(c)] for i in range(r)])
        assert dense(ma + ma2) == (r, k, [[x + y for x, y in zip(u, v)] for u, v in zip(a, a2)])
        assert dense(ma - ma2) == (r, k, [[x - y for x, y in zip(u, v)] for u, v in zip(a, a2)])
        assert dense(ma.scaled(s)) == (r, k, [[s * x for x in u] for u in a])
        assert dense(-ma) == (r, k, [[-x for x in u] for u in a])
        assert dense(ma.transpose()) == (k, r, [[a[i][j] for i in range(r)] for j in range(k)])
        assert ma.rank() == _dense_gauss_jordan(field, a, k)[1]
        flat = [x for u in a for x in u]
        assert ma.vec() == flat
        assert Matrix.unvec(field, flat, r, k) == ma
        coeffs = [s, field.of(data.draw(st.integers(-2, 2), label="coeff"))]
        assert dense(combine([ma, ma2], coeffs)) == (
            r, k, [[coeffs[0] * x + coeffs[1] * y for x, y in zip(u, v)] for u, v in zip(a, a2)])
        assert combine([ma, ma2], {i: x for i, x in enumerate(coeffs) if x}) == \
            combine([ma, ma2], coeffs)

        n = data.draw(st.integers(0, 4), label="n")
        sq = rows(n, n)
        msq = Matrix(field, sq) if n else Matrix.zeros(field, 0, 0)
        if _dense_gauss_jordan(field, sq, n)[1] < n:
            with pytest.raises(LinAlgError):
                msq.inverse()
        else:
            eye = unit_vectors(field, n)
            red, _ = _dense_gauss_jordan(field, [u + e for u, e in zip(sq, eye)], 2 * n)
            assert dense(msq.inverse()) == (n, n, [row[n:] for row in red])

    check()


def test_sum_nonzeros_drops_cancelled_entries():
    terms = [(QQ.of(1), [(0, QQ.of(2)), (1, QQ.of(1))]), (QQ.of(-1), [(1, QQ.of(1))])]
    assert sum_nonzeros(terms) == {0: QQ.of(2)}
    assert sum_nonzeros([]) == {}


def test_kron_index_convention():
    a = Matrix(QQ, [[QQ.of(2)]])
    b = Matrix.identity(QQ, 2)
    k = kron(a, b)
    assert k.nrows == 2 and k.data[0][0] == QQ.of(2) and k.data[1][1] == QQ.of(2)
    c = Matrix(QQ, [vec(QQ, 1, 2), vec(QQ, 3, 4)])
    assert kron(c, b).data[3][1] == QQ.of(3)  # ((1, 1), (0, 1)) is c[1][0] * b[1][1]


def test_inverse_round_trip():
    rng = random.Random(19)
    for _ in range(10):
        m = Matrix(QQ, random_matrix(rng, QQ, 4, 4))
        if m.rank() < 4:
            continue
        assert m @ m.inverse() == Matrix.identity(QQ, 4)


def test_inverse_singular_raises():
    with pytest.raises(LinAlgError):
        Matrix.zeros(QQ, 2, 2).inverse()


# -- subspaces ---------------------------------------------------------------

def test_subspace_membership_and_equality():
    s = Subspace.span(QQ, 3, [vec(QQ, 1, 0, 1), vec(QQ, 0, 1, 1)])
    assert s.contains(vec(QQ, 1, 1, 2))
    assert not s.contains(vec(QQ, 1, 1, 1))
    s2 = Subspace.span(QQ, 3, [vec(QQ, 1, 1, 2), vec(QQ, 1, 0, 1)])
    assert s == s2


def test_intersection_and_sum_dims():
    rng = random.Random(23)
    for _ in range(25):
        u = Subspace.span(QQ, 5, random_matrix(rng, QQ, 2, 5))
        v = Subspace.span(QQ, 5, random_matrix(rng, QQ, 3, 5))
        inter = u.intersect(v)
        total = u.sum_with(v)
        assert inter.dim + total.dim == u.dim + v.dim
        assert inter == Subspace.span(QQ, 5, inter.basis)  # kept in canonical form
        assert inter.is_contained_in(u) and u.is_contained_in(total)
        for w in inter.basis:
            assert u.contains(w) and v.contains(w)


# -- quotients ----------------------------------------------------------------

def test_quotient_by_zero_is_identity():
    q = quotient_structure(QQ, 3, [])
    assert q.dim == 3
    for e in unit_vectors(QQ, 3):
        assert q.project(e) == e
        assert q.lift(e) == as_dict(e)


def test_quotient_by_full_space_is_zero():
    q = quotient_structure(QQ, 2, Subspace.full(QQ, 2).basis)
    assert q.dim == 0


def test_quotient_identifies_one_relation():
    q = quotient_structure(QQ, 2, [vec(QQ, 1, -1)])
    assert q.dim == 1
    assert q.project(vec(QQ, 1, 0)) == q.project(vec(QQ, 0, 1))


def test_quotient_invariants_random():
    rng = random.Random(29)
    for field in (QQ, GF(5)):
        for _ in range(25):
            rel = Subspace.span(field, 6, random_matrix(rng, field, 2, 6))
            q = quotient_structure(field, 6, rel.basis)
            # project o lift is the identity on quotient coordinates
            for e in unit_vectors(field, q.dim):
                assert q.project(q.lift(e)) == e
            for r in rel.basis:
                assert all(not x for x in q.project(r))
            assert q.dim == 6 - rel.dim


def reference_rref(rows, field, ncols):
    """Textbook dense Gauss-Jordan with the leftmost pivot column first."""
    rows = [row[:] for row in rows]
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def as_dict(row):
    return {c: x for c, x in enumerate(row) if x}


def sparse_random_rows(rng, field, nrows, ncols):
    rows = [[field.of(rng.choice((0, 0, 0, 1, -1, 2, 3))) for _ in range(ncols)]
            for _ in range(nrows)]
    if rows and rng.random() < 0.5:
        rows.append(rows[rng.randrange(len(rows))][:])  # a duplicate row
    if rng.random() < 0.5:
        rows.insert(rng.randrange(len(rows) + 1), [field.zero] * ncols)
    return rows


def test_rref_of_dict_rows_equals_dense_and_reference():
    rng = random.Random(41)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(60):
            ncols = rng.randint(0, 7)
            rows = sparse_random_rows(rng, field, rng.randint(0, 10), ncols)
            dense = rref(rows, field, ncols)
            assert rref([as_dict(r) for r in rows], field, ncols) == dense
            assert dense == reference_rref(rows, field, ncols)
            mixed = [as_dict(r) if i % 2 else r for i, r in enumerate(rows)]
            assert rref(mixed, field, ncols) == dense


def test_insert_row_keeps_the_rref_of_every_prefix():
    rng = random.Random(43)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(40):
            ncols = rng.randint(1, 7)
            rows = sparse_random_rows(rng, field, rng.randint(1, 10), ncols)
            basis: dict = {}
            for k, row in enumerate(rows):
                rank = len(basis)
                grew = insert_row(basis, as_dict(row), field.one)
                assert grew == (len(basis) == rank + 1)
                assert grew or len(basis) == rank
                red, pivots = reference_rref(rows[:k + 1], field, ncols)
                assert sorted(basis) == pivots
                assert Subspace(field, ncols, basis).basis == red

def test_rref_edge_cases():
    for field in (QQ, GF(2)):
        one, zero = field.one, field.zero
        assert rref([], field, 0) == ([], [])
        assert rref([{}, {}], field, 0) == ([], [])
        assert rref([{}, {}], field, 3) == ([], [])
        assert rref([[zero] * 3], field, 3) == ([], [])
        # more rows than columns, with duplicates
        red, piv = rref([{1: one}, {1: one}, {0: one, 1: one}, {}], field, 2)
        assert (red, piv) == ([[one, zero], [zero, one]], [0, 1])
    # the stored value 0 in a dict is a zero entry
    assert rref([{0: QQ.zero, 2: QQ.of(2)}], QQ, 3) == ([vec(QQ, 0, 0, 1)], [2])


def test_sparse_rows_outside_the_columns_are_rejected():
    one = QQ.one
    for bad in ({3: one}, {-1: one}, {"0": one}):
        with pytest.raises(LinAlgError):
            rref([bad], QQ, 3)
        with pytest.raises(LinAlgError):
            Subspace.span(QQ, 3, [bad])
        with pytest.raises(LinAlgError):
            solve_in_span(vec(QQ, 1, 0, 0), [bad], QQ)
    with pytest.raises(LinAlgError):
        rref([vec(QQ, 1, 2)], QQ, 3)
    with pytest.raises(LinAlgError):
        Subspace.span(QQ, 3, [vec(QQ, 1, 2)])


def test_solve_in_span_with_dict_generators():
    rng = random.Random(43)
    for field in (QQ, GF(5)):
        for _ in range(30):
            gens = sparse_random_rows(rng, field, rng.randint(0, 4), 5)
            target = [field.of(rng.randint(-3, 3)) for _ in range(5)]
            assert solve_in_span(target, [as_dict(g) for g in gens], field) == \
                solve_in_span(target, gens, field)


def test_subspace_span_of_dict_rows():
    rng = random.Random(47)
    for field in (QQ, GF(3)):
        for _ in range(20):
            rows = sparse_random_rows(rng, field, 4, 6)
            assert Subspace.span(field, 6, [as_dict(r) for r in rows]) == \
                Subspace.span(field, 6, rows)


def test_subspace_coords_agree_with_solve_in_span():
    rng = random.Random(53)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(30):
            space = Subspace.span(field, 6, sparse_random_rows(rng, field, 3, 6))
            coeffs = [field.of(rng.randint(-3, 3)) for _ in range(space.dim)]
            member = [field.zero] * 6
            for c, b in zip(coeffs, space.basis):
                member = [x + c * y for x, y in zip(member, b)]
            assert space.coords(member) == coeffs
            assert space.coords(member) == solve_in_span(member, space.basis, field)
            other = [field.of(rng.randint(-3, 3)) for _ in range(6)]
            expected = solve_in_span(other, space.basis, field)
            assert space.coords(other) == expected
            assert (expected is None) == (not space.contains(other))


def test_subspace_coords_off_the_subspace_is_none():
    space = Subspace.span(QQ, 3, [vec(QQ, 1, 1, 0)])
    assert space.coords(vec(QQ, 2, 2, 0)) == vec(QQ, 2)
    assert space.coords(vec(QQ, 1, 0, 0)) is None
    assert Subspace.zero(QQ, 3).coords(vec(QQ, 0, 0, 0)) == []
    assert Subspace.zero(QQ, 3).coords(vec(QQ, 0, 1, 0)) is None


def reference_quotient(rows, field, ncols):
    """The dense (projection, section) pair of the quotient by the span of rows,
    as row lists, so that a zero-dimensional quotient keeps its shape."""
    red, pivots = reference_rref(rows, field, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    proj = [[field.zero] * ncols for _ in free]
    for qi, f in enumerate(free):
        proj[qi][f] = field.one
    for row, p in zip(red, pivots):
        for qi, f in enumerate(free):
            if row[f]:
                proj[qi][p] = -row[f]
    sect = [[field.zero] * len(free) for _ in range(ncols)]
    for qi, f in enumerate(free):
        sect[f][qi] = field.one
    return proj, sect


def dense_apply(field, rows, v):
    return [sum((a * x for a, x in zip(row, v)), field.zero) for row in rows]


def relation_cases(rng, field, ncols):
    """Zero, full and random sparse relation sets."""
    yield []
    yield unit_vectors(field, ncols)
    for _ in range(12):
        yield sparse_random_rows(rng, field, rng.randint(1, ncols), ncols)


def test_reverse_rref_of_a_spanning_set_is_the_nullspace_basis():
    # any spanning set of a solution space, dense or sparse, in any order and
    # with dependent members, gives back nullspace's basis entry for entry
    rng = random.Random(67)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(30):
            ncols = rng.randint(1, 7)
            for rows in relation_cases(rng, field, ncols):
                basis = nullspace(rows, field, ncols)
                combos = [[field.of(rng.randint(-3, 3)) for _ in basis]
                          for _ in range(len(basis) + rng.randint(0, 3))]
                span = [[sum((c * v[k] for c, v in zip(combo, basis)), field.zero)
                         for k in range(ncols)] for combo in combos]
                span += [v[:] for v in basis]  # makes the set spanning
                rng.shuffle(span)
                mixed = [as_dict(v) if i % 2 else v for i, v in enumerate(span)]
                assert reverse_rref(mixed, field, ncols) == basis
                assert reverse_rref(basis, field, ncols) == basis


def test_reverse_rref_of_the_zero_and_full_spaces():
    for field in (QQ, GF(2), GF(5)):
        eye = unit_vectors(field, 4)
        assert nullspace(eye, field, 4) == [] == reverse_rref([], field, 4)
        assert reverse_rref([{}, [field.zero] * 4], field, 4) == []
        full = nullspace([], field, 4)
        assert full == eye
        # an invertible mix of the unit vectors, leading columns reversed
        mix = [[field.of(x) for x in row] for row in
               ([1, 1, 0, 0], [0, 1, 1, 0], [2, 0, 1, 1], [0, 0, 0, 1])]
        assert reverse_rref(mix, field, 4) == full
        assert reverse_rref([], field, 0) == []


def test_sparse_quotient_agrees_with_the_dense_reference():
    rng = random.Random(61)
    n = 6
    for field in (QQ, GF(2), GF(5)):
        for rows in relation_cases(rng, field, n):
            q = quotient_structure(field, n, [as_dict(r) for r in rows])
            proj, sect = reference_quotient(rows, field, n)
            assert q.dim == len(proj)
            assert q.free == [j for j in range(n) if any(sect[j])]
            for v in random_matrix(rng, field, 4, n) + unit_vectors(field, n):
                expected = dense_apply(field, proj, v)
                assert q.project(v) == expected
                assert q.project(as_dict(v)) == expected
                assert q.reduce(v) == as_dict(expected)
            for c in random_matrix(rng, field, 3, q.dim) + unit_vectors(field, q.dim):
                expected = as_dict(dense_apply(field, sect, c))
                assert q.lift(c) == expected
                assert q.lift(as_dict(c)) == expected
            ambient_map = Matrix(field, random_matrix(rng, field, n, n))
            induced = q.induced(ambient_map)
            assert induced.nrows == q.dim
            if q.dim:
                assert induced == Matrix(field, proj) @ ambient_map @ Matrix(field, sect)


def test_sparse_quotient_rejects_bad_shapes():
    q = quotient_structure(QQ, 3, [vec(QQ, 1, -1, 0)])
    for bad in (vec(QQ, 1, 0), vec(QQ, 1, 0, 0, 0), {3: QQ.one}, {-1: QQ.one}):
        with pytest.raises(LinAlgError):
            q.project(bad)
    for bad in (vec(QQ, 1), vec(QQ, 1, 0, 0), {2: QQ.one}, {"0": QQ.one}):
        with pytest.raises(LinAlgError):
            q.lift(bad)
    for bad in (Matrix.identity(QQ, 2), Matrix.zeros(QQ, 3, 2)):
        with pytest.raises(LinAlgError):
            q.induced(bad)
    with pytest.raises(LinAlgError):
        quotient_structure(QQ, 2, [vec(QQ, 1, 0, 0)])


def test_quotient_induced_equals_projection_map_section():
    rng = random.Random(59)
    for field in (QQ, GF(5)):
        for _ in range(20):
            rows = sparse_random_rows(rng, field, 2, 5)
            q = quotient_structure(field, 5, rows)
            proj, sect = reference_quotient(rows, field, 5)
            ambient_map = Matrix(field, random_matrix(rng, field, 5, 5))
            assert q.induced(ambient_map) == Matrix(field, proj) @ ambient_map @ Matrix(field, sect)
    q = quotient_structure(QQ, 2, [])
    with pytest.raises(LinAlgError):
        q.induced(Matrix.identity(QQ, 3))


def shuffled_cases(rng, field):
    """Row sets with zero rows, duplicate rows and full rank, each with a shuffled copy."""
    for _ in range(25):
        ncols = rng.randint(1, 7)
        cases = [sparse_random_rows(rng, field, rng.randint(1, 9), ncols),
                 unit_vectors(field, ncols) + [[field.zero] * ncols]]
        # full rank with every row leading at column 0
        full = [[field.of(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(ncols)]
        if len(reference_rref(full, field, ncols)[1]) == ncols and all(row[0] for row in full):
            cases.append(full)
        for rows in cases:
            rows = rows + [rows[rng.randrange(len(rows))][:]]  # a duplicate row
            mixed = [as_dict(r) if rng.random() < 0.5 else r[:] for r in rows]
            rng.shuffle(mixed)
            yield ncols, rows, mixed


def reference_solve(target, generators, field):
    """The particular solution read off the reference RREF of [generators | target]."""
    ng = len(generators)
    system = [[g[r] for g in generators] + [target[r]] for r in range(len(target))]
    red, pivots = reference_rref(system, field, ng + 1)
    if pivots and pivots[-1] == ng:
        return None
    coeffs = [field.zero] * ng
    for row, p in zip(red, pivots):
        coeffs[p] = row[ng]
    return coeffs


def test_shuffled_rows_give_the_reference_results():
    rng = random.Random(71)
    for field in (QQ, GF(2), GF(5)):
        for ncols, rows, mixed in shuffled_cases(rng, field):
            red, pivots = reference_rref(rows, field, ncols)
            assert rref(mixed, field, ncols) == (red, pivots)
            basis = nullspace(mixed, field, ncols)
            assert basis == nullspace(rows, field, ncols)
            assert len(basis) == ncols - len(pivots)
            for v in basis:
                assert all(not x for x in dense_apply(field, rows, v))
            q = quotient_structure(field, ncols, mixed)
            assert q.free == [c for c in range(ncols) if c not in pivots]
            assert Subspace(field, ncols, q.rows).basis == red
            # the rows as generators, with their coordinates (the equations) shuffled
            perm = list(range(ncols))
            rng.shuffle(perm)
            inside = dense_apply(field, list(zip(*rows)), [field.of(rng.randint(-2, 2))
                                                           for _ in rows])
            for target in (inside, [field.of(rng.randint(-2, 2)) for _ in range(ncols)]):
                expected = reference_solve(target, rows, field)
                gens = [[g[p] for p in perm] for g in rows]
                gens = [as_dict(g) if k % 2 else g for k, g in enumerate(gens)]
                assert solve_in_span([target[p] for p in perm], gens, field) == expected
            assert reference_solve(inside, rows, field) is not None


def test_bad_rows_are_rejected_wherever_they_stand():
    one = QQ.one
    good = [vec(QQ, 0, 0, 1), vec(QQ, 1, 0, 0)]
    for bad in ({3: one}, {-1: one}, {"0": one}, vec(QQ, 1, 2), vec(QQ, 1, 2, 3, 4)):
        for at in range(len(good) + 1):
            rows = good[:at] + [bad] + good[at:]
            for call in (lambda: rref(rows, QQ, 3), lambda: nullspace(rows, QQ, 3),
                         lambda: quotient_structure(QQ, 3, rows),
                         lambda: reverse_rref(rows, QQ, 3)):
                with pytest.raises(LinAlgError):
                    call()


# -- the native-row kernel against the reference, value by value -----------------

KERNEL_FIELDS = [QQ, GF(2), GF(5), GF(2 ** 61 - 1)]  # the last is above the element tables


def kernel_entry(rng, field):
    """Mostly zero; over Q also fractions, negatives and entries above 2^64."""
    if rng.random() < 0.45:
        return field.zero
    if field.char:
        return field.of(rng.randrange(-field.char, field.char))
    kind = rng.randrange(4)
    if kind == 0:
        return field.of(rng.randint(-3, 3))
    if kind == 1:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 8))
    if kind == 2:
        return Fraction(rng.randint(-2 ** 70, 2 ** 70), rng.randint(1, 2 ** 66))
    return field.of(-rng.randint(2 ** 64, 2 ** 66))


def kernel_rows(rng, field, nrows, ncols):
    rows = [[kernel_entry(rng, field) for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.5:
        k = rng.randrange(len(rows))
        rows.append([kernel_entry(rng, field) * x for x in rows[k]])  # a dependent row
    return rows


def assert_field_values(field, values):
    """Every scalar in nested lists and dict values is a field element, not an int."""
    if isinstance(values, dict):
        values = list(values.values())
    for x in values:
        if isinstance(x, (list, dict)):
            assert_field_values(field, x)
        elif field.char:
            assert type(x) is FpElement and x.p == field.char, repr(x)
        else:
            assert type(x) is Fraction, repr(x)


def reference_nullspace(rows, field, ncols):
    red, pivots = reference_rref(rows, field, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [field.zero] * ncols
        v[f] = field.one
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def reference_intersection(u, v, field, n):
    """Zassenhaus on the reference RREF: rows (x, x) for x in u and (y, 0) for y in v."""
    rows = [x + x for x in u] + [y + [field.zero] * n for y in v]
    red, pivots = reference_rref(rows, field, 2 * n)
    return [row[n:] for row, p in zip(red, pivots) if p >= n]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=["Q", "F2", "F5", "F2^61-1"])
def test_kernel_results_equal_the_reference(field):
    rng = random.Random(f"kernel/{field!r}")
    for _ in range(30):
        ncols = rng.randint(1, 7)
        rows = kernel_rows(rng, field, rng.randint(0, 7), ncols)
        mixed = [as_dict(r) if rng.random() < 0.5 else r for r in rows]
        red, pivots = reference_rref(rows, field, ncols)
        out = rref(mixed, field, ncols)
        assert out == (red, pivots)
        assert_field_values(field, out[0])

        basis = nullspace(mixed, field, ncols)
        assert basis == reference_nullspace(rows, field, ncols)
        assert_field_values(field, basis)
        combos = [[kernel_entry(rng, field) for _ in basis] for _ in range(rng.randint(0, 3))]
        spanning = [[sum((c * v[k] for c, v in zip(combo, basis)), field.zero)
                     for k in range(ncols)] for combo in combos] + basis
        rng.shuffle(spanning)
        rev = reverse_rref([as_dict(v) if rng.random() < 0.5 else v for v in spanning],
                           field, ncols)
        assert rev == basis
        assert_field_values(field, rev)

        combo = [kernel_entry(rng, field) for _ in rows]
        inside = [sum((c * r[k] for c, r in zip(combo, rows)), field.zero) for k in range(ncols)]
        anywhere = [kernel_entry(rng, field) for _ in range(ncols)]
        for target in (inside, anywhere):
            coeffs = solve_in_span(target, [as_dict(r) for r in rows], field)
            assert coeffs == reference_solve(target, rows, field)
            if coeffs is not None:
                assert_field_values(field, coeffs)

        space = Subspace.span(field, ncols, mixed)
        assert space.basis == red and space.pivots == pivots
        assert_field_values(field, space.basis)
        assert space == Subspace.span(field, ncols, list(reversed(rows)))
        for vec in (inside, anywhere):
            member = len(reference_rref(rows + [vec], field, ncols)[1]) == len(pivots)
            assert space.contains(vec) == space.contains(as_dict(vec)) == member
            coords = space.coords(vec)
            assert coords == reference_solve(vec, red, field)
            if coords is not None:
                assert_field_values(field, coords)

        other_rows = kernel_rows(rng, field, rng.randint(0, 4), ncols)
        other = Subspace.span(field, ncols, other_rows)
        total = space.sum_with(other)
        assert total.basis == reference_rref(rows + other_rows, field, ncols)[0]
        inter = space.intersect(other)
        assert inter.basis == reference_intersection(red, other.basis, field, ncols)
        assert_field_values(field, total.basis + inter.basis)
        assert inter.dim + total.dim == space.dim + other.dim

        q = quotient_structure(field, ncols, mixed)
        proj, sect = reference_quotient(rows, field, ncols)
        for vec in (inside, anywhere):
            expected = dense_apply(field, proj, vec)
            assert q.project(vec) == q.project(as_dict(vec)) == expected
            assert q.reduce(vec) == as_dict(expected)
            assert_field_values(field, [q.project(vec), q.reduce(vec)])
        coords = [kernel_entry(rng, field) for _ in range(q.dim)]
        assert q.lift(coords) == as_dict(dense_apply(field, sect, coords))
        assert_field_values(field, q.lift(coords))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=["Q", "F2", "F5", "F2^61-1"])
def test_insert_row_in_random_order_keeps_the_reference_rref(field):
    # a row leading left of every stored pivot skips the clearing scan; any
    # other row clears its pivot column from the stored rows
    rng = random.Random(f"insert/{field!r}")
    skipped = scanned = 0
    for _ in range(40):
        ncols = rng.randint(1, 7)
        rows = kernel_rows(rng, field, rng.randint(1, 8), ncols)
        rng.shuffle(rows)
        basis: dict = {}
        for k, row in enumerate(rows):
            before = set(basis)
            grew = insert_row(basis, as_dict(row), field.one)
            assert grew == (len(basis) == len(before) + 1)
            if grew and before:
                (lead,) = set(basis) - before
                if lead < min(before):
                    skipped += 1
                else:
                    scanned += 1
            view = Subspace(field, ncols, basis).basis
            assert view == reference_rref(rows[:k + 1], field, ncols)[0]
            assert_field_values(field, view)
    assert skipped and scanned
