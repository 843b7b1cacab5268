from __future__ import annotations

import itertools

import pytest

from depthtwo.algebras import (AlgebraMorphism, Extension, FiniteAlgebra, group_pair,
                               subgroup_extension)
from depthtwo.catalog import build_example, catalog_names
from depthtwo.fields import GF, QQ
from depthtwo.linalg import Matrix


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Dense Kronecker product, the reference for maps acting on one tensor leg.

    Entry ((i, k), (j, l)) is a[i][j] * b[k][l]; index (i, k) flattens to
    i * b.nrows + k, the ambient convention of the balanced tensor products.
    """
    return Matrix(a.field, [[x * y for x in arow for y in brow]
                            for arow in a.data for brow in b.data])


def unit_vectors(field, n: int) -> list[list]:
    """The standard basis of field^n as dense lists."""
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def _even_permutations() -> list[tuple]:
    """The even permutations of 4 points in lexicographic order."""
    def even(p):
        return sum(p[a] > p[b] for a in range(4) for b in range(a + 1, 4)) % 2 == 0
    return [p for p in itertools.permutations(range(4)) if even(p)]


def alternating_group_table() -> list[list[int]]:
    """Cayley table of A_4, indexed as ``_even_permutations``."""
    elems = _even_permutations()
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(g[h[x]] for x in range(4))] for h in elems] for g in elems]


def a4_extensions(field) -> dict:
    """A4 > V4 (normal) and A4 > C3 (not normal) over a field."""
    elems = _even_permutations()
    table = alternating_group_table()
    v4 = [elems.index(p) for p in ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))]
    c3 = [elems.index(p) for p in ((0, 1, 2, 3), (1, 2, 0, 3), (2, 0, 1, 3))]
    return {"A4>V4": group_pair(field, table, v4)[0],
            "A4>C3": subgroup_extension(field, table, c3)[0]}


# the 8 catalog entries and the two A4 pairs of the d2-large benchmark over F_2
CATALOG_AND_A4 = {
    **{name: (lambda name=name: build_example(name)) for name in catalog_names()},
    **{f"{pair} over F_2": (lambda pair=pair: a4_extensions(GF(2))[pair])
       for pair in ("A4>V4", "A4>C3")},
}


def dense_basis(ext, p: Matrix):
    """The same extension with A on the basis f_i = sum_k p[k][i] e_k."""
    A = ext.A
    p_inv = p.inverse()
    cols = p.cols
    structure = [[p_inv.apply(A.mul(cols[i], cols[j])) for j in range(A.dim)]
                 for i in range(A.dim)]
    A2 = FiniteAlgebra(A.field, structure, p_inv.apply(A.unit))
    return Extension(ext.B, A2, AlgebraMorphism(ext.B, A2, p_inv @ ext.iota.matrix))


def dense_s3a3():
    """s3-a3 with A on a dense unimodular basis."""
    n = 6
    upper = [[QQ.of(1 if i == j else (-1) ** (i + j) if j > i else 0) for j in range(n)]
             for i in range(n)]
    lower = [[QQ.of(1 if i == j else 1 if j == i - 1 else 0) for j in range(n)]
             for i in range(n)]
    return dense_basis(build_example("s3-a3"), Matrix(QQ, upper) @ Matrix(QQ, lower))


@pytest.fixture(scope="session")
def s3a3():
    # shared so the cached tensor powers and quasibases are computed once
    return build_example("s3-a3")


@pytest.fixture(scope="session")
def s3a3_f5():
    return build_example("s3-a3-f5")


@pytest.fixture(scope="session")
def s3_transposition():
    return build_example("s3-transposition")


@pytest.fixture(scope="session")
def sqrt2():
    return build_example("field-sqrt2")


@pytest.fixture(scope="session")
def sqrt2_f5():
    return build_example("field-sqrt2-f5")


@pytest.fixture(scope="session")
def trivial_m2():
    return build_example("trivial-M2")


@pytest.fixture(scope="session")
def c2_over_k():
    return build_example("c2-over-k")
