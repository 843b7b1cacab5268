from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from depthtwo.algebras import (AlgebraMorphism, Extension, FiniteAlgebra, group_pair,
                               subgroup_extension)
from depthtwo.catalog import build_example, catalog_names
from depthtwo.fields import GF, QQ, FpElement
from depthtwo.linalg import Matrix


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Dense Kronecker product, the reference for maps acting on one tensor leg.

    Entry ((i, k), (j, l)) is a[i][j] * b[k][l]; index (i, k) flattens to
    i * b.nrows + k, the ambient convention of the balanced tensor products.
    """
    return Matrix(a.field, [[x * y for x in arow for y in brow]
                            for arow in a.data for brow in b.data])


def unit_vectors(field, n: int) -> list[dict]:
    """The standard basis of field^n as {index: value} vectors."""
    return [{i: 1} for i in range(n)]


def native(x):
    """A test's field value as the library stores it: an element of F_p as
    its residue, an integral Fraction as its numerator, an int or any other
    Fraction as it is."""
    if isinstance(x, FpElement):
        return x.v
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


def sparse(vec: list) -> dict:
    """The {index: native value} vector of a dense list of field values."""
    return {i: native(x) for i, x in enumerate(vec) if x}


def dense(field, vec: dict, n: int) -> list:
    """The dense list of length n of an {index: value} vector."""
    return [vec.get(i, field.zero) for i in range(n)]


def dense_apply(m: Matrix, v: list) -> list:
    """Dense reference for m applied to a dense list: one dot product per row."""
    return [sum((a * x for a, x in zip(row, v)), m.field.zero) for row in m.data]


def dense_eye(field, n: int) -> list[list]:
    """The rows of the n x n identity as dense lists."""
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



def permutation_group(elements: list[tuple]) -> list[list[int]]:
    """Cayley table of permutations listed in ``elements``, (g h)(x) = g(h(x))."""
    index = {g: i for i, g in enumerate(elements)}
    return [[index[tuple(g[h[x]] for x in range(len(g)))] for h in elements] for g in elements]


_S3 = sorted(itertools.permutations(range(3)))
_SQUARE = ([tuple((k + i) % 4 for i in range(4)) for k in range(4)]
           + [tuple((k - i) % 4 for i in range(4)) for k in range(4)])
_KLEIN = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
# (group elements, subgroup indices): normal and non-normal subgroups, D4>C2
# generated by a reflection; the A4 pairs are a4_extensions
GROUP_PAIRS = {
    "S3>A3": (_S3, [_S3.index(p) for p in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]),
    "S3>C2": (_S3, [_S3.index(p) for p in ((0, 1, 2), (1, 0, 2))]),
    "C4>C2": (_SQUARE[:4], [0, 2]),
    "V4>C2": (_KLEIN, [0, 1]),
    "D4>C4": (_SQUARE, [0, 1, 2, 3]),
    "D4>Z": (_SQUARE, [0, 2]),
    "D4>C2": (_SQUARE, [0, 4]),
}
FIELDS = {"Q": QQ, "F_2": GF(2), "F_3": GF(3), "F_5": GF(5)}
# the catalog, and every group pair above and of a4_extensions over every field
CATALOG_AND_GROUPS = {
    **{name: (lambda name=name: build_example(name)) for name in catalog_names()},
    **{f"{pair} over {fname}": (lambda pair=pair, field=field: subgroup_extension(
        field, permutation_group(GROUP_PAIRS[pair][0]), GROUP_PAIRS[pair][1])[0])
       for pair in GROUP_PAIRS for fname, field in FIELDS.items()},
    **{f"{pair} over {fname}": (lambda pair=pair, field=field: a4_extensions(field)[pair])
       for pair in ("A4>V4", "A4>C3") for fname, field in FIELDS.items()},
}

def dense_basis(ext, p: Matrix):
    """The same extension with A on the basis f_i = sum_k p[k][i] e_k."""
    A = ext.A
    p_inv = p.inverse()
    cols = p.cols
    nonzeros = [[p_inv.image(A.mul(cols[i], cols[j])) for j in range(A.dim)]
                for i in range(A.dim)]
    A2 = FiniteAlgebra(A.field, nonzeros, p_inv.image(A.unit))
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
