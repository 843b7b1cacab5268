from __future__ import annotations

import pytest

from depthtwo.algebras import AlgebraMorphism, Extension, FiniteAlgebra
from depthtwo.catalog import build_example
from depthtwo.fields import QQ
from depthtwo.linalg import Matrix


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Dense Kronecker product, the reference for maps acting on one tensor leg.

    Entry ((i, k), (j, l)) is a[i][j] * b[k][l]; index (i, k) flattens to
    i * b.nrows + k, the ambient convention of the balanced tensor products.
    """
    return Matrix(a.field, [[x * y for x in arow for y in brow]
                            for arow in a.data for brow in b.data])


def dense_basis(ext, p: Matrix):
    """The same extension with A on the basis f_i = sum_k p[k][i] e_k."""
    A = ext.A
    p_inv = p.inverse()
    cols = p.columns()
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
