from __future__ import annotations

import pytest

from depthtwo.catalog import build_example
from depthtwo.linalg import Matrix


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Dense Kronecker product, the reference for maps acting on one tensor leg.

    Entry ((i, k), (j, l)) is a[i][j] * b[k][l]; index (i, k) flattens to
    i * b.nrows + k, the ambient convention of the balanced tensor products.
    """
    return Matrix(a.field, [[x * y for x in arow for y in brow]
                            for arow in a.data for brow in b.data])


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
