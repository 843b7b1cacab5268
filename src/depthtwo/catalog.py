"""Named example extensions used by the CLI generator and the test corpus."""

from __future__ import annotations

from .algebras import (Extension, FiniteAlgebra, group_algebra, group_pair,
                       ground_field_extension, make_algebra, matrix_algebra,
                       subgroup_extension, trivial_extension)
from .fields import GF, QQ


def _perm_mul(p: tuple, q: tuple) -> tuple:
    # apply q first, then p
    return tuple(p[q[i]] for i in range(len(p)))


def symmetric_group_table() -> list[list[int]]:
    """Cayley table of S_3 in the fixed order e, (123), (132), (12), (13), (23)."""
    elems = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)]
    index = {e: i for i, e in enumerate(elems)}
    return [[index[_perm_mul(g, h)] for h in elems] for g in elems]


S3_TABLE = symmetric_group_table()
A3_INDICES = [0, 1, 2]
TRANSPOSITION_INDICES = [0, 3]
C2_TABLE = [[0, 1], [1, 0]]


def quadratic_field_algebra(field) -> FiniteAlgebra:
    """k[x]/(x^2 - 2) on the basis {1, x}."""
    zero, one = field.zero, field.one
    structure = [[[one, zero], [zero, one]],
                 [[zero, one], [field.of(2), zero]]]
    return make_algebra(field, structure, [one, zero])


class CatalogEntry:
    """A named example: build() returns a fresh Extension, group data optional."""

    __slots__ = ("name", "field", "kind", "build", "group_table", "subgroup", "normal")

    def __init__(self, name, field, kind, build, group_table=None, subgroup=None,
                 normal=None):
        self.name = name
        self.field = field
        self.kind = kind
        self.build = build
        self.group_table = group_table
        self.subgroup = subgroup
        self.normal = normal


def _entries() -> list[CatalogEntry]:
    out = []
    out.append(CatalogEntry(
        "trivial-M2", QQ, "algebra",
        lambda: trivial_extension(matrix_algebra(QQ, 2))))
    out.append(CatalogEntry(
        "field-sqrt2", QQ, "algebra",
        lambda: ground_field_extension(quadratic_field_algebra(QQ))))
    out.append(CatalogEntry(
        "field-sqrt2-f5", GF(5), "algebra",
        lambda: ground_field_extension(quadratic_field_algebra(GF(5)))))
    out.append(CatalogEntry(
        "s3-a3", QQ, "group",
        lambda: group_pair(QQ, S3_TABLE, A3_INDICES)[0],
        group_table=S3_TABLE, subgroup=A3_INDICES, normal=True))
    out.append(CatalogEntry(
        "s3-a3-f5", GF(5), "group",
        lambda: group_pair(GF(5), S3_TABLE, A3_INDICES)[0],
        group_table=S3_TABLE, subgroup=A3_INDICES, normal=True))
    out.append(CatalogEntry(
        "s3-transposition", QQ, "group",
        lambda: subgroup_extension(QQ, S3_TABLE, TRANSPOSITION_INDICES)[0],
        group_table=S3_TABLE, subgroup=TRANSPOSITION_INDICES, normal=False))
    out.append(CatalogEntry(
        "c2-over-k", QQ, "algebra",
        lambda: ground_field_extension(group_algebra(QQ, C2_TABLE))))
    out.append(CatalogEntry(
        "c2-over-k-f3", GF(3), "algebra",
        lambda: ground_field_extension(group_algebra(GF(3), C2_TABLE))))
    return out


CATALOG: dict[str, CatalogEntry] = {e.name: e for e in _entries()}


def catalog_names() -> list[str]:
    return list(CATALOG)


def build_example(name: str) -> Extension:
    if name not in CATALOG:
        raise KeyError(f"unknown example {name!r}; known: {', '.join(CATALOG)}")
    return CATALOG[name].build()


def m2_over_ground_field(field=QQ) -> Extension:
    """The full 2x2 matrix algebra over its ground field (not in the CLI
    catalog; used for the H-separability and composite checks)."""
    return ground_field_extension(matrix_algebra(field, 2))
