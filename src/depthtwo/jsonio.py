"""JSON schemas for algebras, group pairs and extensions.

Algebras: {"field": "Q" | {"Fp": p}, "dim": n, "structure": [[[entry]]],
"unit": [entry]} with rationals encoded exactly, "num/den" strings for
non-integers.  Group pairs: {"field": ..., "table": [[index]],
"subgroup": [index], "normal": bool}.  Extensions combine two algebras
with the matrix of iota under a single top-level field tag.
"""

from __future__ import annotations

from .algebras import (AlgebraError, AlgebraMorphism, Extension, FiniteAlgebra,
                       group_pair, make_algebra, subgroup_extension)
from .fields import FieldError, field_from_json
from .linalg import LinAlgError, Matrix


class ParseError(ValueError):
    """Malformed input document."""


def algebra_to_json(alg: FiniteAlgebra) -> dict:
    f = alg.field
    return {
        "field": f.to_json(),
        "dim": alg.dim,
        "structure": [[[f.render(x) for x in row] for row in plane]
                      for plane in alg.structure],
        "unit": [f.render(alg.unit.get(k, 0)) for k in range(alg.dim)],
    }


def _array(obj, name: str) -> list:
    """obj itself when it is a JSON array; a string or an object is not read as one."""
    if not isinstance(obj, list):
        raise ParseError(f"'{name}' must be a JSON array, not {type(obj).__name__}")
    return obj


def algebra_from_json(obj: dict, field=None) -> FiniteAlgebra:
    if not isinstance(obj, dict):
        raise ParseError("algebra document must be an object")
    try:
        if field is None:
            field = field_from_json(obj["field"])
        elif "field" in obj and field_from_json(obj["field"]) != field:
            raise ParseError("nested field tag disagrees with the top-level one")
        dim = obj["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ParseError(f"'dim' must be an integer, not {dim!r}")
        structure = [[[field.parse(x) for x in _array(row, "structure")]
                      for row in _array(plane, "structure")]
                     for plane in _array(obj["structure"], "structure")]
        unit = [field.parse(x) for x in _array(obj["unit"], "unit")]
    except (KeyError, TypeError, FieldError) as exc:
        raise ParseError(f"bad algebra document: {exc}") from exc
    try:
        alg = make_algebra(field, structure, unit)
    except AlgebraError as exc:  # the algebra is part of the input
        raise ParseError(str(exc)) from exc
    if alg.dim != dim:
        raise ParseError("declared dim disagrees with the structure cube")
    return alg


def matrix_to_json(field, m: Matrix) -> list[list]:
    return [[field.render(x) for x in row] for row in m.data]


def matrix_from_json(field, obj, nrows: int, ncols: int) -> Matrix:
    """The matrix of iota, an array of row arrays."""
    try:
        m = Matrix(field, [[field.parse(x) for x in _array(row, "iota")]
                           for row in _array(obj, "iota")])
    except (TypeError, FieldError, LinAlgError) as exc:
        raise ParseError(f"bad matrix: {exc}") from exc
    if (m.nrows, m.ncols) != (nrows, ncols):
        raise ParseError(f"matrix must be {nrows}x{ncols}")
    return m


def extension_to_json(ext: Extension) -> dict:
    f = ext.A.field
    return {
        "field": f.to_json(),
        "kind": "extension",
        "A": algebra_to_json(ext.A),
        "B": algebra_to_json(ext.B),
        "iota": matrix_to_json(f, ext.iota.matrix),
    }


def group_pair_to_json(field, table: list[list[int]], subgroup: list[int],
                       normal: bool) -> dict:
    return {
        "field": field.to_json(),
        "kind": "group",
        "table": [list(row) for row in table],
        "subgroup": sorted(set(subgroup)),
        "normal": bool(normal),
    }


def extension_from_json(obj: dict) -> Extension:
    """Parse either an explicit extension or a group-pair document."""
    if not isinstance(obj, dict):
        raise ParseError("input must be a JSON object")
    try:
        field = field_from_json(obj["field"])
    except (KeyError, FieldError) as exc:
        raise ParseError(f"bad field tag: {exc}") from exc
    kind = obj.get("kind", "group" if "table" in obj else "extension")
    if kind == "group":
        try:
            table = obj["table"]
            subgroup = obj["subgroup"]
        except KeyError as exc:
            raise ParseError(f"group document missing {exc}") from exc
        normal = obj.get("normal", False)
        if not isinstance(normal, bool):
            raise ParseError(f"group document: 'normal' must be true or false, not {normal!r}")
        try:
            if normal:
                ext, _ = group_pair(field, table, subgroup)
            else:
                ext, _ = subgroup_extension(field, table, subgroup)
        except AlgebraError as exc:
            raise ParseError(str(exc)) from exc
        return ext
    if kind == "extension":
        try:
            A = algebra_from_json(obj["A"], field)
            B = algebra_from_json(obj["B"], field)
            iota = matrix_from_json(field, obj["iota"], A.dim, B.dim)
        except KeyError as exc:
            raise ParseError(f"extension document missing {exc}") from exc
        try:
            return Extension(B, A, AlgebraMorphism(B, A, iota))
        except AlgebraError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown document kind {kind!r}")


def example_to_json(name: str) -> dict:
    """Deterministic JSON document for a cataloged example."""
    from .catalog import CATALOG
    if name not in CATALOG:
        raise ParseError(f"unknown example {name!r}; known: {', '.join(CATALOG)}")
    entry = CATALOG[name]
    if entry.kind == "group":
        return group_pair_to_json(entry.field, entry.group_table, entry.subgroup,
                                  entry.normal)
    return extension_to_json(entry.build())
