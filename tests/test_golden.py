"""Golden outputs of the catalog: CLI bytes and exact artifacts.

For every catalog entry this pins the exit code and ``--json`` text of
``analyze``, ``d2``, ``bialgebroid``, ``galois`` and ``audit``, and a
sha256 over the exact artifacts (both quasibases, the structure constants
of T, Delta and the free columns of every realized quotient).  A change
that is meant to keep results the same must leave this file passing
unedited.  Regenerate with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os

import pytest

from depthtwo.bialgebroid import build_T, t_core
from depthtwo.bimodules import (left_d2_quasibase, right_d2_quasibase, tensor_power,
                                tensor_square)
from depthtwo.catalog import catalog_names
from depthtwo.cli import main
from depthtwo.galois import tensor_with_t
from depthtwo.jsonio import example_to_json, extension_from_json
from depthtwo.linalg import Matrix

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "catalog.json")
COMMANDS = ("analyze", "d2", "bialgebroid", "galois", "audit")


def _cli(command: str, doc: dict) -> dict:
    out = io.StringIO()
    code = main([command, json.dumps(doc), "--json"], out=out)
    return {"exit": code, "json": out.getvalue()}


def _plain(x, of=None):
    """Matrices, nested lists, indices and field values as JSON-ready values.

    A field value is written as the string of the public element ``of``
    makes of it ("3(mod 5)" over F_5, "1/2" over Q), so the digest does not
    depend on how the library stores values; without ``of`` an int (an
    index) stays an int.
    """
    if isinstance(x, Matrix):
        return _plain(x.data, of)
    if isinstance(x, (list, tuple)):
        return [_plain(y, of) for y in x]
    if x is None:
        return x
    if of is not None:
        return str(of(x))
    if isinstance(x, int):
        return x
    return str(x)


def _pairs(qb, ts_dim: int) -> list | None:
    """A quasibase's (map, tensor) pairs, each tensor as its dense coordinate
    list in the extension's tensor square of dimension ts_dim."""
    if qb is None:
        return None
    return [(m, [u.get(i, 0) for i in range(ts_dim)]) for m, u in qb.pairs]


VALUES = ("right_quasibase", "left_quasibase", "T_alg.structure", "Delta")


def _artifacts(doc: dict) -> dict:
    ext = extension_from_json(doc)
    rqb = right_d2_quasibase(ext)
    lqb = left_d2_quasibase(ext)
    core = t_core(ext)
    out = {
        "right_quasibase": _pairs(rqb, tensor_square(ext).dim),
        "left_quasibase": _pairs(lqb, tensor_square(ext).dim),
        "T_alg.structure": core.T_alg.structure,
        "free.ts": tensor_square(ext).quot.free,
        "free.tt": core.tt.quot.free,
        "free.at": tensor_with_t(ext).quot.free,
        "Delta": None, "free.q3": None, "free.q4": None,
    }
    if rqb is not None:
        bgd = build_T(ext, rqb)
        out.update({"Delta": bgd.Delta,
                    "free.q3": tensor_power(ext, 3).quot.free,
                    "free.q4": tensor_power(ext, 4).quot.free})
    return out


def _digest(doc: dict) -> str:
    of = extension_from_json(doc).A.field.of
    text = json.dumps({k: _plain(v, of if k in VALUES else None)
                       for k, v in _artifacts(doc).items()}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _record(name: str) -> dict:
    doc = example_to_json(name)
    return {"cli": {cmd: _cli(cmd, doc) for cmd in COMMANDS},
            "artifacts_sha256": _digest(doc)}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_the_catalog(golden):
    assert sorted(golden) == sorted(catalog_names())


@pytest.mark.parametrize("name", catalog_names())
def test_cli_json_matches_golden(golden, name):
    doc = example_to_json(name)
    for cmd in COMMANDS:
        assert _cli(cmd, doc) == golden[name]["cli"][cmd], f"{name} {cmd}"


@pytest.mark.parametrize("name", catalog_names())
def test_artifacts_match_golden(golden, name):
    assert _digest(example_to_json(name)) == golden[name]["artifacts_sha256"]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({name: _record(name) for name in catalog_names()}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
