"""Fuzzing the input path: any document ends in exit 0, or in exit 1 with
exactly one ``error:`` line and no traceback.

Each example takes a valid catalog document and replaces one to three of
its nodes below the root with random JSON values, then runs ``analyze`` on
it through ``cli.main``.  The walk down to the replaced node stops at each
level with probability one half, so the field tag, ``dim``, ``unit`` and
the iota matrix are hit about as often as single entries of a structure
cube.  The run is derandomized and bounded: every run draws the same
examples and takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from depthtwo.catalog import catalog_names  # noqa: E402
from depthtwo.cli import EXIT_INPUT, EXIT_OK, main  # noqa: E402
from depthtwo.jsonio import example_to_json  # noqa: E402

DOCUMENTS = {name: example_to_json(name) for name in catalog_names()}

NUMBERS = (st.integers(-3, 12) | st.integers(-3, 12).map(float)
           | st.sampled_from([2 ** 61 - 1, 10 ** 30, 0.5]))
STRINGS = st.text(max_size=3) | st.text(alphabet="0123456789/-", min_size=1, max_size=4)
JSON = st.recursive(st.none() | st.booleans() | NUMBERS | STRINGS,
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(STRINGS, inner, max_size=3),
                    max_leaves=6)


@st.composite
def mutated(draw, node):
    """A copy of a non-empty container with one node below it replaced."""
    keys = sorted(node) if isinstance(node, dict) else range(len(node))
    key = draw(st.sampled_from(keys))
    child = node[key]
    out = dict(node) if isinstance(node, dict) else list(node)
    if isinstance(child, (dict, list)) and child and draw(st.booleans()):
        out[key] = draw(mutated(child))
    else:
        out[key] = draw(JSON)
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_catalog_documents_exit_cleanly(data):
    doc = DOCUMENTS[data.draw(st.sampled_from(sorted(DOCUMENTS)), label="example")]
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        doc = data.draw(mutated(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["analyze", json.dumps(doc)], out=io.StringIO())
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK:
        assert lines == []
    else:
        assert code == EXIT_INPUT, lines
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
