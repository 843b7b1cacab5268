from __future__ import annotations

import io
import json

import pytest

from depthtwo.catalog import catalog_names
from depthtwo.cli import EXIT_INCONSISTENT, EXIT_INPUT, EXIT_OK, main
from depthtwo.fields import FieldError
from depthtwo.jsonio import (ParseError, example_to_json, extension_from_json,
                             extension_to_json)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def write_example(tmp_path, name):
    path = tmp_path / f"{name.replace('-', '_')}.json"
    code, _ = run_cli("gen-example", name, "-o", str(path))
    assert code == EXIT_OK
    return path


# -- gen-example -----------------------------------------------------------

def test_every_catalog_example_round_trips(tmp_path):
    for name in catalog_names():
        doc = example_to_json(name)
        ext = extension_from_json(doc)
        # re-serializing the parsed extension and parsing again is stable
        doc2 = extension_to_json(ext)
        ext2 = extension_from_json(doc2)
        assert ext2.A.structure == ext.A.structure
        assert ext2.B.structure == ext.B.structure
        assert ext2.iota.matrix == ext.iota.matrix
        assert extension_to_json(ext2) == doc2


def test_gen_example_deterministic_bytes(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    run_cli("gen-example", "s3-a3", "-o", str(p1))
    run_cli("gen-example", "s3-a3", "-o", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_example_unknown_name_is_input_error():
    code, _ = run_cli("gen-example", "no-such-example")
    assert code == EXIT_INPUT


def test_gen_example_field_flag(tmp_path):
    path = tmp_path / "v.json"
    code, _ = run_cli("gen-example", "s3-a3", "--field", "Fp:5", "-o", str(path))
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    assert doc["field"] == {"Fp": 5}


def test_gen_example_group_doc_shape(tmp_path):
    path = write_example(tmp_path, "s3-a3")
    doc = json.loads(path.read_text())
    assert doc["kind"] == "group"
    assert doc["normal"] is True
    assert doc["subgroup"] == [0, 1, 2]
    assert len(doc["table"]) == 6


# -- analysis commands --------------------------------------------------------

def test_analyze_reports_dims(tmp_path):
    path = write_example(tmp_path, "s3-a3")
    code, out = run_cli("analyze", str(path), "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["dim_A"] == 6 and doc["dim_B"] == 3
    assert doc["dim_tensor_square"] == 12
    assert doc["dim_centralizer"] == 4 and doc["dim_T"] == 8


def test_d2_negative_case(tmp_path):
    path = write_example(tmp_path, "s3-transposition")
    code, out = run_cli("d2", str(path), "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["right_d2"] is False and doc["left_d2"] is False
    assert doc["corollary"]["agree"] is True


def test_audit_consistent(tmp_path):
    path = write_example(tmp_path, "s3-a3")
    code, out = run_cli("audit", str(path), "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["main_theorem_consistent"] is True
    assert doc["corollary_consistent"] is True
    assert doc["right_d2"] is True and doc["balanced"] is True
    assert doc["coinvariants_equal_B"] is True
    assert isinstance(doc["comodule_conditions"], list)


def test_audit_deterministic_output(tmp_path):
    path = write_example(tmp_path, "field-sqrt2")
    _, out1 = run_cli("audit", str(path), "--json")
    _, out2 = run_cli("audit", str(path), "--json")
    assert out1 == out2


def test_bialgebroid_report(tmp_path):
    path = write_example(tmp_path, "field-sqrt2")
    code, out = run_cli("bialgebroid", str(path), "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["all_axioms_pass"] is True
    assert doc["dim_T"] == 4 and doc["dim_R"] == 2


def test_galois_report(tmp_path):
    path = write_example(tmp_path, "c2-over-k")
    code, out = run_cli("galois", str(path), "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["galois_bijective"] is True
    assert doc["coinvariants"]["equals_b"] is True


# -- error handling ---------------------------------------------------------------

def test_missing_file_is_input_error():
    code, _ = run_cli("audit", "/nonexistent/path.json")
    assert code == EXIT_INPUT


def test_malformed_json_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run_cli("audit", str(path))
    assert code == EXIT_INPUT


def test_invalid_algebra_is_input_error(tmp_path):
    path = tmp_path / "bad_alg.json"
    doc = example_to_json("field-sqrt2")
    doc["A"]["unit"] = [0, 0]
    path.write_text(json.dumps(doc))
    code, _ = run_cli("audit", str(path))
    assert code == EXIT_INPUT


def test_group_doc_with_wrong_normal_flag(tmp_path):
    path = tmp_path / "bad_group.json"
    doc = example_to_json("s3-a3")
    doc["subgroup"] = [0, 3]     # non-normal but flagged normal
    path.write_text(json.dumps(doc))
    code, _ = run_cli("audit", str(path))
    assert code == EXIT_INPUT


# a Latin square with identity 0 that is not associative: (e_1 e_1) e_2 = e_2, e_1 (e_1 e_2) = e_4
T5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]


@pytest.mark.parametrize("normal", [True, False])
def test_non_associative_group_table_names_its_first_triple(normal):
    doc = {"field": "Q", "kind": "group", "table": T5, "subgroup": [0], "normal": normal}
    with pytest.raises(ParseError, match=r"^associativity fails: \(e_1e_1\)e_2 != e_1\(e_1e_2\)$"):
        extension_from_json(doc)


def test_non_associative_group_table_is_one_error_line(capsys):
    doc = {"field": "Q", "kind": "group", "table": T5, "subgroup": [0], "normal": True}
    code, out = run_cli("analyze", json.dumps(doc))
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_INPUT and out == ""
    assert err == ["error: associativity fails: (e_1e_1)e_2 != e_1(e_1e_2)"]


def test_text_output_mode(tmp_path):
    path = write_example(tmp_path, "field-sqrt2")
    code, out = run_cli("analyze", str(path))
    assert code == EXIT_OK
    assert "dim_A: 2" in out


def test_input_flag_and_inline_json():
    doc = json.dumps(example_to_json("field-sqrt2"))
    code, out = run_cli("analyze", "--input", doc, "--json")
    assert code == EXIT_OK
    assert json.loads(out)["dim_A"] == 2


def test_gen_example_field_without_variant_is_input_error():
    code, _ = run_cli("gen-example", "s3-a3", "--field", "Fp:11")
    assert code == EXIT_INPUT


def test_inconsistency_exit_code(tmp_path, monkeypatch):
    # a detected theorem violation must exit 2, distinct from input errors
    import depthtwo.cli as cli_mod

    class FakeReport:
        consistent = False

        def to_json(self):
            return {"main_theorem_consistent": False}

    monkeypatch.setattr(cli_mod, "main_theorem_audit", lambda ext: FakeReport())
    path = write_example(tmp_path, "field-sqrt2")
    code, _ = run_cli("audit", str(path), "--json")
    assert code == 2


def _one_line_extension(field, entry):
    return {"field": field, "kind": "extension",
            "A": {"dim": 1, "structure": [[[entry]]], "unit": [1]},
            "B": {"dim": 1, "structure": [[[1]]], "unit": [1]},
            "iota": [[1]]}


MALFORMED = {
    "fraction-dividing-by-p": _one_line_extension({"Fp": 2}, "1/2"),
    "table-not-a-list": {"field": "Q", "kind": "group", "table": 5, "subgroup": [0]},
    "subgroup-index-outside-table": {"field": "Q", "kind": "group",
                                     "table": [[0, 1], [1, 0]], "subgroup": [0, 7]},
    "table-entry-not-an-index": {"field": "Q", "kind": "group",
                                 "table": [[0, "a"], [1, 0]], "subgroup": [0]},
    "ragged-iota": {**_one_line_extension("Q", 1), "iota": [[1, 2], [1]]},
    "modulus-too-large": {"field": {"Fp": 2 ** 89 - 1}, "kind": "group",
                          "table": [[0, 1], [1, 0]], "subgroup": [0]},
    # a non-normal pair (S3 > {0, 3}) whose flag is a string, not a boolean
    "normal-flag-not-a-boolean": {**example_to_json("s3-a3"), "subgroup": [0, 3],
                                  "normal": "false"},
    "modulus-a-list": {"field": {"Fp": [5]}, "table": [[0]], "subgroup": [0]},
    # 5.0 == 5 and GF(5) is cached once the catalog is imported
    "modulus-a-cached-float": {"field": {"Fp": 5.0}, "table": [[0]], "subgroup": [0]},
    "modulus-a-float": {"field": {"Fp": 7.0}, "table": [[0]], "subgroup": [0]},
    "modulus-a-bool": {"field": {"Fp": True}, "table": [[0]], "subgroup": [0]},
    "document-an-array": [],
}


def _c2_over_k(**changes):
    """c2-over-k as an explicit extension document, with A's fields replaced."""
    doc = example_to_json("c2-over-k")
    doc["A"] = {**doc["A"], **changes.pop("A", {})}
    return {**doc, **changes}


# each of these parsed digit by digit, or as a dimension, before they were rejected
NOT_ARRAYS = {
    "unit-a-string": (_c2_over_k(A={"unit": "10"}), "unit"),
    "structure-rows-strings": (_c2_over_k(A={"structure": [["10", "01"], ["01", "10"]]}),
                               "structure"),
    "structure-an-object": (_c2_over_k(A={"structure": {"0": [[1, 0], [0, 1]]}}), "structure"),
    "iota-rows-strings": (_c2_over_k(iota=["1", "0"]), "iota"),
    "iota-a-string": (_c2_over_k(iota="10"), "iota"),
    "dim-true": (_c2_over_k(A={"dim": True}), "dim"),
    "dim-a-float": (_c2_over_k(A={"dim": 2.0}), "dim"),
}


@pytest.mark.parametrize("doc, name", list(NOT_ARRAYS.values()), ids=list(NOT_ARRAYS))
def test_strings_objects_and_non_integer_dims_are_rejected(doc, name, capsys):
    from depthtwo.jsonio import ParseError
    with pytest.raises(ParseError, match=f"'{name}' must be"):
        extension_from_json(doc)
    code, _ = run_cli("analyze", json.dumps(doc))
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_INPUT
    assert len(err) == 1 and err[0].startswith("error:") and name in err[0]


@pytest.mark.parametrize("doc", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_input_is_one_error_line(doc, capsys):
    code, _ = run_cli("d2", json.dumps(doc))
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_INPUT
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("text", ["[]", " [1, 2]"])
def test_an_inline_array_is_read_as_a_document(text, capsys):
    # not taken for a file name: the error names the wrong document, not a missing file
    code, _ = run_cli("analyze", text)
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == "error: input must be a JSON object\n"


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
def test_group_doc_normal_flag_must_be_boolean(flag):
    from depthtwo.jsonio import ParseError
    doc = {**example_to_json("s3-a3"), "subgroup": [0, 3], "normal": flag}
    with pytest.raises(ParseError, match="'normal' must be true or false"):
        extension_from_json(doc)


def test_non_utf8_file_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe{")
    code, out = run_cli("audit", str(path))
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_INPUT and out == ""
    assert len(err) == 1 and err[0].startswith("error:") and "UTF-8" in err[0]


def test_failed_self_check_exits_inconsistent(monkeypatch, capsys):
    # a quasibase that fails its own verification is a bug, not bad input
    import depthtwo.bimodules as bimodules_mod
    monkeypatch.setattr(bimodules_mod, "verify_quasibase", lambda ext, qb: False)
    code, _ = run_cli("d2", json.dumps(example_to_json("s3-a3")))
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_INCONSISTENT
    assert len(err) == 1 and err[0].startswith("error:")


def test_failed_witness_in_the_audit_exits_inconsistent(monkeypatch, capsys):
    # once the corollary path says depth two, a failed witness is a bug in the
    # library, not a negative verdict
    import depthtwo.galois as galois_mod
    from depthtwo.bialgebroid import WitnessError

    def broken(ext):
        raise WitnessError("forward map is not invertible")

    monkeypatch.setattr(galois_mod, "build_T_quasibase_free", broken)
    code, out = run_cli("audit", json.dumps(example_to_json("s3-a3")), "--json")
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_INCONSISTENT and out == ""
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("error", [KeyError("missing"), FieldError("bad value"),
                                   OSError("unreadable"), IndexError("out of range")])
def test_an_error_after_parsing_exits_inconsistent(error, monkeypatch, capsys):
    # the document parsed, so whatever the command raises is the library's
    # failure, whatever its type: exit 2, one error line, no traceback
    import depthtwo.cli as cli_mod

    def broken(ext):
        raise error

    monkeypatch.setattr(cli_mod, "tensor_square", broken)
    code, out = run_cli("analyze", json.dumps(example_to_json("s3-a3")))
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_INCONSISTENT and out == ""
    assert len(err) == 1 and err[0].startswith("error:") and type(error).__name__ in err[0]


def _failing_comodule_audit(ext, delta, bgd):
    from depthtwo.bialgebroid import AuditReport
    report = AuditReport()
    report.check("coaction_multiplicative", [(False, "multiplicativity fails at (e_0, e_0)")])
    return report


def test_failed_comodule_condition_in_galois_exits_inconsistent(monkeypatch):
    # a right depth-two extension always makes A a T-comodule algebra, so a
    # failed condition is a failed self-check, not a verdict
    import depthtwo.cli as cli_mod
    monkeypatch.setattr(cli_mod, "comodule_algebra_audit", _failing_comodule_audit)
    code, out = run_cli("galois", json.dumps(example_to_json("s3-a3")), "--json")
    assert code == EXIT_INCONSISTENT
    assert json.loads(out)["comodule_conditions"] == [
        {"name": "coaction_multiplicative", "pass": False,
         "witness": "multiplicativity fails at (e_0, e_0)"}]


def test_failed_comodule_condition_in_audit_exits_inconsistent(monkeypatch):
    # depth two but not balanced: lhs and rhs are both false, so the main
    # theorem stays consistent and only the comodule report shows the failure
    import depthtwo.galois as galois_mod
    from test_galois import _upper_triangular_extension
    doc = json.dumps(extension_to_json(_upper_triangular_extension()))
    code, out = run_cli("audit", doc, "--json")
    report = json.loads(out)
    assert code == EXIT_OK and report["right_d2"] and not report["balanced"]
    monkeypatch.setattr(galois_mod, "comodule_algebra_audit", _failing_comodule_audit)
    code, out = run_cli("audit", doc, "--json")
    report = json.loads(out)
    assert code == EXIT_INCONSISTENT and report["main_theorem_consistent"] is True
    assert [c["pass"] for c in report["comodule_conditions"]] == [False]


def test_rho_b_outside_its_double_commutant_exits_inconsistent(monkeypatch, capsys):
    # rho(B) commutes with End(A_B) by construction, so escaping the double
    # commutant is a library bug, not bad input
    import depthtwo.galois as galois_mod
    monkeypatch.setattr(galois_mod, "double_commutant", lambda A, e_mats: [])
    code, out = run_cli("galois", json.dumps(example_to_json("s3-a3")), "--json")
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_INCONSISTENT and out == ""
    assert len(err) == 1 and "double commutant" in err[0]


def test_a_failed_coaction_check_exits_inconsistent(monkeypatch, capsys):
    # a SelfCheckError raised after the document was read is a library bug
    import depthtwo.galois as galois_mod
    from depthtwo.linalg import Matrix
    galois_map = galois_mod.galois_map

    def swapped(ext, rqb):
        gmap = galois_map(ext, rqb)
        cols = list(gmap.beta.cols)
        cols[1], cols[2] = cols[2], cols[1]
        beta = Matrix.from_columns(gmap.beta.field, cols, nrows=gmap.beta.nrows)
        return galois_mod.GaloisMap(beta, gmap.bijective)

    monkeypatch.setattr(galois_mod, "galois_map", swapped)
    code, out = run_cli("galois", json.dumps(example_to_json("s3-a3")), "--json")
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_INCONSISTENT and out == ""
    assert err == ["error: internal self-check failed: "
                   "quasibase coaction is not ice^-1(1 (x) a)"]


def test_a_failed_unit_law_of_t_exits_inconsistent(monkeypatch, capsys):
    # T's own validation runs on every command that reads T's product: its
    # unit law failing is a bug there; d2 and analyze read T only as an
    # R-bimodule, so they never build the product and are not affected
    from depthtwo.bialgebroid import TCore
    doc = json.dumps(example_to_json("s3-a3"))
    unpatched = {command: run_cli(command, doc, "--json") for command in ("d2", "analyze")}
    product = TCore._tee_product

    def bumped(core, c, d):
        out = dict(product(core, c, d))
        if c == d == 1:
            out[0] = out.get(0, 0) + 1
        return {k: x for k, x in out.items() if x}

    monkeypatch.setattr(TCore, "_tee_product", bumped)
    capsys.readouterr()
    for command in ("bialgebroid", "galois", "audit"):
        code, out = run_cli(command, doc, "--json")
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_INCONSISTENT and out == "", command
        assert err == ["error: internal self-check failed: unit law fails: 1*e_1 != e_1"]
    for command, (code, out) in unpatched.items():
        assert code == EXIT_OK
        assert run_cli(command, doc, "--json") == (code, out)
        assert capsys.readouterr().err == ""


def test_large_prime_modulus_runs():
    doc = {"field": {"Fp": 10 ** 18 + 3}, "kind": "group",
           "table": [[0, 1], [1, 0]], "subgroup": [0]}
    code, out = run_cli("d2", json.dumps(doc), "--json")
    assert code == EXIT_OK
    assert json.loads(out)["right_d2"] is True


# nested far past the JSON parser's recursion limit on every supported Python
DEEP_DOCUMENT = '{"A": ' + "[" * 100000 + "]" * 100000 + "}"


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
def test_deeply_nested_document_is_one_error_line(inline, tmp_path, capsys):
    source = DEEP_DOCUMENT
    if not inline:
        path = tmp_path / "deep.json"
        path.write_text(DEEP_DOCUMENT)
        source = str(path)
    code, out = run_cli("audit", source)
    err = capsys.readouterr().err
    assert code == EXIT_INPUT and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err
