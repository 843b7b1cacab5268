"""Command-line front end.

Exit codes: 0 for a completed analysis (negative mathematical verdicts
included), 1 for input errors, 2 for an internal consistency failure:
the two independent decision procedures disagreed, a computed result
failed its own verification, or a bialgebroid axiom or comodule-algebra
condition the paper guarantees for a right depth-two extension failed.
``main`` reads the document before the command runs: an error raised
while it is read is bad input, and any exception raised after that is the
library's own failure, reported on one ``error:`` line with exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebras import AlgebraError, centralizer
from .bialgebroid import axiom_audit, build_T
from .bimodules import left_d2_quasibase, right_d2_quasibase, t_space, tensor_square
from .catalog import catalog_names
from .fields import FieldError, field_from_json
from .galois import (balanced_audit, comodule_algebra_audit,
                     d2_iff_corollary_audit, galois_data, main_theorem_audit)
from .jsonio import ParseError, example_to_json, extension_from_json
from .linalg import LinAlgError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONSISTENT = 2


def _load_extension(source: str):
    """Accept a path to a JSON document or the document itself inline (an
    object or an array, so that an array is reported as the wrong document)."""
    text = source
    if not source.lstrip().startswith(("{", "[")):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source} is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise ParseError("document is nested too deeply") from exc
    return extension_from_json(doc)


def _emit(report: dict, as_json: bool, out) -> None:
    if as_json:
        out.write(json.dumps(report, indent=2, sort_keys=True))
        out.write("\n")
        return
    for key, value in report.items():
        out.write(f"{key}: {json.dumps(value, sort_keys=True)}\n")


def _cmd_gen_example(args, out) -> int:
    field = None
    if args.field:
        field = _parse_field_flag(args.field)
    name = args.name
    if field is not None:
        # pick the catalog variant over the requested field
        from .catalog import CATALOG
        base = name.split("-f")[0] if "-f" in name else name
        for cand, entry in CATALOG.items():
            if entry.field == field and (cand == name or cand.startswith(base)):
                name = cand
                break
        else:
            raise ParseError(f"no catalog variant of {args.name!r} over {args.field}")
    doc = example_to_json(name)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_OK


def _parse_field_flag(flag: str):
    if flag == "Q":
        return field_from_json("Q")
    if flag.startswith("Fp:"):
        try:
            return field_from_json({"Fp": int(flag.split(":", 1)[1])})
        except ValueError as exc:
            raise ParseError(f"bad field flag {flag!r}") from exc
    raise ParseError(f"bad field flag {flag!r}; use Q or Fp:<prime>")


def _cmd_analyze(ext, args, out) -> int:
    ts = tensor_square(ext)
    report = {
        "field": ext.A.field.to_json(),
        "dim_A": ext.A.dim,
        "dim_B": ext.B.dim,
        "dim_tensor_square": ts.dim,
        "dim_centralizer": centralizer(ext).dim,
        "dim_T": t_space(ext).dim,
        "iota_injective": ext.iota.matrix.rank() == ext.B.dim,
    }
    _emit(report, args.json, out)
    return EXIT_OK


def _cmd_d2(ext, args, out) -> int:
    rqb = right_d2_quasibase(ext)
    lqb = left_d2_quasibase(ext)
    corollary = d2_iff_corollary_audit(ext)
    report = {
        "right_d2": rqb is not None,
        "left_d2": lqb is not None,
        "right_quasibase_size": None if rqb is None else len(rqb),
        "left_quasibase_size": None if lqb is None else len(lqb),
        "corollary": corollary.to_json(),
    }
    _emit(report, args.json, out)
    return EXIT_OK if corollary.agree else EXIT_INCONSISTENT


def _cmd_bialgebroid(ext, args, out) -> int:
    rqb = right_d2_quasibase(ext)
    if rqb is None:
        report = {"right_d2": False,
                  "note": "extension is not right depth two; no bialgebroid built"}
        _emit(report, args.json, out)
        return EXIT_OK
    bgd = build_T(ext, rqb)
    audit = axiom_audit(bgd)
    report = {
        "right_d2": True,
        "dim_T": bgd.core.dim,
        "dim_R": bgd.core.R_alg.dim,
        "dim_T_tensor_T": bgd.core.tt.dim,
        "axioms": audit.to_json(),
        "all_axioms_pass": audit.all_pass,
    }
    _emit(report, args.json, out)
    return EXIT_OK if audit.all_pass else EXIT_INCONSISTENT


def _cmd_galois(ext, args, out) -> int:
    rqb = right_d2_quasibase(ext)
    bal = balanced_audit(ext)
    if rqb is None:
        report = {"right_d2": False, "balanced": bal.balanced,
                  "galois_bijective": False,
                  "note": "extension is not right depth two"}
        _emit(report, args.json, out)
        return EXIT_OK
    bgd = build_T(ext, rqb)
    data = galois_data(ext, rqb)
    comodule = comodule_algebra_audit(ext, data.delta, bgd)
    report = {
        "right_d2": True,
        "balanced": bal.balanced,
        "galois_bijective": data.galois.bijective,
        "coinvariants": data.coinvariants.to_json(),
        "comodule_conditions": comodule.to_json_list(),
    }
    _emit(report, args.json, out)
    # a right depth-two extension always makes A a T-comodule algebra
    return EXIT_OK if comodule.all_pass else EXIT_INCONSISTENT


def _cmd_audit(ext, args, out) -> int:
    main = main_theorem_audit(ext)
    corollary = d2_iff_corollary_audit(ext)
    report = main.to_json()
    report["corollary_consistent"] = corollary.agree
    report["corollary"] = corollary.to_json()
    _emit(report, args.json, out)
    if not main.consistent or not corollary.agree:
        return EXIT_INCONSISTENT
    # the comodule conditions hold on every right depth-two extension
    if main.comodule is not None and not main.comodule.all_pass:
        return EXIT_INCONSISTENT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthtwo",
        description="Exact decision procedures for depth-two algebra extensions, "
                    "their centralizer bialgebroids and Galois data.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-example", help="write a cataloged extension as JSON")
    gen.add_argument("name", choices=catalog_names())
    gen.add_argument("--output", "-o", default=None)
    gen.add_argument("--field", default=None, help="Q or Fp:<prime>")
    gen.set_defaults(func=_cmd_gen_example)

    for name, func, text in (
            ("analyze", _cmd_analyze, "dimensions and basic structure"),
            ("d2", _cmd_d2, "decide the depth-two condition both ways"),
            ("bialgebroid", _cmd_bialgebroid, "build T and audit every axiom"),
            ("galois", _cmd_galois, "coaction, Galois map, coinvariants"),
            ("audit", _cmd_audit, "full main-theorem consistency audit")):
        p = sub.add_parser(name, help=text)
        p.add_argument("input", nargs="?", default=None,
                       help="path to an extension JSON document, or inline JSON")
        p.add_argument("--input", dest="input_flag", default=None,
                       help="alternative to the positional input")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    if hasattr(args, "input"):
        args.input = args.input or getattr(args, "input_flag", None)
        if args.input is None:
            sys.stderr.write("error: no input document given\n")
            return EXIT_INPUT
    try:
        if not hasattr(args, "input"):
            return args.func(args, out)
        ext = _load_extension(args.input)
    except (ParseError, FieldError, OSError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    try:
        return args.func(ext, args, out)
    except (AlgebraError, LinAlgError) as exc:
        sys.stderr.write(f"error: internal self-check failed: {exc}\n")
    except Exception as exc:  # past parsing, any failure is the library's
        sys.stderr.write(f"error: internal failure: {type(exc).__name__}: {exc}\n")
    return EXIT_INCONSISTENT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
