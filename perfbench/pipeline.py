"""One benchmark operation: parse a fresh extension, run the public stages
in the order of the CLI, and check verdicts and realized dimensions.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction

from depthtwo import bialgebroid, bimodules, galois, jsonio

from workloads import D2_PATH_DIMS


def untraced(name):
    return nullcontext()


def run(member: dict, stage=untraced) -> dict:
    """Run the member's stage path; ``stage(name)`` wraps every library call.

    Returns the verdicts and consistency flags, the realized dimensions and
    the exact matrices the coefficient-size counter reads.
    """
    with stage("jsonio.extension_from_json"):
        # a fresh Extension each time: its _cache would make later runs free
        ext = jsonio.extension_from_json(member["doc"])
    with stage("bimodules.tensor_square"):
        ts = bimodules.tensor_square(ext)
    with stage("bimodules.right_d2_quasibase"):
        rqb = bimodules.right_d2_quasibase(ext)
    with stage("bimodules.left_d2_quasibase"):
        lqb = bimodules.left_d2_quasibase(ext)
    verdicts = {"right_d2": rqb is not None, "left_d2": lqb is not None}
    artifacts = [m for qb in (rqb, lqb) if qb is not None for m, _ in qb.pairs]
    artifacts += [[u] for qb in (rqb, lqb) if qb is not None for _, u in qb.pairs]
    bgd = None
    # the corollary audit would build the core itself; the stage gives it its own span
    with stage("bialgebroid.t_core"):
        core = bialgebroid.t_core(ext)
    if member["path"] == "full":
        with stage("galois.balanced_audit"):
            verdicts["balanced"] = galois.balanced_audit(ext).balanced
        if rqb is not None:
            with stage("bialgebroid.build_T"):
                bgd = bialgebroid.build_T(ext, rqb)
            with stage("bialgebroid.axiom_audit"):
                verdicts["axioms_pass"] = bialgebroid.axiom_audit(bgd).all_pass
            with stage("galois.galois_data"):
                data = galois.galois_data(ext, rqb)
            verdicts["galois_bijective"] = data.galois.bijective
            verdicts["coinvariants_equal_b"] = data.coinvariants.equals_b
            with stage("galois.comodule_algebra_audit"):
                comodule = galois.comodule_algebra_audit(ext, data.delta, bgd)
            verdicts["comodule_pass"] = comodule.all_pass
            artifacts.append(bgd.Delta.data)
    with stage("galois.d2_iff_corollary_audit"):
        corollary = galois.d2_iff_corollary_audit(ext)
    verdicts["corollary_right_d2"] = corollary.corollary_right_d2
    verdicts["corollary_agree"] = corollary.agree
    if member["path"] == "full":
        with stage("galois.main_theorem_audit"):
            main = galois.main_theorem_audit(ext)
        verdicts.update(main_right_d2=main.right_d2, main_left_d2=main.left_d2,
                        main_lhs=main.lhs, main_rhs=main.rhs,
                        main_consistent=main.consistent)
    # cached on the extension by the corollary audit, so reading it costs nothing
    dims = {"ts": ts.dim, "T": core.dim, "R": core.R_alg.dim, "tt": core.tt.dim,
            "at": galois.tensor_with_t(ext).dim}
    if bgd is not None:
        dims.update(q3=bgd.witness.q3.dim, q4=bgd.witness.q4.dim, ttt=bgd.witness.ttt.dim)
    return {"verdicts": verdicts, "dims": dims, "artifacts": artifacts}


def expected_verdicts(member: dict) -> dict:
    d2 = member["expect"]["d2"]
    want = {"right_d2": d2, "left_d2": d2, "corollary_right_d2": d2,
            "corollary_agree": True}
    if member["path"] == "full":
        balanced = member["expect"]["balanced"]
        want.update(balanced=balanced, main_right_d2=d2, main_left_d2=d2,
                    main_lhs=d2 and balanced, main_rhs=d2 and balanced,
                    main_consistent=True)
        if d2:
            want.update(axioms_pass=True, galois_bijective=balanced,
                        coinvariants_equal_b=balanced, comodule_pass=True)
    return want


def expected_dims(member: dict) -> dict:
    dims = member["expect"]["dims"]
    if member["path"] == "d2":
        return {k: dims[k] for k in D2_PATH_DIMS}
    return dict(dims)


def check(member: dict, outcome: dict) -> list[str]:
    """Every way the outcome differs from the member's expected results."""
    problems = []
    for key, want in expected_verdicts(member).items():
        got = outcome["verdicts"].get(key)
        if got != want:
            problems.append(f"{key} is {got}, expected {want}")
    for key, want in expected_dims(member).items():
        got = outcome["dims"].get(key)
        if got != want:
            problems.append(f"dim {key} is {got}, expected {want}")
    return problems


def max_coeff_bits(outcome: dict) -> int:
    """Largest numerator or denominator bit length among the rational entries
    of the quasibases and of Delta; 0 over a prime field."""
    best = 0
    for mat in outcome["artifacts"]:
        rows = mat.data if hasattr(mat, "data") else mat
        for row in rows:
            for x in row:
                if isinstance(x, Fraction):
                    best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best
