"""Command-line front end.

One verb per library operation, JSON on stdout (CSV where a verb has a
tabular form).  Exit status: 0 when the requested computation succeeds and
any verification it performs passes, 1 when a verification fails, 2 for
usage errors and malformed input.

Components are specified as --type/--rank/--labels/--base-exp; labels are
comma-separated per W-orbit (long orbit first), with one optional trailing
value read as lambda* of the short orbit, so B2 with (3,3,1) is
`--type B --rank 2 --labels 3,3,1`.  Algebra elements are words in the
generators: `T<i>` for the standard generator of the i-th simple
reflection, `x<c1,...,cd>` for the lattice part, e.g. "x1,0 T0 T1".
Each verb imports its own library modules when it runs.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

J_DIRECTIONS = ("P->Pop", "Pop->P")


# -- shared argument plumbing -------------------------------------------------

def _emit(args, payload, csv_text=None):
    text = csv_text if getattr(args, "csv", False) else \
        json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(text)
    path = getattr(args, "json_out", None)
    if path:
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")


def fraction(text: str) -> Fraction:
    """Fraction(text), with a zero denominator refused as malformed input."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _shape_args(args):
    from .root_data import parse_type
    letter, rank = parse_type(args.type)
    if getattr(args, "rank", None) is not None:
        if rank is not None and rank != args.rank:
            raise ValueError(f"--rank {args.rank} contradicts --type {args.type}")
        rank = args.rank
    if rank is None:
        raise ValueError("missing rank: pass --rank N or a full type like B2")
    return letter, rank


def _component_args(args):
    from .label_params import LabelFunction, QBase
    from .root_data import build_root_system
    letter, rank = _shape_args(args)
    rs = build_root_system(letter, rank)
    values = [fraction(v) for v in args.labels.split(",")]
    lf = LabelFunction.for_system(rs, values, QBase(args.base_exp))
    return f"{letter}{rank}", rs, lf


def _algebra_args(args):
    from .hecke_algebra import algebra
    from .root_data import BasedRootDatum
    _, rs, lf = _component_args(args)
    return algebra(BasedRootDatum(rs), lf)


def _family_args(args):
    from .param_catalog import ClassicalFamily
    return ClassicalFamily(args.case, t=args.t, f=args.f, a_plus=args.a_plus,
                           a=args.a, a_minus=args.a_minus,
                           n_dual=args.n_dual, d_rho=args.d_rho)


def _tokens(spec, d):
    """Generator word: whitespace/';'-separated T<i> and x<c1,...,cd> tokens."""
    toks = []
    for t in spec.replace(";", " ").split():
        head, body = t[:1], t[1:]
        if head in ("T", "t") and body.isdigit():
            toks.append(("T", int(body)))
        elif head in ("x", "X") and body:
            pt = tuple(int(c) for c in body.split(","))
            if len(pt) != d:
                raise ValueError(f"lattice token {t!r} needs {d} coordinates")
            toks.append(("theta", pt))
        else:
            raise ValueError(f"bad generator token {t!r}: use T<i> or x<c1,...,cd>")
    return toks


def _report_rows(rows):
    return [{"group": g, "levi": list(levi), "piece": piece,
             "exponents": [list(pair) for pair in combo],
             "match": res.to_json()}
            for g, levi, piece, combo, res in rows]


# -- verbs --------------------------------------------------------------------

def _cmd_table1(args):
    from .param_catalog import table1, table1_csv
    _emit(args, {"rows": [r.to_json() for r in table1()]}, table1_csv())
    return 0


def _cmd_match_labels(args):
    from .param_catalog import component_match
    typ, _, lf = _component_args(args)
    mr = component_match((typ, lf))
    _emit(args, {"component": typ, "labels": lf.to_json(), "match": mr.to_json()})
    return 0 if mr.ok else 1


def _cmd_classical(args):
    from .param_catalog import classical_labels
    _emit(args, classical_labels(_family_args(args)).to_json())
    return 0


def _cmd_bound(args):
    from .param_catalog import classical_bound_check
    chk = classical_bound_check(_family_args(args))
    _emit(args, chk.to_json())
    return 0 if chk.ok else 1


def _cmd_parity(args):
    from .param_catalog import parity_allows, parity_rule
    rule = parity_rule(args.family, args.t)
    payload = {"family": args.family, "t": args.t, "rule": rule}
    code = 0
    if args.a is not None or args.a_minus is not None:
        if args.a is None or args.a_minus is None:
            raise ValueError("parity evaluation needs both --a and --a-minus")
        allowed = parity_allows(rule, args.a, args.a_minus)
        payload.update({"a": args.a, "a_minus": args.a_minus, "allowed": allowed})
        code = 0 if allowed else 1
    _emit(args, payload)
    return code


def _segments_arg(text):
    segs = []
    for part in text.split(","):
        tag, sep, size = part.strip().partition(":")
        if not sep or not size.isdigit():
            raise ValueError(f"segment {part!r} is not of the form tag:size")
        segs.append((tag, int(size)))
    return segs


def _cmd_unitary_ps(args):
    from .param_catalog import descriptor_csv, unitary_ps_descriptor
    comps = unitary_ps_descriptor(args.n, args.ramified, _segments_arg(args.segments))
    matches = [c.match() for c in comps]
    payload = {"n": args.n, "ramified": args.ramified,
               "components": [c.to_json() for c in comps],
               "matches": [m.to_json() for m in matches]}
    _emit(args, payload, descriptor_csv(comps))
    return 0 if all(m.ok for m in matches) else 1


def _cmd_ps_q(args):
    from .label_params import q_power_str
    from .param_catalog import quasisplit_ps_q
    e = quasisplit_ps_q(args.w_orbit, args.i_orbit)
    _emit(args, {"exponent": e, "q_alpha": q_power_str(e)})
    return 0


def _cmd_case(args):
    from .param_catalog import case_lookup, db_integrity_report, db_records, db_version
    if args.group is None:
        rows = db_integrity_report()
        bad = [r for r in rows if not r[4].ok]
        _emit(args, {"version": db_version(), "records": len(db_records()),
                     "checked": len(rows), "failures": _report_rows(bad)})
        return 1 if bad else 0
    levi = tuple(int(v) for v in args.levi.split(",")) if args.levi else ()
    rec = case_lookup(args.group, levi)
    _emit(args, {"record": rec.to_json(), "open_orbits": rec.open_orbits(),
                 "report": _report_rows(rec.match_report())})
    return 0


def _cmd_transfer(args):
    from .isogeny_transfer import (TransferCase, class_preserved, component_match,
                                   roundtrip_check, transfer)
    typ, _, lf = _component_args(args)
    case = TransferCase(args.case)
    before = (typ, lf)
    after = transfer(before, case, args.direction)
    ok_round = roundtrip_check(before, case, args.direction)
    ok_class = class_preserved(before, after)
    _emit(args, {"case": case.to_json(), "direction": args.direction,
                 "before": {"type": typ, "labels": lf.to_json(),
                            "match": component_match(before).to_json()},
                 "after": {"type": after[0], "labels": after[1].to_json(),
                           "match": component_match(after).to_json()},
                 "roundtrip": ok_round, "class_preserved": ok_class})
    return 0 if ok_round and ok_class else 1


def _cmd_mu(args):
    from .label_params import q_power_str
    from .mu_function import mu_factor, poles_zeros, q_from_poles
    f = mu_factor(fraction(args.qa), fraction(args.qs), fraction(args.c_prime))
    if args.action == "show":
        payload = {"q_alpha": q_power_str(f.pair.e_alpha),
                   "q_star": q_power_str(f.pair.e_star),
                   "c_prime": str(f.c_prime),
                   "numerator": f.num.to_str(),
                   "denominator": f.den.to_str()}
    elif args.action == "poles":
        payload = poles_zeros(f).to_json()
    else:
        payload = q_from_poles(poles_zeros(f)).to_json()
    _emit(args, payload)
    return 0


def _cmd_jmatrix(args):
    from .intertwiner_rank1 import j_matrix
    if args.direction:
        payload = j_matrix(args.direction).to_json()
    else:
        payload = {d: j_matrix(d).to_json() for d in J_DIRECTIONS}
    _emit(args, payload)
    return 0


def _cmd_scalar(args):
    from .intertwiner_rank1 import (compose, composite_scalar, is_scalar_identity,
                                    j_matrix, reciprocal_scalar_profile,
                                    reducibility_points)
    a, b = (j_matrix(d) for d in J_DIRECTIONS)
    s = composite_scalar()
    ok = is_scalar_identity(compose(a, b), s) and is_scalar_identity(compose(b, a), s)
    _emit(args, {"scalar": s.to_str("z"), "scalar_identity": ok,
                 "reciprocal_profile": reciprocal_scalar_profile().to_json(),
                 "reducibility_points": reducibility_points().to_json()})
    return 0 if ok else 1


def _cmd_charsum(args):
    from . import SizeLimitError
    from .intertwiner_rank1 import (AUDIT_PHI_CAP, FiniteCharacter, char_sum,
                                    ramified_rule)
    m = args.modulus
    if args.index is not None:
        chi = FiniteCharacter(m, args.index)
        s = char_sum(chi)
        _emit(args, {"modulus": m, "index": chi.index, "phi": chi.phi,
                     "trivial": chi.is_trivial(), "sum": s,
                     "rule": ramified_rule(chi)})
        return 0 if chi.is_trivial() or s == 0 else 1
    phi = FiniteCharacter(m, 0).phi
    if phi > AUDIT_PHI_CAP:
        raise SizeLimitError(
            f"audit of {phi} characters exceeds {AUDIT_PHI_CAP}; pass --index")
    sums = [char_sum(FiniteCharacter(m, i)) for i in range(phi)]
    vanish = all(s == 0 for s in sums[1:])
    _emit(args, {"modulus": m, "phi": phi, "trivial_sum": sums[0],
                 "nontrivial_all_vanish": vanish})
    return 0 if vanish and sums[0] == phi else 1


def _cmd_mul(args):
    from .hecke_algebra import normal_form
    alg = _algebra_args(args)
    ltoks, rtoks = _tokens(args.left, alg.d), _tokens(args.right, alg.d)
    prod = normal_form(alg, ltoks + rtoks)   # charged on both words together
    left, right = normal_form(alg, ltoks), normal_form(alg, rtoks)
    _emit(args, {"left": repr(left), "right": repr(right),
                 "product": prod.to_json(), "display": repr(prod)})
    return 0


def _cmd_normal_form(args):
    from .hecke_algebra import normal_form
    alg = _algebra_args(args)
    out = normal_form(alg, _tokens(args.word, alg.d))
    _emit(args, {"element": out.to_json(), "display": repr(out)})
    return 0


def _cmd_check_relations(args):
    from .hecke_algebra import check_relations
    alg = _algebra_args(args)
    report = check_relations(alg, sample_count=args.samples, seed=args.seed)
    _emit(args, {"type": args.type, "labels": alg.lf.to_json(),
                 "samples": args.samples, "seed": args.seed, "report": report})
    return 0 if report["ok"] else 1


def _cmd_decompose(args):
    from .root_data import build_root_system, decompose_extended
    letter, rank = _shape_args(args)
    rs = build_root_system(letter, rank)
    matrix = [[int(v) for v in row.split(",")] for row in args.matrix.split(";")]
    r, w = decompose_extended(matrix, rs)
    _emit(args, {"automorphism": r.to_json(), "basis_fixed": r.is_identity(),
                 "weyl_word": list(w.word), "length": len(w.word)})
    return 0


# -- parser -------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hecke",
        description="Affine Hecke algebra parameters: tables, labels, "
                    "transfer moves, mu-factors, intertwiners and exact "
                    "presentation checks.")
    sub = top.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(name, fn, help_text, csv=False):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--json", dest="json_out", metavar="FILE",
                       help="also write the JSON payload to FILE")
        if csv:
            p.add_argument("--csv", action="store_true",
                           help="emit CSV instead of JSON")
        return p

    def component_flags(p):
        p.add_argument("--type", required=True, help="cartan type, e.g. B or B2")
        p.add_argument("--rank", type=int, help="rank when --type has none")
        p.add_argument("--labels", required=True,
                       help="per-orbit labels, long orbit first; one trailing "
                            "extra value is lambda* of the short orbit")
        p.add_argument("--base-exp", type=fraction, default=Fraction(1),
                       metavar="R", help="labels live at base q_F^R")

    def family_flags(p):
        p.add_argument("--case", required=True, choices=("a", "b", "c"),
                       help="family shape: a = single exponent on a long "
                            "root, b = exponent pair on a short root, c = "
                            "plain type A")
        p.add_argument("--t", type=int, default=1, help="torsion number")
        p.add_argument("--f", type=int, default=1, help="residue degree, 1 or 2")
        p.add_argument("--a-plus", type=int, help="case a exponent")
        p.add_argument("--a", type=int, help="case b upper exponent")
        p.add_argument("--a-minus", type=int, help="case b lower exponent")
        p.add_argument("--n-dual", type=int, help="size bound numerator")
        p.add_argument("--d-rho", type=int, help="divisor in the size bound")

    add("table1", _cmd_table1, "print the admissible-label table", csv=True)

    p = add("match-labels", _cmd_match_labels,
            "match a component's labels against the table")
    component_flags(p)

    p = add("classical", _cmd_classical, "labels of a classical family")
    family_flags(p)

    p = add("bound", _cmd_bound, "exponent bound of a classical family")
    family_flags(p)

    p = add("parity", _cmd_parity,
            "parity rule of a case-b family, optionally applied to (a, a-)")
    p.add_argument("--family", required=True, choices=("unramified-SU", "other"))
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--a", type=int)
    p.add_argument("--a-minus", type=int)

    p = add("unitary-ps", _cmd_unitary_ps,
            "Hecke algebra factors of a unitary principal series", csv=True)
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--ramified", action="store_true",
                   help="the quadratic extension is ramified")
    p.add_argument("--segments", required=True,
                   help="comma list tag:size with tags not-skew, "
                        "skew-nontrivial, skew-trivial and optional trailing "
                        "trivial:n0 middle block")

    p = add("ps-q", _cmd_ps_q, "splitting-field q-exponent of a quasi-split "
                               "principal-series root")
    p.add_argument("--w-orbit", type=int, required=True,
                   help="size of the Weyl-side Galois orbit")
    p.add_argument("--i-orbit", type=int, required=True,
                   help="size of the inertia-side Galois orbit")

    p = add("case", _cmd_case,
            "look up one exceptional-case record, or audit the whole "
            "database when no group is given")
    p.add_argument("--group", help="group tag, e.g. G2, 3D4, E7(2)")
    p.add_argument("--levi", help="comma list of simple-root numbers (from 1)")

    p = add("transfer", _cmd_transfer, "apply an isogeny label move")
    component_flags(p)
    p.add_argument("--case", required=True, choices=("i", "ii", "iii"))
    p.add_argument("--direction", default="to-quotient",
                   choices=("to-quotient", "to-cover"))

    p = add("mu", _cmd_mu, "rank-one mu-factor: show, poles, or recover the "
                           "parameters from the pole profile")
    p.add_argument("action", nargs="?", default="show",
                   choices=("show", "poles", "recover"))
    p.add_argument("--qa", required=True, metavar="E",
                   help="exponent of q_alpha")
    p.add_argument("--qs", default="0", metavar="E",
                   help="exponent of q_alpha*")
    p.add_argument("--c-prime", default="1", help="positive constant c'")

    p = add("jmatrix", _cmd_jmatrix, "rank-one intertwiner matrices")
    p.add_argument("--direction", choices=J_DIRECTIONS,
                   help="one matrix only; default prints both")

    add("scalar", _cmd_scalar,
        "composite scalar of the two intertwiners, verified to be scalar "
        "times identity, with its pole data")

    p = add("charsum", _cmd_charsum,
            "character sums over the units mod p^k; without --index checks "
            "that every nontrivial sum vanishes")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--index", type=int,
                   help="character index in the cyclic dual group")

    p = add("mul", _cmd_mul, "multiply two elements given as generator words")
    component_flags(p)
    p.add_argument("left", help='e.g. "T0 T1" or "x1,0 T0"')
    p.add_argument("right")

    p = add("normal-form", _cmd_normal_form,
            "fold a generator word into the theta/T basis")
    component_flags(p)
    p.add_argument("word", help='e.g. "T0 x1,0 T0"')

    p = add("check-relations", _cmd_check_relations,
            "exact verification of the presentation on random elements")
    component_flags(p)
    p.add_argument("--samples", type=int, default=50, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="N")

    p = add("decompose", _cmd_decompose,
            "factor a root-set symmetry as (diagram automorphism) * (Weyl "
            "element)")
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--matrix", required=True,
                   help="integer matrix on the realization coordinates, "
                        "rows separated by ';', entries by ','")

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as err:   # SizeLimitError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ArithmeticError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
