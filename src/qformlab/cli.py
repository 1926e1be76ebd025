"""qformlab command line.

One subcommand per deliverable: expansions (eta-expand, eisenstein),
the holomorphy checker (ligozat-check), the space bases (basis),
representation numbers (rep-count, derive-table, verify-tables),
newforms (verify-newforms), and the census (census, verify-remarks).
Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.
Identical invocations produce byte-identical output.
"""

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from math import ceil, floor

from .arith import format_rational
from .eisenstein import eisenstein3, parse_e3
from .etaq import ligozat_check, parse_eta
from .etasearch import enumerate_space, verify_remark_identities
from .newforms import (
    NEWFORMS,
    _operator_label,
    build_newform,
    check_eigenform,
    f1_reference,
    get_spec,
    rederive_newform,
    solve_back_f1,
)
from .qseries import GRADE, eta_quotient_expansion
from .quadforms import (
    DISPUTED_CELLS,
    all_forms,
    classify,
    coefficients,
    compare_with_fixture,
    derive_formula,
    rep_count_formula,
    rep_counts_bruteforce,
)
from .spaces import SPACE_DISCRIMINANTS, build_basis, verify_basis

_CHAR_CHOICES = SPACE_DISCRIMINANTS

# Largest n that rep-count answers, per method; past them it exits 2
# before any work.  Slowest form at the bound on a 2-vCPU KVM guest:
ENUMERATOR_MAX_N = 800  # default mode and --oracle: 5.7 s (1,1,1,1,1,1)
FORMULA_CUSP_MAX_N = 10**4  # cusp expansions to q^n: 0.8 s (1,1,1,1,2,3)
FORMULA_EISENSTEIN_MAX_N = 10**12  # divisor sums by trial division: 0.6 s (1,3,3,3,3,3)

# Largest --precision, or expansion size, that each expanding subcommand
# answers; past them it exits 2 before any work.  Slowest input at the
# bound, whole command, on a 2-vCPU guest (Python 3.11):
ETA_MAX_COEFFS = 3000  # q-steps precision + 1 - order: 1.9-3.1 s (eta1[-128])
ETA_MAX_EXPONENT_SUM = 128  # sum |r_delta|; every census member has at most 108
EISENSTEIN_MAX_PRECISION = 10**5  # 1.0-1.4 s (E3[-4,1,1], E3[-3,8,1])
NEWFORMS_MAX_PRECISION = 2500  # all five newforms: 1.1-1.6 s
REMARKS_MAX_PRECISION = 5000  # 0.9-1.2 s


def _check_bound(what: str, value: int, bound: int) -> None:
    if value > bound:
        raise ValueError("%s is %d, above the bound %d" % (what, value, bound))


def _q_power(e: int) -> str:
    if e == 0:
        return ""
    n = Fraction(e, GRADE)
    if n == 1:
        return "q"
    if n.denominator == 1:
        return "q^%d" % n.numerator
    return "q^(%s)" % n


def format_series(series) -> str:
    """Deterministic one-line rendering with a trailing O-term."""
    parts = []
    for e, c in series.terms():
        neg = c < 0
        mag = -c if neg else c
        qp = _q_power(e)
        if not qp:
            body = format_rational(mag)
        elif mag == 1:
            body = qp
        else:
            body = "%s*%s" % (format_rational(mag), qp)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append((" - " if neg else " + ") + body)
    if not parts:
        parts.append("0")
    parts.append(" + O(%s)" % (_q_power(series.trunc) or "1"))
    return "".join(parts)


def _series_json(series):
    return {
        "terms": [
            [str(Fraction(e, GRADE)), format_rational(c)]
            for e, c in series.terms()
        ],
        "o_term": str(series.qprecision()),
    }


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _cmd_eta_expand(args) -> int:
    f = parse_eta(args.label)
    order = Fraction(f.valuation24(), GRADE)
    if args.precision + 1 <= order:
        raise ValueError(
            "--precision %d is below the order at infinity %s of %s; use --precision %d or more"
            % (args.precision, format_rational(order), f.label(), floor(order))
        )
    _check_bound("sum |r| of %s" % f.label(), sum(map(abs, f.exponents)), ETA_MAX_EXPONENT_SUM)
    steps = ceil(args.precision + 1 - order)
    _check_bound("the q-step count of --precision %d" % args.precision, steps, ETA_MAX_COEFFS)
    series = eta_quotient_expansion(f, args.precision + 1)
    payload = {"label": f.label(), "precision": args.precision}
    payload.update(_series_json(series))
    _emit(args, payload, "%s = %s" % (f.label(), format_series(series)))
    return 0


def _cmd_ligozat_check(args) -> int:
    f = parse_eta(args.label)
    rep = ligozat_check(f)
    payload = {
        "label": f.label(),
        "weight": format_rational(rep.weight),
        "order_at_infinity_mod24": rep.cond_24_divides_at_infinity,
        "order_at_zero_mod24": rep.cond_24_divides_at_zero,
        "nonnegative_cusp_orders": rep.cond_nonnegative_cusp_orders,
        "positive_integral_weight": rep.cond_positive_integral_weight,
        "cusp_orders": {
            "1/%d" % c: format_rational(v) for c, v in rep.cusp_orders
        },
        "character": rep.character.discriminant if rep.character else None,
        "holomorphic": rep.is_holomorphic,
        "cuspidal": rep.is_cuspidal,
    }
    lines = [
        "%s: weight %s" % (f.label(), format_rational(rep.weight)),
        "  cusp orders: "
        + ", ".join("1/%d: %s" % (c, format_rational(v)) for c, v in rep.cusp_orders),
        "  24 | order sums at infinity/zero: %s/%s"
        % (rep.cond_24_divides_at_infinity, rep.cond_24_divides_at_zero),
        "  character: %s"
        % (("chi(%d)" % rep.character.discriminant) if rep.character else "none"),
        "  holomorphic: %s, cuspidal: %s" % (rep.is_holomorphic, rep.is_cuspidal),
    ]
    _emit(args, payload, "\n".join(lines))
    return 0 if rep.is_holomorphic else 1


def _cmd_eisenstein(args) -> int:
    spec = parse_e3(args.label)
    if args.precision < 0:
        raise ValueError("--precision must be nonnegative")
    _check_bound("--precision", args.precision, EISENSTEIN_MAX_PRECISION)
    series = eisenstein3(spec.chi, spec.psi, spec.t, args.precision + 1)
    payload = {"label": spec.label(), "precision": args.precision}
    payload.update(_series_json(series))
    _emit(args, payload, "%s = %s" % (spec.label(), format_series(series)))
    return 0


def _selected_discs(args):
    return (args.char,) if args.char is not None else _CHAR_CHOICES


def _cmd_basis(args) -> int:
    if args.action == "dump":
        payload = {}
        lines = []
        for disc in _selected_discs(args):
            basis = build_basis(disc)
            lines.append("chi(%d): dimension %d" % (disc, basis.dimension))
            for spec in basis.eisenstein:
                lines.append("  %s" % spec.label())
            for f in basis.cusp:
                lines.append("  %s (order %d)" % (f.label(), f.valuation24() // GRADE))
            payload[str(disc)] = {
                "dimension": basis.dimension,
                "eisenstein": [s.label() for s in basis.eisenstein],
                "cusp": [f.label() for f in basis.cusp],
            }
        _emit(args, payload, "\n".join(lines))
        return 0
    ok = True
    payload = {}
    lines = []
    for disc in _selected_discs(args):
        rep = verify_basis(disc)
        ok = ok and rep.ok
        lines.append(
            "chi(%d): rank %d/%d, cusp forms %s, distinct orders %s -> %s"
            % (
                disc,
                rep.rank,
                rep.dimension,
                "ok" if rep.cusp_forms_ok and rep.characters_ok else "FAIL",
                "ok" if rep.valuations_distinct else "FAIL",
                "pass" if rep.ok else "FAIL",
            )
        )
        payload[str(disc)] = {
            "rank": rep.rank,
            "dimension": rep.dimension,
            "cusp_forms_ok": rep.cusp_forms_ok and rep.characters_ok,
            "valuations": list(rep.valuations),
            "ok": rep.ok,
        }
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def _parse_form(text: str) -> tuple:
    """The exponent tuple (l1, l2, l3, l6) of six comma-separated coefficients."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 6:
        raise ValueError("--form wants 6 comma-separated coefficients, got %d" % len(parts))
    coeffs = [int(p) for p in parts]
    if any(c not in (1, 2, 3, 6) for c in coeffs):
        raise ValueError("need six coefficients, each one of 1, 2, 3, 6")
    return tuple(coeffs.count(d) for d in (1, 2, 3, 6))


def _cmd_rep_count(args) -> int:
    exps = _parse_form(args.form)
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    if not args.formula and args.n > ENUMERATOR_MAX_N:
        raise ValueError(
            "--n %d is above the enumerator bound %d; --formula goes further"
            % (args.n, ENUMERATOR_MAX_N)
        )
    oracle = None if args.formula else rep_counts_bruteforce(exps, args.n)[args.n]
    formula = None
    if not args.oracle:
        if args.n == 0:
            formula = 1  # empty sum: only the zero vector
        else:
            row = derive_formula(exps)
            cusp = any(row.cusp)
            bound = FORMULA_CUSP_MAX_N if cusp else FORMULA_EISENSTEIN_MAX_N
            if args.n > bound:
                raise ValueError(
                    "--n %d is above the formula bound %d for a form with%s a cusp part"
                    % (args.n, bound, "" if cusp else "out")
                )
            value = rep_count_formula(row, args.n)
            if value.denominator != 1:
                print("formula produced a non-integer count %s" % value, file=sys.stderr)
                return 1
            formula = value.numerator
    if oracle is not None and formula is not None and oracle != formula:
        print(
            "mismatch: oracle %d != formula %d for %s at n=%d"
            % (oracle, formula, ",".join(map(str, coefficients(exps))), args.n),
            file=sys.stderr,
        )
        return 1
    count = oracle if oracle is not None else formula
    payload = {
        "form": list(coefficients(exps)),
        "n": args.n,
        "count": count,
        "method": "oracle" if args.oracle else ("formula" if args.formula else "both"),
    }
    _emit(args, payload, "%d" % count)
    return 0


def _row_text(row) -> str:
    cells = " ".join(format_rational(v) for v in row.values())
    return "%d %d %d %d  %s" % (row.exponents + (cells,))


def _cmd_derive_table(args) -> int:
    payload = {}
    lines = []
    for disc in _selected_discs(args):
        rows = [
            derive_formula(exps)
            for exps in all_forms()
            if classify(exps).discriminant == disc
        ]
        lines.append("# chi(%d): %d rows" % (disc, len(rows)))
        lines.extend(_row_text(row) for row in rows)
        payload[str(disc)] = [
            {
                "exponents": list(row.exponents),
                "values": [format_rational(v) for v in row.values()],
            }
            for row in rows
        ]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_verify_tables(args) -> int:
    ok = True
    payload = {}
    lines = []
    for disc in _selected_discs(args):
        comp = compare_with_fixture(disc)
        bad = comp.undisputed_mismatches()
        ok = ok and not bad
        lines.append(
            "chi(%d): %d rows, %d mismatch(es), %d undisputed -> %s"
            % (
                disc,
                comp.rows,
                len(comp.mismatches),
                len(bad),
                "pass" if not bad else "FAIL",
            )
        )
        for exps, col, derived, printed in comp.mismatches:
            tag = "DISPUTED" if (exps, col) in DISPUTED_CELLS else "UNDISPUTED"
            lines.append(
                "  row %s column %d: derived %s, printed %s [%s]"
                % (exps, col, format_rational(derived), format_rational(printed), tag)
            )
        payload[str(disc)] = {
            "rows": comp.rows,
            "mismatches": [
                {
                    "exponents": list(exps),
                    "column": col,
                    "derived": format_rational(derived),
                    "printed": format_rational(printed),
                }
                for exps, col, derived, printed in comp.mismatches
            ],
            "ok": not bad,
        }
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def _cmd_verify_newforms(args) -> int:
    if args.precision < 13:
        raise ValueError("--precision must be at least 13")
    _check_bound("--precision", args.precision, NEWFORMS_MAX_PRECISION)
    names = [s.name for s in NEWFORMS]
    if args.index is not None:
        if not 1 <= args.index <= len(names):
            raise ValueError("--index must be in 1..%d" % len(names))
        names = [names[args.index - 1]]
    ok = True
    payload = {}
    lines = []
    count = args.precision + 1
    for name in names:
        entry = {}
        if name == "f1":
            built = build_newform("f1", max(count, 10))
            ref_ok = all(built.qcoeff(n) == c for n, c in enumerate(f1_reference()))
            combo = solve_back_f1()
            solve_ok = combo == get_spec("f1").scalars()
            entry["reference_ok"] = ref_ok
            entry["solve_back_ok"] = solve_ok
            lines.append(
                "f1: reference through q^9 %s, solve-back %s"
                % ("ok" if ref_ok else "FAIL", "ok" if solve_ok else "FAIL")
            )
            ok = ok and ref_ok and solve_ok
        rep = check_eigenform(name, count)
        entry["hecke_ok"] = rep.ok
        entry["pairs_checked"] = rep.pairs_checked
        lines.append(
            "%s: hecke %s (a(1) %s, %d coprime pairs, p^2 relations %s)"
            % (
                name,
                "ok" if rep.ok else "FAIL",
                "ok" if rep.a1_ok else "FAIL",
                rep.pairs_checked,
                ",".join("%d:%s" % (p, "ok" if f else "FAIL") for p, f in rep.hecke_p2_ok),
            )
        )
        if not rep.ok:
            ok = False
            if get_spec(name).field is not None:
                red = rederive_newform(name, precision=count)
                op = _operator_label(red.operator) or "none"
                entry["fallback"] = {
                    "operator": list(red.operator),
                    "field_poly": [format_rational(c) for c in red.field_poly],
                    "hecke_ok": red.ok,
                    "matches_printed_minpoly": red.minpoly_match,
                    "note": red.note,
                }
                lines.append(
                    "  fallback %s: field %s, hecke %s, printed-minpoly match %s (%s)"
                    % (
                        op,
                        [format_rational(c) for c in red.field_poly],
                        "ok" if red.ok else "FAIL",
                        red.minpoly_match,
                        red.note,
                    )
                )
        payload[name] = entry
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def _cmd_census(args) -> int:
    if args.emit and args.char is None:
        raise ValueError("--emit needs --char")
    payload = {}
    lines = []
    for disc in _selected_discs(args):
        result = enumerate_space(disc)
        m = len(result.members)
        e = len(result.eisenstein_expressible)
        lines.append("chi(%d): %d members, %d eisenstein-expressible" % (disc, m, e))
        payload[str(disc)] = {"members": m, "expressible": e}
        if args.emit:
            with open(args.emit, "w") as fh:
                for f in result.members:
                    fh.write(f.label() + "\n")
                fh.write("# members %d expressible %d\n" % (m, e))
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_verify_remarks(args) -> int:
    if args.precision < 13:
        raise ValueError("--precision must be at least 13")
    _check_bound("--precision", args.precision, REMARKS_MAX_PRECISION)
    reports = verify_remark_identities(args.precision + 1)
    lines = []
    payload = {}
    for rep in reports:
        if rep.holds:
            lines.append("%s: ok through q^%d" % (rep.label, args.precision))
        else:
            lines.append("%s: FAIL at q^%d" % (rep.label, rep.first_mismatch))
        payload[rep.label] = {
            "holds": rep.holds,
            "first_mismatch": rep.first_mismatch,
        }
    _emit(args, payload, "\n".join(lines))
    return 0 if all(r.holds for r in reports) else 1


# built once per process: every parse starts a fresh Namespace, and no
# option has a mutable default (no append action, no nargs), so no parse
# leaves state behind for the next
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qformlab",
        description="Exact eta quotients, Eisenstein series, and senary "
        "quadratic-form representation numbers on Gamma_0(24).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_char(p, required=False):
        p.add_argument(
            "--char",
            type=int,
            choices=_CHAR_CHOICES,
            required=required,
            help="character discriminant",
        )

    def add_common(p, precision_default):
        p.add_argument(
            "--precision",
            type=int,
            default=precision_default,
            help="highest q-power (default %d)" % precision_default,
        )
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("eta-expand", help="expand an eta quotient")
    p.add_argument("label", help="e.g. eta24[0,3,0,-4,-5,2,16,-6]")
    add_common(p, 60)
    p.set_defaults(func=_cmd_eta_expand)

    p = sub.add_parser("ligozat-check", help="holomorphy test for an eta quotient")
    p.add_argument("label")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=_cmd_ligozat_check)

    p = sub.add_parser("eisenstein", help="expand a twisted Eisenstein series")
    p.add_argument("label", help="e.g. E3[-4,1,2]")
    add_common(p, 60)
    p.set_defaults(func=_cmd_eisenstein)

    p = sub.add_parser("basis", help="dump or verify the four space bases")
    p.add_argument("action", choices=("dump", "verify"))
    add_char(p)
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("rep-count", help="representation number of one form")
    p.add_argument("--form", required=True, help="6 coefficients, e.g. 1,1,1,1,3,3")
    p.add_argument("--n", type=int, required=True)
    method = p.add_mutually_exclusive_group()
    method.add_argument("--oracle", action="store_true", help="brute force only")
    method.add_argument("--formula", action="store_true", help="derived formula only")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=_cmd_rep_count)

    p = sub.add_parser("derive-table", help="derive the coefficient tables")
    add_char(p)
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=_cmd_derive_table)

    p = sub.add_parser("verify-tables", help="compare derived tables to the fixtures")
    add_char(p)
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=_cmd_verify_tables)

    p = sub.add_parser("verify-newforms", help="Hecke checks for the five newforms")
    p.add_argument("--index", type=int, help="1..5, default all")
    add_common(p, 119)
    p.set_defaults(func=_cmd_verify_newforms)

    p = sub.add_parser("census", help="eta-quotient census of the four spaces")
    add_char(p)
    p.add_argument("--emit", help="write member labels to this path")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify-remarks", help="check the displayed identities")
    add_common(p, 60)
    p.set_defaults(func=_cmd_verify_remarks)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
