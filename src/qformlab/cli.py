"""qformlab command line.

One subcommand per deliverable: expansions (eta-expand, eisenstein),
the holomorphy checker (ligozat-check), the space bases (basis),
representation numbers (rep-count, derive-table, verify-tables),
newforms (verify-newforms), and the census (census, verify-remarks).
Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.

Each subcommand builds one record, a dict of JSON values, and `main`
prints one rendering of it: the record itself under `--json` (less the
one text-only key of verify-newforms), otherwise the lines of the
subcommand's text renderer, which reads only the record and the parsed
arguments.  Identical invocations produce
byte-identical output.
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


def _ok(flag) -> str:
    return "ok" if flag else "FAIL"


def _q_power(n: Fraction) -> str:
    if n == 0:
        return ""
    if n == 1:
        return "q"
    if n.denominator == 1:
        return "q^%d" % n.numerator
    return "q^(%s)" % n


def _series_record(label: str, precision: int, series) -> dict:
    return {
        "label": label,
        "precision": precision,
        "terms": [
            [str(Fraction(e, GRADE)), format_rational(c)]
            for e, c in series.terms()
        ],
        "o_term": str(series.qprecision()),
    }


def _render_series(record, args):
    """One line: the label, the nonzero terms and a trailing O-term."""
    text = ""
    for e, c in record["terms"]:
        mag, qp = c.lstrip("-"), _q_power(Fraction(e))
        body = mag if not qp else qp if mag == "1" else "%s*%s" % (mag, qp)
        text += (" - " if mag != c else " + ") + body
    sign = "-" if text.startswith(" - ") else ""
    o_term = _q_power(Fraction(record["o_term"])) or "1"
    yield "%s = %s + O(%s)" % (record["label"], sign + text[3:] or "0", o_term)


def _cmd_eta_expand(args):
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
    return _series_record(f.label(), args.precision, series), 0


def _cmd_ligozat_check(args):
    f = parse_eta(args.label)
    rep = ligozat_check(f)
    record = {
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
    return record, 0 if rep.is_holomorphic else 1


def _render_ligozat_check(record, args):
    yield "%s: weight %s" % (record["label"], record["weight"])
    yield "  cusp orders: " + ", ".join("%s: %s" % item for item in record["cusp_orders"].items())
    yield "  24 | order sums at infinity/zero: %s/%s" % (
        record["order_at_infinity_mod24"],
        record["order_at_zero_mod24"],
    )
    character = record["character"]
    yield "  character: %s" % ("none" if character is None else "chi(%d)" % character)
    yield "  holomorphic: %s, cuspidal: %s" % (record["holomorphic"], record["cuspidal"])


def _cmd_eisenstein(args):
    spec = parse_e3(args.label)
    if args.precision < 0:
        raise ValueError("--precision must be nonnegative")
    _check_bound("--precision", args.precision, EISENSTEIN_MAX_PRECISION)
    series = eisenstein3(spec.chi, spec.psi, spec.t, args.precision + 1)
    return _series_record(spec.label(), args.precision, series), 0


def _per_space(args, entry):
    """{str(disc): entry(disc)} over the selected spaces, and exit code 1
    when an entry's "ok" is false (a derive-table entry is a row list)."""
    discs = (args.char,) if args.char is not None else SPACE_DISCRIMINANTS
    record = {str(disc): entry(disc) for disc in discs}
    return record, int(any(isinstance(e, dict) and not e.get("ok", True) for e in record.values()))


def _basis_dump(disc: int) -> dict:
    basis = build_basis(disc)
    return {
        "dimension": basis.dimension,
        "eisenstein": [s.label() for s in basis.eisenstein],
        "cusp": [f.label() for f in basis.cusp],
    }


def _basis_verify(disc: int) -> dict:
    rep = verify_basis(disc)
    return {
        "rank": rep.rank,
        "dimension": rep.dimension,
        "cusp_forms_ok": rep.cusp_forms_ok and rep.characters_ok,
        "valuations": list(rep.valuations),
        "ok": rep.ok,
    }


def _cmd_basis(args):
    return _per_space(args, _basis_dump if args.action == "dump" else _basis_verify)


def _render_basis(record, args):
    for disc, entry in record.items():
        if args.action == "dump":
            yield "chi(%s): dimension %d" % (disc, entry["dimension"])
            yield from ("  " + label for label in entry["eisenstein"])
            for label in entry["cusp"]:
                yield "  %s (order %d)" % (label, parse_eta(label).valuation24() // GRADE)
        else:
            vals = entry["valuations"]
            yield "chi(%s): rank %d/%d, cusp forms %s, distinct orders %s -> %s" % (
                disc,
                entry["rank"],
                entry["dimension"],
                _ok(entry["cusp_forms_ok"]),
                _ok(len(set(vals)) == len(vals)),
                "pass" if entry["ok"] else "FAIL",
            )


def _parse_form(text: str) -> tuple:
    """The exponent tuple (l1, l2, l3, l6) of six comma-separated coefficients."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 6:
        raise ValueError("--form wants 6 comma-separated coefficients, got %d" % len(parts))
    coeffs = [int(p) for p in parts]
    if any(c not in (1, 2, 3, 6) for c in coeffs):
        raise ValueError("need six coefficients, each one of 1, 2, 3, 6")
    return tuple(coeffs.count(d) for d in (1, 2, 3, 6))


def _cmd_rep_count(args):
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
                return None, 1
            formula = value.numerator
    if oracle is not None and formula is not None and oracle != formula:
        print(
            "mismatch: oracle %d != formula %d for %s at n=%d"
            % (oracle, formula, ",".join(map(str, coefficients(exps))), args.n),
            file=sys.stderr,
        )
        return None, 1
    record = {
        "form": list(coefficients(exps)),
        "n": args.n,
        "count": oracle if oracle is not None else formula,
        "method": "oracle" if args.oracle else ("formula" if args.formula else "both"),
    }
    return record, 0


def _render_rep_count(record, args):
    yield "%d" % record["count"]


def _table_rows(disc: int) -> list:
    return [
        {
            "exponents": list(exps),
            "values": [format_rational(v) for v in derive_formula(exps).values()],
        }
        for exps in all_forms()
        if classify(exps).discriminant == disc
    ]


def _cmd_derive_table(args):
    return _per_space(args, _table_rows)


def _render_derive_table(record, args):
    for disc, rows in record.items():
        yield "# chi(%s): %d rows" % (disc, len(rows))
        for row in rows:
            yield "%d %d %d %d  %s" % (*row["exponents"], " ".join(row["values"]))


def _table_comparison(disc: int) -> dict:
    comp = compare_with_fixture(disc)
    return {
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
        "ok": not comp.undisputed_mismatches(),
    }


def _cmd_verify_tables(args):
    return _per_space(args, _table_comparison)


def _render_verify_tables(record, args):
    for disc, entry in record.items():
        tags = [
            "DISPUTED" if (tuple(m["exponents"]), m["column"]) in DISPUTED_CELLS else "UNDISPUTED"
            for m in entry["mismatches"]
        ]
        yield "chi(%s): %d rows, %d mismatch(es), %d undisputed -> %s" % (
            disc,
            entry["rows"],
            len(tags),
            tags.count("UNDISPUTED"),
            "pass" if entry["ok"] else "FAIL",
        )
        for m, tag in zip(entry["mismatches"], tags):
            yield "  row %s column %d: derived %s, printed %s [%s]" % (
                tuple(m["exponents"]), m["column"], m["derived"], m["printed"], tag
            )


# The plain verify-newforms output shows the a(1) and p^2 relation flags of
# each Hecke check, which its JSON output leaves out.  They ride in the
# record under this key, {name: [a1_ok, [[p, ok], ...]]}, and the JSON
# rendering drops it.
_TEXT_ONLY = "text_only"


def _cmd_verify_newforms(args):
    if args.precision < 13:
        raise ValueError("--precision must be at least 13")
    _check_bound("--precision", args.precision, NEWFORMS_MAX_PRECISION)
    names = [s.name for s in NEWFORMS]
    if args.index is not None:
        if not 1 <= args.index <= len(names):
            raise ValueError("--index must be in 1..%d" % len(names))
        names = [names[args.index - 1]]
    record, flags = {}, {}
    count = args.precision + 1
    for name in names:
        entry = record[name] = {}
        if name == "f1":
            built = build_newform("f1", max(count, 10))
            entry["reference_ok"] = all(built.qcoeff(n) == c for n, c in enumerate(f1_reference()))
            entry["solve_back_ok"] = solve_back_f1() == get_spec("f1").scalars()
        rep = check_eigenform(name, count)
        entry["hecke_ok"] = rep.ok
        entry["pairs_checked"] = rep.pairs_checked
        flags[name] = [rep.a1_ok, [[p, f] for p, f in rep.hecke_p2_ok]]
        if not rep.ok and get_spec(name).field is not None:
            red = rederive_newform(name, precision=count)
            entry["fallback"] = {
                "operator": list(red.operator),
                "field_poly": [format_rational(c) for c in red.field_poly],
                "hecke_ok": red.ok,
                "matches_printed_minpoly": red.minpoly_match,
                "note": red.note,
            }
    checks = ("reference_ok", "solve_back_ok", "hecke_ok")
    ok = all(v for entry in record.values() for k, v in entry.items() if k in checks)
    record[_TEXT_ONLY] = flags
    return record, 0 if ok else 1


def _render_verify_newforms(record, args):
    for name, (a1_ok, p2_ok) in record[_TEXT_ONLY].items():
        entry = record[name]
        if "reference_ok" in entry:
            yield "%s: reference through q^9 %s, solve-back %s" % (
                name, _ok(entry["reference_ok"]), _ok(entry["solve_back_ok"])
            )
        yield "%s: hecke %s (a(1) %s, %d coprime pairs, p^2 relations %s)" % (
            name,
            _ok(entry["hecke_ok"]),
            _ok(a1_ok),
            entry["pairs_checked"],
            ",".join("%d:%s" % (p, _ok(f)) for p, f in p2_ok),
        )
        if "fallback" in entry:
            red = entry["fallback"]
            yield "  fallback %s: field %s, hecke %s, printed-minpoly match %s (%s)" % (
                _operator_label(red["operator"]) or "none",
                red["field_poly"],
                _ok(red["hecke_ok"]),
                red["matches_printed_minpoly"],
                red["note"],
            )


def _cmd_census(args):
    if args.emit and args.char is None:
        raise ValueError("--emit needs --char")

    def entry(disc):
        result = enumerate_space(disc)
        m = len(result.members)
        e = len(result.eisenstein_expressible)
        if args.emit:
            with open(args.emit, "w") as fh:
                for f in result.members:
                    fh.write(f.label() + "\n")
                fh.write("# members %d expressible %d\n" % (m, e))
        return {"members": m, "expressible": e}

    return _per_space(args, entry)


def _render_census(record, args):
    for disc, entry in record.items():
        yield "chi(%s): %d members, %d eisenstein-expressible" % (
            disc, entry["members"], entry["expressible"]
        )


def _cmd_verify_remarks(args):
    if args.precision < 13:
        raise ValueError("--precision must be at least 13")
    _check_bound("--precision", args.precision, REMARKS_MAX_PRECISION)
    reports = verify_remark_identities(args.precision + 1)
    record = {
        rep.label: {"holds": rep.holds, "first_mismatch": rep.first_mismatch}
        for rep in reports
    }
    return record, 0 if all(r.holds for r in reports) else 1


def _render_verify_remarks(record, args):
    for label, entry in record.items():
        if entry["holds"]:
            yield "%s: ok through q^%d" % (label, args.precision)
        else:
            yield "%s: FAIL at q^%d" % (label, entry["first_mismatch"])


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

    def add_char(p):
        p.add_argument(
            "--char", type=int, choices=SPACE_DISCRIMINANTS, help="character discriminant"
        )

    def add_precision(p, default):
        doc = "highest q-power (default %d)" % default
        p.add_argument("--precision", type=int, default=default, help=doc)

    p = sub.add_parser("eta-expand", help="expand an eta quotient")
    p.add_argument("label", help="e.g. eta24[0,3,0,-4,-5,2,16,-6]")
    add_precision(p, 60)
    p.set_defaults(func=_cmd_eta_expand, render=_render_series)

    p = sub.add_parser("ligozat-check", help="holomorphy test for an eta quotient")
    p.add_argument("label")
    p.set_defaults(func=_cmd_ligozat_check, render=_render_ligozat_check)

    p = sub.add_parser("eisenstein", help="expand a twisted Eisenstein series")
    p.add_argument("label", help="e.g. E3[-4,1,2]")
    add_precision(p, 60)
    p.set_defaults(func=_cmd_eisenstein, render=_render_series)

    p = sub.add_parser("basis", help="dump or verify the four space bases")
    p.add_argument("action", choices=("dump", "verify"))
    add_char(p)
    p.set_defaults(func=_cmd_basis, render=_render_basis)

    p = sub.add_parser("rep-count", help="representation number of one form")
    p.add_argument("--form", required=True, help="6 coefficients, e.g. 1,1,1,1,3,3")
    p.add_argument("--n", type=int, required=True)
    method = p.add_mutually_exclusive_group()
    method.add_argument("--oracle", action="store_true", help="brute force only")
    method.add_argument("--formula", action="store_true", help="derived formula only")
    p.set_defaults(func=_cmd_rep_count, render=_render_rep_count)

    p = sub.add_parser("derive-table", help="derive the coefficient tables")
    add_char(p)
    p.set_defaults(func=_cmd_derive_table, render=_render_derive_table)

    p = sub.add_parser("verify-tables", help="compare derived tables to the fixtures")
    add_char(p)
    p.set_defaults(func=_cmd_verify_tables, render=_render_verify_tables)

    p = sub.add_parser("verify-newforms", help="Hecke checks for the five newforms")
    p.add_argument("--index", type=int, help="1..5, default all")
    add_precision(p, 119)
    p.set_defaults(func=_cmd_verify_newforms, render=_render_verify_newforms)

    p = sub.add_parser("census", help="eta-quotient census of the four spaces")
    add_char(p)
    p.add_argument("--emit", help="write member labels to this path")
    p.set_defaults(func=_cmd_census, render=_render_census)

    p = sub.add_parser("verify-remarks", help="check the displayed identities")
    add_precision(p, 60)
    p.set_defaults(func=_cmd_verify_remarks, render=_render_verify_remarks)

    # added last, so --json ends every usage line
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="JSON output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        record, code = args.func(args)
        if record is not None and args.json:
            shown = {k: v for k, v in record.items() if k != _TEXT_ONLY}
            print(json.dumps(shown, sort_keys=True))
        elif record is not None:
            print("\n".join(args.render(record, args)))
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
