"""Acceptance gate: the nine headline checks, one pass/fail line each.

Run with -s to see the lines; every criterion is also a hard assertion,
so a plain pytest run fails loudly if any of them breaks.
"""

from fractions import Fraction

import pytest

from qformlab.characters import chi, gen_bernoulli3
from qformlab.etasearch import verify_remark_identities
from qformlab.newforms import (
    K1,
    NEWFORMS,
    build_newform,
    check_eigenform,
    f1_reference,
    rederive_newform,
    solve_back_f1,
)
from qformlab.quadforms import (
    all_forms,
    compare_with_fixture,
    derive_formula,
    genfun,
    rep_count_formula,
    rep_counts_bruteforce,
)
from qformlab.spaces import SPACE_DISCRIMINANTS, basis_expansions, verify_basis
from reference import character_table


def _line(n, ok, detail):
    print("criterion %d: %s - %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_1_character_table():
    expected = (
        (1, 1, 1, 1, 1, 1, 1, 1),
        (1, 1, 1, 1, -1, -1, -1, -1),
        (1, 1, -1, -1, 1, 1, -1, -1),
        (1, 1, -1, -1, -1, -1, 1, 1),
        (1, -1, 1, -1, -1, 1, -1, 1),
        (1, -1, 1, -1, 1, -1, 1, -1),
        (1, -1, -1, 1, -1, 1, 1, -1),
        (1, -1, -1, 1, 1, -1, -1, 1),
    )
    got = character_table()
    _line(1, got == expected, "all 64 character values exact")


def test_criterion_2_bernoulli_values():
    got = tuple(gen_bernoulli3(chi(t)) for t in (-3, -4, -8, -24))
    want = (Fraction(2, 3), Fraction(3, 2), Fraction(9), Fraction(138))
    _line(2, got == want, "B3 values %s" % (tuple(map(str, got)),))


def test_criterion_3_bases_verify():
    ranks = []
    ok = True
    for disc in SPACE_DISCRIMINANTS:
        rep = verify_basis(disc)
        ranks.append(rep.rank)
        ok = ok and rep.ok
    ok = ok and ranks == [12, 12, 10, 10]
    _line(3, ok, "ranks %s, cusp certificates and valuations all good" % (ranks,))


def test_criterion_4_table_reconstruction():
    total = 0
    undisputed = 0
    disputed_report = []
    for disc in SPACE_DISCRIMINANTS:
        comp = compare_with_fixture(disc)
        total += comp.rows
        undisputed += len(comp.undisputed_mismatches())
        for mism in comp.mismatches:
            if mism not in comp.undisputed_mismatches():
                disputed_report.append(mism)
    detail = "84 rows, every rational cell exact"
    if disputed_report:
        detail = "84 rows; disputed cells resolved in favor of the derived value: %s" % (
            disputed_report,
        )
    _line(4, total == 84 and undisputed == 0, detail)


def test_criterion_5_three_way_oracle_agreement():
    checked = 0
    for exps in all_forms():
        counts = rep_counts_bruteforce(exps, 50)
        series = genfun(exps, 51)
        row = derive_formula(exps, 13)
        for n in range(1, 51):
            a = counts[n]
            b = series.qcoeff(n)
            c = rep_count_formula(row, n)
            assert a == b == c, "form %s at n=%d: %s %s %s" % (exps, n, a, b, c)
            checked += 1
    _line(5, checked == 4200, "formula = brute force = theta product on %d cells" % checked)


def test_criterion_6_sturm_soundness():
    checked = 0
    for exps in all_forms():
        row = derive_formula(exps, 13)  # solved from q^0..q^12 only
        expansions = basis_expansions(row.character.discriminant, 61)
        series = genfun(exps, 61)
        values = row.values()
        for n in range(61):
            acc = Fraction(0)
            for x, e in zip(values, expansions):
                if x:
                    acc += x * e.qcoeff(n)
            assert acc == series.qcoeff(n), "form %s at n=%d" % (exps, n)
        checked += 1
    _line(6, checked == 84, "13-coefficient solutions re-verify through q^60 on all 84 rows")


def test_criterion_7_newforms():
    f = build_newform("f1", 10)
    ref_ok = all(f.qcoeff(n) == c for n, c in enumerate(f1_reference()))
    back_ok = solve_back_f1() == (1, 0, K1.generator() + 3, 4)
    hecke_ok = True
    fallbacks = []
    for spec in NEWFORMS:
        rep = check_eigenform(spec.name)
        if not rep.ok:
            red = rederive_newform(spec.name)
            fallbacks.append("%s rederived via %s: %s" % (spec.name, red.operator, red.ok))
            hecke_ok = hecke_ok and red.ok
        else:
            hecke_ok = hecke_ok and rep.ok
    detail = "f1 reference + solve-back, all five pass Hecke checks"
    if fallbacks:
        detail += "; fallbacks: " + "; ".join(fallbacks)
    _line(7, ref_ok and back_ok and hecke_ok, detail)


@pytest.mark.slow
def test_criterion_8_census(census):
    # every member re-passes ligozat_check inside enumerate_space
    got = {d: (len(r.members), len(r.eisenstein_expressible)) for d, r in census.items()}
    want = {-3: (6332, 140), -4: (6288, 40), -8: (2424, 4), -24: (2424, 0)}
    _line(8, got == want, "members and Eisenstein-expressible counts %s" % (got,))


def test_criterion_9_remark_identities():
    reports = verify_remark_identities(61)
    ok = len(reports) == 9 and all(r.holds for r in reports)
    _line(9, ok, "all 9 displayed identities hold through q^60")
