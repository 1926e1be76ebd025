import dataclasses
from collections import Counter
from fractions import Fraction
from functools import cache
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from qformlab.etaq import ligozat_check
from qformlab.quadforms import (
    DISPUTED_CELLS,
    PHI,
    all_forms,
    classify,
    coefficients,
    compare_with_fixture,
    derive_formula,
    genfun,
    load_fixture,
    phi_eta_quotient,
    rep_count_formula,
    rep_counts_bruteforce,
)
from qformlab import qseries, quadforms, spaces
from qformlab.characters import sigma_twisted
from qformlab.spaces import SPACE_DISCRIMINANTS


def test_phi_is_the_theta_series():
    from qformlab.qseries import eta_quotient_expansion

    f = eta_quotient_expansion(PHI, 26)
    squares = {n * n for n in range(6)}
    for n in range(26):
        assert f.qcoeff(n) == (2 if n in squares and n else 1 if n == 0 else 0)


def test_all_forms_enumeration():
    forms = all_forms()
    assert len(forms) == 84
    assert forms[0] == (6, 0, 0, 0)
    assert forms[-1] == (0, 0, 0, 6)
    assert all(sum(e) == 6 for e in forms)
    assert list(forms) == sorted(forms, reverse=True)
    assert len(set(forms)) == 84


def test_classify_buckets():
    buckets = {}
    for e in all_forms():
        buckets.setdefault(classify(e).discriminant, []).append(e)
    assert {d: len(v) for d, v in buckets.items()} == {
        -3: 20, -4: 24, -8: 20, -24: 20,
    }


def test_classify_examples():
    assert classify((6, 0, 0, 0)).discriminant == -4
    assert classify((0, 6, 0, 0)).discriminant == -4
    assert classify((5, 0, 1, 0)).discriminant == -3
    assert classify((0, 0, 0, 6)).discriminant == -4
    assert classify((1, 0, 0, 5)).discriminant == -24
    assert classify((0, 3, 1, 2)).discriminant == -24
    assert classify((1, 1, 0, 4)).discriminant == -8


def test_quadform_helpers():
    # a form is its exponent tuple; `coefficients` lists its six coefficients
    assert coefficients((2, 2, 1, 1)) == (1, 1, 2, 2, 3, 6)
    assert coefficients((0, 0, 0, 6)) == (6,) * 6
    for exps in all_forms():
        cs = coefficients(exps)
        assert list(cs) == sorted(cs)
        assert tuple(cs.count(d) for d in (1, 2, 3, 6)) == exps
    for bad in ((1, 1, 1, 1), (7, -1, 0, 0), (1, 1, 1, 1, 2), (6, 0, 0)):
        with pytest.raises(ValueError, match="four nonnegatives summing to 6"):
            coefficients(bad)


def test_phi_eta_quotient_is_modular():
    for exps in ((6, 0, 0, 0), (1, 2, 2, 1), (0, 0, 0, 6)):
        rep = ligozat_check(phi_eta_quotient(exps))
        assert rep.is_holomorphic
        assert rep.weight == 3
        assert rep.character == classify(exps)


def test_bruteforce_small_cases():
    # x^2+y^2+z^2+t^2+u^2+v^2
    counts = rep_counts_bruteforce((6, 0, 0, 0), 4)
    assert counts[0] == 1
    assert counts[1] == 12  # 6 positions, 2 signs
    assert counts[2] == 60  # choose 2 positions, 4 sign pairs -> 15*4
    assert counts[3] == 160
    assert counts[4] == 252


def test_bruteforce_respects_coefficients():
    # x^2 + 2y^2 + 3z^2 + 6t^2 + 6u^2 + 6v^2
    counts = rep_counts_bruteforce((1, 1, 1, 3), 3)
    assert counts[1] == 2  # x = +-1
    assert counts[2] == 2  # y = +-1
    assert counts[3] == 6  # x, y both +-1, or z = +-1
    with pytest.raises(ValueError, match="nmax must be nonnegative"):
        rep_counts_bruteforce((1, 1, 1, 3), -1)


def _all_signs_counts(form, nmax):
    """Reference oracle: every signed coordinate of Z^6 walked one by one."""
    cs = coefficients(form)
    counts = [0] * (nmax + 1)
    clast = cs[5]

    def rec(i, acc):
        c = cs[i]
        m = isqrt((nmax - acc) // c)
        if i == 4:
            for x in range(-m, m + 1):
                partial = acc + c * x * x
                top = isqrt((nmax - partial) // clast)
                for y in range(-top, top + 1):
                    counts[partial + clast * y * y] += 1
        else:
            for x in range(-m, m + 1):
                rec(i + 1, acc + c * x * x)

    rec(0, 0)
    return counts


def test_sign_orbits_match_the_all_signs_walk():
    for exps in all_forms():
        counts = rep_counts_bruteforce(exps, 16)
        reference = _all_signs_counts(exps, 16)
        assert sum(counts) == sum(reference), exps
        assert counts == reference, exps


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(st.sampled_from((1, 2, 3, 6)), min_size=6, max_size=6),
    nmax=st.integers(min_value=0, max_value=40),
)
def test_sign_orbits_match_the_all_signs_walk_drawn(coeffs, nmax):
    exps = tuple(coeffs.count(d) for d in (1, 2, 3, 6))
    counts = rep_counts_bruteforce(exps, nmax)
    reference = _all_signs_counts(exps, nmax)
    assert sum(counts) == sum(reference)
    assert counts == reference


def test_genfun_equals_bruteforce():
    for exps in ((6, 0, 0, 0), (2, 2, 1, 1), (0, 3, 1, 2)):
        g = genfun(exps, 21)
        counts = rep_counts_bruteforce(exps, 20)
        for n in range(21):
            assert g.qcoeff(n) == counts[n]


@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
def test_fixture_rows_shape(disc):
    rows = load_fixture(disc)
    expected = {-3: 20, -4: 24, -8: 20, -24: 20}[disc]
    ne = {-3: 8, -4: 8, -8: 4, -24: 4}[disc]
    assert len(rows) == expected
    for row in rows:
        assert classify(row.exponents).discriminant == disc
        assert len(row.eisenstein) == ne


def test_derive_formula_matches_fixture_row():
    row = derive_formula((6, 0, 0, 0), 13)
    fixture = {r.exponents: r for r in load_fixture(-4)}[(6, 0, 0, 0)]
    assert row.values() == fixture.values()


@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
def test_compare_with_fixture_clean(disc):
    comp = compare_with_fixture(disc)
    assert comp.rows == {-3: 20, -4: 24, -8: 20, -24: 20}[disc]
    assert not comp.mismatches
    assert not comp.undisputed_mismatches()


def test_disputed_cells_registry():
    # the flagged cell derives equal to the printed value anyway, so the
    # comparison must come back clean with the registry unused
    assert DISPUTED_CELLS == (((0, 3, 1, 2), 5),)


def test_formula_evaluates_exactly():
    row = derive_formula((6, 0, 0, 0), 13)
    counts = rep_counts_bruteforce((6, 0, 0, 0), 30)
    for n in range(1, 31):
        v = rep_count_formula(row, n)
        assert v.denominator == 1 and v == counts[n]


def test_formula_rejects_n0():
    row = derive_formula((6, 0, 0, 0), 13)
    with pytest.raises(ValueError):
        rep_count_formula(row, 0)


@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
def test_formula_reads_a_growing_cusp_cache(disc):
    # descending from a cold cache builds one expansion to q^400 and reads
    # it for every smaller n; ascending grows it one precision at a time
    exps = next(
        e for e in all_forms()
        if classify(e).discriminant == disc and any(derive_formula(e).cusp)
    )
    row = derive_formula(exps)
    theta = genfun(exps, 401)
    for ns in (range(400, 0, -1), range(1, 401)):
        spaces._EXPANSIONS.clear()
        for n in ns:
            assert rep_count_formula(row, n) == theta.qcoeff(n)
        ne = len(spaces.build_basis(disc).eisenstein)
        assert all(e.qprecision() == 401 for e in spaces._EXPANSIONS[disc][ne:])


@pytest.mark.parametrize("exps", [(6, 0, 0, 0), (5, 1, 0, 0), (0, 0, 1, 5)])
def test_formula_without_cusp_part_reads_no_expansion(exps):
    row = derive_formula(exps)
    assert not any(row.cusp)
    spaces._EXPANSIONS.clear()
    assert rep_count_formula(row, 500) == genfun(exps, 501).qcoeff(500)
    assert row.character.discriminant not in spaces._EXPANSIONS


def test_ascending_queries_equal_cold_single_queries(monkeypatch):
    # ascending n resumes the cached kernel coefficients and reads the
    # shared sigma table as it grows; a cold query rebuilds both
    row = derive_formula((1, 2, 2, 1))

    def cold_start():
        spaces._EXPANSIONS.clear()
        qseries._EULER_POW_CACHE.clear()
        monkeypatch.setattr(qseries, "_SIGMA", [0])

    want = []
    for n in range(1, 201):
        cold_start()
        want.append(rep_count_formula(row, n))
    cold_start()
    assert [rep_count_formula(row, n) for n in range(1, 201)] == want


def _fraction_formula(row, n):
    """Reference: the formula summed term by term in Fraction arithmetic."""
    basis = spaces.build_basis(row.character.discriminant)
    total = Fraction(0)
    for coeff, spec in zip(row.eisenstein, basis.eisenstein):
        if coeff and n % spec.t == 0:
            total += coeff * sigma_twisted(2, spec.chi, spec.psi, n // spec.t)
    if any(row.cusp):
        ne = len(basis.eisenstein)
        expansions = spaces.basis_expansions(row.character.discriminant, max(61, n + 1), "cusp")
        for coeff, series in zip(row.cusp, expansions[ne:]):
            if coeff:
                total += coeff * series.qcoeff(n)
    return total


def test_table_evaluation_matches_divisor_sum_reference():
    # below q^61 a query is one dot product with a row of the solver's
    # table; for all 84 derived rows it equals the reference sum of
    # twisted divisor sums and cusp coefficients and the theta series,
    # through the table's last row q^60 and past it at q^61 and q^62
    rows = _row_sets()["derived"]
    assert len(rows) == 84
    for row in rows:
        assert len(spaces.span_solver(row.character.discriminant).table) == 61
        theta = genfun(row.exponents, 63)
        for n in range(1, 63):
            value = rep_count_formula(row, n)
            assert value == _fraction_formula(row, n) == theta.qcoeff(n), (row.exponents, n)


def test_table_queries_call_no_divisor_sum_and_no_expansion(monkeypatch):
    # n < 61 reads the solver's table only; n >= 61 sums twisted divisor
    # sums and reads the cusp expansions grown to q^n
    row = derive_formula((1, 2, 2, 1))  # builds the solver of chi(-24)
    assert any(row.eisenstein) and any(row.cusp)
    small = (1, 24, 59, 60)
    want = [_fraction_formula(row, n) for n in small]
    calls = Counter()

    def counted(module, name):
        inner = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.update([name]) or inner(*a))

    counted(quadforms, "sigma_twisted")
    counted(quadforms, "basis_expansions")
    counted(spaces, "basis_expansions")
    assert [rep_count_formula(row, n) for n in small] == want
    assert not calls
    for n in (61, 62, 200):
        calls.clear()
        rep_count_formula(row, n)
        assert calls["sigma_twisted"] >= 1 and calls["basis_expansions"] == 1, (n, calls)


def _disputed_as_23rds(row):
    """The disputed row with its bare 4 read as 4/23, like its neighbours:
    no longer a theta series, so its values are not all integers."""
    col = DISPUTED_CELLS[0][1] - len(row.eisenstein)
    cusp = row.cusp[:col] + (row.cusp[col] / 23,) + row.cusp[col + 1:]
    return dataclasses.replace(row, cusp=cusp)


@cache
def _row_sets():
    """All 84 derived rows, and every fixture row plus the disputed row
    read as 23rds; built on first use, not at collection."""
    fixture = [row for d in SPACE_DISCRIMINANTS for row in load_fixture(d)]
    return {
        "derived": [derive_formula(e) for e in all_forms()],
        "fixture": fixture + [_disputed_as_23rds(_disputed_row())],
    }


def _disputed_row():
    exps = DISPUTED_CELLS[0][0]
    return next(r for r in load_fixture(classify(exps).discriminant) if r.exponents == exps)


@pytest.mark.parametrize("rows", ["derived", "fixture"])
def test_integer_evaluation_matches_fraction_reference(rows):
    for row in _row_sets()[rows]:
        for n in range(1, 121):
            value = rep_count_formula(row, n)
            assert type(value) is Fraction
            assert value == _fraction_formula(row, n), (row.exponents, n)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=1, max_value=2000))
def test_integer_evaluation_matches_fraction_reference_drawn(n):
    for rows in _row_sets().values():
        for row in rows:
            assert rep_count_formula(row, n) == _fraction_formula(row, n), (row.exponents, n)


def test_disputed_row_values():
    # the printed row equals the derived one, so its values are integers;
    # read as 4/23, the same cell gives non-integers on both paths
    printed = _disputed_row()
    assert printed == derive_formula(printed.exponents)
    assert all(rep_count_formula(printed, n).denominator == 1 for n in range(1, 121))
    altered = _disputed_as_23rds(printed)
    value = rep_count_formula(altered, 2)
    assert value.denominator == 23
    assert value == _fraction_formula(altered, 2)


@pytest.mark.parametrize("rows", ["derived", "fixture"])
def test_integer_view_is_the_least_common_denominator(rows):
    for row in _row_sets()[rows]:
        den, nums = row.integer_view
        values = row.values()
        assert den >= 1 and len(nums) == len(values)
        assert all(den * v == num and type(num) is int for v, num in zip(values, nums))
        # no proper divisor of den clears every denominator
        for p in range(2, den + 1):
            if den % p == 0 and all(p % q for q in range(2, isqrt(p) + 1)):
                assert any((den // p * v).denominator != 1 for v in values)


def test_integer_view_is_computed_once_per_row(monkeypatch):
    calls = []
    real = quadforms.common_denominator
    monkeypatch.setattr(quadforms, "common_denominator", lambda v: calls.append(v) or real(v))
    row = derive_formula((1, 2, 2, 1))
    view = row.integer_view
    for n in range(1, 30):
        rep_count_formula(row, n)
    assert row.integer_view is view
    assert len(calls) == 1


def test_evaluation_reads_only_the_integer_view_and_builds_one_fraction(monkeypatch):
    made = []
    monkeypatch.setattr(quadforms, "Fraction", lambda *a: made.append(a) or Fraction(*a))
    for row in (derive_formula((1, 2, 2, 1)), _disputed_row()):
        # values that fail on any arithmetic: only the cached view is read
        blank = dataclasses.replace(
            row, eisenstein=(None,) * len(row.eisenstein), cusp=(None,) * len(row.cusp)
        )
        blank.__dict__["integer_view"] = row.integer_view
        for n in (1, 24, 60, 200):
            made.clear()
            assert rep_count_formula(blank, n) == _fraction_formula(row, n)
            assert len(made) == 1
