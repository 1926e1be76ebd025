from fractions import Fraction

import pytest

from qformlab.etaq import ligozat_check
from qformlab.quadforms import (
    DISPUTED_CELLS,
    PHI,
    QuadForm,
    all_forms,
    classify,
    compare_with_fixture,
    derive_formula,
    genfun,
    load_fixture,
    phi_eta_quotient,
    rep_count_bruteforce,
    rep_count_formula,
    rep_counts_bruteforce,
)
from qformlab import qseries, spaces
from qformlab.spaces import SPACE_DISCRIMINANTS


def test_phi_is_the_theta_series():
    from qformlab.qseries import GRADE, eta_quotient_expansion

    f = eta_quotient_expansion(PHI, 26 * GRADE)
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
    form = QuadForm.from_coefficients((1, 1, 2, 2, 3, 6))
    assert form.exponents == (2, 2, 1, 1)
    assert form.coefficients == (1, 1, 2, 2, 3, 6)
    assert form.character().discriminant == classify((2, 2, 1, 1)).discriminant
    with pytest.raises(ValueError):
        QuadForm.from_coefficients((1, 1, 1, 1, 1, 4))
    with pytest.raises(ValueError):
        QuadForm.from_coefficients((1, 1, 1, 1, 1))


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
    assert rep_count_bruteforce((6, 0, 0, 0), 4) == 252


def test_bruteforce_respects_coefficients():
    # x^2 + 2y^2 + 3z^2 + 6t^2 + 6u^2 + 6v^2
    form = (1, 1, 1, 3)
    assert rep_count_bruteforce(form, 1) == 2  # x = +-1
    assert rep_count_bruteforce(form, 2) == 2  # y = +-1
    assert rep_count_bruteforce(form, 3) == 6  # x, y both +-1, or z = +-1
    with pytest.raises(ValueError):
        rep_count_bruteforce(form, -1)


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
    assert comp.clean
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
    exps = next(e for e in all_forms() if classify(e).discriminant == disc)
    row = derive_formula(exps)
    theta = genfun(exps, 401)
    for ns in (range(400, 0, -1), range(1, 401)):
        spaces._CUSP.clear()
        for n in ns:
            assert rep_count_formula(row, n) == theta.qcoeff(n)
        assert spaces._CUSP[disc][0].qprecision() == 401


def test_ascending_queries_equal_cold_single_queries(monkeypatch):
    # ascending n resumes the cached kernel coefficients and reads the
    # shared sigma table as it grows; a cold query rebuilds both
    row = derive_formula((1, 2, 2, 1))

    def cold_start():
        spaces._CUSP.clear()
        qseries._EULER_POW_CACHE.clear()
        monkeypatch.setattr(qseries, "_SIGMA", [0])

    want = []
    for n in range(1, 201):
        cold_start()
        want.append(rep_count_formula(row, n))
    cold_start()
    assert [rep_count_formula(row, n) for n in range(1, 201)] == want
