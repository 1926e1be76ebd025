import hashlib
from fractions import Fraction

import pytest

from qformlab import spaces
from qformlab.arith import ExactMatrix, format_rational, minimal_polynomial
from qformlab.characters import chi
from qformlab.newforms import (
    K1,
    K2,
    K3,
    NEWFORMS,
    _charpoly,
    _hecke_matrix,
    _hecke_report,
    _peel_rational_roots,
    _squarefree_factor,
    _synthetic_divide,
    build_newform,
    check_eigenform,
    f1_reference,
    get_spec,
    rederive_newform,
    solve_back_f1,
)

from qformlab.quadforms import derive_formula, rep_count_formula

NAMES = tuple(s.name for s in NEWFORMS)


def test_roster():
    assert NAMES == ("f1", "f2", "f3", "f4", "f5")
    assert get_spec("f1").discriminant == -3
    assert get_spec("f2").discriminant == -8
    for n in ("f3", "f4", "f5"):
        assert get_spec(n).discriminant == -24
    with pytest.raises(ValueError):
        get_spec("f6")


def test_fields():
    # constant coefficient first
    assert K1.poly == (9, -2, 1)
    assert K2.poly == (16, -8, 6, -2, 1)
    assert K3.poly == (16, 0, 6, 0, 1)


def test_f1_matches_reference():
    f = build_newform("f1", 10)
    ref = f1_reference(10)
    for n in range(10):
        assert f.qcoeff(n) == ref.qcoeff(n)


def test_f1_known_coefficients():
    f = build_newform("f1", 50)
    a = K1.generator()
    assert f.qcoeff(1) == 1
    assert f.qcoeff(3) == a
    assert f.qcoeff(5) == -2 * a + 2
    assert f.qcoeff(7) == -6
    assert f.qcoeff(49) == -13  # a(7)^2 - chi(7) 49 = 36 - 49
    for n in range(0, 50, 2):
        assert f.qcoeff(n) == 0


def test_solve_back_f1():
    a = K1.generator()
    assert solve_back_f1() == (1, 0, a + 3, 4)


@pytest.mark.parametrize("name", NAMES)
def test_normalized(name):
    f = build_newform(name, 8)
    assert f.qcoeff(0) == 0
    assert f.qcoeff(1) == 1


@pytest.mark.parametrize("name", NAMES)
def test_hecke_eigenform(name):
    rep = check_eigenform(name)
    assert rep.a1_ok
    assert rep.multiplicative_failures == ()
    assert rep.hecke_p2_ok
    assert rep.ok
    assert rep.pairs_checked > 90


def test_rational_forms_have_integer_coefficients():
    for name in ("f3", "f4"):
        f = build_newform(name, 60)
        for n in range(60):
            c = f.qcoeff(n)
            assert Fraction(c).denominator == 1


def test_prime_square_recurrence_explicit():
    # a(25) = a(5)^2 - chi(5) * 25 for each form's own character
    for name, disc in (("f1", -3), ("f2", -8), ("f3", -24)):
        f = build_newform(name, 30)
        assert f.qcoeff(25) == f.qcoeff(5) ** 2 - chi(disc)(5) * 25


def test_charpoly_diagonal():
    m = ExactMatrix.from_rows([[2, 0], [0, 3]])
    assert tuple(_charpoly(m)) == (6, -5, 1)


def test_synthetic_divide():
    assert _synthetic_divide((2, -3, 1), 1) == [-2, 1]
    assert _synthetic_divide((-8, 0, 0, 1), 2) == [4, 2, 1]
    with pytest.raises(ValueError):
        _synthetic_divide((1, 1), 3)


def test_peel_rational_roots():
    # (x - 1)^2 (x^2 + 1) = x^4 - 2x^3 + 2x^2 - 2x + 1
    roots, rest = _peel_rational_roots((1, -2, 2, -2, 1))
    assert sorted(roots) == [1, 1]
    assert rest == (1, 0, 1)
    roots, rest = _peel_rational_roots((0, -4, 0, 1))  # x(x-2)(x+2)
    assert sorted(roots) == [-2, 0, 2]
    assert rest == (1,)


def test_squarefree_factor():
    # (x^2 - 2)^2
    assert _squarefree_factor((4, 0, -4, 0, 1)) == (-2, 0, 1)
    assert _squarefree_factor((-2, 0, 1)) == (-2, 0, 1)


# SHA-256 of the T_5, T_7, T_11 and T_13 matrices of each cusp space, one
# line "T_p entries..." per prime, recorded before the Hecke images were
# solved through the shared per-space solver
HECKE_SHA256 = {
    -3: "41c05f0e3245f06d22b80c62a15f325433e7050f90ed9cd9a3a063921ffcb192",
    -4: "2f70f32d16588292017add1ef0e4dbbe6e1c8c2d8502af920ff59f69ed903edc",
    -8: "226ed9da13e55a5302c054d5da8c27fcd8862ef41505407d16a99454ddc1ee2f",
    -24: "4baf847a7ec821fc6c535d3a97f6aab7ffe0f801e06b55521c455ed830f9eaf9",
}


@pytest.mark.parametrize("disc", sorted(HECKE_SHA256))
def test_hecke_matrices_match_recorded_digests(disc):
    text = "\n".join(
        "T_%d %s" % (p, " ".join(format_rational(x) for x in _hecke_matrix(disc, p).entries))
        for p in (5, 7, 11, 13)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == HECKE_SHA256[disc]


@pytest.mark.parametrize("name", ("f1", "f2", "f5"))
def test_rederive_field_newforms(name):
    red = rederive_newform(name)
    assert red.ok
    assert red.operator
    assert red.minpoly_match
    assert red.field_poly == red.printed_minpoly
    assert red.report is not None and red.report.ok


def test_rederive_f5_needs_summed_operator():
    red = rederive_newform("f5")
    assert len(red.operator) == 2  # no single T_p separates the orbit
    assert red.field_poly == (20736, 0, 160, 0, 1)


def test_rederive_rejects_rational_forms():
    with pytest.raises(ValueError):
        rederive_newform("f3")


def test_rederive_f1_eigenvalue_field():
    # T_5 eigenvalue -2a+2 with a^2 - 2a + 9 = 0 has minimal polynomial x^2 + 32
    red = rederive_newform("f1")
    assert red.operator == (5,)
    assert red.field_poly == (32, 0, 1)
    assert minimal_polynomial(-2 * K1.generator() + 2) == (32, 0, 1)


def test_build_newform_ignores_a_longer_cusp_cache():
    spaces._CUSP.clear()
    before = build_newform("f1", 120)
    row = derive_formula((0, 3, 0, 3))  # a chi(-3) form
    assert row.character == chi(-3)
    rep_count_formula(row, 399)
    assert spaces._CUSP[-3][0].qprecision() == 400
    after = build_newform("f1", 120)
    assert after.trunc == before.trunc == 120 * 24
    assert after == before


def test_hecke_report_names_a_broken_coefficient():
    precision = 60
    f = build_newform("f3", precision)
    a = [f.qcoeff(n) for n in range(precision)]
    assert _hecke_report("f3", a, chi(-24), precision).ok
    a[6] += 1
    rep = _hecke_report("f3", a, chi(-24), precision)
    assert not rep.ok
    assert (2, 3) in rep.multiplicative_failures
    # every named pair reads a(6): as the product or as a factor
    for m, n in rep.multiplicative_failures:
        assert m * n == 6 or 6 in (m, n)
    assert rep.a1_ok
    assert rep.hecke_p2_ok == ((5, True), (7, True))


def test_rederive_below_q49_checks_only_the_p5_relation():
    red = rederive_newform("f1", precision=30)
    assert red.ok
    assert red.report.hecke_p2_ok == ((5, True),)
