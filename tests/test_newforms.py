import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qformlab import newforms, spaces
from qformlab.arith import UNIQUE, ExactMatrix, format_rational, minimal_polynomial
from qformlab.characters import chi
from qformlab.newforms import (
    K1,
    K2,
    K3,
    NEWFORMS,
    _combine,
    _cusp_expansions,
    _hecke_matrix,
    _hecke_report,
    _peel_rational_roots,
    build_newform,
    check_eigenform,
    f1_reference,
    get_spec,
    rederive_newform,
    solve_back_f1,
)

from qformlab.qseries import QSeries
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
    ref = f1_reference()
    assert len(ref) == 10
    for n, c in enumerate(ref):
        assert f.qcoeff(n) == c


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


def test_peel_rational_roots():
    # (x - 1)^2 (x^2 + 1) = x^4 - 2x^3 + 2x^2 - 2x + 1
    roots, rest = _peel_rational_roots((1, -2, 2, -2, 1))
    assert sorted(roots) == [1, 1]
    assert rest == (1, 0, 1)
    roots, rest = _peel_rational_roots((0, -4, 0, 1))  # x(x-2)(x+2)
    assert sorted(roots) == [-2, 0, 2]
    assert rest == (1,)


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


@pytest.mark.parametrize("disc", spaces.SPACE_DISCRIMINANTS)
def test_hecke_matrix_matches_a_cusp_column_solve(disc):
    # the construction the space's one solver replaced: every T_p image
    # solved by solve_linear on the cusp columns alone, on q^1..q^12
    rows = range(1, spaces.sturm_bound() + 1)
    for p in (5, 7, 11, 13):
        basis, cusp = _cusp_expansions(disc, p * spaces.sturm_bound() + 1)
        reference = ExactMatrix.from_rows([[e.qcoeff(n) for e in cusp] for n in rows])
        columns = []
        for e in cusp:
            image = [
                e.qcoeff(p * n) + (basis.character(p) * p * p * e.qcoeff(n // p) if n % p == 0 else 0)
                for n in rows
            ]
            status, sol = reference.solve_linear(image)
            assert status == UNIQUE
            columns.append(sol)
        want = [col[i] for i in range(len(cusp)) for col in columns]
        assert _hecke_matrix(disc, p).entries == want, p


def test_hecke_matrix_rejects_an_image_with_an_eisenstein_part(monkeypatch):
    # an Eisenstein series in place of a cusp element: its T_5 image is
    # in the space, with a nonzero Eisenstein coordinate
    inner = newforms._cusp_expansions

    def swapped(disc, precision):
        basis, cusp = inner(disc, precision)
        eis = spaces.basis_expansions(disc, precision)[0]
        return basis, (eis,) + cusp[1:]

    monkeypatch.setattr(newforms, "_cusp_expansions", swapped)
    with pytest.raises(ValueError, match="left the cusp span"):
        _hecke_matrix(-3, 5)


# minimal polynomial of T_p on each cusp space, ascending: the squarefree
# part of its characteristic polynomial, recorded before the minimal
# polynomial was read off the matrix
HECKE_MINPOLYS = {
    -3: {5: (0, 32, 0, 1), 7: (-12, 4, 1), 11: (0, 32, 0, 1), 13: (-220, 12, 1)},
    -4: {5: (2, 1), 7: (48, 0, 1), 11: (48, 0, 1), 13: (-2, 1)},
    -8: {
        5: (0, 528, 0, 72, 0, 1),
        7: (0, 528, 0, 120, 0, 1),
        11: (-112, -6, 1),
        13: (0, 33792, 0, 384, 0, 1),
    },
    -24: {5: (128, 0, -36, 0, 1), 7: (-40, 6, 1), 11: (7200, 0, -172, 0, 1), 13: (0, 112, 0, 1)},
}


@pytest.mark.parametrize("disc", sorted(HECKE_MINPOLYS))
def test_hecke_minimal_polynomials_are_squarefree_charpoly_parts(disc):
    for p, poly in HECKE_MINPOLYS[disc].items():
        assert minimal_polynomial(_hecke_matrix(disc, p)) == poly, p


@pytest.mark.parametrize("name", ("f1", "f2", "f5"))
def test_rederive_field_newforms(name):
    red = rederive_newform(name)
    assert red.ok
    assert red.operator
    assert red.minpoly_match
    assert red.field_poly == red.printed_minpoly
    assert red.report is not None and red.report.ok
    # never a float: perfbench digests str(c) of every entry
    assert all(type(c) is Fraction for c in red.field_poly + red.printed_minpoly)


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
    spaces._EXPANSIONS.clear()
    before = build_newform("f1", 120)
    row = derive_formula((0, 3, 0, 3))  # a chi(-3) form
    assert row.character == chi(-3)
    rep_count_formula(row, 399)
    ne = len(spaces.build_basis(-3).eisenstein)
    assert all(e.qprecision() == 400 for e in spaces._EXPANSIONS[-3][ne:])
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


_SPACE_FIELDS = ((-3, K1), (-8, K2), (-24, K3))


@st.composite
def _combinations(draw):
    """(scalars, cusp series, precision): rational or K1/K2/K3 scalars,
    some zero, or, when drawn, two nonzero scalars whose terms cancel at
    one q^n."""
    disc, field = draw(st.sampled_from(_SPACE_FIELDS))
    if draw(st.booleans()):
        field = None
    # precision 1 lies below every cusp valuation; the series are passed
    # either cut to the precision or known further
    precision = draw(st.integers(min_value=1, max_value=40))
    _, cusp = _cusp_expansions(disc, 41)
    if draw(st.booleans()):
        cusp = tuple(QSeries([s.qcoeff(n) for n in range(precision)], precision) for s in cusp)
    coordinate = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    scalars = []
    for _ in cusp:
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            scalars.append(Fraction(0) if field is None else field.zero())
        elif field is None:
            scalars.append(draw(coordinate))
        else:
            scalars.append(field.element(draw(st.lists(coordinate, min_size=field.degree, max_size=field.degree))))
    if draw(st.booleans()):
        # keep two scalars, the second chosen so that the sum vanishes at q^n
        n = draw(st.integers(min_value=1, max_value=precision))
        i, j = draw(st.permutations(range(len(cusp))))[:2]
        if n < precision and cusp[i].qcoeff(n) and cusp[j].qcoeff(n):
            x = scalars[i] or 1 + scalars[i]
            scalars = [0 * x] * len(cusp)
            scalars[i] = x
            scalars[j] = -x * Fraction(cusp[i].qcoeff(n), cusp[j].qcoeff(n))
    return scalars, cusp, precision


def _summed(scalars, cusp, precision: int) -> QSeries:
    """sum(scalars * cusp series) coefficient by coefficient over qcoeff:
    the nonzero products added in order, a cancelled sum kept as the int 0."""
    out = []
    for n in range(precision):
        acc = 0
        for x, s in zip(scalars, cusp):
            term = x * s.qcoeff(n)
            if term:
                acc = acc + term or 0
        out.append(acc)
    return QSeries(out, precision)


@given(_combinations())
@settings(max_examples=60, deadline=None)
def test_combine_matches_scaled_series_sum(combination):
    scalars, cusp, precision = combination
    want = _summed(scalars, cusp, precision)
    got = _combine(scalars, cusp, precision)
    assert got == want
    assert all(got.qcoeff(n) == want.qcoeff(n) for n in range(precision))


def test_combine_refuses_series_known_less_far():
    # f3 from series known through q^19 has true coefficients 8, -30, 20,
    # ... at q^20..q^29; they must not read as zeros
    spec = get_spec("f3")
    _, cusp = _cusp_expansions(-24, 30)
    short = [QSeries(s.qcoeffs(20), 20) for s in cusp]
    assert _combine(spec.scalars(), short, 20) == build_newform("f3", 20)
    assert build_newform("f3", 30).qcoeffs(30)[20:23] == [8, -30, 20]
    with pytest.raises(IndexError):
        _combine(spec.scalars(), short, 30)


def test_sums_store_a_cancelled_coefficient_as_int_zero():
    # f3 term by term through q^250, forward and reversed: equal values
    # must print the same whatever the order of the summands
    spec = get_spec("f3")
    _, cusp = _cusp_expansions(-24, 251)
    forward = _summed(spec.scalars(), cusp, 251)
    backward = _summed(spec.scalars()[::-1], cusp[::-1], 251)
    built = build_newform("f3", 251)
    assert forward == backward == built
    assert repr(forward.coeffs) == repr(backward.coeffs) == repr(built.coeffs)
