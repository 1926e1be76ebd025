from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qformlab import qseries

from qformlab.qseries import (
    GRADE,
    QSeries,
    eta_expansion,
    eta_quotient_expansion,
    eta_unit_coeffs,
    euler_coeffs,
)
from qformlab.characters import chi
from qformlab.eisenstein import eisenstein3
from qformlab.etaq import EtaQuotient, parse_eta
from qformlab.etasearch import REMARK_IDENTITIES, remark_rhs
from qformlab.newforms import build_newform
from qformlab.quadforms import genfun
from qformlab.spaces import build_basis


def test_grade_convention():
    assert GRADE == 24
    f = QSeries([1, -3], 3)
    assert f.trunc == 3 * GRADE
    assert f.qcoeff(0) == 1
    assert f.qcoeff(1) == -3
    assert f.qcoeff(2) == 0


def test_euler_coeffs_pentagonal():
    # 1 - q - q^2 + q^5 + q^7 - q^12 - q^15 + ...
    got = euler_coeffs(16)
    assert got == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]


def test_eta_expansion_leading_terms():
    f = eta_expansion(1, 4)
    # eta = q^(1/24)(1 - q - q^2 + ...)
    assert f.coeff(1) == 1
    assert f.coeff(1 + GRADE) == -1
    assert f.coeff(1 + 2 * GRADE) == -1
    assert f.coeff(1 + 3 * GRADE) == 0


def naive_product(coeffs_a, coeffs_b, L):
    out = [0] * L
    for i, a in enumerate(coeffs_a):
        if a:
            for j, b in enumerate(coeffs_b):
                if b and i + j < L:
                    out[i + j] += a * b
    return out


def test_eta_cube_oracle():
    # eta(z)^3 = sum_{n>=0} (-1)^n (2n+1) q^((2n+1)^2/8) (Jacobi), and
    # (2n+1)^2/8 = 3/8 + n(n+1)/2: the cube's unit part is supported on
    # the triangular numbers
    eta = eta_expansion(1, 40)
    unit = [eta.coeff(1 + GRADE * i) for i in range(40)]
    cube = naive_product(naive_product(unit, unit, 40), unit, 40)
    expect = [0] * 40
    for n in range(9):
        expect[n * (n + 1) // 2] = (-1) ** n * (2 * n + 1)
    assert cube == expect


def _unit_inverse(a, L: int) -> list:
    """1/a mod q^L for an int list a with a[0] = 1."""
    out = [1] + [0] * (L - 1)
    for k in range(1, L):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1))
    return out


def _factor_product(f: EtaQuotient, L: int) -> list:
    """Unit coefficients of prod eta(delta z)^r_delta at q^0..q^(L-1),
    without the log-derivative kernel: each prod_n (1 - q^(delta n)) is
    the pentagonal series at stride delta, factors with r > 0 are
    multiplied into the numerator, the rest into the denominator, and
    the denominator is inverted once."""
    num, den = [1], [1]
    for d, r in f.items():
        factor = [0] * L
        factor[::d] = euler_coeffs((L + d - 1) // d)
        for _ in range(abs(r)):
            if r > 0:
                num = naive_product(factor, num, L)
            else:
                den = naive_product(factor, den, L)
    return naive_product(num, _unit_inverse(den, L), L)


@st.composite
def _level24_exponents(draw, budget=12):
    """Eight exponents in -4..4 with sum |r| <= budget, drawn directly:
    each entry ranges over -min(4, left)..min(4, left) for the budget
    left, so no draw is filtered away."""
    out = []
    for _ in range(8):
        bound = min(4, budget)
        r = draw(st.integers(min_value=-bound, max_value=bound))
        budget -= abs(r)
        out.append(r)
    return out


@given(
    _level24_exponents(),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=50, deadline=None)
def test_eta_quotient_expansion_matches_factor_product(exponents, L):
    f = EtaQuotient(24, tuple(exponents))
    val = f.valuation24()
    # q^0..q^(P-1) hold the L grade-24 exponents val, val + 24, ...
    precision = L + val // GRADE
    direct = eta_quotient_expansion(f, precision)
    assert direct.trunc == GRADE * precision
    assert [direct.coeff(val + GRADE * i) for i in range(L)] == _factor_product(f, L)


def _q_steps(g: QSeries) -> int:
    """q-steps val, val + 24, ... below the truncation."""
    return (g.trunc - g.val + GRADE - 1) // GRADE


@given(
    _level24_exponents(),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=50, deadline=None)
def test_eta_quotient_expansion_stores_one_coefficient_per_q_step(exponents, L):
    f = EtaQuotient(24, tuple(exponents))
    g = eta_quotient_expansion(f, L + f.valuation24() // GRADE)
    unit = eta_unit_coeffs(f.items(), L)
    assert len(g.coeffs) <= _q_steps(g) == L
    assert [g.coeff(f.valuation24() + GRADE * i) for i in range(L)] == unit


def test_eisenstein_series_store_one_coefficient_per_q_step():
    for disc in (-3, -4, -8, -24):
        for spec in build_basis(disc).eisenstein:
            e = eisenstein3(spec.chi, spec.psi, spec.t, 30)
            assert e.is_integer_q()
            assert len(e.coeffs) <= _q_steps(e) <= 30
            assert dict(e.terms()) == {
                GRADE * n: e.qcoeff(n) for n in range(30) if e.qcoeff(n)
            }


def test_qseries_is_a_container():
    # expansions are summed on coefficient lists; the series has no ring
    # operations, and defining __eq__ alone leaves it unhashable
    for name in ("__add__", "scale", "__mul__", "inverse", "__pow__",
                 "agrees_with", "constant", "is_zero", "__hash__"):
        assert not callable(vars(QSeries).get(name)), name
    with pytest.raises(TypeError):
        hash(QSeries.zero(1))


def test_qcoeffs_is_qcoeff_read_as_one_list():
    # the bulk reader against per-coefficient reads for every shape of
    # series, at every stop up to its precision, and refused past it
    series = [
        QSeries([0, 0, 5, -1, 0, 2], 9),  # order 2: stored from q^2 on
        eta_quotient_expansion(parse_eta("eta24[0,3,0,-4,-5,2,16,-6]"), 20),  # order 1
        QSeries([1, 2, 3, 4], 5, -2 * GRADE),  # a pole of order 2
        eta_quotient_expansion(parse_eta("eta1[1]"), 20),  # order 1/24: no integral power
        QSeries.zero(7),
        QSeries([1, 2, 0, 0, 0], 5),  # trailing zeros stripped
    ]
    assert series[0].val == 2 * GRADE
    assert series[-1].coeffs == (1, 2)
    for s in series:
        P = s.qprecision()
        for stop in range(P + 1):
            assert s.qcoeffs(stop) == [s.qcoeff(n) for n in range(stop)], (s, stop)
        with pytest.raises(IndexError):
            s.qcoeffs(P + 1)
        with pytest.raises(IndexError):
            s.qcoeff(P)


@pytest.mark.parametrize("P", [1, 13, 61, 100])
def test_every_series_is_known_below_q_to_its_precision(P):
    # one precision unit: every constructor and expansion takes the
    # number of known powers of q, whatever the order of the series
    series = [
        eta_quotient_expansion(parse_eta("eta4[-2,5,-2]"), P),  # order 0, the theta series
        eta_quotient_expansion(parse_eta("eta1[1]"), P),  # order 1/24
        eta_quotient_expansion(parse_eta("eta2[1,-1]"), P),  # order -1/24
        eta_expansion(1, P),
        eisenstein3(chi(-4), chi(1), 1, P),
        genfun((1, 2, 2, 1), P),
        build_newform("f1", P),
        remark_rhs(REMARK_IDENTITIES[0], P),
        QSeries.zero(P),
        QSeries([1] * P, P),
    ]
    for s in series:
        assert s.qprecision() == P
        assert s.trunc == GRADE * P
    # the old argument order (val, coeffs, trunc) is refused, not read
    # as 24 times as many known coefficients
    with pytest.raises(TypeError):
        QSeries(0, [1], 24)
    assert not hasattr(QSeries, "from_terms")
    assert not hasattr(QSeries, "truncated")


def test_truncated_matches_a_shorter_expansion():
    f = EtaQuotient(24, (2, 1, 0, 0, 0, 0, 0, -1))  # order -20/24 at infinity
    qseries._EULER_POW_CACHE.clear()
    full = eta_quotient_expansion(f, 40)
    for precision in (0, 1, 5, 17, 40):
        qseries._EULER_POW_CACHE.clear()
        short = eta_quotient_expansion(f, precision)
        assert short.val == full.val == f.valuation24()
        assert short.trunc == GRADE * precision
        assert _q_steps(short) == precision + 1  # q^(-20/24) .. q^(precision - 20/24)
        assert short.coeffs == full.coeffs[: len(short.coeffs)]
    assert eta_quotient_expansion(f, -1) == QSeries.zero(-1)


def test_eta_quotient_expansion_known_cusp_form():
    f = EtaQuotient(24, (0, 3, 0, -4, -5, 2, 16, -6))
    direct = eta_quotient_expansion(f, 8)
    assert [direct.qcoeff(n) for n in range(1, 8)] == _factor_product(f, 7)


def test_eta_unit_coeffs_resumes_exactly():
    items = ((1, 3), (2, -2), (6, 5), (24, -1))
    qseries._EULER_POW_CACHE.clear()
    eta_unit_coeffs(items, 17)
    resumed = eta_unit_coeffs(items, 90)
    qseries._EULER_POW_CACHE.clear()
    assert resumed == eta_unit_coeffs(items, 90)
    assert eta_unit_coeffs(items, 17) == resumed[:17]


def test_eta_unit_coeffs_returns_a_copy():
    items = ((3, 2), (4, -1))
    first = eta_unit_coeffs(items, 30)
    want = list(first)
    first[5] += 99
    first.append(7)
    assert eta_unit_coeffs(items, 30) == want
    assert eta_unit_coeffs(items, 40)[:30] == want


def test_extend_grows_caller_lists_outside_the_cache():
    # the growth step behind eta_unit_coeffs, on lists the caller owns:
    # stepwise growth, across a blocked step, gives the cached answer and
    # leaves the cache alone
    key = ((1, 3), (2, -2), (6, 5), (24, -1))
    qseries._EULER_POW_CACHE.clear()
    a, g = [1], [0]
    for L in (1, 6, 13, 61, 61 + qseries._BLOCK + 1):
        qseries._extend(key, a, g, L)
        assert len(a) == len(g) == L
    assert not qseries._EULER_POW_CACHE
    assert a == eta_unit_coeffs(key, len(a))


def test_eta_unit_coeffs_cache_is_bounded():
    qseries._EULER_POW_CACHE.clear()
    for r in range(1, 3 * qseries._EULER_POW_CACHE_SIZE):
        eta_unit_coeffs(((1, r), (2, -1)), 8)
        assert len(qseries._EULER_POW_CACHE) <= qseries._EULER_POW_CACHE_SIZE
    assert len(qseries._EULER_POW_CACHE) == qseries._EULER_POW_CACHE_SIZE


@given(
    _level24_exponents(),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=400),
)
@example([0, 3, 0, -4, -5, 2, 16, -6], qseries._BLOCK + 1, 1)
@example([0, 3, 0, -4, -5, 2, 16, -6], 2 * qseries._BLOCK + 2, 13)
@example([4, -4, 4, 0, 0, 0, 0, 0], 400, 61)
@settings(max_examples=40, deadline=None)
def test_eta_unit_coeffs_matches_factor_product_fresh_and_resumed(exponents, x, y):
    # growth past one block is summed in packed products, shorter growth
    # term by term; a resume adds the cached prefix with one more product
    m, L = sorted((x, y))
    f = EtaQuotient(24, tuple(exponents))
    want = _factor_product(f, L)
    qseries._EULER_POW_CACHE.clear()
    assert eta_unit_coeffs(f.items(), L) == want
    qseries._EULER_POW_CACHE.clear()
    assert eta_unit_coeffs(f.items(), m) == want[:m]
    assert eta_unit_coeffs(f.items(), L) == want


@given(_level24_exponents(), st.integers(min_value=1, max_value=300))
@settings(max_examples=25, deadline=None)
def test_eta_unit_coeffs_grows_by_one_block_and_one_more(exponents, m):
    f = EtaQuotient(24, tuple(exponents))
    want = _factor_product(f, m + qseries._BLOCK + 1)
    for grow in (qseries._BLOCK, qseries._BLOCK + 1):
        qseries._EULER_POW_CACHE.clear()
        assert eta_unit_coeffs(f.items(), m) == want[:m]
        assert eta_unit_coeffs(f.items(), m + grow) == want[: m + grow]


@pytest.mark.parametrize("k", [1, 5, 61, 65, 201])
def test_packed_product_is_exact_at_the_slot_bound(k):
    # 63 entries of bit length k, one sign per list: the coefficient at
    # q^62 is 63 (2^k - 1)^2 in size, past 2^(2k + 5), so for these k a
    # slot one bit narrower than the bound (2k + 6 bits, whole bytes)
    # would overflow
    top = (1 << k) - 1
    for xs, ys in (([top] * 63, [-top] * 63), ([-top] * 63, [-top] * 63)):
        want = naive_product(xs, ys, 63)
        assert qseries._mul_low(xs, ys, 0, 63) == want
        assert qseries._mul_low(xs, ys, 40, 63) == want[40:]


@pytest.mark.parametrize("L", [300, 400])
def test_eta_unit_coeffs_wide_slots(L):
    # 1/eta(z)^24 has coefficients past 2^64 by q^300, so its packed
    # products need slots wider than 64 bits
    f = EtaQuotient(1, (-24,))
    qseries._EULER_POW_CACHE.clear()
    got = eta_unit_coeffs(f.items(), L)
    assert max(map(abs, got)).bit_length() > 64
    assert got == _factor_product(f, L)


def test_eta_unit_coeffs_checks_every_division():
    # (1 - q)^(1/2) = 1 - q/2 - ...: the q^1 step divides -1/2 by 1
    for L in (3, 200):
        with pytest.raises(ArithmeticError, match=r"q\^1\b"):
            eta_unit_coeffs(((1, Fraction(1, 2)),), L)
    # eta(97z)^(1/2) first shows at q^97, after a blocked growth to q^96
    with pytest.raises(ArithmeticError, match=r"q\^97\b"):
        eta_unit_coeffs(((1, 2), (97, Fraction(1, 2))), 200)
    # a wrong cached g_99 meets a_1 = -1 at q^100, the first coefficient
    # of a blocked resume, whose division must be checked as well
    items = ((1, 1),)
    qseries._EULER_POW_CACHE.clear()
    eta_unit_coeffs(items, 100)
    qseries._EULER_POW_CACHE[items][1][99] += 1
    with pytest.raises(ArithmeticError, match=r"q\^100\b"):
        eta_unit_coeffs(items, 300)


def test_eta_quotient_valuation():
    f = EtaQuotient(24, (0, 3, 0, -4, -5, 2, 16, -6))
    g = eta_quotient_expansion(f, 3)
    assert g.val == sum(d * r for d, r in f.items())
    assert g.val == GRADE  # this one is a cusp form starting at q^1
    assert g.qcoeff(1) == 1


def test_precision_at_or_below_the_order_gives_the_zero_series():
    # nothing below q^P is nonzero, so a cusp element known below q^1
    # (the basis read of build_newform(name, 1)) is the zero series
    f = EtaQuotient(1, (2,))  # order 2/24
    assert eta_quotient_expansion(f, 0) == QSeries.zero(0)
    assert eta_quotient_expansion(f, 1).coeffs == (1,)
    assert eta_expansion(1, 0) == QSeries.zero(0)
    g = EtaQuotient(24, (0, 3, 0, -4, -5, 2, 16, -6))  # order 1
    assert eta_quotient_expansion(g, 1) == QSeries.zero(1)
    assert eta_quotient_expansion(g, 2).coeffs == (1,)
