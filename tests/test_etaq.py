from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from qformlab.etaq import (
    Cusp,
    EtaQuotient,
    character_of,
    cusp_order,
    divisors,
    ligozat_check,
    parse_eta,
)


def test_divisors():
    assert divisors(24) == (1, 2, 3, 4, 6, 8, 12, 24)
    assert divisors(1) == (1,)
    with pytest.raises(ValueError):
        divisors(0)


def test_constructor_from_dict_and_sequence():
    a = EtaQuotient(24, {1: -3, 3: 9})
    b = EtaQuotient(24, (-3, 0, 9, 0, 0, 0, 0, 0))
    assert a == b
    assert a.exponents == (-3, 0, 9, 0, 0, 0, 0, 0)
    assert hash(a) == hash(b)


def test_constructor_rejects_bad_divisor():
    with pytest.raises(ValueError):
        EtaQuotient(24, {5: 1})
    with pytest.raises(ValueError):
        EtaQuotient(24, (1, 2, 3))


def test_weight():
    assert EtaQuotient(4, (-2, 5, -2)).weight == Fraction(1, 2)
    assert EtaQuotient(24, (0, 3, 0, -4, -5, 2, 16, -6)).weight == 3


def test_label_round_trip():
    for text in ("eta24[0,3,0,-4,-5,2,16,-6]", "eta4[-2,5,-2]", "eta1[24]"):
        assert parse_eta(text).label() == text


def test_parse_rejects_junk():
    for text in ("eta24", "eta24[]", "phi[1]", "eta6[1,2]"):
        with pytest.raises(ValueError):
            parse_eta(text)


def test_lifted():
    f = parse_eta("eta3[-3,9]")
    g = f.lifted(24)
    assert g.level == 24
    assert g.exponents == (-3, 0, 9, 0, 0, 0, 0, 0)
    assert g.weight == f.weight
    with pytest.raises(ValueError):
        f.lifted(10)


def test_cusp_representatives():
    reps = Cusp.representatives(24)
    assert tuple(c.denominator for c in reps) == divisors(24)
    assert str(reps[3]) == "1/4"
    with pytest.raises(ValueError):
        Cusp(5, 24)


def test_cusp_order_single_eta_factors():
    f = EtaQuotient(24, {1: 1})
    assert cusp_order(f, 1) == 1
    assert cusp_order(f, 24) == Fraction(1, 24)
    g = EtaQuotient(24, {24: 1})
    assert cusp_order(g, 1) == Fraction(1, 24)
    assert cusp_order(g, 24) == 1
    # c = 4, delta = 24: (24 / (24 gcd(16,24))) * gcd(24,4)^2 / 24
    assert cusp_order(g, Cusp(4, 24)) == Fraction(1, 12)


def test_cusp_order_additive_in_exponents():
    a = EtaQuotient(24, (1, 0, 2, 0, 0, -1, 3, 1))
    b = EtaQuotient(24, (0, 2, -1, 1, 0, 0, 0, 4))
    both = EtaQuotient(24, tuple(x + y for x, y in zip(a.exponents, b.exponents)))
    for c in divisors(24):
        assert cusp_order(both, c) == cusp_order(a, c) + cusp_order(b, c)


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=8, max_size=8))
def test_weight3_cusp_orders_sum_to_12(exps):
    f = EtaQuotient(24, exps)
    total = sum(cusp_order(f, c) for c in divisors(24))
    assert total == Fraction(sum(exps), 2) * 4  # = 12 exactly when weight is 3


@st.composite
def quotients(draw):
    """A random level N <= 72 with one random exponent per divisor."""
    level = draw(st.integers(min_value=1, max_value=72))
    size = len(divisors(level))
    exps = draw(st.lists(st.integers(min_value=-40, max_value=40), min_size=size, max_size=size))
    return EtaQuotient(level, exps)


@given(quotients())
def test_cusp_order_matches_textbook_formula(f):
    n = f.level
    for c in divisors(n):
        ref = Fraction(n, 24 * gcd(c * c, n)) * sum(
            (Fraction(gcd(d, c) ** 2 * r, d) for d, r in f.items()), Fraction(0)
        )
        assert cusp_order(f, c) == ref
        assert cusp_order(f, Cusp(c, n)) == ref


def test_character_of_examples():
    # squarefree part of prod delta^r picks the discriminant
    assert character_of(EtaQuotient(24, (0, 3, 0, -4, -5, 2, 16, -6))).discriminant == -3
    assert character_of(EtaQuotient(24, {1: 6})).discriminant == -4
    assert character_of(EtaQuotient(24, {1: 5, 2: 1})).discriminant == -8
    assert character_of(EtaQuotient(24, {1: 5, 6: 1})).discriminant == -24
    assert character_of(EtaQuotient(24, {1: 3, 3: 3})).discriminant == -3
    # even weight: squarefree part 2 lands on chi(8)
    assert character_of(EtaQuotient(24, {1: 1, 2: 3})).discriminant == 8


def test_character_needs_integral_weight():
    with pytest.raises(ValueError):
        character_of(EtaQuotient(4, (-2, 5, -2)))


def test_ligozat_check_on_member():
    rep = ligozat_check(EtaQuotient(24, (0, 3, 0, -4, -5, 2, 16, -6)))
    assert rep.weight == 3
    assert rep.is_holomorphic and rep.is_cuspidal
    assert rep.character.discriminant == -3
    orders = dict(rep.cusp_orders)
    assert orders[12] == 5
    assert all(orders[c] == 1 for c in (1, 2, 3, 4, 6, 8, 24))


def test_ligozat_check_rejects_bad_congruence():
    # weight 3 but sum(delta r) = 121, not divisible by 24
    rep = ligozat_check(EtaQuotient(24, (1, 0, 0, 0, 0, 0, 0, 5)))
    assert not rep.cond_24_divides_at_infinity
    assert not rep.is_holomorphic


def test_ligozat_check_rejects_negative_order():
    # shifting 24 between r_1 and r_2 keeps both congruences and the
    # weight but drives the order at the cusp 1 negative
    rep = ligozat_check(EtaQuotient(24, (-24, 27, 0, -4, -5, 2, 16, -6)))
    assert rep.cond_24_divides_at_infinity
    assert rep.cond_24_divides_at_zero
    assert not rep.cond_nonnegative_cusp_orders
    assert not rep.is_holomorphic


def test_ligozat_check_eisenstein_like_member():
    # holomorphic but not cuspidal: order 0 at the cusp 1
    rep = ligozat_check(EtaQuotient(24, (-3, 0, 9, 0, 0, 0, 0, 0)))
    assert rep.weight == 3
    assert rep.is_holomorphic
    assert not rep.is_cuspidal
    assert dict(rep.cusp_orders)[1] == 0
