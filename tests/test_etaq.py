import time
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, strategies as st

from qformlab import etaq
from qformlab.characters import chi
from qformlab.cli import main
from qformlab.etaq import (
    ETA_MAX_EXPONENTS,
    ETA_MAX_LEVEL,
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


def test_parse_eta_level_bound_is_inclusive(monkeypatch):
    n = ETA_MAX_LEVEL
    exps = ["1"] + ["0"] * (len(divisors(n)) - 1)
    assert parse_eta("eta%d[%s]" % (n, ",".join(exps))).level == n

    def unlisted(level):
        raise AssertionError("divisors(%d) listed" % level)

    # refused before any divisor is listed
    monkeypatch.setattr(etaq, "divisors", unlisted)
    for level in (n + 1, 10**17):
        with pytest.raises(ValueError, match="level %d is above the bound %d" % (level, n)):
            parse_eta("eta%d[1]" % level)


@pytest.mark.parametrize("command", ["ligozat-check", "eta-expand"])
def test_huge_level_exits_2_at_once(capsys, command):
    # trial division up to sqrt(10^17) ran past 20 s before the bound
    start = time.perf_counter()
    assert main([command, "eta100000000000000000[1]"]) == 2
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: level 100000000000000000 is above the bound %d\n" % ETA_MAX_LEVEL


def _one_per_divisor(level):
    return "eta%d[%s]" % (level, ",".join(["1"] + ["0"] * (len(divisors(level)) - 1)))


def test_parse_eta_exponent_bound_is_inclusive(monkeypatch):
    # 735134400 has exactly ETA_MAX_EXPONENTS divisors
    assert len(divisors(735134400)) == ETA_MAX_EXPONENTS
    assert parse_eta(_one_per_divisor(735134400)).level == 735134400

    def unlisted(level):
        raise AssertionError("divisors(%d) listed" % level)

    # one exponent more is refused before any divisor is listed
    monkeypatch.setattr(etaq, "divisors", unlisted)
    label = "eta735134400[%s]" % ",".join(["0"] * (ETA_MAX_EXPONENTS + 1))
    with pytest.raises(ValueError, match="%d exponents are above the bound %d"
                       % (ETA_MAX_EXPONENTS + 1, ETA_MAX_EXPONENTS)):
        parse_eta(label)


@pytest.mark.parametrize("command", ["ligozat-check", "eta-expand"])
def test_many_divisors_exit_2_at_once(capsys, command):
    # 963761198400 < ETA_MAX_LEVEL has 6720 divisors; ligozat-check ran
    # 13.4 s on its d(N)^2 cusp-order weights before the bound
    label = _one_per_divisor(963761198400)
    start = time.perf_counter()
    assert main([command, label]) == 2
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: 6720 exponents are above the bound %d\n" % ETA_MAX_EXPONENTS


def test_lifted():
    f = parse_eta("eta3[-3,9]")
    g = f.lifted(24)
    assert g.level == 24
    assert g.exponents == (-3, 0, 9, 0, 0, 0, 0, 0)
    assert g.weight == f.weight
    with pytest.raises(ValueError):
        f.lifted(10)


def test_cusp_order_single_eta_factors():
    f = EtaQuotient(24, {1: 1})
    assert cusp_order(f, 1) == 1
    assert cusp_order(f, 24) == Fraction(1, 24)
    g = EtaQuotient(24, {24: 1})
    assert cusp_order(g, 1) == Fraction(1, 24)
    assert cusp_order(g, 24) == 1
    # c = 4, delta = 24: (24 / (24 gcd(16,24))) * gcd(24,4)^2 / 24
    assert cusp_order(g, 4) == Fraction(1, 12)
    with pytest.raises(ValueError, match="must divide the level"):
        cusp_order(g, 5)


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


def test_character_of_examples():
    # squarefree part of prod delta^r picks the discriminant
    assert character_of(EtaQuotient(24, (0, 3, 0, -4, -5, 2, 16, -6))).discriminant == -3
    assert character_of(EtaQuotient(24, {1: 6})).discriminant == -4
    assert character_of(EtaQuotient(24, {1: 5, 2: 1})).discriminant == -8
    assert character_of(EtaQuotient(24, {1: 5, 6: 1})).discriminant == -24
    assert character_of(EtaQuotient(24, {1: 3, 3: 3})).discriminant == -3
    # even weight: squarefree part 2 lands on chi(8)
    assert character_of(EtaQuotient(24, {1: 1, 2: 3})).discriminant == 8


def _squarefree_part(n: int) -> int:
    """Largest squarefree divisor s with n/s a perfect square (n > 0)."""
    s = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                s *= d
        d += 1
    return s * n


def _reference_character(f):
    """character_of by trial division of prod delta^{r_delta}: the
    reference for the valuation-parity path."""
    k = f.weight
    if k.denominator != 1:
        raise ValueError("character is defined here only for integral weight")
    num = 1
    den = 1
    for d, r in f.items():
        if r > 0:
            num *= d**r
        elif r < 0:
            den *= d ** (-r)
    s = _squarefree_part(_squarefree_part(num) * _squarefree_part(den))
    if k.numerator % 2:
        if s == 3:
            return chi(-3)
        if s in (1, 2, 6):
            return chi(-4 * s)
    else:
        table = {1: 1, 2: 8, 3: 12, 6: 24}
        if s in table:
            return chi(table[s])
    raise ValueError("no quadratic character for squarefree part %d at weight %s" % (s, k))


@st.composite
def small_quotients(draw):
    """Exponent vectors at levels whose primes are 2 and 3, plus levels
    with a prime 5, where the squarefree part can leave {1, 2, 3, 6}."""
    level = draw(st.sampled_from((4, 6, 8, 12, 24, 10, 30)))
    size = len(divisors(level))
    exps = draw(st.lists(st.integers(min_value=-12, max_value=12), min_size=size, max_size=size))
    return EtaQuotient(level, exps)


def _outcome(fn, f):
    try:
        return fn(f)
    except ValueError as exc:
        return "ValueError: %s" % exc


@given(small_quotients())
def test_character_of_matches_trial_division(f):
    assert _outcome(character_of, f) == _outcome(_reference_character, f)


def test_character_of_reference_covers_every_outcome():
    # the property above meets odd and even weight, every squarefree
    # part of levels 24 and 30, and both ValueError messages
    seen = set()
    for exps, level in (
        ((6, 0, 0, 0, 0, 0, 0, 0), 24), ((5, 1, 0, 0, 0, 0, 0, 0), 24),
        ((5, 0, 1, 0, 0, 0, 0, 0), 24), ((5, 0, 0, 0, 1, 0, 0, 0), 24),
        ((4, 0, 0, 0, 0, 0, 0, 0), 24), ((3, 1, 0, 0, 0, 0, 0, 0), 24),
        ((3, 0, 1, 0, 0, 0, 0, 0), 24), ((3, 0, 0, 0, 1, 0, 0, 0), 24),
        ((5, 0, 1, 0), 10), ((1, 2, 0, 0, 0, 0, 0, 0), 30),
    ):
        f = EtaQuotient(level, exps)
        got = _outcome(character_of, f)
        assert got == _outcome(_reference_character, f)
        seen.add(got if isinstance(got, str) else got.discriminant)
    assert seen == {
        -4, -8, -3, -24, 1, 8, 12, 24,
        "ValueError: no quadratic character for squarefree part 5 at weight 3",
        "ValueError: character is defined here only for integral weight",
    }


def test_character_of_is_fast_for_huge_exponents():
    # prod delta^r has millions of digits here; the parity of
    # sum r_delta v_p(delta) needs none of them
    for r in (10**5, 10**9):
        f = EtaQuotient(24, (0, 0, 0, 0, 0, 0, 6, r))
        start = time.perf_counter()
        assert character_of(f) == chi(-4)
        assert ligozat_check(f).character == chi(-4)
        assert time.perf_counter() - start < 1.0


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


@st.composite
def congruence_quotients(draw):
    """Level 4, 6, 8 or 24; r_1 and r_N each sometimes moved to meet one congruence."""
    level = draw(st.sampled_from((4, 6, 8, 24)))
    divs = divisors(level)
    exps = draw(st.lists(st.integers(min_value=-30, max_value=30), min_size=len(divs), max_size=len(divs)))
    if draw(st.booleans()):  # 24 | sum delta r_delta
        exps[0] -= sum(map(mul, divs, exps)) % 24
    if draw(st.booleans()):  # 24 | sum (N / delta) r_delta
        exps[-1] -= sum((level // d) * r for d, r in zip(divs, exps)) % 24
    return EtaQuotient(level, exps)


@given(congruence_quotients())
def test_ligozat_congruences_match_the_direct_sums(f):
    n = f.level
    rep = ligozat_check(f)
    assert rep.cond_24_divides_at_infinity == (sum(d * r for d, r in f.items()) % 24 == 0)
    assert rep.cond_24_divides_at_zero == (sum((n // d) * r for d, r in f.items()) % 24 == 0)
    orders = [cusp_order(f, c) for c in divisors(n)]
    assert rep.cond_nonnegative_cusp_orders == all(v >= 0 for v in orders)
    assert rep.is_cuspidal == (rep.is_holomorphic and all(v > 0 for v in orders))


def test_ligozat_check_eisenstein_like_member():
    # holomorphic but not cuspidal: order 0 at the cusp 1
    rep = ligozat_check(EtaQuotient(24, (-3, 0, 9, 0, 0, 0, 0, 0)))
    assert rep.weight == 3
    assert rep.is_holomorphic
    assert not rep.is_cuspidal
    assert dict(rep.cusp_orders)[1] == 0
