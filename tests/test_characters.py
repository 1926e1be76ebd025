from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qformlab.characters import (
    KNOWN_DISCRIMINANTS,
    TABLE_COLUMNS,
    TABLE_ROW_ORDER,
    DirichletChar,
    character_table,
    chi,
    gen_bernoulli3,
    kronecker,
    sigma_twisted,
    sigma_twisted_table,
)

# printed 8x8 evaluation grid, rows chi_1, chi_-24, chi_-4, chi_24,
# chi_8, chi_-3, chi_-8, chi_12 against n = 1, 5, 7, 11, 13, 17, 19, 23
REFERENCE_TABLE = (
    (1, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, -1, -1, -1, -1),
    (1, 1, -1, -1, 1, 1, -1, -1),
    (1, 1, -1, -1, -1, -1, 1, 1),
    (1, -1, 1, -1, -1, 1, -1, 1),
    (1, -1, 1, -1, 1, -1, 1, -1),
    (1, -1, -1, 1, -1, 1, 1, -1),
    (1, -1, -1, 1, 1, -1, -1, 1),
)


def test_character_table_matches_reference():
    assert character_table() == REFERENCE_TABLE


def test_table_layout():
    assert TABLE_ROW_ORDER == (1, -24, -4, 24, 8, -3, -8, 12)
    assert TABLE_COLUMNS == (1, 5, 7, 11, 13, 17, 19, 23)


@pytest.mark.parametrize("t", KNOWN_DISCRIMINANTS)
def test_period_divides_conductor(t):
    c = chi(t)
    for n in range(-60, 61):
        assert c(n) == c(n + c.conductor)


@pytest.mark.parametrize("t", KNOWN_DISCRIMINANTS)
def test_period_table_matches_kronecker(t):
    c = chi(t)
    for n in range(-200, 201):
        assert c(n) == kronecker(t, n), n


@pytest.mark.parametrize("t", KNOWN_DISCRIMINANTS)
def test_vanishes_off_coprime(t):
    c = chi(t)
    from math import gcd

    for n in range(1, 80):
        if gcd(n, c.conductor) > 1:
            assert c(n) == 0
        else:
            assert c(n) in (1, -1)


@given(
    st.sampled_from(KNOWN_DISCRIMINANTS),
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=-200, max_value=200),
)
def test_kronecker_multiplicative_in_n(t, m, n):
    assert kronecker(t, m * n) == kronecker(t, m) * kronecker(t, n)


def test_kronecker_at_zero_and_negatives():
    assert kronecker(1, 0) == 1
    assert kronecker(-3, 0) == 0
    assert kronecker(-4, -1) == -1
    assert kronecker(8, -1) == 1


def test_odd_even_split():
    for t in KNOWN_DISCRIMINANTS:
        assert chi(t).is_odd() == (t < 0)


def test_unsupported_discriminant():
    with pytest.raises(ValueError):
        DirichletChar(5)


def test_bernoulli_values():
    # every supported character; B_{3,chi} vanishes for the even ones
    want = {1: 0, -3: Fraction(2, 3), -4: Fraction(3, 2), 8: 0, -8: 9, 12: 0, 24: 0, -24: 138}
    assert sorted(want) == sorted(KNOWN_DISCRIMINANTS)
    for t, b in want.items():
        assert gen_bernoulli3(chi(t)) == b, t
        assert type(gen_bernoulli3(chi(t))) is Fraction


@pytest.mark.parametrize("t", [-3, -4, -8, -24])
def test_bernoulli_against_defining_sum(t):
    # B_{3,chi} = L^2 sum_{a=1..L} chi(a) B_3(a/L) with B_3(x) the
    # Bernoulli polynomial x^3 - (3/2)x^2 + (1/2)x
    c = chi(t)
    L = c.conductor
    total = Fraction(0)
    for a in range(1, L + 1):
        x = Fraction(a, L)
        total += c(a) * (x**3 - Fraction(3, 2) * x**2 + Fraction(1, 2) * x)
    assert gen_bernoulli3(c) == L**2 * total


def test_sigma_twisted_small_values():
    # n = 6, chi = chi_-3, psi trivial: divisors 1,2,3,6
    c3, c1 = chi(-3), chi(1)
    expected = sum(c3(d) * c1(6 // d) * d**2 for d in (1, 2, 3, 6))
    assert sigma_twisted(2, c3, c1, 6) == expected
    assert sigma_twisted(2, c1, c1, 12) == 1 + 4 + 9 + 16 + 36 + 144


def test_sigma_twisted_off_positive_integers():
    c = chi(-4)
    assert sigma_twisted(2, c, c, 0) == 0
    assert sigma_twisted(2, c, c, -5) == 0
    assert sigma_twisted(2, c, c, Fraction(1, 2)) == 0


@given(st.integers(min_value=1, max_value=400))
def test_sigma_twisted_trivial_is_sigma2(n):
    c1 = chi(1)
    assert sigma_twisted(2, c1, c1, n) == sum(
        d**2 for d in range(1, n + 1) if n % d == 0
    )


def test_sigma_twisted_multiplicative():
    # multiplicative in n for coprime arguments, any character pair
    c, p = chi(-4), chi(8)
    for m, n in [(3, 5), (4, 9), (5, 7), (8, 9), (25, 3)]:
        assert sigma_twisted(2, c, p, m * n) == sigma_twisted(
            2, c, p, m
        ) * sigma_twisted(2, c, p, n)


@pytest.mark.parametrize("t", KNOWN_DISCRIMINANTS)
def test_sigma_twisted_table_matches_single_sums(t):
    # the sieve walks the multiples of d <= isqrt(size - 1) and the
    # cofactors of larger d; sizes 2, 5, 10 and 17 sit just past a square
    char = chi(t)
    for psi in map(chi, KNOWN_DISCRIMINANTS):
        for k in (0, 1, 2):
            reference = [sigma_twisted(k, char, psi, n) for n in range(400)]
            for size in (0, 1, 2, 5, 10, 17, 61, 300, 400):
                assert sigma_twisted_table(k, char, psi, size) == reference[:size]

