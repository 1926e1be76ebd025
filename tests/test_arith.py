from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qformlab import newforms
from qformlab.arith import (
    INCONSISTENT,
    UNDERDETERMINED,
    UNIQUE,
    ExactMatrix,
    NumberField,
    common_denominator,
    format_rational,
    minimal_polynomial,
    parse_rational,
)


# Q(sqrt(2)): x^2 - 2, constant coefficient first
K2 = NumberField((-2, 0, 1))


def test_generator_squares_to_two():
    a = K2.generator()
    assert a * a == 2
    assert (a + 1) * (a - 1) == 1


def test_element_inverse():
    a = K2.generator()
    x = 3 + 2 * a
    assert x * (1 / x) == 1
    assert 1 / a == a / 2


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        1 / K2.zero()


def test_fraction_coercion():
    a = K2.generator()
    assert a / 2 == Fraction(1, 2) * a
    assert a + Fraction(1, 3) - Fraction(1, 3) == a


@pytest.mark.parametrize("field", [newforms.K1, newforms.K2, newforms.K3])
@pytest.mark.parametrize("x", [0, 3, -7, Fraction(1, 2), Fraction(-5, 3)])
def test_rational_elements_hash_as_their_rational(field, x):
    y = field.embed(x)
    assert y == x and hash(y) == hash(x)
    assert len({y, x}) == 1
    assert {x: "rational"}[y] == "rational"
    # an element with a higher coefficient equals no rational
    z = y + field.generator()
    assert z != x and len({z, y}) == 2


def test_float_rejected():
    a = K2.generator()
    with pytest.raises(TypeError):
        a + 0.5


small = st.integers(min_value=-30, max_value=30)


@given(small, small, small, small)
def test_field_ring_laws(p, q, r, s):
    a = K2.generator()
    x = p + q * a
    y = r + s * a
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    assert (x - y) + y == x


@settings(deadline=None)
@given(st.sampled_from((K2, newforms.K1, newforms.K2, newforms.K3)), st.data())
def test_nonzero_elements_invert(field, data):
    x = field.element(data.draw(st.lists(small, min_size=field.degree, max_size=field.degree)))
    if x == 0:
        return
    assert x * (1 / x) == 1


def test_inverse_over_a_reducible_modulus():
    # Q[x]/(x^2 - 1) has zero divisors: the kernel of [M | e_0] must be
    # spanned by one vector (-x, 1) for an inverse to be read from it
    a = NumberField((-1, 0, 1)).generator()
    with pytest.raises(ZeroDivisionError):
        (a - a).inverse()  # M = 0: two free columns
    with pytest.raises(ZeroDivisionError):
        (a - 1).inverse()  # e_0 is outside the image: its column is a pivot
    assert (a + 2).inverse() == (2 - a) * Fraction(1, 3)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.integers(min_value=n, max_value=6).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )
)
def test_left_factor_inverts_and_annihilates(rows):
    a = ExactMatrix.from_rows(rows)
    m, n = a.rows, a.cols
    if a.rank() < n:
        with pytest.raises(ValueError):
            a.left_factor()
        return
    inverse, kernel = a.left_factor()
    assert len(inverse) == n and len(kernel) == m - n
    for i, row in enumerate(inverse):
        assert [sum(row[k] * a[k, j] for k in range(m)) for j in range(n)] == [
            int(i == j) for j in range(n)
        ]
    for z in kernel:
        assert [sum(z[k] * a[k, j] for k in range(m)) for j in range(n)] == [0] * n
    if kernel:
        assert ExactMatrix.from_rows(kernel).rank() == m - n


def test_minimal_polynomial_of_sqrt2():
    a = K2.generator()
    assert minimal_polynomial(a) == (-2, 0, 1)
    assert minimal_polynomial(a + 1) == (-1, -2, 1)
    assert minimal_polynomial(K2.element([5])) == (-5, 1)


def test_solve_linear_unique():
    m = ExactMatrix.from_rows([[1, 1], [1, -1]])
    status, x = m.solve_linear([3, 1])
    assert status is UNIQUE
    assert list(x) == [2, 1]


def test_solve_linear_inconsistent():
    m = ExactMatrix.from_rows([[1, 1], [2, 2]])
    status, x = m.solve_linear([1, 3])
    assert status is INCONSISTENT
    assert x is None


def test_solve_linear_underdetermined():
    m = ExactMatrix.from_rows([[1, 1], [2, 2]])
    status, x = m.solve_linear([1, 2])
    assert status is UNDERDETERMINED


def test_rank():
    assert ExactMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1
    assert ExactMatrix.from_rows([[1, 2], [2, 5]]).rank() == 2
    assert ExactMatrix.from_rows([[0, 0], [0, 0]]).rank() == 0


def test_kernel_basis():
    m = ExactMatrix.from_rows([[1, 2, 3]])
    ker = m.kernel_basis()
    assert len(ker) == 2
    for v in ker:
        assert sum(a * b for a, b in zip([1, 2, 3], v)) == 0


def test_kernel_over_number_field():
    a = K2.generator()
    m = ExactMatrix.from_rows([[a, -2]])
    ker = m.kernel_basis()
    assert len(ker) == 1
    v = ker[0]
    assert a * v[0] - 2 * v[1] == 0


def test_matrix_solve_over_number_field():
    a = K2.generator()
    m = ExactMatrix.from_rows([[a, 1], [1, a]])
    status, x = m.solve_linear([1, 0])
    assert status is UNIQUE
    assert a * x[0] + x[1] == 1
    assert x[0] + a * x[1] == 0


# the one Gauss-Jordan reduction, read by every ExactMatrix question, over
# Q and over the degree-4 newform field K2
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
K2_ELEMENTS = st.lists(
    st.integers(min_value=-2, max_value=2), min_size=4, max_size=4
).map(newforms.K2.element)


def _times(rows, x):
    return [sum((u * v for u, v in zip(r, x)), 0) for r in rows]


@st.composite
def _systems(draw, scalar):
    """(rows, y): a matrix with zeros and a dependent row more likely than
    chance, and a right-hand side in its column span about half the time."""
    entry = st.one_of(st.just(0), scalar)
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        c = draw(scalar)
        rows[-1] = [u + c * v for u, v in zip(rows[0], rows[1])]
    if draw(st.booleans()):
        x0 = draw(st.lists(scalar, min_size=n, max_size=n))
        y = _times(rows, x0)
    else:
        y = draw(st.lists(scalar, min_size=m, max_size=m))
    return rows, y


def _check_reduction_readers(rows, y):
    a = ExactMatrix.from_rows(rows)
    m, n = a.rows, a.cols
    rank = a.rank()
    # column j is free exactly when it adds no rank to the columns before it
    ranks = [ExactMatrix.from_rows([r[:j] for r in rows]).rank() for j in range(n + 1)]
    free = [j for j in range(n) if ranks[j + 1] == ranks[j]]
    kernel = a.kernel_basis()
    assert len(kernel) == len(free) == n - rank
    for x, fc in zip(kernel, free):
        assert _times(rows, x) == [0] * m
        assert [x[j] for j in free] == [int(j == fc) for j in free]
    status, x = a.solve_linear(y)
    augmented = ExactMatrix.from_rows([r + [v] for r, v in zip(rows, y)]).rank()
    if augmented > rank:
        assert status is INCONSISTENT and x is None
    elif rank < n:
        assert status is UNDERDETERMINED and x is None
    else:
        assert status is UNIQUE
        assert _times(rows, x) == y


@given(_systems(RATIONALS))
def test_reduction_readers_agree_over_q(system):
    _check_reduction_readers(*system)


@settings(max_examples=40, deadline=None)
@given(_systems(K2_ELEMENTS))
def test_reduction_readers_agree_over_k2(system):
    _check_reduction_readers(*system)


@settings(deadline=None)
@given(st.sampled_from((K2, newforms.K1, newforms.K2, newforms.K3)), st.data())
def test_minimal_polynomial_is_monic_and_vanishes(field, data):
    coeffs = data.draw(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=field.degree, max_size=field.degree)
    )
    a = field.element(coeffs)
    poly = minimal_polynomial(a)
    assert poly[-1] == 1
    assert field.degree % (len(poly) - 1) == 0
    value = field.zero()
    for c in reversed(poly):
        value = value * a + c
    assert value == 0


@settings(deadline=None)
@given(st.sampled_from((newforms.K1, newforms.K2, newforms.K3)), st.data())
def test_minimal_polynomial_of_an_element_is_that_of_its_multiplication_matrix(field, data):
    # a list shorter than the degree leaves the top coordinates 0, so
    # length 1 draws the rational elements
    coeffs = data.draw(st.lists(RATIONALS, min_size=1, max_size=field.degree))
    a = field.element(coeffs)
    # column j holds the coordinates of a * alpha^j
    columns = [(a * field.element([0] * j + [1])).coeffs for j in range(field.degree)]
    mat = ExactMatrix.from_rows(list(zip(*columns)))
    assert a.matrix().entries == mat.entries
    assert minimal_polynomial(mat) == minimal_polynomial(a)


def test_minimal_polynomial_of_a_matrix_scales_back_its_denominator():
    half, third = Fraction(1, 2), Fraction(1, 3)
    mat = ExactMatrix.from_rows([[half, 0, 0], [0, half, 0], [0, 0, third]])
    # (x - 1/2)(x - 1/3): the repeated eigenvalue 1/2 enters once
    poly = minimal_polynomial(mat)
    assert poly == (Fraction(1, 6), Fraction(-5, 6), 1)
    assert all(type(c) is Fraction for c in poly)
    # not diagonalizable: the Jordan block of 1/2 keeps (x - 1/2)^2
    assert minimal_polynomial(ExactMatrix.from_rows([[half, 1], [0, half]])) == (
        Fraction(1, 4), -1, 1)
    assert minimal_polynomial(ExactMatrix.from_rows([[0, 0], [0, 0]])) == (0, 1)
    with pytest.raises(ValueError):
        minimal_polynomial(ExactMatrix.from_rows([[1, 2]]))


def test_zero_divisor_pivot_raises():
    # over Q[x]/(x^2 - 1) the pivot a - 1 is a zero divisor: (a + 1, 0) is
    # a kernel vector outside the span of (0, 1), so no basis is returned
    a = NumberField((-1, 0, 1)).generator()
    with pytest.raises(ZeroDivisionError):
        ExactMatrix.from_rows([[a - 1, 0]]).kernel_basis()


# every prime factor of a denominator drawn below is at most 60
_SMALL_PRIMES = [p for p in range(2, 61) if all(p % q for q in range(2, p))]


@given(
    st.lists(
        st.one_of(
            st.integers(min_value=-10**6, max_value=10**6),
            st.fractions(min_value=-1000, max_value=1000, max_denominator=60),
        ),
        max_size=12,
    )
)
@example([])
@example([3, -7, 0])
@example([Fraction(1, 6), Fraction(-3, 4), 2])
def test_common_denominator_is_the_least(values):
    den, nums = common_denominator(values)
    assert type(den) is int and den >= 1
    assert len(nums) == len(values)
    assert all(type(num) is int and den * v == num for v, num in zip(values, nums))
    # no prime p | den leaves den / p a common denominator
    rest = den
    for p in _SMALL_PRIMES:
        if den % p == 0:
            assert any((den // p * Fraction(v)).denominator != 1 for v in values)
        while rest % p == 0:
            rest //= p
    assert rest == 1


@given(st.fractions(min_value=-100, max_value=100, max_denominator=97))
def test_rational_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
