from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qformlab.arith import (
    INCONSISTENT,
    UNDERDETERMINED,
    UNIQUE,
    ExactMatrix,
    NumberField,
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


@given(small, small)
def test_nonzero_elements_invert(p, q):
    a = K2.generator()
    x = p + q * a
    if x == 0:
        return
    assert x * (1 / x) == 1


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


@given(st.fractions(min_value=-100, max_value=100, max_denominator=97))
def test_rational_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
