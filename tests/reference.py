"""Independent references that only the tests read.

Each one recomputes something the program derives another way: the
pentagonal-number series against the eta kernel, the Fraction right side
of a displayed identity against its integer check, and the printed
character grid against the period tables.  Tests import them with
``from reference import ...``.
"""

from fractions import Fraction
from operator import mul

from qformlab.characters import chi
from qformlab.etasearch import _rhs_terms
from qformlab.qseries import QSeries, _steps


def euler_coeffs(L: int):
    """prod_{n>=1} (1 - q^n) mod q^L by the pentagonal number theorem."""
    out = [0] * L
    if L > 0:
        out[0] = 1
    m = 1
    while True:
        g1 = m * (3 * m - 1) // 2
        g2 = m * (3 * m + 1) // 2
        if g1 >= L and g2 >= L:
            break
        s = 1 if m % 2 == 0 else -1
        if g1 < L:
            out[g1] = s
        if g2 < L:
            out[g2] = s
        m += 1
    return out


def eta_expansion(delta: int, precision: int) -> QSeries:
    """q^(delta/24) prod_{n>=1} (1 - q^(delta n)), known below q^precision."""
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    n = _steps(delta, precision)
    coeffs = [0] * n
    coeffs[::delta] = euler_coeffs((n + delta - 1) // delta)
    return QSeries(coeffs, precision, delta)


def remark_rhs(identity, precision: int) -> QSeries:
    """Right-hand side of one displayed identity, q^0..q^(precision-1) known."""
    [(nums, rows, den)] = _rhs_terms((identity,), precision)
    return QSeries(
        [Fraction(sum(map(mul, nums, row)), den) or 0 for row in rows],
        precision,
    )


# row order of the reference table of all primitive characters with
# conductor dividing 24, and its evaluation columns
TABLE_ROW_ORDER = (1, -24, -4, 24, 8, -3, -8, 12)
TABLE_COLUMNS = (1, 5, 7, 11, 13, 17, 19, 23)


def character_table():
    """The 8x8 grid chi_t(u) for the standard row/column order."""
    return tuple(tuple(chi(t)(u) for u in TABLE_COLUMNS) for t in TABLE_ROW_ORDER)
