"""Diagonal senary quadratic forms with coefficients 1, 2, 3 and 6.

A form is l_1 copies of x^2, l_2 of 2x^2, l_3 of 3x^2 and l_6 of 6x^2
with l_1+l_2+l_3+l_6 = 6, and it is carried as its exponent tuple
(l1, l2, l3, l6), the paper's N(1^l1, 2^l2, 3^l3, 6^l6; n); `coefficients`
lists its six coefficients.  Its theta series is prod phi(dz)^{l_d} with
phi the classical theta function, an eta quotient of level 24, and its
representation numbers follow a formula in a weight-3 basis.  The
formula coefficients are derived here by exact linear algebra and are
also shipped as a fixture table for cross-checking; representation
counts can be computed three independent ways (series expansion,
formula, nested-loop enumeration) and must agree exactly.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources
from math import isqrt
from operator import mul

from .arith import common_denominator
from .characters import DirichletChar, sigma_twisted
from .etaq import EtaQuotient, character_of
from .qseries import QSeries, eta_quotient_expansion
from .spaces import CHECK_PRECISION, basis_expansions, build_basis, solve_in_basis, span_solver, sturm_bound

__all__ = [
    "FormulaRow",
    "all_forms",
    "coefficients",
    "classify",
    "phi_eta_quotient",
    "genfun",
    "rep_counts_bruteforce",
    "derive_formula",
    "rep_count_formula",
    "load_fixture",
    "compare_with_fixture",
    "TableComparison",
    "DISPUTED_CELLS",
]

PHI = EtaQuotient(4, (-2, 5, -2))  # theta series sum q^(n^2) as an eta quotient

_DS = (1, 2, 3, 6)


def all_forms():
    """All 84 exponent vectors (l1, l2, l3, l6), lexicographically descending."""
    out = []
    for l1 in range(6, -1, -1):
        for l2 in range(6 - l1, -1, -1):
            for l3 in range(6 - l1 - l2, -1, -1):
                out.append((l1, l2, l3, 6 - l1 - l2 - l3))
    return tuple(out)


def coefficients(exponents) -> tuple:
    """The six coefficients of the form, ascending: (2, 2, 1, 1) gives
    (1, 1, 2, 2, 3, 6)."""
    if len(exponents) != 4 or any(x < 0 for x in exponents) or sum(exponents) != 6:
        raise ValueError("exponents must be four nonnegatives summing to 6")
    return tuple(d for d, l in zip(_DS, exponents) for _ in range(l))


def classify(exponents) -> DirichletChar:
    """Character of the theta series: the nebentypus of its eta quotient."""
    return character_of(phi_eta_quotient(exponents))


def phi_eta_quotient(exponents) -> EtaQuotient:
    """prod phi(dz)^{l_d} rewritten as a single level-24 eta quotient:
    phi(dz) puts the exponent of eta(delta z) in PHI at the divisor d delta."""
    r = Counter()
    for d, l in zip(_DS, exponents):
        for delta, e in PHI.items():
            r[d * delta] += l * e
    return EtaQuotient(24, r)


def genfun(exponents, precision: int = CHECK_PRECISION) -> QSeries:
    """Theta series of the form, q^0..q^(precision-1) known."""
    return eta_quotient_expansion(phi_eta_quotient(exponents), precision)


def rep_counts_bruteforce(exponents, nmax: int):
    """counts[n] = #{x in Z^6 : sum c_i x_i^2 = n} for 0 <= n <= nmax.

    Plain nested enumeration with budget pruning; deliberately independent
    of every series identity above.  It walks nonnegative coordinates
    only and counts each point once for all its sign images: x_i and -x_i
    give the same value, so the weight w carried down the recursion stays
    at x = 0 and doubles at every x > 0, and a point with k nonzero
    coordinates adds 2^k.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    cs = coefficients(exponents)
    counts = [0] * (nmax + 1)
    clast = cs[5]
    # clast * y^2 for y = 1, 2, ... within the budget
    tail = [clast * y * y for y in range(1, isqrt(nmax // clast) + 1)]

    def rec(i, acc, w):
        c = cs[i]
        m = isqrt((nmax - acc) // c)
        if i == 4:
            for x in range(m + 1):
                partial = acc + c * x * x
                wx = 2 * w if x else w
                counts[partial] += wx  # y = 0
                wy = 2 * wx  # y and -y
                for s in tail[: isqrt((nmax - partial) // clast)]:
                    counts[partial + s] += wy
        else:
            rec(i + 1, acc, w)
            for x in range(1, m + 1):
                rec(i + 1, acc + c * x * x, 2 * w)

    rec(0, 0, 1)
    return counts


@dataclass(frozen=True)
class FormulaRow:
    """Formula coefficients of one form in its space basis."""

    exponents: tuple
    character: DirichletChar
    eisenstein: tuple  # Fractions, one per EisensteinSpec of the basis
    cusp: tuple  # Fractions, one per cusp basis element

    def values(self) -> tuple:
        return self.eisenstein + self.cusp

    @cached_property
    def integer_view(self) -> tuple:
        """(den, numerators): values() as ints over their least common
        denominator, computed once per row."""
        den, nums = common_denominator(self.values())
        return den, tuple(nums)


def derive_formula(exponents, precision: int = CHECK_PRECISION) -> FormulaRow:
    """Solve the theta series against its space basis, exactly.

    `precision` sets how many coefficients the solved identity is
    verified on; 13 is the minimum (and already binding by the Sturm
    bound once membership in the space is known).
    """
    character = classify(exponents)
    f = genfun(exponents, precision)
    sol = solve_in_basis(f, character.discriminant)
    ne = len(build_basis(character.discriminant).eisenstein)
    return FormulaRow(
        exponents=tuple(exponents),
        character=character,
        eisenstein=sol[:ne],
        cusp=sol[ne:],
    )


def rep_count_formula(row: FormulaRow, n: int) -> Fraction:
    """Evaluate the formula at n >= 1.

    Below q^61 the value is one dot product of the row's numerators with
    row n of the space solver's integer table, the basis coefficients at
    q^n.  From q^61 on it is twisted divisor sums for the Eisenstein
    terms plus the cusp expansions, grown to q^n.  Either sum runs in
    ints over the row's one denominator, so a query builds one
    `Fraction`, the result.
    """
    if n < 1:
        raise ValueError("the formula covers n >= 1")
    disc = row.character.discriminant
    den, nums = row.integer_view
    if n < CHECK_PRECISION:
        return Fraction(sum(map(mul, nums, span_solver(disc).table[n])), den)
    basis = build_basis(disc)
    ne = len(basis.eisenstein)
    total = 0
    for num, spec in zip(nums, basis.eisenstein):
        if num and n % spec.t == 0:
            total += num * sigma_twisted(2, spec.chi, spec.psi, n // spec.t)
    cusp = nums[ne:]
    if any(cusp):
        expansions = basis_expansions(disc, n + 1, "cusp")
        for num, series in zip(cusp, expansions[ne:]):
            if num:
                total += num * series.qcoeff(n)
    return Fraction(total, den)


# ---------------------------------------------------------------------------
# fixture of printed formula coefficients
# ---------------------------------------------------------------------------

# Cells whose printed value is known not to match the derivation; each is
# (exponents, 0-based column index into FormulaRow.values()).  The single
# entry is the chi(-24) row (0,3,1,2), second cusp column, printed as a
# bare 4 where every neighbour carries denominator 23.
DISPUTED_CELLS = (((0, 3, 1, 2), 5),)


def load_fixture(disc: int):
    """Printed coefficient rows for one character, as FormulaRow tuples."""
    name = "table_chi_%d.txt" % disc
    basis = build_basis(disc)
    ne = len(basis.eisenstein)
    rows = []
    text = resources.files("qformlab.data").joinpath(name).read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        exps = tuple(int(x) for x in parts[:4])
        vals = tuple(Fraction(x) for x in parts[4:])
        if len(vals) != basis.dimension:
            raise ValueError("fixture row for %s has %d values, expected %d"
                             % (exps, len(vals), basis.dimension))
        rows.append(
            FormulaRow(
                exponents=exps,
                character=basis.character,
                eisenstein=vals[:ne],
                cusp=vals[ne:],
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class TableComparison:
    """Derived-versus-fixture outcome for one character's table."""

    discriminant: int
    rows: int
    mismatches: tuple  # ((exponents, column, derived, printed), ...)

    def undisputed_mismatches(self) -> tuple:
        return tuple(
            m for m in self.mismatches if (m[0], m[1]) not in DISPUTED_CELLS
        )


def compare_with_fixture(disc: int) -> TableComparison:
    """Derive every row of one table on the Sturm bound's coefficients
    and diff against the printed values."""
    fixture = load_fixture(disc)
    mismatches = []
    for printed in fixture:
        derived = derive_formula(printed.exponents, sturm_bound() + 1)
        for col, (dv, pv) in enumerate(zip(derived.values(), printed.values())):
            if dv != pv:
                mismatches.append((printed.exponents, col, dv, pv))
    return TableComparison(
        discriminant=disc, rows=len(fixture), mismatches=tuple(mismatches)
    )
