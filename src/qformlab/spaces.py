"""Bases for the four weight-3 spaces on Gamma_0(24) with real character.

Each space M_3(Gamma_0(24), chi) for chi in {chi(-3), chi(-4), chi(-8),
chi(-24)} splits into an Eisenstein part, spanned by scaled series
E3[chi,psi](tz), and a cusp part spanned by eta quotients of level 24
whose orders at infinity are pairwise distinct.  The Eisenstein part is
derived, not listed: it is E3[a,b](tz) for every pair of primitive
characters chi(a), chi(b) with chi(a) chi(b) = chi and t |a| |b| | 24
(Miyake, Modular Forms, Thm 4.7.1).  A form known through q^12 (the
Sturm bound for weight 3 and index 48) is pinned down here: solving on
thirteen coefficients identifies it, and any further known coefficients
are then verified, not assumed.

Every function here names a space by its discriminant, one of
SPACE_DISCRIMINANTS (check_discriminant is the one check), and reads the
one basis build_basis keeps for it.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import mul

from .arith import ExactMatrix, INCONSISTENT, common_denominator
from .characters import KNOWN_DISCRIMINANTS, DirichletChar, chi
from .eisenstein import EisensteinSpec, eisenstein3
from .etaq import EtaQuotient, divisors, ligozat_check
from .qseries import GRADE, QSeries, eta_quotient_expansion

__all__ = [
    "SpaceBasis",
    "BasisReport",
    "check_discriminant",
    "build_basis",
    "basis_expansions",
    "coefficient_rows",
    "verify_basis",
    "solve_in_basis",
    "first_deviation",
    "sturm_bound",
    "CHECK_PRECISION",
    "SPACE_DISCRIMINANTS",
]

SPACE_DISCRIMINANTS = (-3, -4, -8, -24)

_GAMMA0_24_INDEX = 48


def sturm_bound() -> int:
    """Coefficient bound q^0..q^bound determining a form: 3*48/12 = 12."""
    return 3 * _GAMMA0_24_INDEX // 12


# q^0..q^60: how far census hits, formulas and identities are verified
CHECK_PRECISION = 61


_CUSP_EXPONENTS = {
    -3: (
        (0, 3, 0, -4, -5, 2, 16, -6),
        (1, -1, -3, 1, 7, 0, 1, 0),
        (0, 2, 0, -1, -2, 0, 7, 0),
        (0, 1, 0, 2, 1, -2, -2, 6),
    ),
    -4: (
        (1, -1, -3, 0, 7, 2, 2, -2),
        (0, 2, 0, -2, -2, 2, 8, -2),
        (0, 0, 0, 4, 0, -2, 2, 2),
        (0, 1, 0, 1, 1, 0, -1, 4),
    ),
    -8: (
        (2, -2, -4, -2, 7, 2, 7, -4),
        (1, 1, -1, -4, -2, 2, 13, -4),
        (2, -3, -4, 1, 10, 0, -2, 2),
        (1, 0, -1, -1, 1, 0, 4, 2),
        (0, 1, 2, 0, -2, -1, 1, 5),
        (1, -1, -1, 2, 4, -2, -5, 8),
    ),
    -24: (
        (1, 1, -1, -5, -2, 4, 14, -6),
        (2, -3, -4, 0, 10, 2, -1, 0),
        (1, 0, -1, -2, 1, 2, 5, 0),
        (1, -2, -1, 4, 3, -2, -1, 4),
        (1, -1, -1, 1, 4, 0, -4, 6),
        (-1, 4, 1, 0, -1, -2, -3, 8),
    ),
}


@dataclass(frozen=True)
class SpaceBasis:
    """Ordered basis: Eisenstein labels first, then cusp eta quotients."""

    character: DirichletChar
    eisenstein: tuple  # of EisensteinSpec
    cusp: tuple  # of EtaQuotient

    @property
    def dimension(self) -> int:
        return len(self.eisenstein) + len(self.cusp)


def check_discriminant(disc: int):
    """ValueError unless disc names one of the four spaces."""
    if disc not in SPACE_DISCRIMINANTS:
        raise ValueError("no space for discriminant %r; use one of %s"
                         % (disc, SPACE_DISCRIMINANTS))


def _eisenstein_specs(main: DirichletChar) -> tuple:
    """E3[a,b](tz) for every pair chi(a) chi(b) = main with t |a| |b| | 24:
    E3[main,1] first, then E3[1,main], then the mixed pairs by |a|, each
    over increasing t."""
    pairs = [(a, b) for a in KNOWN_DISCRIMINANTS for b in KNOWN_DISCRIMINANTS
             if 24 % abs(a * b) == 0
             and all(chi(a)(n) * chi(b)(n) == main(n) for n in range(24))]
    pairs.sort(key=lambda p: (p[1] != 1, p[0] != 1, abs(p[0])))
    return tuple(EisensteinSpec(chi(a), chi(b), t)
                 for a, b in pairs for t in divisors(24 // abs(a * b)))


@cache
def build_basis(disc: int) -> SpaceBasis:
    """The one basis of M_3(Gamma_0(24), chi(disc)), disc in -3, -4, -8, -24."""
    check_discriminant(disc)
    main = chi(disc)
    cusp = tuple(EtaQuotient(24, exps) for exps in _CUSP_EXPONENTS[disc])
    return SpaceBasis(character=main, eisenstein=_eisenstein_specs(main), cusp=cusp)


_EXPANSIONS: dict = {}  # discriminant -> tuple of every basis series


def basis_expansions(disc: int, precision: int, part: str = "basis"):
    """QSeries for every element of the basis of the chi(disc) space,
    Eisenstein first.

    One tuple is kept per space.  A series of `part` ("basis" for all,
    "cusp" for the cusp elements) that knows less than q^0..q^(precision-1)
    is rebuilt at `precision`, a cusp series by resuming the eta-quotient
    kernel cache.  The rest are left alone, so a cusp read never rebuilds
    an Eisenstein series.  A read that rebuilds nothing returns the cached
    tuple itself; readers slice it and stop at their own precision.
    """
    basis = build_basis(disc)
    got = _EXPANSIONS.get(disc) or (QSeries.zero(0),) * basis.dimension
    ne = len(basis.eisenstein)
    grow = [i for i in range({"basis": 0, "cusp": ne}[part], len(got))
            if got[i].qprecision() < precision]
    if grow:
        series = list(got)
        for i in grow:
            if i < ne:
                s = basis.eisenstein[i]
                series[i] = eisenstein3(s.chi, s.psi, s.t, precision)
            else:
                series[i] = eta_quotient_expansion(basis.cusp[i - ne], precision)
        got = _EXPANSIONS[disc] = tuple(series)
    return got


def coefficient_rows(series, stop: int) -> list:
    """Row n, for n < stop, holds the q^n coefficient of every series."""
    return list(zip(*(s.qcoeffs(stop) for s in series)))


@dataclass(frozen=True)
class BasisReport:
    """verify_basis outcome: structural checks for one space basis."""

    character: DirichletChar
    dimension: int
    cusp_reports: tuple  # of ModularityReport
    cusp_forms_ok: bool
    characters_ok: bool
    weights_ok: bool
    valuations: tuple  # integer q-orders at infinity of the cusp elements
    valuations_distinct: bool
    rank: int
    rank_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.cusp_forms_ok
            and self.characters_ok
            and self.weights_ok
            and self.valuations_distinct
            and self.rank_ok
        )


def verify_basis(disc: int) -> BasisReport:
    """Check one space basis from scratch.

    Every claimed cusp element must pass the full holomorphy test as a
    genuine cusp form of weight 3 with the right character; the orders
    at infinity must be pairwise distinct; and the coefficient matrix
    of all basis elements through the Sturm bound must have full rank.
    """
    basis = build_basis(disc)
    reports = tuple(ligozat_check(f) for f in basis.cusp)
    cusp_ok = all(r.is_holomorphic and r.is_cuspidal for r in reports)
    chars_ok = all(r.character == basis.character for r in reports)
    weights_ok = all(r.weight == 3 for r in reports)
    vals = tuple(f.valuation24() // GRADE for f in basis.cusp)
    rows = sturm_bound() + 1
    exps = basis_expansions(disc, rows)
    rank = ExactMatrix.from_rows(coefficient_rows(exps, rows)).rank()
    return BasisReport(
        character=basis.character,
        dimension=basis.dimension,
        cusp_reports=reports,
        cusp_forms_ok=cusp_ok,
        characters_ok=chars_ok,
        weights_ok=weights_ok,
        valuations=vals,
        valuations_distinct=len(set(vals)) == len(vals),
        rank=rank,
        rank_ok=rank == basis.dimension,
    )


def first_deviation(f: QSeries, coords, rows, start: int, stop: int, den=1):
    """First n in [start, stop) where den * f(n) and the dot product of
    `coords` with rows[n] differ, or None when they agree on every
    coefficient checked.

    `rows` is a `coefficient_rows` table, row n the q^n coefficients of
    the series that `coords` combine; a row longer than `coords` is read
    only as far as `coords` go.  f is read once, as one list.  With
    integer numerators `coords` over a common denominator `den` and an
    integer table, every comparison is integer arithmetic.
    """
    got = f.qcoeffs(stop)
    for n in range(start, stop):
        if sum(map(mul, coords, rows[n])) != den * got[n]:
            return n
    return None


class _SpanSolver:
    """Exact membership test for the span of a space's basis columns.

    With A the matrix of the columns (Eisenstein first, `ne` of them) on
    q^0..q^12, one Gauss-Jordan pass (ExactMatrix.left_factor) gives a
    basis K of the left kernel {z : z A = 0}, each row scaled to integers,
    and a left inverse L (L A = I) kept as an integer matrix over one
    denominator `den`.  A candidate y lies in the span exactly when every
    kernel row is orthogonal to it; its coordinates are then the
    numerators L y over den.  On integer y every test is integer
    arithmetic.

    The columns are kept as one table, `table`, row n holding their q^n
    coefficients for n < CHECK_PRECISION (`coefficient_rows`), all ints
    past the Eisenstein constant terms of row 0; `samples` is its first
    thirteen rows.  Every verification past the
    sampled rows reads it, one dot product per coefficient: a census hit
    or a solved series is checked as den * a(n) == sum num_i table[n][i]
    through q^60, and rep_count_formula evaluates a formula row below
    q^61 as the same dot product over den.

    The same factorization answers for the column sets inside the basis.
    y is in the Eisenstein span exactly when it is in the span and its
    cusp numerators vanish, and in the cusp span when its Eisenstein
    numerators vanish.  The left kernel of the Eisenstein columns alone
    is spanned by K and the rows of L at the cusp columns
    (`eisenstein_kernel`).  One vector of that kernel, `first`, is the
    first kernel_basis vector of the transposed Eisenstein samples, scaled
    to integers: it ends at its free column, the first sampled row that
    depends on the rows before it, so it is the one dependency among the
    shortest dependent prefix of sampled rows.  `reach`, that column + 1,
    is the prefix's length: a y whose first `reach` entries are known
    already meets `first`, and most y outside the Eisenstein span fail it
    there.
    """

    def __init__(self, columns, ne):
        self.ne = ne
        self.rows = range(sturm_bound() + 1)
        self.table = coefficient_rows(columns, CHECK_PRECISION)
        self.samples = self.table[: len(self.rows)]
        inverse, kernel = ExactMatrix.from_rows(self.samples).left_factor()
        self.kernel = [common_denominator(z)[1] for z in kernel]
        self.den, nums = common_denominator(v for row in inverse for v in row)
        width = len(self.rows)
        self.left_inverse = [nums[i : i + width] for i in range(0, len(nums), width)]
        # cusp rows first: most candidates off the Eisenstein span fail one
        self.eisenstein_kernel = self.left_inverse[ne:] + self.kernel
        eisenstein = ExactMatrix.from_rows(list(zip(*self.samples))[:ne])
        self.first = common_denominator(eisenstein.kernel_basis()[0])[1]
        self.reach = max(i for i, v in enumerate(self.first) if v) + 1

    def numerators(self, y):
        """Numerators over `den` of the x with A x = y on all sampled
        rows, or None when y is outside the span."""
        for z in self.kernel:
            if sum(map(mul, z, y)):
                return None
        return [sum(map(mul, row, y)) for row in self.left_inverse]

    def eisenstein_numerators(self, y):
        """Numerators over `den` of the Eisenstein coordinates of y, or
        None unless y is in the span with every cusp numerator zero."""
        for z in self.eisenstein_kernel:
            if sum(map(mul, z, y)):
                return None
        return [sum(map(mul, row, y)) for row in self.left_inverse[: self.ne]]


_SOLVERS: dict = {}  # discriminant -> _SpanSolver


def span_solver(disc: int) -> _SpanSolver:
    """The solver of a space's whole basis, built on first use.

    Its table of column coefficients runs through CHECK_PRECISION: census
    hits are verified that far, derive_formula solves at this precision
    by default, and rep_count_formula reads it below q^61.
    """
    got = _SOLVERS.get(disc)
    if got is None:
        ne = len(build_basis(disc).eisenstein)
        got = _SOLVERS[disc] = _SpanSolver(basis_expansions(disc, CHECK_PRECISION), ne)
    return got


def solve_in_basis(f: QSeries, disc: int):
    """Coordinates of f in the basis of the chi(disc) space, or ValueError.

    Solves on the thirteen coefficients q^0..q^12 and then insists that
    every further coefficient known to f agrees; membership claimed by
    the return value is exact, not truncated.  Through q^60 the check
    reads the solver's table; a longer f is checked against a table of
    the basis expansions at its own precision.
    """
    if not f.is_integer_q():
        raise ValueError("series has fractional exponents; not in this space")
    rows = sturm_bound() + 1
    prec = f.qprecision()
    if prec < rows:
        raise ValueError("need at least %d known coefficients, got %d" % (rows, prec))
    solver = span_solver(disc)
    nums = solver.numerators(f.qcoeffs(rows))
    if nums is None:
        raise ValueError("no unique representation in this basis (%s)" % INCONSISTENT)
    table = solver.table
    if prec > len(table):
        table = coefficient_rows(basis_expansions(disc, prec), prec)
    n = first_deviation(f, nums, table, rows, prec, solver.den)
    if n is not None:
        raise ValueError(
            "not in the space: coefficient of q^%d deviates from the "
            "unique Sturm-bound candidate" % n
        )
    return tuple(Fraction(v, solver.den) for v in nums)
