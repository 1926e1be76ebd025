"""Bases for the four weight-3 spaces on Gamma_0(24) with real character.

Each space M_3(Gamma_0(24), chi) for chi in {chi(-3), chi(-4), chi(-8),
chi(-24)} splits into an Eisenstein part, spanned by scaled series
E3[chi,psi](tz), and a cusp part spanned by eta quotients of level 24
whose orders at infinity are pairwise distinct.  A form known through
q^12 (the Sturm bound for weight 3 and index 48) is pinned down here:
solving on thirteen coefficients identifies it, and any further known
coefficients are then verified, not assumed.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .arith import ExactMatrix, INCONSISTENT
from .characters import DirichletChar, chi
from .eisenstein import EisensteinSpec, eisenstein3
from .etaq import EtaQuotient, ModularityReport, ligozat_check
from .qseries import GRADE, QSeries, eta_quotient_expansion

__all__ = [
    "SpaceBasis",
    "BasisReport",
    "build_basis",
    "basis_expansions",
    "cusp_expansions",
    "verify_basis",
    "solve_in_basis",
    "first_deviation",
    "sturm_bound",
    "SPACE_DISCRIMINANTS",
]

SPACE_DISCRIMINANTS = (-3, -4, -8, -24)

_GAMMA0_24_INDEX = 48


def sturm_bound() -> int:
    """Coefficient bound q^0..q^bound determining a form: 3*48/12 = 12."""
    return 3 * _GAMMA0_24_INDEX // 12


# Eisenstein scale sets: E3[chi,1](tz) and E3[1,chi](tz) over these t
_EIS_SCALES = {-3: (1, 2, 4, 8), -4: (1, 2, 3, 6), -8: (1, 3)}

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

    def labels(self) -> tuple:
        return tuple(s.label() for s in self.eisenstein) + tuple(
            f.label() for f in self.cusp
        )


def build_basis(disc: int) -> SpaceBasis:
    """Basis of M_3(Gamma_0(24), chi(disc)) for disc in -3, -4, -8, -24."""
    if disc not in SPACE_DISCRIMINANTS:
        raise ValueError("no space for discriminant %d; use one of %s"
                         % (disc, (SPACE_DISCRIMINANTS,)))
    trivial = chi(1)
    main = chi(disc)
    if disc == -24:
        eis = (
            EisensteinSpec(main, trivial, 1),
            EisensteinSpec(trivial, main, 1),
            EisensteinSpec(chi(-3), chi(8), 1),
            EisensteinSpec(chi(8), chi(-3), 1),
        )
    else:
        scales = _EIS_SCALES[disc]
        eis = tuple(EisensteinSpec(main, trivial, t) for t in scales) + tuple(
            EisensteinSpec(trivial, main, t) for t in scales
        )
    cusp = tuple(EtaQuotient(24, exps) for exps in _CUSP_EXPONENTS[disc])
    return SpaceBasis(character=main, eisenstein=eis, cusp=cusp)


_EXPANSIONS: dict = {}


def basis_expansions(basis: SpaceBasis, precision: int):
    """QSeries for every basis element, q^0..q^(precision-1) known."""
    key = (basis.character.discriminant, precision)
    got = _EXPANSIONS.get(key)
    if got is None:
        eis = [eisenstein3(s.chi, s.psi, s.t, precision) for s in basis.eisenstein]
        cusp = [eta_quotient_expansion(f, GRADE * precision) for f in basis.cusp]
        got = tuple(eis + cusp)
        _EXPANSIONS[key] = got
    return got


_CUSP: dict = {}  # discriminant -> cusp expansions at the largest precision asked


def cusp_expansions(basis: SpaceBasis, precision: int):
    """QSeries for the cusp elements, q^0..q^(precision-1) known at least.

    One tuple is kept per space and rebuilt only when a larger precision
    is asked for; the eta-quotient kernel then resumes its cached
    coefficients instead of starting over.  Readers truncate at their
    own precision.
    """
    disc = basis.character.discriminant
    got = _CUSP.get(disc)
    if got is None or got[0].qprecision() < precision:
        got = tuple(eta_quotient_expansion(f, GRADE * precision) for f in basis.cusp)
        _CUSP[disc] = got
    return got


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
    exps = basis_expansions(basis, rows)
    mat = ExactMatrix.from_rows(
        [[e.qcoeff(n) for e in exps] for n in range(rows)]
    )
    rank = mat.rank()
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


def first_deviation(f: QSeries, coords, expansions, start: int, stop: int, den=1):
    """First n in [start, stop) where den * f and sum(coords * expansions)
    differ, or None when they agree on every coefficient checked.

    With integer numerators `coords` over a common denominator `den` and
    integer series, every comparison is integer arithmetic.
    """
    for n in range(start, stop):
        acc = 0
        for x, e in zip(coords, expansions):
            if x:
                acc = acc + x * e.qcoeff(n)
        if acc != den * f.qcoeff(n):
            return n
    return None


class _SpanSolver:
    """Exact membership test for the span of fixed series columns.

    With A the matrix of the columns on the sampled q-exponents `rows`,
    one Gauss-Jordan pass (ExactMatrix.left_factor) gives a basis of the
    left kernel {z : z A = 0}, each row scaled to integers, and a left
    inverse L (L A = I) kept as an integer matrix over one denominator
    `den`.  A candidate y lies in the span exactly when every kernel row
    is orthogonal to it; its coordinates are then the numerators L y
    over den.  On integer y every test is integer arithmetic, and so is
    the verification of a hit past the sampled rows against the columns,
    which are kept whole for it: den * a(n) == sum num_i col_i(n).
    """

    def __init__(self, columns, rows):
        self.columns = columns
        self.rows = rows
        self.samples = [[c.qcoeff(n) for c in columns] for n in rows]
        inverse, kernel = ExactMatrix.from_rows(self.samples).left_factor()
        self.kernel = []
        for z in kernel:
            m = lcm(*(v.denominator for v in z))
            self.kernel.append([int(v * m) for v in z])
        self.den = lcm(*(v.denominator for row in inverse for v in row))
        self.left_inverse = [[int(v * self.den) for v in row] for row in inverse]

    def numerators(self, y):
        """Numerators over `den` of the x with A x = y on all sampled
        rows, or None when y is outside the span."""
        for z in self.kernel:
            if sum(map(mul, z, y)):
                return None
        return [sum(map(mul, row, y)) for row in self.left_inverse]

    def solve(self, y):
        """Coordinates x with A x = y on all sampled rows, or None."""
        nums = self.numerators(y)
        if nums is None:
            return None
        return tuple(Fraction(v, self.den) for v in nums)


_SOLVERS: dict = {}  # (discriminant, part) -> _SpanSolver


def span_solver(disc: int, part: str) -> _SpanSolver:
    """The solver of one column set of a space, built on first use.

    part "basis" is every basis element and "eisenstein" the Eisenstein
    elements, both sampled on q^0..q^12; "cusp" is the cusp elements on
    q^1..q^12, where they all vanish at q^0.
    """
    got = _SOLVERS.get((disc, part))
    if got is None:
        basis = build_basis(disc)
        rows = sturm_bound() + 1
        if part == "cusp":
            cusp = cusp_expansions(basis, rows)
            got = _SpanSolver(tuple(e.truncated(GRADE * rows) for e in cusp), range(1, rows))
        else:
            # through q^60: census hits are verified that far, and
            # derive_formula solves at this precision by default
            columns = basis_expansions(basis, 61)
            if part == "eisenstein":
                columns = columns[: len(basis.eisenstein)]
            got = _SpanSolver(columns, range(rows))
        _SOLVERS[disc, part] = got
    return got


def solve_in_basis(f: QSeries, basis: SpaceBasis):
    """Coordinates of f in the given basis, or ValueError.

    Solves on the thirteen coefficients q^0..q^12 and then insists that
    every further coefficient known to f agrees; membership claimed by
    the return value is exact, not truncated.
    """
    if not f.is_integer_q():
        raise ValueError("series has fractional exponents; not in this space")
    rows = sturm_bound() + 1
    prec = f.qprecision()
    if prec < rows:
        raise ValueError("need at least %d known coefficients, got %d" % (rows, prec))
    solver = span_solver(basis.character.discriminant, "basis")
    nums = solver.numerators([f.qcoeff(n) for n in range(rows)])
    if nums is None:
        raise ValueError("no unique representation in this basis (%s)" % INCONSISTENT)
    n = first_deviation(f, nums, basis_expansions(basis, prec), rows, prec, solver.den)
    if n is not None:
        raise ValueError(
            "not in the space: coefficient of q^%d deviates from the "
            "unique Sturm-bound candidate" % n
        )
    return tuple(Fraction(v, solver.den) for v in nums)
