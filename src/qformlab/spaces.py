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

from .arith import ExactMatrix, UNIQUE
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


def first_deviation(f: QSeries, coords, expansions, start: int, stop: int):
    """First n in [start, stop) where f and sum(coords * expansions) differ.

    None when the two agree on every coefficient checked.
    """
    for n in range(start, stop):
        acc = 0
        for x, e in zip(coords, expansions):
            if x:
                acc = acc + x * e.qcoeff(n)
        if acc != f.qcoeff(n):
            return n
    return None


def solve_in_basis(f: QSeries, basis: SpaceBasis, expansions=None):
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
    if expansions is None:
        expansions = basis_expansions(basis, prec)
    avail = min(prec, min(e.qprecision() for e in expansions))
    mat = ExactMatrix.from_rows(
        [[e.qcoeff(n) for e in expansions] for n in range(rows)]
    )
    status, sol = mat.solve_linear([f.qcoeff(n) for n in range(rows)])
    if status != UNIQUE or sol is None:
        raise ValueError("no unique representation in this basis (%s)" % status)
    n = first_deviation(f, sol, expansions, rows, avail)
    if n is not None:
        raise ValueError(
            "not in the space: coefficient of q^%d deviates from the "
            "unique Sturm-bound candidate" % n
        )
    return tuple(sol)
