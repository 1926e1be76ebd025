"""Census of holomorphic eta quotients in the weight-3 spaces on Gamma_0(24).

A level-24 eta quotient has eight exponents r_delta, one per divisor,
and its cusp orders scaled by 24 are w = B r for a fixed integer pairing
matrix B.  Every column of B sums to 48, so weight 3 (sum(r) = 6) is the
same as sum(w) = 288, holomorphy is w >= 0, and the two integrality
conditions say the orders at the cusps 1 and 1/24 are whole numbers,
i.e. 24 | w there.  The census therefore walks the lattice {B r} inside
the simplex {w >= 0, sum(w) = 288}: a triangular basis of the lattice
turns the simplex into nested integer intervals, the two mod-24 rows
come first so their congruences prune at the top of the search, and
every hit is re-checked with ligozat_check.

The module also decides which members lie in the Eisenstein span of
their space, reading each member's coefficients only as far as the test
needs them from one expansion of its own that bypasses the kernel cache
of qseries, and verifies the displayed identities, each a quotient
written as a combination of twisted Eisenstein series E3[chi,psi](tz),
in integers; their constant terms follow from the series.  A space is
named by its discriminant, one of SPACE_DISCRIMINANTS, and checked by
`spaces.check_discriminant`.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .arith import common_denominator
from .characters import DirichletChar, chi
from .eisenstein import eisenstein3
from .etaq import EtaQuotient, _order_weights, divisors, ligozat_check, parse_eta
from .qseries import GRADE, QSeries, _extend, eta_quotient_expansion
# _SOLVERS, the shared solver cache, stays readable here: perfbench counts it
from .spaces import (
    CHECK_PRECISION,
    SPACE_DISCRIMINANTS,
    _SOLVERS,
    check_discriminant,
    coefficient_rows,
    first_deviation,
    span_solver,
    sturm_bound,
)

__all__ = [
    "CensusResult",
    "enumerate_space",
    "eisenstein_expressible",
    "RemarkIdentity",
    "REMARK_IDENTITIES",
    "IdentityReport",
    "verify_remark_identities",
    "CrosscheckResult",
    "census_crosscheck",
]

DIVISORS24 = tuple(divisors(24))  # (1, 2, 3, 4, 6, 8, 12, 24)


def _order_matrix():
    """24 times the cusp-order pairing: rows cusps c | 24, columns delta | 24.

    Entry [c][delta] is 24 * (order at 1/c of eta(delta z)), that is
    24 w // den for the order weights w and denominator den of `etaq`;
    every column sums to 48, so the eight orders of a weight-3 quotient
    always total 12.
    """
    rows = []
    for weights, den in _order_weights(24).values():
        if any(24 * w % den for w in weights):
            raise AssertionError("non-integral scaled cusp order")
        rows.append([24 * w // den for w in weights])
    return rows


B_MATRIX = _order_matrix()

if any(sum(col) != 48 for col in zip(*B_MATRIX)):
    raise AssertionError("cusp-order columns must sum to 48")
if B_MATRIX[-1] != list(DIVISORS24):
    raise AssertionError("cusp 1/24 order must read off sum(delta r_delta)")
if B_MATRIX[0] != [24 // d for d in DIVISORS24]:
    raise AssertionError("cusp 1/1 order must read off sum((24/delta) r_delta)")


# cusps 1 and 24 first: their scaled orders carry the mod-24 conditions
_ROW_ORDER = (0, 7, 1, 2, 3, 4, 5, 6)


def _triangular_basis():
    """Lower-triangular basis of the scaled-order lattice {B r : r in Z^8}.

    Integer column operations bring the row-permuted B to a triangular H
    with positive diagonal while a unimodular U tracks them, so H x and
    U x run over all matching (w, r) pairs as x runs over Z^8.
    """
    n = len(DIVISORS24)
    H = [list(B_MATRIX[i]) for i in _ROW_ORDER]
    U = [[int(i == j) for j in range(n)] for i in range(n)]

    def colop(a, b, q):  # col_a += q * col_b
        for M in (H, U):
            for row in M:
                row[a] += q * row[b]

    for i in range(n):
        while True:
            nz = [j for j in range(i, n) if H[i][j]]
            if not nz:
                raise AssertionError("cusp-order pairing is singular")
            piv = min(nz, key=lambda j: abs(H[i][j]))
            if piv != i:
                for M in (H, U):
                    for row in M:
                        row[i], row[piv] = row[piv], row[i]
            others = [j for j in range(i + 1, n) if H[i][j]]
            if not others:
                break
            for j in others:
                colop(j, i, -(H[i][j] // H[i][i]))
        if H[i][i] < 0:
            for M in (H, U):
                for row in M:
                    row[i] = -row[i]
    for i in range(n):
        for j in range(n):
            got = sum(B_MATRIX[_ROW_ORDER[i]][k] * U[k][j] for k in range(n))
            if got != H[i][j]:
                raise AssertionError("lattice basis does not match the pairing")
    return H, U


_W_FROM_X, _R_FROM_X = _triangular_basis()

# sum(r) = s . x with s the column sums of U; the coordinates after
# _SUM_LEVEL all have coefficients divisible by _SUM_MOD, so weight 3
# (sum(r) = 6) already fixes x at that level modulo _SUM_MOD
_SUM_COEFFS = tuple(map(sum, zip(*_R_FROM_X)))  # (1, -5, 3, -3, 1, 0, 0, 2)
_SUM_LEVEL = max(
    j for j in range(len(DIVISORS24) - 1)
    if _SUM_COEFFS[j] % gcd(*_SUM_COEFFS[j + 1:])
)
_SUM_MOD = gcd(*_SUM_COEFFS[_SUM_LEVEL + 1:])
if _SUM_LEVEL < 2 or _SUM_MOD < 2:
    raise AssertionError("weight congruence must fall below the mod-24 rows")


def _progression(base, coeff, mod, lo):
    """(first x >= lo, stride) of the x with base + coeff x = 0 mod `mod`, or None."""
    g = gcd(coeff, mod)
    if base % g:
        return None
    stride = mod // g
    first = (-(base // g) * pow(coeff // g, -1, stride)) % stride
    return lo + (first - lo) % stride, stride


def _census_exponents():
    """All exponent tuples (divisor order) passing the integer conditions.

    Walks x coordinate by coordinate: w_j = sum_k H[j][k] x_k must stay
    in [0, budget] where the budget is 288 minus the orders already
    spent, rows 0 and 1 additionally need 24 | w_j, and the last row is
    forced to spend the budget exactly.  The budget is spent exactly when
    sum(r) = 6, so level _SUM_LEVEL walks only the x that keep that
    possible.  The partial sums w = H x and r = U x over the coordinates
    chosen so far travel down the recursion, so each step adds one column
    of H and of U.
    """
    H, U = _W_FROM_X, _R_FROM_X
    n = len(DIVISORS24)
    h_cols = list(zip(*H))
    u_cols = list(zip(*U))
    last = n - 1
    out = []

    def walk(j, w, r, used):
        base = w[j]
        diag = H[j][j]
        budget = 288 - used
        lo = -(base // diag)
        hi = (budget - base) // diag
        if j < 2:
            start = _progression(base, diag, 24, lo)
        elif j == _SUM_LEVEL:
            start = _progression(sum(r) - 6, _SUM_COEFFS[j], _SUM_MOD, lo)
        else:
            start = lo, 1
        if start is None:
            return
        lo, stride = start
        h, u = h_cols[j], u_cols[j]
        if j == last - 1:
            # x_last is forced: w_last must equal what is left of the budget
            w_last, h_last, u_last, d_last = w[last], h[last], u_cols[last], H[last][last]
            for xj in range(lo, hi + 1, stride):
                x, rem = divmod(budget - base - diag * xj - w_last - h_last * xj, d_last)
                if not rem:
                    out.append(tuple(a + xj * b + x * c for a, b, c in zip(r, u, u_last)))
            return
        for xj in range(lo, hi + 1, stride):
            walk(
                j + 1,
                [a + xj * b for a, b in zip(w, h)],
                [a + xj * b for a, b in zip(r, u)],
                used + base + diag * xj,
            )

    walk(0, [0] * n, [0] * n, 0)
    return out


_CENSUS = None


def _census_all():
    """Census bucketed by character discriminant; every member re-checked."""
    global _CENSUS
    if _CENSUS is not None:
        return _CENSUS
    buckets = {d: [] for d in SPACE_DISCRIMINANTS}
    for exps in _census_exponents():
        f = EtaQuotient(24, exps)
        rep = ligozat_check(f)
        if not rep.is_holomorphic or sum(f.exponents) != 6:  # weight 3
            raise AssertionError("census emitted a non-member: %s" % f.label())
        buckets[rep.character.discriminant].append(f)
    _CENSUS = {d: tuple(sorted(m, key=lambda q: q.exponents)) for d, m in buckets.items()}
    return _CENSUS


# ---------------------------------------------------------------------------
# Eisenstein span membership
# ---------------------------------------------------------------------------

def eisenstein_expressible(f: EtaQuotient, disc: int):
    """Coordinates of f over the Eisenstein part of the chi(disc) space,
    or None.

    A quotient of fractional or negative order at infinity is not in
    the space, and neither is one that vanishes through the Sturm bound.
    Otherwise the test reads only as many coefficients as it needs, from
    one unit expansion that grows in place and never enters the kernel
    cache of qseries, and solves it in the one solver of its space:

    1. a quotient of order below the solver's `reach` is grown to
       q^(reach-1) and tested against `first`, the first row of the
       Eisenstein columns' left kernel, which rejects most;
    2. a survivor is grown to the Sturm bound q^12; it is a hit when it
       lies in the span of the whole basis and all its cusp numerators
       are zero (`eisenstein_numerators`);
    3. a hit is grown to q^60 and verified there in integers.

    A mismatch anywhere returns None.
    """
    check_discriminant(disc)
    key = tuple((d, r) for d, r in f.items() if r)
    val = sum(d * r for d, r in key)
    if val % GRADE:
        return None
    rows = sturm_bound() + 1
    lead = val // GRADE
    if not 0 <= lead < rows:
        return None
    solver = span_solver(disc)
    a, g = [1], [0]
    if lead < solver.reach:
        _extend(key, a, g, solver.reach - lead)
        if sum(map(mul, solver.first[lead:], a)):
            return None
    _extend(key, a, g, rows - lead)
    nums = solver.eisenstein_numerators([0] * lead + a)
    if nums is None:
        return None
    _extend(key, a, g, CHECK_PRECISION - lead)
    full = QSeries(a, CHECK_PRECISION, val)
    if first_deviation(full, nums, solver.table, rows, CHECK_PRECISION, solver.den) is not None:
        return None
    return tuple(Fraction(v, solver.den) for v in nums)


@dataclass(frozen=True)
class CensusResult:
    """One space's census: members plus the Eisenstein-expressible ones."""

    character: DirichletChar
    members: tuple  # of EtaQuotient
    eisenstein_expressible: tuple  # of (EtaQuotient, coordinate tuple)


def enumerate_space(disc: int) -> CensusResult:
    """Census of M_3(Gamma_0(24), chi(disc)) for one of the four
    discriminants."""
    check_discriminant(disc)
    members = _census_all()[disc]
    hits = []
    for f in members:
        coords = eisenstein_expressible(f, disc)
        if coords is not None:
            hits.append((f, coords))
    return CensusResult(
        character=chi(disc), members=members, eisenstein_expressible=tuple(hits)
    )


# ---------------------------------------------------------------------------
# the displayed identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemarkIdentity:
    """One quotient written as a combination of twisted Eisenstein series.

    The right side is scale * sum over terms of c * E3[chi,psi](t z),
    from q^0 on, so its constant term is that of the series:
    -B_{3,chi}/6 for psi trivial, 0 otherwise.
    """

    label: str
    scale: Fraction
    terms: tuple  # of (c, chi discriminant, psi discriminant, t)


REMARK_IDENTITIES = (
    RemarkIdentity("eta3[-3,9]", Fraction(1), ((1, 1, -3, 1),)),
    RemarkIdentity("eta6[-4,5,4,1]", Fraction(1), ((1, 1, -3, 1), (1, 1, -3, 2))),
    RemarkIdentity("eta6[4,1,-4,5]", Fraction(1), ((1, -3, 1, 1), (-1, -3, 1, 2))),
    RemarkIdentity("eta4[-4,6,4]", Fraction(1), ((1, 1, -4, 1),)),
    RemarkIdentity("eta8[-4,2,16,-8]", Fraction(4), ((1, 1, -4, 1), (-1, -4, 1, 2))),
    RemarkIdentity("eta4[-12,30,-12]", Fraction(4), ((4, 1, -4, 1), (-1, -4, 1, 1))),
    RemarkIdentity("eta4[4,-6,8]", Fraction(1), ((1, 1, -4, 1), (-8, 1, -4, 2))),
    RemarkIdentity("eta4[-4,18,-8]", Fraction(4), ((1, -4, 1, 1), (-2, -4, 1, 2))),
    RemarkIdentity("eta8[-2,-5,23,-10]", Fraction(2, 3), ((4, 1, -8, 1), (-1, -8, 1, 1))),
)


def _rhs_terms(identities, precision: int):
    """(numerators, rows, den) of each identity's right side: scale * c =
    num / den per term, and row n the q^n coefficients of the terms'
    E3[chi,psi](t z), n < precision.  Each distinct (chi, psi, t) is
    expanded once for all the identities."""
    keys = {(cd, pd, t) for ident in identities for _, cd, pd, t in ident.terms}
    e3 = {k: eisenstein3(chi(k[0]), chi(k[1]), k[2], precision) for k in keys}
    for ident in identities:
        den, nums = common_denominator(ident.scale * c for c, _, _, _ in ident.terms)
        rows = coefficient_rows([e3[cd, pd, t] for _, cd, pd, t in ident.terms], precision)
        yield nums, rows, den


def remark_rhs(identity: RemarkIdentity, precision: int) -> QSeries:
    """Right-hand side of one identity, q^0..q^(precision-1) known."""
    [(nums, rows, den)] = _rhs_terms((identity,), precision)
    return QSeries(
        [Fraction(sum(map(mul, nums, row)), den) or 0 for row in rows],
        precision,
    )


@dataclass(frozen=True)
class IdentityReport:
    label: str
    precision: int
    holds: bool
    first_mismatch: int | None


def verify_remark_identities(precision: int = CHECK_PRECISION):
    """Check every displayed identity coefficient by coefficient.

    The check is the integer one of `solve_in_basis`: den * a(n) ==
    sum num * E3(n) from q^0 on, with num/den the products scale * c,
    read as rows of the E3 series, each distinct E3[chi,psi](tz)
    expanded once for all the identities.
    """
    reports = []
    rhs = _rhs_terms(REMARK_IDENTITIES, precision)
    for ident, (nums, rows, den) in zip(REMARK_IDENTITIES, rhs):
        lhs = eta_quotient_expansion(parse_eta(ident.label), precision)
        mismatch = first_deviation(lhs, nums, rows, 0, precision, den)
        reports.append(
            IdentityReport(
                label=ident.label,
                precision=precision,
                holds=mismatch is None,
                first_mismatch=mismatch,
            )
        )
    return tuple(reports)


# ---------------------------------------------------------------------------
# randomized completeness crosscheck
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrosscheckResult:
    samples: int
    fibers: tuple  # of (r2, r3, r4, r6, r8)
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _brute_fiber(fiber):
    """All members over one (r2,r3,r4,r6,r8) fiber, by direct testing.

    With the fiber fixed and r24 eliminated by the weight, the scaled
    orders at the cusps 1 and 1/24 read 23*r1 + r12 + a and
    -23*r1 - 12*r12 + b; both lie in [0, 288] for any member, which
    boxes in the free pair.  Every integer point of the box is then
    tested against the raw mod-24 conditions and all eight inequalities,
    with no lattice or congruence shortcuts.
    """
    r2, r3, r4, r6, r8 = fiber
    s = r2 + r3 + r4 + r6 + r8
    a = 6 + 11 * r2 + 7 * r3 + 5 * r4 + 3 * r6 + 2 * r8
    b = 144 - 22 * r2 - 21 * r3 - 20 * r4 - 18 * r6 - 16 * r8
    found = set()
    # 12 * order(1) + order(1/24) = 253*r1 + 12*a + b, in [0, 13 * 288]
    for r1 in range(-((12 * a + b) // 253), (3744 - 12 * a - b) // 253 + 1):
        lo12 = max(-a - 23 * r1, -((288 - b + 23 * r1) // 12))
        hi12 = min(288 - a - 23 * r1, (b - 23 * r1) // 12)
        for r12 in range(lo12, hi12 + 1):
            r24 = 6 - s - r1 - r12
            exps = (r1, r2, r3, r4, r6, r8, r12, r24)
            if sum(d * r for d, r in zip(DIVISORS24, exps)) % 24 != 0:
                continue
            if sum((24 // d) * r for d, r in zip(DIVISORS24, exps)) % 24 != 0:
                continue
            if any(
                sum(c * r for c, r in zip(brow, exps)) < 0 for brow in B_MATRIX
            ):
                continue
            found.add(exps)
    return found


def census_crosscheck(samples: int = 40, seed: int = 24) -> CrosscheckResult:
    """Compare the census against brute force on random exponent fibers.

    Half the fibers are prefixes of actual members, half are drawn from
    the surrounding box, so the lattice walk is checked on occupied and
    on empty fibers by an enumeration that never touches the lattice.
    """
    rng = random.Random(seed)
    members = _census_all()
    by_fiber = {}
    for quotients in members.values():
        for f in quotients:
            r = f.exponents
            by_fiber.setdefault((r[1], r[2], r[3], r[4], r[5]), set()).add(r)
    keys = sorted(by_fiber)
    box = [
        (min(k[i] for k in keys) - 2, max(k[i] for k in keys) + 2)
        for i in range(5)
    ]
    fibers = [keys[rng.randrange(len(keys))] for _ in range(samples // 2)]
    while len(fibers) < samples:
        fibers.append(tuple(rng.randint(lo, hi) for lo, hi in box))
    mismatches = []
    for fiber in fibers:
        expected = set(by_fiber.get(fiber, ()))
        got = _brute_fiber(fiber)
        if got != expected:
            mismatches.append((fiber, tuple(sorted(got ^ expected))))
    return CrosscheckResult(
        samples=len(fibers), fibers=tuple(fibers), mismatches=tuple(mismatches)
    )
