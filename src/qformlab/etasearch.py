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
their space and verifies the classical q-series identities relating
particular quotients to twisted divisor sums.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .characters import DirichletChar, chi, sigma_twisted
from .etaq import EtaQuotient, character_of, cusp_order, divisors, ligozat_check, parse_eta
from .qseries import GRADE, QSeries, eta_quotient_expansion, eta_unit_coeffs
# _SOLVERS, the shared solver cache, stays readable here: perfbench counts it
from .spaces import SPACE_DISCRIMINANTS, _SOLVERS, _SpanSolver, first_deviation, span_solver, sturm_bound

__all__ = [
    "CensusResult",
    "enumerate_space",
    "census_counts",
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

    Entry [c][delta] is 24 * (order at 1/c of eta(delta z)); every column
    sums to 48, so the eight orders of a weight-3 quotient always total 12.
    """
    rows = []
    for c in DIVISORS24:
        row = []
        for i, d in enumerate(DIVISORS24):
            exps = [0] * 8
            exps[i] = 1
            v = 24 * cusp_order(EtaQuotient(24, exps), c)
            if v.denominator != 1:
                raise AssertionError("non-integral scaled cusp order")
            row.append(v.numerator)
        rows.append(row)
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


def _census_exponents():
    """All exponent tuples (divisor order) passing the integer conditions.

    Walks x coordinate by coordinate: w_j = sum_k H[j][k] x_k must stay
    in [0, budget] where the budget is 288 minus the orders already
    spent, rows 0 and 1 additionally need 24 | w_j, and the last row is
    forced to spend the budget exactly.  The partial sums w = H x and
    r = U x over the coordinates chosen so far travel down the
    recursion, so each step adds one column of H and of U.
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
        stride = 1
        if j < 2:
            g = gcd(diag, 24)
            if base % g:
                return
            stride = 24 // g
            if stride > 1:
                first = (-(base // g) * pow(diag // g, -1, stride)) % stride
                lo += (first - lo) % stride
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
        if not rep.is_holomorphic or rep.weight != 3:
            raise AssertionError("census emitted a non-member: %s" % f.label())
        buckets[rep.character.discriminant].append(f)
    _CENSUS = {d: tuple(sorted(m, key=lambda q: q.exponents)) for d, m in buckets.items()}
    return _CENSUS


def _as_disc(char) -> int:
    if isinstance(char, DirichletChar):
        disc = char.discriminant
    else:
        disc = int(char)
    if disc not in SPACE_DISCRIMINANTS:
        raise ValueError(
            "no census space for %r; discriminant must be one of %s"
            % (char, (SPACE_DISCRIMINANTS,))
        )
    return disc


# ---------------------------------------------------------------------------
# Eisenstein span membership
# ---------------------------------------------------------------------------

def _solver_for(disc: int) -> _SpanSolver:
    """The shared solver over the Eisenstein columns of one space."""
    return span_solver(disc, "eisenstein")


def eisenstein_expressible(f: EtaQuotient, char=None):
    """Coordinates of f over the Eisenstein part of its space, or None.

    A quotient of fractional or negative order at infinity is not in
    the space, and neither is one that vanishes through the Sturm bound.
    Otherwise the candidate is tested on q^0..q^12, read straight from
    the integer eta kernel, and a hit is re-verified through q^60 by
    resuming that expansion; a mismatch anywhere returns None.
    """
    val = f.valuation24()
    if val % GRADE:
        return None
    disc = _as_disc(character_of(f) if char is None else char)
    rows = sturm_bound() + 1
    lead = val // GRADE
    if not 0 <= lead < rows:
        return None
    solver = _solver_for(disc)
    nums = solver.numerators([0] * lead + eta_unit_coeffs(f.items(), rows - lead))
    if nums is None:
        return None
    full = eta_quotient_expansion(f, GRADE * 61)
    if first_deviation(full, nums, solver.columns, rows, 61, solver.den) is not None:
        return None
    return tuple(Fraction(v, solver.den) for v in nums)


@dataclass(frozen=True)
class CensusResult:
    """One space's census: members plus the Eisenstein-expressible ones."""

    character: DirichletChar
    members: tuple  # of EtaQuotient
    eisenstein_expressible: tuple  # of (EtaQuotient, coordinate tuple)


def enumerate_space(char) -> CensusResult:
    """Census of M_3(Gamma_0(24), chi) for one of the four characters."""
    disc = _as_disc(char)
    members = _census_all()[disc]
    hits = []
    for f in members:
        coords = eisenstein_expressible(f, disc)
        if coords is not None:
            hits.append((f, coords))
    return CensusResult(
        character=chi(disc), members=members, eisenstein_expressible=tuple(hits)
    )


def census_counts():
    """(member count, expressible count) per discriminant, full census."""
    return {
        disc: (
            len(result.members),
            len(result.eisenstein_expressible),
        )
        for disc in SPACE_DISCRIMINANTS
        for result in (enumerate_space(disc),)
    }


# ---------------------------------------------------------------------------
# the displayed identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemarkIdentity:
    """One quotient written in twisted divisor sums.

    Coefficient of q^n on the right for n >= 1 is
    scale * sum over terms of c * sigma_(2,chi,psi)(n/t), the term
    contributing only when t divides n; `constant` is the q^0 term.
    """

    label: str
    constant: Fraction
    scale: Fraction
    terms: tuple  # of (c, chi discriminant, psi discriminant, t)


REMARK_IDENTITIES = (
    RemarkIdentity("eta3[-3,9]", Fraction(0), Fraction(1), ((1, 1, -3, 1),)),
    RemarkIdentity(
        "eta6[-4,5,4,1]", Fraction(0), Fraction(1),
        ((1, 1, -3, 1), (1, 1, -3, 2)),
    ),
    RemarkIdentity(
        "eta6[4,1,-4,5]", Fraction(0), Fraction(1),
        ((1, -3, 1, 1), (-1, -3, 1, 2)),
    ),
    RemarkIdentity("eta4[-4,6,4]", Fraction(0), Fraction(1), ((1, 1, -4, 1),)),
    RemarkIdentity(
        "eta8[-4,2,16,-8]", Fraction(1), Fraction(4),
        ((1, 1, -4, 1), (-1, -4, 1, 2)),
    ),
    RemarkIdentity(
        "eta4[-12,30,-12]", Fraction(1), Fraction(4),
        ((4, 1, -4, 1), (-1, -4, 1, 1)),
    ),
    RemarkIdentity(
        "eta4[4,-6,8]", Fraction(0), Fraction(1),
        ((1, 1, -4, 1), (-8, 1, -4, 2)),
    ),
    RemarkIdentity(
        "eta4[-4,18,-8]", Fraction(1), Fraction(4),
        ((1, -4, 1, 1), (-2, -4, 1, 2)),
    ),
    RemarkIdentity(
        "eta8[-2,-5,23,-10]", Fraction(1), Fraction(2, 3),
        ((4, 1, -8, 1), (-1, -8, 1, 1)),
    ),
)


def remark_rhs(identity: RemarkIdentity, precision: int) -> QSeries:
    """Right-hand side of one identity, q^0..q^(precision-1) known."""
    terms = [(0, identity.constant)]
    for n in range(1, precision):
        acc = Fraction(0)
        for c, cd, pd, t in identity.terms:
            if n % t == 0:
                acc += c * sigma_twisted(2, chi(cd), chi(pd), n // t)
        terms.append((GRADE * n, identity.scale * acc))
    return QSeries.from_terms(terms, GRADE * precision)


@dataclass(frozen=True)
class IdentityReport:
    label: str
    precision: int
    holds: bool
    first_mismatch: int | None


def verify_remark_identities(precision: int = 61):
    """Check every displayed identity coefficient by coefficient."""
    reports = []
    for ident in REMARK_IDENTITIES:
        lhs = eta_quotient_expansion(parse_eta(ident.label), GRADE * precision)
        rhs = remark_rhs(ident, precision)
        mismatch = None
        for n in range(precision):
            if lhs.qcoeff(n) != rhs.qcoeff(n):
                mismatch = n
                break
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
