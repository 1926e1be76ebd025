"""Weight-3 newforms on Gamma_0(24) as combinations of the cusp bases.

Five newforms live in the three nontrivial cusp spaces: one with
character chi(-3) over Q(a) with a^2 - 2a + 9 = 0, one with chi(-8)
over a quartic field, and three with chi(-24), two rational and one
quartic.  Each is stored as its coordinate vector over the ordered
cusp basis of its space.  `check_eigenform` tests the Hecke relations
coefficient by coefficient, and `rederive_newform` recovers an
eigenform independently from a Hecke operator matrix, as a safety net
against transcription slips in the printed combinations.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import (
    ExactMatrix,
    INCONSISTENT,
    NumberField,
    UNIQUE,
    _poly_divmod,
    _poly_trim,
    minimal_polynomial,
)
from .characters import chi
from .etaq import divisors
from .qseries import GRADE, QSeries
from .spaces import build_basis, cusp_expansions, span_solver, sturm_bound

__all__ = [
    "K1",
    "K2",
    "K3",
    "NewformSpec",
    "NEWFORMS",
    "get_spec",
    "build_newform",
    "f1_reference",
    "solve_back_f1",
    "check_eigenform",
    "EigenformReport",
    "rederive_newform",
    "RederivedNewform",
]

K1 = NumberField((9, -2, 1))
K2 = NumberField((16, -8, 6, -2, 1))
K3 = NumberField((16, 0, 6, 0, 1))


@dataclass(frozen=True)
class NewformSpec:
    """Cusp-basis coordinates of one newform.

    Each combo entry lists rational coordinates against powers of the
    field generator (constant first); rational newforms use field None
    and single-entry combos.
    """

    name: str
    discriminant: int
    field: NumberField | None
    combo: tuple

    def scalars(self):
        """Combo entries materialized as field elements (or Fractions)."""
        if self.field is None:
            out = []
            for c in self.combo:
                (val,) = c
                out.append(Fraction(val))
            return tuple(out)
        return tuple(self.field.element(c) for c in self.combo)


NEWFORMS = (
    NewformSpec("f1", -3, K1, ((1,), (0,), (3, 1), (4,))),
    NewformSpec(
        "f2",
        -8,
        K2,
        (
            (1,),
            (2, 1),
            (0, Fraction(3, 2), Fraction(-1, 2), Fraction(1, 4)),
            (2, 5, 0, Fraction(1, 2)),
            (-2, -1, 0, Fraction(-1, 2)),
            (-4, 3, -1, Fraction(1, 2)),
        ),
    ),
    NewformSpec("f3", -24, None, ((1,), (-1,), (3,), (7,), (8,), (-4,))),
    NewformSpec("f4", -24, None, ((1,), (3,), (5,), (1,), (0,), (-4,))),
    NewformSpec(
        "f5",
        -24,
        K3,
        (
            (1,),
            (1, 1),
            (1, Fraction(3, 2), -1, Fraction(-1, 4)),
            (-3, Fraction(-1, 2), 0, Fraction(-1, 4)),
            (-6, 3, -1, Fraction(1, 2)),
            (6, 0, 1),
        ),
    ),
)


def get_spec(name: str) -> NewformSpec:
    for spec in NEWFORMS:
        if spec.name == name:
            return spec
    raise ValueError("unknown newform %r; have %s" % (name, [s.name for s in NEWFORMS]))


def _cusp_expansions(disc: int, precision: int):
    """The space basis and its cusp expansions cut to q^(precision-1)."""
    basis = build_basis(disc)
    return basis, tuple(
        e.truncated(GRADE * precision) for e in cusp_expansions(basis, precision)
    )


def _combine(scalars, cusp, precision: int) -> QSeries:
    """sum(scalars * cusp series), q^0..q^(precision-1) known."""
    total = QSeries.zero(GRADE * precision)
    for x, series in zip(scalars, cusp):
        if x:
            total = total + series.scale(x)
    return total


def build_newform(name: str, precision: int = 120) -> QSeries:
    """q-expansion of the combo, q^0..q^(precision-1) known."""
    spec = get_spec(name)
    _, cusp = _cusp_expansions(spec.discriminant, precision)
    return _combine(spec.scalars(), cusp, precision)


def f1_reference(precision: int = 10) -> QSeries:
    """The tabulated chi(-3) newform through q^9: q + a q^3 + (-2a+2) q^5
    - 6 q^7 + (2a-9) q^9, with a the K1 generator; even coefficients 0."""
    a = K1.generator()
    terms = [
        (1 * GRADE, K1.one()),
        (3 * GRADE, a),
        (5 * GRADE, -2 * a + 2),
        (7 * GRADE, -6 * a**0),
        (9 * GRADE, 2 * a - 9),
    ]
    return QSeries.from_terms(terms, GRADE * precision)


def solve_back_f1():
    """Recover the f1 combo from the ten reference coefficients alone."""
    ref = f1_reference(10)
    _, cusp = _cusp_expansions(-3, 10)
    mat = ExactMatrix.from_rows(
        [[e.qcoeff(n) for e in cusp] for n in range(10)]
    )
    status, sol = mat.solve_linear([ref.qcoeff(n) for n in range(10)])
    if status != UNIQUE:
        raise ValueError("reference coefficients do not pin the combo (%s)" % status)
    return tuple(sol)


@dataclass(frozen=True)
class EigenformReport:
    """Hecke checks for one claimed eigenform."""

    name: str
    precision: int
    a1_ok: bool
    pairs_checked: int
    multiplicative_failures: tuple  # ((m, n), ...)
    hecke_p2_ok: tuple  # ((p, bool), ...)

    @property
    def ok(self) -> bool:
        return (
            self.a1_ok
            and not self.multiplicative_failures
            and all(flag for _, flag in self.hecke_p2_ok)
        )


def check_eigenform(name: str, precision: int = 120) -> EigenformReport:
    """a(1) = 1, a(mn) = a(m)a(n) for coprime mn < precision, and
    a(p^2) = a(p)^2 - chi(p) p^2 for p = 5, 7."""
    spec = get_spec(name)
    f = build_newform(name, precision)
    a = [f.qcoeff(n) for n in range(precision)]
    return _hecke_report(name, a, chi(spec.discriminant), precision)


def _hecke_report(name: str, a, char, precision: int) -> EigenformReport:
    """Hecke checks on the coefficients a[0..precision-1] of one form."""
    failures = []
    pairs = 0
    for m in range(2, precision):
        if m * (m + 1) >= precision:
            break
        for n in range(m + 1, precision):
            if m * n >= precision:
                break
            if gcd(m, n) != 1:
                continue
            pairs += 1
            if a[m * n] != a[m] * a[n]:
                failures.append((m, n))
    p2 = []
    for p in (5, 7):
        if p * p < precision:
            p2.append((p, a[p * p] == a[p] * a[p] - char(p) * p * p))
    return EigenformReport(
        name=name,
        precision=precision,
        a1_ok=a[1] == 1,
        pairs_checked=pairs,
        multiplicative_failures=tuple(failures),
        hecke_p2_ok=tuple(p2),
    )


# ---------------------------------------------------------------------------
# independent rederivation from a Hecke operator matrix
# ---------------------------------------------------------------------------

def _hecke_matrix(disc: int, p: int) -> ExactMatrix:
    """Matrix of T_p on the cusp space, columns in cusp-basis coordinates.

    Every image is solved on q^1..q^12 by the cusp solver of the space,
    which is factored once and serves every p.
    """
    need = p * sturm_bound() + 1
    basis, cusp = _cusp_expansions(disc, need)
    char = basis.character
    nc = len(cusp)
    solver = span_solver(disc, "cusp")
    columns = []
    for series in cusp:
        image = []
        for n in solver.rows:
            b = series.qcoeff(p * n)
            if n % p == 0:
                b = b + char(p) * p * p * series.qcoeff(n // p)
            image.append(b)
        sol = solver.solve(image)
        if sol is None:
            raise ValueError("Hecke image left the cusp span (%s)" % INCONSISTENT)
        columns.append(sol)
    return ExactMatrix.from_rows(
        [[columns[j][i] for j in range(nc)] for i in range(nc)]
    )


def _charpoly(m: ExactMatrix):
    """Characteristic polynomial via Faddeev-LeVerrier; ascending, monic."""
    k = m.rows
    cur = [[m[i, j] for j in range(k)] for i in range(k)]
    cs = []
    for j in range(1, k + 1):
        tr = sum(cur[i][i] for i in range(k))
        cj = -tr / j
        cs.append(cj)
        if j < k:
            shifted = [
                [cur[r][c] + (cj if r == c else 0) for c in range(k)]
                for r in range(k)
            ]
            cur = [
                [
                    sum(m[r, t] * shifted[t][c] for t in range(k))
                    for c in range(k)
                ]
                for r in range(k)
            ]
    return tuple(reversed(cs)) + (Fraction(1),)


def _poly_eval(poly, x):
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _synthetic_divide(poly, r):
    """poly / (x - r) for an exact root r; ascending coefficients."""
    quot = [0] * (len(poly) - 1)
    carry = poly[-1]
    for i in range(len(poly) - 2, -1, -1):
        quot[i] = carry
        carry = poly[i] + carry * r
    if carry != 0:
        raise ValueError("not a root")
    return quot


def _peel_rational_roots(poly):
    """Split ascending monic integer poly into (roots, remaining factor)."""
    ints = []
    for c in poly:
        f = Fraction(c)
        if f.denominator != 1:
            raise ValueError("expected an integral characteristic polynomial")
        ints.append(f.numerator)
    roots = []
    while len(ints) > 1:
        c0 = ints[0]
        cand = [0] if c0 == 0 else []
        if c0 != 0:
            for d in divisors(abs(c0)):
                cand.extend((d, -d))
        hit = None
        for r in cand:
            if _poly_eval(ints, r) == 0:
                hit = r
                break
        if hit is None:
            break
        ints = _synthetic_divide(ints, hit)
        roots.append(hit)
    return roots, tuple(Fraction(c) for c in ints)


def _poly_gcd(a, b):
    """Monic gcd in Q[x]; inputs ascending coefficient sequences."""
    a = _poly_trim([Fraction(c) for c in a])
    b = _poly_trim([Fraction(c) for c in b])
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _squarefree_factor(poly):
    """poly / gcd(poly, poly'), monic: drops repeated roots.

    Eigenvalues of a Hecke operator can repeat across a conjugacy
    orbit, leaving the residual characteristic factor a perfect power;
    the eigenvalue's minimal polynomial is the squarefree part.
    """
    deriv = [i * c for i, c in enumerate(poly)][1:]
    g = _poly_gcd(poly, deriv)
    if len(g) <= 1:
        return tuple(Fraction(c) for c in poly)
    q, r = _poly_divmod(list(poly), g)
    if r:
        raise AssertionError("gcd must divide the polynomial")
    lead = q[-1]
    return tuple(c / lead for c in q)


@dataclass(frozen=True)
class RederivedNewform:
    """Eigenform recovered from a Hecke operator, for cross-checking."""

    name: str
    operator: tuple  # primes p whose T_p were summed; () when failed
    field_poly: tuple  # ascending monic; () when rederivation failed
    combo: tuple  # normalized cusp-basis coordinates over the new field
    report: EigenformReport | None
    printed_minpoly: tuple
    minpoly_match: bool
    note: str

    @property
    def ok(self) -> bool:
        return self.report is not None and self.report.ok


def _operator_label(ops) -> str:
    return "+".join("T_%d" % p for p in ops)


_OPERATORS = ((5,), (7,), (11,), (13,), (5, 13), (5, 7), (5, 11), (7, 13))


def rederive_newform(name: str, operators=_OPERATORS, precision: int = 120):
    """Recover the non-rational newform of a space without using its combo.

    Tries each operator (a sum of T_p over the listed primes) on the
    cusp space: strips rational eigenvalues from its characteristic
    polynomial, reduces the leftover factor to its squarefree part, and
    extracts the normalized eigenvector over that field.  A single T_p
    need not separate the conjugacy orbit (all four embeddings of a
    degree-4 form may share a(p) up to sign), which is why summed
    operators are in the default list.  The result carries its own
    Hecke report plus a comparison between the printed combo's
    eigenvalue minimal polynomial and the rederived field polynomial.
    """
    spec = get_spec(name)
    if spec.field is None:
        raise ValueError("%s is rational; rederivation targets the field cases" % name)
    printed = build_newform(name, 15)
    matrices = {}
    last_note = "no operator attempted"
    for ops in operators:
        for p in ops:
            if p not in matrices:
                matrices[p] = _hecke_matrix(spec.discriminant, p)
        k = matrices[ops[0]].rows
        mat = ExactMatrix.from_rows(
            [
                [sum(matrices[p][i, j] for p in ops) for j in range(k)]
                for i in range(k)
            ]
        )
        label = _operator_label(ops)
        _, factor = _peel_rational_roots(_charpoly(mat))
        if len(factor) < 3:
            last_note = "%s splits rationally; no residual factor" % label
            continue
        factor = _squarefree_factor(factor)
        if len(factor) < 3:
            last_note = "%s residual factor is a power of a linear" % label
            continue
        field = NumberField(factor)
        lam = field.generator()
        shifted = ExactMatrix.from_rows(
            [
                [field.embed(mat[i, j]) - (lam if i == j else field.zero()) for j in range(k)]
                for i in range(k)
            ]
        )
        try:
            kernel = shifted.kernel_basis()
        except ZeroDivisionError:
            last_note = "%s residual factor is reducible" % label
            continue
        if len(kernel) != 1:
            last_note = "%s eigenvalue has a %d-dimensional eigenspace" % (label, len(kernel))
            continue
        vec = kernel[0]
        lead = vec[0]
        if not lead:
            last_note = "eigenvector for %s has no q^1 term" % label
            continue
        combo = tuple(field.embed(x) / lead for x in vec)
        basis, cusp = _cusp_expansions(spec.discriminant, precision)
        g = _combine(combo, cusp, precision)
        a = [g.qcoeff(n) for n in range(precision)]
        report = _hecke_report("%s/%s" % (name, label), a, basis.character, precision)
        printed_eigenvalue = spec.field.zero()
        for p in ops:
            printed_eigenvalue = printed_eigenvalue + printed.qcoeff(p)
        printed_minpoly = minimal_polynomial(printed_eigenvalue)
        return RederivedNewform(
            name=name,
            operator=ops,
            field_poly=factor,
            combo=combo,
            report=report,
            printed_minpoly=printed_minpoly,
            minpoly_match=printed_minpoly == factor,
            note="ok",
        )
    return RederivedNewform(
        name=name,
        operator=(),
        field_poly=(),
        combo=(),
        report=None,
        printed_minpoly=(),
        minpoly_match=False,
        note=last_note,
    )
