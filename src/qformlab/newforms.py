"""Weight-3 newforms on Gamma_0(24) as combinations of the cusp bases.

Five newforms live in the three nontrivial cusp spaces: one with
character chi(-3) over Q(a) with a^2 - 2a + 9 = 0, one with chi(-8)
over a quartic field, and three with chi(-24), two rational and one
quartic.  Each is stored as its coordinate vector over the ordered
cusp basis of its space.  Like every other reader of basis
coefficients, this module reads the cusp series as
`spaces.coefficient_rows`, row n holding their q^n coefficients.  A
q-expansion is built without field products: each row is dotted once
per power of the field generator with integer weights, the coordinates
at that power over one denominator, and each coefficient is assembled
from those sums (`_combine`).  `check_eigenform` tests the Hecke
relations coefficient by coefficient in the field, and
`rederive_newform` recovers an eigenform independently from a Hecke
operator matrix, itself read off the same rows (`_hecke_matrix`), as a
safety net against transcription slips in the printed combinations.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .arith import (
    ExactMatrix,
    INCONSISTENT,
    NumberField,
    NumberFieldElement,
    UNIQUE,
    common_denominator,
    minimal_polynomial,
)
from .characters import chi
from .etaq import divisors
from .qseries import QSeries
from .spaces import basis_expansions, build_basis, coefficient_rows, span_solver, sturm_bound

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
    """The space basis and its cached cusp expansions, each known at
    least through q^(precision-1); readers stop at their own precision."""
    basis = build_basis(disc)
    return basis, basis_expansions(disc, precision, "cusp")[len(basis.eisenstein):]


def _combine(scalars, cusp, precision: int) -> QSeries:
    """sum(scalars * cusp series), q^0..q^(precision-1) known.

    The cusp series are read as `coefficient_rows`, row n holding the
    integer q^n coefficients of every series; a series known less far is
    an IndexError.  Scalar i is split into its rational coordinates x_ik
    on 1, a, ..., a^(d-1); a rational scalar is one coordinate, and a
    combination of rational scalars has d = 1.  For each power k the
    weights are x_ik * den_k, den_k the least common denominator of the
    coordinates at k, and S_k[n] is the dot product of those weights with
    row n.  The coefficient at q^n is built once, from the coordinates
    S_k[n] / den_k: a field element, or a Fraction when d = 1, and the
    int 0 where it vanishes.  No field product runs; none is needed,
    since every scalar is already reduced.
    """
    field = next((x.field for x in scalars if isinstance(x, NumberFieldElement)), None)
    d = 1 if field is None else field.degree
    coords = [x.coeffs if isinstance(x, NumberFieldElement) else (x,) + (0,) * (d - 1) for x in scalars]
    dens, weights = zip(*(common_denominator(c[k] for c in coords) for k in range(d)))
    rows = coefficient_rows(cusp, precision)
    sums = [[sum(map(mul, w, row)) for row in rows] for w in weights]
    if field is None:
        out = [Fraction(v, dens[0]) if v else 0 for v in sums[0]]
    else:
        out = [
            NumberFieldElement(field, tuple(map(Fraction, col, dens))) if any(col) else 0
            for col in zip(*sums)
        ]
    return QSeries(out, precision)


def build_newform(name: str, precision: int = 120) -> QSeries:
    """q-expansion of the combo, q^0..q^(precision-1) known."""
    spec = get_spec(name)
    _, cusp = _cusp_expansions(spec.discriminant, precision)
    return _combine(spec.scalars(), cusp, precision)


def f1_reference() -> tuple:
    """The tabulated chi(-3) newform's coefficients at q^0..q^9:
    q + a q^3 + (-2a+2) q^5 - 6 q^7 + (2a-9) q^9, with a the K1
    generator; even coefficients 0."""
    a = K1.generator()
    return (0, K1.one(), 0, a, 0, -2 * a + 2, 0, -6 * a**0, 0, 2 * a - 9)


def solve_back_f1():
    """Recover the f1 combo from the ten reference coefficients alone."""
    _, cusp = _cusp_expansions(-3, 10)
    status, sol = ExactMatrix.from_rows(coefficient_rows(cusp, 10)).solve_linear(f1_reference())
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
    a = build_newform(name, precision).qcoeffs(precision)
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

    The cusp series are read as `coefficient_rows` through q^(12p):
    column j of the image of T_p at q^n is rows[p n][j], plus
    chi(p) p^2 rows[n/p][j] when p | n.  Every image is solved on
    q^0..q^12 (its q^0 entry is 0) by the one solver of the space, which
    is factored once and serves every p and every other reader; a
    nonzero Eisenstein coordinate is a ValueError.
    """
    need = p * sturm_bound() + 1
    basis, cusp = _cusp_expansions(disc, need)
    rows = coefficient_rows(cusp, need)
    t = basis.character(p) * p * p
    solver = span_solver(disc)
    columns = []
    for j in range(len(cusp)):
        image = [rows[p * n][j] + (t * rows[n // p][j] if n % p == 0 else 0) for n in solver.rows]
        nums = solver.numerators(image)
        if nums is None or any(nums[: solver.ne]):
            raise ValueError("Hecke image left the cusp span (%s)" % INCONSISTENT)
        columns.append([Fraction(v, solver.den) for v in nums[solver.ne :]])
    return ExactMatrix.from_rows(list(zip(*columns)))


def _peel_rational_roots(poly):
    """Split ascending monic integer poly into (roots, remaining factor)."""
    ints = []
    for c in poly:
        f = Fraction(c)
        if f.denominator != 1:
            raise ValueError("expected an integral polynomial")
        ints.append(f.numerator)
    roots = []
    while len(ints) > 1:
        c0 = ints[0]
        cand = [0] if c0 == 0 else [sign * d for d in divisors(abs(c0)) for sign in (1, -1)]
        hit = next((r for r in cand if sum(c * r**i for i, c in enumerate(ints)) == 0), None)
        if hit is None:
            break
        # synthetic division by x - hit, from the top; the remainder is 0
        quot = [ints[-1]]
        for c in ints[-2:0:-1]:
            quot.append(c + hit * quot[-1])
        ints = quot[::-1]
        roots.append(hit)
    return roots, tuple(Fraction(c) for c in ints)


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
    cusp space: strips rational eigenvalues from the minimal polynomial
    of its matrix, read off one reduction, and extracts the normalized
    eigenvector over the field of the leftover factor.  The T_p with p
    prime to 24 are normal for the Petersson product, so their sums are
    diagonalizable and that minimal polynomial is the squarefree part
    of the characteristic polynomial.  A single T_p need not separate
    the conjugacy orbit (all four embeddings of a degree-4 form may
    share a(p) up to sign), which is why summed operators are in the
    default list.  The result carries its own
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
        _, factor = _peel_rational_roots(minimal_polynomial(mat))
        if len(factor) < 3:
            last_note = "%s splits rationally; no residual factor" % label
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
        scale = field.embed(lead).inverse()
        combo = tuple(scale * x for x in vec)
        basis, cusp = _cusp_expansions(spec.discriminant, precision)
        a = _combine(combo, cusp, precision).qcoeffs(precision)
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
