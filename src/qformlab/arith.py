"""Exact scalars and exact dense linear algebra.

Three scalar kinds are supported throughout the library:

  * arbitrary-precision integers (Python int),
  * rationals (fractions.Fraction),
  * number-field residues (NumberFieldElement), i.e. polynomials in a
    generator alpha reduced modulo a fixed monic defining polynomial.

No floating point is allowed anywhere; ExactMatrix refuses floats at
construction.  ExactMatrix has one elimination, a Gauss-Jordan reduction
on the first nonzero pivot (all that exact arithmetic needs), and rank,
solve_linear, kernel_basis, left_factor and minimal_polynomial each read
their answer from the reduced row echelon form it returns.  Every pivot
is inverted, so over a reducible modulus a zero-divisor pivot raises
ZeroDivisionError.  A number-field element reaches that elimination for
its own inverse and minimal polynomial only as its multiplication
matrix (NumberFieldElement.matrix), a rational matrix: the inverse is
read from one kernel, and the minimal polynomial is that of the
matrix, as for a Hecke operator, the first dependency among the
entries of 1, b, b^2, ...  There is no polynomial division.

common_denominator is the one conversion of rationals to ints over
their least common denominator; every int-arithmetic path (the span
solver, the newform sums, the formula rows and minimal_polynomial
here) reads its numerators from it.
"""

from fractions import Fraction
from math import lcm
from operator import mul

# solve_linear status markers
UNIQUE = "unique"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"


def format_rational(x) -> str:
    """Serialize a rational as "p/q" in lowest terms, "p" when q = 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" (inverse of format_rational)."""
    return Fraction(s.strip())


def common_denominator(values):
    """(den, numerators) of ints and Fractions: den their least common
    denominator (1 for none), numerators the list of ints with
    v = num / den for each v in order."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------

class NumberField:
    """Q[x] / (m(x)) for a monic defining polynomial m.

    Coefficients are stored constant term first, so x^2 - 2x + 9 is
    (9, -2, 1).  The polynomial is not checked for irreducibility; a
    reducible modulus would surface as a failed inversion.
    """

    __slots__ = ("poly",)

    def __init__(self, poly):
        coeffs = tuple(Fraction(c) for c in poly)
        if len(coeffs) < 2:
            raise ValueError("defining polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        self.poly = coeffs

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    def element(self, coeffs) -> "NumberFieldElement":
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.degree:
            raise ValueError("too many coefficients for degree %d" % self.degree)
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        return NumberFieldElement(self, tuple(coeffs))

    def embed(self, x) -> "NumberFieldElement":
        """Lift a rational (or int) into the field."""
        if isinstance(x, NumberFieldElement):
            if x.field != self:
                raise ValueError("element of a different field")
            return x
        return self.element([Fraction(x)])

    def zero(self) -> "NumberFieldElement":
        return self.element([])

    def one(self) -> "NumberFieldElement":
        return self.element([1])

    def generator(self) -> "NumberFieldElement":
        return self.element([0, 1])

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return "NumberField(%s)" % (self.poly,)


class NumberFieldElement:
    """The reduced residue of a polynomial in the field generator."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs  # tuple of Fraction, length = field.degree

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field != self.field:
                raise ValueError("mismatched number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.embed(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return NumberFieldElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return NumberFieldElement(
            self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        # reduce x^i for i >= d using x^d = -(lower part of m)
        m = self.field.poly
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if c:
                prod[i] = Fraction(0)
                for j in range(d):
                    prod[i - d + j] -= c * m[j]
        return NumberFieldElement(self.field, tuple(prod[:d]))

    __rmul__ = __mul__

    def matrix(self) -> "ExactMatrix":
        """Regular representation: column j holds the coordinates of
        self * alpha^j, so it maps the coordinates of y to those of
        self * y."""
        d = self.field.degree
        columns = [(self * self.field.element([0] * j + [1])).coeffs for j in range(d)]
        return ExactMatrix.from_rows(list(zip(*columns)))

    def inverse(self) -> "NumberFieldElement":
        """Read from the kernel of [M | e_0], M = self.matrix().

        It is spanned by (-x, 1), x the coordinates of the inverse,
        exactly when self is invertible; any other kernel (zero, or a
        zero divisor of a reducible modulus) raises ZeroDivisionError.
        """
        m = self.matrix()
        aug = ExactMatrix.from_rows([m.row(i) + [int(i == 0)] for i in range(m.rows)])
        kernel = aug.kernel_basis()
        if len(kernel) != 1 or not kernel[0][-1]:
            raise ZeroDivisionError("field element %r is not invertible" % (self,))
        return self.field.element([-c for c in kernel[0][:-1]])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.embed(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.embed(other)
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        # a rational element equals its rational, so it hashes as one
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.field.poly, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def serialize(self) -> str:
        """Comma-separated rational coefficients, constant term first."""
        return ",".join(format_rational(c) for c in self.coeffs)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(format_rational(c))
            elif i == 1:
                terms.append("%s*a" % format_rational(c) if c != 1 else "a")
            else:
                terms.append("%s*a^%d" % (format_rational(c), i) if c != 1 else "a^%d" % i)
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# exact dense matrices
# ---------------------------------------------------------------------------

def _check_scalar(x):
    if isinstance(x, float):
        raise TypeError("floating point is not allowed in ExactMatrix")
    if isinstance(x, int):
        return Fraction(x)  # keep int/int division away from float
    return x


class ExactMatrix:
    """Dense row-major matrix over one exact scalar field."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = [_check_scalar(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError("entries length %d != %d x %d" % (len(entries), rows, cols))
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [e for r in rows for e in r])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def _reduce(self, aug=None):
        """Gauss-Jordan reduction; returns (RREF rows, pivot column list).

        Each pivot row is scaled to 1 at its pivot and cleared from every
        other row, so a zero-divisor pivot (a reducible modulus) raises
        ZeroDivisionError.  aug, when given, holds one row of extra
        columns per matrix row, carried along but never pivoted on.
        """
        work = [self.row(i) for i in range(self.rows)]
        if aug is not None:
            if len(aug) != self.rows:
                raise ValueError("rhs length %d != %d rows" % (len(aug), self.rows))
            for r, extra in zip(work, aug):
                r.extend(_check_scalar(y) for y in extra)
        pivots = []
        for col in range(self.cols):
            rpos = len(pivots)
            if rpos == len(work):
                break
            piv = next((i for i in range(rpos, len(work)) if work[i][col]), None)
            if piv is None:
                continue
            work[rpos], work[piv] = work[piv], work[rpos]
            prow = work[rpos]
            inv = 1 / prow[col]
            nonzero = [j for j in range(col, len(prow)) if prow[j]]
            for j in nonzero:
                prow[j] = prow[j] * inv
            for i, ri in enumerate(work):
                c = ri[col]
                if c and i != rpos:
                    for j in nonzero:
                        ri[j] = ri[j] - c * prow[j]
            pivots.append(col)
        return work, pivots

    def rank(self) -> int:
        return len(self._reduce()[1])

    def solve_linear(self, y):
        """Solve A x = y exactly.

        Returns (status, x) with status one of UNIQUE, INCONSISTENT,
        UNDERDETERMINED; x is None unless status is UNIQUE.
        """
        work, pivots = self._reduce(aug=[[v] for v in y])
        n = self.cols
        # inconsistent: a zero row of A with nonzero rhs
        if any(work[i][n] for i in range(len(pivots), self.rows)):
            return INCONSISTENT, None
        if len(pivots) < n:
            return UNDERDETERMINED, None
        # rank == n: row k pivots on column k, so x[k] is its rhs entry
        return UNIQUE, [work[k][n] for k in range(n)]

    def left_factor(self):
        """Gauss-Jordan on [A | I]: (left inverse, left kernel) of A.

        The left inverse L has L A = I and the rows z of the left kernel
        have z A = 0; both are lists of rows over Q.  Any y with A x = y
        solvable then has z . y = 0 for every kernel row and x = L y.
        Dependent columns raise ValueError.
        """
        m, n = self.rows, self.cols
        work, pivots = self._reduce(aug=[[int(i == j) for j in range(m)] for i in range(m)])
        if len(pivots) < n:
            raise ValueError("dependent columns: rank %d < %d" % (len(pivots), n))
        return [r[n:] for r in work[:n]], [r[n:] for r in work[n:]]

    def kernel_basis(self):
        """Basis of the right kernel {x : A x = 0}, one vector per free column.

        The vector of free column fc has x[fc] = 1, 0 at the other free
        columns and x[p] = -R[k][fc] at the pivot column p of RREF row k.
        """
        work, pivots = self._reduce()
        basis = []
        for fc in range(self.cols):
            if fc in pivots:
                continue
            x = [0] * self.cols
            x[fc] = 1
            for row, pcol in zip(work, pivots):
                x[pcol] = -row[fc]
            basis.append(tuple(x))
        return basis

    def __repr__(self):
        return "ExactMatrix(%dx%d)" % (self.rows, self.cols)


def minimal_polynomial(a):
    """Monic minimal polynomial over Q of a field element or of a square
    rational ExactMatrix, constant term first, every entry a Fraction.

    A field element is replaced by its multiplication matrix, which has
    the same minimal polynomial.  For a k x k matrix the coefficients
    are the first kernel vector of the matrix whose columns are the
    entries of 1, b, ..., b^k (Cayley-Hamilton), read row by row: the
    first free column is the first power dependent on the ones before
    it.  Here b = D a, D the least common denominator of the entries,
    so the powers are int matrix products; a coefficient c_i of the
    polynomial of b, of degree m, is c_i / D^(m-i) for a.  The length
    of the returned tuple is m + 1.
    """
    if isinstance(a, NumberFieldElement):
        a = a.matrix()
    if a.rows != a.cols:
        raise ValueError("minimal polynomial of a %d x %d matrix" % (a.rows, a.cols))
    den, nums = common_denominator(a.entries)
    b = [nums[i : i + a.cols] for i in range(0, len(nums), a.cols)]
    bcols = list(zip(*b))
    power = [[int(i == j) for j in range(a.cols)] for i in range(a.rows)]
    columns = [sum(power, [])]
    for _ in range(a.rows):
        power = [[sum(map(mul, r, c)) for c in bcols] for r in power]
        columns.append(sum(power, []))
    poly = list(ExactMatrix.from_rows(list(zip(*columns))).kernel_basis()[0])
    while not poly[-1]:
        poly.pop()
    m = len(poly) - 1
    return tuple(Fraction(c) / den ** (m - i) for i, c in enumerate(poly))
