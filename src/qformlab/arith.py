"""Exact scalars and exact dense linear algebra.

Three scalar kinds are supported throughout the library:

  * arbitrary-precision integers (Python int),
  * rationals (fractions.Fraction, re-exported as Rational),
  * number-field residues (NumberFieldElement), i.e. polynomials in a
    generator alpha reduced modulo a fixed monic defining polynomial.

No floating point is allowed anywhere; ExactMatrix refuses floats at
construction.  Gaussian elimination uses the first nonzero pivot, which is
all that exact arithmetic needs.
"""

from fractions import Fraction

Rational = Fraction

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


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(num, den):
    """Quotient and remainder in Q[x]; coefficient lists, constant first."""
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    inv_lead = 1 / den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] * inv_lead
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return _poly_trim(q), _poly_trim(num[: len(den) - 1])


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

    def inverse(self) -> "NumberFieldElement":
        """Extended Euclid against the defining polynomial."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        # invariants: r0 = s0 * self (mod m), r1 = s1 * self (mod m)
        r0, r1 = list(self.field.poly), _poly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            s = list(s0)
            s += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        s[i + j] -= qc * sc
            r0, r1, s0, s1 = r1, r, s1, _poly_trim(s)
        if not r1:
            raise ZeroDivisionError("element not invertible (reducible modulus?)")
        c = 1 / r1[0]
        inv = [sc * c for sc in s1]
        _, inv = _poly_divmod(inv, list(self.field.poly)) if len(inv) > self.field.degree else (None, inv)
        return self.field.element(inv)

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

    def _elim(self, aug=None):
        """Forward elimination; returns (echelon rows, pivot column list).

        aug, when given, holds one row of extra columns per matrix row,
        carried along but never pivoted on.
        """
        work = [self.row(i) for i in range(self.rows)]
        if aug is not None:
            if len(aug) != self.rows:
                raise ValueError("rhs length %d != %d rows" % (len(aug), self.rows))
            for r, extra in zip(work, aug):
                r.extend(_check_scalar(y) for y in extra)
        ncols = self.cols
        pivots = []
        rpos = 0
        for col in range(ncols):
            piv = None
            for i in range(rpos, len(work)):
                if work[i][col]:
                    piv = i
                    break
            if piv is None:
                continue
            work[rpos], work[piv] = work[piv], work[rpos]
            prow = work[rpos]
            inv = prow[col]
            nonzero = [j for j in range(col, len(prow)) if prow[j]]
            for i in range(rpos + 1, len(work)):
                c = work[i][col]
                if c:
                    factor = c / inv
                    ri = work[i]
                    for j in nonzero:
                        ri[j] = ri[j] - factor * prow[j]
            pivots.append(col)
            rpos += 1
            if rpos == len(work):
                break
        return work, pivots

    def rank(self) -> int:
        if self.rows == 0 or self.cols == 0:
            return 0
        _, pivots = self._elim()
        return len(pivots)

    def solve_linear(self, y):
        """Solve A x = y exactly.

        Returns (status, x) with status one of UNIQUE, INCONSISTENT,
        UNDERDETERMINED; x is None unless status is UNIQUE.
        """
        work, pivots = self._elim(aug=[[v] for v in y])
        n = self.cols
        # inconsistent: a zero row of A with nonzero rhs
        for i in range(len(pivots), self.rows):
            if work[i][n]:
                return INCONSISTENT, None
        if len(pivots) < n:
            return UNDERDETERMINED, None
        # back substitution: rank == n, so row k pivots on column k
        x = [None] * n
        for k in range(n - 1, -1, -1):
            row = work[k]
            acc = row[n]
            for j in range(k + 1, n):
                if row[j]:
                    acc = acc - row[j] * x[j]
            x[k] = acc / row[k]
        return UNIQUE, x

    def left_factor(self):
        """Gauss-Jordan on [A | I]: (left inverse, left kernel) of A.

        The left inverse L has L A = I and the rows z of the left kernel
        have z A = 0; both are lists of rows over Q.  Any y with A x = y
        solvable then has z . y = 0 for every kernel row and x = L y.
        Dependent columns raise ValueError.
        """
        m, n = self.rows, self.cols
        work, pivots = self._elim(aug=[[int(i == j) for j in range(m)] for i in range(m)])
        if len(pivots) < n:
            raise ValueError("dependent columns: rank %d < %d" % (len(pivots), n))
        # rank == n: row k pivots on column k; clear above each pivot
        for k in range(n - 1, -1, -1):
            prow = work[k]
            inv = 1 / prow[k]
            nonzero = [j for j in range(k, n + m) if prow[j]]
            for j in nonzero:
                prow[j] = prow[j] * inv
            for i in range(k):
                c = work[i][k]
                if c:
                    ri = work[i]
                    for j in nonzero:
                        ri[j] = ri[j] - c * prow[j]
        return [r[n:] for r in work[:n]], [r[n:] for r in work[n:]]

    def kernel_basis(self):
        """Basis of the right kernel {x : A x = 0}, one vector per free column."""
        work, pivots = self._elim()
        pivot_set = set(pivots)
        basis = []
        for fc in range(self.cols):
            if fc in pivot_set:
                continue
            x = [0] * self.cols
            x[fc] = 1
            for k in range(len(pivots) - 1, -1, -1):
                row = work[k]
                pcol = pivots[k]
                acc = 0
                for j in range(pcol + 1, self.cols):
                    if x[j] and row[j]:
                        acc = acc + row[j] * x[j]
                if acc:
                    x[pcol] = -(acc / row[pcol])
            basis.append(tuple(x))
        return basis

    def __repr__(self):
        return "ExactMatrix(%dx%d)" % (self.rows, self.cols)


def minimal_polynomial(a: NumberFieldElement):
    """Monic minimal polynomial of a over Q, constant term first.

    Found as the first linear dependency among 1, a, a^2, ...; the
    length of the returned tuple is deg + 1.
    """
    d = a.field.degree
    powers = [a.field.one()]
    for _ in range(d):
        powers.append(powers[-1] * a)
    for m in range(1, d + 1):
        mat = ExactMatrix.from_rows(
            [[powers[j].coeffs[i] for j in range(m)] for i in range(d)]
        )
        status, sol = mat.solve_linear([-c for c in powers[m].coeffs])
        if status == UNIQUE:
            return tuple(sol) + (Fraction(1),)
    raise AssertionError("powers of a field element must become dependent")
