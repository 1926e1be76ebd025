"""Truncated formal power series q^(v/24) * (power series in q) over
exact scalars.

Every series here has one shape: an eta quotient is q^(v/24) times a
power series in q (Koehler, Eta Products and Theta Series Identities,
2011), and Eisenstein series, theta series and newforms have v = 0.
So a series stores its valuation v in grade-24 units and then one
coefficient per q-step: coefficient i stands at q^((v + 24 i)/24).
Truncation is data carried by every series: coefficients at grade-24
exponents at or beyond `trunc` are unknown (not zero), and every
operation computes the exact truncation it can honestly guarantee.

The same engine runs over int, Fraction and NumberFieldElement
coefficients; nothing here ever touches floating point.
"""

from fractions import Fraction
from operator import mul

from .etaq import EtaQuotient

GRADE = 24


def _steps(val: int, trunc: int) -> int:
    """Number of q-steps val, val + 24, ... that lie below trunc."""
    return max(0, (trunc - val + GRADE - 1) // GRADE)


class QSeries:
    """A series sum_i c_i q^((val + 24 i)/24), known below q^(trunc/24).

    `coeffs[i]` is the coefficient at grade-24 exponent val + 24 i, so
    all exponents of one series agree mod 24.  The all-zero
    representation uses val == trunc with no stored coefficients;
    otherwise the coefficient at val is nonzero.
    """

    __slots__ = ("val", "coeffs", "trunc")

    def __init__(self, val: int, coeffs, trunc: int):
        coeffs = list(coeffs)
        # strip leading zeros (they are known zeros below the valuation)
        i = 0
        while i < len(coeffs) and not coeffs[i]:
            i += 1
        if i:
            val += GRADE * i
            coeffs = coeffs[i:]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if not coeffs:
            val = trunc
        if len(coeffs) > _steps(val, trunc):
            raise ValueError("coefficients extend past the truncation")
        if trunc < val:
            raise ValueError("truncation below valuation")
        self.val = val
        self.coeffs = tuple(coeffs)
        self.trunc = trunc

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "QSeries":
        return cls(trunc, (), trunc)

    @classmethod
    def constant(cls, c, trunc: int) -> "QSeries":
        return cls(0, (c,), trunc)

    @classmethod
    def from_terms(cls, terms, trunc: int) -> "QSeries":
        """terms: iterable of (grade-24 exponent, coefficient), all
        exponents in one residue class mod 24."""
        terms = sorted((e, c) for e, c in terms if c)
        if not terms:
            return cls.zero(trunc)
        val = terms[0][0]
        coeffs = [0] * ((terms[-1][0] - val) // GRADE + 1)
        for e, c in terms:
            i, r = divmod(e - val, GRADE)
            if r:
                raise ValueError("exponents %d and %d differ mod %d" % (val, e, GRADE))
            coeffs[i] = coeffs[i] + c
        return cls(val, coeffs, trunc)

    # -- coefficient access -------------------------------------------

    def coeff(self, e: int):
        """Coefficient at grade-24 exponent e; errors past the truncation."""
        if e >= self.trunc:
            raise IndexError("exponent %d at or beyond truncation %d" % (e, self.trunc))
        i, r = divmod(e - self.val, GRADE)
        if r or not 0 <= i < len(self.coeffs):
            return 0
        return self.coeffs[i]

    def qcoeff(self, n: int):
        """Coefficient of q^n (integer exponent)."""
        return self.coeff(GRADE * n)

    def qprecision(self) -> int:
        """Largest P such that all of q^0 .. q^(P-1) are known."""
        return (self.trunc + GRADE - 1) // GRADE

    def terms(self):
        """Nonzero (grade-24 exponent, coefficient) pairs in order."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.val + GRADE * i, c

    def is_integer_q(self) -> bool:
        """True when every exponent sits at a multiple of 24."""
        return self.val % GRADE == 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def truncated(self, trunc: int) -> "QSeries":
        """The same series known only below grade-24 exponent trunc."""
        if trunc > self.trunc:
            raise ValueError("truncation %d beyond the known %d" % (trunc, self.trunc))
        return QSeries(self.val, self.coeffs[: _steps(self.val, trunc)], trunc)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        parts = [s for s in (self, other) if s.coeffs]
        if len(parts) == 2 and (self.val - other.val) % GRADE:
            raise ValueError(
                "cannot add series at exponents %d and %d mod %d"
                % (self.val, other.val, GRADE)
            )
        lo = min([s.val for s in parts] + [trunc])
        out = [0] * _steps(lo, trunc)
        for s in parts:
            for e, c in s.terms():
                if e < trunc:
                    i = (e - lo) // GRADE
                    out[i] = out[i] + c
        return QSeries(lo, out, trunc)

    def scale(self, c) -> "QSeries":
        """Multiply by one scalar."""
        if not c:
            return QSeries.zero(self.trunc)
        return QSeries(self.val, tuple(c * a for a in self.coeffs), self.trunc)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        trunc = min(self.trunc + other.val, other.trunc + self.val)
        if self.is_zero() or other.is_zero():
            return QSeries.zero(trunc)
        val = self.val + other.val
        n = _steps(val, trunc)
        out = [0] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for j, b in enumerate(other.coeffs[: n - i]):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return QSeries(val, out, trunc)

    def inverse(self) -> "QSeries":
        """Exact series inverse; leading coefficient must be invertible."""
        if self.is_zero():
            raise ZeroDivisionError("cannot invert a series with no known nonzero term")
        c0 = self.coeffs[0]
        n = _steps(self.val, self.trunc)  # relative precision of the unit part
        if isinstance(c0, int):
            if c0 in (1, -1):
                inv0 = c0
            else:
                inv0 = Fraction(1, c0)
        else:
            inv0 = 1 / c0
        out = [0] * n
        out[0] = inv0
        a = self.coeffs
        alen = len(a)
        for k in range(1, n):
            acc = 0
            for j in range(1, min(k, alen - 1) + 1):
                if a[j] and out[k - j]:
                    acc = acc + a[j] * out[k - j]
            if acc:
                out[k] = -(inv0 * acc) if inv0 != 1 else -acc
        return QSeries(-self.val, out, self.trunc - 2 * self.val)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise TypeError("series powers must be integers")
        if e == 0:
            return QSeries.constant(1, max(self.trunc - self.val, 1))
        base = self if e > 0 else self.inverse()
        e = abs(e)
        out = None
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return out

    # -- comparison helpers ---------------------------------------------

    def agrees_with(self, other: "QSeries", through: int | None = None) -> bool:
        """Coefficient equality on the commonly known range.

        `through` (grade-24, exclusive) caps the range; defaults to the
        smaller truncation.
        """
        bound = min(self.trunc, other.trunc)
        if through is not None:
            bound = min(bound, through)
        return [t for t in self.terms() if t[0] < bound] == [
            t for t in other.terms() if t[0] < bound
        ]

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.val == other.val
            and self.trunc == other.trunc
            and len(self.coeffs) == len(other.coeffs)
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.val, self.trunc, self.coeffs))

    def __repr__(self):
        terms = list(self.terms())
        head = ", ".join("q^(%d/24)*%r" % t for t in terms[:4])
        return "QSeries(%s%s; trunc=%d)" % (head, "..." if len(terms) > 4 else "", self.trunc)


# ---------------------------------------------------------------------------
# integer eta-product kernel (plain q exponents, dense int lists)
# ---------------------------------------------------------------------------

def euler_coeffs(L: int):
    """prod_{n>=1} (1 - q^n) mod q^L by the pentagonal number theorem."""
    out = [0] * L
    if L > 0:
        out[0] = 1
    m = 1
    while True:
        g1 = m * (3 * m - 1) // 2
        g2 = m * (3 * m + 1) // 2
        if g1 >= L and g2 >= L:
            break
        s = 1 if m % 2 == 0 else -1
        if g1 < L:
            out[g1] = s
        if g2 < L:
            out[g2] = s
        m += 1
    return out


# exponent tuple -> (unit coefficients a, log-derivative terms g), both
# known for the same q-steps so far, least recently used first;
# perfbench/tracing.py reads it under this older name
_EULER_POW_CACHE: dict[tuple, tuple] = {}
_EULER_POW_CACHE_SIZE = 64


# sigma(m) for 0 <= m < len(_SIGMA); regrown to at least twice its length
# when a longer one is needed, so it is sieved O(log L) times in all
_SIGMA = [0]


def _sigma_table(L: int) -> list:
    """The shared table sigma(0..M-1) for some M >= L (sigma(0) = 0)."""
    global _SIGMA
    if len(_SIGMA) < L:
        size = max(L, 2 * len(_SIGMA))
        sigma = [0] * size
        for d in range(1, size):
            for m in range(d, size, d):
                sigma[m] += d
        _SIGMA = sigma
    return _SIGMA


def _log_derivative(key, start: int, stop: int):
    """g_start..g_(stop-1) of q f'/f for f = prod_delta prod_n
    (1 - q^(delta n))^r: g_N = -sum_{delta | N} r_delta delta
    sigma(N / delta), with sigma read from the one shared table."""
    sigma = _sigma_table(stop)
    g = [0] * (stop - start)
    for delta, r in key:
        w = r * delta
        for m in range(-(-start // delta), (stop - 1) // delta + 1):
            g[delta * m - start] -= w * sigma[m]
    return g


def eta_unit_coeffs(exponents_by_divisor, L: int):
    """Unit part of an eta quotient in integer-q steps.

    exponents_by_divisor: iterable of (delta, r_delta); returns the dense
    int coefficient list of prod_delta (prod_n (1 - q^(delta n)))^{r_delta}
    mod q^L.  The coefficients a_n follow from the log derivative g of the
    product (Koehler, Eta Products and Theta Series Identities, 2011):
    n a_n = sum_{k=1..n} g_k a_(n-k), each division checked to be exact.
    The coefficients and log-derivative terms known so far are cached per
    exponent tuple, so a longer request resumes where the last one
    stopped and computes only the new terms of g.
    """
    key = tuple((d, r) for d, r in exponents_by_divisor if r)
    a, g = _EULER_POW_CACHE.pop(key, None) or ([1], [0])
    if len(a) < L:
        g += _log_derivative(key, len(g), L)
        # grev[L-1-k] = g_k, so grev[L-1-n:L-1] is g_n, ..., g_1
        grev = g[::-1]
        top = L - 1
        for n in range(len(a), L):
            q, rem = divmod(sum(map(mul, a, grev[top - n:top])), n)
            if rem:
                raise ArithmeticError(
                    "eta quotient %s: inexact division at q^%d"
                    % (" ".join("eta(%dz)^%s" % dr for dr in key) or "1", n)
                )
            a.append(q)
    if len(_EULER_POW_CACHE) >= _EULER_POW_CACHE_SIZE:
        del _EULER_POW_CACHE[next(iter(_EULER_POW_CACHE))]
    _EULER_POW_CACHE[key] = (a, g)
    return a[:L]


# ---------------------------------------------------------------------------
# eta expansions
# ---------------------------------------------------------------------------

def eta_expansion(delta: int, precision: int) -> QSeries:
    """q^(delta/24) prod_{n>=1} (1 - q^(delta n)), truncated at grade-24
    exponent `precision` (exclusive)."""
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    if precision <= delta:
        raise ValueError("precision must exceed the valuation delta")
    n = _steps(delta, precision)
    coeffs = [0] * n
    coeffs[::delta] = euler_coeffs((n + delta - 1) // delta)
    return QSeries(delta, coeffs, precision)


def eta_quotient_expansion(f: EtaQuotient, precision: int) -> QSeries:
    """Expansion of prod eta^{r_delta}(delta z) to grade-24 exponent
    `precision` (exclusive); valuation is sum(delta * r_delta)."""
    val = sum(d * r for d, r in f.items())
    if precision <= val:
        raise ValueError("precision %d does not exceed the valuation %d" % (precision, val))
    return QSeries(val, eta_unit_coeffs(f.items(), _steps(val, precision)), precision)
