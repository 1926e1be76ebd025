"""Truncated q-series q^(v/24) * (power series in q) over exact
scalars, and the integer eta-product kernel behind them.

Every series here has one shape: an eta quotient is q^(v/24) times a
power series in q (Koehler, Eta Products and Theta Series Identities,
2011), and Eisenstein series, theta series and newforms have v = 0.
So a series stores its valuation v in grade-24 units and then one
coefficient per q-step: coefficient i stands at q^((v + 24 i)/24).
Precision is counted in whole powers of q: a series of precision P is
known below q^P, and its coefficients at or beyond q^P are unknown (not
zero).  Every constructor and expansion takes that q-step count; the
grade-24 unit stays inside this module, in `val` and `trunc` = 24 P.

`QSeries` is a container, not a ring: every expansion is computed as
one coefficient list (the integer eta kernel below, `eisenstein3`,
`newforms._combine`) and wrapped once, and readers take coefficients by
exponent (`qcoeff`) or as one dense list from q^0 on (`qcoeffs`).
Coefficients are int, Fraction or NumberFieldElement; nothing here ever
touches floating point.
"""

from itertools import accumulate
from operator import mul

from .characters import chi, sigma_twisted_table
from .etaq import EtaQuotient

GRADE = 24


def _steps(val: int, precision: int) -> int:
    """Number of grade-24 exponents val, val + 24, ... below q^precision."""
    return max(0, precision - val // GRADE)


class QSeries:
    """A series sum_i c_i q^((val + 24 i)/24), known below q^precision.

    `coeffs[i]` is the coefficient at grade-24 exponent val + 24 i, so
    all exponents of one series agree mod 24, and `trunc` = 24 precision
    is the grade-24 exponent where the unknown part starts.  The
    all-zero representation uses val == trunc with no stored
    coefficients; otherwise the coefficient at val is nonzero.
    """

    __slots__ = ("val", "coeffs", "trunc")

    def __init__(self, coeffs, precision: int, val: int = 0):
        coeffs = list(coeffs)
        trunc = GRADE * precision
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
        if len(coeffs) > _steps(val, precision):
            raise ValueError("coefficients extend past the truncation")
        self.val = val
        self.coeffs = tuple(coeffs)
        self.trunc = trunc

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, precision: int) -> "QSeries":
        return cls((), precision)

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

    def qcoeffs(self, stop: int) -> list:
        """Coefficients of q^0..q^(stop-1) as one dense list; errors past
        the truncation."""
        if GRADE * stop > self.trunc:
            raise IndexError("q^%d at or beyond precision %d" % (stop - 1, self.qprecision()))
        out = [0] * stop
        v, r = divmod(self.val, GRADE)
        if not r and v < stop:
            lo = max(v, 0)
            part = self.coeffs[lo - v : stop - v]
            out[lo : lo + len(part)] = part
        return out

    def qprecision(self) -> int:
        """The precision P: q^0 .. q^(P-1) are known."""
        return self.trunc // GRADE

    def terms(self):
        """Nonzero (grade-24 exponent, coefficient) pairs in order."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.val + GRADE * i, c

    def is_integer_q(self) -> bool:
        """True when every exponent sits at a multiple of 24."""
        return self.val % GRADE == 0

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.val == other.val
            and self.trunc == other.trunc
            and len(self.coeffs) == len(other.coeffs)
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __repr__(self):
        terms = list(self.terms())
        head = ", ".join("q^(%d/24)*%r" % t for t in terms[:4])
        return "QSeries(%s%s; precision=%d)" % (head, "..." if len(terms) > 4 else "", self.qprecision())


# ---------------------------------------------------------------------------
# integer eta-product kernel (plain q exponents, dense int lists)
# ---------------------------------------------------------------------------

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
        _SIGMA = sigma_twisted_table(1, chi(1), chi(1), max(L, 2 * len(_SIGMA)))
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


def _slot_bytes(bx: int, by: int, n: int) -> int:
    """Bytes per slot that hold every product coefficient exactly.

    A product coefficient of two packed int lists, below q^stop, is a
    sum of at most n = min(len(xs), len(ys), stop) terms, each smaller
    than 2^(bx + by) for bx, by the largest bit lengths of the entries
    that reach it, so slots of bx + by + bitlen(n) + 1 bits hold every
    signed coefficient, however large the entries are.
    """
    return (bx + by + n.bit_length() + 1 + 7) // 8


def _pack(zs, kb: int) -> int:
    """sum_i z_i 2^(8 kb i), built from the unsigned slots z_i + 2^(8 kb - 1)."""
    half = 1 << (8 * kb - 1)
    slots = b"".join([(z + half).to_bytes(kb, "little") for z in zs])
    return int.from_bytes(slots, "little") - int.from_bytes(half.to_bytes(kb, "little") * len(zs), "little")


def _unpack_low(prod: int, kb: int, start: int, stop: int) -> list:
    """Coefficients start..stop-1 of a product of two ints packed in kb-byte slots."""
    width = 8 * kb
    half = 1 << (width - 1)
    # adding half to every slot below q^stop makes slot i hold c_i + half,
    # which lies strictly between 0 and 2^width, so no carry crosses a slot
    n = stop - start
    low = prod + int.from_bytes(half.to_bytes(kb, "little") * stop, "little")
    buf = ((low >> (width * start)) & ((1 << (width * n)) - 1)).to_bytes(kb * n, "little")
    return [int.from_bytes(buf[i:i + kb], "little") - half for i in range(0, kb * n, kb)]


def _mul_low(xs, ys, start: int, stop: int) -> list:
    """Coefficients start..stop-1 of the product of the int lists xs, ys:
    each list packed into one int, slots sized by `_slot_bytes`, and the
    two ints multiplied once."""
    xs, ys = xs[:stop], ys[:stop]
    kb = _slot_bytes(max(map(int.bit_length, xs)), max(map(int.bit_length, ys)),
                     min(len(xs), len(ys)))
    return _unpack_low(_pack(xs, kb) * _pack(ys, kb), kb, start, stop)


def _inexact(key, n: int) -> ArithmeticError:
    return ArithmeticError(
        "eta quotient %s: inexact division at q^%d"
        % (" ".join("eta(%dz)^%s" % dr for dr in key) or "1", n)
    )


# longest growth that runs the plain recurrence loop; a longer one, and
# each half of it longer than this, is split
_BLOCK = 64


def _grow_blocked(key, a, g, L: int):
    """Append a_m..a_(L-1) to a (m = len(a)), given g_0..g_(L-1); stop
    early, before the first g_n that is not an int.

    The same recurrence n a_n = sum_k g_k a_(n-k), summed as an online
    product (van der Hoeven, "Relax, but don't be too lazy", J. Symbolic
    Comput. 34, 2002): acc[n - m] holds the part of the sum over the a_j
    already added in.  One packed product adds a_0..a_(m-1) to the whole
    new range; a range longer than _BLOCK solves its lower half, adds that
    half to the upper half with one packed product and solves the upper
    half; a shorter range sums its own a_j term by term and checks each
    division.
    """
    # The packed products take ints only.  g_n is an int below the least
    # delta whose r_delta * delta is not; at that delta n a_n is g_n plus
    # an int, so the caller's loop, which finishes the growth, raises
    # there unless g_n is integral after all.
    stop = min([d for d, r in key if type(r * d) is not int] + [L])
    m = len(a)
    if stop <= m:
        return
    acc = _mul_low(a, g, m, stop)
    # grev[top-k] = g_k, so grev[top-n+lo:top] is g_(n-lo), ..., g_1
    grev = g[stop - 1::-1]
    top = stop - 1
    # g does not change during the growth, so each prefix g_0..g_(k-1)
    # is packed once per slot width; gbits[k] is the largest bit length
    # of g_0..g_(k-1)
    gbits = [0] + list(accumulate(map(int.bit_length, g[:stop]), max))
    gpacked = {}

    def solve(lo, hi):
        if hi - lo > _BLOCK:
            mid = (lo + hi) // 2
            solve(lo, mid)
            xs = a[lo:mid]
            kb = _slot_bytes(max(map(int.bit_length, xs)), gbits[hi - lo], mid - lo)
            if (hi - lo, kb) not in gpacked:
                gpacked[hi - lo, kb] = _pack(g[:hi - lo], kb)
            upper = _unpack_low(_pack(xs, kb) * gpacked[hi - lo, kb], kb, mid - lo, hi - lo)
            for i, c in enumerate(upper, mid - m):
                acc[i] += c
            solve(mid, hi)
            return
        for n in range(lo, hi):
            q, rem = divmod(acc[n - m] + sum(map(mul, a[lo:], grev[top - n + lo:top])), n)
            if rem:
                raise _inexact(key, n)
            a.append(q)

    solve(m, stop)


def _extend(key, a, g, L: int):
    """Grow the unit coefficients a and the log-derivative terms g of the
    quotient `key` in place until a holds a_0..a_(L-1).

    The lists belong to the caller: `eta_unit_coeffs` keeps them in its
    cache, and a caller that reads one quotient once (the census span
    test) keeps its own, starting from a = [1], g = [0].  Growth by at
    most _BLOCK terms sums each new a_n as one dot product over all of a;
    longer growth goes to `_grow_blocked` first.
    """
    if len(a) >= L:
        return
    g += _log_derivative(key, len(g), L)
    if L - len(a) > _BLOCK:
        _grow_blocked(key, a, g, L)
    # grev[L-1-k] = g_k, so grev[L-1-n:L-1] is g_n, ..., g_1
    grev = g[::-1]
    top = L - 1
    for n in range(len(a), L):
        q, rem = divmod(sum(map(mul, a, grev[top - n:top])), n)
        if rem:
            raise _inexact(key, n)
        a.append(q)


def eta_unit_coeffs(exponents_by_divisor, L: int):
    """Unit part of an eta quotient in integer-q steps.

    exponents_by_divisor: iterable of (delta, r_delta); returns the dense
    int coefficient list of prod_delta (prod_n (1 - q^(delta n)))^{r_delta}
    mod q^L.  The coefficients a_n follow from the log derivative g of the
    product (Koehler, Eta Products and Theta Series Identities, 2011):
    n a_n = sum_{k=1..n} g_k a_(n-k), each division checked to be exact.
    The coefficients and log-derivative terms known so far are cached per
    exponent tuple, so a longer request resumes where the last one
    stopped and computes only the new terms of g (`_extend`).  Growth past
    _BLOCK terms sums the same recurrence by divide and conquer, with one
    packed integer product per split (`_grow_blocked`), so a cold
    expansion to q^L costs about L^1.6 under CPython's Karatsuba
    multiplication instead of L^2.
    """
    key = tuple((d, r) for d, r in exponents_by_divisor if r)
    a, g = _EULER_POW_CACHE.pop(key, None) or ([1], [0])
    _extend(key, a, g, L)
    if len(_EULER_POW_CACHE) >= _EULER_POW_CACHE_SIZE:
        del _EULER_POW_CACHE[next(iter(_EULER_POW_CACHE))]
    _EULER_POW_CACHE[key] = (a, g)
    return a[:L]


# ---------------------------------------------------------------------------
# eta expansions
# ---------------------------------------------------------------------------

def eta_quotient_expansion(f: EtaQuotient, precision: int) -> QSeries:
    """Expansion of prod eta^{r_delta}(delta z), known below q^precision;
    its grade-24 valuation is sum(delta * r_delta), and a precision at or
    below the order at infinity gives the zero series."""
    val = sum(d * r for d, r in f.items())
    return QSeries(eta_unit_coeffs(f.items(), _steps(val, precision)), precision, val)
