"""Kronecker-symbol characters, generalized Bernoulli numbers, twisted sums.

Only the real characters chi_t for the eight quadratic discriminants

    t in {1, -3, -4, 8, -8, 12, 24, -24}

are supported; these are exactly the primitive characters of conductor
dividing 24 (plus the trivial one), and everything downstream lives on
Gamma_0(24).
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt

KNOWN_DISCRIMINANTS = (-24, -8, -4, -3, 1, 8, 12, 24)


def kronecker(t: int, n: int) -> int:
    """Kronecker symbol (t/n), extended to all integer pairs.

    Conventions: (t/0) = 1 iff t = +-1 else 0; (t/-1) = -1 iff t < 0;
    (t/2) = 0, 1, -1 for t even, t = +-1 mod 8, t = +-3 mod 8.
    """
    if n == 0:
        return 1 if t in (1, -1) else 0
    k = 1
    if n < 0:
        n = -n
        if t < 0:
            k = -k
    if n % 2 == 0:
        if t % 2 == 0:
            return 0
        # strip factors of 2, each contributing (t/2)
        twos = 0
        while n % 2 == 0:
            n //= 2
            twos += 1
        if twos % 2 == 1 and t % 8 in (3, 5):
            k = -k
    # now n odd positive: Jacobi symbol (t/n) by reciprocity
    t %= n
    while t:
        while t % 2 == 0:
            t //= 2
            if n % 8 in (3, 5):
                k = -k
        t, n = n, t
        if t % 4 == 3 and n % 4 == 3:
            k = -k
        t %= n
    return k if n == 1 else 0


class DirichletChar:
    """Real character chi_t(n) = (t/n) for a quadratic discriminant t.

    Each supported t is a fundamental discriminant (or 1), so (t/n) is
    periodic in n modulo |t|, the conductor, for every integer n,
    including 0 and negatives.  The character keeps one period of
    `kronecker` values, built at construction, and reads an int
    argument from it; any other argument goes through `kronecker`.
    """

    __slots__ = ("discriminant", "conductor", "_period")

    def __init__(self, discriminant: int):
        if discriminant not in KNOWN_DISCRIMINANTS:
            raise ValueError("unsupported discriminant %r" % (discriminant,))
        self.discriminant = discriminant
        self.conductor = abs(discriminant)
        self._period = tuple(kronecker(discriminant, n) for n in range(self.conductor))

    def __call__(self, n: int) -> int:
        if isinstance(n, int):
            return self._period[n % self.conductor]
        return kronecker(self.discriminant, n)

    def is_odd(self) -> bool:
        return self(-1) == -1

    def __eq__(self, other):
        return isinstance(other, DirichletChar) and self.discriminant == other.discriminant

    def __hash__(self):
        return hash(self.discriminant)

    def __repr__(self):
        return "chi(%d)" % self.discriminant


@lru_cache(maxsize=None)
def chi(t: int) -> DirichletChar:
    return DirichletChar(t)


# row order of the reference table of all primitive characters with
# conductor dividing 24, and its evaluation columns
TABLE_ROW_ORDER = (1, -24, -4, 24, 8, -3, -8, 12)
TABLE_COLUMNS = (1, 5, 7, 11, 13, 17, 19, 23)


def character_table():
    """The 8x8 grid chi_t(u) for the standard row/column order."""
    return tuple(tuple(chi(t)(u) for u in TABLE_COLUMNS) for t in TABLE_ROW_ORDER)


@lru_cache(maxsize=None)
def gen_bernoulli3(char: DirichletChar) -> Fraction:
    """Generalized Bernoulli number B_{3,chi} = L^2 sum_{a=1..L} chi(a) B_3(a/L).

    L is the conductor and B_3(x) = x^3 - 3x^2/2 + x/2 the Bernoulli
    polynomial, so L^2 B_3(a/L) = (2a^3 - 3a^2 L + a L^2) / (2L) and the
    sum is one integer over 2L.  It vanishes for an even chi.
    """
    L = char.conductor
    total = sum(char(a) * (2 * a**3 - 3 * a * a * L + a * L * L) for a in range(1, L + 1))
    return Fraction(total, 2 * L)


def sigma_twisted(k: int, char: DirichletChar, psi: DirichletChar, n) -> int:
    """sum over d | n of chi(d) psi(n/d) d^k; zero off the positive integers."""
    if not isinstance(n, int) or n <= 0:
        return 0
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            e = n // d
            total += char(d) * psi(e) * d**k
            if e != d:
                total += char(e) * psi(d) * e**k
        d += 1
    return total


def sigma_twisted_table(k: int, char: DirichletChar, psi: DirichletChar, size: int):
    """[sigma_twisted(k, char, psi, n) for n in range(size)] from one sieve.

    chi(d) d^k psi(e) is added at n = d e for every d e < size; index 0
    stays 0.  With r = isqrt(size - 1), each d <= r walks its multiples
    and each cofactor e walks the d > r with d e < size (then e <= r),
    so only O(sqrt(size)) loops are started.
    """
    out = [0] * size
    if size < 2:
        return out
    psis = [psi(e) for e in range(size)]
    ws = [char(d) * d**k for d in range(size)]
    r = isqrt(size - 1)
    for d in range(1, r + 1):
        w = ws[d]
        if w:
            e = 1
            for n in range(d, size, d):
                out[n] += w * psis[e]
                e += 1
    for e in range(1, (size - 1) // (r + 1) + 1):
        p = psis[e]
        if p:
            for d in range(r + 1, (size - 1) // e + 1):
                out[d * e] += ws[d] * p
    return out
