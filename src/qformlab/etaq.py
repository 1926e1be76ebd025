"""Eta quotients on Gamma_0(N): cusp orders, holomorphy, character.

An eta quotient is prod_{delta | N} eta(delta z)^{r_delta}.  Everything
here is exact and integer: the order at a cusp 1/c is an integer dot
product of the exponents with weights gcd(delta, c)^2 (N / delta), kept
once per level, over the denominator 24 gcd(c^2, N); the holomorphy
check is a set of integer congruences and sign conditions on those dot
products; and the nebentypus character is read off the parity of the
exponent of each prime p | N in prod delta^{r_delta}.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from .characters import chi

__all__ = [
    "EtaQuotient",
    "Cusp",
    "ModularityReport",
    "divisors",
    "cusp_order",
    "character_of",
    "ligozat_check",
    "parse_eta",
]


@lru_cache(maxsize=256)
def divisors(n: int) -> tuple:
    """Positive divisors of n in increasing order (memoized per n)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@lru_cache(maxsize=64)
def _order_weights(level: int) -> dict:
    """c -> (weights, den) for every cusp denominator c | level.

    The order at 1/c is N / (24 gcd(c^2, N)) * sum gcd(delta, c)^2
    r_delta / delta; since delta | N it is the integer dot product of the
    exponents with weights gcd(delta, c)^2 (N / delta), over the
    denominator den = 24 gcd(c^2, N).
    """
    divs = divisors(level)
    return {
        c: (tuple(gcd(d, c) ** 2 * (level // d) for d in divs), 24 * gcd(c * c, level))
        for c in divs
    }


def _valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n > 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@lru_cache(maxsize=64)
def _prime_valuations(level: int) -> tuple:
    """(p, (v_p(delta) for delta | level)) for every prime p | level.

    A divisor p > 1 is prime exactly when no smaller prime divisor of
    the level divides it.
    """
    divs = divisors(level)
    out = []
    for p in divs[1:]:
        if all(p % q for q, _ in out):
            out.append((p, tuple(_valuation(d, p) for d in divs)))
    return tuple(out)


class EtaQuotient:
    """Exponent vector (r_delta) over the divisors of the level."""

    __slots__ = ("level", "exponents")

    def __init__(self, level: int, exponents):
        divs = divisors(level)
        if isinstance(exponents, dict):
            bad = set(exponents) - set(divs)
            if bad:
                raise ValueError("exponent keys %s do not divide %d" % (sorted(bad), level))
            exps = tuple(int(exponents.get(d, 0)) for d in divs)
        else:
            exps = tuple(int(r) for r in exponents)
            if len(exps) != len(divs):
                raise ValueError(
                    "level %d has %d divisors, got %d exponents"
                    % (level, len(divs), len(exps))
                )
        self.level = level
        self.exponents = exps

    def items(self):
        """(delta, r_delta) pairs over all divisors, increasing delta."""
        return tuple(zip(divisors(self.level), self.exponents))

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(self.exponents), 2)

    def valuation24(self) -> int:
        """Grade-24 order at infinity: sum delta * r_delta."""
        return sum(d * r for d, r in self.items())

    def label(self) -> str:
        return "eta%d[%s]" % (self.level, ",".join(str(r) for r in self.exponents))

    def lifted(self, level: int) -> "EtaQuotient":
        """The same product read on a multiple of its level."""
        if level % self.level:
            raise ValueError("%d is not a multiple of level %d" % (level, self.level))
        return EtaQuotient(level, dict(self.items()))

    def __eq__(self, other):
        if not isinstance(other, EtaQuotient):
            return NotImplemented
        return self.level == other.level and self.exponents == other.exponents

    def __hash__(self):
        return hash((self.level, self.exponents))

    def __repr__(self):
        return self.label()


_ETA_LABEL = re.compile(r"^eta(\d+)\[([-\d,\s]*)\]$")


def parse_eta(text: str) -> EtaQuotient:
    """Parse 'etaN[r1,r2,...]' with one exponent per divisor of N."""
    m = _ETA_LABEL.match(text.strip())
    if not m:
        raise ValueError("not an eta quotient label: %r" % text)
    level = int(m.group(1))
    body = m.group(2).strip()
    if not body:
        raise ValueError("empty exponent list in %r" % text)
    exps = [int(part) for part in body.split(",")]
    return EtaQuotient(level, exps)


@dataclass(frozen=True)
class Cusp:
    """Cusp a/c of Gamma_0(N); eta-quotient orders depend only on c | N."""

    denominator: int
    level: int

    def __post_init__(self):
        if self.level % self.denominator:
            raise ValueError("cusp denominator must divide the level")

    @staticmethod
    def representatives(level: int) -> tuple:
        return tuple(Cusp(c, level) for c in divisors(level))

    def __str__(self):
        return "1/%d" % self.denominator


def cusp_order(f: EtaQuotient, c) -> Fraction:
    """Order of f at any cusp with denominator c, in local-variable units.

    The order is N / (24 gcd(c^2, N)) * sum gcd(delta, c)^2 r_delta / delta,
    summed in integers with the per-level weights of `_order_weights` and
    divided once at the end.
    """
    if isinstance(c, Cusp):
        c = c.denominator
    n = f.level
    if n % c:
        raise ValueError("cusp denominator %d must divide the level %d" % (c, n))
    weights, den = _order_weights(n)[c]
    return Fraction(sum(map(mul, weights, f.exponents)), den)


def character_of(f: EtaQuotient):
    """Nebentypus of f as a Kronecker character chi(D).

    Reads the squarefree part s of prod delta^{r_delta}: s is the product
    of the primes p | N whose exponent sum r_delta v_p(delta) is odd, so
    no power of delta is ever formed.  For odd weight s = 3 gives chi(-3)
    and s in {1, 2, 6} gives chi(-4 s), while even weight maps s in
    {1, 2, 3, 6} to chi(1), chi(8), chi(12), chi(24).
    """
    twice_k = sum(f.exponents)
    if twice_k % 2:
        raise ValueError("character is defined here only for integral weight")
    k = twice_k // 2
    s = 1
    for p, vals in _prime_valuations(f.level):
        if sum(map(mul, vals, f.exponents)) % 2:
            s *= p
    if k % 2:
        if s == 3:
            return chi(-3)
        if s in (1, 2, 6):
            return chi(-4 * s)
    else:
        table = {1: 1, 2: 8, 3: 12, 6: 24}
        if s in table:
            return chi(table[s])
    raise ValueError("no quadratic character for squarefree part %d at weight %s" % (s, k))


@dataclass(frozen=True)
class ModularityReport:
    """Outcome of the holomorphic-modular-form test for one eta quotient."""

    quotient: EtaQuotient
    weight: Fraction
    cond_24_divides_at_infinity: bool
    cond_24_divides_at_zero: bool
    cond_nonnegative_cusp_orders: bool
    cond_positive_integral_weight: bool
    cusp_orders: tuple  # ((c, Fraction), ...) over divisors of the level
    character: object  # DirichletChar or None when not classifiable
    is_holomorphic: bool
    is_cuspidal: bool


def ligozat_check(f: EtaQuotient) -> ModularityReport:
    """Test whether f is a holomorphic modular form on Gamma_0(level).

    Checks the two weight-24 congruences at infinity and zero, the
    nonnegativity of every cusp order, and positive integral weight;
    cuspidality additionally needs every cusp order strictly positive.
    """
    n = f.level
    r = f.exponents
    divs = divisors(n)
    at_inf = sum(map(mul, divs, r))
    at_zero = sum((n // d) * x for d, x in zip(divs, r))
    l1 = at_inf % 24 == 0
    l2 = at_zero % 24 == 0
    totals = [
        (c, sum(map(mul, weights, r)), den)
        for c, (weights, den) in _order_weights(n).items()
    ]
    l3 = all(t >= 0 for _, t, _ in totals)
    k = f.weight
    l4 = k.denominator == 1 and k > 0
    holo = l1 and l2 and l3 and l4
    char = None
    if k.denominator == 1:
        try:
            char = character_of(f)
        except ValueError:
            char = None
    return ModularityReport(
        quotient=f,
        weight=k,
        cond_24_divides_at_infinity=l1,
        cond_24_divides_at_zero=l2,
        cond_nonnegative_cusp_orders=l3,
        cond_positive_integral_weight=l4,
        cusp_orders=tuple((c, Fraction(t, den)) for c, t, den in totals),
        character=char,
        is_holomorphic=holo,
        is_cuspidal=holo and all(t > 0 for _, t, _ in totals),
    )
