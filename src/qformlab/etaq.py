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
    "ETA_MAX_EXPONENTS",
    "ETA_MAX_LEVEL",
    "EtaQuotient",
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

# Largest level that parse_eta accepts; past it the label is refused before
# any divisor is listed, since `divisors` trial-divides up to sqrt(level).
# ligozat-check, whole command, on a 2-vCPU guest (Python 3.11): level
# 10^12 (169 exponents) 0.11 s; level 10^16 took 10.3 s to reject its label.
ETA_MAX_LEVEL = 10**12

# Most exponents, one per divisor of the level, that parse_eta accepts;
# past it the label is refused before any divisor is listed, since
# `ligozat_check` builds d(N)^2 cusp-order weights.  ligozat-check, whole
# command, same guest: level 735134400 (1344 divisors) 0.47 s, 6983776800
# (2304) 1.6 s, 963761198400 (6720) 13.4 s.
ETA_MAX_EXPONENTS = 1344


def parse_eta(text: str) -> EtaQuotient:
    """Parse 'etaN[r1,r2,...]' with one exponent per divisor of N."""
    m = _ETA_LABEL.match(text.strip())
    if not m:
        raise ValueError("not an eta quotient label: %r" % text)
    level = int(m.group(1))
    if level > ETA_MAX_LEVEL:
        raise ValueError("level %d is above the bound %d" % (level, ETA_MAX_LEVEL))
    body = m.group(2).strip()
    if not body:
        raise ValueError("empty exponent list in %r" % text)
    exps = [int(part) for part in body.split(",")]
    if len(exps) > ETA_MAX_EXPONENTS:
        raise ValueError("%d exponents are above the bound %d" % (len(exps), ETA_MAX_EXPONENTS))
    return EtaQuotient(level, exps)


def cusp_order(f: EtaQuotient, c: int) -> Fraction:
    """Order of f at any cusp with denominator c, in local-variable units.

    The order is N / (24 gcd(c^2, N)) * sum gcd(delta, c)^2 r_delta / delta,
    summed in integers with the per-level weights of `_order_weights` and
    divided once at the end.
    """
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
    cond_24_divides_at_infinity: bool
    cond_24_divides_at_zero: bool
    cond_nonnegative_cusp_orders: bool
    cond_positive_integral_weight: bool
    cusp_totals: tuple  # ((c, total, den), ...): the order at 1/c is total / den
    character: object  # DirichletChar or None when not classifiable
    is_holomorphic: bool
    is_cuspidal: bool

    @property
    def weight(self) -> Fraction:
        return self.quotient.weight

    @property
    def cusp_orders(self) -> tuple:
        """((c, Fraction), ...) over divisors of the level."""
        return tuple((c, Fraction(t, den)) for c, t, den in self.cusp_totals)


def ligozat_check(f: EtaQuotient) -> ModularityReport:
    """Test whether f is a holomorphic modular form on Gamma_0(level).

    Checks the two weight-24 congruences at infinity and zero, the
    nonnegativity of every cusp order, and positive integral weight;
    cuspidality additionally needs every cusp order strictly positive.
    The two congruences read the cusp totals: at c = N the weights are
    delta N over 24 N, at c = 1 they are N / delta over 24, so 24 divides
    sum delta r_delta (resp. sum (N / delta) r_delta) exactly when the
    total is a multiple of its denominator.
    """
    n = f.level
    r = f.exponents
    totals = [
        (c, sum(map(mul, weights, r)), den)
        for c, (weights, den) in _order_weights(n).items()
    ]
    l1 = totals[-1][1] % totals[-1][2] == 0  # c = N, the cusp at infinity
    l2 = totals[0][1] % totals[0][2] == 0  # c = 1, the cusp at zero
    least = min(t for _, t, _ in totals)
    l3 = least >= 0
    twice_k = sum(r)
    l4 = twice_k % 2 == 0 and twice_k > 0
    holo = l1 and l2 and l3 and l4
    char = None
    if twice_k % 2 == 0:
        try:
            char = character_of(f)
        except ValueError:
            char = None
    return ModularityReport(
        quotient=f,
        cond_24_divides_at_infinity=l1,
        cond_24_divides_at_zero=l2,
        cond_nonnegative_cusp_orders=l3,
        cond_positive_integral_weight=l4,
        cusp_totals=tuple(totals),
        character=char,
        is_holomorphic=holo,
        is_cuspidal=holo and least > 0,
    )
