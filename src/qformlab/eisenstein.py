"""Weight-3 Eisenstein series attached to pairs of real characters.

E3[chi,psi](z) has q-expansion c0 + sum_{n>=1} sigma_{(2,chi,psi)}(n) q^n,
where sigma_{(2,chi,psi)}(n) = sum_{d|n} chi(d) psi(n/d) d^2.  The constant
term c0 is -B_{3,chi}/6 when psi is trivial and 0 otherwise.  Oddness of
chi*psi is required at weight 3, so chi(-1)psi(-1) = -1.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from .characters import DirichletChar, chi, gen_bernoulli3, sigma_twisted_table
from .qseries import QSeries

__all__ = ["EisensteinSpec", "eisenstein3", "parse_e3"]


@dataclass(frozen=True)
class EisensteinSpec:
    """One basis label E3[chi,psi,t]: the series E3[chi,psi](t z)."""

    chi: DirichletChar
    psi: DirichletChar
    t: int = 1

    def __post_init__(self):
        if self.chi.is_odd() == self.psi.is_odd():
            raise ValueError("weight 3 needs chi(-1)psi(-1) = -1")
        if self.t < 1:
            raise ValueError("scale t must be a positive integer")

    def label(self) -> str:
        return "E3[%d,%d,%d]" % (self.chi.discriminant, self.psi.discriminant, self.t)

    def constant_term(self) -> Fraction:
        if self.psi.discriminant == 1:
            return -gen_bernoulli3(self.chi) / 6
        return Fraction(0)

    def __repr__(self):
        return self.label()


def eisenstein3(chi_char: DirichletChar, psi: DirichletChar, t: int,
                precision: int) -> QSeries:
    """Expansion of E3[chi,psi](t z) with q^0..q^(precision-1) known."""
    spec = EisensteinSpec(chi_char, psi, t)
    if precision < 1:
        raise ValueError("precision must be at least 1")
    coeffs = [0] * precision
    coeffs[::t] = sigma_twisted_table(2, chi_char, psi, (precision - 1) // t + 1)
    coeffs[0] = spec.constant_term()
    return QSeries(coeffs, precision)


_E3_LABEL = re.compile(r"^E3\[(-?\d+),(-?\d+)(?:,(\d+))?\]$")


def parse_e3(text: str) -> EisensteinSpec:
    """Parse 'E3[chi,psi]' or 'E3[chi,psi,t]' with discriminant arguments."""
    m = _E3_LABEL.match(text.strip().replace(" ", ""))
    if not m:
        raise ValueError("not an Eisenstein label: %r" % text)
    d1, d2 = int(m.group(1)), int(m.group(2))
    t = int(m.group(3)) if m.group(3) else 1
    return EisensteinSpec(chi(d1), chi(d2), t)
