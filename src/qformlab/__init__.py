"""qformlab: exact arithmetic for eta quotients and senary quadratic forms.

Everything is computed over Q (or an explicit number field): Kronecker
characters and twisted divisor sums, eta-quotient expansions on a
24th-root grading, the weight-3 Eisenstein series and space bases on
Gamma_0(24), representation-number formulas for the 84 senary forms
with coefficients in {1, 2, 3, 6}, the five attached newforms, and a
census of all holomorphic weight-3 eta quotients at level 24.

Every name is imported from its module, e.g.
``from qformlab.quadforms import derive_formula``.
"""

__version__ = "0.1.0"
