"""Pinned results of the exact linear algebra behind the newform fields.

`rederive_newform` reaches its field, combo and minimal polynomials only
through `ExactMatrix` (`kernel_basis` of the shifted Hecke matrix,
`minimal_polynomial` of the printed eigenvalue), and the CLI prints a
re-derivation only when a Hecke check fails.  These SHA-256 digests were
recorded before `ExactMatrix` moved to one Gauss-Jordan reduction, for
each non-rational newform under each operator of the default list on its
own, and for `minimal_polynomial` on seeded elements of K1, K2 and K3.
"""

import hashlib
import random

import pytest

from qformlab.arith import format_rational, minimal_polynomial
from qformlab.newforms import K1, K2, K3, _OPERATORS, rederive_newform

# name -> SHA-256 per operator of _OPERATORS, in order
REDERIVE_SHA256 = {
    "f1": (
        "d383257be01c0a6033aa74d7faab860aa7c04cf3dac6b1fb6322c6875278e987",
        "e9054bc1ccb2b4b1249d2c36797344d960833d086412efd44fa6719c8a398fcf",
        "e752f510c3fe6bcf38419214175b2b8e1784a234cc0759d315f592022afc6762",
        "1d4a4a6472b082995d592fb9ff99c524f2d8149f05b4dd647fc408b2758cccd8",
        "31e06fa1cfee23f59441cbe7fd6e00d712def313849cf8b5195449a7ae954dcd",
        "b0abc20a96bf6a189e0836056997902587960f1a7bf805b0c5805a4e4fe469f3",
        "429eed9f2a15377c7d4682a8df7f6a57fddf7e2be9bf6c3cca7b2038a28d6b03",
        "d509b9f72b6437cc5296735f7b8007702736b9bcc59f28801d927dca00c0f9d5",
    ),
    "f2": (
        "5520b1b130578c428736d7f2f3ae910f0c1e72b0690e03c64fefcb2dc8258ef5",
        "60ff78026c3175ba82fe64ca5834333b32a5a13a428dd7b6979395c8a31fb137",
        "5ce2a0bfd2278bf0044c32ed0e4f68b68e79b4a63e8dee9ee6ba5a2f8e8aa4af",
        "26d0d6b1aed21b43fa5fa049eb4c46c994acfc90045e72622612797918c3e79b",
        "47ba06360f44c6721461ab614980e41dea6203bbf4d0cdb2294ab3f4776f9e7f",
        "0eee7c39b6351a9df4cb472efd42a711112ae78d665681ee0c40f9a526e4fc6f",
        "9885edba54df57ceaf76b8ff5e96c222a4c91065347ef9d4801acd9e1e40032c",
        "2365ab65471635221ad692acc8405650b889192abeee87841785bf84014e8332",
    ),
    "f5": (
        "5fa0f186ef46e0965b0c6b2391437c8bf1b37edef26d0b3455df134a8986b8b9",
        "e9054bc1ccb2b4b1249d2c36797344d960833d086412efd44fa6719c8a398fcf",
        "58f2c556745e2fbb808d46649739bddb30bbd7d0195811d37c7570fa01390351",
        "0ac43b54ae784271e00e50392127cda92eca2989941accdc5a7d6cf053e62885",
        "79fc8dd3593dc1e7d9046a26dd3cb07a2f1aedcefcb146795befec4c5f576080",
        "25d2a57e1c9cdb9a0931138cf43783adabbf6953acf420430f3c344c4c928b1e",
        "9bd1eb0eebce79bdd4f042a442f75b1bc3825aa3fb1cd709df73a9d80cbd7859",
        "b62044685bfeaf3365974d126d1742e6ad1c64a41c7054f2417e597be9cf8f60",
    ),
}

MINPOLY_SHA256 = {
    "K1": "951e627c4eb890e53c10ab54a2142c2cffa7f6031d07bbec51f1b496130f9253",
    "K2": "41a60fe47a22597f0219380d0ebd98b56bc72c57b29c18e68ece0204bf6c0024",
    "K3": "aaa483ff40c6059cf930c8584b5da07ee22a20a67d5e66baf59c763aadc3b2ae",
}


def _poly_text(poly) -> str:
    return ",".join(format_rational(c) for c in poly)


def _rederive_digest(name, ops) -> str:
    red = rederive_newform(name, operators=(ops,))
    text = "\n".join(
        (
            red.note,
            ",".join(str(p) for p in red.operator),
            _poly_text(red.field_poly),
            ";".join(x.serialize() for x in red.combo),
            _poly_text(red.printed_minpoly),
            str(red.minpoly_match),
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _seeded_elements(field, seed=24, count=12):
    """Rationals, the generator and its square, then random elements
    with about half their coefficients zero."""
    rng = random.Random(seed)
    a = field.generator()
    out = [field.embed(-3), a, a * a]
    for _ in range(count):
        out.append(
            field.element(
                [rng.randint(-6, 6) if rng.random() < 0.5 else 0 for _ in range(field.degree)]
            )
        )
    return out


@pytest.mark.parametrize("name", sorted(REDERIVE_SHA256))
def test_rederive_each_operator_matches_pinned_digest(name):
    digests = tuple(_rederive_digest(name, ops) for ops in _OPERATORS)
    assert digests == REDERIVE_SHA256[name]


@pytest.mark.parametrize("label, field", [("K1", K1), ("K2", K2), ("K3", K3)])
def test_minimal_polynomials_match_pinned_digest(label, field):
    text = "\n".join(_poly_text(minimal_polynomial(x)) for x in _seeded_elements(field))
    assert hashlib.sha256(text.encode()).hexdigest() == MINPOLY_SHA256[label]
