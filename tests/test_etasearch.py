import hashlib
import random
from fractions import Fraction
from operator import mul

import pytest

from qformlab import etasearch
from qformlab.arith import UNIQUE, ExactMatrix
from qformlab.characters import chi
from qformlab.etaq import EtaQuotient, cusp_order, divisors, ligozat_check, parse_eta
from qformlab.etasearch import (
    B_MATRIX,
    DIVISORS24,
    REMARK_IDENTITIES,
    _brute_fiber,
    _census_all,
    _census_exponents,
    _R_FROM_X,
    _SpanSolver,
    _solver_for,
    _W_FROM_X,
    census_counts,
    census_crosscheck,
    eisenstein_expressible,
    remark_rhs,
    verify_remark_identities,
)
from qformlab.qseries import GRADE, QSeries, eta_quotient_expansion
from qformlab.spaces import SPACE_DISCRIMINANTS, first_deviation, sturm_bound

EXPECTED = {-3: (6332, 140), -4: (6288, 40), -8: (2424, 4), -24: (2424, 0)}

# SHA-256 of the sorted member labels and of the sorted "label coords"
# lines of the Eisenstein-expressible members, one per line, recorded at
# the first benchmarked commit (perfbench/expected.json holds the same)
MEMBERS_SHA256 = "9c466f0d1e03410eb820ab0b738f1f8d513fa21d8b8c30a7498d68be2a3db422"
EXPRESSIBLE_SHA256 = "480348312d04c15f0d821d3eafbff160d5cd12dda16fe79bb9efe4090f8e1b79"


def test_order_matrix_structure():
    assert DIVISORS24 == (1, 2, 3, 4, 6, 8, 12, 24)
    for col in zip(*B_MATRIX):
        assert sum(col) == 48
    assert B_MATRIX[0] == [24 // d for d in DIVISORS24]
    assert B_MATRIX[-1] == list(DIVISORS24)
    # entry check against the order formula directly
    for i, c in enumerate(DIVISORS24):
        for j, d in enumerate(DIVISORS24):
            exps = [0] * 8
            exps[j] = 1
            assert B_MATRIX[i][j] == 24 * cusp_order(EtaQuotient(24, exps), c)


def test_lattice_basis_triangular():
    n = len(DIVISORS24)
    for i in range(n):
        assert _W_FROM_X[i][i] > 0
        for j in range(i + 1, n):
            assert _W_FROM_X[i][j] == 0
    # det(U) = +-1 comes with the construction; check B U = P H instead
    perm = (0, 7, 1, 2, 3, 4, 5, 6)
    for i in range(n):
        for j in range(n):
            got = sum(B_MATRIX[perm[i]][k] * _R_FROM_X[k][j] for k in range(n))
            assert got == _W_FROM_X[i][j]


def test_census_exponent_invariants():
    exps = _census_exponents()
    assert len(exps) == 17468
    assert len(set(exps)) == len(exps)
    for r in exps[:300] + exps[-300:] + exps[8000:8300]:
        assert sum(r) == 6
        assert sum(d * x for d, x in zip(DIVISORS24, r)) % 24 == 0
        assert sum((24 // d) * x for d, x in zip(DIVISORS24, r)) % 24 == 0
        for row in B_MATRIX:
            assert sum(a * x for a, x in zip(row, r)) >= 0


@pytest.mark.slow
def test_census_counts(census, monkeypatch):
    monkeypatch.setattr(etasearch, "enumerate_space", census.__getitem__)
    assert census_counts() == EXPECTED


@pytest.mark.slow
def test_census_digests(census):
    members = sorted(f.label() for r in census.values() for f in r.members)
    hits = sorted(
        "%s %s" % (f.label(), " ".join(str(x) for x in coords))
        for r in census.values()
        for f, coords in r.eisenstein_expressible
    )
    assert hashlib.sha256("\n".join(members).encode()).hexdigest() == MEMBERS_SHA256
    assert hashlib.sha256("\n".join(hits).encode()).hexdigest() == EXPRESSIBLE_SHA256


@pytest.mark.slow
def test_enumerate_space_members_are_sound(census):
    result = census[-8]
    assert len(result.members) == EXPECTED[-8][0]
    assert result.character == chi(-8)
    for f in result.members[::97]:
        rep = ligozat_check(f)
        assert rep.is_holomorphic and rep.weight == 3
        assert rep.character == chi(-8)
    labels = [f.label() for f in result.members]
    assert labels == sorted(labels, key=lambda s: parse_eta(s).exponents)


@pytest.mark.slow
def test_expressible_members_expand_correctly(census):
    result = census[-8]
    assert len(result.eisenstein_expressible) == 4
    from qformlab.spaces import basis_expansions, build_basis

    basis = build_basis(-8)
    eis = basis_expansions(basis, 40)[: len(basis.eisenstein)]
    for f, coords in result.eisenstein_expressible:
        g = eta_quotient_expansion(f, GRADE * 40)
        for n in range(40):
            acc = sum((x * e.qcoeff(n) for x, e in zip(coords, eis)), Fraction(0))
            assert acc == g.qcoeff(n)


def test_eisenstein_expressible_known_values():
    f = parse_eta("eta3[-3,9]").lifted(24)
    assert eisenstein_expressible(f) == (0, 0, 0, 0, 1, 0, 0, 0)
    g = parse_eta("eta8[-2,-5,23,-10]").lifted(24)
    assert eisenstein_expressible(g) == (Fraction(-2, 3), 0, Fraction(8, 3), 0)


def test_eisenstein_expressible_rejects_cusp_form():
    f = parse_eta("eta24[0,3,0,-4,-5,2,16,-6]")
    assert eisenstein_expressible(f) is None


def test_eisenstein_expressible_rejects_fractional_order():
    # eta(z)^6 has weight 3 and character chi(-4) but order 1/4 at
    # infinity: no integer power of q occurs, so it is in no space
    f = EtaQuotient(24, (6, 0, 0, 0, 0, 0, 0, 0))
    assert f.valuation24() % GRADE
    assert eisenstein_expressible(f) is None
    assert eisenstein_expressible(f, -4) is None


def test_eisenstein_expressible_rejects_orders_outside_the_sturm_range():
    # weight 3, integral orders -17, 21 and 66 at infinity: a pole, or a
    # form vanishing through q^12, is in no space, even one vanishing
    # past the q^60 that a hit is verified through
    for exps, lead in (
        ((24, 0, 0, 0, 0, 0, 0, -18), -17),
        ((-24, 0, 0, 0, 0, 0, 16, 14), 21),
        ((-72, 0, 0, 0, 0, 0, 18, 60), 66),
    ):
        f = EtaQuotient(24, exps)
        assert f.valuation24() == GRADE * lead
        assert ligozat_check(f).character == chi(-4)
        assert eisenstein_expressible(f) is None


@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
def test_span_solver_recovers_seeded_combinations(disc):
    rng = random.Random(disc)
    solver = _solver_for(disc)
    x = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in solver.columns)
    y = [sum(map(mul, row, x)) for row in solver.samples]
    assert solver.solve(y) == x
    # moving one sampled coefficient leaves the span, unless that unit
    # vector itself lies in it (q^0, q^4, q^8, q^12 for chi(-3))
    reference = ExactMatrix.from_rows(solver.samples)
    outside = 0
    for i in range(len(y)):
        moved = list(y)
        moved[i] += 1
        status, sol = reference.solve_linear(moved)
        if status == UNIQUE:
            assert solver.solve(moved) == tuple(sol) != x
        else:
            outside += 1
            assert solver.solve(moved) is None
    assert outside >= 9
    with pytest.raises(ValueError):
        _SpanSolver(solver.columns + solver.columns[:1], solver.rows)


@pytest.mark.slow
def test_span_solver_matches_reference_solver():
    # the integer span test against ExactMatrix.solve_linear on the same
    # sampled rows: every census hit, plus seeded non-hits of each space
    rng = random.Random(24)
    rows = sturm_bound() + 1
    hits = 0
    for disc in SPACE_DISCRIMINANTS:
        solver = _solver_for(disc)
        reference = ExactMatrix.from_rows(solver.samples)
        misses = []
        for f in _census_all()[disc]:
            g = eta_quotient_expansion(f, GRADE * rows)
            y = [g.qcoeff(n) for n in range(rows)]
            x = solver.solve(y)
            if x is None:
                misses.append(y)
                continue
            hits += 1
            status, sol = reference.solve_linear(y)
            assert status == UNIQUE
            assert x == tuple(sol)
            nums = solver.numerators(y)
            assert all(type(v) is int for v in nums)
            assert tuple(Fraction(v, solver.den) for v in nums) == x
        for y in rng.sample(misses, 150):
            status, _ = reference.solve_linear(y)
            assert status != UNIQUE
    assert hits == sum(EXPECTED[d][1] for d in SPACE_DISCRIMINANTS)


@pytest.mark.parametrize("k", (13, 37, 60))
def test_integer_verification_names_the_first_wrong_coefficient(k):
    # eta8[-2,-5,23,-10] = (-2/3, 0, 8/3, 0) over the chi(-8) Eisenstein
    # columns; moving its q^k coefficient by one keeps q^0..q^12, so the
    # span test still passes and only the verification past them sees it
    f = parse_eta("eta8[-2,-5,23,-10]").lifted(24)
    solver = _solver_for(-8)
    rows = sturm_bound() + 1
    g = eta_quotient_expansion(f, GRADE * 61)
    nums = solver.numerators([g.qcoeff(n) for n in range(rows)])
    assert solver.den > 1
    assert first_deviation(g, nums, solver.columns, rows, 61, solver.den) is None
    coeffs = [g.qcoeff(n) for n in range(61)]
    coeffs[k] += 1
    moved = QSeries.from_terms([(GRADE * n, c) for n, c in enumerate(coeffs)], g.trunc)
    assert [moved.qcoeff(n) for n in range(rows)] == [g.qcoeff(n) for n in range(rows)]
    assert first_deviation(moved, nums, solver.columns, rows, 61, solver.den) == k
    coords = tuple(Fraction(v, solver.den) for v in nums)
    assert first_deviation(moved, coords, solver.columns, rows, 61) == k


def test_brute_fiber_matches_census_fiber():
    by_fiber = {}
    for r in _census_exponents():
        by_fiber.setdefault((r[1], r[2], r[3], r[4], r[5]), set()).add(r)
    probe = (0, 0, 0, 0, 0)
    assert _brute_fiber(probe) == by_fiber.get(probe, set())
    probe = max(by_fiber, key=lambda k: len(by_fiber[k]))
    assert _brute_fiber(probe) == by_fiber[probe]
    assert _brute_fiber((9, 9, 9, 9, 9)) == set()


@pytest.mark.slow
def test_census_crosscheck():
    result = census_crosscheck(samples=24, seed=7)
    assert result.samples == 24
    assert result.ok
    assert result.mismatches == ()


def test_remark_identities_roster():
    labels = [i.label for i in REMARK_IDENTITIES]
    assert len(labels) == 9
    assert len(set(labels)) == 9
    for ident in REMARK_IDENTITIES:
        f = parse_eta(ident.label)
        assert ligozat_check(f.lifted(24)).is_holomorphic


def test_remark_rhs_constant_terms():
    # the q^0 term of the right-hand side is the identity's constant
    for ident in REMARK_IDENTITIES:
        assert remark_rhs(ident, 3).qcoeff(0) == ident.constant


def test_verify_remark_identities():
    reports = verify_remark_identities(precision=30)
    assert len(reports) == 9
    for rep in reports:
        assert rep.holds, rep
        assert rep.first_mismatch is None
