import dataclasses
import hashlib
import random
import re
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, strategies as st

from qformlab import etasearch, qseries, spaces
from qformlab.arith import UNIQUE, ExactMatrix
from qformlab.characters import chi, sigma_twisted
from qformlab.etaq import EtaQuotient, cusp_order, ligozat_check, parse_eta
from qformlab.etasearch import (
    B_MATRIX,
    DIVISORS24,
    REMARK_IDENTITIES,
    _brute_fiber,
    _census_exponents,
    _R_FROM_X,
    _SUM_COEFFS,
    _SUM_LEVEL,
    _SUM_MOD,
    _W_FROM_X,
    _progression,
    census_crosscheck,
    eisenstein_expressible,
    enumerate_space,
    verify_remark_identities,
)
from qformlab.qseries import GRADE, QSeries, eta_quotient_expansion
from qformlab.spaces import (
    CHECK_PRECISION,
    SPACE_DISCRIMINANTS,
    _SpanSolver,
    basis_expansions,
    build_basis,
    coefficient_rows,
    first_deviation,
    span_solver,
    sturm_bound,
)
from reference import remark_rhs

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


def test_weight_congruence_is_decided_at_level_4():
    # sum(r) = s . x with s the column sums of U: the coordinates after
    # level 4 are even, so weight 3 fixes the parity of x_4
    assert _SUM_COEFFS == tuple(sum(col) for col in zip(*_R_FROM_X)) == (1, -5, 3, -3, 1, 0, 0, 2)
    assert (_SUM_LEVEL, _SUM_MOD) == (4, 2)


@given(
    base=st.integers(min_value=-500, max_value=500),
    coeff=st.integers(min_value=-60, max_value=60).filter(bool),
    mod=st.sampled_from((2, 3, 24)),
    lo=st.integers(min_value=-50, max_value=50),
)
def test_progression_lists_the_solutions_of_its_congruence(base, coeff, mod, lo):
    window = range(lo, lo + 3 * mod)
    solutions = [x for x in window if (base + coeff * x) % mod == 0]
    start = _progression(base, coeff, mod, lo)
    if start is None:
        assert solutions == []
    else:
        first, stride = start
        assert solutions == list(range(first, window.stop, stride))


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
def test_census_counts(census):
    got = {d: (len(r.members), len(r.eisenstein_expressible)) for d, r in census.items()}
    assert got == EXPECTED


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
    basis = build_basis(-8)
    eis = basis_expansions(-8, 40)[: len(basis.eisenstein)]
    for f, coords in result.eisenstein_expressible:
        g = eta_quotient_expansion(f, 40)
        for n in range(40):
            acc = sum((x * e.qcoeff(n) for x, e in zip(coords, eis)), Fraction(0))
            assert acc == g.qcoeff(n)


def test_eisenstein_expressible_known_values():
    f = EtaQuotient(24, dict(parse_eta("eta3[-3,9]").items()))
    assert eisenstein_expressible(f, -3) == (0, 0, 0, 0, 1, 0, 0, 0)
    g = EtaQuotient(24, dict(parse_eta("eta8[-2,-5,23,-10]").items()))
    assert eisenstein_expressible(g, -8) == (Fraction(-2, 3), 0, Fraction(8, 3), 0)


def test_eisenstein_expressible_rejects_cusp_form():
    f = parse_eta("eta24[0,3,0,-4,-5,2,16,-6]")
    assert eisenstein_expressible(f, -3) is None


def test_eisenstein_expressible_rejects_fractional_order():
    # eta(z)^6 has weight 3 and character chi(-4) but order 1/4 at
    # infinity: no integer power of q occurs, so it is in no space
    f = EtaQuotient(24, (6, 0, 0, 0, 0, 0, 0, 0))
    assert f.valuation24() % GRADE
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
        assert eisenstein_expressible(f, -4) is None


def test_every_space_function_refuses_an_unknown_discriminant():
    # one check, run before any other test: a quotient of fractional
    # order (eta24[1,0,0,0,0,0,0,5]) and one of integral order alike
    names = re.escape("use one of (-3, -4, -8, -24)")
    with pytest.raises(ValueError, match=names):
        build_basis(5)
    with pytest.raises(ValueError, match=names):
        enumerate_space(5)
    for label in ("eta24[1,0,0,0,0,0,0,5]", "eta24[0,3,0,-4,-5,2,16,-6]"):
        with pytest.raises(ValueError, match=names):
            eisenstein_expressible(parse_eta(label), 5)


def _coordinates(solver, y):
    """The solver's coordinates of y over the whole basis, or None."""
    nums = solver.numerators(y)
    return None if nums is None else tuple(Fraction(v, solver.den) for v in nums)


@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
def test_span_solver_recovers_seeded_combinations(disc):
    # seeded combinations of the Eisenstein columns come back with zero
    # cusp coordinates from the solver of the whole basis
    rng = random.Random(disc)
    solver = span_solver(disc)
    ne = solver.ne
    eisenstein = [row[:ne] for row in solver.samples]
    x = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(ne))
    y = [sum(map(mul, row, x)) for row in eisenstein]
    assert _coordinates(solver, y) == x + (0,) * (len(solver.table[0]) - ne)
    # moving one sampled coefficient leaves the Eisenstein span, unless
    # that unit vector itself lies in it (q^0, q^4, q^8, q^12 for chi(-3))
    reference = ExactMatrix.from_rows(eisenstein)
    outside = 0
    for i in range(len(y)):
        moved = list(y)
        moved[i] += 1
        status, sol = reference.solve_linear(moved)
        got = _coordinates(solver, moved)
        if status == UNIQUE:
            assert got[:ne] == tuple(sol) != x
            assert not any(got[ne:])
        else:
            outside += 1
            assert got is None or any(got[ne:])
    assert outside >= 9
    columns = basis_expansions(disc, CHECK_PRECISION)
    with pytest.raises(ValueError):
        _SpanSolver(columns + columns[:1], ne)


@pytest.mark.slow
def test_span_solver_matches_reference_solver(census):
    # the staged span test against the reference path on every census
    # member: the expansion through q^12 tested by the integer span solver
    # and by ExactMatrix.solve_linear on the Eisenstein columns of the same
    # sampled rows, then a hit expanded to q^60 and checked with
    # first_deviation; the census must give every member the same
    # classification and coordinates, and seeded non-hits of each space
    # are rejected by solve_linear too
    rng = random.Random(24)
    rows = sturm_bound() + 1
    hits = 0
    for disc in SPACE_DISCRIMINANTS:
        solver = span_solver(disc)
        ne = solver.ne
        reference = ExactMatrix.from_rows([row[:ne] for row in solver.samples])
        staged = {f.exponents: x for f, x in census[disc].eisenstein_expressible}
        misses = []
        for f in census[disc].members:
            g = eta_quotient_expansion(f, rows)
            y = [g.qcoeff(n) for n in range(rows)]
            nums = solver.numerators(y)
            if nums is not None:
                full = eta_quotient_expansion(f, 61)
                if any(nums[ne:]):
                    nums = None
                elif first_deviation(full, nums, solver.table, rows, 61, solver.den) is not None:
                    nums = None
            if nums is None:
                assert f.exponents not in staged
                misses.append(y)
                continue
            hits += 1
            assert all(type(v) is int for v in nums)
            x = tuple(Fraction(v, solver.den) for v in nums[:ne])
            assert staged[f.exponents] == x
            status, sol = reference.solve_linear(y)
            assert status == UNIQUE
            assert x == tuple(sol)
        for y in rng.sample(misses, 150):
            status, _ = reference.solve_linear(y)
            assert status != UNIQUE
    assert hits == sum(EXPECTED[d][1] for d in SPACE_DISCRIMINANTS)


@pytest.mark.parametrize(
    "label, want, lengths",
    (
        # order 1, rejected by the first row, which ends at q^5
        ("eta24[0,3,0,-4,-5,2,16,-6]", None, [5]),
        # order 6: the first row holds trivially, so q^6..q^12 are read at once
        ("eta24[-6,12,2,3,-4,-6,-5,10]", None, [7]),
        # order 1, a hit: read through q^5, then q^12, then q^60
        ("eta3[-3,9]", (0, 0, 0, 0, 1, 0, 0, 0), [5, 12, 60]),
    ),
)
def test_span_test_reads_the_fewest_coefficients(monkeypatch, label, want, lengths):
    # the unit-coefficient lengths of every growth of one chi(-3) member
    grown = []
    inner = etasearch._extend

    def recorded(key, a, g, L):
        grown.append(L)
        return inner(key, a, g, L)

    monkeypatch.setattr(etasearch, "_extend", recorded)
    assert eisenstein_expressible(EtaQuotient(24, dict(parse_eta(label).items())), -3) == want
    assert grown == lengths


def test_enumerate_space_classifies_through_the_module_function(census, monkeypatch):
    # perfbench times the census by wrapping eisenstein_expressible where
    # enumerate_space looks it up, so every member must pass through it
    seen = []
    inner = etasearch.eisenstein_expressible

    def counted(f, disc):
        seen.append(f)
        return inner(f, disc)

    monkeypatch.setattr(etasearch, "eisenstein_expressible", counted)
    result = etasearch.enumerate_space(-8)
    assert seen == list(result.members)
    assert result == census[-8]


@pytest.mark.slow
def test_census_leaves_only_the_basis_quotients_in_the_kernel_cache(census, monkeypatch):
    # from empty module caches, the census caches the expansions of the
    # cusp basis quotients that span_solver reads and of no member
    monkeypatch.setattr(qseries, "_EULER_POW_CACHE", {})
    monkeypatch.setattr(spaces, "_SOLVERS", {})
    monkeypatch.setattr(spaces, "_EXPANSIONS", {})
    for disc in SPACE_DISCRIMINANTS:
        assert etasearch.enumerate_space(disc) == census[disc]
    basis_keys = {
        tuple((d, r) for d, r in f.items() if r)
        for disc in SPACE_DISCRIMINANTS
        for f in spaces.build_basis(disc).cusp
    }
    assert len(basis_keys) == 20
    assert set(qseries._EULER_POW_CACHE) == basis_keys


@pytest.mark.parametrize("k", (13, 37, 60))
def test_integer_verification_names_the_first_wrong_coefficient(k):
    # eta8[-2,-5,23,-10] = (-2/3, 0, 8/3, 0) over the chi(-8) Eisenstein
    # columns; moving its q^k coefficient by one keeps q^0..q^12, so the
    # span test still passes and only the verification past them sees it
    f = EtaQuotient(24, dict(parse_eta("eta8[-2,-5,23,-10]").items()))
    solver = span_solver(-8)
    rows = sturm_bound() + 1
    g = eta_quotient_expansion(f, 61)
    nums = solver.numerators([g.qcoeff(n) for n in range(rows)])
    assert not any(nums[solver.ne:])
    nums = nums[: solver.ne]
    assert solver.den > 1
    assert first_deviation(g, nums, solver.table, rows, 61, solver.den) is None
    coeffs = [g.qcoeff(n) for n in range(61)]
    coeffs[k] += 1
    moved = QSeries(coeffs, 61)
    assert [moved.qcoeff(n) for n in range(rows)] == [g.qcoeff(n) for n in range(rows)]
    assert first_deviation(moved, nums, solver.table, rows, 61, solver.den) == k
    coords = tuple(Fraction(v, solver.den) for v in nums)
    assert first_deviation(moved, coords, solver.table, rows, 61) == k


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
        assert ligozat_check(EtaQuotient(24, dict(f.items()))).is_holomorphic


# the constant terms of the displayed identities, as printed
PRINTED_CONSTANTS = {
    "eta8[-4,2,16,-8]": 1,
    "eta4[-12,30,-12]": 1,
    "eta4[-4,18,-8]": 1,
    "eta8[-2,-5,23,-10]": 1,
}


def test_remark_rhs_constant_terms():
    # the q^0 term of the right-hand side is derived from the E3 constant
    # terms and equals the printed constant
    for ident in REMARK_IDENTITIES:
        assert remark_rhs(ident, 3).qcoeff(0) == PRINTED_CONSTANTS.get(ident.label, 0)


def test_remark_rhs_matches_twisted_divisor_sums():
    # the series against the definition: scale * sum c sigma(n/t) past q^0
    for ident in REMARK_IDENTITIES:
        rhs = remark_rhs(ident, 301)
        assert rhs.trunc == GRADE * 301
        assert rhs.qcoeff(0) == PRINTED_CONSTANTS.get(ident.label, 0)
        for n in range(1, 301):
            want = ident.scale * sum(
                c * sigma_twisted(2, chi(cd), chi(pd), n // t)
                for c, cd, pd, t in ident.terms
                if n % t == 0
            )
            assert rhs.qcoeff(n) == want, (ident.label, n)


def test_verify_remark_identities():
    reports = verify_remark_identities(precision=30)
    assert len(reports) == 9
    for rep in reports:
        assert rep.holds, rep
        assert rep.first_mismatch is None


def test_verify_remark_identities_names_the_first_mismatch(monkeypatch):
    # the integer check against the Fraction right-hand side of remark_rhs:
    # a wrong scale (denominator 7), an extra term with no constant and
    # one whose E3[-4,1](7z) adds -1/4 at q^0 each fail at the same first
    # coefficient
    broken = []
    for ident in REMARK_IDENTITIES:
        broken.append(dataclasses.replace(ident, scale=ident.scale * Fraction(5, 7)))
        broken.append(dataclasses.replace(ident, terms=ident.terms + ((1, 1, -4, 7),)))
        broken.append(dataclasses.replace(ident, terms=ident.terms + ((1, -4, 1, 7),)))
    monkeypatch.setattr(etasearch, "REMARK_IDENTITIES", tuple(broken))
    reports = verify_remark_identities(precision=40)
    assert len(reports) == len(broken)
    for ident, rep in zip(broken, reports):
        lhs = eta_quotient_expansion(parse_eta(ident.label), 40)
        want = first_deviation(lhs, (1,), coefficient_rows([remark_rhs(ident, 40)], 40), 0, 40)
        assert want is not None
        assert not rep.holds
        assert rep.first_mismatch == want, ident
        if ident.terms[-1] == (1, -4, 1, 7):
            assert want == 0
