import hashlib
import random
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import Phase, given, settings, strategies as st

from qformlab import cli, etasearch, newforms, spaces
from qformlab.arith import UNIQUE, ExactMatrix
from qformlab.eisenstein import eisenstein3
from qformlab.etaq import EtaQuotient, ligozat_check, parse_eta
from qformlab.qseries import GRADE, QSeries, eta_quotient_expansion
from qformlab.quadforms import classify, genfun
from qformlab.spaces import (
    SPACE_DISCRIMINANTS,
    _SpanSolver,
    basis_expansions,
    build_basis,
    solve_in_basis,
    span_solver,
    sturm_bound,
    verify_basis,
)

EXPECTED_DIMENSIONS = {-3: 12, -4: 12, -8: 10, -24: 10}
EXPECTED_EISENSTEIN = {-3: 8, -4: 8, -8: 4, -24: 4}

# the Eisenstein halves as once transcribed: E3[chi,1](tz) and then
# E3[1,chi](tz) over these t, and four specs for chi(-24)
REFERENCE_SCALES = {-3: (1, 2, 4, 8), -4: (1, 2, 3, 6), -8: (1, 3)}
REFERENCE_CHI_M24 = ("E3[-24,1,1]", "E3[1,-24,1]", "E3[-3,8,1]", "E3[8,-3,1]")


def test_sturm_bound():
    # weight 3 on Gamma_0(24): (3/12) * [SL2(Z) : Gamma_0(24)] = 12
    assert sturm_bound() == 12


def test_space_list():
    assert SPACE_DISCRIMINANTS == (-3, -4, -8, -24)


@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
def test_basis_shape(disc):
    basis = build_basis(disc)
    assert basis.dimension == EXPECTED_DIMENSIONS[disc]
    assert len(basis.eisenstein) == EXPECTED_EISENSTEIN[disc]
    assert len(basis.cusp) == basis.dimension - len(basis.eisenstein)


@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
def test_derived_eisenstein_basis_matches_the_reference(disc):
    labels = tuple(s.label() for s in build_basis(disc).eisenstein)
    if disc == -24:
        assert labels == REFERENCE_CHI_M24
    else:
        scales = REFERENCE_SCALES[disc]
        assert labels == tuple("E3[%d,1,%d]" % (disc, t) for t in scales) + tuple(
            "E3[1,%d,%d]" % (disc, t) for t in scales
        )


@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
def test_verify_basis(disc):
    rep = verify_basis(disc)
    assert rep.cusp_forms_ok
    assert rep.characters_ok
    assert rep.weights_ok
    assert rep.valuations_distinct
    assert rep.rank == EXPECTED_DIMENSIONS[disc]
    assert rep.rank_ok
    assert rep.ok


@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
def test_cusp_elements_are_certified(disc):
    basis = build_basis(disc)
    for f in basis.cusp:
        rep = ligozat_check(f)
        assert rep.is_holomorphic and rep.is_cuspidal
        assert rep.weight == 3
        assert rep.character.discriminant == disc


def test_cusp_valuations():
    assert [f.valuation24() // GRADE for f in build_basis(-3).cusp] == [1, 2, 3, 5]
    assert [f.valuation24() // GRADE for f in build_basis(-4).cusp] == [1, 2, 3, 4]
    assert [f.valuation24() // GRADE for f in build_basis(-8).cusp] == [1, 2, 3, 4, 5, 6]
    assert [f.valuation24() // GRADE for f in build_basis(-24).cusp] == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
def test_solve_in_basis_round_trip(disc):
    # random rational combinations resolve to their own coordinates
    exps = basis_expansions(disc, 30)
    rng = random.Random(disc)
    for _ in range(3):
        coords = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in exps]
        f = QSeries([sum(x * e.qcoeff(n) for x, e in zip(coords, exps)) for n in range(30)], 30)
        got = solve_in_basis(f, disc)
        assert list(got) == coords


def test_solve_in_basis_rejects_nonmember(any_disc=-3):
    f = QSeries([1], 30)  # the constant 1 is not in M_3
    with pytest.raises(ValueError):
        solve_in_basis(f, any_disc)


def test_solve_in_basis_verifies_through_the_full_precision():
    # a theta series moved at q^80 agrees with its formula on q^0..q^79,
    # so only a check through all 101 known coefficients can reject it
    exps = (1, 1, 2, 2)
    disc = classify(exps).discriminant
    theta = genfun(exps, 101)
    coords = solve_in_basis(theta, disc)
    moved = QSeries([theta.qcoeff(n) + (n == 80) for n in range(101)], 101)
    assert [moved.qcoeff(n) for n in range(80)] == [theta.qcoeff(n) for n in range(80)]
    with pytest.raises(ValueError, match=r"coefficient of q\^80 deviates"):
        solve_in_basis(moved, disc)
    assert solve_in_basis(genfun(exps, 30), disc) == coords


def test_expansions_are_cached():
    a = basis_expansions(-8, 25)
    b = basis_expansions(-8, 25)
    assert a is b


@settings(max_examples=25, deadline=None)
@given(
    disc=st.sampled_from(SPACE_DISCRIMINANTS),
    reads=st.lists(
        st.tuples(st.sampled_from(("basis", "cusp")), st.integers(min_value=13, max_value=400)),
        min_size=1,
        max_size=6,
    ),
)
def test_any_read_sequence_equals_cold_expansions(disc, reads):
    # however the one tuple of a space has grown, each read sees the
    # series of a cold expansion at its own precision
    spaces._EXPANSIONS.clear()
    basis = build_basis(disc)
    for part, p in reads:
        got = basis_expansions(disc, p, part)
        assert len(got) == basis.dimension
        start = 0 if part == "basis" else len(basis.eisenstein)
        cold = [eisenstein3(e.chi, e.psi, e.t, p) for e in basis.eisenstein[start:]]
        cold += [eta_quotient_expansion(f, p) for f in basis.cusp]
        assert [QSeries([e.qcoeff(n) for n in range(p)], p) for e in got[start:]] == cold
    assert list(spaces._EXPANSIONS) == [disc]


def test_cusp_reads_leave_the_eisenstein_series_alone(monkeypatch):
    spaces._EXPANSIONS.clear()
    basis = build_basis(-24)
    ne = len(basis.eisenstein)
    first = basis_expansions(-24, 61)
    assert basis_expansions(-24, 61) is first

    def rebuilt(*args):
        raise AssertionError("a cusp read rebuilt an Eisenstein series")

    monkeypatch.setattr(spaces, "eisenstein3", rebuilt)
    assert basis_expansions(-24, 40, "cusp") is first
    grown = basis_expansions(-24, 300, "cusp")
    assert grown is not first
    assert all(a is b for a, b in zip(grown[:ne], first[:ne]))
    assert [e.qprecision() for e in grown[ne:]] == [300] * len(basis.cusp)
    # hits return the cached tuple itself, whatever part they read
    assert basis_expansions(-24, 200, "cusp") is grown
    assert basis_expansions(-24, 61) is grown
    assert spaces._EXPANSIONS[-24] is grown
    # a basis read grows the Eisenstein series and keeps the longer cusp ones
    monkeypatch.undo()
    longer = basis_expansions(-24, 100)
    assert [e.qprecision() for e in longer[:ne]] == [100] * ne
    assert all(a is b for a, b in zip(longer[ne:], grown[ne:]))


def test_expansion_cache_holds_one_entry_per_space():
    spaces._EXPANSIONS.clear()
    exps = (1, 1, 2, 2)
    disc = classify(exps).discriminant
    theta = genfun(exps, 80)
    coords = solve_in_basis(theta, disc)
    for p in range(13, 81):
        assert solve_in_basis(genfun(exps, p), disc) == coords
    assert len(spaces._EXPANSIONS) <= 4
    assert list(spaces._EXPANSIONS) == [disc]


# the column sets one solver per space answers for: the whole basis and
# its Eisenstein columns on q^0..q^12, and its cusp columns on q^1..q^12
# (the Hecke images), where they all vanish at q^0
PARTS = ("basis", "eisenstein", "cusp")


def _part(solver, part):
    """(column indices, sampled row indices) of one column set."""
    k = len(solver.table[0])
    return {
        "basis": (range(k), solver.rows),
        "eisenstein": (range(solver.ne), solver.rows),
        "cusp": (range(solver.ne, k), solver.rows[1:]),
    }[part]


def _coordinates(solver, part, y):
    """The solver's coordinates of y over one column set: None unless y
    is in the span of the basis with zero coordinates off the set."""
    nums = solver.numerators(y)
    sol = None if nums is None else tuple(Fraction(v, solver.den) for v in nums)
    cols, _ = _part(solver, part)
    if sol is None or any(v for j, v in enumerate(sol) if j not in cols):
        sol = None
    else:
        sol = sol[cols.start : cols.stop]
    if part == "eisenstein":
        # the census path, which tests the cusp rows of L first
        nums = solver.eisenstein_numerators(y)
        assert sol == (None if nums is None else tuple(Fraction(v, solver.den) for v in nums))
    return sol


def _right_reduced(rows):
    """Integer rows spanning the same space, reduced from the right: their
    last nonzero indices are distinct and increase."""
    reduced, _ = ExactMatrix.from_rows([z[::-1] for z in rows])._reduce()
    out = []
    for z in reversed(reduced):
        m = lcm(*(Fraction(v).denominator for v in z))
        out.append([int(v * m) for v in reversed(z)])
    return out


# no shrink phase: shrinking the Fraction draws of a failing case ran for
# minutes, while the first failing example already names the solver
@pytest.mark.parametrize("part", PARTS)
@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
@settings(max_examples=15, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(data=st.data())
def test_span_solver_matches_solve_linear(disc, part, data):
    # the one solver of a space against solve_linear on one column set
    solver = span_solver(disc)
    cols, rows = _part(solver, part)
    reference = ExactMatrix.from_rows([[solver.samples[n][j] for j in cols] for n in rows])
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    x = tuple(data.draw(coeff) for _ in cols)
    y = [sum(row[j] * v for j, v in zip(cols, x)) for row in solver.samples]
    assert _coordinates(solver, part, y) == x
    # one sampled coefficient moved by one: outside the span exactly when
    # solve_linear finds no unique solution, else the same coordinates
    i = data.draw(st.sampled_from(rows))
    y[i] += data.draw(st.sampled_from((1, -1)))
    status, sol = reference.solve_linear([y[n] for n in rows])
    if status == UNIQUE:
        assert _coordinates(solver, part, y) == tuple(sol)
    else:
        assert _coordinates(solver, part, y) is None


@pytest.mark.parametrize("part", PARTS)
@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
def test_span_solver_rejects_dependent_columns(disc, part):
    solver = span_solver(disc)
    assert len(solver.kernel) == len(solver.rows) - len(solver.table[0])
    # one more column: the sum of the set's own columns
    cols, _ = _part(solver, part)
    extra = QSeries([sum(row[j] for j in cols) for row in solver.table], len(solver.table))
    with pytest.raises(ValueError, match="dependent columns"):
        _SpanSolver(basis_expansions(disc, len(solver.table)) + (extra,), solver.ne)


# length of the shortest dependent prefix of the Eisenstein samples:
# their prefix ranks first drop at q^5 for chi(-3), chi(-4), at q^4 else
EISENSTEIN_REACH = {-3: 6, -4: 6, -8: 5, -24: 5}


@pytest.mark.parametrize("part", PARTS)
@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
def test_span_solver_kernel_rows_end_in_increasing_order(disc, part):
    # the left kernel of one column set on q^0..q^12 is spanned by the
    # kernel rows of the one factorization and its left-inverse rows off
    # the set; reduced from the right, its first row is the dependency
    # of the shortest dependent prefix, which for the Eisenstein columns
    # is the solver's `first`
    solver = span_solver(disc)
    cols, _ = _part(solver, part)
    others = [row for j, row in enumerate(solver.left_inverse) if j not in cols]
    kernel = _right_reduced(solver.kernel + others)
    samples = [[row[j] for j in cols] for row in solver.samples]
    ends = []
    for z in kernel:
        assert all(sum(a * b for a, b in zip(z, col)) == 0 for col in zip(*samples))
        ends.append(max(i for i, v in enumerate(z) if v))
    assert ends == sorted(set(ends))
    assert len(kernel) == len(solver.rows) - len(cols)
    assert ExactMatrix.from_rows(kernel).rank() == len(kernel)
    reach = ends[0] + 1
    assert ExactMatrix.from_rows(samples[: reach - 1]).rank() == reach - 1
    assert ExactMatrix.from_rows(samples[:reach]).rank() == reach - 1
    if part == "eisenstein":
        assert kernel[0] == solver.first
        assert reach == solver.reach == EISENSTEIN_REACH[disc]
    assert all(type(v) is int for v in solver.first)


@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
def test_first_row_matches_an_eisenstein_only_factorization(disc):
    # the construction the solver replaced: a left_factor of the
    # Eisenstein columns alone, its kernel reduced from the right
    solver = span_solver(disc)
    _, kernel = ExactMatrix.from_rows([row[: solver.ne] for row in solver.samples]).left_factor()
    first = _right_reduced(kernel)[0]
    assert first == solver.first
    assert max(i for i, v in enumerate(first) if v) + 1 == solver.reach == EISENSTEIN_REACH[disc]


# SHA-256 of repr((den, left_inverse, kernel, eisenstein_kernel, first,
# reach)), rows as int lists, recorded on the solver that found `first`
# by reducing the reversed kernel rows
SOLVER_DIGESTS = {
    -3: "4245d00f42d79b6bc23c2223d30c41aaafac3b5ec07e2da9defb31d3bb7c5de1",
    -4: "9a8c47cda67d5d0cdae9eea56ac49f00c764431568957ac0f78273b3fdb12150",
    -8: "22ac1ddceffd3eb0f04ec1275afdff303651f12930147748c28742a81000e86c",
    -24: "348923e2314f05c64a27ef0b454b6744fcbe155e526c27a307d41e024cdefdb9",
}


@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
def test_span_solver_integers_are_pinned(disc):
    solver = span_solver(disc)

    def ints(row):
        assert all(type(v) is int for v in row)
        return list(row)

    payload = (
        solver.den,
        [ints(r) for r in solver.left_inverse],
        [ints(r) for r in solver.kernel],
        [ints(r) for r in solver.eisenstein_kernel],
        ints(solver.first),
        solver.reach,
    )
    assert hashlib.sha256(repr(payload).encode()).hexdigest() == SOLVER_DIGESTS[disc]


def _counted_left_factor(monkeypatch):
    """Record (rows, cols) of every left_factor call from here on."""
    factored = []
    left_factor = ExactMatrix.left_factor

    def counted(self):
        factored.append((self.rows, self.cols))
        return left_factor(self)

    monkeypatch.setattr(ExactMatrix, "left_factor", counted)
    return factored


def test_one_factorization_serves_every_reader(monkeypatch):
    # a formula, a census member and a Hecke matrix of one space: the
    # whole basis is factored once, on q^0..q^12
    monkeypatch.setattr(spaces, "_SOLVERS", {})
    factored = _counted_left_factor(monkeypatch)
    basis = build_basis(-3)
    assert solve_in_basis(genfun((3, 0, 3, 0)), -3)[len(basis.eisenstein):] == (4, 0, 0, -16)
    assert etasearch.eisenstein_expressible(EtaQuotient(24, dict(parse_eta("eta3[-3,9]").items())), -3) == (0, 0, 0, 0, 1, 0, 0, 0)
    assert newforms._hecke_matrix(-3, 5).rows == len(basis.cusp)
    assert factored == [(sturm_bound() + 1, basis.dimension)]
    assert list(spaces._SOLVERS) == [-3]


def test_sturm_solves_factor_each_space_once(monkeypatch, capsys):
    # no solve_in_basis or _hecke_matrix call eliminates a matrix of its
    # own, and each space is factored once from cold
    spaces._SOLVERS.clear()
    guarded = {spaces.solve_in_basis.__code__, newforms._hecke_matrix.__code__}
    solves = []  # name of the guarded caller, or None
    solve_linear = ExactMatrix.solve_linear

    def counted_solve(self, y):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in guarded:
            frame = frame.f_back
        solves.append(frame and frame.f_code.co_name)
        return solve_linear(self, y)

    monkeypatch.setattr(ExactMatrix, "solve_linear", counted_solve)
    factored = _counted_left_factor(monkeypatch)
    for argv in (["derive-table"], ["verify-tables"], ["verify-newforms"]):
        assert cli.main(argv) == 0
    for name in ("f1", "f2", "f5"):
        assert newforms.rederive_newform(name).ok
    capsys.readouterr()
    assert solves == [None]  # solve_back_f1 only; minimal polynomials read kernel_basis
    assert sorted(spaces._SOLVERS) == sorted(SPACE_DISCRIMINANTS)
    assert len(factored) == len(spaces._SOLVERS)
