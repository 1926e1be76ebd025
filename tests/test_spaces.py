import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qformlab import cli, newforms, spaces
from qformlab.arith import UNIQUE, ExactMatrix
from qformlab.etaq import ligozat_check
from qformlab.qseries import GRADE, QSeries
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
    assert len(basis.labels()) == basis.dimension


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
    basis = build_basis(disc)
    exps = basis_expansions(basis, 30)
    rng = random.Random(disc)
    for _ in range(3):
        coords = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in exps]
        f = QSeries.zero(30 * GRADE)
        for x, e in zip(coords, exps):
            if x:
                f = f + QSeries.from_terms(
                    ((ee, x * c) for ee, c in e.terms()), e.trunc
                )
        got = solve_in_basis(f, basis)
        assert list(got) == coords


def test_solve_in_basis_rejects_nonmember(any_disc=-3):
    basis = build_basis(any_disc)
    f = QSeries.from_terms([(0, 1)], 30 * GRADE)  # the constant 1 is not in M_3
    with pytest.raises(ValueError):
        solve_in_basis(f, basis)


def test_solve_in_basis_verifies_through_the_full_precision():
    # a theta series moved at q^80 agrees with its formula on q^0..q^79,
    # so only a check through all 101 known coefficients can reject it
    exps = (1, 1, 2, 2)
    basis = build_basis(classify(exps).discriminant)
    theta = genfun(exps, 101)
    coords = solve_in_basis(theta, basis)
    moved = QSeries.from_terms([(GRADE * 80, 1)], theta.trunc) + theta
    assert [moved.qcoeff(n) for n in range(80)] == [theta.qcoeff(n) for n in range(80)]
    with pytest.raises(ValueError, match=r"coefficient of q\^80 deviates"):
        solve_in_basis(moved, basis)
    assert solve_in_basis(genfun(exps, 30), basis) == coords


def test_expansions_are_cached():
    basis = build_basis(-8)
    a = basis_expansions(basis, 25)
    b = basis_expansions(basis, 25)
    assert a is b


PARTS = ("basis", "eisenstein", "cusp")


@pytest.mark.parametrize("part", PARTS)
@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_span_solver_matches_solve_linear(disc, part, data):
    solver = span_solver(disc, part)
    reference = ExactMatrix.from_rows(solver.samples)
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    x = tuple(data.draw(coeff) for _ in solver.columns)
    y = [sum(a * b for a, b in zip(row, x)) for row in solver.samples]
    assert solver.solve(y) == x
    # one sampled coefficient moved by one: outside the span exactly when
    # solve_linear finds no unique solution, else the same coordinates
    i = data.draw(st.integers(min_value=0, max_value=len(y) - 1))
    y[i] += data.draw(st.sampled_from((1, -1)))
    status, sol = reference.solve_linear(y)
    if status == UNIQUE:
        assert solver.solve(y) == tuple(sol)
    else:
        assert solver.solve(y) is None


@pytest.mark.parametrize("part", PARTS)
@pytest.mark.parametrize("disc", SPACE_DISCRIMINANTS)
def test_span_solver_rejects_dependent_columns(disc, part):
    solver = span_solver(disc, part)
    assert len(solver.kernel) == len(solver.rows) - len(solver.columns)
    with pytest.raises(ValueError):
        _SpanSolver(solver.columns + solver.columns[-1:], solver.rows)


def test_sturm_solves_factor_each_space_once(monkeypatch, capsys):
    # no solve_in_basis or _hecke_matrix call eliminates a matrix of its
    # own, and each (space, column set) is factored once from cold
    spaces._SOLVERS.clear()
    guarded = {spaces.solve_in_basis.__code__, newforms._hecke_matrix.__code__}
    solves = []  # name of the guarded caller, or None
    factored = []
    solve_linear, left_factor = ExactMatrix.solve_linear, ExactMatrix.left_factor

    def counted_solve(self, y):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in guarded:
            frame = frame.f_back
        solves.append(frame and frame.f_code.co_name)
        return solve_linear(self, y)

    def counted_factor(self):
        factored.append((self.rows, self.cols))
        return left_factor(self)

    monkeypatch.setattr(ExactMatrix, "solve_linear", counted_solve)
    monkeypatch.setattr(ExactMatrix, "left_factor", counted_factor)
    for argv in (["derive-table"], ["verify-tables"], ["verify-newforms"]):
        assert cli.main(argv) == 0
    for name in ("f1", "f2", "f5"):
        assert newforms.rederive_newform(name).ok
    capsys.readouterr()
    assert solves and set(solves) == {None}  # solve-back and minimal polynomials only
    assert sorted(spaces._SOLVERS) == sorted(
        [(d, "basis") for d in SPACE_DISCRIMINANTS] + [(d, "cusp") for d in (-3, -8, -24)]
    )
    assert len(factored) == len(spaces._SOLVERS)
