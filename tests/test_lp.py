import numpy as np
import pytest

from celab.lp import LinearProgram, solve_lp


def test_single_variable_upper_bound():
    lp = LinearProgram(objective=[1.0], ineq_rows=[[1.0]], ineq_rhs=[1.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)


def test_degenerate_optimum_tie_break():
    # every point on x+y=1 is optimal; smallest-index rule settles on (1, 0)
    lp = LinearProgram(objective=[1.0, 1.0], ineq_rows=[[1.0, 1.0]], ineq_rhs=[1.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-12)


def test_infeasible_detected():
    lp = LinearProgram(objective=[1.0], ineq_rows=[[1.0]], ineq_rhs=[-1.0])
    assert solve_lp(lp).status == "infeasible"


def test_unbounded_detected():
    lp = LinearProgram(objective=[1.0])
    assert solve_lp(lp).status == "unbounded"


def test_equality_with_bounds():
    lp = LinearProgram(
        objective=[1.0, 0.0, 0.0],
        eq_rows=[[1.0, 1.0, 1.0]],
        eq_rhs=[1.0],
        bounds=[(0.0, 1.0)] * 3,
    )
    sol = solve_lp(lp)
    np.testing.assert_allclose(sol.x, [1.0, 0.0, 0.0], atol=1e-12)


def test_shifted_lower_bounds():
    # maximize -x with x in [-2, 5] -> x = -2
    lp = LinearProgram(objective=[-1.0], bounds=[(-2.0, 5.0)])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(-2.0, abs=1e-12)
    assert sol.objective == pytest.approx(2.0, abs=1e-12)


def test_upper_bound_only_binding():
    lp = LinearProgram(objective=[3.0, 1.0], bounds=[(0.0, 2.0), (0.0, 4.0)])
    sol = solve_lp(lp)
    np.testing.assert_allclose(sol.x, [2.0, 4.0], atol=1e-12)


def test_negative_rhs_needs_phase_one():
    # x1 + x2 >= 1 written as -x1 - x2 <= -1
    lp = LinearProgram(
        objective=[-1.0, -2.0],
        ineq_rows=[[-1.0, -1.0]],
        ineq_rhs=[-1.0],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-12)


def test_rejects_infinite_lower_bound():
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0], bounds=[(-np.inf, 1.0)])


def test_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0], bounds=[(2.0, 1.0)])


def test_rejects_nan_upper_bound():
    # hi < lo is false for NaN, and the solver would read it as +inf
    with pytest.raises(ValueError, match="NaN"):
        LinearProgram(objective=[1.0], bounds=[(0.0, np.nan)])


def _random_feasible_lp(rng: np.random.Generator) -> LinearProgram:
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 6))
    a = rng.normal(size=(m, n))
    x0 = rng.random(n)
    b = a @ x0 + rng.random(m)  # x0 strictly feasible
    c = rng.normal(size=n)
    return LinearProgram(
        objective=c, ineq_rows=a, ineq_rhs=b, bounds=[(0.0, 10.0)] * n
    )


def test_determinism_bit_identical():
    rng = np.random.default_rng(7)
    lp = _random_feasible_lp(rng)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.objective == b.objective


def test_against_scipy_on_random_programs():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(42)
    for _ in range(50):
        lp = _random_feasible_lp(rng)
        mine = solve_lp(lp)
        ref = scipy_opt.linprog(
            -lp.objective,
            A_ub=lp.ineq_rows,
            b_ub=lp.ineq_rhs,
            bounds=lp.bounds,
            method="highs",
        )
        assert mine.status == "optimal"
        assert ref.status == 0
        assert mine.objective == pytest.approx(-ref.fun, abs=1e-7)


def test_against_scipy_with_equalities():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        c = rng.normal(size=n)
        a_eq = np.ones((1, n))
        lp = LinearProgram(
            objective=c,
            eq_rows=a_eq,
            eq_rhs=[1.0],
            bounds=[(0.0, 1.0)] * n,
        )
        mine = solve_lp(lp)
        ref = scipy_opt.linprog(
            -c, A_eq=a_eq, b_eq=[1.0], bounds=lp.bounds, method="highs"
        )
        assert mine.objective == pytest.approx(-ref.fun, abs=1e-9)
