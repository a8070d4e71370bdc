import hashlib
import re

import numpy as np
import pytest
from oracles import random_square_payoffs, random_valid_2x2, reference_tableau

import celab.lp
from celab import estimation
from celab.equilibrium import (
    correlated_equilibrium_program,
    max_welfare_correlated_equilibrium,
)
from celab.errors import PreconditionError, SolverError
from celab.games import make_game
from celab.lp import LinearProgram, solve_lp


def _each_tableau(monkeypatch):
    """Yield "array", then "list", with solve_lp pivoting every tableau in
    that container, so that a test of a tiny program runs the shared loop
    on both (a tiny tableau is a list by default)."""
    for container, cells in (("array", -1), ("list", 10**9)):
        monkeypatch.setattr(celab.lp, "LIST_CELLS", cells)
        yield container


def test_single_variable_upper_bound(monkeypatch):
    lp = LinearProgram(objective=[1.0], ineq_rows=[[1.0]], ineq_rhs=[1.0])
    for _ in _each_tableau(monkeypatch):
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-12)


def test_degenerate_optimum_tie_break(monkeypatch):
    # every point on x+y=1 is optimal; smallest-index rule settles on (1, 0)
    lp = LinearProgram(objective=[1.0, 1.0], ineq_rows=[[1.0, 1.0]], ineq_rhs=[1.0])
    for _ in _each_tableau(monkeypatch):
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-12)


def test_infeasible_detected(monkeypatch):
    lp = LinearProgram(objective=[1.0], ineq_rows=[[1.0]], ineq_rhs=[-1.0])
    for _ in _each_tableau(monkeypatch):
        assert solve_lp(lp).status == "infeasible"


def test_unbounded_detected(monkeypatch):
    lp = LinearProgram(objective=[1.0])
    for _ in _each_tableau(monkeypatch):
        assert solve_lp(lp).status == "unbounded"


def test_equality_with_bounds(monkeypatch):
    lp = LinearProgram(
        objective=[1.0, 0.0, 0.0],
        eq_rows=[[1.0, 1.0, 1.0]],
        eq_rhs=[1.0],
        bounds=[(0.0, 1.0)] * 3,
    )
    for _ in _each_tableau(monkeypatch):
        sol = solve_lp(lp)
        np.testing.assert_allclose(sol.x, [1.0, 0.0, 0.0], atol=1e-12)


def test_shifted_lower_bounds(monkeypatch):
    # maximize -x with x in [-2, 5] -> x = -2
    lp = LinearProgram(objective=[-1.0], bounds=[(-2.0, 5.0)])
    for _ in _each_tableau(monkeypatch):
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(-2.0, abs=1e-12)
        assert sol.objective == pytest.approx(2.0, abs=1e-12)


def test_upper_bound_only_binding(monkeypatch):
    lp = LinearProgram(objective=[3.0, 1.0], bounds=[(0.0, 2.0), (0.0, 4.0)])
    for _ in _each_tableau(monkeypatch):
        sol = solve_lp(lp)
        np.testing.assert_allclose(sol.x, [2.0, 4.0], atol=1e-12)


def test_negative_rhs_needs_phase_one(monkeypatch):
    # x1 + x2 >= 1 written as -x1 - x2 <= -1
    lp = LinearProgram(
        objective=[-1.0, -2.0],
        ineq_rows=[[-1.0, -1.0]],
        ineq_rhs=[-1.0],
    )
    for _ in _each_tableau(monkeypatch):
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-12)


def test_redundant_equality_row_is_dropped(monkeypatch):
    # the second row repeats the first; its artificial cannot leave the
    # basis after phase 1, so the row goes before phase 2
    lp = LinearProgram(
        objective=[1.0, 2.0], eq_rows=[[1.0, 1.0], [2.0, 2.0]], eq_rhs=[1.0, 2.0]
    )
    for _ in _each_tableau(monkeypatch):
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        np.testing.assert_array_equal(sol.x, [0.0, 1.0])
        assert sol.objective == 2.0


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


@pytest.mark.parametrize("bound, side", [((None, 1.0), "lower"), (("0", 1.0), "lower"),
                                         ((0.0, "1"), "upper")])
def test_rejects_a_bound_that_is_not_a_number(bound, side):
    with pytest.raises(PreconditionError, match=f"^{side} bound of variable 1 must be a number"):
        LinearProgram(objective=[1.0, 1.0], bounds=[(0.0, 1.0), bound])


@pytest.mark.parametrize("objective, shape", [([[1.0, 2.0]], (1, 2)), (3.0, ())])
def test_rejects_an_objective_that_is_not_one_dimensional(objective, shape):
    with pytest.raises(PreconditionError,
                       match=re.escape(f"objective has shape {shape}, expected (any,)")):
        LinearProgram(objective=objective)


@pytest.mark.parametrize("n, field, rows, rhs, shape", [
    # four numbers under two variables must not become the 2x2 identity
    (2, "ineq", [[1.0, 0.0, 0.0, 1.0]], [1.0, 2.0], (1, 4)),
    # nor a 2x2 block under four variables one 1x4 row
    (4, "eq", np.eye(2), [1.0], (2, 2)),
])
def test_rejects_rows_of_the_wrong_width(n, field, rows, rhs, shape):
    with pytest.raises(PreconditionError, match=re.escape(
            f"{field}_rows has shape {shape}, expected (any, {n})")):
        LinearProgram(objective=np.ones(n), **{f"{field}_rows": rows, f"{field}_rhs": rhs})


def test_one_dimensional_row_is_refused():
    # a row block is 2-D: a flat list is not read as one row
    with pytest.raises(PreconditionError,
                       match=re.escape("ineq_rows has shape (2,), expected (any, 2)")):
        LinearProgram(objective=[1.0, 1.0], ineq_rows=[1.0, 2.0], ineq_rhs=2.0)


def test_empty_row_block_is_no_rows():
    lp = LinearProgram(objective=[1.0], ineq_rows=np.zeros((0, 1)), ineq_rhs=[],
                       bounds=[(0.0, 1.0)])
    assert lp.ineq_rows.shape == (0, 1)
    assert solve_lp(lp).x[0] == 1.0


_VALID_PROGRAM = {"objective": [1.0, 1.0], "eq_rows": [[1, 1]], "eq_rhs": [1.0]}


@pytest.mark.parametrize("change, message", [
    # each solved as if the bools were numbers
    ({"objective": [True, 1.0]}, "objective must hold numbers, not booleans"),
    ({"eq_rhs": [True]}, "eq_rhs must hold numbers, not booleans"),
    ({"bounds": [(False, True), (0, None)]},
     "lower bound of variable 0 must be a number, got False"),
    # each ended in a TypeError, or a ValueError that named no argument
    ({"bounds": [0, 1]}, "bounds must be 2 (lo, hi) pairs, one per variable"),
    ({"bounds": 5}, "bounds must be 2 (lo, hi) pairs, one per variable"),
    ({"bounds": [(0.0, 1.0), (0.0, 1.0, 2.0)]},
     "bounds must be 2 (lo, hi) pairs, one per variable"),
    # asarray(None) read as NaN: "must be finite"
    ({"ineq_rows": [[1.0, 0.0]]}, "ineq_rhs is not an array of numbers"),
    # silently cut down to shape (1,)
    ({"ineq_rows": [[1.0, 0.0]], "ineq_rhs": [[1.0]]},
     "ineq_rhs has shape (1, 1), expected (1,)"),
    # numpy's "could not convert string to float"
    ({"objective": "ab"}, "objective is not an array of numbers"),
    # an OverflowError, which is no ValueError
    ({"objective": [10**400, 1.0]}, "objective is not an array of numbers"),
], ids=["bool-objective", "bool-eq-rhs", "bool-bounds", "bounds-of-numbers",
        "bounds-a-number", "bound-of-three", "rows-without-rhs", "rhs-of-rows",
        "string-objective", "huge-integer-objective"])
def test_a_malformed_program_raises_a_precondition_error(change, message):
    LinearProgram(**_VALID_PROGRAM)
    with pytest.raises(PreconditionError, match="^" + re.escape(message) + "$"):
        LinearProgram(**{**_VALID_PROGRAM, **change})


@pytest.mark.parametrize("field, bad", [
    ("objective", np.nan),
    ("objective", np.inf),
    ("ineq_rows", np.inf),
    ("ineq_rhs", np.nan),
    ("eq_rows", -np.inf),
    ("eq_rhs", np.nan),
])
def test_rejects_non_finite_data(field, bad):
    data = {
        "objective": np.array([1.0, 1.0]),
        "ineq_rows": np.array([[1.0, 2.0]]),
        "ineq_rhs": np.array([2.0]),
        "eq_rows": np.array([[1.0, 1.0]]),
        "eq_rhs": np.array([1.5]),
    }
    data[field].flat[0] = bad
    with pytest.raises(ValueError, match="finite"):
        LinearProgram(**data)


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


def _first_tableau_rows(monkeypatch, lp: LinearProgram) -> int:
    """Rows of the tableau solve_lp builds for `lp`, read at the first
    _simplex_max call."""
    simplex_max = celab.lp._simplex_max
    shapes = []

    def first_tableau(t, *args):
        shapes.append(np.shape(t))
        return simplex_max(t, *args)

    with monkeypatch.context() as m:
        m.setattr(celab.lp, "_simplex_max", first_tableau)
        solve_lp(lp)
    return shapes[0][0]


def test_package_programs_state_no_bound_rows(monkeypatch):
    # sum(x) = 1 and x >= 0 imply x <= 1, so no package LP states that bound
    # and solve_lp adds no row for it: a 2x2 CE tableau is 4 deviation rows
    # and the simplex row, and an estimation LP has only its own rows
    u1, u2 = random_valid_2x2(np.random.default_rng(11))
    game = make_game(
        ["p1", "p2"],
        {"p1": ["a1", "a2"], "p2": ["b1", "b2"]},
        {"p1": u1.reshape(-1), "p2": u2.reshape(-1)},
    )
    programs = [correlated_equilibrium_program(game)]
    assert _first_tableau_rows(monkeypatch, programs[0]) == 5

    def record(lp):
        programs.append(lp)
        return solve_lp(lp)

    with monkeypatch.context() as m:
        m.setattr(estimation, "solve_lp", record)
        p = max_welfare_correlated_equilibrium(game).distribution
        for p_tilde in (p, np.array([0.4, 0.1, 0.1, 0.4])):
            estimation.estimate_payoff(game.payoff("p1"), p_tilde, round_trip=False)
    assert any(lp.objective.size > 4 for lp in programs)  # a diagnosis LP
    for lp in programs:
        assert all(hi == np.inf for _, hi in lp.bounds)
        own_rows = lp.ineq_rows.shape[0] + lp.eq_rows.shape[0]
        assert _first_tableau_rows(monkeypatch, lp) == own_rows


def test_a_repeated_basis_raises_instead_of_cycling():
    # With its tolerances, Bland's rule cycles on this 6x6 CE program: it
    # goes through 11,989 distinct bases, then repeats one. Brent's check
    # stops it after 16,537 pivots.
    u = random_square_payoffs(6003, 6)
    menu = [f"a{i + 1}" for i in range(6)]
    game = make_game(["p1", "p2"], [menu, menu], {"p1": u[0], "p2": u[1]})
    with pytest.raises(SolverError, match="^simplex cycled: "):
        solve_lp(correlated_equilibrium_program(game))


def _simplex_point(rng: np.random.Generator, size: int) -> np.ndarray:
    v = rng.random(size)
    return v / v.sum()


def _golden_ce_programs(rng: np.random.Generator) -> list[LinearProgram]:
    """Max-welfare CE programs of random n x n games, n = 2..5. With this
    seed every one has an answer; on some 5x5 programs Bland's rule with its
    tolerances repeats a basis, and solve_lp raises instead."""
    programs = []
    for n, count in ((2, 40), (3, 20), (4, 12), (5, 8)):
        menu = [f"a{i + 1}" for i in range(n)]
        for _ in range(count):
            game = make_game(
                ["p1", "p2"], [menu, menu],
                {"p1": _simplex_point(rng, n * n), "p2": _simplex_point(rng, n * n)},
            )
            programs.append(correlated_equilibrium_program(game))
    return programs


def _golden_estimation_programs(rng, monkeypatch) -> list[LinearProgram]:
    """Every LP estimate_payoff builds (both sign branches, and the diagnosis
    when both fail) for exact and sigma=0.002-noised 2x2 CE inputs."""
    programs = []

    def record(lp):
        programs.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(estimation, "solve_lp", record)
    for i in range(24):
        u1, u2 = random_valid_2x2(rng, require_two_ne=i % 4 != 3)
        game = make_game(
            ["p1", "p2"],
            {"p1": ["a1", "a2"], "p2": ["b1", "b2"]},
            {"p1": u1.reshape(-1), "p2": u2.reshape(-1)},
        )
        p = max_welfare_correlated_equilibrium(game).distribution
        noisy = np.maximum(p + rng.normal(0.0, 0.002, 4), 0.0)
        for p_tilde in (p, noisy / noisy.sum()):
            for rotated in (False, True):
                estimation.estimate_payoff(
                    game.payoff("p1"), p_tilde, rotate_opponent=rotated, round_trip=False
                )
    monkeypatch.undo()
    return programs


def _golden_general_programs(rng: np.random.Generator) -> list[LinearProgram]:
    """Random LPs with mixed-sign right-hand sides, equality rows and shifted,
    partly unbounded boxes: some are infeasible and some unbounded."""
    programs = []
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m_ub, m_eq = int(rng.integers(0, 5)), int(rng.integers(0, 3))
        lo = rng.choice([0.0, -1.0, 0.5], size=n)
        hi = np.where(rng.random(n) < 0.4, np.inf, lo + 3.0 * rng.random(n))
        programs.append(LinearProgram(
            objective=rng.normal(size=n),
            ineq_rows=rng.normal(size=(m_ub, n)) if m_ub else None,
            ineq_rhs=rng.normal(size=m_ub) if m_ub else None,
            eq_rows=rng.normal(size=(m_eq, n)) if m_eq else None,
            eq_rhs=rng.normal(size=m_eq) if m_eq else None,
            bounds=list(zip(lo, hi)),
        ))
    return programs


def test_golden_solution_digest(monkeypatch):
    # sha256 over status, pivot count, x bytes and repr(objective) of every
    # program in a seeded corpus, recorded with numpy 2.4 on OpenBLAS. A
    # change to pivoting, pricing, the ratio test or the tableau assembly
    # that moves any bit of any answer changes it.
    rng = np.random.default_rng(910)
    programs = _golden_ce_programs(rng)
    estimated = _golden_estimation_programs(rng, monkeypatch)
    assert any(lp.objective.size > 4 for lp in estimated)  # diagnosis LPs
    programs += estimated + _golden_general_programs(rng)
    digest = hashlib.sha256()
    statuses = []
    for lp in programs:
        sol = solve_lp(lp)
        statuses.append(sol.status)
        x = b"" if sol.x is None else sol.x.tobytes()
        digest.update(f"{sol.status}|{sol.iterations}|{sol.objective!r}|".encode() + x)
    assert len(programs) == 514
    assert statuses.count("infeasible") >= 5 and statuses.count("unbounded") >= 5
    assert digest.hexdigest() == (
        "db643820064aee91f3b0b2d51d84b76ba4376ed9dca495e3a789dadbb096db11"
    )


def _tie_prone_ce_programs(rng: np.random.Generator) -> list[LinearProgram]:
    """Max-welfare CE programs of 2x2 games whose payoffs are random, small
    integers (ties), equal up to 1e-9 steps (near-ties), or partly zero."""
    programs = []
    for i in range(240):
        kind = i % 4
        if kind == 0:
            u = rng.random((2, 4))
        elif kind == 1:
            u = rng.integers(1, 4, (2, 4)).astype(float)
        elif kind == 2:
            u = 0.5 + 1e-9 * rng.integers(-1, 2, (2, 4)) + 1e-12 * rng.random((2, 4))
        else:
            u = rng.random((2, 4)) * (rng.random((2, 4)) < 0.6)
            u[:, 0] += 0.1
        u /= u.sum(axis=1, keepdims=True)
        game = make_game(["p1", "p2"], [["a1", "a2"], ["b1", "b2"]], {"p1": u[0], "p2": u[1]})
        programs.append(correlated_equilibrium_program(game))
    return programs


def _signed_zero_programs(rng: np.random.Generator) -> list[LinearProgram]:
    """Small random LPs whose data hold -0.0 (in the objective, the rows,
    the right-hand sides and the lower bounds) and shifted lower bounds."""
    def with_zeros(a):
        return np.where(rng.random(np.shape(a)) < 0.3, rng.choice([0.0, -0.0]), a)

    programs = []
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m_ub, m_eq = int(rng.integers(0, 4)), int(rng.integers(0, 2))
        lo = rng.choice([0.0, -0.0, -1.0, 0.5], size=n)
        hi = np.where(rng.random(n) < 0.5, np.inf, lo + 2.0 * rng.random(n))
        programs.append(LinearProgram(
            objective=with_zeros(rng.normal(size=n)),
            ineq_rows=with_zeros(rng.normal(size=(m_ub, n))),
            ineq_rhs=with_zeros(rng.normal(size=m_ub)),
            eq_rows=with_zeros(rng.normal(size=(m_eq, n))) if m_eq else None,
            eq_rhs=with_zeros(rng.normal(size=m_eq)) if m_eq else None,
            bounds=list(zip(lo, hi)),
        ))
    return programs


def test_both_tableau_containers_give_the_same_bits(monkeypatch):
    # the list tableau must repeat the array's IEEE operations, signed zeros
    # included: same status, pivot count, x bytes and repr(objective)
    rng = np.random.default_rng(2202)
    programs = _tie_prone_ce_programs(rng)
    programs += _golden_estimation_programs(rng, monkeypatch)
    programs += _signed_zero_programs(rng)
    simplex_max = celab.lp._simplex_max
    containers = []

    def record_container(t, *args):
        containers.append(type(t))
        return simplex_max(t, *args)

    monkeypatch.setattr(celab.lp, "_simplex_max", record_container)
    answers = {}
    for container in _each_tableau(monkeypatch):
        containers.clear()
        answers[container] = []
        for lp in programs:
            sol = solve_lp(lp)
            x = None if sol.x is None else sol.x.tobytes()
            answers[container].append((sol.status, sol.iterations, x, repr(sol.objective)))
        assert set(containers) == {np.ndarray if container == "array" else list}
    assert answers["list"] == answers["array"]
    statuses = [status for status, *_ in answers["array"]]
    assert min(statuses.count(s) for s in ("optimal", "infeasible", "unbounded")) >= 5


def test_list_pivot_repeats_the_array_pivot_bits():
    # every entry, signed zeros included, on tableaus full of +-0.0, and on
    # negative pivot elements as the artificial drive-out takes them
    rng = np.random.default_rng(2203)
    for _ in range(300):
        m, w = int(rng.integers(1, 6)), int(rng.integers(2, 9))
        t = rng.normal(size=(m, w))
        t[rng.random((m, w)) < 0.5] = 0.0
        t[rng.random((m, w)) < 0.3] *= -1.0
        row, col = int(rng.integers(m)), int(rng.integers(w - 1))
        if t[row, col] == 0.0:
            continue
        basis = list(range(m))
        listed = t.tolist()
        celab.lp._pivot(t, basis, row, col)
        celab.lp._pivot(listed, list(range(m)), row, col)
        assert np.array(listed).tobytes() == t.tobytes()


class _Assembled(Exception):
    """The tableau and basis of a solve, raised at its first _simplex_max."""


def _assembled(t, basis, *args):
    raise _Assembled(t, list(basis))


def test_tableau_assembly_repeats_the_numpy_reference_bits(monkeypatch):
    # the starting tableau and basis, in both containers, against the numpy
    # assembly they replaced: signed zeros, shifted and finite bounds, empty
    # blocks, and default bounds on -0.0 data
    rng = np.random.default_rng(910)
    programs = _golden_ce_programs(rng) + _golden_estimation_programs(rng, monkeypatch)
    programs += _golden_general_programs(rng)
    rng = np.random.default_rng(2202)
    programs += _tie_prone_ce_programs(rng)
    signed = _signed_zero_programs(rng)
    programs += signed + [
        LinearProgram(lp.objective, lp.ineq_rows, lp.ineq_rhs, lp.eq_rows, lp.eq_rhs)
        for lp in signed
    ]
    references = [reference_tableau(lp) for lp in programs]
    monkeypatch.setattr(celab.lp, "_simplex_max", _assembled)
    for container in _each_tableau(monkeypatch):
        for lp, (want, want_basis) in zip(programs, references):
            with pytest.raises(_Assembled) as assembled:
                solve_lp(lp)
            t, basis = assembled.value.args
            assert basis == want_basis
            if container == "list":
                assert [len(row) for row in t] == [want.shape[1]] * want.shape[0]
                assert all(type(v) is float for row in t for v in row)
                t = np.array(t).reshape(want.shape)
            assert type(t) is np.ndarray and t.dtype == want.dtype and t.shape == want.shape
            assert t.tobytes() == want.tobytes()
