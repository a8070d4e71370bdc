import itertools
import re

import numpy as np
import pytest

from celab.equilibrium import (
    NashEquilibrium,
    correlated_equilibrium_program,
    enumerate_equilibria,
    enumerate_pure_nash,
    in_nash_payoff_hull,
    is_correlated_equilibrium,
    max_welfare_correlated_equilibrium,
    mixed_nash_2x2,
)
from celab.errors import PreconditionError, SolverError
from celab.games import Game, make_game
from celab.lp import LinearProgram

from oracles import (
    brute_force_pure_nash,
    ce_deviation_rows,
    ce_polytope_vertices,
    random_square_payoffs,
    random_valid_2x2,
    reference_ce_program,
    two_player_ce_check,
    two_player_ce_program,
    two_player_pure_nash,
)


def game_from_matrices(u1, u2):
    n1, n2 = np.asarray(u1).shape
    return make_game(
        ["p1", "p2"],
        [[f"r{i}" for i in range(n1)], [f"c{j}" for j in range(n2)]],
        {"p1": np.asarray(u1).reshape(-1), "p2": np.asarray(u2).reshape(-1)},
    )


def raw_game(grids):
    """A game holding one payoff grid per player as given: make_game would
    renormalize them, and a game of tied zeros could not be built."""
    players = tuple(f"p{k + 1}" for k in range(len(grids)))
    decisions = tuple(tuple(f"d{i}" for i in range(n)) for n in grids[0].shape)
    return Game(players, decisions, {p: u.reshape(-1) for p, u in zip(players, grids)})


def random_grids(rng, sizes):
    """One payoff grid per player. A third of the draws take values in
    {0, 1, 2}, half of them raised by 4e-13, so that payoffs tie exactly
    or within the 1e-12 comparison slack."""
    shape = (len(sizes), *sizes)
    if rng.random() < 1 / 3:
        return list(rng.integers(0, 3, shape) + 4e-13 * rng.integers(0, 2, shape))
    return list(rng.random(shape))


def pennies():
    return game_from_matrices(
        [[0.5, 0.0], [0.0, 0.5]],
        [[0.0, 0.5], [0.5, 0.0]],
    )


class TestCEProgram:
    def test_row_counts_2x2(self, chicken):
        lp = correlated_equilibrium_program(chicken)
        assert lp.ineq_rows.shape == (4, 4)
        assert lp.eq_rows.shape == (1, 4)
        assert len(lp.bounds) == 4

    def test_row_counts_3x2(self):
        u1 = np.array([[0.3, 0.1], [0.05, 0.2], [0.15, 0.2]])
        u1 = u1 / u1.sum()
        u2 = np.array([[0.2, 0.1], [0.1, 0.25], [0.05, 0.3]])
        u2 = u2 / u2.sum()
        lp = correlated_equilibrium_program(game_from_matrices(u1, u2))
        assert lp.ineq_rows.shape == (3 * 2 + 2 * 1, 6)

    def test_one_label_menus_make_no_deviation_rows(self):
        # a player with one label cannot deviate: the block is (0, cells)
        g = make_game(["p1", "p2"], [["a"], ["x"]], {"p1": [1.0], "p2": [1.0]})
        lp = correlated_equilibrium_program(g)
        assert lp.ineq_rows.shape == (0, 1)
        assert lp.ineq_rhs.shape == (0,)
        ce = max_welfare_correlated_equilibrium(g)
        np.testing.assert_array_equal(ce.distribution, [1.0])
        assert ce.welfare == 2.0

    def test_missing_payoff_rejected(self):
        g = make_game(
            ["p1", "p2"],
            [["a", "b"], ["x", "y"]],
            {"p1": [0.25] * 4},
        )
        with pytest.raises(PreconditionError):
            correlated_equilibrium_program(g)

    def test_equal_support_distribution_feasible(self, chicken):
        lp = correlated_equilibrium_program(chicken)
        rho = np.array([1 / 3, 1 / 3, 1 / 3, 0.0])
        assert (lp.ineq_rows @ rho <= 1e-12).all()
        check = is_correlated_equilibrium(chicken, rho)
        assert check.ok


class TestChickenCE:
    def test_welfare_max_solution(self, chicken):
        sol = max_welfare_correlated_equilibrium(chicken)
        assert sol.status == "optimal"
        # hand-derived optimum of the deviation polytope
        np.testing.assert_allclose(sol.distribution, [0.5, 0.25, 0.25, 0.0], atol=1e-9)
        assert sol.welfare == pytest.approx(10.5 / 15, abs=1e-9)

    def test_no_mass_on_crash_cell(self, chicken):
        sol = max_welfare_correlated_equilibrium(chicken)
        assert sol.distribution[3] <= 1e-12

    def test_equal_support_point_is_suboptimal(self, chicken):
        # feasible (all deviation rows hold) but below the optimum
        rho = np.array([1 / 3, 1 / 3, 1 / 3, 0.0])
        welfare = float(rho @ (chicken.payoff("p1") + chicken.payoff("p2")))
        assert is_correlated_equilibrium(chicken, rho).ok
        sol = max_welfare_correlated_equilibrium(chicken)
        assert welfare == pytest.approx(2 / 3, abs=1e-12)
        assert sol.welfare > welfare + 1e-3

    def test_matches_vertex_enumeration(self, chicken):
        verts = ce_polytope_vertices(
            chicken.payoff_matrix("p1"), chicken.payoff_matrix("p2")
        )
        welfare = verts @ (chicken.payoff("p1") + chicken.payoff("p2"))
        sol = max_welfare_correlated_equilibrium(chicken)
        assert sol.welfare == pytest.approx(welfare.max(), abs=1e-9)


    def test_scaled_point_is_not_an_answer(self, chicken, monkeypatch):
        # the deviation rows are homogeneous: twice a CE passes them, but it
        # is not a distribution
        import celab.equilibrium
        from celab.lp import LPSolution

        ce = max_welfare_correlated_equilibrium(chicken)
        scaled = LPSolution(status="optimal", x=2 * ce.distribution, objective=2 * ce.welfare)
        monkeypatch.setattr(celab.equilibrium, "solve_lp", lambda lp: scaled)
        assert is_correlated_equilibrium(chicken, scaled.x).ok
        with pytest.raises(SolverError, match="sums to"):
            max_welfare_correlated_equilibrium(chicken)


class TestIsCE:
    def test_uniform_chicken_violation(self, chicken):
        check = is_correlated_equilibrium(chicken, np.full(4, 0.25))
        assert not check.ok
        assert check.max_violation == pytest.approx(1 / 60, abs=1e-12)

    def test_point_mass_on_non_ne_cell(self, chicken):
        check = is_correlated_equilibrium(chicken, np.array([0.0, 0.0, 0.0, 1.0]))
        assert not check.ok

    def test_pure_ne_point_masses_are_ce(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u1, u2 = random_valid_2x2(rng, require_two_ne=False)
            g = game_from_matrices(u1, u2)
            for ne in enumerate_pure_nash(g):
                rho = np.outer(ne.strategies[0], ne.strategies[1]).reshape(-1)
                assert is_correlated_equilibrium(g, rho).ok

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, chicken, bad):
        rho = np.full(4, 0.25)
        rho[2] = bad
        with pytest.raises(PreconditionError, match="non-finite value at entry 2$"):
            is_correlated_equilibrium(chicken, rho)
        with pytest.raises(PreconditionError, match="non-finite value at entry 0$"):
            is_correlated_equilibrium(chicken, [bad] * 4)

    @pytest.mark.parametrize("size", [3, 5, 0])
    def test_wrong_entry_count_rejected(self, chicken, size):
        message = f"distribution has shape ({size},), expected (4,)"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            is_correlated_equilibrium(chicken, np.full(size, 0.25))

    def test_unknown_payoff_rejected(self):
        g = make_game(
            ["p1", "p2", "p3"],
            [["a", "b"]] * 3,
            {"p1": [0.125] * 8},
        )
        with pytest.raises(PreconditionError, match="'p2' is unknown"):
            is_correlated_equilibrium(g, np.full(8, 0.125))


class TestPureNash:
    def test_chicken_has_two(self, chicken):
        cells = enumerate_pure_nash(chicken)
        supports = {
            (int(np.argmax(ne.strategies[0])), int(np.argmax(ne.strategies[1])))
            for ne in cells
        }
        assert supports == {(0, 1), (1, 0)}

    def test_three_player_fixture_has_four(self, three_player):
        cells = [
            tuple(int(np.argmax(s)) for s in ne.strategies)
            for ne in enumerate_pure_nash(three_player)
        ]
        # (A,A,A), (A,B,B), (B,A,B) and (B,B,A), in row-major order
        assert cells == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
        assert enumerate_pure_nash(three_player)[0].payoffs == (0.46, 0.46, 0.46)

    def test_pennies_has_none(self):
        assert enumerate_pure_nash(pennies()) == []

    def test_dominant_game_unique(self, dominant):
        cells = enumerate_pure_nash(dominant)
        assert len(cells) == 1
        assert np.argmax(cells[0].strategies[0]) == 1
        assert np.argmax(cells[0].strategies[1]) == 1


class TestMixedNash:
    def test_pennies_fifty_fifty(self):
        ne = mixed_nash_2x2(pennies())
        np.testing.assert_allclose(ne.strategies[0], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(ne.strategies[1], [0.5, 0.5], atol=1e-12)

    def test_chicken_mixes_two_thirds(self, chicken):
        ne = mixed_nash_2x2(chicken)
        assert ne.strategies[0][0] == pytest.approx(2 / 3, abs=1e-12)
        assert ne.strategies[1][0] == pytest.approx(2 / 3, abs=1e-12)
        assert ne.payoffs[0] == pytest.approx(14 / 45, abs=1e-12)

    def test_indifference_residual(self, chicken):
        ne = mixed_nash_2x2(chicken)
        p = ne.strategies[0]
        u2 = chicken.payoff_matrix("p2")
        # column player indifferent between its two decisions
        assert abs(p @ u2[:, 0] - p @ u2[:, 1]) < 1e-9

    def test_dominant_game_has_none(self, dominant):
        assert mixed_nash_2x2(dominant) is None

    def test_mirror_game_has_none(self, mirror):
        assert mixed_nash_2x2(mirror) is None

    def test_restriction_violation_raises(self):
        # p1's payoff does not move with its own decision in column 0
        g = game_from_matrices(
            [[0.25, 0.3], [0.25, 0.2]],
            [[0.25, 0.35], [0.3, 0.1]],
        )
        with pytest.raises(PreconditionError):
            mixed_nash_2x2(g)


class TestEquilibriumCounts:
    def test_chicken(self, chicken):
        assert len(enumerate_equilibria(chicken)) == 3

    def test_mirror(self, mirror):
        assert len(enumerate_equilibria(mirror)) == 1

    def test_dominant(self, dominant):
        assert len(enumerate_equilibria(dominant)) == 1


class TestMirrorGameCE:
    def test_point_mass_on_dominant_cell(self, mirror):
        sol = max_welfare_correlated_equilibrium(mirror)
        np.testing.assert_allclose(sol.distribution, [1.0, 0.0, 0.0, 0.0], atol=1e-9)
        assert sol.welfare == pytest.approx(0.3571 * 2, abs=1e-9)

    def test_polytope_is_a_single_point(self, mirror):
        verts = ce_polytope_vertices(
            mirror.payoff_matrix("p1"), mirror.payoff_matrix("p2")
        )
        assert verts.shape[0] == 1
        np.testing.assert_allclose(verts[0], [1.0, 0.0, 0.0, 0.0], atol=1e-9)


class TestDominantGameCE:
    def test_point_mass_on_dominant_outcome(self, dominant):
        sol = max_welfare_correlated_equilibrium(dominant)
        np.testing.assert_allclose(sol.distribution, [0.0, 0.0, 0.0, 1.0], atol=1e-9)
        verts = ce_polytope_vertices(
            dominant.payoff_matrix("p1"), dominant.payoff_matrix("p2")
        )
        assert verts.shape[0] == 1
        np.testing.assert_allclose(verts[0], [0.0, 0.0, 0.0, 1.0], atol=1e-9)


class TestHull:
    def chicken_ne_payoffs(self, chicken):
        out = [ne.payoffs for ne in enumerate_pure_nash(chicken)]
        out.append(mixed_nash_2x2(chicken).payoffs)
        return out

    def test_ne_point_itself(self, chicken):
        pts = self.chicken_ne_payoffs(chicken)
        assert in_nash_payoff_hull(pts, pts[0])

    def test_midpoint_of_two_ne(self, chicken):
        pts = self.chicken_ne_payoffs(chicken)
        mid = (np.array(pts[0]) + np.array(pts[1])) / 2
        assert in_nash_payoff_hull(pts, tuple(mid))

    def test_ce_payoff_outside(self, chicken):
        pts = self.chicken_ne_payoffs(chicken)
        sol = max_welfare_correlated_equilibrium(chicken)
        rho = sol.distribution
        pay = (
            float(rho @ chicken.payoff("p1")),
            float(rho @ chicken.payoff("p2")),
        )
        assert pay[0] == pytest.approx(0.35, abs=1e-9)
        assert not in_nash_payoff_hull(pts, pay)

    def test_empty_set_rejected(self):
        with pytest.raises(
            PreconditionError, match="^hull test needs at least one equilibrium payoff$"
        ):
            in_nash_payoff_hull([], (0.5, 0.5))

    def test_bare_number_rejected_as_the_matrix(self):
        # once a TypeError from taking its length
        with pytest.raises(
            PreconditionError,
            match=re.escape("the equilibrium payoff matrix has shape (), expected (any, any)"),
        ):
            in_nash_payoff_hull(0.3, (0.1,))

    def test_point_of_another_length_rejected(self):
        with pytest.raises(
            PreconditionError, match=re.escape("the point has shape (3,), expected (2,)")
        ):
            in_nash_payoff_hull([(0.1, 0.2)], (0.1, 0.2, 0.3))

    def test_ragged_equilibrium_points_rejected(self):
        with pytest.raises(
            PreconditionError, match="the equilibrium payoff matrix is not an array of numbers"
        ):
            in_nash_payoff_hull([(0.1, 0.2), (0.3, 0.4, 0.5)], (0.1, 0.2))

    def test_flat_equilibrium_payoffs_rejected(self):
        # a flat list once ended in "object of type 'float' has no len()"
        message = "the equilibrium payoff matrix has shape (2,), expected (any, any)"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            in_nash_payoff_hull([0.3, 0.4], [0.3, 0.4])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_equilibrium_payoff_rejected(self, value):
        message = "the equilibrium payoff matrix holds a non-finite value at entry (1, 0)"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            in_nash_payoff_hull([(0.1, 0.2), (value, 0.4)], (0.1, 0.2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, value):
        message = "the point holds a non-finite value at entry 1"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            in_nash_payoff_hull([(0.1, 0.2), (0.3, 0.4)], (0.2, value))


def test_random_games_lp_vs_oracle():
    rng = np.random.default_rng(5)
    for _ in range(15):
        u1, u2 = random_valid_2x2(rng)
        g = game_from_matrices(u1, u2)
        sol = max_welfare_correlated_equilibrium(g)
        assert is_correlated_equilibrium(g, sol.distribution).ok
        verts = ce_polytope_vertices(u1, u2)
        oracle_best = (verts @ (u1 + u2).reshape(-1)).max()
        assert sol.welfare == pytest.approx(oracle_best, abs=1e-9)


def test_max_welfare_ce_matches_highs():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(12)
    for n in (2, 2, 3, 3, 4, 4) * 5:
        u = rng.random((2, n * n))
        u /= u.sum(axis=1, keepdims=True)
        g = game_from_matrices(u[0].reshape(n, n), u[1].reshape(n, n))
        sol = max_welfare_correlated_equilibrium(g)
        assert is_correlated_equilibrium(g, sol.distribution).ok
        lp = correlated_equilibrium_program(g)
        ref = scipy_opt.linprog(
            -lp.objective, A_ub=lp.ineq_rows, b_ub=lp.ineq_rhs,
            A_eq=lp.eq_rows, b_eq=lp.eq_rhs, method="highs",
        )
        assert sol.welfare == pytest.approx(-ref.fun, abs=1e-9)


def test_6x6_ce_reaches_the_highs_welfare():
    # With x <= 1 bound rows in the tableau, the simplex stopped on this
    # game at a CE of welfare 0.09088 that passed the deviation check, where
    # HiGHS finds 0.10052: a silent wrong answer.
    u = random_square_payoffs(6004, 6)
    g = game_from_matrices(u[0].reshape(6, 6), u[1].reshape(6, 6))
    sol = max_welfare_correlated_equilibrium(g)
    assert is_correlated_equilibrium(g, sol.distribution).ok
    assert sol.welfare == pytest.approx(0.10051930800506961, abs=1e-9)


def test_two_player_program_and_check_keep_the_two_player_bytes():
    # The I-player program and checker, at I = 2, against the two-player
    # code they replaced: 160 games from 2x2 to 5x5, rectangular ones too.
    # The checker is run on a random point and on every cell's point mass,
    # so that both verdicts occur.
    for n1, n2 in itertools.product(range(2, 6), repeat=2):
        for s in range(10):
            rng = np.random.default_rng(1000 * n1 + 100 * n2 + s)
            u = rng.random((2, n1 * n2))
            u /= u.sum(axis=1, keepdims=True)
            g = game_from_matrices(u[0].reshape(n1, n2), u[1].reshape(n1, n2))
            u1, u2 = g.payoff_matrix("p1"), g.payoff_matrix("p2")
            lp = correlated_equilibrium_program(g)
            objective, rows, rhs = two_player_ce_program(u1, u2)
            assert lp.ineq_rows.shape == rows.shape
            assert lp.ineq_rows.tobytes() == rows.tobytes()
            assert lp.ineq_rhs.tobytes() == rhs.tobytes()
            assert lp.objective.tobytes() == objective.tobytes()
            for rho in [rng.dirichlet(np.ones(n1 * n2)), *np.eye(n1 * n2)]:
                check = is_correlated_equilibrium(g, rho)
                ok, violation, worst = two_player_ce_check(u1, u2, rho)
                assert check.ok == ok and check.worst == worst
                assert np.float64(check.max_violation).tobytes() == np.float64(violation).tobytes()


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (4, 4), (2, 3, 2), (1, 3), (3, 1, 2)])
def test_ce_program_repeats_the_numpy_reference_bits(sizes):
    # the list-built program against the per-row numpy builder it replaced,
    # on payoffs that tie (own - alt = 0.0, stored as -0.0) or hold -0.0
    rng = np.random.default_rng(sum(sizes))
    for _ in range(50):
        grids = [np.where(rng.random(sizes) < 0.2, -0.0, u) for u in random_grids(rng, sizes)]
        game = raw_game(grids)
        lp = correlated_equilibrium_program(game)
        reference = LinearProgram(*reference_ce_program(game))
        for field in ("objective", "ineq_rows", "ineq_rhs", "eq_rows", "eq_rhs"):
            got, want = getattr(lp, field), getattr(reference, field)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), field


@pytest.mark.parametrize(
    "n, s, message, value",
    [
        (4, 9, "violates deviation check by", 9.93e-06),
        (5, 1, "violates deviation check by", 1.49e-04),
        (5, 5, "sums to", 1.2372),
    ],
)
def test_false_optimal_points_raise_at_the_check(n, s, message, value):
    # On these games solve_lp reports "optimal" for a point that is not a
    # CE. The caller's deviation and sum checks are what turn that into a
    # SolverError, until the simplex can certify its own answers.
    rng = np.random.default_rng(1000 * n + 100 * n + s)
    u = rng.random((2, n * n))
    u /= u.sum(axis=1, keepdims=True)
    g = game_from_matrices(u[0].reshape(n, n), u[1].reshape(n, n))
    with pytest.raises(SolverError, match=re.escape(message)) as err:
        max_welfare_correlated_equilibrium(g)
    got = float(re.search(re.escape(message) + r" ([-+.e\d]+)", str(err.value)).group(1))
    assert got == pytest.approx(value, rel=5e-3)


def test_nash_welfare_adds_left_to_right():
    # a compensated sum (built-in sum() from Python 3.12) gives 0.6 here
    ne = NashEquilibrium(kind="pure", strategies=(), payoffs=(0.1, 0.2, 0.3))
    assert repr(ne.welfare) == repr((0.1 + 0.2) + 0.3) == "0.6000000000000001"


def test_negative_zero_payoff_stays_in_the_welfare():
    # make_game turns -0.0 into 0.0, so the game is built directly
    u = np.array([-0.0, 0.5, 0.25, 0.25])
    g = Game(players=("p1", "p2"), decisions=(("a", "b"),) * 2, payoffs={"p1": u, "p2": u})
    objective = correlated_equilibrium_program(g).objective
    assert objective.tobytes() == (u + u).tobytes() and np.signbit(objective[0])


def test_three_player_ce_matches_highs():
    # Random 2x2x2 games; HiGHS solves the program built from oracle rows.
    scipy_opt = pytest.importorskip("scipy.optimize")
    players = ("p1", "p2", "p3")
    raised = 0
    for s in range(200):
        rng = np.random.default_rng(s)
        u = [v / v.sum() for v in (rng.random(8) for _ in players)]
        g = make_game(players, [["a", "b"]] * 3, dict(zip(players, u)))
        sol = max_welfare_correlated_equilibrium(g)
        d = ce_deviation_rows(u, (2, 2, 2))
        welfare = u[0] + u[1] + u[2]
        ref = scipy_opt.linprog(
            -welfare, A_ub=-d, b_ub=np.zeros(len(d)),
            A_eq=np.ones((1, 8)), b_eq=[1.0], method="highs",
        )
        assert sol.welfare == pytest.approx(-ref.fun, abs=1e-7)
        assert is_correlated_equilibrium(g, sol.distribution).ok
        # the checker's worst slack is the oracle rows' worst, on any point
        rho = rng.dirichlet(np.ones(8))
        want = max(0.0, float((-d @ rho).max()))
        assert is_correlated_equilibrium(g, rho).max_violation == pytest.approx(want, abs=1e-12)
        # a point with more welfare than the max-welfare CE is not a CE
        best = int(np.argmax(welfare))
        if welfare[best] > sol.welfare + 1e-9:
            moved = 0.9 * sol.distribution
            moved[best] += 0.1
            assert not is_correlated_equilibrium(g, moved).ok
            raised += 1
    assert raised == 121


def test_pure_nash_keeps_the_two_player_bytes():
    # The I-player enumeration, at I = 2, against the double loop it
    # replaced: 1,000 games from 1x1 to 5x5, a third of them with ties.
    rng = np.random.default_rng(19)
    found = 0
    for _ in range(1000):
        grids = random_grids(rng, tuple(rng.integers(1, 6, 2)))
        got = enumerate_pure_nash(raw_game(grids))
        want = two_player_pure_nash(*grids)
        assert len(got) == len(want)
        for ne, (strategies, payoffs) in zip(got, want):
            assert ne.kind == "pure"
            assert [s.tobytes() for s in ne.strategies] == [s.tobytes() for s in strategies]
            assert np.array(ne.payoffs).tobytes() == np.array(payoffs).tobytes()
        found += len(got)
    assert found == 1414


@pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 2, 2), (2, 3, 4)])
def test_pure_nash_matches_brute_force(sizes):
    # every unilateral deviation checked cell by cell, on games with ties
    rng = np.random.default_rng(sum(sizes))
    for _ in range(200):
        grids = random_grids(rng, sizes)
        got = enumerate_pure_nash(raw_game(grids))
        cells = brute_force_pure_nash(grids)
        assert [tuple(int(np.argmax(s)) for s in ne.strategies) for ne in got] == cells
        for ne, cell in zip(got, cells):
            for n, i, s in zip(sizes, cell, ne.strategies):
                np.testing.assert_array_equal(s, np.eye(n)[i])
            assert ne.payoffs == tuple(float(u[cell]) for u in grids)
