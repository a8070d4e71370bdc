"""Correlated and Nash equilibria of I-player games.

Correlated equilibria are joint distributions over the H outcome cells such
that no player, told its own component of a sampled cell, gains by swapping
to a different decision. The welfare-maximal CE comes out of a small LP; the
deviation checker `is_correlated_equilibrium` is written as direct sums,
deliberately not sharing code with the LP row builder, so the two act as
independent routes to the same definition. Each per-player rule is one loop
over the players, indexing the player's own axis (in the CE program, its
stride in the flat outcome order), so the CE program, the CE check and pure
Nash enumeration take any number of players. The interior mixed equilibrium
is solved for 2x2 games only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import PreconditionError, SolverError
from .games import Game
from .inputs import number_array
from .lp import TOL, LinearProgram, LPSolution, solve_lp

__all__ = [
    "CESolution",
    "NashEquilibrium",
    "CECheck",
    "correlated_equilibrium_program",
    "max_welfare_correlated_equilibrium",
    "enumerate_pure_nash",
    "mixed_nash_2x2",
    "enumerate_equilibria",
    "in_nash_payoff_hull",
    "is_correlated_equilibrium",
]

PURE_NE_SLACK = 1e-12
CE_TOL = 1e-9


@dataclass(frozen=True)
class CESolution:
    distribution: np.ndarray
    welfare: float
    status: str


@dataclass(frozen=True)
class NashEquilibrium:
    kind: str  # "pure" | "mixed"
    strategies: tuple[np.ndarray, ...]
    payoffs: tuple[float, ...]

    @property
    def welfare(self) -> float:
        # left to right, as sum() adds up to Python 3.11; from 3.12 sum()
        # compensates, which moves last bits of the CLI's JSON `welfare`
        total = 0.0
        for payoff in self.payoffs:
            total += payoff
        return float(total)


@dataclass(frozen=True)
class CECheck:
    ok: bool
    max_violation: float
    worst: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def correlated_equilibrium_program(game: Game) -> LinearProgram:
    """LP over cell probabilities rho whose feasible set is the CE polytope.

    One row per player per ordered pair of own decisions (told a, deviate to
    a'), summed over the other players' decisions and stored in <= form; the
    objective is total welfare.
    """
    vectors, cells = [game.payoff(p) for p in game.players], game.num_outcomes
    rows, stride = [], cells
    for n, u in zip(game.menu_sizes, vectors):
        # the player's decision at cell f is (f % block) // stride
        block, stride, u = stride, stride // n, u.tolist()
        for a, a_alt in permutations(range(n), 2):
            # a >= 0 row kept as -row <= 0: -(own - alt) where told a, else -0.0
            row, shift = [-0.0] * cells, (a_alt - a) * stride
            for start in range(a * stride, cells, block):
                for f in range(start, start + stride):
                    row[f] = -(u[f] - u[f + shift])
            rows.append(row)
    return LinearProgram(
        objective=sum(vectors[1:], vectors[0]),  # not from 0.0: a -0.0 entry stays
        # (0, cells) when every menu has one label: no deviation rows
        ineq_rows=np.array(rows, dtype=np.float64).reshape(len(rows), cells),
        ineq_rhs=np.zeros(len(rows)),
        eq_rows=np.ones((1, cells)),
        eq_rhs=np.ones(1),
    )


def max_welfare_correlated_equilibrium(game: Game) -> CESolution:
    """Welfare-maximal correlated equilibrium of a game with any number of
    players, every payoff vector known."""
    lp = correlated_equilibrium_program(game)
    sol: LPSolution = solve_lp(lp)
    if sol.status != "optimal":
        # every finite game has a CE, so this is a solver bug
        raise SolverError(f"CE program unexpectedly {sol.status}")
    dist = np.maximum(sol.x, 0.0)
    check = is_correlated_equilibrium(game, dist)
    if not check.ok:
        raise SolverError(
            f"CE solver output violates deviation check by {check.max_violation}"
        )
    # the deviation rows are homogeneous, so a scaled point passes them
    if abs(dist.sum() - 1.0) > CE_TOL:
        raise SolverError(f"CE solver output sums to {float(dist.sum())!r}, not 1")
    return CESolution(distribution=dist, welfare=float(sol.objective), status="optimal")


def is_correlated_equilibrium(game: Game, distribution: np.ndarray) -> CECheck:
    """Exhaustive deviation check, independent of the LP route.

    For each player and each decision it might be told, compare the expected
    payoff of obeying with every unilateral swap, conditioning on the told
    decision: one cell at a time over the other players' decisions.
    Returns the worst slack found, `ok` when it is at most `CE_TOL`. Raises
    PreconditionError unless the distribution is flat with one finite entry
    per outcome: a NaN gain never compares below the worst.
    """
    rho = number_array(distribution, (game.num_outcomes,), "distribution")
    rho = rho.reshape(game.menu_sizes)
    worst = 0.0
    worst_desc = None
    for k, p in enumerate(game.players):
        # (own decision, other players' decisions) tables, as float lists:
        # the sums take numpy's bits at a fraction of its per-scalar cost
        n = rho.shape[k]
        r = rho.swapaxes(0, k).reshape(n, -1).tolist()
        u = game.payoff_matrix(p).swapaxes(0, k).reshape(n, -1).tolist()
        for a, a_alt in permutations(range(n), 2):
            gain = 0.0
            for mass, obey, swap in zip(r[a], u[a], u[a_alt]):
                gain += mass * (obey - swap)
            if gain < -worst:
                worst = -gain
                worst_desc = f"player {k + 1} told {a + 1} prefers {a_alt + 1}"
    return CECheck(ok=bool(worst <= CE_TOL), max_violation=worst, worst=worst_desc)


def enumerate_pure_nash(game: Game) -> list[NashEquilibrium]:
    """Every cell where no player gains by a unilateral deviation (1e-12
    comparison slack), in row-major order."""
    grids = [game.payoff_matrix(p) for p in game.players]
    sizes = game.menu_sizes
    stable = np.ones(sizes, dtype=bool)
    for k, u in enumerate(grids):
        stable &= u >= u.max(axis=k, keepdims=True) - PURE_NE_SLACK
    return [
        NashEquilibrium(
            kind="pure",
            strategies=tuple(np.eye(n)[i] for n, i in zip(sizes, cell)),
            payoffs=tuple(float(u[cell]) for u in grids),
        )
        for cell in zip(*np.nonzero(stable))
    ]


def mixed_nash_2x2(game: Game) -> NashEquilibrium | None:
    """Interior mixed equilibrium of a 2x2 game, if the indifference system
    has a solution with both probabilities strictly inside (0, 1)."""
    if game.menu_sizes != (2, 2):
        raise PreconditionError("mixed enumeration implemented for 2x2 games only")
    u1, u2 = (game.payoff_matrix(p) for p in game.players)
    for pos, (player, u) in enumerate(zip(game.players, (u1, u2))):
        # own decision varies along axis `pos`, the opponent's stays fixed
        diffs = np.diff(u, axis=pos).ravel()
        if np.any(np.abs(diffs) <= 1e-12):
            raise PreconditionError(
                f"player {player!r} has equal payoffs across its own decisions; "
                "indifference system is degenerate"
            )

    # p = P(row plays first decision) chosen to make the column player indifferent
    den_p = u2[0, 0] - u2[1, 0] - u2[0, 1] + u2[1, 1]
    den_q = u1[0, 0] - u1[0, 1] - u1[1, 0] + u1[1, 1]
    if abs(den_p) < 1e-15 or abs(den_q) < 1e-15:
        return None
    p = (u2[1, 1] - u2[1, 0]) / den_p
    q = (u1[1, 1] - u1[0, 1]) / den_q
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        return None
    s1 = np.array([p, 1.0 - p])
    s2 = np.array([q, 1.0 - q])
    return NashEquilibrium(
        kind="mixed",
        strategies=(s1, s2),
        payoffs=(float(s1 @ u1 @ s2), float(s1 @ u2 @ s2)),
    )


def enumerate_equilibria(game: Game) -> list[NashEquilibrium]:
    """Pure equilibria for any number of players; plus the interior mixed one
    for 2x2 games."""
    out = enumerate_pure_nash(game)
    if game.menu_sizes == (2, 2):
        mixed = mixed_nash_2x2(game)
        if mixed is not None:
            out.append(mixed)
    return out


def in_nash_payoff_hull(
    ne_payoffs: list[tuple[float, ...]], point: tuple[float, ...]
) -> bool:
    """Whether a payoff point, one payoff per player, is a convex combination
    of NE payoff points. Raises PreconditionError unless every point has the
    same number of payoffs and every payoff is finite."""
    # an empty list reads as shape (0,), so it is named before the read
    empty = isinstance(ne_payoffs, (list, tuple)) and not ne_payoffs
    pts = np.empty((0, 0)) if empty else number_array(
        ne_payoffs, (None, None), "the equilibrium payoff matrix"
    )
    k = len(pts)
    if k == 0:
        raise PreconditionError("hull test needs at least one equilibrium payoff")
    target = number_array(point, (pts.shape[1],), "the point")
    # a convex combination lies in the points' bounding box, and a point
    # far outside it, such as 1e308, would overflow the simplex arithmetic
    if np.any(target < pts.min(axis=0) - TOL) or np.any(target > pts.max(axis=0) + TOL):
        return False
    lp = LinearProgram(
        objective=np.zeros(k),
        eq_rows=np.vstack([pts.T, np.ones((1, k))]),
        eq_rhs=np.concatenate([target, [1.0]]),
    )
    return solve_lp(lp).status == "optimal"
