"""Scoreboard for the paper's claims over a fixed range of seeds.

The abstract claims that self-play reaches a correlated equilibrium outside
the convex hull of the Nash equilibria, reaches the optimal one, and does so
with limited interaction among players. Each claim is reported as a share of
runs (visible with -s), on two sets of runs trained with the default
TrainingConfig: the chicken fixture on seeds 0-15, and a family of 8
chicken-type games on seeds 0 and 1 each. The seed and game lists are fixed
in advance and never trimmed. Each floor is the share measured when its
scoreboard was added: a change may raise it, and none may lower it.
Estimation success is printed but not gated.

Each player's walk tends to end where one repeated action stops moving the
state (ROADMAP item 16). Each run also prints, per player, where its walks
end in the last epoch and the nearest such stall point, and each set of
runs the share of walks that end within STALL_LINF of one; no floor yet.
"""

import functools
import hashlib

import numpy as np

from celab import training
from celab.env import apply_action, average_states, default_state, enumerate_actions
from celab.equilibrium import (
    enumerate_equilibria,
    in_nash_payoff_hull,
    is_correlated_equilibrium,
    max_welfare_correlated_equilibrium,
)
from celab.estimation import estimate_payoff
from celab.games import make_game, validate_game
from celab.training import TrainingConfig, train_pair

SEEDS = range(16)
FAMILY_SEEDS = range(2)
FAMILY_GAMES = 8
CE_DEVIATION = 0.01
OPTIMUM_LINF = 0.02
STALL_LINF = 0.02


@functools.cache
def stall_points(h: int, step_size: float) -> np.ndarray:
    """The distinct states where one action, repeated from the uniform
    start with `apply_action`, stops changing the state: one row each."""
    points = []
    for delta in enumerate_actions(h, step_size):
        state = default_state(h)
        for _ in range(10_000):
            moved = apply_action(state, delta)
            if np.array_equal(moved, state):
                break
            state = moved
        else:
            raise AssertionError(f"action {delta} still moves the state")
        points.append(state)
    return np.unique(points, axis=0)


def _to_stall(states: np.ndarray, step_size: float) -> tuple[np.ndarray, np.ndarray]:
    """For each row of `states`, the L-inf distance to its nearest stall
    point, and that point."""
    points = stall_points(states.shape[-1], step_size)
    gaps = np.abs(states[:, None, :] - points[None, :, :]).max(axis=-1)
    nearest = gaps.argmin(axis=1)
    return gaps[np.arange(len(states)), nearest], points[nearest]


def _walks(states: np.ndarray, step_size: float) -> tuple:
    """A player's terminal states over one epoch's rounds, as their mean,
    the mean's L-inf distance to its nearest stall point, that point, and
    each round's L-inf distance to its own nearest stall point."""
    mean = states.mean(axis=0)
    (gap,), (stall,) = _to_stall(mean[None], step_size)
    return mean, gap, stall, _to_stall(states, step_size)[0]


def _hull(game):
    """The payoff points of `game`'s Nash equilibria."""
    return [ne.payoffs for ne in enumerate_equilibria(game)]


def _runs(monkeypatch, game, seeds) -> list[dict]:
    """One default-config self-play run of `game` per seed, with what each
    claim reads of it, and each player's terminal walk states of the last
    epoch, captured where `train_pair` averages the two players' walks."""
    config = TrainingConfig()
    optimum = max_welfare_correlated_equilibrium(game).distribution
    ne_payoffs = _hull(game)
    u1, u2 = game.payoff("p1"), game.payoff("p2")
    ends = []

    def recording(batch_a, batch_b):
        ends[:] = [batch.states[:, -1].copy() for batch in (batch_a, batch_b)]
        return average_states(batch_a, batch_b)

    monkeypatch.setattr(training, "average_states", recording)
    runs = []
    for seed in seeds:
        result = train_pair(game, ("p1", "p2"), config, seed)
        p = result.p_tilde
        estimate = estimate_payoff(u1, p)
        runs.append({
            "seed": seed,
            "stable": result.stable,
            "deviation": is_correlated_equilibrium(game, p).max_violation,
            "outside": not in_nash_payoff_hull(ne_payoffs, (float(p @ u1), float(p @ u2))),
            "to_optimum": float(np.abs(p - optimum).max()),
            "estimate_error": (
                float(np.abs(estimate.estimate - u2).max()) if estimate.status == "ok" else None
            ),
            "epochs": result.epochs_run,
            "interaction": result.epochs_run * config.rounds * (config.steps - 1),
            "walks": [_walks(states, config.step_size) for states in ends],
        })
    return runs


def _point(state) -> str:
    return "(" + ", ".join(f"{v:.3f}" for v in state) + ")"


def _print_run(label: str, r: dict) -> None:
    print(
        f"{label} seed {r['seed']:2d}: stable={r['stable']} "
        f"deviation={r['deviation']:.4f} outside_hull={r['outside']} "
        f"to_optimum={r['to_optimum']:.4f} epochs={r['epochs']} "
        f"interaction={r['interaction']}"
    )
    for player, (mean, gap, stall, gaps) in zip(("p1", "p2"), r["walks"]):
        print(
            f"    {player} walks end at {_point(mean)} on average, "
            f"{gap:.4f} L-inf from stall point {_point(stall)}; "
            f"{int((gaps <= STALL_LINF).sum())}/{gaps.size} within {STALL_LINF} of one"
        )


def _score(label: str, runs: list[dict], floors: dict) -> None:
    """Print the four claims' shares of `runs`, and the estimates, on one
    line after `label`; assert each share is at least its floor."""
    n = len(runs)
    shares = {
        "stable": sum(r["stable"] for r in runs),
        "deviation": sum(r["deviation"] <= CE_DEVIATION for r in runs),
        "outside": sum(r["outside"] for r in runs),
        "optimum": sum(r["to_optimum"] <= OPTIMUM_LINF for r in runs),
    }
    estimated = [r["estimate_error"] for r in runs if r["estimate_error"] is not None]
    interaction = [r["interaction"] for r in runs]
    gaps = np.concatenate([walk[-1] for r in runs for walk in r["walks"]])
    print(
        f"{label}: "
        f"{shares['stable']}/{n} stop stable; "
        f"{shares['deviation']}/{n} with CE deviation <= {CE_DEVIATION}; "
        f"{shares['outside']}/{n} outside the Nash payoff hull; "
        f"{shares['optimum']}/{n} within {OPTIMUM_LINF} L-inf of the max-welfare CE; "
        f"{len(estimated)}/{n} estimates ok"
        + (f" (L-inf error {min(estimated):.4f}-{max(estimated):.4f})" if estimated else "")
        + f"; epochs x M(N-1) = {min(interaction)}-{max(interaction)}; "
        f"{int((gaps <= STALL_LINF).sum())}/{gaps.size} walks end within {STALL_LINF} "
        f"L-inf of a single-action stall point"
    )
    for claim, floor in floors.items():
        assert shares[claim] >= floor, f"{claim}: {shares[claim]}/{n}, floor {floor}/{n}"


def chicken_family(count: int) -> list:
    """The first `count` games of the chicken family. Each draw sorts four
    uniforms of `default_rng(12345)` as d < b < a < c; p1's payoffs over
    (C,C), (C,D), (D,C), (D,D) are (a, b, c, d) and p2's are (a, c, b, d),
    each normalized to sum 1. A game is kept when `validate_game` passes and
    its max-welfare CE's payoff point lies outside the Nash payoff hull."""
    rng = np.random.default_rng(12345)
    games = []
    while len(games) < count:
        d, b, a, c = np.sort(rng.random(4))
        payoffs = {"p1": np.array([a, b, c, d]), "p2": np.array([a, c, b, d])}
        game = make_game(
            ["p1", "p2"], {"p1": ["C", "D"], "p2": ["C", "D"]},
            {p: (v / v.sum()).tolist() for p, v in payoffs.items()},
        )
        if validate_game(game):
            continue
        optimum = max_welfare_correlated_equilibrium(game).distribution
        point = tuple(float(optimum @ game.payoff(p)) for p in ("p1", "p2"))
        if not in_nash_payoff_hull(_hull(game), point):
            games.append(game)
    return games


def test_chicken_claims_over_seeds(chicken, monkeypatch):
    runs = _runs(monkeypatch, chicken, SEEDS)
    for r in runs:
        _print_run("chicken", r)
    _score(
        f"chicken, seeds {SEEDS.start}-{SEEDS.stop - 1}", runs,
        {"stable": 16, "deviation": 15, "outside": 16, "optimum": 9},
    )


def test_chicken_family_game_list_is_fixed():
    """The payoff bytes of the family's first 8 games, in order: a change to
    `chicken_family`'s draws or filter that alters which games the family
    scoreboard trains on fails here, without training."""
    games = chicken_family(FAMILY_GAMES)
    payoffs = np.concatenate([g.payoff(p) for g in games for p in g.players])
    digest = hashlib.sha256(payoffs.tobytes()).hexdigest()
    assert digest == "62b51b06bd0787e0c62523950f1580b4b49323c6187e7e76e287483ffe3d011e"


def test_chicken_family_claims_over_seeds(monkeypatch):
    """The claims over the chicken family's first 8 games, seeds 0 and 1
    each. No run ends within 0.02 of its game's max-welfare CE today, so
    the optimum's floor of 0 gates nothing until a change raises it; each
    run's distance to the optimum is printed."""
    runs = []
    for g, game in enumerate(chicken_family(FAMILY_GAMES)):
        for r in _runs(monkeypatch, game, FAMILY_SEEDS):
            _print_run(f"family game {g}", r)
            runs.append(r)
    _score(
        f"chicken family, {FAMILY_GAMES} games, seeds "
        f"{FAMILY_SEEDS.start}-{FAMILY_SEEDS.stop - 1}", runs,
        {"stable": 16, "deviation": 11, "outside": 10, "optimum": 0},
    )
