"""Scoreboard for the paper's claims over a fixed range of seeds.

The abstract claims that self-play reaches a correlated equilibrium outside
the convex hull of the Nash equilibria, reaches the optimal one, and does so
with limited interaction among players. Chicken is trained with the default
TrainingConfig on seeds 0-15, and each claim is reported as a share of runs
(visible with -s). The seed list is fixed in advance and never trimmed. Each
floor is the share measured when the scoreboard was added: a change may raise
it, and none may lower it. Estimation success is printed but not gated.
"""

import numpy as np

from celab.equilibrium import (
    enumerate_equilibria,
    in_nash_payoff_hull,
    is_correlated_equilibrium,
    max_welfare_correlated_equilibrium,
)
from celab.estimation import estimate_payoff
from celab.training import TrainingConfig, train_pair

SEEDS = range(16)
CE_DEVIATION = 0.01
OPTIMUM_LINF = 0.02


def test_chicken_claims_over_seeds(chicken):
    config = TrainingConfig()
    optimum = max_welfare_correlated_equilibrium(chicken).distribution
    ne_payoffs = [ne.payoffs for ne in enumerate_equilibria(chicken)]
    u1, u2 = chicken.payoff("p1"), chicken.payoff("p2")
    runs = []
    for seed in SEEDS:
        result = train_pair(chicken, ("p1", "p2"), config, seed)
        p = result.p_tilde
        estimate = estimate_payoff(u1, p)
        runs.append({
            "seed": seed,
            "stable": result.stable,
            "deviation": is_correlated_equilibrium(chicken, p).max_violation,
            "outside": not in_nash_payoff_hull(ne_payoffs, (float(p @ u1), float(p @ u2))),
            "to_optimum": float(np.abs(p - optimum).max()),
            "estimate_error": (
                float(np.abs(estimate.estimate - u2).max()) if estimate.status == "ok" else None
            ),
            "epochs": result.epochs_run,
            "interaction": result.epochs_run * config.rounds * (config.steps - 1),
        })
    n = len(runs)
    shares = {
        "stable": sum(r["stable"] for r in runs),
        "deviation": sum(r["deviation"] <= CE_DEVIATION for r in runs),
        "outside": sum(r["outside"] for r in runs),
        "optimum": sum(r["to_optimum"] <= OPTIMUM_LINF for r in runs),
    }
    estimated = [r["estimate_error"] for r in runs if r["estimate_error"] is not None]
    for r in runs:
        print(
            f"chicken seed {r['seed']:2d}: stable={r['stable']} "
            f"deviation={r['deviation']:.4f} outside_hull={r['outside']} "
            f"to_optimum={r['to_optimum']:.4f} epochs={r['epochs']} "
            f"interaction={r['interaction']}"
        )
    interaction = [r["interaction"] for r in runs]
    print(
        f"chicken, seeds {SEEDS.start}-{SEEDS.stop - 1}: "
        f"{shares['stable']}/{n} stop stable; "
        f"{shares['deviation']}/{n} with CE deviation <= {CE_DEVIATION}; "
        f"{shares['outside']}/{n} outside the Nash payoff hull; "
        f"{shares['optimum']}/{n} within {OPTIMUM_LINF} L-inf of the max-welfare CE; "
        f"{len(estimated)}/{n} estimates ok"
        + (f" (L-inf error {min(estimated):.4f}-{max(estimated):.4f})" if estimated else "")
        + f"; epochs x M(N-1) = {min(interaction)}-{max(interaction)}"
    )
    floors = {"stable": 16, "deviation": 15, "outside": 16, "optimum": 9}
    for claim, floor in floors.items():
        assert shares[claim] >= floor, f"{claim}: {shares[claim]}/{n}, floor {floor}/{n}"
