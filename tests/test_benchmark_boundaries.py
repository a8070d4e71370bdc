"""The benchmark's tracer rebinds named celab functions from outside
(`perfbench/tracer.py`). A refactor that drops or renames one of those names
should fail here, not only in the benchmark's own tests."""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import random_valid_2x2, shifted_program

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench.tracer import BOUNDARIES  # noqa: E402


@pytest.mark.parametrize(
    "module_name, attr", sorted({(module, attr) for module, attr, _ in BOUNDARIES})
)
def test_every_traced_boundary_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"


def test_forward_takes_params_and_current_states_first():
    # the tracer's flop count reads args[0] as the params and args[1] as the
    # current states (`perfbench.tracer._forward_info`)
    import celab.policy

    names = list(inspect.signature(celab.policy.forward).parameters)
    assert names[:3] == ["params", "current", "previous"]


def _tableau_programs(monkeypatch):
    """CE programs of 2x2..4x4 games, every LP estimate_payoff builds for a
    few 2x2 inputs, and general programs over shifted, partly bounded boxes,
    stated by `shifted_program`, with negative right-hand sides (surplus and
    artificial columns)."""
    from celab import estimation
    from celab.equilibrium import (
        correlated_equilibrium_program,
        max_welfare_correlated_equilibrium,
    )
    from celab.games import make_game
    from celab.lp import LinearProgram, solve_lp

    rng = np.random.default_rng(5)
    programs = []
    for n in (2, 3, 4):
        menu = [f"a{i + 1}" for i in range(n)]
        payoffs = {p: rng.dirichlet(np.ones(n * n)) for p in ("p1", "p2")}
        game = make_game(["p1", "p2"], [menu, menu], payoffs)
        programs.append(correlated_equilibrium_program(game))

    def record(lp):
        programs.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(estimation, "solve_lp", record)
    for _ in range(6):
        u1, u2 = random_valid_2x2(rng)
        game = make_game(
            ["p1", "p2"],
            {"p1": ["a1", "a2"], "p2": ["b1", "b2"]},
            {"p1": u1.reshape(-1), "p2": u2.reshape(-1)},
        )
        p = max_welfare_correlated_equilibrium(game).distribution
        for p_tilde in (p, np.array([0.4, 0.1, 0.1, 0.4])):
            estimation.estimate_payoff(game.payoff("p1"), p_tilde, round_trip=False)
    monkeypatch.undo()

    for _ in range(12):
        n, m_ub, m_eq = 3, int(rng.integers(0, 4)), int(rng.integers(0, 2))
        lo = rng.choice([0.0, -1.0, 0.5], size=n)
        hi = np.where(rng.random(n) < 0.5, np.inf, lo + 2.0 * rng.random(n))
        programs.append(LinearProgram(*shifted_program(
            rng.normal(size=n),
            rng.normal(size=(m_ub, n)),
            rng.normal(size=m_ub),
            rng.normal(size=(m_eq, n)) if m_eq else None,
            rng.normal(size=m_eq) if m_eq else None,
            lo, hi,
        )))
    return programs


def test_lp_cells_is_the_tableau_solve_lp_builds(monkeypatch):
    # the tracer's lp.tableau_cells re-derives the tableau's size from the
    # program (`perfbench.tracer.lp_cells`) instead of reading the solver
    import celab.lp
    from perfbench.tracer import lp_cells

    programs = _tableau_programs(monkeypatch)
    assert any(lp.objective.size > 4 for lp in programs)  # a diagnosis LP
    simplex_max = celab.lp._simplex_max
    for lp in programs:
        shapes = []

        def first_tableau(t, *args):
            shapes.append(np.shape(t))
            return simplex_max(t, *args)

        monkeypatch.setattr(celab.lp, "_simplex_max", first_tableau)
        celab.lp.solve_lp(lp)
        monkeypatch.undo()
        assert lp_cells(lp) == shapes[0][0] * shapes[0][1]


def test_rollout_steps_call_apply_action_and_forward_through_their_modules(monkeypatch):
    # the tracer's env.apply_action and policy.forward spans exist only while
    # the rollout looks both names up on `celab.env` and `celab.policy`; a
    # rollout that inlined either would drop its spans without failing
    import celab.env
    import celab.policy
    from celab.games import load_game
    from celab.training import TrainingConfig, train_pair

    calls = {"apply_action": 0, "forward": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    game = load_game(ROOT / "fixtures" / "coordination_2x2.json")
    config = TrainingConfig(epochs=2, rounds=2, stability_window=3)
    plain = train_pair(game, ("p1", "p2"), config, seed=0)
    counting(celab.env, "apply_action")
    counting(celab.policy, "forward")
    traced = train_pair(game, ("p1", "p2"), config, seed=0)
    steps = config.epochs * (config.steps - 1)
    assert calls == {"apply_action": steps, "forward": steps}
    # the wrappers pass every argument on, the in-place outputs included
    assert traced.p_tilde.tobytes() == plain.p_tilde.tobytes()
    for p in ("p1", "p2"):
        assert traced.params[p].flat.tobytes() == plain.params[p].flat.tobytes()


def test_pipeline_trains_each_trained_task_through_its_module(monkeypatch):
    # the tracer's training.train_pair spans on pipeline_3p exist only while
    # run_pipeline looks train_pair up on `celab.pipeline` once per trained
    # task; training the tasks in one batch would drop them without failing
    import celab.pipeline
    from celab.games import load_game
    from celab.training import TrainingConfig

    seeds = []
    original = celab.pipeline.train_pair

    def counting(game, pair, config, seed):
        seeds.append(seed)
        return original(game, pair, config, seed)

    monkeypatch.setattr(celab.pipeline, "train_pair", counting)
    game = load_game(ROOT / "fixtures" / "three_player.json")
    result = celab.pipeline.run_pipeline(
        game, main_player="p1", known_players=("p1",),
        config=TrainingConfig(epochs=1, stability_window=2), seed=0,
    )
    trained = [r.detail["seed"] for r in result.records if "epochs_run" in r.detail]
    assert trained
    assert sorted(seeds) == sorted(trained)


def test_pipeline_solves_each_ce_once_through_its_module(monkeypatch):
    # perfbench's equilibrium.ce span on pipeline_3p rebinds
    # max_welfare_correlated_equilibrium on `celab.pipeline`; every CE result
    # must come from exactly one call through that name. The fast-learning
    # config of the CLI's golden digest yields both analytic and
    # post-estimation results in well under a second.
    import celab.pipeline
    from celab.games import load_game
    from celab.training import TrainingConfig

    calls = []
    original = celab.pipeline.max_welfare_correlated_equilibrium

    def counting(view):
        calls.append(view)
        return original(view)

    monkeypatch.setattr(celab.pipeline, "max_welfare_correlated_equilibrium", counting)
    game = load_game(ROOT / "fixtures" / "three_player.json")
    config = TrainingConfig(step_size=0.05, steps=20, learning_rate=0.01, epochs=20)
    result = celab.pipeline.run_pipeline(
        game, main_player="p1", known_players=("p1", "p2"), config=config, seed=0
    )
    assert {c.source for c in result.ce_records} == {"analytic", "post_estimation"}
    assert len(calls) == len(result.ce_records)


def test_update_looks_up_loss_and_gradients_through_its_module(monkeypatch):
    # the tracer's policy.loss_value and policy.gradients spans on
    # train_coord exist only while update_policy looks both names up on
    # `celab.training`, once each per update
    import celab.training
    from celab.env import rollout
    from celab.policy import RolloutRecord, Workspace, init_policy, policy_fn
    from celab.training import AdamState, RewardTensor, TrainingConfig, update_policy

    calls = {"loss_value": 0, "gradients": 0}

    def counting(name):
        original = getattr(celab.training, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(celab.training, name, wrapper)

    counting("loss_value")
    counting("gradients")
    rng = np.random.default_rng(3)
    params = init_policy(4, 27, 4, 6, rng)
    record = RolloutRecord(params, nets=1, rounds=2, steps=4)
    uniforms = np.stack([np.random.default_rng(m).random(4) for m in range(2)], axis=1)
    batch = rollout(policy_fn(params, record=record), 0.25, uniforms, start=np.full(4, 0.25))
    std = rng.normal(size=(2, 5))
    config = TrainingConfig(rounds=2, steps=5, step_size=0.25, width_in=4, width_mid=6)
    update_policy(
        params, batch, RewardTensor(raw=std, discounted=std, standardized=std),
        AdamState.zeros_like(params), config, record, 0,
    )
    assert calls == {"loss_value": 1, "gradients": 1}
