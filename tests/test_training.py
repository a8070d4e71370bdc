"""Reward shaping, Adam updates, and the paired self-play loop."""

import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celab.env import rollout
from celab.errors import NumericError, PreconditionError
from celab.games import load_game
from celab.policy import Workspace, forward, init_policy, policy_fn, save_checkpoint
from celab.training import (
    AdamState,
    RewardTensor,
    TrainingConfig,
    adam_step,
    shape_rewards,
    train_pair,
    update_policy,
    write_history_csv,
)


def states_with_raw_column(values, steps=1, h=2):
    """(len(values), steps, 2) tensor whose dot with [4, 0] gives `values`."""
    out = np.zeros((len(values), steps, h))
    for m, v in enumerate(values):
        out[m, :, 0] = v / 4.0
        out[m, :, 1] = 1.0 - v / 4.0
    return out


class TestShapeRewards:
    def test_two_round_column_standardizes_to_unit(self):
        avg = states_with_raw_column([1.0, 3.0])
        rt = shape_rewards(avg, np.array([4.0, 0.0]), discount=1.0)
        np.testing.assert_allclose(rt.raw[:, 0], [1.0, 3.0])
        np.testing.assert_allclose(rt.standardized[:, 0], [-1.0, 1.0])

    def test_discount_one_is_identity(self):
        rng = np.random.default_rng(0)
        avg = rng.random((3, 5, 4))
        rt = shape_rewards(avg, rng.random(4), discount=1.0)
        np.testing.assert_array_equal(rt.raw, rt.discounted)

    def test_discount_exponent_counts_back_from_terminal(self):
        avg = np.ones((2, 3, 1))
        avg[1] *= 2.0
        rt = shape_rewards(avg, np.array([1.0]), discount=0.5)
        # terminal column untouched, first column scaled by gamma^(N-1)
        np.testing.assert_allclose(rt.discounted[:, 2], rt.raw[:, 2])
        np.testing.assert_allclose(rt.discounted[:, 0], 0.25 * rt.raw[:, 0])
        np.testing.assert_allclose(rt.discounted[:, 1], 0.5 * rt.raw[:, 1])

    def test_zero_sigma_column_maps_to_zeros(self):
        avg = states_with_raw_column([2.0, 2.0, 2.0])
        rt = shape_rewards(avg, np.array([4.0, 0.0]), discount=0.9)
        assert not rt.standardized.any()

    def test_single_round_rejected(self):
        with pytest.raises(PreconditionError, match="two rounds"):
            shape_rewards(np.ones((1, 4, 2)), np.array([1.0, 0.0]), 0.99)

    def test_payoff_width_checked(self):
        with pytest.raises(PreconditionError, match="H=2"):
            shape_rewards(np.ones((2, 4, 2)), np.array([1.0, 0.0, 0.0]), 0.99)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_standardized_columns_have_zero_mean_unit_sigma(self, seed):
        rng = np.random.default_rng(seed)
        m, n, h = rng.integers(2, 8), rng.integers(1, 6), rng.integers(2, 5)
        raw = rng.random((m, n, h))
        avg = raw / raw.sum(axis=2, keepdims=True)
        rt = shape_rewards(avg, rng.random(h), discount=0.99)
        for c in range(n):
            col = rt.standardized[:, c]
            if col.any():
                assert abs(col.mean()) < 1e-10
                assert abs(col.std() - 1.0) < 1e-10
            sigma = rt.discounted[:, c].std()
            if sigma > 1e-8:
                assert col.any() or rt.discounted[:, c].std() <= 1e-8


class TestAdam:
    def test_first_step_moves_by_signed_learning_rate(self):
        params = init_policy(2, 3, 4, 6, np.random.default_rng(0))
        state = AdamState.zeros_like(params)
        grads = replace(params, flat=np.empty_like(params.flat))
        for w, b in zip(grads.weights, grads.biases):
            w[...], b[...] = 0.5, -2.0

        new_params, new_state = adam_step(params, grads, state, lr=0.01)
        for old, new in zip(params.weights, new_params.weights):
            np.testing.assert_allclose(new, old - 0.01, rtol=1e-6)
        for old, new in zip(params.biases, new_params.biases):
            np.testing.assert_allclose(new, old + 0.01, rtol=1e-6)
        assert new_state.step == 1

    def test_zero_gradient_is_a_fixed_point(self):
        params = init_policy(2, 3, 4, 6, np.random.default_rng(1))
        state = AdamState.zeros_like(params)
        zeros = replace(params, flat=np.zeros_like(params.flat))
        new_params, _ = adam_step(params, zeros, state, lr=0.1)
        for old, new in zip(params.weights, new_params.weights):
            np.testing.assert_array_equal(new, old)


def tiny_batch(params, seed=0, rounds=2, steps=4, step_size=0.25):
    rngs = [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, 1, 0, m)))
        for m in range(rounds)
    ]
    return rollout(
        policy_fn(params),
        rounds=rounds,
        steps=steps,
        step_size=step_size,
        rngs=rngs,
        start=np.full(params.h, 1.0 / params.h),
    )


def tiny_config(**kw):
    base = dict(rounds=2, steps=4, step_size=0.25, epochs=2, width_in=4, width_mid=6)
    base.update(kw)
    return TrainingConfig(**base)


class TestUpdatePolicy:
    def test_zero_weights_leave_params_unchanged(self):
        params = init_policy(2, 3, 4, 6, np.random.default_rng(2))
        batch = tiny_batch(params)
        n = batch.states.shape[1]
        rt = RewardTensor(
            raw=np.zeros((2, n)), discounted=np.zeros((2, n)), standardized=np.zeros((2, n))
        )
        new_params, _, stats = update_policy(
            params, batch, rt, AdamState.zeros_like(params), tiny_config()
        )
        assert stats.grad_max == 0.0
        for old, new in zip(params.weights, new_params.weights):
            np.testing.assert_array_equal(new, old)

    def test_positive_weight_raises_chosen_probability(self):
        params = init_policy(2, 3, 4, 6, np.random.default_rng(3))
        batch = tiny_batch(params, seed=3)
        n = batch.states.shape[1]
        std = np.zeros((2, n))
        std[0, 1] = 1.0  # reward the state produced by round 0's first action
        rt = RewardTensor(raw=np.zeros((2, n)), discounted=np.zeros((2, n)), standardized=std)
        cur = batch.states[0, 0]
        prev = batch.states[0, 0]
        chosen = batch.action_indices[0, 0]
        before, _ = forward(params, cur, prev)
        new_params, _, _ = update_policy(
            params, batch, rt, AdamState.zeros_like(params), tiny_config(learning_rate=1e-3)
        )
        after, _ = forward(new_params, cur, prev)
        assert after[chosen] > before[chosen]

    def test_negative_weight_lowers_chosen_probability(self):
        params = init_policy(2, 3, 4, 6, np.random.default_rng(4))
        batch = tiny_batch(params, seed=4)
        n = batch.states.shape[1]
        std = np.zeros((2, n))
        std[1, 2] = -1.0
        rt = RewardTensor(raw=np.zeros((2, n)), discounted=np.zeros((2, n)), standardized=std)
        cur = batch.states[1, 1]
        prev = batch.states[1, 0]
        chosen = batch.action_indices[1, 1]
        before, _ = forward(params, cur, prev)
        new_params, _, _ = update_policy(
            params, batch, rt, AdamState.zeros_like(params), tiny_config(learning_rate=1e-3)
        )
        after, _ = forward(new_params, cur, prev)
        assert after[chosen] < before[chosen]

    def test_start_column_reward_is_ignored(self):
        # the weight for an action is the reward of the state it produced, so
        # column 0 (the fixed start state) must never influence the update
        params = init_policy(2, 3, 4, 6, np.random.default_rng(5))
        batch = tiny_batch(params, seed=5)
        n = batch.states.shape[1]
        base = np.zeros((2, n))
        base[:, 1:] = np.random.default_rng(6).normal(size=(2, n - 1))
        hi = base.copy()
        hi[:, 0] = 50.0
        lo = base.copy()
        lo[:, 0] = -50.0
        results = []
        for std in (hi, lo):
            rt = RewardTensor(
                raw=np.zeros((2, n)), discounted=np.zeros((2, n)), standardized=std
            )
            new_params, _, _ = update_policy(
                params, batch, rt, AdamState.zeros_like(params), tiny_config()
            )
            results.append(new_params)
        for a, b in zip(results[0].weights, results[1].weights):
            np.testing.assert_array_equal(a, b)

    def test_chosen_only_variant_runs(self):
        params = init_policy(2, 3, 4, 6, np.random.default_rng(7))
        batch = tiny_batch(params, seed=7)
        n = batch.states.shape[1]
        std = np.random.default_rng(8).normal(size=(2, n))
        rt = RewardTensor(raw=np.zeros((2, n)), discounted=np.zeros((2, n)), standardized=std)
        cfg = tiny_config(loss_variant="chosen_only")
        new_params, _, stats = update_policy(
            params, batch, rt, AdamState.zeros_like(params), cfg
        )
        assert np.isfinite(stats.loss)
        assert stats.grad_max > 0


    def test_update_with_a_warm_workspace_allocates_little(self, coordination):
        # default-config shapes: 944 rows. Without a reused workspace one
        # update allocates about 4 MB of row-sized intermediates.
        cfg = TrainingConfig()
        params = init_policy(4, 27, cfg.width_in, cfg.width_mid, np.random.default_rng(12))
        rngs = [np.random.default_rng(m) for m in range(cfg.rounds)]
        batch = rollout(
            policy_fn(params), cfg.rounds, cfg.steps, cfg.step_size, rngs,
            start=np.full(4, 0.25),
        )
        rt = shape_rewards(batch.states, coordination.payoff("p1"), cfg.discount)
        ws = Workspace()
        params, state, _ = update_policy(
            params, batch, rt, AdamState.zeros_like(params), cfg, ws
        )
        tracemalloc.start()
        try:
            update_policy(params, batch, rt, state, cfg, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestConfig:
    def test_default_tolerance_is_twice_step_size(self):
        cfg = tiny_config(step_size=0.25)
        assert cfg.tolerance == 0.5
        assert tiny_config(stability_tol=0.01).tolerance == 0.01

    def test_rejects_bad_values(self):
        with pytest.raises(PreconditionError, match="discount"):
            tiny_config(discount=1.5)
        with pytest.raises(PreconditionError, match="ceil"):
            tiny_config(steps=2, step_size=0.25)
        with pytest.raises(PreconditionError, match="variant"):
            tiny_config(loss_variant="huber")
        with pytest.raises(PreconditionError, match="learning rate"):
            tiny_config(learning_rate=0.0)
        with pytest.raises(PreconditionError, match="step size"):
            tiny_config(step_size=0.0)
        with pytest.raises(PreconditionError, match="width"):
            tiny_config(width_mid=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("learning_rate", float("nan"), "learning rate"),
            ("learning_rate", float("inf"), "learning rate"),
            ("stability_tol", float("nan"), "stability tolerance"),
            ("stability_tol", -1.0, "stability tolerance"),
            ("rounds", 1, "rounds must be >= 2"),
        ],
    )
    def test_rejects_inputs_that_would_fail_mid_run(self, field, value, message):
        with pytest.raises(PreconditionError, match=message):
            tiny_config(**{field: value})

    def test_accepts_a_zero_or_infinite_tolerance(self):
        assert tiny_config(stability_tol=0.0).tolerance == 0.0
        assert tiny_config(stability_tol=float("inf")).tolerance == float("inf")


class TestTrainPair:
    def test_smoke_and_shapes(self, chicken):
        cfg = tiny_config(epochs=3)
        result = train_pair(chicken, ("p1", "p2"), cfg, seed=0)
        assert result.epochs_run == 3
        assert len(result.history) == 3
        assert result.p_tilde.shape == (4,)
        assert result.p_tilde.min() >= -1e-12
        assert abs(result.p_tilde.sum() - 1.0) < 1e-9
        assert set(result.params) == {"p1", "p2"}
        assert set(result.history[0].mean_terminal_reward) == {"p1", "p2"}

    def test_seed_reproducibility(self, chicken):
        cfg = tiny_config(epochs=2)
        a = train_pair(chicken, ("p1", "p2"), cfg, seed=42)
        b = train_pair(chicken, ("p1", "p2"), cfg, seed=42)
        np.testing.assert_array_equal(a.p_tilde, b.p_tilde)
        assert a.history[-1].mean_terminal_reward == b.history[-1].mean_terminal_reward
        c = train_pair(chicken, ("p1", "p2"), cfg, seed=43)
        assert np.abs(a.p_tilde - c.p_tilde).max() > 0

    def test_loose_tolerance_stops_early(self, chicken):
        cfg = tiny_config(epochs=50, stability_window=2, stability_tol=10.0)
        result = train_pair(chicken, ("p1", "p2"), cfg, seed=1)
        assert result.stable
        assert result.epochs_run == 2

    def test_impossible_tolerance_runs_to_cap(self, chicken):
        cfg = tiny_config(epochs=3, stability_window=2, stability_tol=0.0)
        result = train_pair(chicken, ("p1", "p2"), cfg, seed=1)
        assert not result.stable
        assert result.epochs_run == 3
        np.testing.assert_array_equal(result.p_tilde, result.history[-1].terminal_state)

    def test_missing_payoff_rejected(self, chicken):
        from celab.games import make_game

        game = make_game(
            ["p1", "p2"], {"p1": ["C", "D"], "p2": ["C", "D"]},
            {"p1": chicken.payoff("p1"), "p2": None},
        )
        with pytest.raises(PreconditionError, match="p2"):
            train_pair(game, ("p1", "p2"), tiny_config(), seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_raises_numeric_error_and_no_warning(self, coordination):
        # the overflow is caught by a finite check, not reported by numpy
        cfg = tiny_config(epochs=3, learning_rate=1e300)
        with pytest.raises(NumericError, match="non-finite"):
            train_pair(coordination, ("p1", "p2"), cfg, seed=0)

    def test_an_epoch_after_the_first_allocates_little(self, coordination, monkeypatch):
        # a default-config run keeps about 4 MB of rollout record and update
        # buffers; made once per run, they leave later epochs only small
        # per-epoch arrays to allocate
        import celab.training

        marks = []
        real_rollout = celab.training.rollout

        def marking_rollout(*args, **kwargs):
            marks.append(tracemalloc.get_traced_memory())
            if len(marks) == 2:
                tracemalloc.reset_peak()
            return real_rollout(*args, **kwargs)

        monkeypatch.setattr(celab.training, "rollout", marking_rollout)
        config = TrainingConfig(epochs=3, stability_window=4)
        tracemalloc.start()
        try:
            train_pair(coordination, ("p1", "p2"), config, seed=0)
        finally:
            tracemalloc.stop()
        (start, _), (_, peak) = marks[1], marks[2]
        assert peak - start < 1_000_000


class TestHistoryCsv:
    def test_layout_and_header(self, chicken, tmp_path):
        cfg = tiny_config(epochs=2)
        result = train_pair(chicken, ("p1", "p2"), cfg, seed=9)
        path = tmp_path / "history.csv"
        write_history_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# {")
        meta = json.loads(lines[0][2:])
        assert meta["seed"] == 9
        assert meta["config"]["rounds"] == 2
        assert meta["config"]["stability_tol"] == 0.5
        assert lines[1] == "epoch,player,mean_terminal_reward,rho_1,rho_2,rho_3,rho_4"
        assert len(lines) == 2 + 2 * 2  # header rows + epochs * players
        first = lines[2].split(",")
        assert first[0] == "1" and first[1] == "p1"
        # float fields survive a repr round trip
        assert float(first[2]) == result.history[0].mean_terminal_reward["p1"]

    def test_rewrite_is_byte_identical(self, chicken, tmp_path):
        cfg = tiny_config(epochs=2)
        result = train_pair(chicken, ("p1", "p2"), cfg, seed=11)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_history_csv(result, p1)
        write_history_csv(train_pair(chicken, ("p1", "p2"), cfg, seed=11), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_encode_failure_leaves_no_file(self, chicken, tmp_path):
        # train_pair takes a numpy integer seed, which json cannot encode
        result = train_pair(chicken, ("p1", "p2"), tiny_config(epochs=1), seed=np.int64(5))
        history, checkpoint = tmp_path / "history.csv", tmp_path / "checkpoint.json"
        with pytest.raises(TypeError):
            write_history_csv(result, history)
        with pytest.raises(TypeError):
            save_checkpoint(result.params["p1"], checkpoint, seed=result.seed)
        assert not history.exists()
        assert not checkpoint.exists()

    # sha256 of the 20-epoch default-config history, recorded with numpy 2.4 on
    # OpenBLAS; any drift in the numbers (rollout, update or CSV formatting)
    # changes these bytes
    @pytest.mark.parametrize(
        "fixture, seed, digest",
        [
            ("coordination_2x2", 0,
             "4beb7e43688746f80c133728563e6c8bd1baf42c37c9ca1c63cc3fc4028ed869"),
            ("coordination_2x2", 3,
             "104f8334df7a8cc4b96cf3b918584ea9494d01355a7b5d5268953f8610bad460"),
            ("chicken", 0,
             "06aef657dd008322e2aa1c58f7296931c29844229ea5b40f6e517e546986d484"),
            ("chicken", 3,
             "0bd8b926dd678072481d3166865c9e18712250c4e0dad9f858926cd18c3eff78"),
        ],
    )
    def test_golden_digest(self, fixtures_dir, tmp_path, fixture, seed, digest):
        game = load_game(fixtures_dir / f"{fixture}.json")
        result = train_pair(game, ("p1", "p2"), TrainingConfig(epochs=20), seed)
        path = tmp_path / "history.csv"
        write_history_csv(result, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
