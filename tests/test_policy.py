"""Policy network tests. The gradient implementation is checked against a
central finite-difference oracle on small networks, which is the ground truth
everything in training leans on."""

import numpy as np
import pytest

from celab.env import rollout
from celab.errors import NumericError, PreconditionError
from celab.policy import (
    LEAKY_SLOPE,
    PolicyParams,
    RolloutRecord,
    Workspace,
    _activate,
    forward,
    gradients,
    init_policy,
    layer_dims,
    load_checkpoint,
    loss_value,
    policy_fn,
    sample_action,
    save_checkpoint,
    stack,
)

H = 4
J = 27


def small_net(seed, width_in=4, width_mid=6):
    rng = np.random.default_rng(seed)
    return init_policy(H, J, width_in, width_mid, rng)


def random_pairs(seed, batch):
    rng = np.random.default_rng(seed)
    raw = rng.random((2, batch, H))
    return raw[0] / raw[0].sum(axis=1, keepdims=True), raw[1] / raw[1].sum(axis=1, keepdims=True)


def test_layer_dims_chain():
    dims = layer_dims(4, 27, 8, 16)
    assert dims[0] == (4, 8)
    assert dims[1] == (4, 8)
    assert dims[2] == (16, 16)
    assert dims[-1] == (32, 27)
    # each layer's fan-in matches what the previous one produces
    for (_, out_prev), (fan_in, _) in zip(dims[2:-1], dims[3:]):
        assert fan_in == out_prev


def test_views_tile_the_flat_vector_in_layer_order():
    params = init_policy(4, 27, 8, 16, np.random.default_rng(0))
    assert params.flat.shape == (4443,)
    params.flat[:] = np.arange(4443)
    tiles = []
    for w, b, dims in zip(params.weights, params.biases, layer_dims(4, 27, 8, 16)):
        assert w.shape == dims and b.shape == dims[1:]
        assert np.shares_memory(w, params.flat) and np.shares_memory(b, params.flat)
        tiles += [w.ravel(), b]
    assert np.array_equal(np.concatenate(tiles), np.arange(4443))


def test_stacked_views_share_one_array():
    nets = [small_net(k) for k in range(3)]
    stacked = stack(nets)
    assert stacked.flat.shape == (3, nets[0].flat.size)
    for i, dims in enumerate(layer_dims(H, J, 4, 6)):
        w, b = stacked.weights[i], stacked.biases[i]
        assert w.shape == (3,) + dims and b.shape == (3, 1, dims[1])
        assert np.shares_memory(w, stacked.flat) and np.shares_memory(b, stacked.flat)
        for k, net in enumerate(nets):
            assert np.array_equal(w[k], net.weights[i])
            assert np.array_equal(b[k, 0], net.biases[i])


def test_wrong_parameter_count_rejected():
    size = small_net(0).flat.size
    for shape in [(size - 1,), (size + 1,), (2, size - 1), (2, 2, size), ()]:
        with pytest.raises(PreconditionError, match="parameter vector"):
            PolicyParams(h=H, j=J, width_in=4, width_mid=6, flat=np.zeros(shape))


def test_init_respects_limits():
    params = small_net(0)
    for w, (fan_in, fan_out) in zip(params.weights, layer_dims(H, J, 4, 6)):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= limit
    for b in params.biases:
        assert not b.any()


def test_forward_is_a_distribution():
    params = small_net(1)
    cur, prev = random_pairs(2, 100)
    probs, _ = forward(params, cur, prev)
    assert probs.shape == (100, J)
    assert (probs > 0).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_forward_many_random_nets_stay_normalized():
    rng = np.random.default_rng(7)
    for _ in range(10):
        params = init_policy(H, J, 4, 6, rng)
        cur, prev = random_pairs(rng.integers(1 << 31), 100)
        probs, _ = forward(params, cur, prev)
        assert (probs > 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_zero_params_give_uniform_output():
    dims = layer_dims(H, J, 4, 6)
    params = PolicyParams(
        h=H, j=J, width_in=4, width_mid=6,
        flat=np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in dims)),
    )
    probs, _ = forward(params, np.full(H, 0.25), np.full(H, 0.25))
    np.testing.assert_allclose(probs, np.full(J, 1.0 / J))


def test_single_state_matches_batch_row():
    params = small_net(3)
    cur, prev = random_pairs(4, 5)
    batch_probs, _ = forward(params, cur, prev)
    for i in range(5):
        single, _ = forward(params, cur[i], prev[i])
        np.testing.assert_allclose(single, batch_probs[i], rtol=1e-12, atol=1e-15)


def test_swapping_inputs_changes_output():
    params = small_net(5)
    s1 = np.array([0.7, 0.1, 0.1, 0.1])
    s2 = np.array([0.1, 0.1, 0.1, 0.7])
    p12, _ = forward(params, s1, s2)
    p21, _ = forward(params, s2, s1)
    assert np.abs(p12 - p21).max() > 1e-6


def test_width_mismatch_rejected():
    params = small_net(6)
    with pytest.raises(PreconditionError, match="H=4"):
        forward(params, np.full(3, 1 / 3), np.full(3, 1 / 3))


def _update_with_warm_workspace(params):
    """update_policy on a workspace that a finite update has already used."""
    from celab.env import EpisodeBatch
    from celab.training import AdamState, RewardTensor, TrainingConfig, update_policy

    rng = np.random.default_rng(10)
    raw = rng.random((2, 4, H))
    batch = EpisodeBatch(
        states=raw / raw.sum(axis=2, keepdims=True),
        action_indices=rng.integers(0, J, size=(2, 3)),
        step_size=0.25,
    )
    std = rng.normal(size=(2, 4))
    rewards = RewardTensor(raw=std, discounted=std, standardized=std)
    config = TrainingConfig(rounds=2, steps=4, step_size=0.25, width_in=4, width_mid=6)
    ws = Workspace()
    for net in (small_net(9), params):
        update_policy(net, batch, rewards, AdamState.zeros_like(net), config, ws)


@pytest.mark.parametrize("path", ["forward", "second_stacked_net", "update_workspace"])
def test_nonfinite_activation_names_the_layer(path):
    params = small_net(8)
    params.biases[0][0] = np.inf
    states = np.full((2, H), 0.25)
    with pytest.raises(NumericError, match="layer 0"):
        if path == "second_stacked_net":
            policy_fn(small_net(9), params)(states, states)
        elif path == "update_workspace":
            _update_with_warm_workspace(params)
        else:
            forward(params, states[0], states[0])


def test_leaky_relu_matches_where_form_bit_for_bit():
    tiny = np.nextafter(0.0, 1.0)  # 5e-324, the smallest subnormal
    edge = np.array([0.0, -0.0, tiny, -tiny, 1e300, -1e300])
    z = np.concatenate([edge, np.random.default_rng(11).normal(scale=3.0, size=1000)])
    expected = np.where(z > 0, z, LEAKY_SLOPE * z)
    assert _activate("leaky", z).tobytes() == expected.tobytes()
    out = np.empty_like(z)
    assert _activate("leaky", z, out).tobytes() == expected.tobytes()


def test_masks_from_layer_inputs_equal_pre_activation_masks():
    # gradients reads each activation's derivative off the sign of its
    # output: act(z) > 0 iff z > 0, so leaky(z) <= 0 iff z <= 0 as well
    tiny = np.nextafter(0.0, 1.0)
    edge = np.array([0.0, -0.0, tiny, -tiny, 1e300, -1e300])
    z = np.concatenate([edge, np.random.default_rng(12).normal(scale=3.0, size=1000)])
    for act in ("leaky", "relu"):
        assert np.array_equal(_activate(act, z) > 0.0, z > 0.0)
    assert np.array_equal(_activate("leaky", z) <= 0.0, z <= 0.0)


def test_leaky_derivative_factor_matches_a_masked_multiply_bit_for_bit():
    tiny = np.nextafter(0.0, 1.0)
    edge = np.array([0.0, -0.0, tiny, -tiny, 1e300, -1e300])
    rng = np.random.default_rng(13)
    x = np.concatenate([edge, rng.normal(size=994)])
    upstream = np.concatenate([edge[::-1], rng.normal(size=994)])
    want = upstream.copy()
    np.multiply(want, LEAKY_SLOPE, out=want, where=x <= 0.0)
    got = upstream * np.maximum(x > 0.0, LEAKY_SLOPE)
    assert got.tobytes() == want.tobytes()


def _update_rows(states):
    """The (current, previous) rows of an update, in (round, step) order."""
    cur = states[:, :-1].reshape(-1, H)
    prev = np.concatenate([states[:, :1], states[:, :-2]], axis=1).reshape(-1, H)
    return cur, prev


def _recorded_rollout(nets, rounds, steps, widths):
    params = [small_net(60 + k, *widths) for k in range(nets)]
    record = RolloutRecord(params[0], nets, rounds, steps - 1)
    rngs = [np.random.default_rng([61, m]) for m in range(nets * rounds)]
    batch = rollout(
        policy_fn(*params, record=record), nets * rounds, steps, 0.25, rngs,
        start=np.full(H, 0.25),
    )
    return params, record, batch


@pytest.mark.parametrize("widths", [(4, 6), (8, 16)])
@pytest.mark.parametrize("nets, rounds", [(1, 3), (2, 5), (3, 7)])
def test_recorded_rollout_pass_equals_forward_on_each_steps_rows(widths, nets, rounds):
    steps = 9
    params, record, batch = _recorded_rollout(nets, rounds, steps, widths)
    ws = Workspace()
    for k, net in enumerate(params):
        states = batch.states[k * rounds:(k + 1) * rounds]
        cur, prev = _update_rows(states)
        # forward over the rows the rollout evaluated at each step, laid out
        # in the update's (round, step) order
        per_step = [
            forward(net, states[:, n], states[:, max(n - 1, 0)]) for n in range(steps - 1)
        ]
        recorded = record.trace(k, cur, prev, ws)
        want = np.stack([probs for probs, _ in per_step], axis=1).reshape(-1, J)
        assert recorded.probs.tobytes() == want.tobytes()
        for i in range(2, 9):
            want = np.stack([t.layer_inputs[i] for _, t in per_step], axis=1)
            assert recorded.layer_inputs[i].tobytes() == want.reshape(len(cur), -1).tobytes()
        assert recorded.layer_inputs[0] is cur and recorded.layer_inputs[1] is prev


@pytest.mark.parametrize("widths", [(4, 6), (8, 16)])
def test_update_from_the_record_gives_the_bytes_of_one_that_runs_forward(widths):
    # the training default of 16 rounds: one forward over the whole batch
    # rounds every row as the rollout's per-step passes did
    from celab.env import EpisodeBatch
    from celab.training import AdamState, RewardTensor, TrainingConfig, update_policy

    rounds, steps = 16, 9
    params, record, batch = _recorded_rollout(2, rounds, steps, widths)
    config = TrainingConfig(
        rounds=rounds, steps=steps, step_size=0.25, width_in=widths[0], width_mid=widths[1]
    )
    ws = Workspace()
    for k, net in enumerate(params):
        mine = slice(k * rounds, (k + 1) * rounds)
        probs, trace = forward(net, *_update_rows(batch.states[mine]))
        recorded = record.trace(k, trace.current, trace.previous, ws)
        assert recorded.probs.tobytes() == probs.tobytes()
        for i in range(2, 9):
            assert recorded.layer_inputs[i].tobytes() == trace.layer_inputs[i].tobytes()

        own = EpisodeBatch(batch.states[mine], batch.action_indices[mine], 0.25)
        std = np.random.default_rng(k).normal(size=(rounds, steps))
        rewards = RewardTensor(raw=std, discounted=std, standardized=std)
        state = AdamState.zeros_like(net)
        want, _, want_stats = update_policy(net, own, rewards, state, config)
        got, _, got_stats = update_policy(net, own, rewards, state, config, ws, (record, k))
        assert (got_stats.loss, got_stats.grad_max) == (want_stats.loss, want_stats.grad_max)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.tobytes() == b.tobytes()


def test_stacked_forward_names_the_net_count_it_cannot_split():
    cur, prev = random_pairs(62, 7)
    with pytest.raises(PreconditionError, match="7 rows do not split into 3 nets"):
        forward(stack([small_net(k) for k in range(3)]), cur, prev)


def test_reused_workspace_matches_fresh_allocation_bitwise():
    # two nets of different widths and batch sizes share one workspace, as
    # the two players' updates do; every result must equal a fresh run's
    ws = Workspace()
    cases = [(small_net(50, 4, 6), 7), (small_net(51, 3, 9), 12), (small_net(52, 4, 6), 5)]
    for params, batch in cases * 2:
        cur, prev = random_pairs(batch, batch)
        rng = np.random.default_rng(batch)
        targets = np.eye(J)[rng.integers(0, J, size=batch)]
        weights = rng.normal(size=batch)
        fresh_probs, fresh_trace = forward(params, cur, prev)
        probs, trace = forward(params, cur, prev, ws)
        assert probs.tobytes() == fresh_probs.tobytes()
        for a, b in zip(trace.layer_inputs + trace.pre_activations,
                        fresh_trace.layer_inputs + fresh_trace.pre_activations):
            assert a.tobytes() == b.tobytes()
        for variant in ("two_sided", "chosen_only"):
            assert loss_value(probs, targets, weights, variant, ws) == loss_value(
                fresh_probs, targets, weights, variant
            )
            got = gradients(params, trace, targets, weights, variant, ws)
            want = gradients(params, fresh_trace, targets, weights, variant)
            for a, b in zip(got.weights + got.biases, want.weights + want.biases):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_loss_value_hand_case():
    p = np.array([[0.5, 0.25, 0.25]])
    y = np.array([[1.0, 0.0, 0.0]])
    two = loss_value(p, y, np.array([2.0]), "two_sided")
    chosen = loss_value(p, y, np.array([2.0]), "chosen_only")
    assert chosen == pytest.approx(-2 * np.log(0.5))
    assert two == pytest.approx(-2 * (np.log(0.5) + 2 * np.log(0.75)))
    with pytest.raises(PreconditionError):
        loss_value(p, y, np.array([1.0]), "nonsense")


def _flat_loss(params, cur, prev, targets, weights, variant):
    probs, _ = forward(params, cur, prev)
    return loss_value(probs, targets, weights, variant)


def _finite_difference(params, cur, prev, targets, weights, variant, step=1e-5):
    grad_w = [np.zeros_like(w) for w in params.weights]
    grad_b = [np.zeros_like(b) for b in params.biases]
    for store, arrays in ((grad_w, params.weights), (grad_b, params.biases)):
        for layer, arr in enumerate(arrays):
            flat = arr.reshape(-1)
            out = store[layer].reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + step
                hi = _flat_loss(params, cur, prev, targets, weights, variant)
                flat[k] = keep - step
                lo = _flat_loss(params, cur, prev, targets, weights, variant)
                flat[k] = keep
                out[k] = (hi - lo) / (2 * step)
    return grad_w, grad_b


def _max_rel_err(analytic, numeric):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.abs(f), 1e-3)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


@pytest.mark.parametrize("seed", [26, 36, 40, 42, 53])
def test_gradients_match_finite_differences(seed):
    params = small_net(seed)
    cur, prev = random_pairs(seed + 100, 3)
    rng = np.random.default_rng(seed + 200)
    targets = np.eye(J)[rng.integers(0, J, size=3)]
    weights = np.array([1.3, -0.7, 0.4])

    _, trace = forward(params, cur, prev)
    # the finite-difference oracle is only valid when no pre-activation sits
    # within the difference window of a LeakyReLU/ReLU kink
    min_kink = min(np.abs(trace.pre_activations[i]).min() for i in range(2, 8))
    assert min_kink > 1e-3
    analytic = gradients(params, trace, targets, weights, "two_sided")
    fd_w, fd_b = _finite_difference(params, cur, prev, targets, weights, "two_sided")
    assert _max_rel_err(analytic.weights, fd_w) < 1e-4
    assert _max_rel_err(analytic.biases, fd_b) < 1e-4


def test_gradients_match_finite_differences_chosen_only():
    params = small_net(20)
    cur, prev = random_pairs(21, 2)
    targets = np.eye(J)[[3, 19]]
    weights = np.array([0.9, -1.1])
    _, trace = forward(params, cur, prev)
    min_kink = min(np.abs(trace.pre_activations[i]).min() for i in range(2, 8))
    assert min_kink > 1e-3
    analytic = gradients(params, trace, targets, weights, "chosen_only")
    fd_w, fd_b = _finite_difference(params, cur, prev, targets, weights, "chosen_only")
    assert _max_rel_err(analytic.weights, fd_w) < 1e-4
    assert _max_rel_err(analytic.biases, fd_b) < 1e-4


def test_zero_weight_gives_zero_gradients():
    params = small_net(30)
    cur, prev = random_pairs(31, 4)
    targets = np.eye(J)[[0, 5, 9, 26]]
    _, trace = forward(params, cur, prev)
    grads = gradients(params, trace, targets, np.zeros(4))
    for g in grads.weights + grads.biases:
        assert not g.any()


def test_gradients_linear_in_weights():
    params = small_net(32)
    cur, prev = random_pairs(33, 3)
    targets = np.eye(J)[[1, 2, 3]]
    w = np.array([0.5, -0.25, 1.5])
    _, trace = forward(params, cur, prev)
    one = gradients(params, trace, targets, w)
    two = gradients(params, trace, targets, 2 * w)
    for g1, g2 in zip(one.weights + one.biases, two.weights + two.biases):
        np.testing.assert_allclose(g2, 2 * g1, rtol=1e-12, atol=1e-15)


def test_sample_action_point_mass():
    rng = np.random.default_rng(0)
    dist = np.zeros(J)
    dist[7] = 1.0
    assert all(sample_action(dist, rng) == 7 for _ in range(20))


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    params = small_net(40)
    path = tmp_path / "policy.json"
    save_checkpoint(params, path, seed=1234)
    loaded, seed = load_checkpoint(path)
    assert seed == 1234
    assert (loaded.h, loaded.j, loaded.width_in, loaded.width_mid) == (H, J, 4, 6)
    for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
        np.testing.assert_array_equal(a, b)
    # saving the loaded copy reproduces the file byte for byte
    second = tmp_path / "again.json"
    save_checkpoint(loaded, second, seed=1234)
    assert path.read_bytes() == second.read_bytes()


def test_checkpoint_rejects_mangled_shapes(tmp_path):
    import json

    params = small_net(41)
    path = tmp_path / "policy.json"
    save_checkpoint(params, path)
    good = json.loads(path.read_text())
    bias = good["layers"][3]["bias"]
    for key, value in (("weights", [[0.0]]), ("bias", [0.0, 0.0]), ("bias", [bias])):
        payload = json.loads(json.dumps(good))
        payload["layers"][3][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(PreconditionError, match="shape"):
            load_checkpoint(path)


def test_policy_fn_shapes():
    params = small_net(42)
    fn = policy_fn(params)
    cur, prev = random_pairs(43, 6)
    probs = fn(cur, prev)
    assert probs.shape == (6, J)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_stacked_policy_fn_matches_forward_per_block():
    pa, pb = small_net(44), small_net(45)
    cur, prev = random_pairs(46, 10)
    probs = policy_fn(pa, pb)(cur, prev)
    assert np.array_equal(probs[:5], forward(pa, cur[:5], prev[:5])[0])
    assert np.array_equal(probs[5:], forward(pb, cur[5:], prev[5:])[0])


def test_stacked_policy_fn_rejects_uneven_rows():
    cur, prev = random_pairs(47, 5)
    with pytest.raises(PreconditionError, match="split"):
        policy_fn(small_net(48), small_net(49))(cur, prev)
