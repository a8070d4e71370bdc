"""Policy network tests. The gradient implementation is checked against a
central finite-difference oracle on small networks, which is the ground truth
everything in training leans on."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    kink_margin,
    reference_forward,
    reference_gradients,
    reference_loss_value,
    reference_update,
)

from celab.env import rollout
from celab.errors import NumericError, PreconditionError
from celab.policy import (
    _LAYER_NAMES,
    LEAKY_SLOPE,
    PROB_EPS,
    ForwardTrace,
    PolicyParams,
    RolloutRecord,
    Workspace,
    _bias_operands,
    _leaky,
    forward,
    gradients,
    init_policy,
    layer_dims,
    load_checkpoint,
    loss_value,
    policy_fn,
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


def lone_pass(params, cur, prev):
    """One net's pass over (B, H) rows as the package runs it: `policy_fn`
    over a one-step record of B rounds. Returns the (B, J) probabilities and
    the record, whose `trace(0, cur, prev)` is the pass's trace."""
    record = RolloutRecord(params, nets=1, rounds=len(cur), steps=1)
    return policy_fn(params, record=record)(0, cur, prev), record


def direct_forward(nets, cur, prev):
    """`forward` called directly on `nets` stacked, into slot 0 of a
    one-step record, with the stacked views' own (P, 1, fan_out) bias
    operands in place of `policy_fn`'s tiled copies."""
    stacked = stack(nets)
    record = RolloutRecord(stacked, len(nets), len(cur) // len(nets), 1)
    return forward(stacked, cur, prev, record.slots[0], _bias_operands(stacked.biases))


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
    probs, _ = lone_pass(params, cur, prev)
    assert probs.shape == (100, J)
    assert (probs > 0).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_forward_many_random_nets_stay_normalized():
    rng = np.random.default_rng(7)
    for _ in range(10):
        params = init_policy(H, J, 4, 6, rng)
        cur, prev = random_pairs(rng.integers(1 << 31), 100)
        probs, _ = lone_pass(params, cur, prev)
        assert (probs > 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_zero_params_give_uniform_output():
    dims = layer_dims(H, J, 4, 6)
    params = PolicyParams(
        h=H, j=J, width_in=4, width_mid=6,
        flat=np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in dims)),
    )
    probs, _ = lone_pass(params, np.full((1, H), 0.25), np.full((1, H), 0.25))
    np.testing.assert_allclose(probs, np.full((1, J), 1.0 / J))


def test_single_state_matches_batch_row():
    params = small_net(3)
    cur, prev = random_pairs(4, 5)
    batch_probs, _ = lone_pass(params, cur, prev)
    for i in range(5):
        single, _ = lone_pass(params, cur[i:i + 1], prev[i:i + 1])
        assert single.shape == (1, J)
        np.testing.assert_allclose(single[0], batch_probs[i], rtol=1e-12, atol=1e-15)


def test_swapping_inputs_changes_output():
    params = small_net(5)
    s1 = np.array([[0.7, 0.1, 0.1, 0.1]])
    s2 = np.array([[0.1, 0.1, 0.1, 0.7]])
    p12, _ = lone_pass(params, s1, s2)
    p21, _ = lone_pass(params, s2, s1)
    assert np.abs(p12 - p21).max() > 1e-6


def test_width_mismatch_rejected():
    params = small_net(6)
    with pytest.raises(PreconditionError, match="H=4"):
        direct_forward([params], np.full((1, 3), 1 / 3), np.full((1, 3), 1 / 3))
    # forward takes (B, H) rows only: a single state, unequal row counts and
    # a third axis are rejected as well
    for cur, prev in (((H,), (H,)), ((2, H), (3, H)), ((1, 2, H), (1, 2, H))):
        with pytest.raises(PreconditionError, match=r"\(B, H=4\) rows"):
            direct_forward([params], np.full(cur, 0.25), np.full(prev, 0.25))


def test_forward_runs_stacked_nets_only():
    # one net's 1-D parameter vector is not a stack of one
    params = small_net(6)
    record = RolloutRecord(params, nets=1, rounds=2, steps=1)
    cur, prev = random_pairs(7, 2)
    with pytest.raises(PreconditionError, match="stack"):
        forward(params, cur, prev, record.slots[0], _bias_operands(params.biases))


def _pass_into_a_filled_record(params, states):
    """A recording pass of `params` into the slot, and the shared
    pre-activation block, of the record an update reads, after a finite
    pass has filled both."""
    record = RolloutRecord(params, nets=1, rounds=len(states), steps=1)
    for net in (small_net(9), params):
        policy_fn(net, record=record)(0, states, states)


# (layer, bias value, whether the next layer's weights are all zero); the
# output layer has no next layer
_NONFINITE_BIASES = [
    pytest.param(layer, value, zero_next, id=f"layer{layer}-{name}" + "-zero_next" * zero_next)
    for layer in range(9)
    for name, value in (("inf", np.inf), ("neginf", -np.inf), ("nan", np.nan))
    for zero_next in (False, True)
    if not (zero_next and layer == 8)
]


@pytest.mark.parametrize("path", ["forward", "second_stacked_net", "update_workspace"])
@pytest.mark.parametrize("layer, value, zero_next", _NONFINITE_BIASES)
def test_nonfinite_activation_names_the_layer(layer, value, zero_next, path):
    # a non-finite bias makes that layer's pre-activation non-finite, and the
    # error names that layer, whatever the layers above do with it: -inf at a
    # ReLU layer (5-7) is erased by the activation, and an all-zero weight
    # matrix in the next layer turns inf into NaN (inf * 0)
    params = small_net(8)
    params.biases[layer][0] = value
    if zero_next:
        params.weights[max(layer + 1, 2)][...] = 0.0
    states = np.full((2, H), 0.25)
    message = f"non-finite activation in layer {layer} ({_LAYER_NAMES[layer]})"
    with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
        if path == "second_stacked_net":
            record = RolloutRecord(params, nets=2, rounds=1, steps=1)
            policy_fn(small_net(9), params, record=record)(0, states, states)
        elif path == "update_workspace":
            _pass_into_a_filled_record(params, states)
        else:
            direct_forward([params], states[:1], states[:1])


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("side, layer", [("current", 0), ("previous", 1)])
def test_direct_forward_on_a_non_finite_state_raises_without_a_warning(
    side, layer, value, stacked
):
    # no caller's np.errstate is active here: forward sets its own, so the
    # non-finite state ends in NumericError, not a RuntimeWarning. Unstacked
    # is one net, stacked two.
    assert np.geterr()["over"] != "ignore" and np.geterr()["invalid"] != "ignore"
    nets = [small_net(8), small_net(9)] if stacked else [small_net(8)]
    states = {"current": np.full((2, H), 0.25), "previous": np.full((2, H), 0.25)}
    states[side][1, 2] = value
    message = f"non-finite activation in layer {layer} ({_LAYER_NAMES[layer]})"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            direct_forward(nets, states["current"], states["previous"])
    assert np.geterr()["over"] != "ignore" and np.geterr()["invalid"] != "ignore"


def test_leaky_relu_matches_where_form_bit_for_bit():
    tiny = np.nextafter(0.0, 1.0)  # 5e-324, the smallest subnormal
    edge = np.array([0.0, -0.0, tiny, -tiny, 1e300, -1e300])
    z = np.concatenate([edge, np.random.default_rng(11).normal(scale=3.0, size=1000)])
    expected = np.where(z > 0, z, LEAKY_SLOPE * z)
    assert _leaky(z).tobytes() == expected.tobytes()
    out = np.empty_like(z)
    assert _leaky(z, out).tobytes() == expected.tobytes()


def test_masks_from_layer_inputs_equal_pre_activation_masks():
    # gradients reads each activation's derivative off the sign of its
    # output: act(z) > 0 iff z > 0, so leaky(z) <= 0 iff z <= 0 as well
    tiny = np.nextafter(0.0, 1.0)
    edge = np.array([0.0, -0.0, tiny, -tiny, 1e300, -1e300])
    z = np.concatenate([edge, np.random.default_rng(12).normal(scale=3.0, size=1000)])
    for act in (_leaky, lambda z: np.maximum(z, 0.0)):
        assert np.array_equal(act(z) > 0.0, z > 0.0)
    assert np.array_equal(_leaky(z) <= 0.0, z <= 0.0)


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
    uniforms = np.stack(
        [np.random.default_rng([61, m]).random(steps - 1) for m in range(nets * rounds)], axis=1
    )
    batch = rollout(policy_fn(*params, record=record), 0.25, uniforms, start=np.full(H, 0.25))
    return params, record, batch


@pytest.mark.parametrize("widths", [(4, 6), (8, 16)])
@pytest.mark.parametrize("nets, rounds", [(1, 3), (2, 5), (3, 7)])
def test_recorded_rollout_pass_equals_forward_on_each_steps_rows(widths, nets, rounds):
    steps = 9
    params, record, batch = _recorded_rollout(nets, rounds, steps, widths)
    for k, net in enumerate(params):
        states = batch.states[k * rounds:(k + 1) * rounds]
        cur, prev = _update_rows(states)
        # the reference pass over the rows the rollout evaluated at each
        # step, laid out in the update's (round, step) order
        per_step = [
            reference_forward(net, states[:, n], states[:, max(n - 1, 0)])
            for n in range(steps - 1)
        ]
        recorded = record.trace(k, cur, prev)
        want = np.stack([probs for probs, _ in per_step], axis=1).reshape(-1, J)
        assert recorded.probs.tobytes() == want.tobytes()
        for i in range(2, 9):
            want = np.stack([inputs[i - 2] for _, inputs in per_step], axis=1)
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
    for k, net in enumerate(params):
        mine = slice(k * rounds, (k + 1) * rounds)
        cur, prev = _update_rows(batch.states[mine])
        probs, inputs = reference_forward(net, cur, prev)
        recorded = record.trace(k, cur, prev)
        assert recorded.probs.tobytes() == probs.tobytes()
        for i in range(2, 9):
            assert recorded.layer_inputs[i].tobytes() == inputs[i - 2].tobytes()

        own = EpisodeBatch(batch.states[mine], batch.action_indices[mine])
        std = np.random.default_rng(k).normal(size=(rounds, steps))
        rewards = RewardTensor(raw=std, discounted=std, standardized=std)
        state = AdamState.zeros_like(net)
        want, _, want_stats = reference_update(net, own, rewards, state, config)
        got, _, got_stats = update_policy(net, own, rewards, state, config, record, k)
        assert (got_stats.loss, got_stats.grad_max) == (want_stats.loss, want_stats.grad_max)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("rounds", [2, 3, 5, 16])
def test_recording_policy_fn_with_tiled_biases_gives_the_bytes_of_forward(rounds):
    # a recording closure adds (P, M, fan_out) bias copies where the
    # reference pass on the stacked params broadcasts (P, 1, fan_out) views
    # of `flat`
    rng = np.random.default_rng(rounds)
    nets = [small_net(70 + k) for k in range(2)]
    for net in nets:
        for b in net.biases:
            b[...] = rng.normal(size=b.shape)
    record = RolloutRecord(nets[0], 2, rounds, 1)
    cur, prev = random_pairs(72, 2 * rounds)
    got = policy_fn(*nets, record=record)(0, cur, prev)
    want, inputs = reference_forward(stack(nets), cur, prev)
    assert got.tobytes() == want.tobytes()
    for recorded, fresh in zip(record.slots[0], [*inputs, want]):
        assert recorded.tobytes() == fresh.tobytes()


def test_stacked_forward_names_the_net_count_it_cannot_split():
    cur, prev = random_pairs(62, 7)
    with pytest.raises(PreconditionError, match="7 rows do not split into 3 nets"):
        direct_forward([small_net(k) for k in range(3)], cur, prev)


def test_reused_workspace_matches_fresh_allocation_bitwise():
    # two nets of different widths and batch sizes share one workspace, as
    # the two players' updates do; every result must equal a fresh run's
    ws = Workspace()
    cases = [(small_net(50, 4, 6), 7), (small_net(51, 3, 9), 12), (small_net(52, 4, 6), 5)]
    for params, batch in cases * 2:
        cur, prev = random_pairs(batch, batch)
        rng = np.random.default_rng(batch)
        targets = rng.integers(0, J, size=batch)
        weights = rng.normal(size=batch)
        probs, record = lone_pass(params, cur, prev)
        trace = record.trace(0, cur, prev)
        fresh = loss_value(probs, targets, weights, Workspace())
        assert loss_value(probs, targets, weights, ws) == fresh
        got = gradients(params, trace, targets, weights, ws)
        want = gradients(params, trace, targets, weights, Workspace())
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_workspace_reuses_a_buffer_only_for_the_dtype_asked_for():
    ws = Workspace()
    assert ws.array("name", (4,)).dtype == np.float64
    assert ws.array("name", (4,), bool).dtype == np.bool_
    rows = ws.array("name", (2, 3), np.intp)
    assert rows.dtype == np.intp
    # the same dtype again, no larger, reuses the buffer
    assert np.shares_memory(ws.array("name", (5,), np.intp), rows)


# probabilities at and beyond the clip bounds
_EDGE_PROBS = [0.0, -0.5, PROB_EPS / 2, PROB_EPS, 1.0 - PROB_EPS, 1.0 - PROB_EPS / 4, 1.0, 1.5]


def _edge_weights(rng, kind, batch):
    if kind == "zero":
        return np.zeros(batch)
    if kind == "negative":
        return -np.abs(rng.normal(size=batch))
    if kind == "huge":
        return rng.choice([1e300, -1e300, 1e200], size=batch)
    if kind == "mixed":
        return rng.choice([0.0, -0.0, -2.5, 1.3, 1e300, -1e300, 1e-300], size=batch)
    return rng.normal(size=batch)


@settings(max_examples=60, deadline=None)
@given(
    h=st.sampled_from([2, 3, 4]),
    batch=st.integers(1, 1000),
    widths=st.sampled_from([(1, 6), (4, 1), (1, 1), (2, 2), (3, 5), (8, 16)]),
    edge_share=st.sampled_from([0.0, 0.05, 0.5]),
    weight_kind=st.sampled_from(["normal", "zero", "negative", "huge", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_index_forms_give_the_bytes_of_one_hot_rows(
    h, batch, widths, edge_share, weight_kind, seed
):
    # loss_value and gradients take (B,) chosen indices; the dense forms
    # they replaced took np.eye(J)[chosen] rows, and every byte must agree
    j = 3 ** (h - 1)
    rng = np.random.default_rng(seed)
    params = init_policy(h, j, *widths, rng)
    cur, prev = rng.dirichlet(np.ones(h), size=(2, batch))
    _, record = lone_pass(params, cur, prev)
    fresh = record.trace(0, cur, prev)
    probs = fresh.probs.copy()
    edge = rng.random(probs.shape) < edge_share
    probs[edge] = rng.choice(_EDGE_PROBS, size=int(edge.sum()))
    trace = ForwardTrace(fresh.layer_inputs, probs)
    chosen = rng.integers(0, j, size=batch)
    weights = _edge_weights(rng, weight_kind, batch)
    one_hot = np.eye(j)[chosen]

    ws = Workspace()
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.float64(loss_value(probs, chosen, weights, ws))
        want = np.float64(reference_loss_value(probs, one_hot, weights))
        assert got.tobytes() == want.tobytes()
        got = gradients(params, trace, chosen, weights, ws)
        want = reference_gradients(params, trace, one_hot, weights)
    assert got.flat.tobytes() == want.flat.tobytes()


def test_nan_probability_raises_the_one_hot_forms_message():
    params = small_net(14)
    cur, prev = random_pairs(15, 6)
    _, record = lone_pass(params, cur, prev)
    fresh = record.trace(0, cur, prev)
    probs = fresh.probs.copy()
    probs[3, 7] = np.nan
    trace = ForwardTrace(fresh.layer_inputs, probs)
    chosen = np.array([0, 5, 7, 7, 26, 1])
    messages = []
    for call in (
        lambda: reference_gradients(params, trace, np.eye(J)[chosen], np.ones(6)),
        lambda: gradients(params, trace, chosen, np.ones(6), Workspace()),
    ):
        with pytest.raises(NumericError) as err:
            call()
        messages.append(str(err.value))
    assert messages == ["probabilities escaped the epsilon guard"] * 2


@pytest.mark.parametrize(
    "chosen", [[0, 27, 3], [-1, 2, 3], [0, 1], [[0], [1], [2]], [0.0, 1.0, 2.0]],
    ids=["past-the-last-action", "negative", "too-few", "column", "floats"],
)
def test_chosen_actions_must_be_one_index_per_row(chosen):
    params = small_net(16)
    cur, prev = random_pairs(17, 3)
    probs, record = lone_pass(params, cur, prev)
    trace = record.trace(0, cur, prev)
    for call in (
        lambda: loss_value(probs, np.array(chosen), np.ones(3), Workspace()),
        lambda: gradients(params, trace, np.array(chosen), np.ones(3), Workspace()),
    ):
        with pytest.raises(PreconditionError, match="indices into 27 actions"):
            call()


def _inject(nets, target, layer, value, rng):
    """Put `value` into one random entry of layer `layer`'s weights or bias
    in a random net of `nets`; states are handled by the caller."""
    net = nets[rng.integers(len(nets))]
    arrays = net.weights if target == "weights" else net.biases
    flat = arrays[layer].reshape(-1)
    flat[rng.integers(flat.size)] = value


_INJECTED = [np.inf, -np.inf, np.nan, 1e300, -1e300]
# how each mode runs the package's pass: (nets, caller), the caller being
# `policy_fn`'s recording closure with its tiled bias operands, or `forward`
# called directly with the stacked views' own operands (`direct_forward`).
# The reference runs over the lone net itself in "unstacked", and over the
# stacked nets in the other modes.
_MODES = {
    "unstacked": (1, "policy_fn"),
    "stacked": (2, "forward"),
    "stacked_slot": (1, "forward"),
    "recording": (2, "policy_fn"),
}
_TARGETS = ["weights", "biases", "states"]


@pytest.mark.parametrize("mode", list(_MODES))
@pytest.mark.parametrize("target", _TARGETS)
@pytest.mark.parametrize("value", _INJECTED, ids=["inf", "neginf", "nan", "huge", "neghuge"])
def test_single_finiteness_check_gives_the_four_check_outcome(value, target, mode):
    # the pass checks its one pre-activation block once; the reference that
    # checked the ReLU layers and the logits one by one must raise the same
    # message, or return the same bytes
    rng = np.random.default_rng(
        [_INJECTED.index(value), _TARGETS.index(target), list(_MODES).index(mode)]
    )
    nets_per_case, caller = _MODES[mode]
    rounds = 3
    layers = range(9) if target != "states" else range(2)
    outcomes = []
    for layer in layers:
        for zero_next in (False, True):
            nets = [small_net(80 + k) for k in range(nets_per_case)]
            for net in nets:
                for b in net.biases:
                    b[...] = rng.normal(scale=0.5, size=b.shape)
            cur, prev = random_pairs(rng.integers(1 << 31), nets_per_case * rounds)
            if target == "states":
                states = (cur, prev)[layer]
                states[rng.integers(len(states)), rng.integers(H)] = value
            else:
                _inject(nets, target, layer, value, rng)
            if zero_next and layer < 8:
                for net in nets:
                    net.weights[max(layer + 1, 2)][...] = 0.0
            params = nets[0] if mode == "unstacked" else stack(nets)

            def package():
                if caller == "forward":
                    return direct_forward(nets, cur, prev)
                record = RolloutRecord(nets[0], len(nets), rounds, 1)
                return policy_fn(*nets, record=record)(0, cur, prev)

            results = []
            for run in (lambda: reference_forward(params, cur, prev)[0], package):
                try:
                    results.append(run().tobytes())
                except NumericError as err:
                    results.append(str(err))
            assert results[0] == results[1], (layer, zero_next)
            outcomes.append(isinstance(results[0], str))
    if not np.isfinite(value):
        assert all(outcomes)


def test_loss_value_hand_case():
    p = np.array([[0.5, 0.25, 0.25]])
    two = loss_value(p, np.array([0]), np.array([2.0]), Workspace())
    assert two == pytest.approx(-2 * (np.log(0.5) + 2 * np.log(0.75)))


def _flat_loss(params, cur, prev, targets, weights):
    probs, _ = lone_pass(params, cur, prev)
    return loss_value(probs, targets, weights, Workspace())


def _finite_difference(params, cur, prev, targets, weights, step=1e-5):
    grad_w = [np.zeros_like(w) for w in params.weights]
    grad_b = [np.zeros_like(b) for b in params.biases]
    for store, arrays in ((grad_w, params.weights), (grad_b, params.biases)):
        for layer, arr in enumerate(arrays):
            flat = arr.reshape(-1)
            out = store[layer].reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + step
                hi = _flat_loss(params, cur, prev, targets, weights)
                flat[k] = keep - step
                lo = _flat_loss(params, cur, prev, targets, weights)
                flat[k] = keep
                out[k] = (hi - lo) / (2 * step)
    return grad_w, grad_b


def _max_rel_err(analytic, numeric):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.abs(f), 1e-3)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


# (net seed, state-pair seed, chosen actions, weights)
_FD_CASES = [
    pytest.param(
        seed, seed + 100, np.random.default_rng(seed + 200).integers(0, J, size=3),
        [1.3, -0.7, 0.4], id=str(seed),
    )
    for seed in (26, 36, 40, 42, 53)
] + [pytest.param(20, 21, [3, 19], [0.9, -1.1], id="20")]


@pytest.mark.parametrize("net_seed, pair_seed, actions, weights", _FD_CASES)
def test_gradients_match_finite_differences(net_seed, pair_seed, actions, weights):
    params = small_net(net_seed)
    cur, prev = random_pairs(pair_seed, len(actions))
    targets = np.array(actions)
    weights = np.array(weights)

    trace = lone_pass(params, cur, prev)[1].trace(0, cur, prev)
    # the finite-difference oracle is only valid when no pre-activation sits
    # within the difference window of a LeakyReLU/ReLU kink
    assert kink_margin(params, trace) > 1e-3
    analytic = gradients(params, trace, targets, weights, Workspace())
    fd_w, fd_b = _finite_difference(params, cur, prev, targets, weights)
    assert _max_rel_err(analytic.weights, fd_w) < 1e-4
    assert _max_rel_err(analytic.biases, fd_b) < 1e-4


def test_zero_weight_gives_zero_gradients():
    params = small_net(30)
    cur, prev = random_pairs(31, 4)
    targets = np.array([0, 5, 9, 26])
    trace = lone_pass(params, cur, prev)[1].trace(0, cur, prev)
    grads = gradients(params, trace, targets, np.zeros(4), Workspace())
    for g in grads.weights + grads.biases:
        assert not g.any()


def test_gradients_linear_in_weights():
    params = small_net(32)
    cur, prev = random_pairs(33, 3)
    targets = np.array([1, 2, 3])
    w = np.array([0.5, -0.25, 1.5])
    trace = lone_pass(params, cur, prev)[1].trace(0, cur, prev)
    one = gradients(params, trace, targets, w, Workspace())
    two = gradients(params, trace, targets, 2 * w, Workspace())
    for g1, g2 in zip(one.weights + one.biases, two.weights + two.biases):
        np.testing.assert_allclose(g2, 2 * g1, rtol=1e-12, atol=1e-15)


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


def _edited_checkpoint(tmp_path, edit):
    """The path of a saved checkpoint after `edit` changed its JSON text."""
    path = tmp_path / "policy.json"
    save_checkpoint(small_net(41), path)
    path.write_text(edit(path.read_text()))
    return path


def _edit_payload(change):
    import json

    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        # a null weight, and NaN or Infinity tokens, would load as non-finite
        (_edit_payload(lambda p: p["layers"][2]["weights"][0].__setitem__(1, None)),
         "weights in dense_1 is not an array of numbers"),
        (_edit_payload(lambda p: p["layers"][4]["bias"].__setitem__(0, float("nan"))),
         "bias in dense_3 holds a non-finite value"),
        (_edit_payload(lambda p: p["layers"][8]["weights"][1].__setitem__(0, float("inf"))),
         "weights in output holds a non-finite value"),
        (_edit_payload(lambda p: p["layers"][0]["bias"].__setitem__(0, "0.5")),
         "bias in analyzer_a is not an array of numbers"),
        (_edit_payload(lambda p: p["layers"][5]["weights"].__setitem__(0, [0.0])),
         "weights in wide_1 is not an array of numbers"),
        (_edit_payload(lambda p: p["layers"][6].pop("bias")), "wide_2 has no 'bias'"),
        (_edit_payload(lambda p: p.pop("widths")), "file has no 'widths'"),
        (_edit_payload(lambda p: p["widths"].pop("j")), "widths has no 'j'"),
        (_edit_payload(lambda p: p["widths"].__setitem__("h", 2.5)),
         "width h must be an integer, got 2.5"),
        (_edit_payload(lambda p: p["layers"][1].pop("name")), "layer 1 has no 'name'"),
        (lambda text: "[" + text + "]", "checkpoint is a JSON list, not an object"),
        # JSON true is not the weight 1.0, nor the seed 1
        (_edit_payload(lambda p: p["layers"][2]["weights"][0].__setitem__(0, True)),
         "weights in dense_1 must hold numbers, not booleans"),
        (_edit_payload(lambda p: p.__setitem__("seed", True)),
         "checkpoint seed must be an integer, got True"),
        (_edit_payload(lambda p: p.__setitem__("seed", -3.5)),
         "checkpoint seed must be an integer, got -3.5"),
        (_edit_payload(lambda p: p.__setitem__("seed", -1)),
         "checkpoint seed must be >= 0, got -1"),
    ],
)
def test_checkpoint_rejects_bad_files_by_name(tmp_path, edit, message):
    path = _edited_checkpoint(tmp_path, edit)
    with pytest.raises(PreconditionError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "content, message",
    [(b'{"widths": ', "invalid JSON at line 1 column 12"), (b'{"seed": "\xff"}', "cannot read")],
    ids=["truncated", "not-utf-8"],
)
def test_checkpoint_that_is_not_utf8_json_names_the_file(tmp_path, content, message):
    path = tmp_path / "policy.json"
    path.write_bytes(content)
    with pytest.raises(PreconditionError, match=message) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_policy_fn_shapes():
    params = small_net(42)
    fn = policy_fn(params, record=RolloutRecord(params, nets=1, rounds=6, steps=1))
    cur, prev = random_pairs(43, 6)
    probs = fn(0, cur, prev)
    assert probs.shape == (6, J)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_policy_fn_writes_step_n_into_slot_n_whatever_the_call_order():
    params = small_net(42)
    record = RolloutRecord(params, nets=1, rounds=6, steps=3)
    fn = policy_fn(params, record=record)
    for n in (2, 0):
        cur, prev = random_pairs(43 + n, 6)
        probs = fn(n, cur, prev)
        assert probs.tobytes() == reference_forward(params, cur, prev)[0].tobytes()
        assert record.slots[n][7].tobytes() == probs.tobytes()


def test_stacked_policy_fn_matches_forward_per_block():
    pa, pb = small_net(44), small_net(45)
    cur, prev = random_pairs(46, 10)
    probs = policy_fn(pa, pb, record=RolloutRecord(pa, nets=2, rounds=5, steps=1))(0, cur, prev)
    assert np.array_equal(probs[:5], reference_forward(pa, cur[:5], prev[:5])[0])
    assert np.array_equal(probs[5:], reference_forward(pb, cur[5:], prev[5:])[0])


def test_stacked_policy_fn_rejects_uneven_rows():
    cur, prev = random_pairs(47, 5)
    nets = small_net(48), small_net(49)
    record = RolloutRecord(nets[0], nets=2, rounds=2, steps=1)
    with pytest.raises(PreconditionError, match="split"):
        policy_fn(*nets, record=record)(0, cur, prev)


@pytest.mark.parametrize("rounds, steps", [(2, 3), (3, 5)])
def test_rollout_into_a_record_of_other_shapes_names_both(rounds, steps):
    # the draws make 5 steps of 2 rounds: a record of 3 steps runs out of
    # slots, and one of 3 rounds has rows of another size
    params = small_net(50)
    record = RolloutRecord(params, nets=1, rounds=rounds, steps=steps)
    message = (f"of 2 rows does not fit a record of {steps} steps whose rows "
               f"split into P=1 nets of M={rounds} rounds")
    with pytest.raises(PreconditionError, match=re.escape(message)):
        rollout(policy_fn(params, record=record), 0.25, np.full((5, 2), 0.5), np.full(H, 0.25))
