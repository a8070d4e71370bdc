"""Two-input feed-forward policy network, plain numpy.

Topology: two linear analyzer layers (one per input state) whose outputs are
concatenated, three dense layers with LeakyReLU (slope 0.2), three dense
layers at double width with ReLU, and a softmax output over the J actions.
`forward` records a trace so the analytic backward pass can run without any
autodiff framework. Rollouts need no trace: `policy_fn` runs the same layer
stack trace-free, and with several nets stacks their weights so one batched
matmul per layer serves every player's rows at once.

An update pass (`forward`, `loss_value`, `gradients`) works on a few hundred
rows, and its row-sized intermediates come to megabytes. Freed after every
call, that memory goes back to the operating system and is faulted in again
on the next one, which costs more than the arithmetic. So these functions
write every row-sized intermediate into a `Workspace` that the caller owns
and passes to each call; `train_pair` keeps one per run. Called without one,
each function makes a fresh workspace and runs the same code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .env import sample_index
from .errors import NumericError, PreconditionError

LEAKY_SLOPE = 0.2
PROB_EPS = 1e-12

# activation per layer position; analyzers are linear (assumption recorded in
# package docs: only the later blocks carry activation labels)
_ACTIVATIONS = (
    "linear",
    "linear",
    "leaky",
    "leaky",
    "leaky",
    "relu",
    "relu",
    "relu",
    "softmax",
)
_LAYER_NAMES = (
    "analyzer_a",
    "analyzer_b",
    "dense_1",
    "dense_2",
    "dense_3",
    "wide_1",
    "wide_2",
    "wide_3",
    "output",
)


@dataclass
class PolicyParams:
    """Weights and biases for all nine layers, with the widths that shaped them."""

    h: int
    j: int
    width_in: int
    width_mid: int
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)

    def copy(self) -> "PolicyParams":
        return PolicyParams(
            h=self.h,
            j=self.j,
            width_in=self.width_in,
            width_mid=self.width_mid,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def layer_dims(h: int, j: int, width_in: int, width_mid: int) -> list[tuple[int, int]]:
    wide = 2 * width_mid
    return [
        (h, width_in),
        (h, width_in),
        (2 * width_in, width_mid),
        (width_mid, width_mid),
        (width_mid, width_mid),
        (width_mid, wide),
        (wide, wide),
        (wide, wide),
        (wide, j),
    ]


def init_policy(
    h: int, j: int, width_in: int, width_mid: int, rng: np.random.Generator
) -> PolicyParams:
    """Uniform(-limit, limit) weights with limit = sqrt(6/(fan_in+fan_out)); zero biases."""
    weights = []
    biases = []
    for fan_in, fan_out in layer_dims(h, j, width_in, width_mid):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return PolicyParams(
        h=h, j=j, width_in=width_in, width_mid=width_mid, weights=weights, biases=biases
    )


class Workspace:
    """Reusable buffers for the row-sized intermediates of an update pass.

    Each buffer has a name and is reshaped to whatever shape its user asks
    for, growing when a request is larger than what it holds, so one
    workspace serves any batch size and any net. A request for a name ends
    the use of what the buffer held before: a trace or probabilities that
    `forward` returned stay valid only until the next call given the same
    workspace. The workspace belongs to the caller that runs the updates;
    it keeps no reference to any net.
    """

    def __init__(self):
        self._flat: dict = {}

    def array(self, name, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


@dataclass
class ForwardTrace:
    """Per-layer inputs and pre-activations from one forward pass (2-D batch).

    `layer_inputs` has all nine layers; `pre_activations` stops at layer 7,
    because the logits become the probabilities in place. With a shared
    workspace the arrays are views of its buffers.
    """

    current: np.ndarray
    previous: np.ndarray
    layer_inputs: list[np.ndarray]
    pre_activations: list[np.ndarray]
    probs: np.ndarray


def _activate(name: str, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if name == "leaky":
        # max(z, 0.2 z) equals np.where(z > 0, z, 0.2 z) bit for bit on every
        # finite z, signed zeros and subnormals included
        scaled = np.multiply(z, LEAKY_SLOPE, out=out)
        return np.maximum(z, scaled, out=scaled)
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    raise ValueError(name)


def _state_rows(h: int, current, previous) -> tuple[np.ndarray, np.ndarray]:
    cur = np.atleast_2d(np.asarray(current, dtype=np.float64))
    prev = np.atleast_2d(np.asarray(previous, dtype=np.float64))
    if cur.shape != prev.shape or cur.shape[1] != h:
        raise PreconditionError(
            f"state widths {cur.shape}/{prev.shape} do not match H={h}"
        )
    return cur, prev


def _layers(
    weights, biases, cur, prev, ws=None, inputs=None, pre_activations=None
) -> np.ndarray:
    """The nine-layer stack, returning action probabilities.

    Runs one net's (fan_in, fan_out) weights over (B, H) rows, or P stacked
    nets' (P, fan_in, fan_out) weights and (P, 1, fan_out) biases over
    (P, B, H) blocks. With a workspace `ws` every intermediate lands in its
    buffers; without one each is a fresh array. When `inputs` and
    `pre_activations` are lists, the layer inputs and the pre-activations of
    layers 0-7 are appended to them.
    """
    lead = cur.shape[:-1]

    def buffer(name, width, dtype=np.float64):
        # None lets each numpy call allocate its own result
        return None if ws is None else ws.array(name, lead + (width,), dtype)

    def dense(i: int, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        z = np.matmul(x, weights[i], out=out)
        z += biases[i]
        if not np.isfinite(z, out=buffer("mask", z.shape[-1], bool)).all():
            raise NumericError(f"non-finite activation in layer {i} ({_LAYER_NAMES[i]})")
        return z

    # the two linear analyzers write the halves of layer 2's input
    half = weights[0].shape[-1]
    x = buffer(("input", 2), 2 * half)
    if x is None:
        x = np.empty(lead + (2 * half,))
    za = dense(0, cur, x[..., :half])
    zb = dense(1, prev, x[..., half:])
    if inputs is not None:
        inputs += [cur, prev]
        pre_activations += [za, zb]
    for i in range(2, 8):
        z = dense(i, x, buffer(("pre", i), weights[i].shape[-1]))
        if inputs is not None:
            inputs.append(x)
            pre_activations.append(z)
        x = _activate(_ACTIVATIONS[i], z, buffer(("input", i + 1), z.shape[-1]))
    if inputs is not None:
        inputs.append(x)
    # softmax in place over the logits
    probs = dense(8, x, buffer("probs", weights[8].shape[-1]))
    col = buffer("column", 1)
    probs -= probs.max(axis=-1, keepdims=True, out=col)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True, out=col)
    return probs


def forward(
    params: PolicyParams,
    current: np.ndarray,
    previous: np.ndarray,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Action distribution for (current, previous) state pairs.

    Accepts single states (H,) or batches (B, H); the returned probabilities
    match the input arity, while the trace always stores 2-D arrays. Both
    live in `workspace` (a fresh one when omitted).
    """
    cur, prev = _state_rows(params.h, current, previous)
    ws = Workspace() if workspace is None else workspace
    layer_inputs: list[np.ndarray] = []
    pre_activations: list[np.ndarray] = []
    probs = _layers(
        params.weights, params.biases, cur, prev, ws, layer_inputs, pre_activations
    )
    trace = ForwardTrace(
        current=cur,
        previous=prev,
        layer_inputs=layer_inputs,
        pre_activations=pre_activations,
        probs=probs,
    )
    out = probs[0] if np.asarray(current).ndim == 1 else probs
    return out, trace


def sample_action(distribution: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw over the canonical action order."""
    return int(sample_index(distribution, rng.random()))


def loss_value(
    probs: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    variant: str = "two_sided",
    workspace: Workspace | None = None,
) -> float:
    """Weighted logarithmic loss, summed over the batch.

    two_sided: every action's probability enters (chosen via log p, the rest
    via log(1-p)), so a positive weight pushes unchosen probabilities down.
    chosen_only: classic score-function form, -w log p_chosen.
    Intermediates go to `workspace` (a fresh one when omitted).
    """
    ws = Workspace() if workspace is None else workspace
    p2 = np.atleast_2d(probs)
    rows = p2.shape[:1]
    p = np.clip(p2, PROB_EPS, 1.0 - PROB_EPS, out=ws.array("clipped", p2.shape))
    y = np.atleast_2d(targets)
    w = np.atleast_1d(weights)
    terms = ws.array(("scratch", 0), p.shape)
    if variant == "two_sided":
        # y log p + (1 - y) log(1 - p); the second product goes first, so
        # two scratch buffers suffice
        other = ws.array(("scratch", 1), p.shape)
        np.log(np.subtract(1.0, p, out=other), out=other)
        other *= np.subtract(1.0, y, out=terms)
        np.multiply(y, np.log(p, out=terms), out=terms)
        terms += other
    elif variant == "chosen_only":
        np.multiply(y, np.log(p, out=terms), out=terms)
    else:
        raise PreconditionError(f"unknown loss variant {variant!r}")
    per_unit = terms.sum(axis=1, out=ws.array("per_row", rows))
    np.negative(per_unit, out=per_unit)
    return float(np.multiply(w, per_unit, out=per_unit).sum())


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def gradients(
    params: PolicyParams,
    trace: ForwardTrace,
    targets: np.ndarray,
    weights: np.ndarray | float,
    variant: str = "two_sided",
    workspace: Workspace | None = None,
) -> Gradients:
    """Analytic gradient of the weighted log loss, summed over the batch.

    targets: one-hot rows (B, J); weights: per-row scalars (or one scalar).
    Intermediates go to `workspace` (a fresh one when omitted); it may be the
    one that holds `trace`, whose buffers this function only reads.
    """
    ws = Workspace() if workspace is None else workspace
    p_raw = trace.probs
    batch = p_raw.shape[0]
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), (batch,))
    p = np.clip(p_raw, PROB_EPS, 1.0 - PROB_EPS, out=ws.array("clipped", p_raw.shape))
    if not (p.min() > 0.0 and p.max() < 1.0):  # False on NaN as well
        raise NumericError("probabilities escaped the epsilon guard")

    # dL/dp per unit, then through the softmax jacobian:
    # dL/dz_j = p_j * (g_j - sum_k g_k p_k)
    # The scratch buffers alternate: layer i's upstream goes to ("scratch",
    # i % 2) while its delta sits in the other one.
    g = ws.array(("scratch", 1), p.shape)
    other = ws.array(("scratch", 0), p.shape)
    if variant == "two_sided":
        # -(y / p) + (1 - y) / (1 - p); the second quotient goes first, so
        # two scratch buffers suffice
        np.subtract(1.0, p, out=g)
        np.divide(np.subtract(1.0, y, out=other), g, out=other)
        np.negative(np.divide(y, p, out=g), out=g)
        g += other
    elif variant == "chosen_only":
        np.negative(np.divide(y, p, out=g), out=g)
    else:
        raise PreconditionError(f"unknown loss variant {variant!r}")
    g *= w[:, None]
    np.multiply(g, p_raw, out=other)
    g -= other.sum(axis=1, keepdims=True, out=ws.array("column", (batch, 1)))
    delta = np.multiply(p_raw, g, out=g)

    grad_w: list = [None] * len(params.weights)
    grad_b: list = [None] * len(params.biases)

    for i in range(8, 1, -1):
        x = trace.layer_inputs[i]
        grad_w[i] = x.T @ delta
        grad_b[i] = delta.sum(axis=0)
        upstream = np.matmul(
            delta, params.weights[i].T,
            out=ws.array(("scratch", i % 2), (batch, params.weights[i].shape[0])),
        )
        below = i - 1
        if below == 1:
            break
        z_below = trace.pre_activations[below]
        mask = ws.array("mask", z_below.shape, bool)
        act = _ACTIVATIONS[below]
        # delta = upstream * activation'(z_below), in place
        if act == "leaky":
            np.less_equal(z_below, 0.0, out=mask)
            np.multiply(upstream, LEAKY_SLOPE, out=upstream, where=mask)
        elif act == "relu":
            np.multiply(upstream, np.greater(z_below, 0.0, out=mask), out=upstream)
        else:
            raise AssertionError(act)
        delta = upstream

    # upstream now spans the concatenated analyzer outputs (both linear)
    w_in = params.width_in
    da, db = upstream[:, :w_in], upstream[:, w_in:]
    grad_w[0] = trace.current.T @ da
    grad_b[0] = da.sum(axis=0)
    grad_w[1] = trace.previous.T @ db
    grad_b[1] = db.sum(axis=0)
    return Gradients(weights=grad_w, biases=grad_b)


def save_checkpoint(
    params: PolicyParams, path, seed: int | None = None, config: dict | None = None
) -> None:
    """Bit-exact JSON checkpoint (floats survive the repr round trip).

    `config` is an optional resolved-configuration mapping stored verbatim so
    the file records how it was produced.
    """
    payload = {
        "widths": {
            "h": params.h,
            "j": params.j,
            "width_in": params.width_in,
            "width_mid": params.width_mid,
        },
        "seed": seed,
        "config": config,
        "layers": [
            {
                "name": _LAYER_NAMES[i],
                "weights": params.weights[i].tolist(),
                "bias": params.biases[i].tolist(),
            }
            for i in range(9)
        ],
    }
    # serialize first, so a payload json cannot encode leaves no partial file
    text = json.dumps(payload, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_checkpoint(path) -> tuple[PolicyParams, int | None]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    widths = payload["widths"]
    names = [layer["name"] for layer in payload["layers"]]
    if tuple(names) != _LAYER_NAMES:
        raise PreconditionError(f"unexpected layer order {names}")
    params = PolicyParams(
        h=widths["h"],
        j=widths["j"],
        width_in=widths["width_in"],
        width_mid=widths["width_mid"],
        weights=[np.array(layer["weights"], dtype=np.float64) for layer in payload["layers"]],
        biases=[np.array(layer["bias"], dtype=np.float64) for layer in payload["layers"]],
    )
    expected = layer_dims(params.h, params.j, params.width_in, params.width_mid)
    for wt, dims in zip(params.weights, expected):
        if wt.shape != dims:
            raise PreconditionError(f"checkpoint weight shape {wt.shape} != {dims}")
    return params, payload.get("seed")


def policy_fn(*params: PolicyParams):
    """Trace-free rollout closure: (current, previous) batches -> probabilities.

    With one net this is `forward` without the trace. With P nets the B rows
    are P consecutive blocks of B/P rows, block k played by net k, and every
    layer is one batched matmul over the stacked weights.
    """
    first, nets = params[0], len(params)
    weights = [np.stack(w) for w in zip(*(p.weights for p in params))]
    biases = [np.stack(b)[:, None, :] for b in zip(*(p.biases for p in params))]

    def fn(cur: np.ndarray, prev: np.ndarray) -> np.ndarray:
        c, p = _state_rows(first.h, cur, prev)
        if c.shape[0] % nets:
            raise PreconditionError(f"{c.shape[0]} rows do not split into {nets} nets")
        blocks = (nets, c.shape[0] // nets, first.h)
        probs = _layers(weights, biases, c.reshape(blocks), p.reshape(blocks))
        probs = probs.reshape(-1, first.j)
        return probs[0] if np.asarray(cur).ndim == 1 else probs

    return fn
