"""Two-input feed-forward policy network, plain numpy.

Topology: two linear analyzer layers (one per input state) whose outputs are
concatenated, three dense layers with LeakyReLU (slope 0.2), three dense
layers at double width with ReLU, and a softmax output over the J actions.
`forward` runs the layer stack and returns a trace of its layer inputs, from
which `gradients` runs the analytic backward pass without any autodiff
framework. `forward` also takes P stacked nets (`stack`), one batched matmul
per layer serving every net's block of rows at once; rollouts use this, one
call per step for all players (`policy_fn`).

A net's parameters are one float64 vector (`PolicyParams`) whose per-layer
views the layers use. Gradients share its layout, so an update is
whole-vector arithmetic and P stacked nets are one (P, size) array.
Checkpoints stay per layer.

A rollout step evaluates exactly the rows that the following update will
differentiate, with the same weights, so a training run keeps what the steps
compute instead of running the pass again, and the update differentiates the
very probabilities the rollout sampled from. The run owns a `RolloutRecord`
for its whole life: layer inputs 2-8 and the probabilities of every step,
for every net. A record slot holds one step, and it is step-major (step,
net, round) because the rollout writes a whole step at once: each layer's
result lands in one contiguous block, and no step allocates. The update
reads one net in (round, step) row order, the order `forward` over the
batch would use, so it copies one layer at a time into that order and every
reduction sums in the same order as over a fresh pass. The copies then equal
a fresh pass's arrays byte for byte wherever the matrix kernel gives a row
the same bits whatever the row count. OpenBLAS's Haswell kernel does with
the default 16 rounds; with 3 or 5 rounds it gives some rows of the 27-wide
output layer other last bits, and there the update follows the
probabilities that were sampled, not those of a fresh pass.
The backward pass needs no pre-activations: the sign of a layer's
activation output decides its derivative.

An update pass (`forward`, `loss_value`, `gradients`) works on a few hundred
rows, and its row-sized intermediates come to megabytes. Freed after every
call, that memory goes back to the operating system and is faulted in again
on the next one, which costs more than the arithmetic. So these functions
write every row-sized intermediate into a `Workspace` that the caller owns
and passes to each call; `train_pair` keeps one per run. Called without one,
`loss_value` and `gradients` make a fresh workspace and `forward` allocates
fresh arrays, running the same arithmetic.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

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


def _size(dims) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in dims)


@dataclass
class PolicyParams:
    """All nine layers' parameters in one float64 vector `flat`, with the
    widths that shaped them.

    `flat` holds the layers in order, each as its weights (row-major) and
    then its bias; `weights[i]` and `biases[i]` are views of it, of shape
    (fan_in, fan_out) and (fan_out,). P nets stacked into one (`stack`)
    have a (P, size) `flat`, and their views are (P, fan_in, fan_out) and
    (P, 1, fan_out).
    """

    h: int
    j: int
    width_in: int
    width_mid: int
    flat: np.ndarray = field(repr=False)
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        dims = layer_dims(self.h, self.j, self.width_in, self.width_mid)
        if self.flat.ndim not in (1, 2) or self.flat.shape[-1] != _size(dims):
            raise PreconditionError(
                f"parameter vector of shape {self.flat.shape} does not hold the "
                f"{_size(dims)} parameters of widths {dims}"
            )
        lead = self.flat.shape[:-1]
        # stacked biases get a row axis, to broadcast over each net's rows
        bias_lead = lead + (1,) if lead else ()
        self.weights, self.biases = [], []
        offset = 0
        for fan_in, fan_out in dims:
            end = offset + fan_in * fan_out
            self.weights.append(self.flat[..., offset:end].reshape(lead + (fan_in, fan_out)))
            offset = end + fan_out
            self.biases.append(self.flat[..., end:offset].reshape(bias_lead + (fan_out,)))


def init_policy(
    h: int, j: int, width_in: int, width_mid: int, rng: np.random.Generator
) -> PolicyParams:
    """Uniform(-limit, limit) weights with limit = sqrt(6/(fan_in+fan_out)); zero biases."""
    dims = layer_dims(h, j, width_in, width_mid)
    params = PolicyParams(
        h=h, j=j, width_in=width_in, width_mid=width_mid, flat=np.zeros(_size(dims))
    )
    for w, (fan_in, fan_out) in zip(params.weights, dims):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return params


def stack(nets) -> PolicyParams:
    """P nets of one shape as one: a (P, size) `flat`, whose views are
    (P, fan_in, fan_out) weights and (P, 1, fan_out) biases, for `forward`
    over P blocks of rows."""
    return replace(nets[0], flat=np.stack([p.flat for p in nets]))


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
    """Per-layer inputs of one forward pass (2-D batch) and, from `forward`,
    its pre-activations.

    `layer_inputs` has all nine layers; `pre_activations` stops at layer 7,
    because the logits become the probabilities in place. With a shared
    workspace the arrays are views of its buffers. With P stacked nets each
    per-layer array is P blocks, (P, B/P, width), and `probs` is (B, J). A
    trace read from a `RolloutRecord` has no pre-activations, and its
    layer inputs are copied on each read (`RolloutRecord.trace`).
    """

    current: np.ndarray
    previous: np.ndarray
    layer_inputs: Sequence[np.ndarray]
    pre_activations: list[np.ndarray] | None
    probs: np.ndarray


def _in_row_order(steps_first: np.ndarray, workspace: Workspace, name) -> np.ndarray:
    """A (steps, rounds, width) block copied into `workspace` as
    (rounds * steps, width) rows in (round, step) order."""
    steps, rounds, width = steps_first.shape
    rows = workspace.array(name, (rounds * steps, width))
    np.copyto(rows.reshape(rounds, steps, width), steps_first.swapaxes(0, 1))
    return rows


class _RecordedInputs(Sequence):
    """Layer inputs of one recorded net: the states for layers 0 and 1, and
    for layers 2-8 a copy in (round, step) row order, made on each read into
    one workspace buffer that the next read overwrites."""

    def __init__(self, record, net, current, previous, workspace):
        self._record, self._net, self._ws = record, net, workspace
        self._states = (current, previous)

    def __len__(self) -> int:
        return 9

    def __getitem__(self, i: int) -> np.ndarray:
        if not 0 <= i < 9:
            raise IndexError(i)
        if i < 2:
            return self._states[i]
        block = self._record.arrays[i - 2][:, self._net]
        return _in_row_order(block, self._ws, "recorded_input")


class RolloutRecord:
    """Layer inputs 2-8 and probabilities of every step of a stacked rollout.

    For rollouts of `steps` policy calls (N - 1 for N states),
    `arrays[i - 2][n, k, m]` is layer i's input at step n for round m of net
    k, and `arrays[7]` holds the probabilities the same way. `slots[n]` is
    step n's eight contiguous (P, M, width) blocks, which that step's
    `forward` writes in place (see `policy_fn`). The caller that runs the
    rollouts and the updates owns the record; `train_pair` allocates one per
    run and every epoch's rollout overwrites it.
    """

    def __init__(self, params: PolicyParams, nets: int, rounds: int, steps: int):
        dims = layer_dims(params.h, params.j, params.width_in, params.width_mid)
        widths = [fan_in for fan_in, _ in dims[2:]] + [params.j]
        self.arrays = [np.empty((steps, nets, rounds, width)) for width in widths]
        self.slots = [list(blocks) for blocks in zip(*self.arrays)]

    def trace(
        self, net: int, current: np.ndarray, previous: np.ndarray, workspace: Workspace
    ) -> ForwardTrace:
        """Net `net`'s recorded pass as a trace over `current` and
        `previous`, its rows in (round, step) order, as `forward` lays them
        out. Valid only while the net keeps the weights it rolled out with.
        The probabilities are copied into `workspace`; the layer inputs are
        copied one at a time as `gradients` reads them, so only one layer's
        copy exists at a time."""
        probs = _in_row_order(self.arrays[-1][:, net], workspace, "probs")
        inputs = _RecordedInputs(self, net, current, previous, workspace)
        return ForwardTrace(current, previous, inputs, None, probs)


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
    weights, biases, cur, prev, ws=None, inputs=None, pre_activations=None, slot=None
) -> np.ndarray:
    """The nine-layer stack, returning action probabilities.

    Runs one net's (fan_in, fan_out) weights over (B, H) rows, or P stacked
    nets' (P, fan_in, fan_out) weights and (P, 1, fan_out) biases over
    (P, B, H) blocks. With a workspace `ws` every intermediate lands in its
    buffers; without one each is a fresh array. A `RolloutRecord` slot, when
    given, takes layer inputs 2-8 and the probabilities instead.
    When `inputs` and `pre_activations` are lists, the layer inputs and the
    pre-activations of layers 0-7 are appended to them.
    """
    lead = cur.shape[:-1]

    def buffer(name, width, dtype=np.float64):
        # None lets each numpy call allocate its own result
        return None if ws is None else ws.array(name, lead + (width,), dtype)

    def landing(i, width):
        # where layer i's input goes; i == 9 stands for the probabilities
        if slot is not None:
            return slot[i - 2]
        return buffer(("input", i) if i < 9 else "probs", width)

    def dense(i: int, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        z = np.matmul(x, weights[i], out=out)
        z += biases[i]
        if not np.isfinite(z, out=buffer("mask", z.shape[-1], bool)).all():
            raise NumericError(f"non-finite activation in layer {i} ({_LAYER_NAMES[i]})")
        return z

    # the two linear analyzers write the halves of layer 2's input
    half = weights[0].shape[-1]
    x = landing(2, 2 * half)
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
        x = _activate(_ACTIVATIONS[i], z, landing(i + 1, z.shape[-1]))
    if inputs is not None:
        inputs.append(x)
    # softmax in place over the logits
    probs = dense(8, x, landing(9, weights[8].shape[-1]))
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
    slot: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Action distribution for (current, previous) state pairs.

    Accepts single states (H,) or batches (B, H); the returned probabilities
    match the input arity, while the trace stores 2-D arrays. With P nets
    stacked into `params` (`stack`), the B rows are P consecutive blocks of
    B/P rows, block k played by net k, and the trace's per-layer arrays are
    (P, B/P, width). Intermediates live in `workspace`, or in fresh arrays
    when it is omitted; a `RolloutRecord` slot takes layer inputs 2-8 and
    the probabilities.
    """
    cur, prev = _state_rows(params.h, current, previous)
    blocks_cur, blocks_prev = cur, prev
    if params.flat.ndim == 2:
        nets = params.flat.shape[0]
        if cur.shape[0] % nets:
            raise PreconditionError(f"{cur.shape[0]} rows do not split into {nets} nets")
        blocks = (nets, cur.shape[0] // nets, params.h)
        blocks_cur, blocks_prev = cur.reshape(blocks), prev.reshape(blocks)
    layer_inputs: list[np.ndarray] = []
    pre_activations: list[np.ndarray] = []
    probs = _layers(
        params.weights, params.biases, blocks_cur, blocks_prev, workspace,
        layer_inputs, pre_activations, slot,
    ).reshape(-1, params.j)
    trace = ForwardTrace(
        current=cur,
        previous=prev,
        layer_inputs=layer_inputs,
        pre_activations=pre_activations,
        probs=probs,
    )
    return (probs[0] if np.asarray(current).ndim == 1 else probs), trace


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


def gradients(
    params: PolicyParams,
    trace: ForwardTrace,
    targets: np.ndarray,
    weights: np.ndarray | float,
    variant: str = "two_sided",
    workspace: Workspace | None = None,
) -> PolicyParams:
    """Analytic gradient of the weighted log loss, summed over the batch,
    laid out as `params` are: a fresh vector each call, so a gradient stays
    valid after the next one.

    targets: one-hot rows (B, J); weights: per-row scalars (or one scalar).
    Intermediates go to `workspace` (a fresh one when omitted); it may be the
    one that holds `trace`, whose buffers this function only reads. It reads
    each of `trace.layer_inputs` 2-8 once, from layer 8 down.
    """
    ws = Workspace() if workspace is None else workspace
    p_raw = trace.probs
    batch = p_raw.shape[0]
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), (batch,))
    p = np.clip(p_raw, PROB_EPS, 1.0 - PROB_EPS, out=ws.array("clipped", p_raw.shape))
    if not (p.min() > 0.0 and p.max() < 1.0):  # False on NaN as well
        raise NumericError("probabilities escaped the epsilon guard")

    # both scratch buffers at the widest layer's size before any view of them
    # is live, so a workspace's first update never holds a buffer and its
    # grown copy at once
    widest = max(p.shape[1], max(layer.shape[0] for layer in params.weights[2:]))
    for k in (0, 1):
        ws.array(("scratch", k), (batch, widest))

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

    grads = replace(params, flat=np.empty_like(params.flat))
    for i in range(8, 1, -1):
        # layer i's input is the activation output of the layer below; read
        # once, it serves both this layer's weight gradient and the mask
        x = trace.layer_inputs[i]
        np.matmul(x.T, delta, out=grads.weights[i])
        delta.sum(axis=0, out=grads.biases[i])
        upstream = np.matmul(
            delta, params.weights[i].T,
            out=ws.array(("scratch", i % 2), (batch, params.weights[i].shape[0])),
        )
        below = i - 1
        if below == 1:
            break
        act = _ACTIVATIONS[below]
        # delta = upstream * activation'(z_below), in place. The sign of the
        # activation's output decides it: for both, act(z) > 0 iff z > 0
        rising = np.greater(x, 0.0, out=ws.array("mask", x.shape, bool))
        if act == "leaky":
            # 1 where rising, else the slope: a multiply by this exact factor
            # gives the bits of a masked multiply, which costs about four
            # times as much. The spent delta's buffer holds the factor.
            factor = ws.array(("scratch", (i + 1) % 2), x.shape)
            upstream *= np.maximum(rising, LEAKY_SLOPE, out=factor)
        elif act == "relu":
            upstream *= rising
        else:
            raise AssertionError(act)
        delta = upstream

    # upstream now spans the concatenated analyzer outputs (both linear)
    w_in = params.width_in
    da, db = upstream[:, :w_in], upstream[:, w_in:]
    np.matmul(trace.current.T, da, out=grads.weights[0])
    da.sum(axis=0, out=grads.biases[0])
    np.matmul(trace.previous.T, db, out=grads.weights[1])
    db.sum(axis=0, out=grads.biases[1])
    return grads


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
    dims = layer_dims(widths["h"], widths["j"], widths["width_in"], widths["width_mid"])
    # a wrong shape would shift every later layer's place in the flat vector
    arrays = []
    for layer, (fan_in, fan_out) in zip(payload["layers"], dims):
        for key, shape in (("weights", (fan_in, fan_out)), ("bias", (fan_out,))):
            arr = np.array(layer[key], dtype=np.float64)
            if arr.shape != shape:
                raise PreconditionError(
                    f"checkpoint {key} shape {arr.shape} != {shape} in {layer['name']}"
                )
            arrays.append(arr.ravel())
    params = PolicyParams(
        h=widths["h"],
        j=widths["j"],
        width_in=widths["width_in"],
        width_mid=widths["width_mid"],
        flat=np.concatenate(arrays),
    )
    return params, payload.get("seed")


def policy_fn(*params: PolicyParams, record: RolloutRecord | None = None):
    """Rollout closure: (current, previous) batches -> probabilities.

    Each call is one `forward` over the nets' stacked weights: the B rows
    are P consecutive blocks of B/P rows, block k played by net k. With a
    `record`, call n writes its layer inputs and probabilities into
    `record.slots[n]`, so the closure serves one rollout.
    """
    stacked = stack(params)
    calls = itertools.count()

    def fn(cur: np.ndarray, prev: np.ndarray) -> np.ndarray:
        slot = None if record is None else record.slots[next(calls)]
        return forward(stacked, cur, prev, None, slot)[0]

    return fn
