"""Two-input feed-forward policy network, plain numpy.

Topology: two linear analyzer layers (one per input state) whose outputs are
concatenated, three dense layers with LeakyReLU (slope 0.2), three dense
layers at double width with ReLU, and a softmax output over the J actions.

A net's parameters are one float64 vector (`PolicyParams`) whose per-layer
views the layers use. Gradients share its layout, so an update is
whole-vector arithmetic and P stacked nets are one (P, size) array
(`stack`). Checkpoints stay per layer.

`forward` is the one pass the package runs: P stacked nets over P blocks of
(current, previous) state rows, one batched matmul per layer serving every
net's block at once, written into a slot of a `RolloutRecord`. A rollout
calls it once per step for all players (`policy_fn`). Each step evaluates
exactly the rows that the following update will differentiate, with the
same weights, so a training run keeps what the steps compute instead of
running the pass again, and the update differentiates the very
probabilities the rollout sampled from: `gradients` runs the analytic
backward pass of the two-sided weighted log loss (`loss_value`) over the
record's trace of one net (`RolloutRecord.trace`), without any autodiff
framework. Both take each row's target as the index of its chosen action,
(B,), not as a one-hot row: the loss needs log p only at that entry and
log(1-p) at the others, and gives the bits of the one-hot form, whose other
products are signed zeros. The backward pass needs no pre-activations: the
sign of a layer's activation output decides its derivative. Its bias
gradients sum rows in order with einsum, which gives `sum(axis=0)`'s bits
at less cost (`_sum_rows`).

The record also owns the `Workspace` its updates write into, so a training
run's whole arena is one object that the caller owns (`train_pair` keeps
one across runs of the same shapes, see `celab.training`).
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError, PreconditionError

LEAKY_SLOPE = 0.2
PROB_EPS = 1e-12
# a forward pass's scalar operands as 0-d arrays: numpy converts a Python
# float operand on every call, about 0.3 us of a 1-2 us call on a rollout step
_SLOPE, _ZERO = np.array(LEAKY_SLOPE), np.array(0.0)

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
    """Reusable buffers for the row-sized intermediates of an update's loss
    and backward pass and of its copies out of a `RolloutRecord`.

    These work on a few hundred rows, and their intermediates come to
    megabytes. Freed after every call, that memory goes back to the
    operating system and is faulted in again on the next one, which costs
    more than the arithmetic; so they go here instead, into buffers the
    caller keeps (a record owns the one its updates use).

    Each buffer has a name and is reshaped to whatever shape its user asks
    for, growing when a request is larger than what it holds, so one
    workspace serves any batch size and any net. A request for a name ends
    the use of what the buffer held before: a trace that
    `RolloutRecord.trace` returned stays valid only until the next call
    given the record's workspace. The workspace keeps no reference to any
    net.
    """

    def __init__(self):
        self._flat: dict = {}

    def array(self, name, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


@dataclass
class ForwardTrace:
    """One net's pass over (B, H) rows as `gradients` reads it: the inputs
    of all nine layers, from the current and previous states (layers 0 and
    1) on, and its (B, J) probabilities. `RolloutRecord.trace` builds one,
    whose layer inputs are copied on each read."""

    layer_inputs: Sequence[np.ndarray]
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
    one buffer of the record's workspace that the next read overwrites."""

    def __init__(self, record, net, current, previous):
        self._record, self._net = record, net
        self._states = (current, previous)

    def __len__(self) -> int:
        return 9

    def __getitem__(self, i: int) -> np.ndarray:
        if not 0 <= i < 9:
            raise IndexError(i)
        if i < 2:
            return self._states[i]
        block = self._record.arrays[i - 2][:, self._net]
        return _in_row_order(block, self._record.workspace, "recorded_input")


class RolloutRecord:
    """The arena of a stacked rollout and of the updates that read it: layer
    inputs 2-8 and probabilities of every step, for every net, and the
    `workspace` of the updates.

    For rollouts of `steps` policy calls (N - 1 for N states),
    `arrays[i - 2][n, k, m]` is layer i's input at step n for round m of net
    k, and `arrays[7]` holds the probabilities the same way. The rollout
    passes each policy call its step n, and that step's `forward` writes
    into `slots[n]` (see `policy_fn`), over what the last rollout left. The
    record is step-major (step, net, round) because the rollout writes a
    whole step at once: each layer's result lands in one contiguous block,
    and no step allocates.

    A slot is a list of what a pass writes and the views it needs, made here
    once so that a step's `forward` makes only its numpy calls (per layer
    one matmul and one bias add, the activations, one check and the
    softmax):
    - `[0:8]`: step n's eight (P, M, width) blocks, layer inputs 2-8 and the
      probabilities;
    - `[8]`: the pre-activation block of layers 2-8, `[9:16]` its per-layer
      (P, M, fan_out) views, and `[16]` the zero vector of the finite check
      (`_check_finite`). Every slot shares these, and every step overwrites
      the block, so it holds the last step's values only, and nothing reads
      it after the step's check;
    - `[17:19]`: the two halves of layer 2's input, which the analyzers
      write, and `[19]`: the probabilities as (P * M, J) rows.

    An update reads one net in (round, step) row order (`trace`): it copies
    one layer at a time into that order, so every reduction sums in the
    same order as over one pass over the whole batch. The copies then equal
    such a pass's arrays byte for byte wherever the matrix kernel gives a
    row the same bits whatever the row count. OpenBLAS's Haswell kernel
    does with the default 16 rounds; with 3 or 5 rounds it gives some rows
    of the 27-wide output layer other last bits, and there the update
    follows the probabilities that were sampled, not those of a
    whole-batch pass.
    """

    def __init__(self, params: PolicyParams, nets: int, rounds: int, steps: int):
        dims = layer_dims(params.h, params.j, params.width_in, params.width_mid)[2:]
        lead = (nets, rounds)
        widths = [fan_in for fan_in, _ in dims] + [params.j]
        self.arrays = [np.empty((steps, *lead, width)) for width in widths]
        fan_outs = [fan_out for _, fan_out in dims]
        block = np.empty(math.prod(lead) * sum(fan_outs))
        parts = np.split(block, np.cumsum([math.prod(lead) * f for f in fan_outs[:-1]]))
        pre = [block, *(p.reshape(lead + (f,)) for p, f in zip(parts, fan_outs)),
               np.zeros(block.size)]
        half = params.width_in
        self.slots = [
            [*blocks, *pre, blocks[0][..., :half], blocks[0][..., half:],
             blocks[7].reshape(-1, params.j)]
            for blocks in zip(*self.arrays)
        ]
        self.workspace = Workspace()

    def trace(self, net: int, current: np.ndarray, previous: np.ndarray) -> ForwardTrace:
        """Net `net`'s recorded pass as a trace over `current` and
        `previous`, its rows in (round, step) order. Valid only while the
        net keeps the weights it rolled out with. The probabilities are
        copied into the record's workspace; the layer inputs are copied one
        at a time as `gradients` reads them, so only one layer's copy exists
        at a time."""
        probs = _in_row_order(self.arrays[-1][:, net], self.workspace, "probs")
        return ForwardTrace(_RecordedInputs(self, net, current, previous), probs)


def _leaky(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """LeakyReLU as max(z, 0.2 z), which equals np.where(z > 0, z, 0.2 z)
    bit for bit on every finite z, signed zeros and subnormals included."""
    scaled = np.multiply(z, _SLOPE, out=out)
    return np.maximum(z, scaled, out=scaled)


def _state_rows(h: int, current, previous) -> tuple[np.ndarray, np.ndarray]:
    cur = np.asarray(current, dtype=np.float64)
    prev = np.asarray(previous, dtype=np.float64)
    if cur.ndim != 2 or cur.shape != prev.shape or cur.shape[1] != h:
        raise PreconditionError(
            f"states {cur.shape}/{prev.shape} are not matching (B, H={h}) rows"
        )
    return cur, prev


def _check_finite(slot) -> None:
    """Raise NumericError if a pass's pre-activation block `slot[8]` holds a
    non-finite value, naming the first layer whose pre-activation does.

    A pass checks once, over the whole block, after the logits. In IEEE
    arithmetic a non-finite input reaches every output of its row in the
    next matmul (inf * 0 and inf - inf are NaN), and the linear and
    LeakyReLU layers (0-4) keep it, so a non-finite analyzer output reaches
    pre-activation 2. Only ReLU can erase one (max(-inf, 0) = 0), and the
    block keeps each ReLU layer's value from before its activation. The
    first layer named is the first of layers 0-4 whose output holds a
    non-finite value (the analyzers wrote the halves `slot[17:19]`), else
    the first of pre-activations 5-8 (`slot[12:16]`) that does: layers 0-4
    are non-finite exactly where their pre-activations are.

    The test is one dot of the block with the zero vector `slot[16]`: 0 * x
    is a signed zero for finite x and NaN for an infinite or NaN x, and a
    sum of signed zeros is zero, so the dot is finite exactly when every
    entry is."""
    if math.isfinite(np.dot(slot[8], slot[16])):
        return
    scanned = (*slot[17:19], *slot[1:4], *slot[12:16])
    first = next(
        i for i, a in enumerate(scanned) if np.count_nonzero(np.isfinite(a)) != a.size
    )
    raise NumericError(f"non-finite activation in layer {first} ({_LAYER_NAMES[first]})")


def _bias_operands(biases) -> list[np.ndarray]:
    """The eight bias operands of a pass, from a net's nine per-layer
    biases: the two analyzers' side by side as one (..., 2 * width_in)
    array, which one add puts onto layer 2's whole input once both
    analyzers have written their halves, then the biases of layers 2-8.

    `policy_fn` tiles these once per rollout into contiguous (P, M, fan_out)
    copies, which each step adds in place of broadcast (P, 1, fan_out)
    views of `flat`: a broadcast add costs about twice as much, and two
    strided adds into the halves of layer 2's input about six times as much
    as the one contiguous add. Each element gets the same bias added, so
    the bytes are the same. The copies are not views of `flat`."""
    return [np.concatenate(biases[:2], axis=-1), *biases[2:]]


@np.errstate(over="ignore", invalid="ignore")
def forward(
    params: PolicyParams,
    current: np.ndarray,
    previous: np.ndarray,
    slot: list[np.ndarray],
    biases: list[np.ndarray],
) -> np.ndarray:
    """Action distributions (P * M, J) of the P nets stacked into `params`
    (`stack`) over (P * M, H) rows of (current, previous) state pairs: P
    consecutive blocks of M rows, block k played by net k. Layer inputs
    2-8, pre-activations 2-8 and the probabilities land in `slot`, a
    `RolloutRecord` slot of P nets and M rounds, and the probabilities come
    back as its (P * M, J) view. `biases` are the caller's bias operands
    (`_bias_operands`), shaped to broadcast over the (P, M, fan_out) blocks.

    Raises NumericError naming the first layer whose pre-activation is
    non-finite (`_check_finite`). The decorator's `np.errstate` ignores
    overflow and invalid values: a non-finite value passes through the
    matmuls of every layer before the one check, and would warn there, so
    a caller without an errstate of its own sees NumericError, not a
    RuntimeWarning. The decorator sets the state in about half the time of
    a `with` block built on each call. The softmax runs only on finite
    logits.
    """
    cur, prev = _state_rows(params.h, current, previous)
    if params.flat.ndim != 2:
        raise PreconditionError("forward runs nets joined by `stack`, not one net's parameters")
    nets = params.flat.shape[0]
    if cur.shape[0] % nets:
        raise PreconditionError(f"{cur.shape[0]} rows do not split into {nets} nets")
    blocks = (nets, cur.shape[0] // nets, params.h)
    weights = params.weights
    # the two analyzers, linear, write the halves of layer 2's input
    np.matmul(cur.reshape(blocks), weights[0], out=slot[17])
    np.matmul(prev.reshape(blocks), weights[1], out=slot[18])
    x = slot[0]
    x += biases[0]
    for i in range(2, 8):  # LeakyReLU at 2-4, ReLU at 5-7
        z = np.matmul(x, weights[i], out=slot[i + 7])
        z += biases[i - 1]
        x = _leaky(z, slot[i - 1]) if i < 5 else np.maximum(z, _ZERO, out=slot[i - 1])
    z = np.matmul(x, weights[8], out=slot[15])
    z += biases[7]
    _check_finite(slot)
    # softmax over the logits
    probs = np.subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True), out=slot[7])
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    return slot[19]


def _clipped(probs: np.ndarray, ws: Workspace) -> np.ndarray:
    """`probs` clipped to [PROB_EPS, 1 - PROB_EPS], in `ws`; the bits of
    `np.clip`, which costs more."""
    p = np.maximum(probs, PROB_EPS, out=ws.array("clipped", probs.shape))
    return np.minimum(p, 1.0 - PROB_EPS, out=p)


def _chosen_entries(chosen, shape: tuple) -> np.ndarray:
    """Flat indices into C-ordered (B, J) rows of each row's chosen action,
    for (B,) action indices `chosen`."""
    batch, j = shape
    c = np.asarray(chosen)
    if c.shape != (batch,) or c.dtype.kind not in "iu" or not (c.min() >= 0 and c.max() < j):
        raise PreconditionError(
            f"chosen actions {c.shape} {c.dtype} are not {batch} indices into {j} actions"
        )
    return np.add(np.arange(0, batch * j, j), c, dtype=np.intp)


def loss_value(
    probs: np.ndarray,
    chosen: np.ndarray,
    weights: np.ndarray,
    workspace: Workspace,
) -> float:
    """Two-sided weighted logarithmic loss over (B, J) probabilities, summed
    over the batch: every action's probability enters (the chosen one via
    log p, the rest via log(1-p)), so a positive weight pushes unchosen
    probabilities down. `chosen` holds each row's action index, (B,).
    Intermediates go to `workspace`.
    """
    p = _clipped(probs, workspace)
    at = _chosen_entries(chosen, p.shape)
    w = np.atleast_1d(weights)
    # log(1 - p) everywhere, then log p at the chosen entries: the bits of
    # y log p + (1 - y) log(1 - p) over one-hot rows y, whose other products
    # are signed zeros added to non-zero terms
    terms = workspace.array(("scratch", 0), p.shape)
    np.log(np.subtract(1.0, p, out=terms), out=terms)
    terms.put(at, np.log(p.take(at)))
    per_unit = terms.sum(axis=1, out=workspace.array("per_row", p.shape[:1]))
    np.negative(per_unit, out=per_unit)
    return float(np.multiply(w, per_unit, out=per_unit).sum())


def _sum_rows(delta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`delta.sum(axis=0, out=out)`, bit for bit: einsum adds the rows in
    order as that sum does, without its per-row reduce overhead."""
    if delta.shape[1] == 1:  # a 1-wide sum(axis=0) adds pairwise; einsum does not
        return delta.sum(axis=0, out=out)
    return np.einsum("ij->j", delta, out=out)


def gradients(
    params: PolicyParams,
    trace: ForwardTrace,
    chosen: np.ndarray,
    weights: np.ndarray | float,
    workspace: Workspace,
) -> PolicyParams:
    """Analytic gradient of `loss_value`'s loss, summed over the batch,
    laid out as `params` are: a fresh vector each call, so a gradient stays
    valid after the next one.

    chosen: each row's action index (B,); weights: per-row scalars (or one
    scalar). Intermediates go to `workspace`; it may be the record's
    workspace that holds `trace`, whose buffers this function only reads. It reads each of
    `trace.layer_inputs` once, from layer 8 down.
    """
    p_raw = trace.probs
    batch = p_raw.shape[0]
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), (batch,))
    p = _clipped(p_raw, workspace)
    at = _chosen_entries(chosen, p.shape)
    if not (p.min() > 0.0 and p.max() < 1.0):  # False on NaN as well
        raise NumericError("probabilities escaped the epsilon guard")

    # both scratch buffers at the widest layer's size before any view of them
    # is live, so a workspace's first update never holds a buffer and its
    # grown copy at once
    widest = max(p.shape[1], max(layer.shape[0] for layer in params.weights[2:]))
    for k in (0, 1):
        workspace.array(("scratch", k), (batch, widest))

    # dL/dp per unit, then through the softmax jacobian:
    # dL/dz_j = p_j * (g_j - sum_k g_k p_k)
    # The scratch buffers alternate: layer i's upstream goes to ("scratch",
    # i % 2) while its delta sits in the other one.
    g = workspace.array(("scratch", 1), p.shape)
    other = workspace.array(("scratch", 0), p.shape)
    # 1 / (1 - p) everywhere, then -(1 / p) at the chosen entries: the bits
    # of -(y / p) + (1 - y) / (1 - p) over one-hot rows y
    np.divide(1.0, np.subtract(1.0, p, out=g), out=g)
    picked = p.take(at)
    g.put(at, np.negative(np.divide(1.0, picked, out=picked), out=picked))
    g *= w[:, None]
    np.multiply(g, p_raw, out=other)
    g -= other.sum(axis=1, keepdims=True, out=workspace.array("column", (batch, 1)))
    delta = np.multiply(p_raw, g, out=g)

    grads = replace(params, flat=np.empty_like(params.flat))
    for i in range(8, 1, -1):
        # layer i's input is the activation output of the layer below; read
        # once, it serves both this layer's weight gradient and the mask
        x = trace.layer_inputs[i]
        np.matmul(x.T, delta, out=grads.weights[i])
        _sum_rows(delta, grads.biases[i])
        upstream = np.matmul(
            delta, params.weights[i].T,
            out=workspace.array(("scratch", i % 2), (batch, params.weights[i].shape[0])),
        )
        if i == 2:
            break
        # delta = upstream * activation'(z_below), in place. The sign of the
        # activation's output decides it: for both, act(z) > 0 iff z > 0
        rising = np.greater(x, 0.0, out=workspace.array("mask", x.shape, bool))
        if i <= 5:  # LeakyReLU below (layers 2-4)
            # 1 where rising, else the slope: a multiply by this exact factor
            # gives the bits of a masked multiply, which costs about four
            # times as much. The spent delta's buffer holds the factor.
            factor = workspace.array(("scratch", (i + 1) % 2), x.shape)
            upstream *= np.maximum(rising, LEAKY_SLOPE, out=factor)
        else:  # ReLU below (layers 5-7)
            upstream *= rising
        delta = upstream

    # upstream now spans the concatenated analyzer outputs (both linear)
    w_in = params.width_in
    da, db = upstream[:, :w_in], upstream[:, w_in:]
    np.matmul(trace.layer_inputs[0].T, da, out=grads.weights[0])
    _sum_rows(da, grads.biases[0])
    np.matmul(trace.layer_inputs[1].T, db, out=grads.weights[1])
    _sum_rows(db, grads.biases[1])
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


def _checkpoint_key(mapping, key: str, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise PreconditionError(f"checkpoint {where} has no {key!r}")
    return mapping[key]


def _checkpoint_array(value, shape: tuple, where: str) -> np.ndarray:
    """A checkpoint's nested list of numbers as a float64 array of `shape`;
    PreconditionError, naming `where`, for anything else or a non-finite
    value (a `null` would load as NaN, and so would a `NaN` token)."""
    try:
        arr = np.array(value)
    except ValueError:  # a ragged list
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":  # not bool, str or object
        raise PreconditionError(f"checkpoint {where} is not an array of numbers")
    if arr.shape != shape:
        raise PreconditionError(f"checkpoint {where} shape {arr.shape} != {shape}")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise PreconditionError(f"checkpoint {where} holds a non-finite value")
    return arr


def load_checkpoint(path) -> tuple[PolicyParams, int | None]:
    """The net and seed of a `save_checkpoint` file. Raises
    PreconditionError, naming the key or layer, on a file of another
    layout, wrong widths or shapes, or a weight that is not a finite
    number, and on a file that is not UTF-8 JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"cannot read checkpoint {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise PreconditionError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(payload, dict):
        raise PreconditionError(f"checkpoint is a JSON {type(payload).__name__}, not an object")
    widths = {
        key: _checkpoint_key(_checkpoint_key(payload, "widths", "file"), key, "widths")
        for key in ("h", "j", "width_in", "width_mid")
    }
    for key, value in widths.items():
        if not (isinstance(value, int) and not isinstance(value, bool) and value >= 1):
            raise PreconditionError(f"checkpoint width {key} is {value!r}, not a positive integer")
    layers = _checkpoint_key(payload, "layers", "file")
    if not isinstance(layers, list):
        raise PreconditionError("checkpoint layers are not a list")
    names = [_checkpoint_key(layer, "name", f"layer {i}") for i, layer in enumerate(layers)]
    if tuple(names) != _LAYER_NAMES:
        raise PreconditionError(f"unexpected layer order {names}")
    dims = layer_dims(widths["h"], widths["j"], widths["width_in"], widths["width_mid"])
    # a wrong shape would shift every later layer's place in the flat vector
    arrays = []
    for layer, (fan_in, fan_out) in zip(layers, dims):
        for key, shape in (("weights", (fan_in, fan_out)), ("bias", (fan_out,))):
            value = _checkpoint_key(layer, key, layer["name"])
            arrays.append(_checkpoint_array(value, shape, f"{key} in {layer['name']}").ravel())
    params = PolicyParams(**widths, flat=np.concatenate(arrays))
    return params, payload.get("seed")


def policy_fn(*params: PolicyParams, record: RolloutRecord):
    """Rollout closure: (step n, current, previous) batches -> probabilities.

    Each call is one `forward` over the nets' stacked weights, whose B rows
    are P consecutive blocks of B/P rows, block k played by net k, into
    `record.slots[n]`, with the stacked bias operands tiled once to the
    record's M rounds (`_bias_operands`). A step past the record's last
    slot, or rows other than its P·M, raise PreconditionError.
    """
    stacked = stack(params)
    steps, nets, rounds = record.arrays[0].shape[:3]  # (steps, P, M, width)
    biases = [np.repeat(b, rounds, axis=1) for b in _bias_operands(stacked.biases)]

    def fn(n: int, cur: np.ndarray, prev: np.ndarray) -> np.ndarray:
        if not (0 <= n < steps and len(cur) == nets * rounds):
            raise PreconditionError(
                f"step {n} of {len(cur)} rows does not fit a record of {steps} "
                f"steps whose rows split into P={nets} nets of M={rounds} rounds"
            )
        return forward(stacked, cur, prev, record.slots[n], biases)

    return fn
