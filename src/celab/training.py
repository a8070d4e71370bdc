"""Self-play training loop: reward shaping, Adam updates, stability stop.

Per epoch both agents roll out M rounds against the shared environment, in
lockstep with one stacked policy evaluation per step. This module holds all
three seeded-stream rules (docs/formats.md, "Seeded streams"): under the
run's seed, net k starts from the stream of spawn key (0, k), round m of
epoch e for player k reads that of (1, e, k, m), and pipeline task i trains
with the seed that (2, i) gives (`task_seed`). The rollout takes both
players' draws as one (N-1, 2M) block, one stream per round and player, so
no round's choices depend on another's. numpy computes each player's
`SeedSequence` pool for an epoch; `_round_draws` mixes in the round words
and seeds the PCG64 states by hand, without building the generators. The two
state tensors are averaged, and each agent takes one Adam step on the summed
two-sided weighted log loss of its own choices, weighted by the standardized
discounted rewards of the states those choices produced. The update reads
the choices as the rollout's action indices, one per (round, step) row, and
builds no one-hot rows. Parameters, gradients and Adam's moments share one
flat layout (`PolicyParams.flat`), so the Adam step works on whole vectors.

The rollout evaluates each net on exactly the (round, step) rows its update
differentiates, with the weights the update starts from, so the update runs
no forward pass of its own: its loss and backward pass read what the rollout
recorded. A run holds, from its first epoch to its end, one arena: a
`RolloutRecord`, with both nets' layer inputs and probabilities at every
step, written in place by the rollout, and the policy `Workspace` that the
two players' updates share one after the other for their loss and backward
passes; each update overwrites the buffers of the last, so no update's
memory goes back to the operating system in between (see `celab.policy`).

The arena also outlives the run. When a run ends, by returning or by
raising, its arena becomes this module's one spare, and the next run of the
same shapes (h, j, width_in, width_mid, rounds, steps) takes it instead of
allocating about 4 MB and faulting its pages in again; the pipeline runs
several such short runs in a row. A run of other shapes drops the spare and
allocates its own, so at most one spare stays alive. A run takes the spare
for itself, so a nested or concurrent run finds none and allocates its own.
Every epoch writes each arena buffer before reading it, so a reused arena
gives the bytes of a fresh one.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from .env import EpisodeBatch, average_states, check_walk, default_state, rollout
from .errors import NumericError, PreconditionError
from .games import Game
from .inputs import integer, real
from .policy import (
    PolicyParams,
    RolloutRecord,
    forward,  # no update calls it; perfbench's tracer rebinds celab.training.forward
    gradients,
    init_policy,
    loss_value,
    policy_fn,
)

SIGMA_EPS = 1e-8
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# multiplier of PCG64's 128-bit LCG, which `_round_draws` seeds by hand
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


# rewards are standardized across rounds, and a round of N states takes N-1 actions
_INTEGER_MINIMUMS = {
    "rounds": 2, "steps": 2, "epochs": 1, "stability_window": 1, "width_in": 1, "width_mid": 1
}


@dataclass
class TrainingConfig:
    rounds: int = 16
    steps: int = 60
    step_size: float = 0.02
    discount: float = 0.99
    learning_rate: float = 0.001
    epochs: int = 300
    stability_window: int = 10
    stability_tol: float | None = None  # default 2 * step_size
    width_in: int = 8
    width_mid: int = 16

    def __post_init__(self):
        # numpy scalars are stored as int and float, so to_dict stays JSON-ready
        for name, minimum in _INTEGER_MINIMUMS.items():
            setattr(self, name, integer(getattr(self, name), minimum, name))
        for name in ("step_size", "discount", "learning_rate", "stability_tol"):
            value = getattr(self, name)
            if not (value is None and name == "stability_tol"):  # None: 2 * step_size
                setattr(self, name, real(value, name))
        if self.stability_tol is not None:
            real(self.stability_tol, "stability tolerance", non_negative=True)
        if not (0.0 <= self.discount <= 1.0):
            raise PreconditionError(f"discount must lie in [0,1], got {self.discount}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise PreconditionError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )
        check_walk(self.step_size, self.steps)

    @property
    def tolerance(self) -> float:
        return 2 * self.step_size if self.stability_tol is None else self.stability_tol

    def to_dict(self) -> dict:
        """The resolved fields, then `loss_variant`: stored artifacts keep
        the key, always "two_sided", the one loss the package trains with."""
        d = asdict(self)
        d["stability_tol"] = self.tolerance
        d["loss_variant"] = "two_sided"
        return d


@dataclass
class RewardTensor:
    raw: np.ndarray  # (M, N)
    discounted: np.ndarray
    standardized: np.ndarray


def shape_rewards(avg_states: np.ndarray, payoff: np.ndarray, discount: float) -> RewardTensor:
    """Raw rewards on averaged states, discount toward the terminal step, then
    standardize each step column across the M rounds (population sigma)."""
    states = np.asarray(avg_states, dtype=np.float64)
    if states.ndim != 3:
        raise PreconditionError("avg_states must be (rounds, steps, H)")
    m, n, h = states.shape
    if m < 2:
        raise PreconditionError(
            "standardization needs at least two rounds (sigma over a single "
            "round is always zero)"
        )
    v = np.asarray(payoff, dtype=np.float64)
    if v.shape != (h,):
        raise PreconditionError(f"payoff width {v.shape} does not match H={h}")
    raw = states @ v
    exponents = np.arange(n - 1, -1, -1, dtype=np.float64)
    discounted = raw * (discount ** exponents)[None, :]
    mu = discounted.mean(axis=0)
    sigma = discounted.std(axis=0)  # population: 1/M inside the root
    standardized = np.where(
        sigma > SIGMA_EPS, (discounted - mu) / np.where(sigma > SIGMA_EPS, sigma, 1.0), 0.0
    )
    return RewardTensor(raw=raw, discounted=discounted, standardized=standardized)


@dataclass
class AdamState:
    """Adam's step count and its first and second moment estimates, `m` and
    `v`, laid out as the net's `PolicyParams.flat`."""

    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros_like(cls, params: PolicyParams) -> "AdamState":
        return cls(step=0, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(
    params: PolicyParams, grads: PolicyParams, state: AdamState, lr: float
) -> tuple[PolicyParams, AdamState]:
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grads.flat
    v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grads.flat * grads.flat
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    flat = params.flat - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return replace(params, flat=flat), AdamState(step=t, m=m, v=v)


@dataclass
class UpdateStats:
    loss: float
    grad_max: float


def update_policy(
    params: PolicyParams,
    batch: EpisodeBatch,
    rewards: RewardTensor,
    state: AdamState,
    config: TrainingConfig,
    record: RolloutRecord,
    net: int,
) -> tuple[PolicyParams, AdamState, UpdateStats]:
    """One Adam step on the summed weighted log loss over all (round, step)
    units. Each choice, an index into the actions, is weighted by the
    standardized reward of the state it produced (column n+1), never of the
    state it left. Net `net` of `record` holds the forward pass of the
    rollout that produced `batch` with these `params`. The loss and backward
    passes share the record's workspace."""
    states = batch.states
    m, n, h = states.shape
    cur = states[:, :-1].reshape(-1, h)
    prev = np.concatenate([states[:, :1], states[:, : n - 2]], axis=1).reshape(-1, h)
    chosen = batch.action_indices.reshape(-1)
    weights = rewards.standardized[:, 1:].reshape(-1)

    trace = record.trace(net, cur, prev)
    loss = loss_value(trace.probs, chosen, weights, record.workspace)
    if not np.isfinite(loss):
        raise NumericError(
            f"non-finite training loss {loss!r} "
            f"(weight range [{weights.min()}, {weights.max()}])"
        )
    grads = gradients(params, trace, chosen, weights, record.workspace)
    grad_max = float(np.abs(grads.flat).max())
    new_params, new_state = adam_step(params, grads, state, config.learning_rate)
    return new_params, new_state, UpdateStats(loss=loss, grad_max=grad_max)


@dataclass
class EpochStats:
    epoch: int
    mean_terminal_reward: dict[str, float]
    terminal_state: np.ndarray  # mean over rounds of the terminal averaged state


@dataclass
class TrainResult:
    p_tilde: np.ndarray
    stable: bool
    epochs_run: int
    history: list[EpochStats]
    params: dict[str, PolicyParams]
    config: TrainingConfig
    seed: int
    players: tuple[str, str]


def require_seed(seed) -> None:
    """Raise PreconditionError unless `seed` is a non-negative integer, the
    seeds numpy's `SeedSequence` takes."""
    integer(seed, 0, "seed")


def _init_rng(seed: int, player_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, player_index)))


def task_seed(seed: int, task_index: int) -> int:
    """The seed pipeline task `task_index` trains with under the run's `seed`."""
    return int(np.random.SeedSequence(seed, spawn_key=(2, task_index)).generate_state(1)[0])


def _word_count(n: int) -> int:
    """The count of 32-bit words `SeedSequence` splits `n` >= 0 into."""
    return max(1, -(-int(n).bit_length() // 32))


def _walk(start: int, mult: int, first: int, count: int) -> np.ndarray:
    """Steps first, ..., first + count - 1 of the 32-bit multiplier walk
    start, start * mult, ..., which SeedSequence's hashes step through."""
    values = [start * pow(mult, first, 2**32) & _MASK32]
    while len(values) < count:
        values.append(values[-1] * mult & _MASK32)
    return np.array(values, np.uint64)


def _hash(value, xor, mult):
    """SeedSequence's hash of 32-bit words held in uint64 arrays, whose
    products fit in 64 bits: xor, multiply, fold the high half into the low."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    """SeedSequence's `mix` of two 32-bit words, on uint64 arrays, whose
    difference wraps modulo 2**64 and so keeps its low 32 bits."""
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> _XSHIFT


# generate_state's 8 hashes for four uint64 words: word i of the pool,
# cycled, xored with step i of the INIT_B walk and multiplied by step i + 1
_STATE_WALK = _walk(_INIT_B, _MULT_B, 0, 2 * _POOL_WORDS + 1)[:, None, None]


def _round_draws(seed: int, epoch: int, players: int, rounds: int, steps: int):
    """The (steps - 1, players * rounds) draws of an epoch: column
    k * rounds + m holds the first steps - 1 uniforms of
    `default_rng(SeedSequence(seed, spawn_key=(1, epoch, k, m)))`, the
    stream of player k's round m. The bits are those streams', derived
    without building them.

    numpy computes player k's pool, `SeedSequence(seed, spawn_key=(1,
    epoch, k)).pool`, which each of its round streams holds before its
    round word m is mixed in. Here m is mixed in for all rounds at once on
    uint64 arrays, by hashes 4W to 4W + 3 of the INIT_A walk, W being the
    count of the entropy words before m: the seed's, zero-padded to the
    pool size of 4, then those of 1, epoch and k.
    `generate_state(4, uint64)` then hashes the pool cycled to 8 words,
    joined little-endian into w0..w3, and PCG64 seeds from them as
    `pcg64_set_seed` does: with initstate = w0 * 2**64 + w1 and initseq =
    w2 * 2**64 + w3, inc = 2 * initseq + 1 and state = ((inc + initstate)
    * MULT + inc) mod 2**128. One PCG64, made for this call, takes each
    round's state in turn, and its raw words convert to uniforms as
    `Generator.random` converts them: (raw >> 11) * 2**-53. NEP 19 freezes
    all of these rules across numpy versions.
    """
    require_seed(seed)
    # 1 and k take one word each, as every player index below 2**32 does
    words = max(_POOL_WORDS, _word_count(seed)) + 2 + _word_count(epoch)
    walk = _walk(_INIT_A, _MULT_A, 4 * words, _POOL_WORDS + 1)[:, None, None]
    # (4, players, 1) pools, and (4, 1, 1) hash constants over (rounds,) words
    pools = np.array(
        [np.random.SeedSequence(seed, spawn_key=(1, epoch, k)).pool for k in range(players)],
        np.uint64,
    ).T[:, :, None]
    mixed = _mix(pools, _hash(np.arange(rounds, dtype=np.uint64), walk[:-1], walk[1:]))
    state = _hash(np.concatenate([mixed, mixed]), _STATE_WALK[:-1], _STATE_WALK[1:])
    seeds = (state[1::2] << 32 | state[0::2]).reshape(_POOL_WORDS, -1).tolist()

    bitgen = np.random.PCG64(0)
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    raw = np.empty((steps - 1, players * rounds), np.uint64)
    for column, (w0, w1, w2, w3) in enumerate(zip(*seeds)):
        pcg["inc"] = inc = (w2 << 65 | w3 << 1 | 1) & _MASK128
        pcg["state"] = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
        bitgen.state = full
        raw[:, column] = bitgen.random_raw(steps - 1)
    raw >>= 11
    return raw * 2.0**-53


# the spare arena, when there is one: [(shapes, RolloutRecord)]
_spare: list = []


@contextmanager
def _arena(params: PolicyParams, rounds: int, steps: int):
    """A run's `RolloutRecord` for nets shaped as `params`: the spare if it
    was sized for the same shapes, else a fresh one; it becomes the spare
    when the run ends. `pop` and the slice assignment are single list
    operations, so two runs never take the same spare."""
    shapes = (params.h, params.j, params.width_in, params.width_mid, rounds, steps)
    try:
        spare_shapes, record = _spare.pop()
    except IndexError:
        spare_shapes = None
    if spare_shapes != shapes:
        # both players' updates, M * (N - 1) rows each
        record = RolloutRecord(params, nets=2, rounds=rounds, steps=steps - 1)
    try:
        yield record
    finally:
        _spare[:] = [(shapes, record)]


def train_pair(
    game: Game,
    pair: tuple[str, str],
    config: TrainingConfig,
    seed: int,
) -> TrainResult:
    """Simultaneous self-play between two players of `game`.

    Both agents act in the same simplex world; rewards come from each agent's
    own payoff vector applied to the averaged states. Stops once every
    per-round terminal averaged state across the last `stability_window`
    epochs sits within the L-inf tolerance of the window mean, or at the
    epoch cap (flagged unstable).
    """
    require_seed(seed)
    a, b = pair
    if a == b:
        raise PreconditionError(f"a player cannot train against itself, got pair {pair}")
    payoffs = {p: game.payoff(p) for p in (a, b)}
    h = game.num_outcomes
    j = 3 ** (h - 1)

    params = {
        p: init_policy(h, j, config.width_in, config.width_mid, _init_rng(seed, i))
        for i, p in enumerate((a, b))
    }
    adam = {p: AdamState.zeros_like(params[p]) for p in (a, b)}
    m = config.rounds

    window: deque[np.ndarray] = deque(maxlen=config.stability_window)
    history: list[EpochStats] = []
    stable = False
    epochs_run = 0

    # an overflow or invalid value reaches a layer's finite check, the loss
    # check or the epsilon guard, which raise NumericError; a warning would repeat it
    with (
        np.errstate(over="ignore", invalid="ignore"),
        _arena(params[a], m, config.steps) as record,
    ):
        for epoch in range(1, config.epochs + 1):
            epochs_run = epoch
            # both players roll out in lockstep: columns [0, M) of the draws
            # are a's rounds and [M, 2M) are b's
            both = rollout(
                policy_fn(params[a], params[b], record=record),
                step_size=config.step_size,
                uniforms=_round_draws(seed, epoch, 2, m, config.steps),
                start=default_state(h),
            )
            batches = {
                p: EpisodeBatch(
                    states=both.states[k * m:(k + 1) * m],
                    action_indices=both.action_indices[k * m:(k + 1) * m],
                )
                for k, p in enumerate((a, b))
            }
            avg = average_states(batches[a], batches[b])
            mean_rewards = {}
            for k, p in enumerate((a, b)):
                shaped = shape_rewards(avg, payoffs[p], config.discount)
                params[p], adam[p], _ = update_policy(
                    params[p], batches[p], shaped, adam[p], config, record, k
                )
                mean_rewards[p] = float(shaped.raw[:, -1].mean())

            terminal = avg[:, -1, :]  # (M, H)
            window.append(terminal)
            history.append(
                EpochStats(
                    epoch=epoch,
                    mean_terminal_reward=mean_rewards,
                    terminal_state=terminal.mean(axis=0),
                )
            )
            if len(window) == config.stability_window:
                stacked = np.concatenate(window, axis=0)
                center = stacked.mean(axis=0)
                if np.abs(stacked - center).max() <= config.tolerance:
                    stable = True
                    break

    if stable:
        p_tilde = np.concatenate(window, axis=0).mean(axis=0)
    else:
        p_tilde = history[-1].terminal_state
    return TrainResult(
        p_tilde=p_tilde,
        stable=stable,
        epochs_run=epochs_run,
        history=history,
        params=params,
        config=config,
        seed=seed,
        players=(a, b),
    )


def write_history_csv(result: TrainResult, path) -> None:
    """Epoch history rows for both players, preceded by a reproducibility
    header comment carrying the resolved config and seed."""
    h = result.p_tilde.size
    header_meta = {
        "seed": result.seed,
        "players": list(result.players),
        "config": result.config.to_dict(),
    }
    # serialize first, so a header json cannot encode leaves no partial file
    header = "# " + json.dumps(header_meta, sort_keys=True) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header)
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "player", "mean_terminal_reward"] + [f"rho_{i+1}" for i in range(h)]
        )
        for stats in result.history:
            for p in result.players:
                writer.writerow(
                    [stats.epoch, p, repr(stats.mean_terminal_reward[p])]
                    + [repr(float(x)) for x in stats.terminal_state]
                )
