"""Self-play training loop: reward shaping, Adam updates, stability stop.

Per epoch both agents roll out M rounds against the shared environment, in
lockstep with one stacked policy evaluation per step. The two state tensors
are averaged, and each agent takes one Adam step on the summed weighted log
loss of its own choices, weighted by the standardized discounted rewards of
the states those choices produced. Parameters, gradients and Adam's moments
share one flat layout (`PolicyParams.flat`), so the Adam step works on whole
vectors.

The rollout evaluates each net on exactly the (round, step) rows its update
differentiates, with the weights the update starts from, so the update runs
no forward pass of its own: its loss and backward pass read what the rollout
recorded. `train_pair` owns, for the whole run, one `RolloutRecord` (both
nets' layer inputs and probabilities at every step, written in place by the
rollout) and one policy `Workspace`, which the two players' updates share
one after the other; each update overwrites the buffers of the last, so no
update's memory goes back to the operating system in between (see
`celab.policy`). `update_policy` called without a record runs `forward`
itself.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, replace

import numpy as np

from .env import EpisodeBatch, average_states, min_steps, rollout
from .errors import NumericError, PreconditionError
from .games import Game
from .policy import (
    PolicyParams,
    RolloutRecord,
    Workspace,
    forward,
    gradients,
    init_policy,
    loss_value,
    policy_fn,
)

SIGMA_EPS = 1e-8
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    loss_variant: str = "two_sided"

    def __post_init__(self):
        if not (0.0 <= self.discount <= 1.0):
            raise PreconditionError(f"discount must lie in [0,1], got {self.discount}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise PreconditionError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )
        if self.rounds < 2:
            raise PreconditionError(
                f"rounds must be >= 2, because rewards are standardized across "
                f"rounds; got {self.rounds}"
            )
        if self.epochs < 1 or self.stability_window < 1:
            raise PreconditionError("epochs and stability_window must be >= 1")
        if self.stability_tol is not None and not self.stability_tol >= 0.0:
            raise PreconditionError(
                f"stability tolerance must be >= 0, got {self.stability_tol}"
            )
        if self.width_in < 1 or self.width_mid < 1:
            raise PreconditionError("width_in and width_mid must be >= 1")
        if not (0.0 < self.step_size <= 1.0):
            raise PreconditionError(f"step size must lie in (0, 1], got {self.step_size}")
        if self.steps < min_steps(self.step_size):
            raise PreconditionError(
                f"steps must satisfy N >= ceil(1/step_size) so every grid state "
                f"stays reachable; got N={self.steps}, "
                f"need >= {min_steps(self.step_size)}"
            )
        if self.loss_variant not in ("two_sided", "chosen_only"):
            raise PreconditionError(f"unknown loss variant {self.loss_variant!r}")

    @property
    def tolerance(self) -> float:
        return 2 * self.step_size if self.stability_tol is None else self.stability_tol

    def to_dict(self) -> dict:
        d = asdict(self)
        d["stability_tol"] = self.tolerance
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
    workspace: Workspace | None = None,
    recorded: tuple[RolloutRecord, int] | None = None,
) -> tuple[PolicyParams, AdamState, UpdateStats]:
    """One Adam step on the summed weighted log loss over all (round, step)
    units. Each choice is weighted by the standardized reward of the state it
    produced (column n+1), never of the state it left. `recorded`, a record
    and the index of this net in it, gives the forward pass of the rollout
    that produced `batch` with these `params`; without it the update runs
    `forward`. The passes share `workspace` (a fresh one when omitted)."""
    states = batch.states
    m, n, h = states.shape
    cur = states[:, :-1].reshape(-1, h)
    prev = np.concatenate([states[:, :1], states[:, : n - 2]], axis=1).reshape(-1, h)
    targets = batch.choices_one_hot().reshape(m * (n - 1), -1)
    weights = rewards.standardized[:, 1:].reshape(-1)

    ws = Workspace() if workspace is None else workspace
    if recorded is None:
        probs, trace = forward(params, cur, prev, ws)
    else:
        record, net = recorded
        trace = record.trace(net, cur, prev, ws)
        probs = trace.probs
    loss = loss_value(probs, targets, weights, config.loss_variant, ws)
    if not np.isfinite(loss):
        raise NumericError(
            f"non-finite training loss {loss!r} "
            f"(weight range [{weights.min()}, {weights.max()}])"
        )
    grads = gradients(params, trace, targets, weights, config.loss_variant, ws)
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


def _init_rng(seed: int, player_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, player_index)))


def _round_rngs(seed: int, epoch: int, player_index: int, rounds: int):
    return [
        np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(1, epoch, player_index, m))
        )
        for m in range(rounds)
    ]


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
    a, b = pair
    payoffs = {p: game.payoff(p) for p in (a, b)}
    h = game.num_outcomes
    j = 3 ** (h - 1)

    params = {
        p: init_policy(h, j, config.width_in, config.width_mid, _init_rng(seed, i))
        for i, p in enumerate((a, b))
    }
    adam = {p: AdamState.zeros_like(params[p]) for p in (a, b)}
    m = config.rounds
    # both players' updates, M * (N - 1) rows each
    workspace = Workspace()
    record = RolloutRecord(params[a], nets=2, rounds=m, steps=config.steps - 1)

    window: deque[np.ndarray] = deque(maxlen=config.stability_window)
    history: list[EpochStats] = []
    stable = False
    epochs_run = 0

    # an overflow or invalid value reaches a layer's finite check, the loss
    # check or the epsilon guard, which raise NumericError; a warning would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            epochs_run = epoch
            # both players roll out in lockstep: rows [0, M) are a's rounds and
            # [M, 2M) are b's, each row drawing from its own round RNG
            both = rollout(
                policy_fn(params[a], params[b], record=record),
                rounds=2 * m,
                steps=config.steps,
                step_size=config.step_size,
                rngs=_round_rngs(seed, epoch, 0, m) + _round_rngs(seed, epoch, 1, m),
                start=np.full(h, 1.0 / h),
            )
            batches = {
                p: EpisodeBatch(
                    states=both.states[k * m:(k + 1) * m],
                    action_indices=both.action_indices[k * m:(k + 1) * m],
                    step_size=both.step_size,
                )
                for k, p in enumerate((a, b))
            }
            avg = average_states(batches[a], batches[b])
            mean_rewards = {}
            for k, p in enumerate((a, b)):
                shaped = shape_rewards(avg, payoffs[p], config.discount)
                params[p], adam[p], _ = update_policy(
                    params[p], batches[p], shaped, adam[p], config, workspace, (record, k)
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
