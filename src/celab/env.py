"""Probability-simplex environment: states, step actions, rollouts.

A state is a distribution over the H joint outcomes. An action nudges each of
the first H-1 components by -theta, 0, or +theta; the last component absorbs
the slack. Transitions clamp to [0,1] and, when the absorbing component would
go negative, roll back the applied increases proportionally, so every reached
state is a valid simplex point.

A rollout takes its random draws as one (N-1, M) array, a row per step and
a column per round; it never touches a generator, so which stream feeds
which round is the caller's choice (`celab.training` makes it). A rollout
step makes three calls: the policy over every round's (current, previous)
rows, `sample_index` over its distributions with the step's row of draws,
and `apply_action` on the chosen delta rows, which skips the rollback when
no row needs one. `sample_index` writes its indices straight into the
step's row of a step-major buffer, the chosen delta rows go into one buffer
that every step reuses, and `apply_action` writes its states straight into
the step's row of another step-major buffer (each `out`), which the next
step reads as its current states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError

# apply_action's scalar operands as 0-d arrays: numpy converts a Python float
# operand on every call, about 0.3 us of a 1 us call on a rollout step
_ZERO, _ONE = np.array(0.0), np.array(1.0)


def default_state(h: int) -> np.ndarray:
    """The uniform start state (1/H per outcome)."""
    if h < 2:
        raise PreconditionError("need at least two outcomes")
    return np.full(h, 1.0 / h)


def min_steps(step_size: float) -> int:
    """Smallest N that keeps every grid state reachable within one round.
    A step whose reciprocal overflows a float gets the exact ceiling."""
    inverse = 1.0 / step_size
    if inverse < math.inf:
        return math.ceil(inverse)
    num, den = float(step_size).as_integer_ratio()
    return -(-den // num)


def enumerate_actions(h: int, step_size: float) -> np.ndarray:
    """All 3^(H-1) delta rows in canonical order.

    Ternary counting with the first component most significant and digits
    mapping 0 -> -theta, 1 -> 0, 2 -> +theta.
    """
    if h < 2:
        raise PreconditionError("need at least two outcomes")
    if not (0.0 < step_size <= 1.0):
        raise PreconditionError(f"step size must lie in (0, 1], got {step_size}")
    j = 3 ** (h - 1)
    digits = np.zeros((j, h - 1), dtype=np.int64)
    idx = np.arange(j)
    for pos in range(h - 1):
        digits[:, pos] = (idx // 3 ** (h - 2 - pos)) % 3
    return (digits - 1).astype(np.float64) * step_size


def apply_action(
    state: np.ndarray, deltas: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply delta rows to states; both arguments may carry batch dimensions.

    Clamp each adjusted component to [0,1]; if the absorbing component would
    drop below zero, scale back the applied increases in proportion. When no
    row's clamped head sums above 1, every increase would be scaled by +0.0,
    which keeps the clamped head's bits, so that arithmetic is skipped. (Only
    a head component of -inf, outside the simplex, made such a product NaN.)
    The clamped head is then written once, and the last component comes
    from its row sums, already taken for that test.

    The new states go to `out` when given, a float64 array of the result's
    shape, and to a fresh array otherwise; either is returned. `out` is
    written only after `state` has been read for the last time, so it may
    be `state` itself.
    """
    s = np.asarray(state, dtype=np.float64)
    d = np.asarray(deltas, dtype=np.float64)
    if s.shape[-1] != d.shape[-1] + 1:
        raise PreconditionError(
            f"state width {s.shape[-1]} does not match delta width {d.shape[-1]} + 1"
        )
    head = s[..., :-1]
    tentative = np.add(head, d)
    np.minimum(np.maximum(tentative, _ZERO, out=tentative), _ONE, out=tentative)
    # per-row sums keep a trailing axis, so they broadcast against the rows
    total = np.add.reduce(tentative, axis=-1, keepdims=True)
    shape = tentative.shape[:-1] + s.shape[-1:]
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise PreconditionError(f"out {out.shape} {out.dtype} is not {shape} float64")
    # any row above 1; unlike total.max() > 1.0, no NaN row hides another
    if np.count_nonzero(total > _ONE):
        increases = np.subtract(tentative, head)
        np.maximum(increases, _ZERO, out=increases)
        deficit = np.maximum(np.subtract(total, _ONE, out=total), _ZERO, out=total)
        inc_total = np.add.reduce(increases, axis=-1, keepdims=True)
        scale = np.divide(deficit, inc_total, out=np.zeros(deficit.shape), where=inc_total > _ZERO)
        np.subtract(tentative, np.multiply(increases, scale, out=increases), out=tentative)
        adjusted = np.maximum(tentative, _ZERO, out=out[..., :-1])
        np.add.reduce(adjusted, axis=-1, keepdims=True, out=total)
    else:
        # max(t, 0) keeps the bits of a clamped t, -0.0 included: the
        # clamped head is the new head, and its sum is already taken
        out[..., :-1] = tentative
    last = out[..., -1:]
    np.subtract(_ONE, total, out=last)
    np.maximum(last, _ZERO, out=last)
    return out


@dataclass
class EpisodeBatch:
    """States and action choices for M rounds of one player.

    states[m, n] is the state after n steps (states[:, 0] is the start state);
    action_indices[m, n] produced states[m, n + 1].
    """

    states: np.ndarray  # (M, N, H)
    action_indices: np.ndarray  # (M, N-1) into the canonical action order


def sample_index(
    distribution: np.ndarray, u: float | np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse-CDF sampling: the count of the first J-1 prefix sums <= u.

    Vectorized over leading dimensions of `distribution` and `u`. The
    distribution must be non-negative: its prefix sums then never decrease,
    so this is the count over all J clipped to J-1, the last index. The
    indices go to `out` when given, an int64 array of their shape, and
    to a fresh one otherwise; either is returned.
    """
    p = np.asarray(distribution, dtype=np.float64)
    cum = np.add.accumulate(p[..., :-1], axis=-1)
    uu = np.asarray(u, dtype=np.float64)[..., None]
    return np.add.reduce(np.less_equal(cum, uu), axis=-1, out=out)


def rollout(
    policy: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    step_size: float,
    uniforms: np.ndarray,
    start: np.ndarray,
) -> EpisodeBatch:
    """Run M independent rounds of N-1 policy steps from `start`, whose
    width H fixes the action set.

    `uniforms` is the (N-1, M) block of draws in [0, 1) that fixes M and N:
    step n of round m samples its action with `uniforms[n, m]`, so a round's
    choices depend only on its own column. `policy(n, current, previous)`
    maps step n's (M,H) current and previous states to (M,J) action
    distributions.
    """
    u = np.asarray(uniforms, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] < 1:
        raise PreconditionError(f"uniforms must be an (N-1, M) block, M >= 1; got {u.shape}")
    if not ((u >= _ZERO) & (u < _ONE)).all():  # False on NaN as well
        raise PreconditionError("uniforms must be finite draws in [0, 1)")
    steps, rounds = u.shape[0] + 1, u.shape[1]
    if steps < min_steps(step_size):
        raise PreconditionError(
            f"steps must satisfy N >= ceil(1/step_size) so every grid state "
            f"stays reachable; got N={steps}, need >= {min_steps(step_size)}"
        )
    h = np.asarray(start).size
    actions = enumerate_actions(h, step_size)

    # step-major: each step writes its (M,) indices and (M, H) states whole
    states = np.empty((steps, rounds, h))
    idx = np.empty((steps - 1, rounds), dtype=np.int64)
    deltas = np.empty((rounds, h - 1))
    states[0] = start
    prev = cur = states[0]
    for n in range(steps - 1):
        chosen = sample_index(policy(n, cur, prev), u[n], out=idx[n])
        # mode="raise" would buffer `out`; the indices lie in [0, J) anyway
        actions.take(chosen, axis=0, out=deltas, mode="clip")
        prev, cur = cur, apply_action(cur, deltas, out=states[n + 1])
    states, idx = np.ascontiguousarray(states.swapaxes(0, 1)), np.ascontiguousarray(idx.T)
    return EpisodeBatch(states=states, action_indices=idx)


def average_states(batch_a: EpisodeBatch, batch_b: EpisodeBatch) -> np.ndarray:
    """Element-wise mean of two players' state tensors, shape (M, N, H)."""
    if batch_a.states.shape != batch_b.states.shape:
        raise PreconditionError(
            f"state shapes differ: {batch_a.states.shape} vs {batch_b.states.shape}"
        )
    return (batch_a.states + batch_b.states) / 2.0

