"""Brute-force reference implementations used only by tests.

Everything here recomputes results from first principles, sharing no code
with the library paths it checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

from celab.errors import NumericError


def deviation_matrix(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Rows D such that rho is a CE iff D @ rho >= 0 (own derivation)."""
    n1, n2 = u1.shape
    h = n1 * n2
    rows = []
    for a, a_alt in itertools.permutations(range(n1), 2):
        row = np.zeros(h)
        for j in range(n2):
            row[a * n2 + j] = u1[a, j] - u1[a_alt, j]
        rows.append(row)
    for b, b_alt in itertools.permutations(range(n2), 2):
        row = np.zeros(h)
        for i in range(n1):
            row[i * n2 + b] = u2[i, b] - u2[i, b_alt]
        rows.append(row)
    return np.array(rows)


def ce_deviation_rows(payoffs, sizes) -> np.ndarray:
    """Rows D such that rho is a CE iff D @ rho >= 0, for any number of
    players: one row per player per (told, deviate) pair, built cell by cell
    over the row-major outcome list."""
    cells = list(itertools.product(*(range(n) for n in sizes)))
    where = {c: f for f, c in enumerate(cells)}
    rows = []
    for k, u in enumerate(payoffs):
        for a, a_alt in itertools.permutations(range(sizes[k]), 2):
            row = np.zeros(len(cells))
            for f, c in enumerate(cells):
                if c[k] == a:
                    row[f] = u[f] - u[where[c[:k] + (a_alt,) + c[k + 1 :]]]
            rows.append(row)
    return np.array(rows)


def two_player_ce_program(u1: np.ndarray, u2: np.ndarray):
    """(objective, rows, rhs) of the CE program as the two-player builder
    wrote it, block by block: the byte reference for the I-player one."""
    rows = []
    for a, a_alt in itertools.permutations(range(u1.shape[0]), 2):
        row = np.zeros(u1.shape)
        row[a] = u1[a] - u1[a_alt]
        rows.append(-row.reshape(-1))
    for b, b_alt in itertools.permutations(range(u2.shape[1]), 2):
        row = np.zeros(u2.shape)
        row[:, b] = u2[:, b] - u2[:, b_alt]
        rows.append(-row.reshape(-1))
    return (u1 + u2).reshape(-1), np.array(rows), np.zeros(len(rows))


def two_player_ce_check(u1: np.ndarray, u2: np.ndarray, rho: np.ndarray, tol: float = 1e-9):
    """(ok, max_violation, worst) of the two-player deviation check, summed
    cell by cell in its order: the byte reference for the I-player one."""
    n1, n2 = u1.shape
    rho = np.asarray(rho, dtype=np.float64).reshape(n1, n2)
    worst, worst_desc = 0.0, None
    for a in range(n1):
        for a_alt in range(n1):
            if a_alt != a:
                gain = 0.0
                for j in range(n2):
                    gain += rho[a, j] * (u1[a, j] - u1[a_alt, j])
                if gain < -worst:
                    worst, worst_desc = -gain, f"player 1 told {a + 1} prefers {a_alt + 1}"
    for b in range(n2):
        for b_alt in range(n2):
            if b_alt != b:
                gain = 0.0
                for i in range(n1):
                    gain += rho[i, b] * (u2[i, b] - u2[i, b_alt])
                if gain < -worst:
                    worst, worst_desc = -gain, f"player 2 told {b + 1} prefers {b_alt + 1}"
    return bool(worst <= tol), float(worst), worst_desc


def reference_ce_program(game):
    """`celab.equilibrium.correlated_equilibrium_program` as it stood when it
    built each deviation row as a numpy array, kept verbatim as the
    byte-for-byte reference: (objective, rows, rhs, eq_rows, eq_rhs)."""
    grids = [game.payoff_matrix(p) for p in game.players]
    # keep >= 0 rows as -row <= 0; negating the whole row makes its zeros -0.0
    rows = []
    for k, u in enumerate(grids):
        own = u.swapaxes(0, k)  # the player's own decision first
        for a, a_alt in itertools.permutations(range(u.shape[k]), 2):
            row = np.zeros(u.shape)
            row.swapaxes(0, k)[a] = own[a] - own[a_alt]
            rows.append(-row.reshape(-1))

    # from the first payoff, not 0.0, so that a -0.0 entry stays -0.0
    welfare = sum(grids[1:], grids[0]).reshape(-1)
    return (
        welfare,
        np.array(rows),
        np.zeros(len(rows)),
        np.ones((1, game.num_outcomes)),
        np.array([1.0]),
    )


def shifted_program(objective, ineq_rows, ineq_rhs, eq_rows, eq_rhs, lo, hi):
    """The arguments of the x >= 0 LinearProgram that maximizes c.x over the
    rows and lo <= x <= hi (lo finite, hi possibly +inf) in y = x - lo, as
    `celab.lp.solve_lp` built it when programs carried bounds: the <= rows
    with rhs b - A @ lo, then y_i <= hi_i - lo_i for each finite hi_i, then
    the == rows with rhs b_eq - A_eq @ lo. A block of None has no rows. An
    answer y maps back to x = lo + y, with objective c @ x."""
    n = len(objective)
    a, b, a_eq, b_eq = (
        np.zeros(shape) if v is None else np.asarray(v, dtype=np.float64)
        for v, shape in ((ineq_rows, (0, n)), (ineq_rhs, 0), (eq_rows, (0, n)), (eq_rhs, 0))
    )
    finite = np.flatnonzero(np.isfinite(hi))
    return (objective, np.vstack([a, np.eye(n)[finite]]),
            np.concatenate([b - a @ lo, hi[finite] - lo[finite]]), a_eq, b_eq - a_eq @ lo)


def reference_tableau(lp):
    """The starting two-phase tableau and basis of `celab.lp.solve_lp` as it
    assembled them with numpy slack and artificial matrices, kept verbatim
    as the byte-for-byte reference: (float64 tableau, basis)."""
    c = lp.objective
    n = c.size
    lo = np.array([b[0] for b in lp.bounds])
    hi = np.array([b[1] for b in lp.bounds])

    # shift x = lo + y so y >= 0; finite upper bounds become rows
    a_ub = lp.ineq_rows if lp.ineq_rows is not None else np.zeros((0, n))
    b_ub = lp.ineq_rhs if lp.ineq_rhs is not None else np.zeros(0)
    b_ub = b_ub - a_ub @ lo
    ub_extra = []
    ub_extra_rhs = []
    for i in range(n):
        if math.isfinite(hi[i]):
            row = np.zeros(n)
            row[i] = 1.0
            ub_extra.append(row)
            ub_extra_rhs.append(hi[i] - lo[i])
    if ub_extra:
        a_ub = np.vstack([a_ub, ub_extra])
        b_ub = np.concatenate([b_ub, ub_extra_rhs])
    a_eq = lp.eq_rows if lp.eq_rows is not None else np.zeros((0, n))
    b_eq = lp.eq_rhs if lp.eq_rhs is not None else np.zeros(0)
    b_eq = b_eq - a_eq @ lo

    n_ub = a_ub.shape[0]
    n_eq = a_eq.shape[0]
    m = n_ub + n_eq

    # columns: y (n) | slack/surplus (n_ub) | artificials (counted below) | rhs
    rows = np.vstack([a_ub, a_eq]) if m else np.zeros((0, n))
    rhs = np.concatenate([b_ub, b_eq])
    slack = np.zeros((m, n_ub))
    needs_artificial = []
    for r in range(m):
        if rhs[r] < 0:
            rows[r] = -rows[r]
            rhs[r] = -rhs[r]
            if r < n_ub:
                slack[r, r] = -1.0  # surplus after the sign flip
                needs_artificial.append(r)
        elif r < n_ub:
            slack[r, r] = 1.0
        if r >= n_ub:
            needs_artificial.append(r)

    n_art = len(needs_artificial)
    art = np.zeros((m, n_art))
    basis: list[int] = [0] * m
    for k, r in enumerate(needs_artificial):
        art[r, k] = 1.0
        basis[r] = n + n_ub + k
    for r in range(m):
        if r < n_ub and slack[r, r] == 1.0:
            basis[r] = n + r

    return np.hstack([rows, slack, art, rhs.reshape(-1, 1)]), basis


def simplex_grid(h: int, resolution: float) -> np.ndarray:
    """All simplex points whose coordinates are multiples of `resolution`."""
    r = round(1.0 / resolution)
    if h == 4:
        i, j, k = np.indices((r + 1, r + 1, r + 1), dtype=np.int32)
        mask = i + j + k <= r
        pts = np.stack(
            [i[mask], j[mask], k[mask], r - i[mask] - j[mask] - k[mask]], axis=1
        )
        return pts.astype(np.float64) / r
    combos = []
    for parts in itertools.product(range(r + 1), repeat=h - 1):
        rest = r - sum(parts)
        if rest >= 0:
            combos.append(parts + (rest,))
    return np.asarray(combos, dtype=np.float64) / r


def grid_max_welfare_ce(
    u1: np.ndarray, u2: np.ndarray, resolution: float = 0.01
) -> tuple[np.ndarray, float]:
    """Best CE-feasible grid point by total welfare (the criterion-1 oracle)."""
    d = deviation_matrix(u1, u2)
    pts = simplex_grid(u1.size, resolution)
    feasible = (pts @ d.T >= -1e-12).all(axis=1)
    assert feasible.any(), "no grid point satisfies the deviation rows"
    welfare = pts @ (u1 + u2).reshape(-1)
    welfare[~feasible] = -np.inf
    best = int(np.argmax(welfare))
    return pts[best], float(welfare[best])


def ce_polytope_vertices(u1: np.ndarray, u2: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Vertex enumeration of {rho >= 0, sum rho = 1, D rho >= 0} for H=4."""
    h = u1.size
    d = deviation_matrix(u1, u2)
    ineqs = np.vstack([d, np.eye(h)])  # all in >= 0 form
    verts = []
    for active in itertools.combinations(range(ineqs.shape[0]), h - 1):
        a = np.vstack([ineqs[list(active)], np.ones(h)])
        b = np.zeros(h)
        b[-1] = 1.0
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if (ineqs @ x >= -tol).all():
            verts.append(np.round(x, 9) + 0.0)
    if not verts:
        return np.zeros((0, h))
    return np.unique(np.array(verts), axis=0)


def two_player_pure_nash(u1: np.ndarray, u2: np.ndarray):
    """(strategies, payoffs) of every pure NE cell as the two-player
    enumeration wrote it, one cell at a time: the byte reference for the
    I-player one."""
    n1, n2 = u1.shape
    out = []
    for i in range(n1):
        for j in range(n2):
            if u1[i, j] < u1[:, j].max() - 1e-12:
                continue
            if u2[i, j] < u2[i, :].max() - 1e-12:
                continue
            s1 = np.zeros(n1)
            s1[i] = 1.0
            s2 = np.zeros(n2)
            s2[j] = 1.0
            out.append(((s1, s2), (float(u1[i, j]), float(u2[i, j]))))
    return out


def brute_force_pure_nash(grids, slack: float = 1e-12) -> list[tuple[int, ...]]:
    """Pure NE cells of a game given as one payoff grid per player (one axis
    per player), for any number of players: a cell qualifies when no single
    player gains more than `slack` by any switch of its own decision."""
    sizes = grids[0].shape
    out = []
    for cell in itertools.product(*(range(n) for n in sizes)):
        if all(
            u[cell] >= u[cell[:k] + (alt,) + cell[k + 1 :]] - slack
            for k, u in enumerate(grids)
            for alt in range(sizes[k])
        ):
            out.append(cell)
    return out


def random_valid_2x2(rng: np.random.Generator, require_two_ne: bool = True):
    """Rejection-sample a normalized 2x2 game satisfying the unequal-reward
    restriction (and, optionally, possessing at least two equilibria).

    Returns (u1, u2) matrices. Uses only oracle-side checks.
    """
    while True:
        u1 = rng.random((2, 2))
        u2 = rng.random((2, 2))
        u1 = u1 / u1.sum()
        u2 = u2 / u2.sum()
        ok = True
        for u, axis in ((u1, 0), (u2, 1)):
            if np.any(np.abs(np.diff(u, axis=axis)) < 0.02):
                ok = False
        if not ok:
            continue
        if not require_two_ne:
            return u1, u2
        cells = brute_force_pure_nash([u1, u2])
        # a 2x2 game with two pure NE also has the interior mixed one
        if len(cells) >= 2:
            return u1, u2


def random_square_payoffs(seed: int, n: int) -> np.ndarray:
    """(2, n*n) payoffs of an n x n game from `default_rng(seed)`: each
    player's cells drawn uniformly, then normalized to sum 1."""
    u = np.random.default_rng(seed).random((2, n * n))
    return u / u.sum(axis=1, keepdims=True)


def reference_slice_indices(game, task) -> tuple[int, ...]:
    """Flat outcome indices of a pipeline task's view, player_a-major: the
    product over each player's menu positions (one position for a fixed
    player), folded row-major as flat = flat * n + pos."""
    fixed = dict(task.fixed_decisions)
    per_player = [
        [menu.index(fixed[p])] if p in fixed else range(len(menu))
        for p, menu in zip(game.players, game.decisions)
    ]
    indices = []
    for combo in itertools.product(*per_player):
        flat = 0
        for pos, menu in zip(combo, game.decisions):
            flat = flat * len(menu) + pos
        indices.append(flat)
    return tuple(indices)


def kink_margin(params, trace) -> float:
    """Smallest |z| over the pre-activations of the LeakyReLU/ReLU layers
    (2-7), recomputed as z = layer_inputs[i] @ W[i] + b[i] from the trace's
    layer inputs and the net's weights."""
    return min(
        float(np.abs(trace.layer_inputs[i] @ params.weights[i] + params.biases[i]).min())
        for i in range(2, 8)
    )


def reference_apply_action(state: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """`celab.env.apply_action` as it stood before its calls were trimmed,
    kept verbatim as the byte-for-byte reference: clamp to [0, 1], then roll
    back the applied increases in proportion when the absorbing component
    would go negative."""
    s = np.asarray(state, dtype=np.float64)
    d = np.asarray(deltas, dtype=np.float64)
    head = s[..., :-1]
    tentative = np.clip(head + d, 0.0, 1.0)
    increases = np.maximum(tentative - head, 0.0)
    deficit = np.maximum(tentative.sum(axis=-1) - 1.0, 0.0)
    inc_total = increases.sum(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(inc_total > 0.0, deficit / np.where(inc_total > 0, inc_total, 1.0), 0.0)
    adjusted = np.maximum(tentative - increases * scale[..., None], 0.0)
    last = np.maximum(1.0 - adjusted.sum(axis=-1), 0.0)
    return np.concatenate([adjusted, last[..., None]], axis=-1)


def reference_sample_index(distribution: np.ndarray, u) -> np.ndarray:
    """`celab.env.sample_index` as it stood before its calls were trimmed:
    the count of prefix sums <= u, clipped to the last index."""
    p = np.asarray(distribution, dtype=np.float64)
    cum = np.cumsum(p, axis=-1)
    uu = np.asarray(u, dtype=np.float64)[..., None]
    idx = (cum <= uu).sum(axis=-1)
    return np.minimum(idx, p.shape[-1] - 1)


_PROB_EPS = 1e-12
_LEAKY_SLOPE = 0.2
_LAYER_NAMES = (
    "analyzer_a", "analyzer_b", "dense_1", "dense_2", "dense_3",
    "wide_1", "wide_2", "wide_3", "output",
)


def reference_loss_value(probs: np.ndarray, targets: np.ndarray, weights) -> float:
    """`celab.policy.loss_value` as it stood when it took (B, J) one-hot
    target rows, kept as the byte-for-byte reference: y log p +
    (1 - y) log(1 - p) over every entry, summed per row, negated, weighted
    and summed."""
    p = np.clip(probs, _PROB_EPS, 1.0 - _PROB_EPS)
    y = np.atleast_2d(targets)
    w = np.atleast_1d(weights)
    other = np.log(1.0 - p)
    other *= 1.0 - y
    terms = y * np.log(p)
    terms += other
    per_unit = -terms.sum(axis=1)
    return float((w * per_unit).sum())


def reference_gradients(params, trace, targets: np.ndarray, weights):
    """`celab.policy.gradients` as it stood when it took (B, J) one-hot
    target rows, kept as the byte-for-byte reference, with fresh arrays in
    place of its workspace: the dense softmax head -(y / p) +
    (1 - y) / (1 - p), then the backward pass with `sum(axis=0)` bias sums.
    Returns a params-shaped copy holding the gradient."""
    p_raw = trace.probs
    batch = p_raw.shape[0]
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), (batch,))
    p = np.clip(p_raw, _PROB_EPS, 1.0 - _PROB_EPS)
    if not (p.min() > 0.0 and p.max() < 1.0):
        raise NumericError("probabilities escaped the epsilon guard")
    g = -(y / p) + (1.0 - y) / (1.0 - p)
    g *= w[:, None]
    g -= (g * p_raw).sum(axis=1, keepdims=True)
    delta = p_raw * g

    grads = replace(params, flat=np.empty_like(params.flat))
    for i in range(8, 1, -1):
        x = trace.layer_inputs[i]
        np.matmul(x.T, delta, out=grads.weights[i])
        delta.sum(axis=0, out=grads.biases[i])
        upstream = delta @ params.weights[i].T
        if i == 2:
            break
        rising = x > 0.0
        if i - 1 <= 4:  # layers 2-4 are LeakyReLU, 5-7 ReLU
            upstream *= np.maximum(rising, _LEAKY_SLOPE)
        else:
            upstream *= rising
        delta = upstream
    w_in = params.width_in
    da, db = upstream[:, :w_in], upstream[:, w_in:]
    np.matmul(trace.layer_inputs[0].T, da, out=grads.weights[0])
    da.sum(axis=0, out=grads.biases[0])
    np.matmul(trace.layer_inputs[1].T, db, out=grads.weights[1])
    db.sum(axis=0, out=grads.biases[1])
    return grads


def _reference_check(layer, z, out):
    if np.count_nonzero(np.isfinite(z)) == z.size:
        return
    half = out[0].shape[-1] // 2
    unchecked = (out[0][..., :half], out[0][..., half:], out[1], out[2], out[3])
    first = next(
        (i for i, a in enumerate(unchecked) if np.count_nonzero(np.isfinite(a)) != a.size),
        layer,
    )
    raise NumericError(f"non-finite activation in layer {first} ({_LAYER_NAMES[first]})")


def reference_forward(params, current: np.ndarray, previous: np.ndarray):
    """`celab.policy.forward` as it stood when it ran one net or P stacked
    nets into fresh arrays and its layer stack checked four pre-activations
    (the ReLU layers 5-7, each before its activation, and the logits), kept
    as the reference for bytes, outcome and message: the first of layers 0-4
    whose output is non-finite, else the checked layer.

    Returns the (B, J) probabilities and the seven inputs of layers 2-8,
    each (B, width) for one net and (P, B/P, width) for P stacked nets."""
    cur = np.asarray(current, dtype=np.float64)
    prev = np.asarray(previous, dtype=np.float64)
    weights, biases = params.weights, params.biases
    if params.flat.ndim == 2:
        blocks = (params.flat.shape[0], cur.shape[0] // params.flat.shape[0], cur.shape[1])
        cur, prev = cur.reshape(blocks), prev.reshape(blocks)
    lead = cur.shape[:-1]
    out = [np.empty(lead + (w.shape[-2],)) for w in weights[2:]]
    out.append(np.empty(lead + (weights[8].shape[-1],)))
    with np.errstate(over="ignore", invalid="ignore"):
        x = out[0]
        half = weights[0].shape[-1]
        for i, (rows, into) in enumerate(((cur, x[..., :half]), (prev, x[..., half:]))):
            np.matmul(rows, weights[i], out=into)
            into += biases[i]
        for i in range(2, 8):
            z = np.matmul(x, weights[i])
            z += biases[i]
            if i >= 5:
                _reference_check(i, z, out)
                x = np.maximum(z, 0.0, out=out[i - 1])
            else:
                scaled = np.multiply(z, _LEAKY_SLOPE, out=out[i - 1])
                x = np.maximum(z, scaled, out=scaled)
        probs = np.matmul(x, weights[8], out=out[7])
        probs += biases[8]
        _reference_check(8, probs, out)
    probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    return probs.reshape(-1, weights[8].shape[-1]), out[:7]


def reference_rollout(params, step_size: float, uniforms, start):
    """`celab.env.rollout` under `params`' nets (stacked, see
    `celab.policy.stack`) as a plain round-major step loop built from
    `reference_forward`, `reference_sample_index` and
    `reference_apply_action`, over actions rebuilt here as the ternary grid
    (first component most significant). Round m draws step n's action with
    `uniforms[n, m]`. Returns the (rounds, steps, H) states, the
    (rounds, steps - 1) action indices and every step's probabilities,
    (steps - 1, rounds, J)."""
    h = np.asarray(start).size
    actions = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=h - 1))) * step_size
    uniforms = np.asarray(uniforms)
    steps, rounds = uniforms.shape[0] + 1, uniforms.shape[1]
    states = np.zeros((rounds, steps, h))
    states[:, 0] = start
    indices = np.zeros((rounds, steps - 1), dtype=np.int64)
    probs = []
    for n in range(steps - 1):
        cur, prev = states[:, n].copy(), states[:, max(n - 1, 0)].copy()
        probs.append(reference_forward(params, cur, prev)[0])
        indices[:, n] = reference_sample_index(probs[-1], uniforms[n])
        states[:, n + 1] = reference_apply_action(cur, actions[indices[:, n]])
    return states, indices, np.stack(probs)


def reference_update(params, batch, rewards, state, config):
    """`celab.training.update_policy` as it stood when it could run without
    a rollout record, kept as the byte-for-byte reference for the update
    that reads one: `reference_forward` over the batch's (round, step) rows,
    then `loss_value`, `gradients` and `adam_step` with fresh workspaces.
    Returns the new params, the new Adam state and the update's stats."""
    from celab.policy import ForwardTrace, Workspace, gradients, loss_value
    from celab.training import UpdateStats, adam_step

    states = batch.states
    m, n, h = states.shape
    cur = states[:, :-1].reshape(-1, h)
    prev = np.concatenate([states[:, :1], states[:, : n - 2]], axis=1).reshape(-1, h)
    chosen = batch.action_indices.reshape(-1)
    weights = rewards.standardized[:, 1:].reshape(-1)
    probs, inputs = reference_forward(params, cur, prev)
    trace = ForwardTrace([cur, prev, *inputs], probs)
    loss = loss_value(probs, chosen, weights, Workspace())
    if not np.isfinite(loss):
        raise NumericError(f"non-finite training loss {loss!r}")
    grads = gradients(params, trace, chosen, weights, Workspace())
    new_params, new_state = adam_step(params, grads, state, config.learning_rate)
    stats = UpdateStats(loss=loss, grad_max=float(np.abs(grads.flat).max()))
    return new_params, new_state, stats


def is_simplex_point(state: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether every entry lies in [-tol, 1 + tol] and the entries sum to 1
    within `tol`."""
    s = np.asarray(state)
    return bool(
        np.all(s >= -tol) and np.all(s <= 1 + tol) and abs(float(s.sum()) - 1.0) <= tol
    )
