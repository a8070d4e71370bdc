"""Span tracing around celab's layer boundaries, installed from outside.

`Tracer.install` rebinds each boundary function in the module whose code
looks it up (for example `celab.training.forward` for updates and
`celab.policy.forward` for rollouts), and `uninstall` puts the originals
back. Each call records a span: name, start, end, parent span and operation
id, plus a few facts about the call. Spans stay in memory; `layer_metrics`
reduces them to the per-layer numbers once the run is over.

A span's layer is the part of its name before the first dot. Its self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

import numpy as np

from . import gates

# (module whose code looks the name up, attribute, span name)
BOUNDARIES = (
    ("celab.training", "train_pair", "training.train_pair"),
    ("celab.pipeline", "train_pair", "training.train_pair"),
    ("celab.training", "update_policy", "training.update_policy"),
    ("celab.training", "adam_step", "training.adam_step"),
    ("celab.training", "shape_rewards", "training.shape_rewards"),
    ("celab.training", "rollout", "env.rollout"),
    ("celab.training", "average_states", "env.average_states"),
    ("celab.env", "apply_action", "env.apply_action"),
    ("celab.policy", "forward", "policy.forward"),
    ("celab.training", "forward", "policy.forward"),
    ("celab.training", "gradients", "policy.gradients"),
    ("celab.training", "loss_value", "policy.loss_value"),
    ("celab.equilibrium", "solve_lp", "lp.solve_lp"),
    ("celab.estimation", "solve_lp", "lp.solve_lp"),
    ("celab.equilibrium", "max_welfare_correlated_equilibrium", "equilibrium.ce"),
    ("celab.estimation", "max_welfare_correlated_equilibrium", "equilibrium.ce"),
    ("celab.pipeline", "max_welfare_correlated_equilibrium", "equilibrium.ce"),
    ("celab.pipeline", "enumerate_equilibria", "equilibrium.enumerate"),
    ("celab.estimation", "estimate_payoff", "estimation.estimate_payoff"),
    ("celab.pipeline", "estimate_payoff", "estimation.estimate_payoff"),
    ("celab.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("celab.pipeline", "make_game", "games.make_game"),
    ("celab.estimation", "make_game", "games.make_game"),
)

LAYERS = ("op", "policy", "env", "training", "lp", "equilibrium", "estimation",
          "pipeline", "games")

# span fields
NAME, START, END, PARENT, OP, INFO = range(6)


def _forward_info(tracer, args, result):
    params, current = args[0], args[1]
    key = (params.h, params.j, params.width_in, params.width_mid)
    per_row = tracer._flops.get(key)
    if per_row is None:
        from celab.policy import layer_dims

        per_row = tracer._flops[key] = sum(2 * i * o for i, o in layer_dims(*key))
    rows = current.shape[0] if np.ndim(current) == 2 else 1
    return rows, rows * per_row


def lp_cells(lp) -> int:
    """Cells of the initial two-phase tableau solve_lp builds for `lp`."""
    n = lp.objective.size
    lo = np.array([b[0] for b in lp.bounds])
    n_hi = sum(np.isfinite(b[1]) for b in lp.bounds)
    n_ineq = 0 if lp.ineq_rows is None else lp.ineq_rows.shape[0]
    n_eq = 0 if lp.eq_rows is None else lp.eq_rows.shape[0]
    negative = 0 if not n_ineq else int((lp.ineq_rhs - lp.ineq_rows @ lo < 0).sum())
    n_ub = n_ineq + n_hi
    return (n_ub + n_eq) * (n + n_ub + n_eq + negative + 1)


def _lp_info(tracer, args, result):
    lp = args[0]
    verified = None
    if result.status == "optimal":
        verified = gates.lp_point_violation(lp, result.x) <= gates.ROW_TOL
    return result.status, result.iterations, lp_cells(lp), verified


def _estimate_info(tracer, args, result):
    return result.status


def _train_info(tracer, args, result):
    return result.epochs_run


INFO_HOOKS = {
    "policy.forward": _forward_info,
    "lp.solve_lp": _lp_info,
    "estimation.estimate_payoff": _estimate_info,
    "training.train_pair": _train_info,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._installed: list[tuple] = []
        self._flops: dict[tuple, int] = {}

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name):
        hook = INFO_HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:  # calls from gate code are not part of an operation
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, perf_counter(), None, stack[-1], self._op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = perf_counter()
                span[INFO] = ("error", type(exc).__name__)
                del stack[stack.index(idx):]
                raise
            span[END] = perf_counter()
            stack.pop()
            if hook is not None:
                span[INFO] = hook(self, args, result)
            return result

        return traced

    def call_operation(self, index: int, kind: str, call):
        """Run one operation's call under a root span `op.<kind>`."""
        idx = len(self.spans)
        span = [f"op.{kind}", perf_counter(), None, -1, index, None]
        self.spans.append(span)
        self._stack[:] = [idx]
        self._op = index
        try:
            return call()
        finally:
            span[END] = perf_counter()
            for inner in self.spans[idx + 1:]:  # left open if a deadline hit mid-record
                if inner[END] is None:
                    inner[END] = span[END]
            self._stack.clear()
            self._op = None

    def install(self) -> None:
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- reduction ---------------------------------------------------------

    def span_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span[NAME]] = counts.get(span[NAME], 0) + 1
        return counts

    def layer_metrics(self, scales: dict[int, float]) -> dict[str, float]:
        """Per-layer numbers over the recorded spans, per traced operation.
        `scales[i]` turns wall time into reference-host time for operation i
        (see calibrate.py)."""
        spans = self.spans
        n = len(spans)
        dur = np.array([(s[END] - s[START]) * scales[s[OP]] for s in spans]) * 1e3  # ms
        child = np.zeros(n)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
        self_ms = dur - child
        names = [s[NAME] for s in spans]
        layers = [name.split(".", 1)[0] for name in names]

        # spans under (or at) a train_pair / estimate_payoff span; parents
        # always precede their children in the list
        under_train = [False] * n
        under_est = [False] * n
        for i, s in enumerate(spans):
            p = s[PARENT]
            under_train[i] = names[i] == "training.train_pair" or (p >= 0 and under_train[p])
            under_est[i] = names[i] == "estimation.estimate_payoff" or (p >= 0 and under_est[p])

        by_name: dict[str, list[int]] = {}
        for i, name in enumerate(names):
            by_name.setdefault(name, []).append(i)

        ops = max(len(scales), 1)

        def calls(name):
            return len(by_name.get(name, ()))

        def total_ms(name):
            return float(dur[by_name[name]].sum()) if name in by_name else 0.0

        def mean_ms(name):
            return total_ms(name) / calls(name) if calls(name) else 0.0

        def infos(name):
            return [spans[i][INFO] for i in by_name.get(name, ())]

        m = {f"{layer}.self_ms": 0.0 for layer in LAYERS}
        for layer, ms in zip(layers, self_ms):
            m[f"{layer}.self_ms"] += float(ms) / ops

        fwd = [info for info in infos("policy.forward") if info and info[0] != "error"]
        rows = sum(r for r, _ in fwd)
        m["policy.forward.calls"] = calls("policy.forward") / ops
        m["policy.forward.rows"] = rows / ops
        m["policy.forward.us_per_call"] = 1e3 * mean_ms("policy.forward")
        m["policy.forward.us_per_row"] = 1e3 * total_ms("policy.forward") / rows if rows else 0.0
        m["policy.forward.flops"] = sum(f for _, f in fwd) / ops
        m["policy.gradients.ms"] = mean_ms("policy.gradients")

        m["env.rollout.ms"] = mean_ms("env.rollout")
        m["env.apply_action.calls"] = calls("env.apply_action") / ops
        m["env.apply_action.us_per_call"] = 1e3 * mean_ms("env.apply_action")

        train_ms = total_ms("training.train_pair")
        m["training.train_pair.calls"] = calls("training.train_pair") / ops
        m["training.epochs"] = sum(
            e for e in infos("training.train_pair") if isinstance(e, int)) / ops
        m["training.update_policy.ms"] = mean_ms("training.update_policy")
        m["training.adam_step.ms"] = mean_ms("training.adam_step")
        m["training.shape_rewards.ms"] = mean_ms("training.shape_rewards")
        m["training.rollout_share"] = total_ms("env.rollout") / train_ms if train_ms else 0.0
        inside = sum(self_ms[i] for i in range(n)
                     if under_train[i] and layers[i] in ("policy", "env", "training"))
        m["training.accounted_share"] = float(inside) / train_ms if train_ms else 0.0

        lp = [info for info in infos("lp.solve_lp") if info and info[0] != "error"]
        m["lp.solve_lp.calls"] = calls("lp.solve_lp") / ops
        m["lp.solve_lp.ms"] = mean_ms("lp.solve_lp")
        m["lp.pivots.p50"] = float(np.median([p for _, p, _, _ in lp])) if lp else 0.0
        m["lp.pivots.max"] = float(max((p for _, p, _, _ in lp), default=0))
        m["lp.tableau_cells.p50"] = float(np.median([c for _, _, c, _ in lp])) if lp else 0.0
        for status in ("optimal", "infeasible", "unbounded"):
            m[f"lp.status.{status}"] = sum(s == status for s, _, _, _ in lp) / ops
        optimal = [v for s, _, _, v in lp if s == "optimal"]
        m["lp.verified_share"] = sum(optimal) / len(optimal) if optimal else 1.0

        m["equilibrium.ce.calls"] = calls("equilibrium.ce") / ops
        m["equilibrium.ce.ms"] = mean_ms("equilibrium.ce")
        # CE calls that raised although their LP solve said "optimal"
        last_lp: dict[int, object] = {}
        for i in by_name.get("lp.solve_lp", ()):
            last_lp[spans[i][PARENT]] = spans[i][INFO]
        m["equilibrium.ce.check_failed"] = sum(
            1 for i in by_name.get("equilibrium.ce", ())
            if spans[i][INFO] and spans[i][INFO][0] == "error"
            and spans[i][INFO][1] != "Deadline"
            and (last_lp.get(i) or ("",))[0] == "optimal"
        ) / ops
        m["equilibrium.enumerate.calls"] = calls("equilibrium.enumerate") / ops

        est_calls = calls("estimation.estimate_payoff")
        m["estimation.estimate_payoff.ms"] = mean_ms("estimation.estimate_payoff")
        m["estimation.lp_solves_per_call"] = (
            sum(1 for i in by_name.get("lp.solve_lp", ()) if under_est[i]) / est_calls
            if est_calls else 0.0
        )
        m["estimation.infeasible"] = sum(
            s == "infeasible" for s in infos("estimation.estimate_payoff")) / ops

        m["pipeline.run_pipeline.calls"] = calls("pipeline.run_pipeline") / ops
        m["games.make_game.calls"] = calls("games.make_game") / ops
        m["games.make_game.ms"] = mean_ms("games.make_game")
        m["trace.spans_per_op"] = n / ops
        return m
