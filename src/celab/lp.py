"""Dense linear programming via two-phase primal simplex.

Problems in this package are tiny (tens of variables), so the solver favors
exact reproducibility over scale: dense float64 tableau, Bland's anti-cycling
rule (smallest eligible index enters; ratio ties leave by smallest basis
index), fixed tolerances. Identical inputs produce bit-identical outputs.
With these tolerances the rule can still cycle (on some CE programs from
5x5 up); a repeated basis raises SolverError instead of pivoting forever.

Programs built in this package state no upper bound that sum(x) = 1 and
x >= 0 already imply: each finite upper bound costs a tableau row.

Per-pivot cost is mostly Python and numpy call overhead, so each step is a
few whole-array operations:

- A pivot is one rank-1 update of the tableau. Every element gets the same
  product and difference a per-row loop would give, so the bits are those
  of that loop; only zero factors differ, as x - (+-0.0), which can flip
  the sign of a zero and nothing else.
- The entering column is the first reduced cost above TOL, in one array op.
- The ratio test is a sequential scan over Python floats, because Bland's
  tie rule compares each ratio with the running best (within TOL), which
  no single array reduction reproduces. Python float division and
  comparison are the same IEEE operations as on numpy scalars.

Maximization form:

    maximize    c . x
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                lo <= x <= hi   (lo finite; hi may be +inf)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError

TOL = 1e-9


def _all_finite(a: np.ndarray) -> bool:
    # half the cost of np.isfinite(a).all() on arrays this small
    return np.count_nonzero(np.isfinite(a)) == a.size


def _row_block(name: str, rows, rhs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One constraint block as float64 (rows, rhs). A 1-D `rows` is one row,
    or no rows when empty; any other width than `n` is an error, not a
    re-cut of the same numbers into rows of another length."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1) if rows.size else rows.reshape(0, n)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"{name}_rows must have {n} columns, got shape {rows.shape}")
    rhs = np.asarray(rhs, dtype=np.float64).reshape(-1)
    if rows.shape[0] != rhs.size:
        raise ValueError(f"{name}_rows/{name}_rhs length mismatch")
    if not (_all_finite(rows) and _all_finite(rhs)):
        raise ValueError(f"{name}_rows and {name}_rhs must be finite")
    return rows, rhs


@dataclass
class LinearProgram:
    objective: np.ndarray
    ineq_rows: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    eq_rows: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    bounds: list[tuple[float, float]] | None = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=np.float64)
        n = self.objective.size
        if not _all_finite(self.objective):
            raise ValueError("objective must be finite")
        if self.ineq_rows is not None:
            self.ineq_rows, self.ineq_rhs = _row_block(
                "ineq", self.ineq_rows, self.ineq_rhs, n)
        if self.eq_rows is not None:
            self.eq_rows, self.eq_rhs = _row_block("eq", self.eq_rows, self.eq_rhs, n)
        if self.bounds is None:
            self.bounds = [(0.0, np.inf)] * n
        if len(self.bounds) != n:
            raise ValueError("one (lo, hi) pair per variable required")
        self.bounds = [(lo, np.inf if hi is None else hi) for lo, hi in self.bounds]
        for lo, hi in self.bounds:
            if not math.isfinite(lo):
                raise ValueError("lower bounds must be finite")
            if math.isnan(hi):
                raise ValueError("upper bounds must not be NaN")
            if hi < lo:
                raise ValueError(f"bound lo {lo} exceeds hi {hi}")


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0


def _pivot(t: np.ndarray, basis: list[int], row: int, col: int) -> None:
    pivot_row = t[row]
    pivot_row /= pivot_row[col]
    # Rank-1 update. Rows whose factor is zero (the pivot row included) get
    # x - (+-0.0): for finite x that moves at most the sign of a zero, which
    # no reader of the tableau sees. LinearProgram rejects non-finite data,
    # so the starting tableau is finite.
    factors = t[:, col].copy()
    factors[row] = 0.0
    t -= factors[:, None] * pivot_row
    basis[row] = col


def _simplex_max(t: np.ndarray, basis: list[int], cost: np.ndarray,
                 allowed: int) -> tuple[str, int]:
    """Run primal simplex on tableau t (rows = constraints, last col = rhs),
    maximizing `cost` over the first `allowed` columns. Bland's rule both ways.
    A repeated basis raises SolverError (Brent's cycle detection: compare with
    a copy saved at pivots 1, 2, 4, ...). In floating point a cycle can be left
    after some rounds, so this also stops a few solves that would have ended."""
    # views: pivots update t in place
    body, rhs_col, priced = t[:, :allowed], t[:, -1], cost[:allowed]
    iters = 0
    saved, stride = list(basis), 1
    while True:
        # reduced costs relative to the current basis
        reduced = priced - cost[basis] @ body
        eligible = reduced > TOL
        entering = int(eligible.argmax())
        if not eligible[entering]:
            return "optimal", iters
        # Bland's ratio test: ties within TOL of the running best leave by the
        # smallest basis index, so the scan is sequential (over Python floats).
        leaving = -1
        best_ratio = math.inf
        rhs = rhs_col.tolist()
        for r, a in enumerate(t[:, entering].tolist()):
            if a > TOL:
                ratio = rhs[r] / a
                if ratio < best_ratio - TOL or (
                    abs(ratio - best_ratio) <= TOL
                    and (leaving < 0 or basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            return "unbounded", iters
        _pivot(t, basis, leaving, entering)
        iters += 1
        if basis == saved:
            raise SolverError(f"simplex cycled: a basis repeated after {iters} pivots")
        if iters == stride:
            saved, stride = list(basis), 2 * stride


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve a LinearProgram; infeasible/unbounded are statuses, not errors."""
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

    t = np.hstack([rows, slack, art, rhs.reshape(-1, 1)])
    total_cols = n + n_ub + n_art
    iterations = 0

    if n_art:
        phase1_cost = np.zeros(total_cols)
        phase1_cost[n + n_ub :] = -1.0  # maximize -(sum of artificials)
        status, it = _simplex_max(t, basis, phase1_cost, total_cols)
        iterations += it
        cb = phase1_cost[basis]
        val = cb @ t[:, -1]
        if val < -TOL:
            return LPSolution(status="infeasible", iterations=iterations)
        # drive leftover artificials out of the basis; drop redundant rows
        redundant = []
        for r in range(t.shape[0]):
            if basis[r] >= n + n_ub:
                candidates = np.flatnonzero(np.abs(t[r, : n + n_ub]) > TOL)
                if candidates.size:
                    _pivot(t, basis, r, int(candidates[0]))
                else:
                    redundant.append(r)
        if redundant:
            t = np.delete(t, redundant, axis=0)
            basis = [b for r, b in enumerate(basis) if r not in redundant]

    # phase 2 over original + slack columns only
    phase2_cost = np.zeros(t.shape[1] - 1)
    phase2_cost[:n] = c
    status, it = _simplex_max(t, basis, phase2_cost, n + n_ub)
    iterations += it
    if status == "unbounded":
        return LPSolution(status="unbounded", iterations=iterations)

    y = np.zeros(t.shape[1] - 1)
    for r, b in enumerate(basis):
        y[b] = t[r, -1]
    x = lo + y[:n]
    return LPSolution(
        status="optimal",
        x=x,
        objective=float(c @ x),
        iterations=iterations,
    )
