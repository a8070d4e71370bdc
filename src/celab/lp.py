"""Dense linear programming via two-phase primal simplex.

Problems in this package are tiny (tens of variables), so the solver favors
exact reproducibility over scale: dense float64 tableau, Bland's anti-cycling
rule (smallest eligible index enters; ratio ties leave by smallest basis
index), fixed tolerances. Identical inputs produce bit-identical outputs.
With these tolerances the rule can still cycle (on some CE programs from
5x5 up); a repeated basis raises SolverError instead of pivoting forever.

solve_lp assembles the two-phase tableau once, in one loop over the
constraint rows, as rows of Python floats: a row with a negative rhs is
negated, then gets its slack or surplus, artificial and rhs entries, and
the starting basis its slack or artificial. Only a tableau of more than
LIST_CELLS cells becomes an ndarray. Every variable is x >= 0 and no row
states it, so each right-hand side is taken as given. Programs built here
state no upper bound that sum(x) = 1 and x >= 0 already imply: each one
would cost a row.

No answer holds -0.0: an x variable is basic only after a pivot on its
row, which leaves its rhs v - 0.0 * v, never -0.0, and a later pivot
gives r - f * b, which is -0.0 only for r = -0.0.

Per-pivot cost is mostly Python and numpy call overhead, not arithmetic.
So the tableau lives in one of two containers, chosen once per solve by
its cell count, and one pivoting loop (`_simplex_max`: pricing, ratio test,
cycle guard) runs on either:

- At most LIST_CELLS cells: a list of rows of Python floats. A 2x2 CE
  program is a 5x10 tableau that takes about 5 pivots; on an ndarray each
  pivot is about a dozen numpy calls on 50 numbers.
- Larger: a 2-D float64 ndarray, on which a pivot is a few whole-array
  operations. Python arithmetic costs the same per cell at any size, so a
  list pivot falls behind as the tableau grows: the 6x6 CE program of the
  cycling test (about 6,000 cells) takes 18x as long on lists.

Only three primitives differ by container: pricing, which gives the
entering column and the columns the ratio test reads (`_pricing`), the
pivot (`_pivot`) and dropping redundant rows (`_drop_rows`). Both give the
same answers, bit for bit:

- A pivot divides the pivot row by its pivot element, then subtracts
  factor * pivot row from every row, the factor being zero on the pivot
  row. Each entry gets that one quotient, product and difference in both
  containers, in the same order, and Python floats and numpy's elementwise
  loops are the same IEEE operations. A zero factor still applies
  x - (+-0.0), which can flip the sign of a zero, and does so alike in
  both.
- The entering column is the first whose reduced cost exceeds TOL. The
  array computes reduced costs with one BLAS product; the list adds left
  to right, never with built-in sum(), which compensates from Python 3.12.
  Their last bits may differ, which changes the entering column only when
  a reduced cost lies within rounding of TOL.
- The ratio test is a sequential scan over Python floats in both, because
  Bland's tie rule compares each ratio with the running best (within TOL),
  which no single array reduction reproduces.
- The phase-1 value and the objective are numpy dots on both paths.

Maximization form:

    maximize    c . x
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                x >= 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SolverError
from .inputs import number_array

TOL = 1e-9
# Tableaus of at most this many cells pivot as lists of Python-float rows,
# larger ones as ndarrays (see the module docstring). Chosen from solve
# times by cell count (ROADMAP Baseline, "LP, small programs").
LIST_CELLS = 64


@dataclass(init=False)
class LinearProgram:
    """A program in the maximization form above. Construction reads every
    argument with `celab.inputs`, so a fault raises PreconditionError naming
    the argument: the objective, each row block and its right-hand side are
    finite float64 arrays of the shapes (n,), (m, n) and (m,).

    `bounds` is read-only: n pairs (0.0, inf), for perfbench's gates and
    tracer, which read it. The `bounds` argument stays for a perfbench test
    that passes it: n finite pairs (0, hi), each hi becoming the row
    x_i <= hi after the given inequality rows. Both go with perfbench's
    next change (ROADMAP item 1)."""

    objective: np.ndarray
    ineq_rows: np.ndarray | None
    ineq_rhs: np.ndarray | None
    eq_rows: np.ndarray | None
    eq_rhs: np.ndarray | None

    def __init__(self, objective, ineq_rows=None, ineq_rhs=None, eq_rows=None, eq_rhs=None,
                 bounds=None):
        self.objective = number_array(objective, (None,), "objective")
        n = self.objective.size
        # a right-hand side without its rows is read, and refused, as rows
        if ineq_rows is not None or ineq_rhs is not None:
            ineq_rows = number_array(ineq_rows, (None, n), "ineq_rows")
            ineq_rhs = number_array(ineq_rhs, ineq_rows.shape[:1], "ineq_rhs")
        if bounds is not None:
            lo, hi = number_array(bounds, (n, 2), "bounds").T
            if lo.any() or (hi < 0.0).any():
                raise PreconditionError("bounds must be pairs (0, hi) with hi >= 0: every x >= 0")
            if ineq_rows is None:
                ineq_rows, ineq_rhs = np.zeros((0, n)), np.zeros(0)
            ineq_rows, ineq_rhs = np.vstack([ineq_rows, np.eye(n)]), np.concatenate([ineq_rhs, hi])
        if eq_rows is not None or eq_rhs is not None:
            eq_rows = number_array(eq_rows, (None, n), "eq_rows")
            eq_rhs = number_array(eq_rhs, eq_rows.shape[:1], "eq_rhs")
        self.ineq_rows, self.ineq_rhs = ineq_rows, ineq_rhs
        self.eq_rows, self.eq_rhs = eq_rows, eq_rhs

    @property
    def bounds(self) -> list[tuple[float, float]]:
        return [(0.0, math.inf)] * self.objective.size


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0


def _pricing(t, cost: np.ndarray, allowed: int):
    """Bland's pricing on tableau `t` under `cost`, as a function of the
    basis. It returns the first of the `allowed` columns whose reduced cost
    exceeds TOL, with that column and the rhs column as Python floats for
    the ratio test, or (-1, [], []) at an optimum. It reads `t` at each
    call, as pivots change it."""
    if isinstance(t, list):
        cost = cost.tolist()

        def price(basis: list[int]) -> tuple[int, list[float], list[float]]:
            # a zero-cost row would add only a signed zero, which no
            # comparison sees
            terms = [(cost[b], row) for b, row in zip(basis, t) if cost[b]]
            for j in range(allowed):
                dot = 0.0  # left to right: sum() is compensated from Python 3.12
                for c, row in terms:
                    dot += c * row[j]
                if cost[j] - dot > TOL:
                    return j, [row[j] for row in t], [row[-1] for row in t]
            return -1, [], []

        return price

    # views: pivots update t in place
    body, priced, rhs = t[:, :allowed], cost[:allowed], t[:, -1]

    def price(basis: list[int]) -> tuple[int, list[float], list[float]]:
        eligible = priced - cost[basis] @ body > TOL
        j = int(eligible.argmax())
        if not eligible[j]:
            return -1, [], []
        return j, t[:, j].tolist(), rhs.tolist()

    return price


def _pivot(t, basis: list[int], row: int, col: int) -> None:
    """Pivot tableau `t` in place on (row, col): divide the pivot row by its
    pivot element, then subtract factor * pivot row from every row, the
    factor being the row's entry in `col`, or zero for the pivot row.

    Rows whose factor is zero (the pivot row included) get x - (+-0.0): for
    finite x that moves at most the sign of a zero, and both containers
    move it alike. LinearProgram rejects non-finite data, so the starting
    tableau is finite."""
    basis[row] = col
    if isinstance(t, list):
        scale = t[row][col]
        pivot_row = t[row] = [v / scale for v in t[row]]
        for r, old in enumerate(t):
            factor = 0.0 if r == row else old[col]
            t[r] = [a - factor * b for a, b in zip(old, pivot_row)]
        return
    pivot_row = t[row]
    pivot_row /= pivot_row[col]
    factors = t[:, col].copy()
    factors[row] = 0.0
    t -= factors[:, None] * pivot_row


def _drop_rows(t, rows: list[int]):
    """Tableau `t` without the given rows."""
    if isinstance(t, list):
        return [row for r, row in enumerate(t) if r not in rows]
    return np.delete(t, rows, axis=0)


def _simplex_max(t, basis: list[int], cost: np.ndarray,
                 allowed: int) -> tuple[str, int]:
    """Run primal simplex on tableau t (rows = constraints, last col = rhs),
    maximizing `cost` over the first `allowed` columns. Bland's rule both ways.
    A repeated basis raises SolverError (Brent's cycle detection: compare with
    a copy saved at pivots 1, 2, 4, ...). In floating point a cycle can be left
    after some rounds, so this also stops a few solves that would have ended."""
    price = _pricing(t, cost, allowed)
    iters = 0
    saved, stride = list(basis), 1
    while True:
        entering, column, rhs = price(basis)
        if entering < 0:
            return "optimal", iters
        # Bland's ratio test: ties within TOL of the running best leave by the
        # smallest basis index, so the scan is sequential (over Python floats).
        leaving = -1
        best_ratio = math.inf
        for r, a in enumerate(column):
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
    rows, rhs = ([], []) if lp.ineq_rows is None else (lp.ineq_rows.tolist(), lp.ineq_rhs.tolist())
    n_ub = len(rows)
    if lp.eq_rows is not None:
        rows += lp.eq_rows.tolist()
        rhs += lp.eq_rhs.tolist()
    m = len(rows)

    # columns: x (n) | slack/surplus (n_ub) | artificials | rhs. A row with a
    # negative rhs is negated; it and every == row start on an artificial.
    first_art = n + n_ub
    n_art = sum(v < 0 for v in rhs[:n_ub]) + m - n_ub
    total_cols = first_art + n_art
    t, basis, art = [], [], first_art
    for r, (row, v) in enumerate(zip(rows, rhs)):
        tail = [0.0] * (n_ub + n_art + 1)
        flip = v < 0
        if flip:
            row, v = [-a for a in row], -v
        if r < n_ub:
            tail[r] = -1.0 if flip else 1.0  # a surplus after the flip
        if flip or r >= n_ub:
            basis.append(art)
            tail[art - n] = 1.0
            art += 1
        else:
            basis.append(n + r)
        tail[-1] = v
        t.append(row + tail)
    if m * (total_cols + 1) > LIST_CELLS:
        t = np.array(t, dtype=np.float64).reshape(m, total_cols + 1)
    iterations = 0

    if n_art:
        phase1_cost = np.zeros(total_cols)
        phase1_cost[first_art:] = -1.0  # maximize -(sum of artificials)
        status, it = _simplex_max(t, basis, phase1_cost, total_cols)
        iterations += it
        # one numpy dot over the rhs column, whichever the container
        if phase1_cost[basis] @ np.asarray(t)[:, -1] < -TOL:
            return LPSolution(status="infeasible", iterations=iterations)
        # drive leftover artificials out of the basis; drop redundant rows
        redundant = []
        for r in range(len(basis)):
            if basis[r] >= first_art:
                row = t[r]
                col = next((j for j in range(first_art) if abs(row[j]) > TOL), -1)
                if col >= 0:
                    _pivot(t, basis, r, col)
                else:
                    redundant.append(r)
        if redundant:
            t = _drop_rows(t, redundant)
            basis = [b for r, b in enumerate(basis) if r not in redundant]

    # phase 2 over original + slack columns only
    phase2_cost = np.zeros(total_cols)
    phase2_cost[:n] = c
    status, it = _simplex_max(t, basis, phase2_cost, first_art)
    iterations += it
    if status == "unbounded":
        return LPSolution(status="unbounded", iterations=iterations)

    x = [0.0] * n
    for b, row in zip(basis, t):
        if b < n:
            x[b] = row[-1]
    x = np.array(x)
    return LPSolution(status="optimal", x=x, objective=float(c @ x), iterations=iterations)
