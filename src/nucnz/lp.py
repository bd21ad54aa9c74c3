"""Exact rational LP solving: two-phase simplex with integer pivoting.

The tableau holds arbitrary-precision integers with a single running
denominator (the previous pivot), so no rational normalization happens in
the hot loop and every intermediate quantity is exact.  A Dantzig pivot
rule is used first for speed and the solver switches permanently to
Bland's rule after a fixed number of iterations, which guarantees
termination.  Optimal solutions come with exact duals, and a strong
duality certificate is checked before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

__all__ = ["LPInstance", "LPSolution", "LPError", "solve_lp_exact"]

SENSES = ("==", "<=", ">=")


class LPError(RuntimeError):
    """Internal solver failure (certificate mismatch, iteration overflow)."""


@dataclass(frozen=True)
class LPInstance:
    """max objective . x subject to rows (coeffs, sense, rhs).

    ``free[j]`` marks variable j as unrestricted; otherwise x_j >= 0.
    All variables default to free, which is the common case here (payoff
    vectors and the excess level are sign-unrestricted).
    """

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]
    free: tuple[bool, ...]

    @staticmethod
    def maximize(objective: Sequence, rows, free: Sequence[bool] | None = None) -> "LPInstance":
        obj = tuple(Fraction(v) for v in objective)
        n = len(obj)
        norm_rows = []
        for coeffs, sense, rhs in rows:
            if sense not in SENSES:
                raise ValueError(f"bad row sense {sense!r}")
            c = tuple(Fraction(v) for v in coeffs)
            if len(c) != n:
                raise ValueError("row width does not match objective")
            norm_rows.append((c, sense, Fraction(rhs)))
        if free is None:
            fr = tuple(True for _ in range(n))
        else:
            fr = tuple(bool(b) for b in free)
            if len(fr) != n:
                raise ValueError("free-flag length does not match objective")
        return LPInstance(obj, tuple(norm_rows), fr)

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LPSolution:
    """status is "optimal", "infeasible" or "unbounded".

    For optimal solutions, ``duals[i]`` is the multiplier of row i in its
    given orientation: d >= 0 on "<=" rows, d <= 0 on ">=" rows, free on
    equalities, with sum_i d_i a_i = c on free variables and
    objective == sum_i d_i b_i (checked exactly).
    """

    status: str
    x: tuple[Fraction, ...] | None = None
    duals: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None


class _Tableau:
    """Integer simplex tableau with a shared denominator."""

    def __init__(self, rows: list[list[int]], costs: list[list[int]], m: int):
        self.rows = rows
        self.costs = costs
        self.m = m
        self.den = 1

    def pivot(self, r: int, c: int) -> None:
        den = self.den
        rowr = self.rows[r]
        p = rowr[c]
        for block in (self.rows, self.costs):
            for row in block:
                if row is rowr:
                    continue
                f = row[c]
                if f:
                    for j in range(len(row)):
                        num = p * row[j] - f * rowr[j]
                        q, rem = divmod(num, den)
                        if rem:
                            raise LPError("integer pivot lost exactness")
                        row[j] = q
                else:
                    for j in range(len(row)):
                        num = p * row[j]
                        q, rem = divmod(num, den)
                        if rem:
                            raise LPError("integer pivot lost exactness")
                        row[j] = q
        self.den = p
        if self.den < 0:
            self.den = -self.den
            for block in (self.rows, self.costs):
                for row in block:
                    for j in range(len(row)):
                        row[j] = -row[j]


def _choose_entering(cost: list[int], allowed: list[int], bland: bool) -> int | None:
    if bland:
        for j in allowed:
            if cost[j] < 0:
                return j
        return None
    best = None
    best_v = 0
    for j in allowed:
        v = cost[j]
        if v < best_v:
            best_v = v
            best = j
    return best


def _choose_leaving(tab: _Tableau, c: int, basis: list[int], bcol: int) -> int | None:
    best = None
    best_b = 0
    best_t = 0
    for i in range(tab.m):
        t = tab.rows[i][c]
        if t > 0:
            b = tab.rows[i][bcol]
            if best is None:
                best, best_b, best_t = i, b, t
            else:
                lhs = b * best_t
                rhs = best_b * t
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best, best_b, best_t = i, b, t
    return best


def solve_lp_exact(lp: LPInstance, verify: bool = True) -> LPSolution:
    """Solve a rational LP exactly; always returns a status, never raises
    for infeasible or unbounded instances."""
    n = lp.n_vars
    m = len(lp.rows)

    # Column layout: split free variables, then one slack per inequality,
    # then one artificial per row; the last column holds b.
    col_pos: list[int] = []
    col_neg: list[int | None] = []
    ncols = 0
    for j in range(n):
        col_pos.append(ncols)
        ncols += 1
        if lp.free[j]:
            col_neg.append(ncols)
            ncols += 1
        else:
            col_neg.append(None)
    slack_col: dict[int, int] = {}
    for i, (_, sense, _) in enumerate(lp.rows):
        if sense != "==":
            slack_col[i] = ncols
            ncols += 1
    art_col = [ncols + i for i in range(m)]
    ncols += m
    bcol = ncols

    # Objective scaled to integers (we minimize the negated objective).
    sigma = lcm(*(v.denominator for v in lp.objective))
    cint = [int(v * sigma) for v in lp.objective]

    rows_int: list[list[int]] = []
    row_scale: list[int] = []
    row_flip: list[int] = []
    for i, (coeffs, sense, rhs) in enumerate(lp.rows):
        rho = lcm(rhs.denominator, *(v.denominator for v in coeffs))
        a = [int(v * rho) for v in coeffs]
        b = int(rhs * rho)
        flip = -1 if b < 0 else 1
        row = [0] * (ncols + 1)
        for j in range(n):
            row[col_pos[j]] = flip * a[j]
            if col_neg[j] is not None:
                row[col_neg[j]] = -flip * a[j]
        if sense == "<=":
            row[slack_col[i]] = flip
        elif sense == ">=":
            row[slack_col[i]] = -flip
        row[art_col[i]] = 1
        row[bcol] = flip * b
        rows_int.append(row)
        row_scale.append(rho)
        row_flip.append(flip)

    # Phase-2 cost row: minimize -sigma * objective; artificials cost 0.
    cost2 = [0] * (ncols + 1)
    for j in range(n):
        cost2[col_pos[j]] = -cint[j]
        if col_neg[j] is not None:
            cost2[col_neg[j]] = cint[j]
    # Phase-1 cost row: minimize the artificial sum, reduced against the
    # initial all-artificial basis.
    cost1 = [0] * (ncols + 1)
    for j in range(ncols + 1):
        cost1[j] = -sum(row[j] for row in rows_int)
    for i in range(m):
        cost1[art_col[i]] += 1

    tab = _Tableau(rows_int, [cost2, cost1], m)
    basis = art_col.copy()

    structural = [j for j in range(ncols) if j not in set(art_col)]
    all_cols = list(range(ncols))

    bland_after = 100 + 10 * (m + ncols)
    hard_cap = 500000

    def run(cost_row: list[int], allowed: list[int]) -> str:
        iters = 0
        while True:
            iters += 1
            if iters > hard_cap:
                raise LPError("simplex iteration cap exceeded")
            c = _choose_entering(cost_row, allowed, bland=iters > bland_after)
            if c is None:
                return "optimal"
            r = _choose_leaving(tab, c, basis, bcol)
            if r is None:
                return "unbounded"
            tab.pivot(r, c)
            basis[r] = c

    status1 = run(cost1, all_cols)
    if status1 != "optimal":
        raise LPError("phase 1 cannot be unbounded")
    if cost1[bcol] < 0:
        return LPSolution(status="infeasible")

    # Drive basic artificials out (degenerate pivots are safe: b == 0).
    art_set = set(art_col)
    for r in range(m):
        if basis[r] in art_set:
            target = None
            for j in structural:
                if tab.rows[r][j] != 0:
                    target = j
                    break
            if target is not None:
                tab.pivot(r, target)
                basis[r] = target
            # Otherwise the row is redundant; its artificial stays basic
            # at zero and never moves (the row has no structural entries).

    tab.costs = [cost2]
    status2 = run(cost2, structural)
    if status2 == "unbounded":
        return LPSolution(status="unbounded")

    den = tab.den
    values: dict[int, Fraction] = {}
    for r in range(m):
        values[basis[r]] = Fraction(tab.rows[r][bcol], den)
    x = []
    for j in range(n):
        v = values.get(col_pos[j], Fraction(0))
        if col_neg[j] is not None:
            v = v - values.get(col_neg[j], Fraction(0))
        x.append(v)
    objective = sum((cj * xj for cj, xj in zip(lp.objective, x)), Fraction(0))

    duals = []
    for i in range(m):
        # Reduced cost of artificial i equals minus the standard-form dual.
        red = Fraction(cost2[art_col[i]], den)
        d = red * row_flip[i] * row_scale[i] / sigma
        duals.append(d)

    sol = LPSolution(
        status="optimal",
        x=tuple(x),
        duals=tuple(duals),
        objective=objective,
    )
    if verify:
        _verify_certificate(lp, sol)
    return sol


def _verify_certificate(lp: LPInstance, sol: LPSolution) -> None:
    assert sol.x is not None and sol.duals is not None
    x, duals = sol.x, sol.duals
    dual_obj = Fraction(0)
    for (coeffs, sense, rhs), d in zip(lp.rows, duals):
        lhs = sum((c * v for c, v in zip(coeffs, x)), Fraction(0))
        if sense == "==" and lhs != rhs:
            raise LPError("primal equality violated")
        if sense == "<=":
            if lhs > rhs:
                raise LPError("primal <= row violated")
            if d < 0:
                raise LPError("dual sign on <= row")
        if sense == ">=":
            if lhs < rhs:
                raise LPError("primal >= row violated")
            if d > 0:
                raise LPError("dual sign on >= row")
        dual_obj += d * rhs
    for j in range(lp.n_vars):
        coef = sum(
            (duals[i] * lp.rows[i][0][j] for i in range(len(lp.rows))), Fraction(0)
        )
        if lp.free[j]:
            if coef != lp.objective[j]:
                raise LPError("dual stationarity violated on free variable")
        else:
            if x[j] < 0:
                raise LPError("nonnegative variable went negative")
            if coef < lp.objective[j]:
                raise LPError("dual feasibility violated on bounded variable")
    if dual_obj != sol.objective:
        raise LPError("strong duality certificate failed")
