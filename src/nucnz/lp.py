"""Exact rational LP solving: two-phase simplex with integer pivoting.

The tableau has one column per variable (free variables are not split),
one unit column per row (a slack on an inequality, an artificial on an
equality), one phase-1 helper column, then b.  Each free variable is
pivoted once into a row that holds none yet; that row takes no part in
any ratio test, so the variable never leaves.  The helper then covers
every row whose basic value is negative and enters at the most negative
one, which makes the basis feasible, and phase 1 minimizes the helper
plus the artificials still basic.  The duals are the reduced costs of the
unit columns at the optimum.

The tableau holds arbitrary-precision integers with a single running
denominator (the previous pivot, as in Bareiss elimination), so no
rational normalization happens in the hot loop, every division is
checked to be exact and every intermediate quantity is exact.  A Dantzig
pivot rule is used first for speed and the solver switches permanently
to Bland's rule after a fixed number of iterations, which guarantees
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

    def __init__(self, rows: list[list[int]], costs: list[list[int]]):
        self.rows = rows
        self.costs = costs
        self.den = 1

    def pivot(self, r: int, c: int) -> None:
        # Bareiss step with the pivot's sign folded in, so that the shared
        # denominator stays positive: every other row becomes
        # (|p| row - sign(p) f rowr) / den, and each division must be exact.
        # A row with f == 0 is unchanged when |p| == den.
        den = self.den
        rowr = self.rows[r]
        p = rowr[c]
        sign = -1 if p < 0 else 1
        p *= sign
        for block in (self.rows, self.costs):
            for row in block:
                if row is rowr:
                    continue
                f = row[c] * sign
                if f:
                    for j in range(len(row)):
                        q, rem = divmod(p * row[j] - f * rowr[j], den)
                        if rem:
                            raise LPError("integer pivot lost exactness")
                        row[j] = q
                elif p != den:
                    for j in range(len(row)):
                        q, rem = divmod(p * row[j], den)
                        if rem:
                            raise LPError("integer pivot lost exactness")
                        row[j] = q
        if sign < 0:
            rowr[:] = [-v for v in rowr]
        self.den = p


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


def _choose_leaving(tab: _Tableau, c: int, basis: list[int], rest: list[int]) -> int | None:
    best = None
    best_b = 0
    best_t = 0
    for i in rest:
        row = tab.rows[i]
        t = row[c]
        if t > 0:
            b = row[-1]
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

    # Row i is scaled to integers by orient[i], negated on ">=" rows so
    # that its unit column n + i is a +1 slack.
    helper = n + m
    bcol = helper + 1
    sigma = lcm(*(v.denominator for v in lp.objective))
    # Phase-2 cost row: minimize -sigma * objective.
    cost2 = [-int(v * sigma) for v in lp.objective] + [0] * (m + 2)
    rows: list[list[int]] = []
    orient: list[int] = []
    for i, (coeffs, sense, rhs) in enumerate(lp.rows):
        rho = lcm(rhs.denominator, *(v.denominator for v in coeffs))
        if sense == ">=":
            rho = -rho
        row = [int(v * rho) for v in coeffs] + [0] * (m + 2)
        row[n + i] = 1
        row[bcol] = int(rhs * rho)
        rows.append(row)
        orient.append(rho)
    tab = _Tableau(rows, [cost2])
    basis = [n + i for i in range(m)]
    equality = [sense == "==" for _, sense, _ in lp.rows]
    artificial = {n + i for i in range(m) if equality[i]}

    # Each free variable enters once, in a row that holds none yet, and
    # never leaves: its row takes no part in any ratio test.
    rest = list(range(m))
    for j in range(n):
        if lp.free[j]:
            r = _free_row(rows, rest, j, equality)
            if r is not None:
                tab.pivot(r, j)
                basis[r] = j
                rest.remove(r)

    structural = [j for j in range(n) if not lp.free[j]]
    structural += [n + i for i in range(m) if not equality[i]]
    bland_after = 100 + 10 * (m + bcol)

    def run(cost_row: list[int], allowed: list[int]) -> str:
        iters = 0
        while True:
            iters += 1
            if iters > 500000:
                raise LPError("simplex iteration cap exceeded")
            c = _choose_entering(cost_row, allowed, bland=iters > bland_after)
            if c is None:
                return "optimal"
            r = _choose_leaving(tab, c, basis, rest)
            if r is None:
                return "unbounded"
            tab.pivot(r, c)
            basis[r] = c

    # Phase 1: the helper column covers every row with a negative basic
    # value and enters at the most negative one; then minimize the helper
    # plus the basic artificials.
    negative = [i for i in rest if rows[i][bcol] < 0]
    held = [i for i in rest if basis[i] in artificial]
    if negative or any(rows[i][bcol] for i in held):
        den = tab.den
        for i in negative:
            rows[i][helper] = -den
        cost1 = [0] * (bcol + 1)
        cost1[helper] = den
        for i in held:
            for j, v in enumerate(rows[i]):
                cost1[j] -= v
            cost1[basis[i]] += den
        tab.costs.append(cost1)
        if negative:
            r = min(negative, key=lambda i: rows[i][bcol])
            tab.pivot(r, helper)
            basis[r] = helper
        if run(cost1, structural + [helper]) != "optimal":
            raise LPError("phase 1 cannot be unbounded")
        if cost1[bcol] < 0:
            return LPSolution(status="infeasible")
        tab.costs.pop()
    # Drive the helper and the artificials out; they are basic at zero,
    # so these pivots are degenerate whatever the sign of the entry.
    for r in rest:
        if basis[r] == helper or basis[r] in artificial:
            target = next((j for j in structural if rows[r][j]), None)
            if target is not None:
                tab.pivot(r, target)
                basis[r] = target
            # Otherwise the row is redundant; its artificial stays basic
            # at zero and never moves (no allowed column has an entry).

    # A free variable that found no row has a zero column in every row
    # left to the simplex: if it still has a cost, it is a free ray.
    basic = set(basis)
    if any(cost2[j] for j in range(n) if lp.free[j] and j not in basic):
        return LPSolution(status="unbounded")
    if run(cost2, structural) == "unbounded":
        return LPSolution(status="unbounded")

    den = tab.den
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(rows[r][bcol], den)
    objective = sum((cj * xj for cj, xj in zip(lp.objective, x)), Fraction(0))
    # The reduced cost of row i's unit column is minus its dual in the
    # scaled, oriented, minimizing form.
    duals = tuple(Fraction(cost2[n + i] * orient[i], den * sigma) for i in range(m))

    sol = LPSolution(status="optimal", x=tuple(x), duals=duals, objective=objective)
    if verify:
        _verify_certificate(lp, sol)
    return sol


def _free_row(rows: list[list[int]], rest: list[int], j: int, equality: list[bool]) -> int | None:
    """The row of ``rest`` where free column j enters: an inequality row
    before an equality, then the smallest |b_i / a_ij|, then the lowest
    index.  (Of the rules tried, this one left the fewest LP solves in
    the nucleolus schemes.)"""
    best = None
    for i in rest:
        a = rows[i][j]
        if a and (
            best is None
            or (equality[i], abs(rows[i][-1] * rows[best][j]))
            < (equality[best], abs(rows[best][-1] * a))
        ):
            best = i
    return best


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
