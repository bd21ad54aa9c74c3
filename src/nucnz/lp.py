"""Exact rational LP solving: two-phase simplex with integer pivoting.

The tableau has one column per variable (free variables are not split),
one unit column per row (a slack on an inequality, an artificial on an
equality), one phase-1 helper column, then b.  Each free variable is
pivoted once into a row that holds none yet; that row takes no part in
any ratio test, so the variable never leaves.  The helper then covers
every row whose basic value is negative and enters at the most negative
one, which makes the basis feasible, and phase 1 minimizes the helper
plus the artificials still basic.  Only then is the objective priced out
against the feasible basis, and phase 2 runs.  The duals are the reduced
costs of the unit columns at the optimum.

A feasible basis stays feasible under any objective.  An optimal solution
therefore keeps its final tableau, and a solve over the same rows with
another objective can start from it (``start=``): it copies that basis,
prices its own objective out and runs phase 2 only.  A cold solve differs
only in where its feasible basis comes from.

The tableau holds arbitrary-precision integers with a single running
denominator (the previous pivot, as in Bareiss elimination), so no
rational normalization happens in the hot loop, every division is
checked to be exact and every intermediate quantity is exact.  Each row,
the cost rows included, is a dict from column to nonzero entry, and a
pivot touches only nonzeros: the unit columns make a dense tableau
mostly zeros (on the all-coalition LPs of ``reference_nucleolus`` about
nine entries in ten that a pivot passes over).  A Dantzig
pivot rule is used first for speed and the solver switches permanently
to Bland's rule after a fixed number of iterations, which guarantees
termination.  Optimal solutions come with exact duals, and a strong
duality certificate is checked before returning.  The check reads only
the instance and the returned solution, never the tableau, and runs in
integers: x and the duals over one denominator each, and each row scaled
by the lcm of its own denominators, once for each rows object in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import Sequence

from .linalg import integer_scaled

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
    objective == sum_i d_i b_i (checked exactly).  ``basis`` is the final
    basis of an optimal solve, for ``solve_lp_exact(..., start=)``; it takes
    no part in equality or repr.
    """

    status: str
    x: tuple[Fraction, ...] | None = None
    duals: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None
    basis: _Basis | None = field(default=None, compare=False, repr=False)


class _Tableau:
    """Integer simplex tableau with a shared denominator.  Each row is a
    dict from column to its nonzero entries; column ``bcol`` holds b."""

    def __init__(self, rows: list[dict[int, int]], costs: list[dict[int, int]], bcol: int):
        self.rows = rows
        self.costs = costs
        self.bcol = bcol
        self.den = 1

    def pivot(self, r: int, c: int) -> None:
        # Bareiss step with the pivot's sign folded in, so that the shared
        # denominator stays positive: every other row becomes
        # (|p| row - sign(p) f rowr) / den, and each division must be exact.
        # A column outside rowr's support is only scaled; one inside it is
        # combined and dropped if it cancels (column c always does).  A row
        # with f == 0 is unchanged when |p| == den.
        den = self.den
        rowr = self.rows[r]
        p = rowr[c]
        sign = -1 if p < 0 else 1
        p *= sign
        pivot_items = list(rowr.items())
        for block in (self.rows, self.costs):
            for row in block:
                if row is rowr:
                    continue
                f = row.get(c, 0) * sign
                if f:
                    for j, v in row.items():
                        if j not in rowr:
                            q, rem = divmod(p * v, den)
                            if rem:
                                raise LPError("integer pivot lost exactness")
                            row[j] = q
                    for j, v in pivot_items:
                        v = p * row.get(j, 0) - f * v
                        if v:
                            q, rem = divmod(v, den)
                            if rem:
                                raise LPError("integer pivot lost exactness")
                            row[j] = q
                        elif j in row:
                            del row[j]
                elif p != den:
                    for j, v in row.items():
                        q, rem = divmod(p * v, den)
                        if rem:
                            raise LPError("integer pivot lost exactness")
                        row[j] = q
        if sign < 0:
            for j, v in pivot_items:
                rowr[j] = -v
        self.den = p


@dataclass(eq=False)
class _Basis:
    """A simplex basis of one instance's rows, feasible once phase 1 is
    done: the tableau, the basic column of each row, the rows without a
    free variable (the only ones in a ratio test), the columns the simplex
    may enter and the sign and scale of each row."""

    rows: tuple  # the instance's rows, matched by identity
    free: tuple[bool, ...]
    tab: _Tableau
    basis: list[int]
    rest: tuple[int, ...]
    structural: tuple[int, ...]
    orient: tuple[int, ...]

    def copy(self) -> "_Basis":
        tab = _Tableau([dict(row) for row in self.tab.rows], [], self.tab.bcol)
        tab.den = self.tab.den
        return replace(self, tab=tab, basis=list(self.basis))

    def run(self, cost_row: dict[int, int], allowed: Sequence[int]) -> str:
        """Pivot on ``cost_row`` until it is optimal or a column is
        unbounded: Dantzig's rule first, then Bland's for good, which
        terminates."""
        tab, basis = self.tab, self.basis
        bland_after = 100 + 10 * (len(tab.rows) + tab.bcol)
        iters = 0
        while True:
            iters += 1
            if iters > 500000:
                raise LPError("simplex iteration cap exceeded")
            c = _choose_entering(cost_row, allowed, bland=iters > bland_after)
            if c is None:
                return "optimal"
            r = _choose_leaving(tab, c, basis, self.rest)
            if r is None:
                return "unbounded"
            tab.pivot(r, c)
            basis[r] = c


def _choose_entering(cost: dict[int, int], allowed: Sequence[int], bland: bool) -> int | None:
    if bland:
        for j in allowed:
            if cost.get(j, 0) < 0:
                return j
        return None
    best = None
    best_v = 0
    for j in allowed:
        v = cost.get(j, 0)
        if v < best_v:
            best_v = v
            best = j
    return best


def _choose_leaving(tab: _Tableau, c: int, basis: list[int], rest: Sequence[int]) -> int | None:
    best = None
    best_b = 0
    best_t = 0
    bcol = tab.bcol
    for i in rest:
        row = tab.rows[i]
        t = row.get(c, 0)
        if t > 0:
            b = row.get(bcol, 0)
            if best is None:
                best, best_b, best_t = i, b, t
            else:
                lhs = b * best_t
                rhs = best_b * t
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best, best_b, best_t = i, b, t
    return best


def solve_lp_exact(lp: LPInstance, start: LPSolution | None = None) -> LPSolution:
    """Solve a rational LP exactly; always returns a status, never raises
    for infeasible or unbounded instances.  An optimal solution is
    returned only after its certificate checks.

    ``start``, an optimal solution over the same ``rows`` object and the
    same ``free`` flags, supplies a feasible basis in place of phase 1:
    the solve copies it and runs phase 2 only.
    """
    if start is None:
        feasible = _feasible_basis(lp)
        if feasible is None:
            return LPSolution(status="infeasible")
    elif start.basis is None:
        raise ValueError(f"a {start.status} solution has no basis to start from")
    elif start.basis.rows is not lp.rows or start.basis.free != lp.free:
        raise ValueError("start solves other rows or other free flags")
    else:
        feasible = start.basis.copy()

    n = lp.n_vars
    m = len(lp.rows)
    tab, basis = feasible.tab, feasible.basis
    rows, bcol, den = tab.rows, tab.bcol, tab.den
    # Phase-2 cost row: minimize -sigma * objective.  Over the running
    # denominator it is den c - sum_r c_basis[r] rows[r], which is the row
    # the pivots so far would have made of c, because Bareiss keeps every
    # basic column at den.
    scaled, sigma = integer_scaled(lp.objective)
    cost2 = {j: -den * v for j, v in enumerate(scaled) if v}
    for r, j in enumerate(basis):
        if j < n and scaled[j]:
            for k, v in rows[r].items():
                cost2[k] = cost2.get(k, 0) + scaled[j] * v
    cost2 = {j: v for j, v in cost2.items() if v}
    tab.costs = [cost2]

    # A free variable that found no row has a zero column in every row
    # left to the simplex: if it still has a cost, it is a free ray.
    basic = set(basis)
    if any(j in cost2 for j in range(n) if lp.free[j] and j not in basic):
        return LPSolution(status="unbounded")
    if feasible.run(cost2, feasible.structural) == "unbounded":
        return LPSolution(status="unbounded")

    den = tab.den
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(rows[r].get(bcol, 0), den)
    objective = sum((cj * xj for cj, xj in zip(lp.objective, x)), Fraction(0))
    # The reduced cost of row i's unit column is minus its dual in the
    # scaled, oriented, minimizing form.
    orient = feasible.orient
    duals = tuple(Fraction(cost2.get(n + i, 0) * orient[i], den * sigma) for i in range(m))

    sol = LPSolution(
        status="optimal", x=tuple(x), duals=duals, objective=objective, basis=feasible
    )
    _verify_certificate(lp, sol)
    return sol


def _feasible_basis(lp: LPInstance) -> _Basis | None:
    """Free-variable pivots, phase 1 and the drive-out: a feasible basis of
    ``lp.rows``, or None if the rows are infeasible."""
    n = lp.n_vars
    m = len(lp.rows)

    # Row i is scaled to integers by orient[i], negated on ">=" rows so
    # that its unit column n + i is a +1 slack.
    helper = n + m
    bcol = helper + 1
    rows: list[dict[int, int]] = []
    orient: list[int] = []
    for i, (coeffs, sense, rhs) in enumerate(lp.rows):
        scaled, rho = integer_scaled((*coeffs, rhs))
        if sense == ">=":
            scaled = [-v for v in scaled]
            rho = -rho
        row = {j: v for j, v in enumerate(scaled[:n]) if v}
        row[n + i] = 1
        if scaled[n]:
            row[bcol] = scaled[n]
        rows.append(row)
        orient.append(rho)
    tab = _Tableau(rows, [], bcol)
    basis = [n + i for i in range(m)]
    equality = [sense == "==" for _, sense, _ in lp.rows]
    structural = [j for j in range(n) if not lp.free[j]]
    structural += [n + i for i in range(m) if not equality[i]]
    artificial = {n + i for i in range(m) if equality[i]}

    # Each free variable enters once, in a row that holds none yet, and
    # never leaves: its row takes no part in any ratio test.
    rest = list(range(m))
    for j in range(n):
        if lp.free[j]:
            r = _free_row(tab, rest, j, equality)
            if r is not None:
                tab.pivot(r, j)
                basis[r] = j
                rest.remove(r)
    feasible = _Basis(lp.rows, lp.free, tab, basis, tuple(rest), tuple(structural), tuple(orient))

    # Phase 1: the helper column covers every row with a negative basic
    # value and enters at the most negative one; then minimize the helper
    # plus the basic artificials.
    negative = [i for i in rest if rows[i].get(bcol, 0) < 0]
    held = [i for i in rest if basis[i] in artificial]
    if negative or any(bcol in rows[i] for i in held):
        den = tab.den
        for i in negative:
            rows[i][helper] = -den
        cost1 = {helper: den}
        for i in held:
            for j, v in rows[i].items():
                cost1[j] = cost1.get(j, 0) - v
            cost1[basis[i]] = cost1.get(basis[i], 0) + den
        cost1 = {j: v for j, v in cost1.items() if v}
        tab.costs.append(cost1)
        if negative:
            r = min(negative, key=lambda i: rows[i][bcol])
            tab.pivot(r, helper)
            basis[r] = helper
        if feasible.run(cost1, structural + [helper]) != "optimal":
            raise LPError("phase 1 cannot be unbounded")
        if cost1.get(bcol, 0) < 0:
            return None
        tab.costs.pop()
    # Drive the helper and the artificials out; they are basic at zero,
    # so these pivots are degenerate whatever the sign of the entry.
    for r in rest:
        if basis[r] == helper or basis[r] in artificial:
            target = next((j for j in structural if j in rows[r]), None)
            if target is not None:
                tab.pivot(r, target)
                basis[r] = target
            # Otherwise the row is redundant; its artificial stays basic
            # at zero and never moves (no allowed column has an entry).
    return feasible


def _free_row(tab: _Tableau, rest: list[int], j: int, equality: list[bool]) -> int | None:
    """The row of ``rest`` where free column j enters: an inequality row
    before an equality, then the smallest |b_i / a_ij|, then the lowest
    index.  (Of the rules tried, this one left the fewest LP solves in
    the nucleolus schemes.)"""
    rows, bcol = tab.rows, tab.bcol
    best = None
    for i in rest:
        a = rows[i].get(j, 0)
        if a and (
            best is None
            or (equality[i], abs(rows[i].get(bcol, 0) * rows[best][j]))
            < (equality[best], abs(rows[best].get(bcol, 0) * a))
        ):
            best = i
    return best


# The rows object last checked, its rows scaled to integers and the lcm of
# their scales.  A level's pinning LPs share one rows tuple, so the check
# scales it once for all of them.  It is matched by identity: the rows of an
# LPInstance are nested tuples and cannot change.
_scaled_rows: tuple = (None, [], 1)


def _integer_rows(rows) -> tuple[list[tuple[list[int], int]], int]:
    global _scaled_rows
    if _scaled_rows[0] is not rows:
        scaled = [integer_scaled((*coeffs, rhs)) for coeffs, _, rhs in rows]
        _scaled_rows = (rows, scaled, lcm(*(rho for _, rho in scaled)))
    return _scaled_rows[1], _scaled_rows[2]


def _verify_certificate(lp: LPInstance, sol: LPSolution) -> None:
    """Check primal feasibility, dual signs, stationarity and strong duality
    from ``lp`` and ``sol`` alone.  A dual is carried into the sums over its
    row times common // rho, so every row stands over the common lcm."""
    assert sol.x is not None and sol.duals is not None
    if len(sol.x) != lp.n_vars or len(sol.duals) != len(lp.rows):
        raise LPError("solution shape does not match the instance")
    x, dx = integer_scaled(sol.x)
    duals, dd = integer_scaled(sol.duals)
    rows, common = _integer_rows(lp.rows)
    # Below, dual_obj and coefs (the sum of d_i a_i) are scaled by dd * common.
    dual_obj = 0
    coefs = [0] * lp.n_vars
    for (_, sense, _), (row, rho), d in zip(lp.rows, rows, duals):
        lhs = sum(c * v for c, v in zip(row, x))
        rhs = row[-1] * dx
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
        if d:
            e = d * (common // rho)
            dual_obj += e * row[-1]
            coefs = [a + e * c for a, c in zip(coefs, row)]
    scale = dd * common
    for j, (coef, obj) in enumerate(zip(coefs, lp.objective)):
        if lp.free[j]:
            if coef * obj.denominator != obj.numerator * scale:
                raise LPError("dual stationarity violated on free variable")
        else:
            if x[j] < 0:
                raise LPError("nonnegative variable went negative")
            if coef * obj.denominator < obj.numerator * scale:
                raise LPError("dual feasibility violated on bounded variable")
    if dual_obj * sol.objective.denominator != sol.objective.numerator * scale:
        raise LPError("strong duality certificate failed")
