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

An optimal solution keeps its final tableau, and a later solve can start
from it (``start=``), copying it so that no solution is ever changed:

* over the same rows with another objective: a feasible basis stays
  feasible under any objective, so the solve prices its own objective out
  and runs phase 2 only;
* over these rows plus appended inequalities, under the same objective:
  each new row is reduced against the basis with its slack basic, which
  keeps the basis dual feasible, and Lemke's dual simplex restores primal
  feasibility.  The most negative basic value leaves; the least ratio
  cost_j / |a_rj| enters, ties to the largest |a_rj| and then the lowest
  column.  After a fixed number of iterations the dual Bland rule (lowest
  basic column leaves, lowest column enters among ties) takes over for
  good, which terminates.

A cold solve differs only in where its basis comes from.

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
by the lcm of its own denominators, once per row while each rows tuple
extends the one checked before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .linalg import integer_scaled

__all__ = ["LPInstance", "LPSolution", "LPError", "solve_lp_exact"]

SENSES = ("==", "<=", ">=")

# Column keys of b and of the phase-1 helper.  Row i's unit column is n + i,
# and neither key can be one: b sorts before every column, and the helper
# after every unit column, as no list holds 2**63 rows.  So rows appended
# to a basis take their unit columns without moving either.
_B = -1
_HELPER = 1 << 63

# Dual simplex iterations before the dual Bland rule takes over for good.
DUAL_BLAND_AFTER = 50


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
    dict from column to its nonzero entries; column ``_B`` holds b."""

    def __init__(self, rows: list[dict[int, int]], costs: list[dict[int, int]]):
        self.rows = rows
        self.costs = costs
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


class _Basis:
    """A simplex basis of one instance's rows, feasible once phase 1 is
    done: the instance's rows (matched row by row by identity), its free
    flags, the objective the cost row prices, the tableau, the basic column
    of each row, the rows without a free variable (the only ones in a ratio
    test), the columns the simplex may enter and the sign and scale of each
    row.  It is a plain class: a dataclass would add its construction to
    every import of the package."""

    def __init__(self, rows, free, objective, tab, basis, rest, structural, orient):
        self.rows, self.free, self.objective = rows, free, objective
        self.tab, self.basis, self.rest = tab, basis, rest
        self.structural, self.orient = structural, orient

    def copy(self) -> "_Basis":
        tab = _Tableau([dict(r) for r in self.tab.rows], [dict(r) for r in self.tab.costs])
        tab.den = self.tab.den
        return _Basis(
            self.rows, self.free, self.objective, tab, list(self.basis),
            self.rest, self.structural, self.orient,
        )

    def append(self, rows: tuple) -> None:
        """Extend the basis to ``rows``, which continue ``self.rows`` with
        inequalities.  Each new row enters as den a - sum_r a_basis[r] row_r
        with its slack basic at den: its entries are minors of the bordered
        matrix, so every later Bareiss division stays exact.  The cost row
        keeps its entries, as a slack costs nothing.  A row with an entry in
        a free column that found no row takes that column at once, as in a
        cold solve."""
        tab, basis, n = self.tab, self.basis, len(self.free)
        for i in range(len(self.rows), len(rows)):
            a, rho = _integer_row(n, i, *rows[i])
            row = {j: tab.den * v for j, v in a.items()}
            for r, j in enumerate(basis):
                f = a.get(j) if j < n else None
                if f:
                    for k, v in tab.rows[r].items():
                        row[k] = row.get(k, 0) - f * v
            # Every basic column cancels, so a free column left in the row
            # is one that found no row.
            row = {j: v for j, v in row.items() if v}
            tab.rows.append(row)
            basis.append(n + i)
            free = next((j for j in range(n) if self.free[j] and j in row), None)
            if free is None:
                self.rest += (i,)
            else:
                tab.pivot(i, free)
                basis[i] = free
            self.structural += (n + i,)
            self.orient += (rho,)
        self.rows = rows

    def dual(self, cost_row: dict[int, int]) -> str:
        """Lemke's dual simplex from a basis that ``cost_row`` prices dual
        feasible: "optimal" once no row of ``rest`` has a negative basic
        value, "infeasible" when such a row has no entry that may enter."""
        tab, basis, rows = self.tab, self.basis, self.tab.rows
        allowed = set(self.structural)
        iters = 0
        while True:
            iters += 1
            if iters > 500000:
                raise LPError("dual simplex iteration cap exceeded")
            bland = iters > DUAL_BLAND_AFTER
            negative = [i for i in self.rest if rows[i].get(_B, 0) < 0]
            if not negative:
                return "optimal"
            if bland:
                r = min(negative, key=basis.__getitem__)
            else:
                r = min(negative, key=lambda i: rows[i][_B])
            # The least ratio cost_j / |a_rj| over a_rj < 0; ties go to the
            # largest |a_rj| (not under Bland), then to the lowest column.
            c = None
            for j, a in rows[r].items():
                if a < 0 and j in allowed:
                    if c is None:
                        c, cost_c, a_c = j, cost_row.get(j, 0), -a
                        continue
                    lhs, rhs = cost_row.get(j, 0) * a_c, cost_c * -a
                    if lhs < rhs or lhs == rhs and (
                        j < c if bland or -a == a_c else -a > a_c
                    ):
                        c, cost_c, a_c = j, cost_row.get(j, 0), -a
            if c is None:
                return "infeasible"
            tab.pivot(r, c)
            basis[r] = c

    def run(self, cost_row: dict[int, int], allowed: Sequence[int]) -> str:
        """Pivot on ``cost_row`` until it is optimal or a column is
        unbounded: Dantzig's rule first, then Bland's for good, which
        terminates."""
        tab, basis = self.tab, self.basis
        # m rows plus n + m + 1 columns: variables, unit columns, helper.
        bland_after = 100 + 10 * (2 * len(tab.rows) + len(self.free) + 1)
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
    for i in rest:
        row = tab.rows[i]
        t = row.get(c, 0)
        if t > 0:
            b = row.get(_B, 0)
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

    ``start`` is an optimal solution with the same ``free`` flags over a
    prefix of ``lp.rows`` (the same row objects, in order).  The solve
    copies its basis in place of phase 1.  Over all of the rows, it prices
    its own objective out and runs phase 2 only.  Otherwise the objective
    must be the start's and the appended rows inequalities: they join the
    basis with their slacks basic, and the dual simplex re-optimizes, with
    the dual Bland rule after ``DUAL_BLAND_AFTER`` iterations.  Any other
    start raises ``ValueError``.
    """
    appended = ()
    if start is None:
        feasible = _feasible_basis(lp)
        if feasible is None:
            return LPSolution(status="infeasible")
    elif start.basis is None:
        raise ValueError(f"a {start.status} solution has no basis to start from")
    else:
        held = start.basis.rows
        if (
            len(held) > len(lp.rows)
            or any(a is not b for a, b in zip(held, lp.rows))
            or start.basis.free != lp.free
        ):
            raise ValueError("start solves rows that do not begin these, or other free flags")
        appended = lp.rows[len(held):]
        if appended and start.basis.objective != lp.objective:
            raise ValueError("rows can be appended only under the start's objective")
        if any(sense == "==" for _, sense, _ in appended):
            raise ValueError("an appended row must be an inequality")
        feasible = start.basis.copy()

    n = lp.n_vars
    m = len(lp.rows)
    tab, basis = feasible.tab, feasible.basis
    scaled, sigma = integer_scaled(lp.objective)
    if appended:
        feasible.append(lp.rows)
        cost2 = tab.costs[0]
        if feasible.dual(cost2) == "infeasible":
            return LPSolution(status="infeasible")
    else:
        # Phase-2 cost row: minimize -sigma * objective.  Over the running
        # denominator it is den c - sum_r c_basis[r] rows[r], which is the
        # row the pivots so far would have made of c, because Bareiss keeps
        # every basic column at den.
        den = tab.den
        cost2 = {j: -den * v for j, v in enumerate(scaled) if v}
        for r, j in enumerate(basis):
            if j < n and scaled[j]:
                for k, v in tab.rows[r].items():
                    cost2[k] = cost2.get(k, 0) + scaled[j] * v
        cost2 = {j: v for j, v in cost2.items() if v}
        tab.costs = [cost2]
        feasible.objective = lp.objective

        # A free variable that found no row has a zero column in every row
        # left to the simplex: if it still has a cost, it is a free ray.
        basic = set(basis)
        if any(j in cost2 for j in range(n) if lp.free[j] and j not in basic):
            return LPSolution(status="unbounded")
    if feasible.run(cost2, feasible.structural) == "unbounded":
        return LPSolution(status="unbounded")

    rows = tab.rows
    den = tab.den
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(rows[r].get(_B, 0), den)
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

    rows: list[dict[int, int]] = []
    orient: list[int] = []
    for i, row in enumerate(lp.rows):
        row, rho = _integer_row(n, i, *row)
        rows.append(row)
        orient.append(rho)
    tab = _Tableau(rows, [])
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
    feasible = _Basis(
        lp.rows, lp.free, lp.objective, tab, basis, tuple(rest), tuple(structural), tuple(orient)
    )

    # Phase 1: the helper column covers every row with a negative basic
    # value and enters at the most negative one; then minimize the helper
    # plus the basic artificials.
    negative = [i for i in rest if rows[i].get(_B, 0) < 0]
    held = [i for i in rest if basis[i] in artificial]
    if negative or any(_B in rows[i] for i in held):
        den = tab.den
        for i in negative:
            rows[i][_HELPER] = -den
        cost1 = {_HELPER: den}
        for i in held:
            for j, v in rows[i].items():
                cost1[j] = cost1.get(j, 0) - v
            cost1[basis[i]] = cost1.get(basis[i], 0) + den
        cost1 = {j: v for j, v in cost1.items() if v}
        tab.costs.append(cost1)
        if negative:
            r = min(negative, key=lambda i: rows[i][_B])
            tab.pivot(r, _HELPER)
            basis[r] = _HELPER
        if feasible.run(cost1, structural + [_HELPER]) != "optimal":
            raise LPError("phase 1 cannot be unbounded")
        if cost1.get(_B, 0) < 0:
            return None
        tab.costs.pop()
    # Drive the helper and the artificials out; they are basic at zero,
    # so these pivots are degenerate whatever the sign of the entry.
    for r in rest:
        if basis[r] == _HELPER or basis[r] in artificial:
            target = next((j for j in structural if j in rows[r]), None)
            if target is not None:
                tab.pivot(r, target)
                basis[r] = target
            # Otherwise the row is redundant; its artificial stays basic
            # at zero and never moves (no allowed column has an entry).
    return feasible


def _integer_row(n: int, i: int, coeffs, sense: str, rhs) -> tuple[dict[int, int], int]:
    """Row i scaled to integers, negated on ">=" so that its unit column
    n + i is a +1 slack, and the signed scale that does it."""
    scaled, rho = integer_scaled((*coeffs, rhs))
    if sense == ">=":
        scaled = [-v for v in scaled]
        rho = -rho
    row = {j: v for j, v in enumerate(scaled[:n]) if v}
    row[n + i] = 1
    if scaled[n]:
        row[_B] = scaled[n]
    return row, rho


def _free_row(tab: _Tableau, rest: list[int], j: int, equality: list[bool]) -> int | None:
    """The row of ``rest`` where free column j enters: an inequality row
    before an equality, then the smallest |b_i / a_ij|, then the lowest
    index.  (Of the rules tried, this one left the fewest LP solves in
    the nucleolus schemes.)"""
    rows = tab.rows
    best = None
    for i in rest:
        a = rows[i].get(j, 0)
        if a and (
            best is None
            or (equality[i], abs(rows[i].get(_B, 0) * rows[best][j]))
            < (equality[best], abs(rows[best].get(_B, 0) * a))
        ):
            best = i
    return best


# The rows object last checked, its rows scaled to integers and the lcm of
# their scales.  A level's pinning LPs share one rows tuple, and each cut of
# a level's LP appends one row to the tuple before, so the check scales
# only the rows it has not seen.  A row is matched by identity: the rows of
# an LPInstance are nested tuples and cannot change.
_scaled_rows: tuple = ((), [], 1)


def _integer_rows(rows) -> tuple[list[tuple[list[int], int]], int]:
    global _scaled_rows
    held, scaled, common = _scaled_rows
    if held is not rows:
        if len(held) > len(rows) or any(a is not b for a, b in zip(held, rows)):
            held, scaled, common = (), [], 1
        new = [integer_scaled((*coeffs, rhs)) for coeffs, _, rhs in rows[len(held):]]
        scaled = scaled + new
        _scaled_rows = (rows, scaled, lcm(common, *(rho for _, rho in new)))
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
