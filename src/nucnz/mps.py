"""Nucleolus computation by the successive-fixing LP scheme.

Each level maximizes the worst excess over coalitions outside the span of
the already-fixed ones, then fixes every not-yet-spanned coalition whose
optimal dual is nonzero.  Levels repeat until the fixed incidence vectors
(together with the grand coalition) span the whole payoff space, at which
point the allocation is unique.

The per-level LP is solved by cutting planes: the working LP starts from
the singleton rows plus the efficiency equality, and a separation oracle
supplies violated coalition rows.  Each level is one LP session.  The
first level's first LP is solved cold.  Each later level's first LP
resumes the optimum (y*, xi*) of the level before, which satisfies all of
its rows (Maschler, Peleg and Shapley 1979): a newly fixed row
y(S) = v(S) + xi* is tight there, and the carried-over cuts hold; the
cuts the span now holds are dropped.  Each cut appends one row and
re-optimizes from the optimum before by dual simplex.  :func:`least_core`
and :func:`reference_nucleolus` solve their first LPs cold.

``mode="enumerate"`` uses the exhaustive scan
:func:`~nucnz.games.min_excess_where` as the oracle, keeping the
coalitions outside the span; ``mode="oracle"`` takes a caller-supplied
solver for the subspace-avoiding minimum-excess problem.  A second,
independent algorithm (:func:`reference_nucleolus`) solves each level
with all constraint rows explicit and fixes coalitions by an auxiliary-LP
pinning test instead of dual support, or by span closure when a tight
coalition lies in the span of those already fixed; the two must agree
exactly on every game.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from typing import Callable, Sequence

from .games import (
    Allocation,
    CapExceededError,
    ExcessReport,
    GameOracle,
    _require_within_cap,
    as_value_game,
    coalition_members,
    coalition_sum,
    coalition_vector,
    dot_table,
    min_excess_where,
)
from .linalg import LinearSubspace, fold_kernel, integer_kernel_basis, integer_scaled, rat_str
from .lp import LPInstance, LPSolution, solve_lp_exact

__all__ = [
    "MpsError",
    "IterationRecord",
    "NucleolusResult",
    "LsaSolver",
    "mps_nucleolus",
    "reference_nucleolus",
    "least_core",
]

LsaSolver = Callable[[GameOracle, Sequence[Fraction], LinearSubspace], ExcessReport]
ValueFn = Callable[[int], Fraction]

# reference_nucleolus solves LPs with a row for each of the 2^n
# coalitions.  On random_monotone_game(n, 1) it took 0.006 / 0.013 / 0.054 s
# at n = 6 / 7 / 8 (medians of 7 / 5 / 3 runs, Python 3.11, one core of a
# shared 2-core Intel Xeon), so each player past 7 multiplies a validator
# run by about four.
REFERENCE_MAX_PLAYERS = 7


class MpsError(RuntimeError):
    """Scheme-level failure: oracle inconsistency or missing progress."""


@dataclass(frozen=True)
class IterationRecord:
    xi: Fraction
    fixed: tuple[int, ...]
    duals: dict[int, Fraction]


@dataclass(frozen=True)
class NucleolusResult:
    allocation: Allocation
    trace: tuple[IterationRecord, ...]

    def to_json_dict(self) -> dict:
        return {
            "allocation": [rat_str(v) for v in self.allocation],
            "trace": [
                {
                    "xi": rat_str(rec.xi),
                    "fixed": list(rec.fixed),
                    "duals": {str(m): rat_str(z) for m, z in sorted(rec.duals.items())},
                }
                for rec in self.trace
            ],
        }


def _outside(span: LinearSubspace, n: int) -> bytearray:
    """Flag of every mask whose incidence vector avoids ``span``.

    The kernel is folded into one vector, so a single pass decides
    membership; its large dot products are dropped as soon as they are
    flagged.
    """
    return bytearray(map(bool, dot_table(fold_kernel(integer_kernel_basis(span)), n)))


def _enumerate_sep(vg: GameOracle) -> LsaSolver:
    """Exhaustive separation: scan the coalitions outside the span."""
    _require_within_cap(vg)
    n = vg.player_count
    # The flags of the latest span only: a level passes one span object to
    # every separation, and the held reference keeps that object alive.
    held_span = held_outside = None

    def sep(_g: GameOracle, y: Sequence[Fraction], span: LinearSubspace) -> ExcessReport:
        nonlocal held_span, held_outside
        if span is not held_span:
            held_span, held_outside = span, _outside(span, n)
        return min_excess_where(vg, y, held_outside)

    return sep


def _cut_row(n: int, value: ValueFn, mask: int) -> tuple:
    """The row y(S) - xi >= v(S) of coalition S."""
    return (*coalition_vector(mask, n), -1), ">=", value(mask)


def _level_lp(rows: Sequence[tuple], n: int) -> LPInstance:
    """Variables are y_0..y_{n-1} and xi (last), all free.  The
    coefficients stay ints, which the LP scales to integers as they are."""
    return LPInstance((0,) * n + (1,), tuple(rows), (True,) * (n + 1))


def _solve_level(
    vg: GameOracle,
    value: ValueFn,
    lp: LPInstance,
    start: LPSolution | None,
    span: LinearSubspace,
    sep: LsaSolver,
    cuts: list[int],
) -> tuple[LPInstance, LPSolution]:
    """Cutting-plane solve of one level, whose LP ``lp`` ends with the
    rows of ``cuts``.  Returns the level's last LP and its optimum.

    One LP session per level.  Its first LP resumes ``start``, the
    optimum of the level before (``solve_lp_exact(..., start=)``), or is
    solved cold when ``start`` is None.  The point of ``start`` satisfies
    every row: the rows newly fixed at xi* are tight there, and the
    carried-over cuts hold.  Each cut appends its row to the LP before and
    re-solves from the previous optimum, by dual simplex.  ``value`` is
    the solve's memoised ``vg.value``.
    """
    n = vg.player_count
    cut_set = set(cuts)
    sol = solve_lp_exact(lp, start)
    while True:
        if sol.status != "optimal":
            raise MpsError(f"level LP came back {sol.status}")
        y = sol.x[:n]
        xi = sol.x[n]
        rep = sep(vg, y, span)
        true_excess = coalition_sum(y, rep.coalition) - value(rep.coalition)
        if true_excess != rep.excess:
            raise MpsError(
                f"oracle inconsistency: reported excess {rep.excess} but "
                f"coalition {rep.coalition} has excess {true_excess}"
            )
        if span.contains(coalition_vector(rep.coalition, n)):
            raise MpsError("oracle returned a coalition inside the span")
        if rep.excess >= xi:
            return lp, sol
        if rep.coalition in cut_set:
            raise MpsError(
                "oracle reported an already-generated row as violated"
            )
        cuts.append(rep.coalition)
        cut_set.add(rep.coalition)
        lp = replace(lp, rows=lp.rows + (_cut_row(n, value, rep.coalition),))
        sol = solve_lp_exact(lp, sol)


def _separator(vg: GameOracle, mode: str, sep: LsaSolver | None) -> LsaSolver:
    if mode == "enumerate":
        return _enumerate_sep(vg)
    if mode == "oracle":
        if sep is None:
            raise ValueError("oracle mode needs a separation solver")
        return sep
    raise ValueError(f"unknown mode {mode!r}")


def _payoff(g: GameOracle, y: Sequence[Fraction]) -> Allocation:
    """Undo the value view's negation for cost games."""
    return tuple(-v for v in y) if g.kind == "cost" else tuple(y)


def _result(
    g: GameOracle, y: Sequence[Fraction] | None, records: list[IterationRecord]
) -> NucleolusResult:
    if y is None:
        # Nothing to fix (single player): efficiency pins the allocation.
        y = (as_value_game(g).grand_value(),)
    return NucleolusResult(allocation=_payoff(g, y), trace=tuple(records))


def mps_nucleolus(
    g: GameOracle,
    mode: str = "enumerate",
    sep: LsaSolver | None = None,
) -> NucleolusResult:
    """Compute the nucleolus; cost games are handled by sign adaptation.

    ``mode="enumerate"`` separates by exhaustive coalition enumeration and
    is capped by the enumeration limit; ``mode="oracle"`` requires ``sep``,
    an exact solver for the subspace-avoiding minimum-excess problem of
    this game.  Both modes fix by nonzero duals of the level optimum and
    must produce identical allocations.
    """
    vg = as_value_game(g)
    n = vg.player_count
    oracle = _separator(vg, mode, sep)
    value = cache(vg.value)

    full = (1 << n) - 1
    span = LinearSubspace.from_rows([coalition_vector(full, n)], n)
    grand = ((*coalition_vector(full, n), 0), "==", value(full))
    fixed: list[tuple] = []
    cuts = [1 << p for p in range(n)]
    # Each cut's row object, which the next level's LP carries over.
    cut_rows = {mask: _cut_row(n, value, mask) for mask in cuts}
    records: list[IterationRecord] = []
    last_y: tuple[Fraction, ...] | None = None
    sol = None

    iteration = 0
    while span.dim < n:
        iteration += 1
        if iteration > n + 1:
            raise MpsError(f"no convergence within {n + 1} fixing iterations")
        # Drop the cuts the span now holds: a cut stays when its folded
        # kernel dot product is nonzero.
        avoid = fold_kernel(integer_kernel_basis(span))
        cuts = [m for m in cuts if sum(avoid[p] for p in coalition_members(m))]
        lp = _level_lp((*fixed, grand, *(cut_rows[m] for m in cuts)), n)
        lp, sol = _solve_level(vg, value, lp, sol, span, oracle, cuts)
        xi, last_y = sol.x[n], sol.x[:n]
        offset = len(lp.rows) - len(cuts)
        cut_rows.update(zip(cuts, lp.rows[offset:]))
        duals = {mask: -d for mask, d in zip(cuts, sol.duals[offset:]) if d}
        newly = []
        for mask in sorted(duals):
            vec = coalition_vector(mask, n)
            if not span.contains(vec):
                fixed.append(((*vec, 0), "==", value(mask) + xi))
                span = span.extended(vec)
                newly.append(mask)
        if not newly:
            raise MpsError("level fixed no new coalition")
        records.append(IterationRecord(xi=xi, fixed=tuple(newly), duals=duals))

    return _result(g, last_y, records)


def least_core(g: GameOracle, mode: str = "enumerate", sep: LsaSolver | None = None):
    """Optimal (xi, y) of the first level: the least-core value and one
    least-core allocation."""
    vg = as_value_game(g)
    n = vg.player_count
    oracle = _separator(vg, mode, sep)
    if n == 1:
        return Fraction(0), _payoff(g, (vg.grand_value(),))
    full = (1 << n) - 1
    span = LinearSubspace.from_rows([coalition_vector(full, n)], n)
    value = cache(vg.value)
    cuts = [1 << p for p in range(n)]
    grand = ((*coalition_vector(full, n), 0), "==", value(full))
    lp = _level_lp((grand, *(_cut_row(n, value, m) for m in cuts)), n)
    _, sol = _solve_level(vg, value, lp, None, span, oracle, cuts)
    return sol.x[n], _payoff(g, sol.x[:n])


def reference_nucleolus(g: GameOracle) -> NucleolusResult:
    """Independent validator: explicit LPs plus an auxiliary pinning test.

    Every level solves the LP with rows for all coalitions outside the
    current span, and reads which are tight off one integer table of the
    optimum's coalition sums.  A tight coalition is fixed iff maximizing
    its excess over the level's optimal face cannot move it above the
    level value.  They are taken in mask order against the span extended
    by each one fixed so far: one inside it has a constant excess on the
    face (Maschler, Peleg and Shapley 1979) and is fixed with no LP; any
    other is decided by its own pinning LP, never by a dual.  The face is
    the level LP with the row xi >= xi* appended, which is tight at the
    level optimum, so it continues the level's LP session without a pivot.
    The pinning LPs maximize y(S) over the face's rows, each starting from
    the optimal basis of the one before and running phase 2 only, and each
    must end optimal.  This fixing rule differs from dual support but
    produces the same allocation.
    """
    vg = as_value_game(g)
    n = vg.player_count
    if n > REFERENCE_MAX_PLAYERS:
        raise CapExceededError(f"{n} players exceeds reference cap {REFERENCE_MAX_PLAYERS}")
    table = vg.table()
    vnum, dv = vg.scaled_table()
    full = (1 << n) - 1
    span = LinearSubspace.from_rows([coalition_vector(full, n)], n)
    fixed: list[tuple[int, Fraction]] = []
    records: list[IterationRecord] = []
    last_y: tuple[Fraction, ...] | None = None

    while span.dim < n:
        active = [m for m, out in enumerate(_outside(span, n)) if out]

        rows = [((*coalition_vector(m, n), 0), "==", table[m] + xs) for m, xs in fixed]
        rows.append(((*coalition_vector(full, n), 0), "==", table[full]))
        rows.extend(((*coalition_vector(m, n), -1), ">=", table[m]) for m in active)
        lp = LPInstance((0,) * n + (1,), tuple(rows), (True,) * (n + 1))
        sol = solve_lp_exact(lp)
        if sol.status != "optimal":
            raise MpsError(f"reference level LP came back {sol.status}")
        xi, last_y = sol.x[n], sol.x[:n]
        duals = {mask: -d for mask, d in zip(active, sol.duals[len(fixed) + 1:]) if d}

        # S is tight iff y(S) - v(S) == xi, over the denominator dx * dv.
        xnum, dx = integer_scaled(sol.x)
        ysum, target = dot_table(xnum, n), xnum[n] * dv
        tight = [m for m in active if ysum[m] * dv - vnum[m] * dx == target]
        face = replace(lp, rows=lp.rows + (((0,) * n + (1,), ">=", xi),))
        start = solve_lp_exact(face, sol)
        if start.status != "optimal":
            raise MpsError(f"reference face LP came back {start.status}")
        pinned = []
        for mask in tight:
            vec = coalition_vector(mask, n)
            if not span.contains(vec):
                start = solve_lp_exact(replace(face, objective=(*vec, 0)), start)
                if start.status != "optimal":
                    raise MpsError(f"reference pinning LP came back {start.status}")
                if start.objective != table[mask] + xi:
                    continue
                span = span.extended(vec)
            pinned.append(mask)
        if not pinned:
            raise MpsError("reference level pinned no coalition")
        fixed.extend((mask, xi) for mask in pinned)
        records.append(IterationRecord(xi=xi, fixed=tuple(pinned), duals=duals))

    return _result(g, last_y, records)
