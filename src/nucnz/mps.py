"""Nucleolus computation by the successive-fixing LP scheme.

Each level maximizes the worst excess over coalitions outside the span of
the already-fixed ones, then fixes every not-yet-spanned coalition whose
optimal dual is nonzero.  Levels repeat until the fixed incidence vectors
(together with the grand coalition) span the whole payoff space, at which
point the allocation is unique.

The per-level LP is solved by cutting planes: the working LP starts from
the singleton rows plus the efficiency equality, and a separation oracle
supplies violated coalition rows.  ``mode="enumerate"`` uses exhaustive
integer-scaled enumeration as the oracle; ``mode="oracle"`` takes a
caller-supplied solver for the subspace-avoiding minimum-excess problem.
A second, independent algorithm (:func:`reference_nucleolus`) solves each
level with all constraint rows explicit and fixes coalitions by an
auxiliary-LP pinning test instead of dual support; the two must agree
exactly on every game.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .games import (
    Allocation,
    CapExceededError,
    ExcessReport,
    GameOracle,
    as_value_game,
    coalition_vector,
    dot_table,
    enum_cap,
    excess,
)
from .linalg import LinearSubspace, fold_kernel, integer_kernel_basis, rat_str
from .lp import LPInstance, solve_lp_exact

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

# reference_nucleolus solves dense LPs over all 2^n coalitions.  On
# random_monotone_game(n, 1) it took 0.41 / 2.2 / 21.5 s at n = 6 / 7 / 8
# (Python 3.11, one core of a 2-core Intel Xeon), so 7 is the largest
# size cheap enough for a validator.
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
    """Exhaustive separation: scan all 2^n coalitions with scaled integers."""
    n = vg.player_count
    if n > enum_cap():
        raise CapExceededError(
            f"{n} players exceeds enumeration cap {enum_cap()} for enumerate mode"
        )
    table = vg.table()
    dv = lcm(*(v.denominator for v in table))
    vnum = [int(v * dv) for v in table]
    outside_cache: dict[LinearSubspace, bytearray] = {}

    def sep(_g: GameOracle, y: Sequence[Fraction], span: LinearSubspace) -> ExcessReport:
        outside = outside_cache.get(span)
        if outside is None:
            outside = outside_cache[span] = _outside(span, n)
        yf = [Fraction(v) for v in y]
        dy = lcm(*(v.denominator for v in yf))
        ysum = dot_table([int(v * dy) for v in yf], n)
        best_m = -1
        best = None
        for m in range(1 << n):
            if outside[m]:
                e = ysum[m] * dv - vnum[m] * dy
                if best is None or e < best:
                    best = e
                    best_m = m
        if best_m < 0:
            raise MpsError("separation found no coalition outside the span")
        return ExcessReport(best_m, Fraction(best, dy * dv))

    return sep


def _level_lp(
    n: int,
    vg: GameOracle,
    fixed: list[tuple[int, Fraction]],
    cuts: list[int],
) -> LPInstance:
    """Variables are y_0..y_{n-1} and xi (last)."""
    full = (1 << n) - 1
    rows = []
    for mask, xs in fixed:
        rows.append(
            (list(coalition_vector(mask, n)) + [0], "==", vg.value(mask) + xs)
        )
    rows.append((list(coalition_vector(full, n)) + [0], "==", vg.value(full)))
    for mask in cuts:
        rows.append((list(coalition_vector(mask, n)) + [-1], ">=", vg.value(mask)))
    obj = [Fraction(0)] * n + [Fraction(1)]
    return LPInstance.maximize(obj, rows)


def _solve_level(
    vg: GameOracle,
    fixed: list[tuple[int, Fraction]],
    span: LinearSubspace,
    sep: LsaSolver,
    cuts: list[int],
) -> tuple[Fraction, tuple[Fraction, ...], dict[int, Fraction]]:
    """Cutting-plane solve of one level. Returns (xi, y, nonzero duals)."""
    n = vg.player_count
    cut_set = set(cuts)
    while True:
        lp = _level_lp(n, vg, fixed, cuts)
        sol = solve_lp_exact(lp)
        if sol.status != "optimal":
            raise MpsError(f"level LP came back {sol.status}")
        y = sol.x[:n]
        xi = sol.x[n]
        rep = sep(vg, y, span)
        true_excess = excess(vg, y, rep.coalition)
        if true_excess != rep.excess:
            raise MpsError(
                f"oracle inconsistency: reported excess {rep.excess} but "
                f"coalition {rep.coalition} has excess {true_excess}"
            )
        if span.contains(coalition_vector(rep.coalition, n)):
            raise MpsError("oracle returned a coalition inside the span")
        if rep.excess >= xi:
            duals = {}
            offset = len(fixed) + 1
            for k, mask in enumerate(cuts):
                d = sol.duals[offset + k]
                if d != 0:
                    duals[mask] = -d
            return xi, y, duals
        if rep.coalition in cut_set:
            raise MpsError(
                "oracle reported an already-generated row as violated"
            )
        cuts.append(rep.coalition)
        cut_set.add(rep.coalition)


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

    full = (1 << n) - 1
    span = LinearSubspace.from_rows([coalition_vector(full, n)], n)
    fixed: list[tuple[int, Fraction]] = []
    cuts = [1 << p for p in range(n)]
    records: list[IterationRecord] = []
    last_y: tuple[Fraction, ...] | None = None

    iteration = 0
    while span.dim < n:
        iteration += 1
        if iteration > n + 1:
            raise MpsError(f"no convergence within {n + 1} fixing iterations")
        cuts = [m for m in cuts if not span.contains(coalition_vector(m, n))]
        xi, y, duals = _solve_level(vg, fixed, span, oracle, cuts)
        last_y = y
        newly = []
        for mask in sorted(duals):
            vec = coalition_vector(mask, n)
            if not span.contains(vec):
                fixed.append((mask, xi))
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
    cuts = [1 << p for p in range(n)]
    xi, y, _ = _solve_level(vg, [], span, oracle, cuts)
    return xi, _payoff(g, y)


def reference_nucleolus(g: GameOracle) -> NucleolusResult:
    """Independent validator: explicit LPs plus an auxiliary pinning test.

    Every level solves the LP with rows for all coalitions outside the
    current span.  A tight coalition is fixed iff maximizing its excess
    over the level's optimal face cannot move it above the level value,
    which is decided by one auxiliary LP per tight coalition.  This fixing
    rule differs from dual support but produces the same allocation.
    """
    vg = as_value_game(g)
    n = vg.player_count
    if n > REFERENCE_MAX_PLAYERS:
        raise CapExceededError(f"{n} players exceeds reference cap {REFERENCE_MAX_PLAYERS}")
    table = vg.table()
    full = (1 << n) - 1
    span = LinearSubspace.from_rows([coalition_vector(full, n)], n)
    fixed: list[tuple[int, Fraction]] = []
    records: list[IterationRecord] = []
    last_y: tuple[Fraction, ...] | None = None

    while span.dim < n:
        active = [m for m, out in enumerate(_outside(span, n)) if out]

        rows = []
        for mask, xs in fixed:
            rows.append((list(coalition_vector(mask, n)) + [0], "==", table[mask] + xs))
        rows.append((list(coalition_vector(full, n)) + [0], "==", table[full]))
        for mask in active:
            rows.append((list(coalition_vector(mask, n)) + [-1], ">=", table[mask]))
        obj = [Fraction(0)] * n + [Fraction(1)]
        sol = solve_lp_exact(LPInstance.maximize(obj, rows))
        if sol.status != "optimal":
            raise MpsError(f"reference level LP came back {sol.status}")
        y = sol.x[:n]
        xi = sol.x[n]
        last_y = y

        duals = {}
        offset = len(fixed) + 1
        for k, mask in enumerate(active):
            d = sol.duals[offset + k]
            if d != 0:
                duals[mask] = -d

        ysum = {m: sum(y[p] for p in range(n) if (m >> p) & 1) for m in active}
        tight = [m for m in active if ysum[m] - table[m] == xi]
        pinned = []
        aux_rows = []
        for mask, xs in fixed:
            aux_rows.append((coalition_vector(mask, n), "==", table[mask] + xs))
        aux_rows.append((coalition_vector(full, n), "==", table[full]))
        for mask in active:
            aux_rows.append((coalition_vector(mask, n), ">=", table[mask] + xi))
        for mask in tight:
            aux_obj = [Fraction(v) for v in coalition_vector(mask, n)]
            aux = solve_lp_exact(LPInstance.maximize(aux_obj, aux_rows))
            if aux.status == "optimal" and aux.objective == table[mask] + xi:
                pinned.append(mask)
        if not pinned:
            raise MpsError("reference level pinned no coalition")
        for mask in pinned:
            fixed.append((mask, xi))
            span = span.extended(coalition_vector(mask, n))
        records.append(IterationRecord(xi=xi, fixed=tuple(pinned), duals=duals))

    return _result(g, last_y, records)
