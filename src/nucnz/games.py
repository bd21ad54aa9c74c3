"""Players, coalitions, game oracles and brute-force excess solvers.

Coalitions are plain ints used as bit masks over the player index space;
bit p set means player p belongs to the coalition.  Every exhaustive
minimum-excess search is one call of :func:`min_excess_where`: it scans
all 2^n masks in integer arithmetic, from the game's cached
integer-scaled value table and one subset-sum table of the scaled
allocation, and breaks ties by the numerically smallest mask, so its
output is deterministic.  The brute-force referees differ only in which
masks they keep.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from .linalg import LinearSubspace, fold_kernel, integer_kernel_basis, integer_scaled

Coalition = int
Allocation = tuple[Fraction, ...]

DEFAULT_ENUM_CAP = 24

__all__ = [
    "Coalition",
    "Allocation",
    "CapExceededError",
    "GameOracle",
    "TableGame",
    "ExcessReport",
    "as_value_game",
    "make_allocation",
    "coalition_members",
    "coalition_of",
    "coalition_vector",
    "coalition_sum",
    "enum_cap",
    "excess",
    "min_excess_where",
    "brute_min_excess",
    "brute_nz_min_excess",
    "brute_lsa_min_excess",
    "is_monotone",
    "is_superadditive",
]


class CapExceededError(RuntimeError):
    """Raised when an enumeration-based routine is asked to exceed its cap."""


def enum_cap() -> int:
    """Brute-force player cap; NUCNZ_ENUM_CAP overrides the default of 24."""
    raw = os.environ.get("NUCNZ_ENUM_CAP")
    return int(raw) if raw else DEFAULT_ENUM_CAP


def _require_within_cap(g: GameOracle) -> None:
    if g.player_count > enum_cap():
        raise CapExceededError(
            f"{g.player_count} players exceeds enumeration cap {enum_cap()}"
        )


def coalition_members(mask: Coalition) -> list[int]:
    out = []
    p = 0
    while mask:
        if mask & 1:
            out.append(p)
        mask >>= 1
        p += 1
    return out


def coalition_of(members: Iterable[int]) -> Coalition:
    mask = 0
    for p in members:
        mask |= 1 << p
    return mask


def coalition_vector(mask: Coalition, n: int) -> tuple[int, ...]:
    """0/1 incidence vector of a coalition."""
    return tuple((mask >> p) & 1 for p in range(n))


def coalition_sum(values: Sequence[Fraction], mask: Coalition) -> Fraction:
    total = Fraction(0)
    p = 0
    while mask:
        if mask & 1:
            total += values[p]
        mask >>= 1
        p += 1
    return total


def make_allocation(values: Iterable) -> Allocation:
    return tuple(Fraction(v) for v in values)


class GameOracle:
    """A cooperative game: player count plus a value (or cost) function.

    Subclasses implement :meth:`value` on coalition masks; it must be pure
    and satisfy value(0) == 0.  ``kind`` is "value" or "cost"; the excess of
    a coalition is y(S) - v(S) for value games and c(S) - y(S) for cost
    games.
    """

    kind = "value"

    def __init__(self, player_count: int):
        self.player_count = player_count
        self._table: list[Fraction] | None = None
        self._scaled: tuple[list[int], int] | None = None

    def value(self, mask: Coalition) -> Fraction:
        raise NotImplementedError

    def table(self) -> list[Fraction]:
        """All 2^n values, cached.  Guarded by the enumeration cap."""
        if self._table is None:
            _require_within_cap(self)
            self._table = [self.value(m) for m in range(1 << self.player_count)]
        return self._table

    def scaled_table(self) -> tuple[list[int], int]:
        """:meth:`table` as integer numerators over one positive
        denominator, cached."""
        if self._scaled is None:
            self._scaled = integer_scaled(self.table())
        return self._scaled

    def grand_value(self) -> Fraction:
        return self.value((1 << self.player_count) - 1)


class TableGame(GameOracle):
    """Game given by an explicit table of all 2^n coalition values."""

    def __init__(self, values: Sequence, kind: str = "value"):
        n = (len(values)).bit_length() - 1
        if (1 << n) != len(values):
            raise ValueError("table length must be a power of two")
        if kind not in ("value", "cost"):
            raise ValueError(f"bad game kind {kind!r}")
        super().__init__(n)
        self.kind = kind
        self._table = [Fraction(v) for v in values]
        if self._table and self._table[0] != 0:
            raise ValueError("value of the empty coalition must be 0")

    def value(self, mask: Coalition) -> Fraction:
        return self._table[mask]


class _NegatedGame(GameOracle):
    """Value-game view of a cost game (v = -c); used by the LP scheme."""

    def __init__(self, base: GameOracle):
        super().__init__(base.player_count)
        self.base = base

    def value(self, mask: Coalition) -> Fraction:
        return -self.base.value(mask)

    def table(self) -> list[Fraction]:
        if self._table is None:
            self._table = [-v for v in self.base.table()]
        return self._table


def as_value_game(g: GameOracle) -> GameOracle:
    """Adapter: cost games are negated so all solvers can assume values."""
    return g if g.kind == "value" else _NegatedGame(g)


@dataclass(frozen=True)
class ExcessReport:
    coalition: Coalition
    excess: Fraction


def excess(g: GameOracle, y: Sequence[Fraction], mask: Coalition) -> Fraction:
    """y(S) - v(S) for value games; c(S) - y(S) for cost games."""
    ys = coalition_sum(y, mask)
    v = g.value(mask)
    return ys - v if g.kind == "value" else v - ys


def dot_table(a: Sequence[int], n: int) -> list[int]:
    """a(S) for every mask S, by lowest-bit recursion."""
    out = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        out[m] = out[m ^ low] + a[low.bit_length() - 1]
    return out


def min_excess_where(
    g: GameOracle, y: Sequence[Fraction], keep: Sequence
) -> ExcessReport:
    """Minimum excess among the masks S with ``keep[S]`` set; ties go to
    the lowest mask.

    Excesses are compared as integer numerators over the common
    denominator dy * dv, read in place from the scaled value table and
    the subset sums of the scaled allocation.
    """
    vnum, dv = g.scaled_table()
    ynum, dy = integer_scaled([Fraction(v) for v in y])
    ysum = dot_table(ynum, g.player_count)
    # excess * dy * dv = s * (ysum * dv - vnum * dy), s = -1 on cost games
    sv, sy = (dv, dy) if g.kind == "value" else (-dv, -dy)
    best_m = -1
    best = 0
    for m in compress(range(len(ysum)), keep):
        e = ysum[m] * sv - vnum[m] * sy
        if best_m < 0 or e < best:
            best = e
            best_m = m
    if best_m < 0:
        raise ValueError("no coalition is kept")
    return ExcessReport(best_m, Fraction(best, dy * dv))


def brute_min_excess(g: GameOracle, y: Sequence[Fraction]) -> ExcessReport:
    """Minimum excess over all 2^n coalitions; ties go to the lowest mask."""
    _require_within_cap(g)
    return min_excess_where(g, y, b"\x01" * (1 << g.player_count))


def brute_nz_min_excess(
    g: GameOracle, y: Sequence[Fraction], a: Sequence[int]
) -> ExcessReport:
    """Minimum excess among coalitions with a(S) != 0."""
    if all(v == 0 for v in a):
        raise ValueError("non-zero constraint vector must have a nonzero entry")
    _require_within_cap(g)
    n = g.player_count
    if len(a) != n:
        raise ValueError("constraint vector length must equal player count")
    return min_excess_where(g, y, dot_table([int(v) for v in a], n))


def brute_lsa_min_excess(
    g: GameOracle, y: Sequence[Fraction], L: LinearSubspace
) -> ExcessReport:
    """Minimum excess among coalitions whose incidence vector avoids ``L``,
    read from the dot table of the folded kernel of ``L``."""
    n = g.player_count
    if L.ambient_dim != n:
        raise ValueError("subspace ambient dimension must equal player count")
    if not L.is_proper():
        raise ValueError("avoided subspace must be proper")
    _require_within_cap(g)
    return min_excess_where(g, y, dot_table(fold_kernel(integer_kernel_basis(L)), n))


def is_monotone(g: GameOracle, max_players: int = 16) -> bool:
    """Exact monotonicity check by single-element extensions."""
    n = g.player_count
    if n > max_players:
        raise CapExceededError(f"{n} players exceeds monotonicity cap {max_players}")
    table = g.table()
    for m in range(1 << n):
        vm = table[m]
        for p in range(n):
            if not (m >> p) & 1:
                if table[m | (1 << p)] < vm:
                    return False
    return True


def is_superadditive(g: GameOracle, max_players: int = 16) -> bool:
    """Exact superadditivity check over all disjoint coalition pairs."""
    n = g.player_count
    if n > max_players:
        raise CapExceededError(f"{n} players exceeds superadditivity cap {max_players}")
    table = g.table()
    full = (1 << n) - 1
    for s in range(1 << n):
        comp = full ^ s
        vs = table[s]
        t = comp
        while t:
            if table[s | t] < vs + table[t]:
                return False
            t = (t - 1) & comp
    return True
