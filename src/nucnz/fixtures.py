"""Named game families with known structure, plus random generators.

Two explicit families live here: a packing-game pair whose nucleoli have
closed forms yet drift apart exponentially under a tiny value change, and
an adversarial pair of monotone games for which a single coalition hides
the answer to the non-zero-constrained excess problem.  Both come with
exact self-check routines.  Random generators are all deterministic per
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .games import (
    Allocation,
    GameOracle,
    TableGame,
    _require_within_cap,
    brute_min_excess,
    brute_nz_min_excess,
    coalition_of,
    excess,
    make_allocation,
)
from .graphs import Graph
from .linalg import rat_str

__all__ = [
    "PackingGame",
    "InstabilityParams",
    "gen_instability_pair",
    "instability_closed_forms",
    "verify_instability_balance",
    "HardnessParams",
    "gen_hardness_pair",
    "hardness_adversary_check",
    "random_monotone_game",
    "random_graph",
    "random_subspace_rows",
]


class PackingGame(GameOracle):
    """Value of S = best total weight of pairwise disjoint listed sets in S."""

    kind = "value"

    def __init__(self, player_count: int, sets: Sequence[tuple[int, Fraction]]):
        super().__init__(player_count)
        self.sets = tuple((int(m), Fraction(w)) for m, w in sets)
        for m, _ in self.sets:
            if m == 0 or m >> player_count:
                raise ValueError("packing sets must be nonempty subsets of P")
        # Group each set under every member so the recursion can branch on
        # the lowest live player of the current coalition.
        self._by_player: list[list[tuple[int, Fraction]]] = [
            [] for _ in range(player_count)
        ]
        for m, w in self.sets:
            p = 0
            mm = m
            while mm:
                if mm & 1:
                    self._by_player[p].append((m, w))
                mm >>= 1
                p += 1
        self._memo: dict[int, Fraction] = {0: Fraction(0)}

    def value(self, mask: int) -> Fraction:
        memo = self._memo
        got = memo.get(mask)
        if got is not None:
            return got
        p = (mask & -mask).bit_length() - 1
        best = self.value(mask ^ (1 << p))
        for m, w in self._by_player[p]:
            if m & mask == m:
                cand = w + self.value(mask & ~m)
                if cand > best:
                    best = cand
        memo[mask] = best
        return best

    def table(self) -> list[Fraction]:
        if self._table is None:
            _require_within_cap(self)
            n = self.player_count
            tab = [Fraction(0)] * (1 << n)
            by_player = self._by_player
            for mask in range(1, 1 << n):
                p = (mask & -mask).bit_length() - 1
                best = tab[mask ^ (1 << p)]
                for m, w in by_player[p]:
                    if m & mask == m:
                        cand = w + tab[mask & ~m]
                        if cand > best:
                            best = cand
                tab[mask] = best
            self._table = tab
        return self._table

    def to_json_dict(self) -> dict:
        return {
            "type": "packing",
            "players": self.player_count,
            "sets": [
                {"members": [p for p in range(self.player_count) if (m >> p) & 1],
                 "weight": rat_str(w)}
                for m, w in self.sets
            ],
        }


@dataclass(frozen=True)
class InstabilityParams:
    """Ladder-family parameters; requires K >= 2^n * eps."""

    n: int
    eps: Fraction
    K: Fraction

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.K < (2 ** self.n) * self.eps:
            raise ValueError("K must be at least 2^n * eps")

    @property
    def levels(self) -> int:
        return self.n + 2

    @property
    def player_count(self) -> int:
        return 1 + 8 * self.levels

    def p_index(self, level: int, i: int) -> int:
        """Player p_i^(level); level in 1..n+2, i in 1..4."""
        return 1 + 8 * (level - 1) + 2 * (i - 1)

    def q_index(self, level: int, i: int) -> int:
        return self.p_index(level, i) + 1


def _instability_sets(params: InstabilityParams, r_weight: Fraction):
    K = params.K
    sets: list[tuple[int, Fraction]] = []
    sets.append((1 << 0, r_weight))
    for i in range(1, 5):
        sets.append((coalition_of([0, params.p_index(1, i)]), Fraction(1)))
    for l in range(1, params.levels + 1):
        for i in range(1, 5):
            sets.append(
                (
                    coalition_of([params.p_index(l, i), params.q_index(l, i)]),
                    2 * l * K,
                )
            )
    for l in range(1, params.levels):
        quad = [params.q_index(l, i) for i in range(1, 5)]
        for i in range(1, 5):
            sets.append((coalition_of(quad + [params.p_index(l + 1, i)]), 4 * l * K))
    return sets


def gen_instability_pair(params: InstabilityParams) -> tuple[PackingGame, PackingGame]:
    """The two packing games; they differ only in the weight of {r}."""
    n_players = params.player_count
    v = PackingGame(n_players, _instability_sets(params, Fraction(1)))
    vt = PackingGame(n_players, _instability_sets(params, Fraction(1) - params.eps))
    return v, vt


def instability_closed_forms(params: InstabilityParams) -> tuple[Allocation, Allocation]:
    """Known nucleoli of the pair, as exact allocations."""
    K, eps = params.K, params.eps
    y = [Fraction(0)] * params.player_count
    yt = [Fraction(0)] * params.player_count
    y[0] = Fraction(1)
    yt[0] = Fraction(1) - eps
    for l in range(1, params.levels + 1):
        drift = Fraction(2) ** (l - 2) * eps
        for i in range(1, 5):
            y[params.p_index(l, i)] = l * K
            y[params.q_index(l, i)] = l * K
            yt[params.p_index(l, i)] = l * K + drift
            yt[params.q_index(l, i)] = l * K - drift
    return tuple(y), tuple(yt)


def verify_instability_balance(params: InstabilityParams) -> dict:
    """Exact ledger of the closed-form argument.

    Checks the zero-excess partition, core feasibility on every listed
    set, non-negativity of both allocations, and the separating excess
    identities, all as exact rational equalities.
    """
    v, vt = gen_instability_pair(params)
    y, yt = instability_closed_forms(params)
    K, eps = params.K, params.eps
    checks: list[dict] = []

    def check(name: str, lhs, rhs):
        checks.append(
            {"name": name, "pass": lhs == rhs, "lhs": rat_str(lhs), "rhs": rat_str(rhs)}
        )

    def check_ge(name: str, lhs, rhs):
        checks.append(
            {"name": name, "pass": lhs >= rhs, "lhs": rat_str(lhs), "rhs": rat_str(rhs)}
        )

    partition = [1 << 0]
    for l in range(1, params.levels + 1):
        for i in range(1, 5):
            partition.append(
                coalition_of([params.p_index(l, i), params.q_index(l, i)])
            )
    union = 0
    overlap = False
    for m in partition:
        overlap = overlap or (union & m)
        union |= m
    checks.append(
        {
            "name": "partition-structure",
            "pass": (not overlap) and union == (1 << params.player_count) - 1,
            "lhs": "disjoint-cover",
            "rhs": "P",
        }
    )
    for tag, game, alloc in (("v", v, y), ("vt", vt, yt)):
        for m in partition:
            check(f"{tag}:zero-excess:{m}", excess(game, alloc, m), Fraction(0))
        for m, _w in game.sets:
            check_ge(f"{tag}:core:{m}", excess(game, alloc, m), Fraction(0))
        checks.append(
            {
                "name": f"{tag}:nonnegative-allocation",
                "pass": all(val >= 0 for val in alloc),
                "lhs": "min " + rat_str(min(alloc)),
                "rhs": "0",
            }
        )

    for l in range(1, params.levels + 1):
        drift = Fraction(2) ** (l - 2) * eps
        for i in range(1, 5):
            p = 1 << params.p_index(l, i)
            q = 1 << params.q_index(l, i)
            check(f"v:excess-p:{l},{i}", excess(v, y, p), l * K)
            check(f"v:excess-q:{l},{i}", excess(v, y, q), l * K)
            check(f"vt:excess-p:{l},{i}", excess(vt, yt, p), l * K + drift)
            check(f"vt:excess-q:{l},{i}", excess(vt, yt, q), l * K - drift)
            if l == 1:
                sep = coalition_of([0, params.p_index(1, i)])
                check(f"v:excess-rp:{i}", excess(v, y, sep), K)
                check(f"vt:excess-rp:{i}", excess(vt, yt, sep), K - eps / 2)
            else:
                members = [params.q_index(l - 1, j) for j in range(1, 5)]
                members.append(params.p_index(l, i))
                sep = coalition_of(members)
                check(f"v:excess-M:{l},{i}", excess(v, y, sep), l * K)
                check(f"vt:excess-M:{l},{i}", excess(vt, yt, sep), l * K - drift)

    return {"ok": all(c["pass"] for c in checks), "checks": checks}


@dataclass(frozen=True)
class HardnessParams:
    """Adversarial family over A (first 2k players) and B (next 2k)."""

    k: int
    s_star: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.s_star == 0:
            object.__setattr__(self, "s_star", self.default_s_star())
        a_mask, b_mask = self.side_masks()
        if bin(self.s_star & a_mask).count("1") != self.k + 1:
            raise ValueError("S* must meet A in exactly k+1 players")
        if bin(self.s_star & b_mask).count("1") != self.k - 1:
            raise ValueError("S* must meet B in exactly k-1 players")
        if self.s_star & ~(a_mask | b_mask):
            raise ValueError("S* must be a subset of the player set")

    @property
    def player_count(self) -> int:
        return 4 * self.k

    def side_masks(self) -> tuple[int, int]:
        a_mask = (1 << (2 * self.k)) - 1
        b_mask = ((1 << (4 * self.k)) - 1) ^ a_mask
        return a_mask, b_mask

    def default_s_star(self) -> int:
        return coalition_of(list(range(self.k + 1)) + list(range(2 * self.k, 3 * self.k - 1)))


class _HardnessBase(GameOracle):
    kind = "value"

    def __init__(self, params: HardnessParams):
        super().__init__(params.player_count)
        self.params = params
        self._a_mask, self._b_mask = params.side_masks()

    def value(self, mask: int) -> Fraction:
        k = self.params.k
        sa = bin(mask & self._a_mask).count("1")
        sb = bin(mask & self._b_mask).count("1")
        if sa + sb > 2 * k or (sa == k and sb == k):
            return 2 * k + Fraction(1, 2)
        return Fraction(sa + sb)


class _HardnessPlanted(_HardnessBase):
    def value(self, mask: int) -> Fraction:
        if mask == self.params.s_star:
            return 2 * self.params.k + Fraction(1, 6)
        return super().value(mask)


def gen_hardness_pair(params: HardnessParams) -> tuple[GameOracle, GameOracle]:
    """The base game and its planted variant differing only at S*."""
    return _HardnessBase(params), _HardnessPlanted(params)


def hardness_adversary_check(params: HardnessParams) -> dict:
    """Brute-force confirmation of the planted-coalition structure.

    Under y = 1 and the +1/-1 side labels, S* must be the unique non-zero
    minimum-excess coalition of the planted game, while the unconstrained
    optima of the two games coincide.
    """
    base, planted = gen_hardness_pair(params)
    n = params.player_count
    y = make_allocation([1] * n)
    a = [1] * (2 * params.k) + [-1] * (2 * params.k)
    checks = []

    rep = brute_nz_min_excess(planted, y, a)
    minimizers = [
        m
        for m in range(1, 1 << n)
        if sum(a[p] for p in range(n) if (m >> p) & 1) != 0
        and excess(planted, y, m) == rep.excess
    ]
    checks.append(
        {
            "name": "planted-unique-nz-optimum",
            "pass": minimizers == [params.s_star] and rep.coalition == params.s_star,
            "lhs": str(minimizers[:4]),
            "rhs": str([params.s_star]),
        }
    )

    rep_base = brute_min_excess(base, y)
    rep_planted = brute_min_excess(planted, y)
    checks.append(
        {
            "name": "unconstrained-optima-coincide",
            "pass": rep_base.excess == rep_planted.excess
            and rep_base.coalition == rep_planted.coalition,
            "lhs": rat_str(rep_base.excess),
            "rhs": rat_str(rep_planted.excess),
        }
    )
    base_args = {
        m for m in range(1 << n) if excess(base, y, m) == rep_base.excess
    }
    planted_args = {
        m for m in range(1 << n) if excess(planted, y, m) == rep_planted.excess
    }
    checks.append(
        {
            "name": "unconstrained-argmin-sets-equal",
            "pass": base_args == planted_args,
            "lhs": str(len(base_args)),
            "rhs": str(len(planted_args)),
        }
    )
    return {"ok": all(c["pass"] for c in checks), "checks": checks}


def random_monotone_game(players: int, seed: int) -> TableGame:
    """Monotone non-negative table game; prefix-max over the subset lattice."""
    if players > 12:
        raise ValueError("random table games are capped at 12 players")
    rng = random.Random(seed)
    size = 1 << players
    table = [Fraction(0)] * size
    for m in range(1, size):
        table[m] = Fraction(rng.randint(0, 40), rng.choice([1, 2, 3, 4]))
    for m in range(1, size):
        best = table[m]
        mm = m
        while mm:
            p = mm & -mm
            sub = table[m ^ p]
            if sub > best:
                best = sub
            mm ^= p
        table[m] = best
    return TableGame(table)


def random_graph(n: int, m: int, seed: int) -> Graph:
    """m loop-free edges drawn uniformly with repetition, so parallel
    edges may occur."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n, ())
    return Graph(n, tuple(rng.choice(pairs) for _ in range(m)))


def random_subspace_rows(n: int, dim_max: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    k = rng.randint(0, max(0, min(dim_max, n - 1)))
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
