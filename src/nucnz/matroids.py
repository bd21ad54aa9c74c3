"""Independence-oracle matroids and non-zero-constrained greedy solvers.

Ground sets are edge-id ranges of a graph; subsets are bit masks.  The
building blocks compose: graphic matroid, its k-fold union (edge sets
partitionable into k forests, decided by augmenting paths), duals and
truncations.  On top sit the maximum-weight non-zero basis/independent-set
solvers and the constrained excess solvers for the two matroid game
families (forest-cover cost games and spanning-tree-packing value games).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .games import ExcessReport, GameOracle, coalition_sum
from .graphs import Graph
from .linalg import LinearSubspace, fold_kernel, integer_kernel_basis

__all__ = [
    "MatroidOracle",
    "NZBasisResult",
    "graphic_matroid",
    "union_k_matroid",
    "dual_matroid",
    "truncate",
    "free_matroid",
    "max_weight_basis",
    "nz_max_weight_basis",
    "nz_max_weight_independent_set",
    "arboricity_value",
    "network_strength_value",
    "arboricity_nz_min_excess",
    "network_strength_nz_min_excess",
    "ArboricityGame",
    "NetworkStrengthGame",
    "arboricity_lsa_solver",
    "network_strength_lsa_solver",
]


class MatroidOracle:
    """Ground set 0..ground_size-1 plus an independence predicate on masks."""

    def __init__(self, ground_size: int, indep: Callable[[int], bool]):
        self.ground_size = ground_size
        self._indep = indep

    def is_independent(self, mask: int) -> bool:
        return self._indep(mask)

    def rank(self, mask: int = -1) -> int:
        """Greedy rank of a subset (default: the whole ground set)."""
        if mask < 0:
            mask = (1 << self.ground_size) - 1
        cur = 0
        r = 0
        for e in range(self.ground_size):
            bit = 1 << e
            if mask & bit and self.is_independent(cur | bit):
                cur |= bit
                r += 1
        return r


def free_matroid(ground_size: int) -> MatroidOracle:
    return MatroidOracle(ground_size, lambda mask: True)


def graphic_matroid(g: Graph) -> MatroidOracle:
    def indep(mask: int) -> bool:
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in range(g.m):
            if mask & (1 << e):
                u, v = g.edges[e]
                ru, rv = find(u), find(v)
                if ru == rv:
                    return False
                parent[ru] = rv
        return True

    return MatroidOracle(g.m, indep)


def _forest_path(g: Graph, forest: set[int], u: int, v: int) -> list[int] | None:
    """Edge-id path from u to v inside a forest edge set, or None."""
    if u == v:
        return []
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in forest:
        a, b = g.edges[e]
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    prev: dict[int, tuple[int, int]] = {}
    queue = deque([u])
    seen = {u}
    while queue:
        x = queue.popleft()
        for (y, e) in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                prev[y] = (x, e)
                if y == v:
                    path = []
                    cur = v
                    while cur != u:
                        cur, pe = prev[cur]
                        path.append(pe)
                    return path
                queue.append(y)
    return None


def union_k_matroid(g: Graph, k: int) -> MatroidOracle:
    """Edge sets partitionable into k forests (k-fold sum of the graphic
    matroid), decided by incremental augmenting-path insertion."""
    if k < 1:
        raise ValueError("k must be >= 1")

    def indep(mask: int) -> bool:
        forests: list[set[int]] = [set() for _ in range(k)]
        colors: dict[int, int] = {}
        for e in range(g.m):
            if mask & (1 << e):
                if not _augment(g, forests, colors, e):
                    return False
        return True

    return MatroidOracle(g.m, indep)


def _augment(g: Graph, forests: list[set[int]], colors: dict[int, int], e0: int) -> bool:
    """Insert e0 into the forest partition, displacing edges if needed.

    Breadth-first search over moves "edge x enters forest i, evicting one
    edge of the cycle it closes there"; an edge never re-enters its own
    forest.  The first free placement found ends the search and the chain
    of displacements is applied backwards.
    """
    k = len(forests)
    pred: dict[int, tuple[int, int]] = {}
    seen = {e0}
    queue = deque([e0])
    hit: tuple[int, int] | None = None
    while queue and hit is None:
        x = queue.popleft()
        u, v = g.edges[x]
        if u == v:
            continue
        own = colors.get(x)
        for i in range(k):
            if i == own:
                continue
            path = _forest_path(g, forests[i], u, v)
            if path is None:
                hit = (x, i)
                break
            for f in path:
                if f not in seen:
                    seen.add(f)
                    pred[f] = (x, i)
                    queue.append(f)
    if hit is None:
        return False
    x, i = hit
    while True:
        if x in colors:
            forests[colors[x]].discard(x)
        forests[i].add(x)
        colors[x] = i
        if x == e0:
            return True
        x, i = pred[x]


def dual_matroid(m: MatroidOracle) -> MatroidOracle:
    full = (1 << m.ground_size) - 1
    full_rank = m.rank(full)

    def indep(mask: int) -> bool:
        return m.rank(full & ~mask) == full_rank

    return MatroidOracle(m.ground_size, indep)


def truncate(m: MatroidOracle, k: int) -> MatroidOracle:
    def indep(mask: int) -> bool:
        return bin(mask).count("1") <= k and m.is_independent(mask)

    return MatroidOracle(m.ground_size, indep)


@dataclass(frozen=True)
class NZBasisResult:
    subset: int
    weight: Fraction
    a_value: int


def _order_by_weight(m: MatroidOracle, w: Sequence[Fraction]):
    return sorted(range(m.ground_size), key=lambda e: (-Fraction(w[e]), e))


def max_weight_basis(m: MatroidOracle, w: Sequence[Fraction]) -> int:
    """Greedy basis by descending weight, index tie-break."""
    mask = 0
    for e in _order_by_weight(m, w):
        if m.is_independent(mask | (1 << e)):
            mask |= 1 << e
    return mask


def _subset_weight(w: Sequence[Fraction], mask: int) -> Fraction:
    return coalition_sum([Fraction(v) for v in w], mask)


def _subset_label(a: Sequence[int], mask: int) -> int:
    return sum(a[e] for e in range(len(a)) if (mask >> e) & 1)


def nz_max_weight_basis(
    m: MatroidOracle, w: Sequence[Fraction], a: Sequence[int]
) -> NZBasisResult | None:
    """Maximum-weight basis with nonzero label sum, by the one-swap method.

    If the greedy maximum-weight basis already has a nonzero label it is
    optimal.  Otherwise some optimal nonzero basis differs from it by a
    single exchange (symmetric-exchange argument), so the best exchange
    with a label change is returned.  None means every basis sums to zero.
    """
    b0 = max_weight_basis(m, w)
    a0 = _subset_label(a, b0)
    if a0 != 0:
        return NZBasisResult(b0, _subset_weight(w, b0), a0)
    best: tuple[Fraction, int] | None = None
    for e in range(m.ground_size):
        if not (b0 >> e) & 1:
            continue
        removed = b0 ^ (1 << e)
        for f in range(m.ground_size):
            if (b0 >> f) & 1 or a[f] == a[e]:
                continue
            cand = removed | (1 << f)
            if m.is_independent(cand):
                wt = _subset_weight(w, cand)
                if best is None or (wt, -cand) > (best[0], -best[1]):
                    best = (wt, cand)
    if best is None:
        return None
    return NZBasisResult(best[1], best[0], _subset_label(a, best[1]))


def nz_max_weight_independent_set(
    m: MatroidOracle, w: Sequence[Fraction], a: Sequence[int]
) -> NZBasisResult | None:
    """Best nonzero independent set as one non-zero basis query.

    With r = rank(M), the bases of truncate(M + r free dummies, r) are the
    independent sets of M padded with dummies, so a dummy of weight 0 and
    label 0 turns "independent set" into "basis".  The dummies take the
    low bit positions: greedy ties at weight 0 go to dummies first, which
    keeps the chosen real set as small as possible.
    """
    r = m.rank()
    padded = MatroidOracle(m.ground_size + r, lambda mask: m.is_independent(mask >> r))
    res = nz_max_weight_basis(truncate(padded, r), [0] * r + list(w), [0] * r + list(a))
    if res is None:
        return None
    return NZBasisResult(res.subset >> r, res.weight, res.a_value)


def arboricity_value(g: Graph, mask: int) -> int:
    """Least number of forests covering the edge subset (0 for empty)."""
    if mask == 0:
        return 0
    for e in range(g.m):
        if mask & (1 << e):
            u, v = g.edges[e]
            if u == v:
                raise ValueError("self-loops cannot be covered by forests")
    for k in range(1, bin(mask).count("1") + 1):
        if union_k_matroid(g, k).is_independent(mask):
            return k
    raise AssertionError("unreachable: every loop-free set splits into |S| forests")


def network_strength_value(g: Graph, mask: int) -> int:
    """Most disjoint spanning trees of g inside the edge subset."""
    if g.n < 2:
        raise ValueError("spanning-tree packing needs at least two vertices")
    if not g.is_connected():
        return 0
    tree_size = g.n - 1
    count = bin(mask).count("1")
    k = 0
    while (k + 1) * tree_size <= count:
        if union_k_matroid(g, k + 1).rank(mask) == (k + 1) * tree_size:
            k += 1
        else:
            break
    return k


class ArboricityGame(GameOracle):
    """Cost game over edges: c(S) = minimum forest cover size."""

    kind = "cost"

    def __init__(self, g: Graph):
        if g.has_loops():
            raise ValueError("forest-cover games require loop-free graphs")
        super().__init__(g.m)
        self.graph = g

    def value(self, mask: int) -> Fraction:
        return Fraction(arboricity_value(self.graph, mask))


class NetworkStrengthGame(GameOracle):
    """Value game over edges: v(S) = disjoint spanning trees inside S."""

    kind = "value"

    def __init__(self, g: Graph):
        if g.n < 2:
            raise ValueError("spanning-tree packing needs at least two vertices")
        super().__init__(g.m)
        self.graph = g

    def value(self, mask: int) -> Fraction:
        return Fraction(network_strength_value(self.graph, mask))


def arboricity_nz_min_excess(
    g: Graph, y: Sequence[Fraction], a: Sequence[int]
) -> ExcessReport:
    """Minimize c(S) - y(S) over edge sets with a(S) != 0.

    For every forest-cover budget k the best candidate is a maximum
    y-weight nonzero independent set of the k-fold union matroid; its
    recomputed cover number keeps the candidate value exact.
    """
    if all(v == 0 for v in a):
        raise ValueError("non-zero constraint vector must have a nonzero entry")
    if g.has_loops():
        raise ValueError("forest-cover games require loop-free graphs")
    yf = [Fraction(v) for v in y]
    best: tuple[Fraction, int] | None = None
    kmax = arboricity_value(g, (1 << g.m) - 1) if g.m else 0
    for k in range(1, kmax + 1):
        res = nz_max_weight_independent_set(union_k_matroid(g, k), yf, a)
        if res is None:
            continue
        ex = Fraction(arboricity_value(g, res.subset)) - coalition_sum(yf, res.subset)
        if best is None or (ex, res.subset) < best:
            best = (ex, res.subset)
    if best is None:
        raise ValueError("no edge set satisfies the non-zero constraint")
    return ExcessReport(best[1], best[0])


def network_strength_nz_min_excess(
    g: Graph, y: Sequence[Fraction], a: Sequence[int]
) -> ExcessReport:
    """Minimize y(S) - v(S) over edge sets with a(S) != 0.

    The packing-level sweep works on the dual of the k-fold union matroid;
    when the labels do not cancel over the whole edge set, a dummy
    self-loop with a large allocation absorbs the surplus so that optimal
    complements never contain it.
    """
    if all(v == 0 for v in a):
        raise ValueError("non-zero constraint vector must have a nonzero entry")
    if g.n < 2:
        raise ValueError("spanning-tree packing needs at least two vertices")
    yf = [Fraction(v) for v in y]
    candidates: list[tuple[Fraction, int]] = []

    def consider(mask: int):
        if _subset_label(a, mask) == 0:
            return
        ex = coalition_sum(yf, mask) - Fraction(network_strength_value(g, mask))
        candidates.append((ex, mask))

    # Packing level 0: minimize y(S) subject only to the label constraint.
    res0 = nz_max_weight_independent_set(free_matroid(g.m), [-v for v in yf], a)
    if res0 is not None:
        consider(res0.subset)

    if g.is_connected():
        tree_size = g.n - 1
        total = sum(a)
        if total != 0:
            ext_graph = Graph(g.n, g.edges + ((0, 0),))
            ext_a = list(a) + [-total]
            big = 1 + 2 * sum(abs(v) for v in yf)
            ext_y = yf + [Fraction(big)]
            dummy_bit = 1 << g.m
        else:
            ext_graph = g
            ext_a = list(a)
            ext_y = yf
            dummy_bit = 0
        full = (1 << ext_graph.m) - 1
        for k in range(1, g.m // tree_size + 1):
            union = union_k_matroid(ext_graph, k)
            if union.rank(full) != k * tree_size:
                continue  # no edge set packs k spanning trees
            res = nz_max_weight_independent_set(dual_matroid(union), ext_y, ext_a)
            if res is None:
                continue
            s_ext = full & ~res.subset
            if dummy_bit and (s_ext & dummy_bit):
                continue  # complement through the dummy never translates back
            consider(s_ext & ((1 << g.m) - 1))

    if not candidates:
        raise ValueError("no edge set satisfies the non-zero constraint")
    ex, mask = min(candidates)
    return ExcessReport(mask, ex)


def arboricity_lsa_solver(g: Graph):
    """Separation solver for the LP scheme on the forest-cover cost game.

    The scheme works on the negated (value) view, so the incoming
    allocation is negated back before the cost-side solver runs.  The
    kernel of the avoided span is folded into one non-zero vector; the
    one-swap basis solver compares labels only for equality, so the folded
    query costs about as much as a single kernel-vector query.
    """

    def sep(vg, yhat, span: LinearSubspace) -> ExcessReport:
        neg = [-Fraction(v) for v in yhat]
        return arboricity_nz_min_excess(g, neg, fold_kernel(integer_kernel_basis(span)))

    return sep


def network_strength_lsa_solver(g: Graph):
    """Separation solver for the spanning-tree-packing game: one non-zero
    query with the folded kernel of the avoided span."""

    def sep(vg, yhat, span: LinearSubspace) -> ExcessReport:
        return network_strength_nz_min_excess(g, yhat, fold_kernel(integer_kernel_basis(span)))

    return sep
