"""Independence-oracle matroids and non-zero-constrained greedy solvers.

Ground sets are edge-id ranges of a graph; subsets are bit masks.  The
matroids are the k-fold unions of the graphic matroid (edge sets
partitionable into k forests, decided by augmenting paths); k = 1 is the
graphic matroid itself.  Forest-cover numbers and spanning tests come
from one such partition pass each.  Every
non-zero query -- best basis, best independent set, cheapest spanning
set -- is one exchange from the greedy optimum: if the greedy set's label
sum vanishes, some best set with a nonzero label is a single drop, add or
swap away from it.  On top sit the constrained excess solvers for the two
matroid game families (forest-cover cost games and spanning-tree-packing
value games).
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
    "union_k_matroid",
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
        members = [e for e in range(self.ground_size) if mask >> e & 1]
        return _greedy(0, members, self.is_independent).bit_count()


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


@dataclass(frozen=True)
class NZBasisResult:
    subset: int
    weight: Fraction
    a_value: int


def _order_by_weight(ground_size: int, w: Sequence[Fraction]) -> list[int]:
    return sorted(range(ground_size), key=lambda e: (-Fraction(w[e]), e))


def _greedy(mask: int, order: Sequence[int], keep: Callable[[int], bool]) -> int:
    """Toggle the elements of ``order`` in turn; keep each toggle that
    ``keep`` accepts."""
    for e in order:
        if keep(mask ^ (1 << e)):
            mask ^= 1 << e
    return mask


def max_weight_basis(m: MatroidOracle, w: Sequence[Fraction]) -> int:
    """Greedy basis by descending weight, index tie-break."""
    return _greedy(0, _order_by_weight(m.ground_size, w), m.is_independent)


def _subset_weight(w: Sequence[Fraction], mask: int) -> Fraction:
    return coalition_sum([Fraction(v) for v in w], mask)


def _subset_label(a: Sequence[int], mask: int) -> int:
    return sum(a[e] for e in range(len(a)) if (mask >> e) & 1)


def _best_nz_neighbour(
    ground_size: int,
    start: int,
    w: Sequence[Fraction],
    a: Sequence[int],
    feasible: Callable[[int], bool],
) -> NZBasisResult | None:
    """Best feasible set with a nonzero label, given a maximum-weight
    feasible ``start``.

    If the label of ``start`` is nonzero it is optimal.  Otherwise some
    optimal nonzero set differs from it by one exchange that changes the
    label: a drop (a[e] != 0), an add (a[f] != 0) or a swap (a[e] != a[f]).
    For bases this is the symmetric-exchange argument.  The independent
    sets of a rank-r matroid are the bases of its sum with r free elements
    of weight and label 0, truncated to rank r; a drop or an add is a swap
    with one of those.  The spanning sets are the complements of the
    independent sets of the dual matroid.  The moves are tried by
    descending weight, then ascending mask, and the first feasible one is
    returned: the best by (weight, -mask).  None means no move is
    feasible, so every feasible set has a zero label.
    """
    if _subset_label(a, start) == 0:
        wf = [Fraction(v) for v in w]
        inside = [e for e in range(ground_size) if (start >> e) & 1]
        outside = [f for f in range(ground_size) if not (start >> f) & 1]
        moves = [(-wf[e], start ^ (1 << e)) for e in inside if a[e]]
        moves += [(wf[f], start | (1 << f)) for f in outside if a[f]]
        moves += [
            (wf[f] - wf[e], start ^ (1 << e) | (1 << f))
            for e in inside
            for f in outside
            if a[e] != a[f]
        ]
        moves.sort(key=lambda mv: (-mv[0], mv[1]))
        start = next((cand for _, cand in moves if feasible(cand)), None)
        if start is None:
            return None
    return NZBasisResult(start, _subset_weight(w, start), _subset_label(a, start))


def nz_max_weight_basis(
    m: MatroidOracle, w: Sequence[Fraction], a: Sequence[int]
) -> NZBasisResult | None:
    """Maximum-weight basis with nonzero label sum: one exchange from the
    greedy basis.  None means every basis sums to zero."""
    b0 = max_weight_basis(m, w)
    size = b0.bit_count()
    return _best_nz_neighbour(
        m.ground_size, b0, w, a, lambda s: s.bit_count() == size and m.is_independent(s)
    )


def nz_max_weight_independent_set(
    m: MatroidOracle, w: Sequence[Fraction], a: Sequence[int]
) -> NZBasisResult | None:
    """Maximum-weight independent set with nonzero label sum: one exchange
    from the greedy set over the strictly positive weights."""
    positive = [e for e in _order_by_weight(m.ground_size, w) if Fraction(w[e]) > 0]
    start = _greedy(0, positive, m.is_independent)
    return _best_nz_neighbour(m.ground_size, start, w, a, m.is_independent)


def _nz_max_weight_spanning_set(
    ground_size: int, w: Sequence[Fraction], a: Sequence[int], spans: Callable[[int], bool]
) -> NZBasisResult | None:
    """Maximum-weight set S with spans(S) and nonzero label sum: one
    exchange from reverse deletion, which drops the negative-weight
    elements, lightest first, while the rest still spans."""
    wf = [Fraction(v) for v in w]
    light = sorted((e for e in range(ground_size) if wf[e] < 0), key=lambda e: (wf[e], e))
    start = _greedy((1 << ground_size) - 1, light, spans)
    return _best_nz_neighbour(ground_size, start, w, a, spans)


def arboricity_value(g: Graph, mask: int) -> int:
    """Least number of forests covering the edge subset (0 for empty).

    One matroid-partition pass: the edges go in index order into a growing
    list of forests, and an edge that no augmenting path places opens a new
    forest.  ``_augment`` is exact and leaves the partition unchanged when
    it fails, so the set so far needs one forest more than it had.
    """
    forests: list[set[int]] = []
    colors: dict[int, int] = {}
    for e in range(g.m):
        if mask >> e & 1:
            u, v = g.edges[e]
            if u == v:
                raise ValueError("self-loops cannot be covered by forests")
            if not _augment(g, forests, colors, e):
                colors[e] = len(forests)
                forests.append({e})
    return len(forests)


def _packs_trees(g: Graph, k: int) -> Callable[[int], bool]:
    """Whether an edge set holds k disjoint spanning trees, i.e. spans the
    k-fold union matroid (rank k(n-1)); every set holds zero.

    One partition pass into k forests: the placed edges form a maximal
    independent subset, so their count is the rank.  The pass stops once
    it reaches k(n-1), the rank of the whole matroid (at once for k = 0).
    """
    r = k * (g.n - 1)

    def spans(mask: int) -> bool:
        forests: list[set[int]] = [set() for _ in range(k)]
        colors: dict[int, int] = {}
        placed = 0
        for e in range(g.m):
            if placed == r:
                break
            if mask >> e & 1:
                placed += _augment(g, forests, colors, e)
        return placed == r

    return spans


def network_strength_value(g: Graph, mask: int) -> int:
    """Most disjoint spanning trees of g inside the edge subset."""
    if g.n < 2:
        raise ValueError("spanning-tree packing needs at least two vertices")
    if not g.is_connected():
        return 0
    k = 0
    while (k + 1) * (g.n - 1) <= mask.bit_count() and _packs_trees(g, k + 1)(mask):
        k += 1
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

    Packing level k contributes the cheapest edge set with a nonzero label
    that holds k disjoint spanning trees.
    """
    if all(v == 0 for v in a):
        raise ValueError("non-zero constraint vector must have a nonzero entry")
    if g.n < 2:
        raise ValueError("spanning-tree packing needs at least two vertices")
    yf = [Fraction(v) for v in y]
    neg = [-v for v in yf]
    full = (1 << g.m) - 1
    candidates = []
    for k in range(g.m // (g.n - 1) + 1):
        spans = _packs_trees(g, k)
        if not spans(full):
            break  # no edge set packs k spanning trees, nor k + 1
        res = _nz_max_weight_spanning_set(g.m, neg, a, spans)
        if res is not None:
            ex = coalition_sum(yf, res.subset) - Fraction(network_strength_value(g, res.subset))
            candidates.append((ex, res.subset))
    ex, mask = min(candidates)  # level 0 always has a candidate
    return ExcessReport(mask, ex)


def arboricity_lsa_solver(g: Graph):
    """Separation solver for the LP scheme on the forest-cover cost game.

    The scheme works on the negated (value) view, so the incoming
    allocation is negated back before the cost-side solver runs.  The
    kernel of the avoided span is folded into one non-zero vector; the
    one-exchange solver compares labels only for equality, so the folded
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
