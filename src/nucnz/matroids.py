"""Independence-oracle matroids and non-zero-constrained greedy solvers.

Ground sets are edge-id ranges of a graph; subsets are bit masks.  The
matroids are the k-fold unions of the graphic matroid (edge sets
partitionable into k forests); k = 1 is the graphic matroid itself.  One
forest partition, edited in place, answers every query: an edge is
inserted by an augmenting path (Edmonds 1965) or removed, and a query
that fails is rolled back.  The independence oracle and the spanning
test keep the partition of the last set they accepted and edit it
towards each new set, so a greedy step or an exchange move edits only
the edges it changes.  Forest-cover numbers and tree-packing values come
from one partition that grows a forest at a time.  Every non-zero query
-- best basis, best independent set, cheapest spanning set -- is one
exchange from the greedy optimum: if the greedy set's label sum vanishes,
some best set with a nonzero label is a single drop, add or swap away
from it.  On top sit the constrained excess solvers for the two matroid
game families (forest-cover cost games and spanning-tree-packing value
games).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .games import ExcessReport, GameOracle
from .graphs import Graph
from .linalg import LinearSubspace, fold_kernel, integer_kernel_basis, integer_scaled

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


def _members(mask: int):
    """The element indices of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Partition:
    """Edges of a graph split into forests, edited in place.

    ``forests[i]`` maps each vertex of forest i to {edge: other end};
    ``colour`` maps each placed edge to its forest and ``placed`` is their
    mask.  Every move is journalled, so ``edit_to`` can restore the
    partition it started from exactly.
    """

    def __init__(self, g: Graph, k: int):
        self.g = g
        self.forests: list[dict[int, dict[int, int]]] = [{} for _ in range(k)]
        self.colour: dict[int, int] = {}
        self.placed = 0
        self._journal: list[tuple[int, int | None]] = []

    def _set(self, e: int, i: int | None) -> None:
        """Put edge e into forest i, or take it out for i = None."""
        u, v = self.g.edges[e]
        old = self.colour.pop(e, None)
        if old is not None:
            forest = self.forests[old]
            for x in (u, v):
                del forest[x][e]
                if not forest[x]:
                    del forest[x]
        if i is None:
            self.placed &= ~(1 << e)
        else:
            forest = self.forests[i]
            forest.setdefault(u, {})[e] = v
            forest.setdefault(v, {})[e] = u
            self.colour[e] = i
            self.placed |= 1 << e

    def _move(self, e: int, i: int | None) -> None:
        self._journal.append((e, self.colour.get(e)))
        self._set(e, i)

    def remove(self, e: int) -> None:
        self._move(e, None)

    def _path(self, i: int, u: int, v: int) -> list[int] | None:
        """Edge ids of the path from v back to u in forest i, or None."""
        adj = self.forests[i]
        prev: dict[int, tuple[int, int]] = {u: (u, -1)}
        queue = [u]
        for x in queue:
            for e, y in adj.get(x, {}).items():
                if y not in prev:
                    prev[y] = (x, e)
                    if y == v:
                        path = []
                        while y != u:
                            y, e = prev[y]
                            path.append(e)
                        return path
                    queue.append(y)
        return None

    def insert(self, e0: int) -> bool:
        """Place edge e0, displacing placed edges if needed; False, with
        the partition unchanged, when no forest can take it.

        Breadth-first search over moves "edge x enters forest i, evicting
        one edge of the cycle it closes there"; an edge never re-enters its
        own forest.  The first free placement found ends the search and the
        chain of displacements is applied backwards (Edmonds 1965).
        """
        pred: dict[int, tuple[int, int]] = {}
        seen = {e0}
        queue = [e0]
        hit: tuple[int, int] | None = None
        for x in queue:
            u, v = self.g.edges[x]
            if u == v:
                continue
            own = self.colour.get(x)
            for i in range(len(self.forests)):
                if i == own:
                    continue
                path = self._path(i, u, v)
                if path is None:
                    hit = (x, i)
                    break
                for f in path:
                    if f not in seen:
                        seen.add(f)
                        pred[f] = (x, i)
                        queue.append(f)
            if hit is not None:
                break
        if hit is None:
            return False
        x, i = hit
        while True:
            self._move(x, i)
            if x == e0:
                return True
            x, i = pred[x]

    def edit_to(self, mask: int, target: int) -> bool:
        """Edit the partition towards ``mask``: remove the placed edges
        outside it, then insert its unplaced edges in index order until
        ``target`` edges are placed.  Keeps the result and returns True
        when that many are; otherwise restores the partition and returns
        False, as soon as too few edges are left to try.

        Starting from any independent set inside ``mask``, the inserts end
        at a maximal independent subset of ``mask``: an edge that fails
        stays dependent as the set grows.
        """
        self._journal.clear()
        for e in _members(self.placed & ~mask):
            self.remove(e)
        todo = mask & ~self.placed
        short = target - self.placed.bit_count()
        spare = todo.bit_count() - short  # inserts that may still fail
        for e in _members(todo):
            if short <= 0 or spare < 0:
                break
            if self.insert(e):
                short -= 1
            else:
                spare -= 1
        if short <= 0:
            return True
        while self._journal:
            self._set(*self._journal.pop())
        return False


class MatroidOracle:
    """The k-fold union of the graphic matroid of g on edges 0..m-1: the
    edge masks that split into k forests.

    The oracle keeps a forest partition of the last mask it accepted, its
    anchor, and answers a query by editing it: the edges of anchor - mask
    leave, those of mask - anchor are inserted in index order.  The mask
    becomes the anchor when every insert succeeds; otherwise the partition
    is restored at the first failure.  A greedy step thus costs one
    augmentation, and an exchange move one removal plus one augmentation.
    """

    def __init__(self, g: Graph, k: int):
        self.ground_size = g.m
        self._partition = _Partition(g, k)

    def is_independent(self, mask: int) -> bool:
        mask &= (1 << self.ground_size) - 1
        return self._partition.edit_to(mask, mask.bit_count())

    def rank(self, mask: int = -1) -> int:
        """Greedy rank of a subset (default: the whole ground set)."""
        members = [e for e in range(self.ground_size) if mask >> e & 1]
        return _greedy(0, members, self.is_independent).bit_count()


def union_k_matroid(g: Graph, k: int) -> MatroidOracle:
    """Edge sets partitionable into k forests (k-fold sum of the graphic
    matroid), decided by incremental augmenting-path insertion."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return MatroidOracle(g, k)


@dataclass(frozen=True)
class NZBasisResult:
    subset: int
    weight: Fraction
    a_value: int


def _order_by_weight(ground_size: int, w: Sequence[Fraction]) -> list[int]:
    return sorted(range(ground_size), key=lambda e: (-w[e], e))


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
    return Fraction(sum(w[e] for e in _members(mask)))


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
        inside = [e for e in range(ground_size) if (start >> e) & 1]
        outside = [f for f in range(ground_size) if not (start >> f) & 1]
        moves = [(-w[e], start ^ (1 << e)) for e in inside if a[e]]
        moves += [(w[f], start | (1 << f)) for f in outside if a[f]]
        moves += [
            (w[f] - w[e], start ^ (1 << e) | (1 << f))
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
    positive = [e for e in _order_by_weight(m.ground_size, w) if w[e] > 0]
    start = _greedy(0, positive, m.is_independent)
    return _best_nz_neighbour(m.ground_size, start, w, a, m.is_independent)


def _nz_max_weight_spanning_set(
    ground_size: int, w: Sequence[Fraction], a: Sequence[int], spans: Callable[[int], bool]
) -> NZBasisResult | None:
    """Maximum-weight set S with spans(S) and nonzero label sum: one
    exchange from reverse deletion, which drops the negative-weight
    elements, lightest first, while the rest still spans."""
    light = sorted((e for e in range(ground_size) if w[e] < 0), key=lambda e: (w[e], e))
    start = _greedy((1 << ground_size) - 1, light, spans)
    return _best_nz_neighbour(ground_size, start, w, a, spans)


def arboricity_value(g: Graph, mask: int) -> int:
    """Least number of forests covering the edge subset (0 for empty).

    One matroid-partition pass: the edges go in index order into a growing
    list of forests, and an edge that no augmenting path places opens a new
    forest.  A failed insert leaves the partition unchanged, so the set so
    far needs one forest more than it had.
    """
    p = _Partition(g, 0)
    for e in _members(mask):
        u, v = g.edges[e]
        if u == v:
            raise ValueError("self-loops cannot be covered by forests")
        if not p.insert(e):
            p.forests.append({})
            p.insert(e)
    return len(p.forests)


def _packs_trees(g: Graph, k: int) -> Callable[[int], bool]:
    """Whether an edge set holds k disjoint spanning trees, i.e. spans the
    k-fold union matroid (rank k(n-1)); every set holds zero.

    The test keeps a k-forest partition of the last set it accepted, which
    holds k(n-1) of its edges.  A query removes the placed edges outside
    the mask, then augments from the mask's unplaced edges until k(n-1) are
    placed again; otherwise the partition is restored.
    """
    p = _Partition(g, k)
    return lambda mask: p.edit_to(mask, k * (g.n - 1))


def network_strength_value(g: Graph, mask: int) -> int:
    """Most disjoint spanning trees of g inside the edge subset.

    One partition grows a forest at a time: with k + 1 forests the edges
    already placed stay placed, and the subset's other edges are augmented
    in until (k + 1)(n - 1) are placed or none fits.
    """
    if g.n < 2:
        raise ValueError("spanning-tree packing needs at least two vertices")
    if not g.is_connected():
        return 0
    p = _Partition(g, 0)
    while True:
        p.forests.append({})
        if not p.edit_to(mask, len(p.forests) * (g.n - 1)):
            return len(p.forests) - 1


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
    g: Graph, y: Sequence[Fraction], a: Sequence[int], *, _kmax: int | None = None
) -> ExcessReport:
    """Minimize c(S) - y(S) over edge sets with a(S) != 0.

    For every forest-cover budget k up to kmax, the forest-cover number of
    all of g, the best candidate is a maximum y-weight nonzero independent
    set of the k-fold union matroid.  Every edge set splits into kmax
    forests, so the top budget's candidate is one exchange from the
    positive-weight edges, with no oracle.  A candidate's cover number,
    which keeps its value exact, is the least budget whose matroid still
    holds it: the loop asks the oracles of the budgets below k, from k - 1
    down.  The sets are chosen and compared on y scaled to integers, which
    orders them alike.  ``_kmax`` is kmax when the caller knows it; a
    smaller value would make the top budget's shortcut unsound.
    """
    if all(v == 0 for v in a):
        raise ValueError("non-zero constraint vector must have a nonzero entry")
    if g.has_loops():
        raise ValueError("forest-cover games require loop-free graphs")
    wi, den = integer_scaled(y)
    best: tuple[Fraction, int] | None = None
    kmax = arboricity_value(g, (1 << g.m) - 1) if _kmax is None else _kmax
    oracles: list[MatroidOracle] = []
    for k in range(1, kmax + 1):
        if k == kmax:
            positive = sum(1 << e for e in range(g.m) if wi[e] > 0)
            res = _best_nz_neighbour(g.m, positive, wi, a, lambda s: True)
        else:
            oracles.append(union_k_matroid(g, k))
            res = nz_max_weight_independent_set(oracles[-1], wi, a)
        if res is None:
            continue
        cover = k  # res.subset is nonempty, as its label is nonzero
        while cover > 1 and oracles[cover - 2].is_independent(res.subset):
            cover -= 1
        # Both terms are scaled by den: res.weight is y(S) * den.
        ex = cover * den - res.weight
        if best is None or (ex, res.subset) < best:
            best = (ex, res.subset)
    if best is None:
        raise ValueError("no edge set satisfies the non-zero constraint")
    return ExcessReport(best[1], best[0] / den)


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
    wi, den = integer_scaled(y)
    neg = [-v for v in wi]
    full = (1 << g.m) - 1
    candidates = []
    for k in range(g.m // (g.n - 1) + 1):
        spans = _packs_trees(g, k)
        if not spans(full):
            break  # no edge set packs k spanning trees, nor k + 1
        res = _nz_max_weight_spanning_set(g.m, neg, a, spans)
        if res is not None:
            # Both terms are scaled by den: res.weight is -y(S) * den.
            ex = -res.weight - network_strength_value(g, res.subset) * den
            candidates.append((ex, res.subset))
    ex, mask = min(candidates)  # level 0 always has a candidate
    return ExcessReport(mask, ex / den)


def arboricity_lsa_solver(g: Graph):
    """Separation solver for the LP scheme on the forest-cover cost game.

    The scheme works on the negated (value) view, so the incoming
    allocation is negated back before the cost-side solver runs.  The
    kernel of the avoided span is folded into one non-zero vector; the
    one-exchange solver compares labels only for equality, so the folded
    query costs about as much as a single kernel-vector query.  The
    forest-cover number of all of g is computed once, for every query.
    """
    # A graph with loops is refused per query, by arboricity_nz_min_excess.
    kmax = 0 if g.has_loops() else arboricity_value(g, (1 << g.m) - 1)

    def sep(vg, yhat, span: LinearSubspace) -> ExcessReport:
        a = fold_kernel(integer_kernel_basis(span))
        return arboricity_nz_min_excess(g, [-v for v in yhat], a, _kmax=kmax)

    return sep


def network_strength_lsa_solver(g: Graph):
    """Separation solver for the spanning-tree-packing game: one non-zero
    query with the folded kernel of the avoided span."""

    def sep(vg, yhat, span: LinearSubspace) -> ExcessReport:
        return network_strength_nz_min_excess(g, yhat, fold_kernel(integer_kernel_basis(span)))

    return sep
