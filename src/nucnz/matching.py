"""Exact matching machinery: maximum weight matchings, degree-2-capped
matching values, perfect-matching padding and minimum-cost T-joins.

Matchings are edge-id sets over :class:`~nucnz.graphs.Graph`, so parallel
edges stay distinguishable.  Every matching comes from the blossom
implementation of networkx through ``_blossom``.  It collapses parallels
and drops loops and negative edges, none of which can improve a
maximum-weight matching, and scales the rational weights to integers by
the lcm of their denominators: networkx then keeps its dual updates in
integers and verifies the optimum it returns.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import networkx as nx

from .games import GameOracle
from .graphs import Graph
from .linalg import integer_scaled

__all__ = [
    "matching_is_valid",
    "max_weight_matching",
    "max_weight_perfect_matching",
    "b_matching_value",
    "BMatchingGame",
    "PaddedGraph",
    "pad_to_perfect",
    "complete_to_perfect",
    "min_cost_t_join",
    "t_join_exists",
    "is_conservative",
]


def matching_is_valid(g: Graph, edge_ids: Iterable[int]) -> bool:
    used = set()
    for e in edge_ids:
        u, v = g.edges[e]
        if u == v or u in used or v in used:
            return False
        used.add(u)
        used.add(v)
    return True


def _matching_weight(w: Sequence[Fraction], edge_ids: Iterable[int]) -> Fraction:
    return sum((Fraction(w[e]) for e in edge_ids), Fraction(0))


def _collapse_parallels(g: Graph, w: Sequence[Fraction], keep_negative: bool):
    """Heaviest edge per vertex pair (lower id on ties); loops dropped."""
    rep: dict[tuple[int, int], int] = {}
    for e in range(g.m):
        u, v = g.edges[e]
        if u == v:
            continue
        if not keep_negative and w[e] < 0:
            continue
        key = (u, v) if u < v else (v, u)
        old = rep.get(key)
        if old is None or w[e] > w[old]:
            rep[key] = e
    return rep


def _blossom(g: Graph, w: Sequence[Fraction], perfect: bool) -> tuple[int, ...] | None:
    """networkx blossom on the collapsed graph with integer-scaled weights.

    A perfect matching may use negative edges; a plain maximum-weight
    matching never does.  Returns sorted edge ids, or None when
    ``perfect`` and no perfect matching exists.
    """
    rep = _collapse_parallels(g, w, keep_negative=perfect)
    scaled, _ = integer_scaled([w[e] for e in rep.values()])
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    for ((u, v), e), we in zip(rep.items(), scaled):
        G.add_edge(u, v, weight=we, eid=e)
    mate = nx.max_weight_matching(G, maxcardinality=perfect)
    if perfect and 2 * len(mate) != g.n:
        return None
    return tuple(sorted(G[u][v]["eid"] for u, v in mate))


def max_weight_matching(g: Graph, w: Sequence[Fraction]) -> tuple[int, ...]:
    """Exact maximum-weight matching as a sorted tuple of edge ids.

    The empty matching (weight 0) always competes, so negative edges are
    never used.
    """
    return _blossom(g, w, perfect=False)


def max_weight_perfect_matching(
    g: Graph, w: Sequence[Fraction]
) -> tuple[int, ...] | None:
    """Maximum-weight perfect matching, or None if no perfect matching."""
    if g.n % 2:
        return None
    return _blossom(g, w, perfect=True)


def b_matching_value(
    g: Graph, w: Sequence[Fraction], b: Sequence[int], vertex_mask: int = -1
) -> Fraction:
    """Maximum weight of a degree-capped edge subset inside G[S], b <= 2.

    Realized by vertex splitting: each capacity-2 vertex gets two copies
    and each edge becomes a three-edge chain carrying half its weight on
    every link, so a matching collects the full weight exactly when it
    commits both endpoints.  Negative edges never help and are dropped.
    """
    if vertex_mask < 0:
        vertex_mask = (1 << g.n) - 1
    for v in range(g.n):
        if b[v] not in (1, 2):
            raise ValueError("vertex capacities must be 1 or 2")
    if g.has_loops():
        raise ValueError("degree-capped matching games require loop-free graphs")

    copies: dict[int, list[int]] = {}
    nxt = 0
    for v in range(g.n):
        if (vertex_mask >> v) & 1:
            copies[v] = [nxt + i for i in range(b[v])]
            nxt += b[v]
    kept = [
        e
        for e in range(g.m)
        if Fraction(w[e]) >= 0
        and (vertex_mask >> g.edges[e][0]) & 1
        and (vertex_mask >> g.edges[e][1]) & 1
    ]
    edges = []
    weights: list[Fraction] = []
    total = Fraction(0)
    for e in kept:
        u, v = g.edges[e]
        we = Fraction(w[e])
        total += we
        eu, ev = nxt, nxt + 1
        nxt += 2
        for cu in copies[u]:
            edges.append((cu, eu))
            weights.append(we / 2)
        edges.append((eu, ev))
        weights.append(we / 2)
        for cv in copies[v]:
            edges.append((ev, cv))
            weights.append(we / 2)
    if not edges:
        return Fraction(0)
    expanded = Graph(nxt, tuple(edges))
    best = max_weight_matching(expanded, weights)
    return 2 * _matching_weight(weights, best) - total


class BMatchingGame(GameOracle):
    """Value game over vertices: v(S) = best capped matching inside G[S]."""

    kind = "value"

    def __init__(self, g: Graph, w: Sequence[Fraction], b: Sequence[int]):
        if g.has_loops():
            raise ValueError("degree-capped matching games require loop-free graphs")
        if len(w) != g.m or len(b) != g.n:
            raise ValueError("need one weight per edge and one capacity per vertex")
        super().__init__(g.n)
        self.graph = g
        self.w = tuple(Fraction(v) for v in w)
        self.b = tuple(int(v) for v in b)
        for cap in self.b:
            if cap not in (1, 2):
                raise ValueError("vertex capacities must be 1 or 2")

    def value(self, mask: int) -> Fraction:
        return b_matching_value(self.graph, self.w, self.b, mask)


@dataclass(frozen=True)
class PaddedGraph:
    """Graph extended so every matching completes to a perfect one.

    One extra vertex is added when the count is odd, then a zero-weight
    zero-label edge is added for *every* vertex pair (parallel to existing
    edges): completing a matching never changes its weight or label sum.
    """

    graph: Graph
    w: tuple[Fraction, ...]
    a: tuple[int, ...]
    original_edges: int
    trivial_of_pair: dict[tuple[int, int], int]

    def strip(self, edge_ids: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(e for e in edge_ids if e < self.original_edges))


def pad_to_perfect(g: Graph, w: Sequence[Fraction], a: Sequence[int]) -> PaddedGraph:
    n = g.n + (g.n % 2)
    edges = list(g.edges)
    weights = [Fraction(v) for v in w]
    labels = [int(v) for v in a]
    m0 = len(edges)
    trivial: dict[tuple[int, int], int] = {}
    for u in range(n):
        for v in range(u + 1, n):
            trivial[(u, v)] = len(edges)
            edges.append((u, v))
            weights.append(Fraction(0))
            labels.append(0)
    return PaddedGraph(
        Graph(n, tuple(edges)), tuple(weights), tuple(labels), m0, trivial
    )


def complete_to_perfect(p: PaddedGraph, matching: Iterable[int]) -> tuple[int, ...]:
    """Extend a matching to a perfect one using trivial edges only."""
    chosen = set(matching)
    used = set()
    for e in chosen:
        u, v = p.graph.edges[e]
        used.add(u)
        used.add(v)
    rest = sorted(v for v in range(p.graph.n) if v not in used)
    for u, v in zip(rest[0::2], rest[1::2]):
        chosen.add(p.trivial_of_pair[(u, v)])
    return tuple(sorted(chosen))


def _components(g: Graph) -> list[int]:
    comp = list(range(g.n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            comp[ru] = rv
    return [find(x) for x in range(g.n)]


def t_join_exists(g: Graph, T: Iterable[int]) -> bool:
    comp = _components(g)
    counts: dict[int, int] = {}
    for t in T:
        counts[comp[t]] = counts.get(comp[t], 0) + 1
    return all(c % 2 == 0 for c in counts.values())


def _dijkstra(adj: list[list[tuple[int, int, int]]], source: int):
    dist: list[int | None] = [None] * len(adj)
    prev_edge: list[int] = [-1] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, x = heapq.heappop(heap)
        if dist[x] != d:
            continue
        for (y, wt, e) in adj[x]:
            nd = d + wt
            if dist[y] is None or nd < dist[y]:
                dist[y] = nd
                prev_edge[y] = e
                heapq.heappush(heap, (nd, y))
    return dist, prev_edge


def min_cost_t_join(g: Graph, costs: Sequence[Fraction], T: Iterable[int]) -> tuple[int, ...]:
    """Exact minimum-cost T-join under arbitrary (possibly negative) costs.

    Negative edges are flipped into the target parity, the non-negative
    instance is solved by shortest-path metric completion plus a
    minimum-weight perfect matching, and the flip is undone by symmetric
    difference.  Raises ValueError when no T-join exists.
    """
    T = sorted(set(T))
    if len(T) % 2:
        raise ValueError("T must have even size")
    for t in T:
        if not 0 <= t < g.n:
            raise ValueError("T vertex out of range")
    if not t_join_exists(g, T):
        raise ValueError("no T-join exists: odd T count in some component")

    cf = [Fraction(c) for c in costs]
    negative = [e for e in range(g.m) if cf[e] < 0]
    t_prime = set(T)
    for v, d in enumerate(g.degrees(negative)):
        if d % 2:
            t_prime ^= {v}
    tp = sorted(t_prime)

    join: set[int] = set()
    if tp:
        # integer-scaled absolute costs; one adjacency, cheapest parallel
        # edge per pair, serves every shortest-path source
        dist_w = [abs(c) for c in integer_scaled(cf)[0]]
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
        for (u, v), e in _collapse_parallels(g, [-d for d in dist_w], True).items():
            adj[u].append((v, dist_w[e], e))
            adj[v].append((u, dist_w[e], e))
        # the closure edge (i, j), i < j, reads the tree of tp[i] only
        paths = [_dijkstra(adj, s) for s in tp[:-1]]
        pairs = [
            (i, j)
            for i in range(len(tp))
            for j in range(i + 1, len(tp))
            if paths[i][0][tp[j]] is not None
        ]
        # minimum-cost perfect matching of the metric closure on T', as a
        # maximum-weight one under top - d: the shift adds the same amount
        # to every perfect matching, and the blossom converges faster on
        # positive weights than on negated distances
        closure = [paths[i][0][tp[j]] for i, j in pairs]
        top = max(closure, default=0) + 1
        mate = max_weight_perfect_matching(
            Graph(len(tp), tuple(pairs)), [top - d for d in closure]
        )
        if mate is None:
            raise ValueError("no T-join exists: targets not pairable")
        for i, j in (pairs[k] for k in mate):
            # walk the shortest path back from tp[j] to tp[i]
            prev = paths[i][1]
            cur = tp[j]
            while cur != tp[i]:
                e = prev[cur]
                join ^= {e}
                x, y = g.edges[e]
                cur = x if y == cur else y
    for e in negative:
        join ^= {e}

    # structural check: the odd-degree set must be exactly T
    odd = [v for v, d in enumerate(g.degrees(join)) if d % 2]
    if odd != T:
        raise AssertionError("T-join construction produced the wrong parity set")
    return tuple(sorted(join))


def is_conservative(g: Graph, costs: Sequence[Fraction]) -> bool:
    """No negative-cost cycle: the cheapest empty-parity join costs zero."""
    join = min_cost_t_join(g, costs, [])
    return sum((Fraction(costs[e]) for e in join), Fraction(0)) >= 0
