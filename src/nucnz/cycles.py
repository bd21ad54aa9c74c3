"""Shortest non-zero cycle solvers on conservative multigraphs.

Cycles are simple: distinct vertices of degree two each (parallel pairs
form 2-cycles, a self-loop is a 1-cycle).  The solver guesses the
non-zero edges of an optimum and completes them with a minimum-cost
parity join in the zero-labeled subgraph.  It is exact whenever the guess
size covers some optimum; sweeping all subsets of non-zero edges makes it
unconditionally exact, which stays tractable when few edges carry labels.
The test suite's edge-subset enumerator is its desk-scale referee.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .graphs import Graph
from .matching import is_conservative, min_cost_t_join, t_join_exists

__all__ = [
    "NZCycleInstance",
    "CycleReport",
    "decompose_into_cycles",
    "is_simple_cycle",
    "shortest_nz_cycle_few_nonzero",
    "shortest_nz_cycle_exhaustive",
]


@dataclass(frozen=True)
class NZCycleInstance:
    graph: Graph
    costs: tuple[Fraction, ...]
    a: tuple[int, ...]

    def __post_init__(self):
        if len(self.costs) != self.graph.m or len(self.a) != self.graph.m:
            raise ValueError("cost/label arrays must match the edge count")
        if all(v == 0 for v in self.a):
            raise ValueError("some edge must carry a nonzero label")

    @staticmethod
    def checked(graph: Graph, costs: Sequence, a: Sequence[int]) -> "NZCycleInstance":
        """Construct with the conservativeness certificate enforced."""
        inst = NZCycleInstance(
            graph, tuple(Fraction(c) for c in costs), tuple(int(v) for v in a)
        )
        if not is_conservative(graph, inst.costs):
            raise ValueError("edge costs admit a negative cycle")
        return inst

    def cost_of(self, edge_ids: Iterable[int]) -> Fraction:
        return sum((self.costs[e] for e in edge_ids), Fraction(0))

    def label_of(self, edge_ids: Iterable[int]) -> int:
        return sum(self.a[e] for e in edge_ids)


@dataclass(frozen=True)
class CycleReport:
    edges: tuple[int, ...]
    cost: Fraction
    label: int


def is_simple_cycle(g: Graph, edge_ids: Sequence[int]) -> bool:
    es = list(edge_ids)
    if not es:
        return False
    loops = [e for e in es if g.edges[e][0] == g.edges[e][1]]
    if loops:
        return len(es) == 1
    deg: dict[int, int] = {}
    for e in es:
        u, v = g.edges[e]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()) or len(deg) != len(es):
        return False
    verts = list(deg)
    adj: dict[int, list[int]] = {x: [] for x in verts}
    for e in es:
        u, v = g.edges[e]
        adj[u].append(v)
        adj[v].append(u)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(verts)


def decompose_into_cycles(g: Graph, edge_ids: Iterable[int]) -> list[tuple[int, ...]]:
    """Split an even-degree edge set into simple cycles (walk splitting).

    Every revisit of a vertex on the running walk pops one simple cycle;
    even degrees guarantee the walk only ever stalls back at its start
    with nothing pending.
    """
    unused: set[int] = set(edge_ids)
    adj: dict[int, list[int]] = {}
    for e in unused:
        u, v = g.edges[e]
        adj.setdefault(u, []).append(e)
        if v != u:
            adj.setdefault(v, []).append(e)
    out: list[tuple[int, ...]] = []
    for e in sorted(edge_ids):
        if e in unused and g.edges[e][0] == g.edges[e][1]:
            out.append((e,))
            unused.discard(e)
    while unused:
        v0 = g.edges[min(unused)][0]
        walk_vs = [v0]
        walk_es: list[int] = []
        pos = {v0: 0}
        cur = v0
        while True:
            nxt_edge = None
            for e in adj.get(cur, ()):
                if e in unused:
                    nxt_edge = e
                    break
            if nxt_edge is None:
                if walk_es or cur != v0:
                    raise AssertionError("edge set was not even-degree decomposable")
                break
            unused.discard(nxt_edge)
            u, v = g.edges[nxt_edge]
            nxt = v if u == cur else u
            walk_es.append(nxt_edge)
            if nxt in pos:
                cut = pos[nxt]
                out.append(tuple(sorted(walk_es[cut:])))
                for x in walk_vs[cut + 1:]:
                    del pos[x]
                del walk_vs[cut + 1:]
                del walk_es[cut:]
            else:
                walk_vs.append(nxt)
                pos[nxt] = len(walk_vs) - 1
            cur = nxt
    return out


def _candidate_cycles_for_guess(
    inst: NZCycleInstance,
    zg: Graph,
    zcosts: Sequence[Fraction],
    zero_ids: Sequence[int],
    guess: tuple[int, ...],
) -> list[tuple[int, ...]]:
    """Complete a non-zero-edge guess with a min-cost parity join over the
    zero-labeled subgraph zg (edge i of zg is edge zero_ids[i] of the
    instance) and split the union into simple cycles."""
    g = inst.graph
    odd = [v for v, d in enumerate(g.degrees(guess)) if d % 2]
    if not t_join_exists(zg, odd):
        return []
    join = min_cost_t_join(zg, zcosts, odd)
    union = set(guess) | {zero_ids[e] for e in join}
    return decompose_into_cycles(g, union)


def shortest_nz_cycle_few_nonzero(inst: NZCycleInstance, k: int) -> CycleReport | None:
    """Exact under the promise that some optimum has at most k non-zero
    edges; sweep all label-carrying subsets up to that size."""
    g = inst.graph
    nz_edges = [e for e in range(g.m) if inst.a[e] != 0]
    # The zero-labeled subgraph is the same for every guess.
    zero_ids = [e for e in range(g.m) if inst.a[e] == 0]
    zg = Graph(g.n, tuple(g.edges[e] for e in zero_ids))
    zcosts = [inst.costs[e] for e in zero_ids]
    best: tuple[Fraction, tuple[int, ...]] | None = None
    for size in range(1, min(k, len(nz_edges)) + 1):
        for guess in combinations(nz_edges, size):
            if inst.label_of(guess) == 0:
                continue
            for cyc in _candidate_cycles_for_guess(inst, zg, zcosts, zero_ids, guess):
                if inst.label_of(cyc) == 0:
                    continue
                key = (inst.cost_of(cyc), cyc)
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    return CycleReport(best[1], best[0], inst.label_of(best[1]))


def shortest_nz_cycle_exhaustive(inst: NZCycleInstance) -> CycleReport | None:
    """Exact without any promise: sweep every label-carrying subset."""
    nz_count = sum(1 for v in inst.a if v != 0)
    return shortest_nz_cycle_few_nonzero(inst, nz_count)
