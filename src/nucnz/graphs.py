"""Plain undirected multigraphs: endpoint pairs indexed by edge id.

Parallel edges are repeated pairs and self-loops are allowed; algorithms
that cannot accept loops reject them explicitly.  Weights, costs and
labels live in parallel arrays owned by the callers, so one structure
serves matchings, matroids and cycle problems alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["Graph"]


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for {self.n} vertices")

    @staticmethod
    def of(n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        return Graph(n, tuple((int(u), int(v)) for u, v in edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_loops(self) -> bool:
        return any(u == v for u, v in self.edges)

    def degrees(self, edge_ids: Iterable[int]) -> list[int]:
        """Degrees induced by a subset of edges; a loop adds 2."""
        deg = [0] * self.n
        for i in edge_ids:
            u, v = self.edges[i]
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return all(seen)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges]}
