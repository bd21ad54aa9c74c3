"""Exact matching machinery: maximum weight matchings, degree-2-capped
matching values, perfect-matching padding and minimum-cost T-joins.

Matchings are edge-id sets over :class:`~nucnz.graphs.Graph`, so parallel
edges stay distinguishable.  Every matching comes from
:func:`max_weight_matching`.  It collapses parallels and drops loops and
negative edges, none of which can improve a maximum-weight matching,
scales the rational weights to integers by the lcm of their denominators,
and runs Edmonds' primal-dual blossom algorithm (``_primal_dual``, O(n³))
on integer arrays.  The run returns the matching with its optimal vertex
and blossom duals, a :class:`MatchingCertificate` that
:func:`check_matching_certificate` verifies on every call.  A certificate
also warm-starts a later run on a subgraph with the same weights: deleting
vertices and edges keeps the duals feasible, so the run only repairs the
vertices the deletions expose (Ball and Derigs, Networks 13, 1983).  A
cold run is the same run started from uniform duals and the empty
matching.  The minimum-cost perfect matchings that T-joins need are
maximum-weight matchings too, under positive shifted weights on a union
of cliques (see :func:`min_cost_t_join`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .games import GameOracle
from .graphs import Graph
from .linalg import integer_scaled

__all__ = [
    "matching_is_valid",
    "Matching",
    "MatchingCertificate",
    "check_matching_certificate",
    "max_weight_matching",
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


def _collapse_parallels(g: Graph, w: Sequence[Fraction]):
    """Heaviest edge per vertex pair (lower id on ties); loops and negative
    edges dropped."""
    rep: dict[tuple[int, int], int] = {}
    for e in range(g.m):
        u, v = g.edges[e]
        if u == v or w[e] < 0:
            continue
        key = (u, v) if u < v else (v, u)
        old = rep.get(key)
        if old is None or w[e] > w[old]:
            rep[key] = e
    return rep


@dataclass(frozen=True)
class MatchingCertificate:
    """Optimal primal-dual pair of one blossom run, all in integers.

    ``scale`` times the caller's weights gives the integer weights w the
    duals price.  Edge uv has slack y[u] + y[v] + 2·Σ z_B - 2·w(uv), the
    sum over the blossoms B holding both ends, so y is twice the LP's
    vertex dual.  ``mate`` holds each vertex's partner or -1.  Blossom j
    is ``blossoms[j] = (z, children, cycle)``: a child is a vertex (< n)
    or n + i for blossom i, the children run around the odd cycle from
    the one holding the base, and ``cycle[t]`` is the edge (x, x') from a
    vertex of child t to one of child t + 1.
    """

    scale: int
    mate: tuple[int, ...]
    y: tuple[int, ...]
    blossoms: tuple[tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]], ...]


class Matching(tuple):
    """Sorted edge ids of a maximum-weight matching; ``certificate`` is the
    primal-dual pair that proves it, reusable as a warm start."""

    certificate: MatchingCertificate


def _primal_dual(n: int, ends: list, weights: list, start=None):
    """Edmonds' primal-dual blossom algorithm over integer arrays.

    ``ends`` are distinct vertex pairs u != v and ``weights`` one int per
    pair.  ``start`` is None (cold) or ``(mate, y, blossoms)`` in the
    layout of :class:`MatchingCertificate`, priced in these weights and
    taken from a graph holding this one with the same weight on every
    shared pair.  Returns ``(mate, y, blossoms, factor)``: the duals price
    ``factor`` times the weights.
    """
    run = _Kernel(n, ends, weights)
    if start is None:
        # uniform duals make the heaviest edges tight: match them greedily
        top = max(0, max(weights, default=0))
        run.y = [top if run.adj[v] else 0 for v in range(n)]
        mate = run.mate
        for k, (u, v) in enumerate(ends):
            if weights[k] == top and mate[u] < 0 and mate[v] < 0:
                mate[u] = mate[v] = k
    else:
        run.warm(*start)
    # every repairing stage matches or settles at least one tree root
    for _ in range(n + 1):
        if not run.stage():
            break
        run.expand_zero()
    else:
        raise RuntimeError("blossom: stages repair no tree root")
    run.expand_zero()
    return run.result()


class _Kernel:
    """State of one primal-dual run.

    Ids below n are vertices, ids from n up are blossoms.  Each top-level
    blossom or vertex b carries a stage label (0 free, 1 S, 2 T) and the
    edge ``ledge[b] = (x, x', k)`` that labelled it, x in its tree parent
    and x' in b.  A blossom's children start with the one holding its
    base; ``cycle[b][t]`` joins child t to child t + 1, and the edges
    joining child t to t + 1 for odd t are the matched ones.  Every dual
    stays an integer: S vertices share one parity of y throughout a stage,
    so the slack of an edge between two S-blossoms is even.
    """

    def __init__(self, n, ends, weights):
        self.n = n
        self.ends = ends
        self.w2 = [2 * w for w in weights]
        adj = [[] for _ in range(n)]
        for k, (u, v) in enumerate(ends):
            adj[u].append((v, k))
            adj[v].append((u, k))
        self.adj = adj
        size = 2 * n + 1
        self.parent = [-1] * size
        self.childs = [None] * size
        self.cycle = [None] * size
        self.base = list(range(n)) + [-1] * (size - n)
        self.z = [0] * size
        self.inb = list(range(n))
        self.mate = [-1] * n
        self.unused = list(range(size - 1, n - 1, -1))
        self.factor = 1

    def leaves(self, b):
        n, childs = self.n, self.childs
        if b < n:
            return [b]
        out, stack = [], [b]
        while stack:
            c = stack.pop()
            if c < n:
                out.append(c)
            else:
                stack.extend(childs[c])
        return out

    def other(self, k, v):
        u, x = self.ends[k]
        return x if u == v else u

    # -- warm start --------------------------------------------------------

    def warm(self, mate, y, blossoms):
        """Load an optimal pair of a supergraph.  Vertices without edges
        get dual 0.  A blossom that lost a vertex or a cycle edge is
        dissolved, its z moved onto its vertices (z/2 each in LP terms);
        that keeps every edge feasible and every internal edge's slack,
        but slackens the edge leaving it, which is unmatched.  The run then
        repairs the exposed vertices whose dual is positive."""
        n, adj, w2 = self.n, self.adj, self.w2
        parent, childs, cycle, z = self.parent, self.childs, self.cycle, self.z
        if len(mate) != n or len(y) != n or len(blossoms) > n:
            raise ValueError("warm start does not fit the graph")
        y = self.y = [y[v] if adj[v] else 0 for v in range(n)]
        index = {}
        for k, (u, v) in enumerate(self.ends):
            index[u, v] = index[v, u] = k
        nb = n + len(blossoms)
        for b, (zb, ch, pairs) in enumerate(blossoms, n):
            if len(ch) != len(pairs) or len(ch) % 2 == 0 or len(ch) < 3:
                raise ValueError("warm start blossom is not an odd cycle")
            z[b] = zb
            childs[b] = list(ch)
            cycle[b] = [(x, x2, index.get((x, x2), -1)) for x, x2 in pairs]
            for c in ch:
                if not 0 <= c < nb or parent[c] != -1:
                    raise ValueError("warm start blossoms do not nest")
                parent[c] = b
        tops = [b for b in range(n, nb) if parent[b] == -1]
        order, held = [], {}
        stack = list(tops)
        while stack:
            b = stack.pop()
            order.append(b)
            held[b] = z[b] + held.get(parent[b], 0)
            stack.extend(c for c in childs[b] if c >= n)
        if len(order) != nb - n:
            raise ValueError("warm start blossoms do not nest")
        intact = {}
        for b in reversed(order):
            intact[b] = all(
                intact[c] if c >= n else bool(adj[c]) for c in childs[b]
            ) and all(
                k >= 0 and y[x] + y[x2] + 2 * held[b] == w2[k] for x, x2, k in cycle[b]
            )
        unused = [b for b in self.unused if b >= nb]

        def dissolve(b):
            if z[b]:
                for v in self.leaves(b):
                    y[v] += z[b]
            for c in childs[b]:
                parent[c] = -1
            for c in childs[b]:
                if c >= n and not intact[c]:
                    dissolve(c)
            childs[b] = cycle[b] = None
            z[b] = 0
            unused.append(b)

        for b in tops:
            if not intact[b]:
                dissolve(b)
        self.unused = unused
        inb, base = self.inb, self.base
        for b in range(n, nb):
            if childs[b] is not None:
                c = b
                while c >= n:
                    c = childs[c][0]
                base[b] = c
                if parent[b] == -1:
                    for v in self.leaves(b):
                        inb[v] = b
        for v in range(n):
            if not adj[v]:
                y[v] = 0
        own = self.mate
        for v in range(n):
            u = mate[v]
            if u > v and mate[u] == v:
                k = index.get((u, v))
                if k is not None and (inb[u] == inb[v] or y[u] + y[v] == w2[k]):
                    own[u] = own[v] = k
        roots = {
            y[v] % 2 for v in range(n)
            if adj[v] and own[v] < 0 and base[inb[v]] == v and y[v] > 0
        }
        if len(roots) > 1:
            self.factor = 2
            self.w2 = [2 * x for x in w2]
            self.y = [2 * x for x in y]
            self.z = [2 * x for x in z]

    # -- one stage: grow the forest until an augmentation ------------------

    def stage(self) -> bool:
        """Grow alternating trees from every exposed vertex that violates
        complementary slackness and make one repair: an augmenting path,
        or, when an S vertex's dual reaches zero, the even path that moves
        its tree's exposure onto it.  Returns False when nothing is left to
        repair."""
        n, adj, ends, w2 = self.n, self.adj, self.ends, self.w2
        y, inb, base, mate = self.y, self.inb, self.base, self.mate
        parent, childs = self.parent, self.childs
        size = len(parent)
        self.label = label = [0] * size
        self.ledge = ledge = [None] * size
        best = [-1] * n
        self.svert = svert = []
        self.queue = queue = []
        self.tblossoms = tblossoms = []
        heap = []
        for v in range(n):
            b = inb[v]
            if base[b] == v and mate[v] < 0 and adj[v] and y[v] > 0:
                label[b] = 1
                found = self.leaves(b)
                svert.extend(found)
                queue.extend(found)
        if not svert:
            return False
        shift = 0
        while True:
            while queue:
                v = queue.pop()
                yv = y[v]
                for w, k in adj[v]:
                    bv, bw = inb[v], inb[w]
                    if bv == bw:
                        continue
                    slack = yv + y[w] - w2[k]
                    if label[bw] == 1:
                        if slack:
                            heapq.heappush(heap, (slack + 2 * shift, k))
                        elif self.join(v, w, k):
                            return True
                        continue
                    old = best[w]
                    if old < 0 or slack < y[ends[old][0]] + y[ends[old][1]] - w2[old]:
                        best[w] = k
                    if not slack and label[bw] == 0 and self.reach(v, w, k):
                        return True

            # the S duals bound every step, so delta is always set
            delta, kind, arg = min(y[v] for v in svert), 1, None
            for w in range(n):
                k = best[w]
                if k >= 0 and label[inb[w]] == 0:
                    a, b = ends[k]
                    d = y[a] + y[b] - w2[k]
                    if d < delta:
                        delta, kind, arg = d, 2, k
            while heap:
                key, k = heap[0]
                a, b = ends[k]
                if inb[a] == inb[b]:
                    heapq.heappop(heap)
                    continue
                d, odd = divmod(key - 2 * shift, 2)
                if odd:
                    raise ArithmeticError("blossom: odd slack between S-blossoms")
                if d < delta:
                    delta, kind, arg = d, 3, k
                break
            z = self.z
            for b in tblossoms:
                if parent[b] == -1 and label[b] == 2 and z[b] < delta:
                    delta, kind, arg = z[b], 4, b
            if delta < 0:
                raise ValueError("blossom: the warm start is not dual feasible")
            if delta:
                shift += delta
                for v in range(n):
                    lab = label[inb[v]]
                    if lab == 1:
                        y[v] -= delta
                    elif lab == 2:
                        y[v] += delta
                for b in range(n, size):
                    if childs[b] is not None and parent[b] == -1:
                        if label[b] == 1:
                            z[b] += delta
                        elif label[b] == 2:
                            z[b] -= delta
            if kind == 1:
                self.settle()
                return True
            if kind == 4:
                self.expand_t(arg)
                continue
            v, w = ends[arg]
            if label[inb[v]] != 1:
                v, w = w, v
            if kind == 2:
                if label[inb[w]] == 0 and self.reach(v, w, arg):
                    return True
            elif self.join(v, w, arg):
                return True

    def label_s(self, b, edge):
        self.label[b] = 1
        self.ledge[b] = edge
        found = self.leaves(b)
        self.svert.extend(found)
        self.queue.extend(found)

    def label_t(self, b, edge):
        self.label[b] = 2
        self.ledge[b] = edge
        if b >= self.n:
            self.tblossoms.append(b)

    def reach(self, v, w, k) -> bool:
        """Tight edge from S vertex v to the free blossom of w: augment
        when that blossom is exposed, else grow the tree by it and its
        mate's blossom."""
        bw = self.inb[w]
        bb = self.base[bw]
        k2 = self.mate[bb]
        if k2 < 0:
            self.walk(v, k)
            self.walk(w, k)
            return True
        self.label_t(bw, (v, w, k))
        x = self.other(k2, bb)
        self.label_s(self.inb[x], (bb, x, k2))
        return False

    def tree_path(self, b):
        """The S-blossoms from S-blossom b up to its tree root."""
        inb, ledge = self.inb, self.ledge
        out = [b]
        while ledge[b] is not None:
            t = inb[ledge[b][0]]
            b = inb[ledge[t][0]]
            out.append(b)
        return out

    def join(self, v, w, k) -> bool:
        """Tight edge between S vertices of two S-blossoms: augment across
        two trees, or shrink the cycle within one tree into a blossom."""
        inb = self.inb
        above = set(self.tree_path(inb[v]))
        for b in self.tree_path(inb[w]):
            if b in above:
                self.shrink(b, v, w, k)
                return False
        self.walk(v, k)
        self.walk(w, k)
        return True

    def shrink(self, top, v, w, k):
        """Tight edge vw closes an odd cycle through the tree below the
        S-blossom ``top``: make the cycle one S-blossom based at top's
        base; its T members turn S and are scanned."""
        inb, ledge, label = self.inb, self.ledge, self.label

        def climb(b):
            blossoms, edges = [], []
            while b != top:
                le = ledge[b]
                t = inb[le[0]]
                blossoms += [b, t]
                edges += [le, ledge[t]]
                b = inb[ledge[t][0]]
            return blossoms, edges

        vpath, vedges = climb(inb[v])
        wpath, wedges = climb(inb[w])
        b = self.unused.pop()
        ch = [top] + vpath[::-1] + wpath
        self.childs[b] = ch
        self.cycle[b] = vedges[::-1] + [(v, w, k)] + [(x2, x, kk) for x, x2, kk in wedges]
        self.base[b] = self.base[top]
        self.z[b] = 0
        self.parent[b] = -1
        for c in ch:
            self.parent[c] = b
        for x in self.leaves(b):
            inb[x] = b
        label[b] = 1
        ledge[b] = ledge[top]
        for c in ch:
            if label[c] == 2:
                found = self.leaves(c)
                self.svert.extend(found)
                self.queue.extend(found)

    def walk(self, s, k):
        """Match S vertex s by edge k (k = -1 leaves it exposed) and flip
        the alternating path from its blossom up to its tree root."""
        inb, ledge, mate = self.inb, self.ledge, self.mate
        n = self.n
        while True:
            bs = inb[s]
            if bs >= n:
                self.rotate(bs, s)
            mate[s] = k
            le = ledge[bs]
            if le is None:
                return
            bt = inb[le[0]]
            s, x, k = ledge[bt]
            if bt >= n:
                self.rotate(bt, x)
            mate[x] = k

    def rotate(self, b, v):
        """Make vertex v the base of blossom b, rematching inside b along
        the even side of its cycle."""
        n, parent, mate = self.n, self.parent, self.mate
        c = v
        while parent[c] != b:
            c = parent[c]
        if c >= n:
            self.rotate(c, v)
        ch, cyc = self.childs[b], self.cycle[b]
        i, size = ch.index(c), len(ch)
        flips = range(i + 1, size, 2) if i % 2 else range(i - 2, -1, -2)
        for j in flips:
            x, x2, k = cyc[j]
            if ch[j] >= n:
                self.rotate(ch[j], x)
            nxt = ch[(j + 1) % size]
            if nxt >= n:
                self.rotate(nxt, x2)
            mate[x] = mate[x2] = k
        self.childs[b] = ch[i:] + ch[:i]
        self.cycle[b] = cyc[i:] + cyc[:i]
        self.base[b] = v

    def settle(self):
        """After a dual-1 step: in each tree whose root still has a
        positive dual, move the exposure onto an S vertex at dual zero."""
        y, base, inb = self.y, self.base, self.inb
        done = set()
        for s in self.svert:
            if y[s]:
                continue
            root = self.tree_path(inb[s])[-1]
            if root in done:
                continue
            done.add(root)
            if y[base[root]]:
                self.walk(s, -1)

    def expand_t(self, b):
        """Expand a T-blossom whose z reached zero.  The even side of its
        cycle, from the child it was entered by to the child holding its
        base, stays in the tree; the odd side turns free, and the next
        dual step finds any of its vertices that is tight to an S vertex
        at slack zero."""
        n, inb, label, ledge = self.n, self.inb, self.label, self.ledge
        ch, cyc = self.childs[b], self.cycle[b]
        entry = ledge[b]
        for c in ch:
            self.parent[c] = -1
            for v in self.leaves(c):
                inb[v] = c
        size = len(ch)
        j = ch.index(inb[entry[1]])
        if j % 2:
            path = list(range(j, size)) + [0]
            steps = [cyc[i] for i in range(j, size)]
        else:
            path = list(range(j, -1, -1))
            steps = [(x2, x, k) for x, x2, k in (cyc[i - 1] for i in range(j, 0, -1))]
        self.childs[b] = self.cycle[b] = None
        label[b] = 0
        ledge[b] = None
        self.unused.append(b)
        self.label_t(ch[j], entry)
        for t, (i, edge) in enumerate(zip(path[1:], steps), 1):
            if t % 2:
                self.label_s(ch[i], edge)
            else:
                self.label_t(ch[i], edge)

    # -- between stages ----------------------------------------------------

    def expand_zero(self):
        """Dissolve the top-level blossoms whose z is zero, recursively."""
        n, parent, childs, z, inb = self.n, self.parent, self.childs, self.z, self.inb

        def expand(b):
            for c in childs[b]:
                parent[c] = -1
                if c < n:
                    inb[c] = c
                elif z[c] == 0:
                    expand(c)
                else:
                    for v in self.leaves(c):
                        inb[v] = c
            childs[b] = self.cycle[b] = None
            self.unused.append(b)

        for b in range(n, len(childs)):
            if childs[b] is not None and parent[b] == -1 and z[b] == 0:
                expand(b)

    def result(self):
        n, childs = self.n, self.childs
        mate = tuple(-1 if k < 0 else self.other(k, v) for v, k in enumerate(self.mate))
        ids = []

        def post_order(b):
            for c in childs[b]:
                if c >= n:
                    post_order(c)
            ids.append(b)

        for b in range(n, len(childs)):
            if childs[b] is not None and self.parent[b] == -1:
                post_order(b)
        renum = {b: n + j for j, b in enumerate(ids)}
        renum.update((v, v) for v in range(n))
        blossoms = tuple(
            (
                self.z[b],
                tuple(renum[c] for c in self.childs[b]),
                tuple((x, x2) for x, x2, _ in self.cycle[b]),
            )
            for b in ids
        )
        return mate, tuple(self.y), blossoms, self.factor


def check_matching_certificate(
    g: Graph, w: Sequence, matching: Iterable[int], cert: MatchingCertificate
) -> None:
    """Raise AssertionError unless ``cert`` proves ``matching`` of maximum
    weight.

    The check shares no code with the blossom run.  On every loop-free
    edge of g, parallels included, the slack priced in ``cert.scale``
    times w is non-negative and zero on matched edges; every blossom is an
    odd vertex set with z >= 0, and one with z > 0 holds (|B| - 1)/2
    matched edges; y >= 0, and y = 0 on exposed vertices.
    """
    n, s = g.n, cert.scale

    def fail(what):
        raise AssertionError(f"blossom certificate: {what}")

    if len(cert.y) != n or len(cert.mate) != n:
        fail("wrong length")
    mate = [-1] * n
    for e in matching:
        u, v = g.edges[e]
        if u == v or mate[u] >= 0 or mate[v] >= 0:
            fail("not a matching")
        mate[u], mate[v] = v, u
    if tuple(mate) != tuple(cert.mate):
        fail("matching differs from the certificate's")
    y = cert.y
    members: list[frozenset] = []
    for zb, children, _ in cert.blossoms:
        if zb < 0:
            fail("negative blossom dual")
        vs: set[int] = set()
        for c in children:
            part = {c} if c < n else members[c - n] if c - n < len(members) else None
            if part is None or vs & part:
                fail("blossoms do not nest")
            vs |= part
        if len(vs) % 2 == 0 or len(vs) < 3:
            fail("blossom of even size")
        members.append(frozenset(vs))
    duals = [zb for zb, _, _ in cert.blossoms]
    holding = [[] for _ in range(n)]
    for j, vs in enumerate(members):
        for v in vs:
            holding[v].append(j)
    tight = set()
    for e, (u, v) in enumerate(g.edges):
        if u == v:
            continue
        slack = y[u] + y[v] - 2 * s * w[e]
        if holding[u] and holding[v]:
            slack += 2 * sum(duals[j] for j in set(holding[u]).intersection(holding[v]))
        if slack < 0:
            fail(f"edge {e} has negative slack")
        if slack == 0:
            tight.add(e)
    for e in matching:
        if e not in tight:
            fail(f"matched edge {e} is not tight")
    for j, vs in enumerate(members):
        if duals[j] > 0 and sum(mate[v] in vs for v in vs) != len(vs) - 1:
            fail("blossom with positive dual is not full")
    if any(d < 0 for d in y) or any(y[v] for v in range(n) if mate[v] < 0):
        fail("vertex dual negative or positive on an exposed vertex")


def max_weight_matching(
    g: Graph, w: Sequence[Fraction], *, start: MatchingCertificate | None = None
) -> Matching:
    """Exact maximum-weight matching as a sorted tuple of edge ids, with
    its checked certificate on ``.certificate``.

    The empty matching (weight 0) always competes, so negative edges are
    never used.  The blossom runs on the collapsed graph with
    integer-scaled weights.  ``start`` warm-starts the run from the
    certificate of a matching on a graph that holds this one, with the
    same weights on the shared edges; the run repairs it instead of
    starting from the empty matching, and the result does not depend on
    it beyond ties.
    """
    rep = _collapse_parallels(g, w)
    weights, scale = integer_scaled([w[e] for e in rep.values()])
    begin = None
    if start is not None:
        den, scale = scale, lcm(scale, start.scale)
        weights = [v * (scale // den) for v in weights]
        up = scale // start.scale
        begin = (
            start.mate,
            [up * v for v in start.y],
            [(up * zb, ch, cyc) for zb, ch, cyc in start.blossoms],
        )
    mate, y, blossoms, factor = _primal_dual(g.n, list(rep), weights, begin)
    cert = MatchingCertificate(scale * factor, mate, y, blossoms)
    chosen = Matching(sorted(rep[(u, v)] for u, v in enumerate(mate) if u < v))
    check_matching_certificate(g, w, chosen, cert)
    chosen.certificate = cert
    return chosen


def b_matching_value(
    g: Graph, w: Sequence[Fraction], b: Sequence[int], vertex_mask: int = -1
) -> Fraction:
    """Maximum weight of a degree-capped edge subset inside G[S], b <= 2.

    Realized by vertex splitting: each capacity-2 vertex gets two copies
    and each edge e becomes a three-edge chain carrying w_e, scaled to an
    integer over the weights' common denominator, on every link.  A
    maximum matching collects it twice on a chain that commits both
    endpoints and once on any other, so the value is the matching weight
    less the kept weights, over the denominator.  Negative edges never
    help and are dropped.
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
        if w[e] >= 0
        and (vertex_mask >> g.edges[e][0]) & 1
        and (vertex_mask >> g.edges[e][1]) & 1
    ]
    if not kept:
        return Fraction(0)
    scaled, den = integer_scaled([w[e] for e in kept])
    edges = []
    weights: list[int] = []
    for e, we in zip(kept, scaled):
        u, v = g.edges[e]
        eu, ev = nxt, nxt + 1
        nxt += 2
        for cu in copies[u]:
            edges.append((cu, eu))
            weights.append(we)
        edges.append((eu, ev))
        weights.append(we)
        for cv in copies[v]:
            edges.append((ev, cv))
            weights.append(we)
    best = max_weight_matching(Graph(nxt, tuple(edges)), weights)
    return Fraction(sum(weights[e] for e in best) - sum(scaled), den)


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
    minimum-cost perfect matching of the closure, and the flip is undone by
    symmetric difference.  Raises ValueError when no T-join exists.
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
        far = max(dist_w)
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
        for (u, v), e in _collapse_parallels(g, [far - d for d in dist_w]).items():
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
        # maximum-weight matching under top - d.  Every closure weight is
        # positive and any two targets of one component share a closure
        # edge, so a heaviest matching leaves no two of them exposed: it is
        # perfect, as each component holds an even number of targets.  The
        # shift adds the same amount to every perfect matching.
        closure = [paths[i][0][tp[j]] for i, j in pairs]
        top = max(closure, default=0) + 1
        mate = max_weight_matching(Graph(len(tp), tuple(pairs)), [top - d for d in closure])
        if 2 * len(mate) != len(tp):
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
