"""Gadget reductions between degree-capped matching games, non-zero
matchings and non-zero cycles, plus the top-level constrained-excess
solver for those games.

All three reductions use a dominating constant K so that optimal solutions
of the produced instance are forced to respect the gadget structure, and
each ships a map object that pulls solutions back with an exact value
identity.

The solver answers a non-zero query by forced-status matching on the
gadget instance.  It takes M̄, a maximum-weight matching of the gadget
graph, and returns it when its label sum is nonzero.  Otherwise it
guesses a set D of at most #cap2 + 2 label-carrying edges whose status
flips relative to M̄ (signed label change nonzero), keeps every other
label-carrying edge at its M̄ status, and completes the forced-in edges
by one blossom call on the unlabelled rest of the graph.  The query is
exact under the gadget's promise (:func:`verify_nonzero_promise`): M̄ is
maximum, so no alternating component of M* Δ M̄ gains weight; some
component P changes the label, P crosses at most #cap2 + 2 labelled
edges, and the guess "D = P's labelled edges" admits M̄ Δ P, which is
at least as heavy as M*.  It is polynomial when few vertices have
capacity 2.  The older route through a padded cycle instance and
parity-join guesses stays as the referee
:func:`bmatch_nz_min_excess_by_cycles`.

A separation (:func:`bmatch_lsa_min_excess`) builds the gadget and M̄
once.  M̄ encodes a coalition S̄ of least excess among all coalitions, so
S̄ is returned whenever it avoids the span, ties or not, and no query
runs.  Only when S̄ lies in the span does the separation query the
kernel.  Unlike the other separation solvers, it does not fold the kernel
into a single non-zero vector (:func:`nucnz.linalg.fold_kernel`).  The
forced-status route guesses among the nonzero-labelled edges,
C(|supp a|, <= #cap2 + 2) guesses per query: a kernel vector of a
low-dimensional span has support 2, while the folded vector is supported
on nearly every vertex.  One query per kernel vector is much cheaper
there, and each reuses the separation's gadget and M̄.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Sequence

from .games import ExcessReport, coalition_sum, coalition_vector
from .graphs import Graph
from .linalg import LinearSubspace, integer_kernel_basis, rat_str
from .matching import (
    BMatchingGame,
    Matching,
    PaddedGraph,
    complete_to_perfect,
    max_weight_matching,
    pad_to_perfect,
)
from .cycles import (
    CycleReport,
    NZCycleInstance,
    shortest_nz_cycle_few_nonzero,
)

__all__ = [
    "BMatchInstance",
    "NZMatchingInstance",
    "NodeEdgeGadgetMap",
    "MatchingToCycle",
    "SubdivisionMap",
    "reduce_bmatch_to_nzmatching",
    "reduce_nzmatching_to_nzcycle",
    "reduce_nzcycle_to_bmatch",
    "verify_nonzero_promise",
    "nz_matching_randomized",
    "bmatch_nz_min_excess",
    "bmatch_nz_min_excess_by_cycles",
    "bmatch_lsa_min_excess",
]

# Largest |weight| and |label| the randomized solver accepts.
RANDOMIZED_WEIGHT_BOUND = 1 << 20


@dataclass(frozen=True)
class BMatchInstance:
    """Degree-capped matching game data plus a per-vertex allocation."""

    graph: Graph
    w: tuple[Fraction, ...]
    b: tuple[int, ...]
    y: tuple[Fraction, ...]

    def __post_init__(self):
        g = self.graph
        if len(self.w) != g.m or len(self.b) != g.n or len(self.y) != g.n:
            raise ValueError("array lengths must match the graph")
        if any(cap not in (1, 2) for cap in self.b):
            raise ValueError("vertex capacities must be 1 or 2")
        if g.has_loops():
            raise ValueError("degree-capped matching games require loop-free graphs")

    def game(self) -> BMatchingGame:
        return BMatchingGame(self.graph, self.w, self.b)

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "w": [rat_str(v) for v in self.w],
            "b": list(self.b),
            "y": [rat_str(v) for v in self.y],
        }


@dataclass(frozen=True)
class NZMatchingInstance:
    graph: Graph
    w: tuple[Fraction, ...]
    a: tuple[int, ...]

    def __post_init__(self):
        if len(self.w) != self.graph.m or len(self.a) != self.graph.m:
            raise ValueError("array lengths must match the edge count")
        if all(v == 0 for v in self.a):
            raise ValueError("some edge must carry a nonzero label")

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "w": [rat_str(v) for v in self.w],
            "a": list(self.a),
        }


@dataclass(frozen=True)
class NodeEdgeGadgetMap:
    """Pull-back data for the game-to-matching reduction.

    Vertex v becomes a four-vertex gadget whose center edge carries the
    vertex label; edge e becomes a two-vertex gadget linked to its
    endpoints' capacity slots.  A matching of the produced graph encodes
    the coalition of all vertices whose center edge it picks, and
    w'(M') = K(|V| + |E|) + y(V) + v(S) - y(S) at optimality.
    """

    n: int
    m: int
    K: Fraction
    center_edge: tuple[int, ...]
    offset: Fraction

    def coalition_of(self, matching: Iterable[int]) -> int:
        chosen = set(matching)
        return sum(1 << v for v in range(self.n) if self.center_edge[v] in chosen)

    def implied_excess(self, matching_weight: Fraction) -> Fraction:
        return self.offset - matching_weight

    def to_json_dict(self) -> dict:
        return {
            "kind": "node-edge-gadget",
            "K": rat_str(self.K),
            "center_edge": list(self.center_edge),
            "offset": rat_str(self.offset),
        }


def reduce_bmatch_to_nzmatching(
    inst: BMatchInstance, a: Sequence[int]
) -> tuple[NZMatchingInstance, NodeEdgeGadgetMap]:
    """The gadget of ``inst`` with label a[v] on the center edge of vertex
    v; every other edge carries label 0."""
    if len(a) != inst.graph.n:
        raise ValueError("label vector length must equal the vertex count")
    if all(v == 0 for v in a):
        raise ValueError("some vertex must carry a nonzero label")
    gadget = _gadget(inst)
    labels = [0] * gadget.graph.m
    for v, e in enumerate(gadget.gm.center_edge):
        labels[e] = int(a[v])
    return NZMatchingInstance(gadget.graph, gadget.w, tuple(labels)), gadget.gm


class _Gadget:
    """The label-free part of the node-edge gadget: its graph, its weights
    as integers over the common denominator ``den`` (and as ``Fraction``s
    when a reduction asks), the pull-back map, and M̄.  None of it depends
    on the label vector."""

    def __init__(self, inst: BMatchInstance):
        g = inst.graph
        # y and w over their common denominator d, and K times d.  Every
        # weight times 2d is an integer: K d + d y_v on a slot edge, 2 K d
        # on a center or middle edge, K d + d w_e on a link.
        d = lcm(*(v.denominator for v in (*inst.y, *inst.w)))
        y = [v.numerator * (d // v.denominator) for v in inst.y]
        w = [v.numerator * (d // v.denominator) for v in inst.w]
        K = 2 * (sum(map(abs, w)) + 2 * sum(map(abs, y))) + d
        edges: list[tuple[int, int]] = []
        weights: list[int] = []
        center_edge = []
        # Vertex v owns slots 4v and 4v + 2, each paired with a twin
        # (4v + 1, 4v + 3); the center edge joins the twins.
        for v in range(g.n):
            edges += [(4 * v, 4 * v + 1), (4 * v + 2, 4 * v + 3)]
            weights += [K + y[v], K + y[v]]
            center_edge.append(len(edges))
            edges.append((4 * v + 1, 4 * v + 3))
            weights.append(2 * K)
        base = 4 * g.n
        for e in range(g.m):
            p, q = g.edges[e]
            pe, qe = base + 2 * e, base + 2 * e + 1
            edges.append((pe, qe))
            weights.append(2 * K)
            for x, xe in ((p, pe), (q, qe)):
                for i in range(inst.b[x]):
                    edges.append((4 * x + 2 * i, xe))
                    weights.append(K + w[e])
        self.graph = Graph(4 * g.n + 2 * g.m, tuple(edges))
        # The least common denominator, as integer_scaled would give.
        common = gcd(2 * d, *weights)
        self.int_w, self.den = [v // common for v in weights], 2 * d // common
        offset = Fraction(K * (g.n + g.m) + sum(y), d)
        self.gm = NodeEdgeGadgetMap(g.n, g.m, Fraction(K, d), tuple(center_edge), offset)

    @cached_property
    def w(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.int_w)

    @cached_property
    def mbar(self) -> Matching:
        """A maximum-weight matching under the integer weights, with the
        certificate that warm-starts every guess."""
        return max_weight_matching(self.graph, self.int_w)

    def report(self, matching: Sequence[int]) -> ExcessReport:
        """The coalition of ``matching`` with its excess by the weight
        identity, summed over the integer weights."""
        weight = Fraction(sum(self.int_w[e] for e in matching), self.den)
        return ExcessReport(self.gm.coalition_of(matching), self.gm.implied_excess(weight))


# The instance whose gadget was built last, and that gadget.  The queries
# of one separation all run on one instance object, so the slot is matched
# by identity and the instance is never hashed.
_held: tuple = (None, None)


def _gadget(inst: BMatchInstance) -> _Gadget:
    global _held
    if _held[0] is not inst:
        _held = (inst, _Gadget(inst))
    return _held[1]


@dataclass(frozen=True)
class MatchingToCycle:
    """Either a direct answer (the unconstrained optimum already has a
    nonzero label) or a cycle instance over the padded graph."""

    direct: tuple[int, ...] | None
    instance: NZCycleInstance | None
    padded: PaddedGraph | None
    base_matching: tuple[int, ...] | None

    def back_translate(self, cycle: CycleReport | None) -> tuple[int, ...] | None:
        if self.direct is not None:
            return self.direct
        if cycle is None:
            return None
        flipped = set(self.base_matching) ^ set(cycle.edges)
        return self.padded.strip(flipped)


def reduce_nzmatching_to_nzcycle(inst: NZMatchingInstance) -> MatchingToCycle:
    g = inst.graph
    mbar = max_weight_matching(g, inst.w)
    if sum(inst.a[e] for e in mbar) != 0:
        return MatchingToCycle(tuple(mbar), None, None, None)
    padded = pad_to_perfect(g, inst.w, inst.a)
    perfect = complete_to_perfect(padded, mbar)
    K = 2 * sum(abs(v) for v in padded.w) + 1
    in_bar = set(perfect)
    costs = []
    labels = []
    for e in range(padded.graph.m):
        if e in in_bar:
            costs.append(padded.w[e] - K)
            labels.append(-padded.a[e])
        else:
            costs.append(K - padded.w[e])
            labels.append(padded.a[e])
    cyc = NZCycleInstance(padded.graph, tuple(costs), tuple(labels))
    return MatchingToCycle(None, cyc, padded, perfect)


@dataclass(frozen=True)
class SubdivisionMap:
    """Pull-back data for the cycle-to-game reduction: edge e of the cycle
    instance owns the middle vertex n + e of the produced graph."""

    n: int
    m: int
    K: Fraction

    def cycle_edges_of(self, vertex_mask: int) -> tuple[int, ...]:
        return tuple(e for e in range(self.m) if (vertex_mask >> (self.n + e)) & 1)

    def to_json_dict(self) -> dict:
        return {"kind": "subdivision", "K": rat_str(self.K), "middle_base": self.n}


def reduce_nzcycle_to_bmatch(
    inst: NZCycleInstance,
) -> tuple[BMatchInstance, tuple[int, ...], SubdivisionMap]:
    """Produce the game instance plus the vertex label vector to query."""
    g = inst.graph
    K = 2 * sum(abs(c) for c in inst.costs) + 1
    edges = []
    weights = []
    for e in range(g.m):
        u, v = g.edges[e]
        mid = g.n + e
        edges.append((u, mid))
        weights.append(K - inst.costs[e])
        edges.append((mid, v))
        weights.append(Fraction(K))
    out_graph = Graph(g.n + g.m, tuple(edges))
    b = tuple(2 for _ in range(out_graph.n))
    y = tuple(Fraction(K) for _ in range(out_graph.n))
    labels = tuple([0] * g.n + [int(v) for v in inst.a])
    return (
        BMatchInstance(out_graph, tuple(weights), b, y),
        labels,
        SubdivisionMap(g.n, g.m, Fraction(K)),
    )


def verify_nonzero_promise(
    produced: NZMatchingInstance, b: Sequence[int], center_edge: Sequence[int]
) -> bool:
    """Structural certificate that simple cycles of the produced graph use
    at most #capacity-2-vertices nonzero edges (paths at most two more):
    every nonzero edge of a capacity-1 vertex must be a dead end."""
    g = produced.graph
    deg = g.degrees(range(g.m))
    for v, cap in enumerate(b):
        e = center_edge[v]
        if produced.a[e] == 0:
            continue
        if cap == 1:
            # one endpoint of the center edge must continue only into a
            # degree-1 slot vertex, so no simple cycle can cross it
            ok = False
            for end in g.edges[e]:
                neighbours = []
                for ee, (x, y) in enumerate(g.edges):
                    if ee == e:
                        continue
                    if x == end:
                        neighbours.append(y)
                    elif y == end:
                        neighbours.append(x)
                if len(neighbours) == 1 and deg[neighbours[0]] == 1:
                    ok = True
            if not ok:
                return False
    return True


def nz_matching_randomized(
    inst: NZMatchingInstance, seed: int
) -> tuple[tuple[int, ...], Fraction]:
    """Best nonzero matching for bounded integer data (randomized, with
    verified output).

    Labels are shifted non-negative and folded into the weights with a
    dominating factor, so each achievable perfect-matching total decodes
    uniquely into a (label sum, weight) pair.  The best feasible total is
    found from the pfaffian support and a witness extracted and verified.
    """
    from .exact_matching import exact_weight_perfect_matching, pf_weight_support

    g = inst.graph
    w = []
    for v in inst.w:
        fv = Fraction(v)
        if fv.denominator != 1:
            raise ValueError("randomized solver needs integer weights")
        w.append(int(fv))
    if any(abs(v) > RANDOMIZED_WEIGHT_BOUND for v in w) or any(
        abs(v) > RANDOMIZED_WEIGHT_BOUND for v in inst.a
    ):
        raise ValueError("weights exceed the configured bound")
    padded = pad_to_perfect(g, [Fraction(v) for v in w], inst.a)
    pg = padded.graph
    half = pg.n // 2
    wp = [int(v) for v in padded.w]
    ap = list(padded.a)
    L = 2 * sum(abs(v) for v in wp) + 1
    a0 = max(0, -min(ap))
    t0 = a0 * half
    folded = [wp[e] + L * (ap[e] + a0) for e in range(pg.m)]
    shift = max(0, -min(folded))
    shifted = [v + shift for v in folded]
    rng = random.Random(seed)
    scalars = [rng.randrange(1, 1 << 61) for _ in range(pg.m)]
    coeffs = pf_weight_support(pg, shifted, scalars)
    candidates = []
    for r, c in enumerate(coeffs):
        if c == 0:
            continue
        r0 = r - shift * half
        u = ((r0 % L) + L) % L
        if u > L // 2:
            u -= L
        s = (r0 - u) // L
        if s != t0:
            candidates.append((u, r0))
    candidates.sort(key=lambda t: (-t[0], t[1]))
    for u, r0 in candidates:
        m = exact_weight_perfect_matching(pg, folded, r0, seed=rng.randrange(1 << 30))
        if m is None:
            continue
        got = padded.strip(m)
        label = sum(inst.a[e] for e in got)
        weight = sum(w[e] for e in got)
        if label != 0 and weight == u:
            return got, Fraction(weight)
    raise RuntimeError("randomized matching failed on every candidate total")


def _forced_status_matching(
    inst: NZMatchingInstance, w: Sequence[int], mbar: Matching, max_flips: int
) -> tuple[int, ...] | None:
    """Heaviest nonzero matching whose label-carrying edges differ from
    their status in the maximum-weight matching ``mbar`` on at most
    ``max_flips`` edges; ties go to the smallest sorted edge tuple.

    ``w`` are the weights of ``inst`` scaled to integers, which also price
    ``mbar``.  Each guess deletes the forced edges' endpoints and every
    labelled edge, so its blossom run starts from M̄'s primal-dual pair and
    only repairs the vertices the deletions expose."""
    g, a = inst.graph, inst.a
    if sum(a[e] for e in mbar) != 0:
        return mbar
    in_bar = set(mbar)
    labelled = [e for e in range(g.m) if a[e] != 0]
    unlabelled = [e for e in range(g.m) if a[e] == 0]
    signed = {e: -a[e] if e in in_bar else a[e] for e in labelled}
    best: tuple[int, ...] | None = None
    best_weight = 0
    for k in range(1, max_flips + 1):
        for flips in combinations(labelled, k):
            if sum(signed[e] for e in flips) == 0:
                continue
            forced = [e for e in labelled if (e in in_bar) != (e in flips)]
            covered = {x for e in forced for x in g.edges[e]}
            if len(covered) != 2 * len(forced):
                continue
            rest = [
                e for e in unlabelled
                if g.edges[e][0] not in covered and g.edges[e][1] not in covered
            ]
            sub = max_weight_matching(
                Graph(g.n, tuple(g.edges[e] for e in rest)),
                [w[e] for e in rest],
                start=mbar.certificate,
            )
            matching = tuple(sorted(forced + [rest[i] for i in sub]))
            weight = sum(w[e] for e in matching)
            if best is None or (-weight, matching) < (-best_weight, best):
                best, best_weight = matching, weight
    return best


def bmatch_nz_min_excess(inst: BMatchInstance, a: Sequence[int]) -> ExcessReport:
    """Minimum excess over coalitions with a(S) != 0 for the matching game:
    forced-status matching on the gadget instance with at most #cap2 + 2
    flipped label-carrying edges (see the module docstring).  The excess
    comes from the gadget's weight identity."""
    produced, _ = reduce_bmatch_to_nzmatching(inst, a)
    gadget = _gadget(inst)
    cap2 = sum(1 for cap in inst.b if cap == 2)
    matching = _forced_status_matching(produced, gadget.int_w, gadget.mbar, cap2 + 2)
    if matching is None:
        raise RuntimeError("gadget instance lost its nonzero matchings")
    return gadget.report(matching)


def bmatch_nz_min_excess_by_cycles(
    inst: BMatchInstance, a: Sequence[int]
) -> ExcessReport:
    """Referee for :func:`bmatch_nz_min_excess` by the cycle route: gadget
    chain to a padded cycle instance, then parity-join cycles with at most
    #cap2 + 2 guessed non-zero edges."""
    produced, gm = reduce_bmatch_to_nzmatching(inst, a)
    red = reduce_nzmatching_to_nzcycle(produced)
    cyc = None
    if red.direct is None:
        cap2 = sum(1 for cap in inst.b if cap == 2)
        cyc = shortest_nz_cycle_few_nonzero(red.instance, cap2 + 2)
    matching = red.back_translate(cyc)
    if matching is None:
        raise RuntimeError("gadget instance lost its nonzero matchings")

    mask = gm.coalition_of(matching)
    ex = coalition_sum(inst.y, mask) - inst.game().value(mask)
    return ExcessReport(mask, ex)


def bmatch_lsa_min_excess(inst: BMatchInstance, L: LinearSubspace) -> ExcessReport:
    """Minimum excess over coalitions avoiding ``L``, M̄ first.

    A full-space ``L`` raises ``ValueError`` before any gadget is built.
    The coalition S̄ of the gadget's maximum-weight matching M̄ has the
    least excess of all coalitions.  Whenever χ_S̄ avoids ``L``, S̄ is the
    answer, even where another avoiding coalition ties with it, and no
    non-zero query runs.  Otherwise every kernel vector a of ``L`` has
    a(S̄) = 0, and one non-zero query per kernel vector runs on the same
    gadget and M̄; the least excess wins, ties to the smaller coalition
    mask.  The kernel is not folded into one query, which would multiply
    the forced-status guesses (see the module docstring)."""
    kernel = integer_kernel_basis(L)
    gadget = _gadget(inst)
    direct = gadget.report(gadget.mbar)
    if not L.contains(coalition_vector(direct.coalition, inst.graph.n)):
        return direct
    best: ExcessReport | None = None
    for a in kernel:
        rep = bmatch_nz_min_excess(inst, a)
        if best is None or (rep.excess, rep.coalition) < (best.excess, best.coalition):
            best = rep
    return best
