"""The benchmark's four workloads: instances, seeds, shape checks, referees.

Every workload is one full nucleolus solve through the public ``nucnz``
library.  Solve cost depends strongly on the instance, and a run holds
only a handful of solves, so no workload draws a fresh random instance
per seed.  Each fixes a *base instance*, drawn once by its family
generator at a recorded base seed.

* ``bmatch8-oracle`` and ``arbor12-oracle`` are seeded: the run seed draws
  a sequence of relabelings of the base instance, and solve ``i`` of a run
  gets relabeling ``i``.  ``arbor12-oracle`` permutes the players (edges)
  and the vertex labels, which changes kernel vectors, LP row order and
  every tie-break.  ``bmatch8-oracle`` shuffles only the edge order:
  permuting its players changes the labels of every non-zero query and
  with them the T-join sizes.  Relabelings with equal query and T-join
  counts took from 3.6 s to 6.6 s per solve.
* ``ladder17-enum`` and ``ref6-dense`` have no seed.  The ladder family
  has none.  Permuting ref6-dense's players reorders its LP rows and with
  them the pivot path: relabelings took from 1.7 s to 4.6 s per solve,
  against 1.9 s to 3.4 s for repeats of one instance.

Referees run on the base instance.  The nucleolus is equivariant under
player relabeling, so the expected allocation of a relabeled instance is
the referee's allocation carried through the same relabeling.  Each
allocation is compared by exact ``Fraction`` equality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from nucnz import TableGame, is_monotone, mps_nucleolus, reference_nucleolus
from nucnz.bmatch import BMatchInstance, bmatch_lsa_min_excess
from nucnz.fixtures import (
    InstabilityParams,
    PackingGame,
    gen_instability_pair,
    instability_closed_forms,
    random_graph,
    random_monotone_game,
)
from nucnz.games import GameOracle
from nucnz.graphs import Graph
from nucnz.matching import BMatchingGame
from nucnz.matroids import ArboricityGame, arboricity_lsa_solver
from nucnz.mps import NucleolusResult

DEFAULT_SEED = 1
HELD_OUT_SEED = 2027

LADDER = InstabilityParams(0, Fraction(1, 16), Fraction(64))
BMATCH_BASE_SEED = 16  # the cheapest of base seeds 1..20: 4.2 s a solve
ARBOR_BASE_SEED = 3
REF_BASE_SEED = 1
DUMMY_VALUE = 3

Allocation = tuple[Fraction, ...]
SepWrapper = Callable[[Callable], Callable]


class ShapeError(ValueError):
    """A generated instance does not have its workload's named shape."""


@dataclass(frozen=True)
class Problem:
    """One solvable instance.

    ``players[j]`` is the base-instance player that player ``j`` relabels.
    ``solve`` takes a wrapper for the separation oracle, so that a traced
    run can record separation calls; untraced runs pass the identity.
    """

    game: GameOracle
    solve: Callable[[SepWrapper], NucleolusResult]
    players: tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool
    game_class: type
    build: Callable[[int, int], Problem]
    referee: Callable[[], Allocation]


def identity(fn):
    return fn


def relabel(base_allocation: Sequence[Fraction], players: Sequence[int]) -> Allocation:
    return tuple(base_allocation[p] for p in players)


def is_exact(alloc, expected: Allocation) -> bool:
    """Exact rational equality; a float anywhere is a mismatch."""
    return all(isinstance(v, Fraction) for v in alloc) and tuple(alloc) == tuple(expected)


def count_failures(wl: Workload, solved) -> int:
    """Solves that raised (result None) or disagree with the referee.

    ``solved`` holds one (players, result) pair per attempted solve.
    """
    expected = wl.referee()
    return sum(
        1
        for players, result in solved
        if result is None or not is_exact(result.allocation, relabel(expected, players))
    )


def _rng(name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{index}")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ShapeError(what)


# -- ladder17-enum ---------------------------------------------------------


def _ladder(seed: int, index: int) -> Problem:
    game = gen_instability_pair(LADDER)[0]
    _require(game.player_count == 17, "ladder17-enum must have 17 players")
    game.table()
    return Problem(game, lambda wrap: mps_nucleolus(game), tuple(range(17)))


def _ladder_referee() -> Allocation:
    return instability_closed_forms(LADDER)[0]


# -- bmatch8-oracle --------------------------------------------------------


def bmatch_base() -> tuple[Graph, tuple[Fraction, ...], tuple[int, ...]]:
    """8 vertices, 11 distinct edges, weights 1..9, two capacity-2 vertices."""
    rng = random.Random(BMATCH_BASE_SEED)
    pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    edges = sorted(rng.sample(pairs, 11))
    w = tuple(Fraction(rng.randint(1, 9)) for _ in edges)
    cap2 = rng.sample(range(8), 2)
    b = tuple(2 if v in cap2 else 1 for v in range(8))
    return Graph.of(8, edges), w, b


def check_bmatch_shape(g: Graph, w: Sequence[Fraction], b: Sequence[int]) -> None:
    _require(g.n == 8, "bmatch8-oracle must have 8 vertices")
    _require(not g.has_loops(), "bmatch8-oracle graph must be loop-free")
    distinct = {frozenset(e) for e in g.edges}
    _require(g.m == 11 and len(distinct) == 11, "bmatch8-oracle needs 11 distinct edges")
    _require(len(b) == 8 and sorted(b) == [1] * 6 + [2] * 2,
             "bmatch8-oracle needs exactly 2 capacity-2 vertices")
    _require(len(w) == 11 and all(v.denominator == 1 and 1 <= v <= 9 for v in w),
             "bmatch8-oracle weights must be integers in 1..9")


def bmatch_instance(seed: int, index: int):
    """Base instance with its edges in a seeded order: (graph, weights,
    capacities, players)."""
    g0, w0, b = bmatch_base()
    order = list(range(g0.m))
    _rng("bmatch8-oracle", seed, index).shuffle(order)
    g = Graph.of(8, [g0.edges[e] for e in order])
    w = tuple(w0[e] for e in order)
    check_bmatch_shape(g, w, b)
    return g, w, b, tuple(range(8))


def _bmatch(seed: int, index: int) -> Problem:
    g, w, b, players = bmatch_instance(seed, index)
    game = BMatchingGame(g, w, b)

    def sep(vg, y, L):
        return bmatch_lsa_min_excess(BMatchInstance(g, w, b, tuple(y)), L)

    return Problem(
        game, lambda wrap: mps_nucleolus(game, mode="oracle", sep=wrap(sep)), players
    )


def _bmatch_referee() -> Allocation:
    return mps_nucleolus(BMatchingGame(*bmatch_base())).allocation


# -- arbor12-oracle --------------------------------------------------------


def check_arbor_shape(g: Graph) -> None:
    _require(g.n == 6 and g.m == 12, "arbor12-oracle needs 6 vertices and 12 edges")
    _require(not g.has_loops(), "arbor12-oracle graph must be loop-free")


def arbor_instance(seed: int, index: int) -> tuple[Graph, tuple[int, ...]]:
    """Relabeled base graph and players (players are edges)."""
    g0 = random_graph(6, 12, ARBOR_BASE_SEED)
    rng = _rng("arbor12-oracle", seed, index)
    new_of = list(range(6))
    rng.shuffle(new_of)
    players = list(range(g0.m))
    rng.shuffle(players)
    g = Graph.of(6, [(new_of[g0.edges[e][0]], new_of[g0.edges[e][1]]) for e in players])
    check_arbor_shape(g)
    return g, tuple(players)


def _arbor(seed: int, index: int) -> Problem:
    g, players = arbor_instance(seed, index)
    game = ArboricityGame(g)
    sep = arboricity_lsa_solver(g)
    return Problem(
        game, lambda wrap: mps_nucleolus(game, mode="oracle", sep=wrap(sep)), players
    )


def _arbor_referee() -> Allocation:
    return mps_nucleolus(ArboricityGame(random_graph(6, 12, ARBOR_BASE_SEED))).allocation


# -- ref6-dense ------------------------------------------------------------


def ref_table() -> list[Fraction]:
    """Random monotone 5-player game plus player 5, a dummy of value 3."""
    five = random_monotone_game(5, REF_BASE_SEED).table()
    return [five[m & 31] + (DUMMY_VALUE if m & 32 else 0) for m in range(64)]


def check_ref_shape(game: TableGame, dummy: int = 5) -> None:
    _require(game.player_count == 6, "ref6-dense must have 6 players")
    table = game.table()
    bit = 1 << dummy
    _require(all(table[m | bit] - table[m] == DUMMY_VALUE for m in range(64) if not m & bit),
             "ref6-dense must have a dummy player of value 3")
    _require(is_monotone(game), "ref6-dense game must be monotone")


def _ref(seed: int, index: int) -> Problem:
    game = TableGame(ref_table())
    check_ref_shape(game)
    return Problem(game, lambda wrap: reference_nucleolus(game), tuple(range(6)))


def _ref_referee() -> Allocation:
    return mps_nucleolus(TableGame(ref_table())).allocation


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ladder17-enum", False, PackingGame, _ladder, _ladder_referee),
        Workload("bmatch8-oracle", True, BMatchingGame, _bmatch, _bmatch_referee),
        Workload("arbor12-oracle", True, ArboricityGame, _arbor, _arbor_referee),
        Workload("ref6-dense", False, TableGame, _ref, _ref_referee),
    )
}
