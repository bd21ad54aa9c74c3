"""JSON file formats: games, allocations, avoided subspaces.

A game file is {"kind": "value"|"cost", "players": [names...], "game":
{...}} where the inner object carries a "type" of table, bmatching,
arboricity, network_strength or packing plus its payload.  Rationals are
strings "p/q" (or "p"); graphs are {"n": ..., "edges": [[u, v], ...]}.
"""

from __future__ import annotations

from fractions import Fraction

from .fixtures import PackingGame
from .games import GameOracle, TableGame, coalition_of, make_allocation
from .graphs import Graph
from .linalg import LinearSubspace, parse_rat
from .matching import BMatchingGame
from .matroids import ArboricityGame, NetworkStrengthGame

__all__ = [
    "GameFileError",
    "LoadedGame",
    "load_game_dict",
    "load_allocation_dict",
    "load_subspace_dict",
    "graph_field",
    "rat_list_field",
    "int_list_field",
]


class GameFileError(ValueError):
    """Malformed game/allocation/subspace file."""


class LoadedGame:
    def __init__(self, game: GameOracle, players: list[str]):
        self.game = game
        self.players = players


def _require(cond: bool, msg: str):
    if not cond:
        raise GameFileError(msg)


def _field(d, key: str, what: str):
    _require(isinstance(d, dict) and key in d, f'{what} needs a "{key}" entry')
    return d[key]


def _ints(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, int) for x in v)


def _list(d, key: str, what: str) -> list:
    v = _field(d, key, what)
    _require(isinstance(v, list), f'{what} "{key}" must be a list')
    return v


def graph_field(spec: dict, what: str) -> Graph:
    """The checked ``"graph"`` entry of ``spec``; ``what`` names ``spec`` in errors."""
    g = _field(spec, "graph", what)
    n = _field(g, "n", "graph")
    edges = _list(g, "edges", "graph")
    _require(isinstance(n, int), 'graph "n" must be an integer')
    _require(all(_ints(e) and len(e) == 2 for e in edges), "graph edges must be integer pairs")
    return Graph.of(n, edges)


def rat_list_field(d, key: str, what: str) -> list[Fraction]:
    """The checked list of rationals under ``key``."""
    return [parse_rat(v) for v in _list(d, key, what)]


def int_list_field(d, key: str, what: str) -> list[int]:
    """The checked list of integers under ``key``."""
    v = _list(d, key, what)
    _require(_ints(v), f'{what} "{key}" must be a list of integers')
    return v


def load_game_dict(d: dict) -> LoadedGame:
    _require(isinstance(d, dict), "game file must be a JSON object")
    kind = d.get("kind")
    _require(kind in ("value", "cost"), 'kind must be "value" or "cost"')
    players = d.get("players")
    _require(isinstance(players, list) and players, "players must be a non-empty list")
    spec = d.get("game")
    _require(isinstance(spec, dict), "game payload missing")
    gtype = spec.get("type")
    n = len(players)

    if gtype == "table":
        values = spec.get("values")
        _require(isinstance(values, list), "table game needs a values list")
        _require(len(values) == 1 << n, "table must list all 2^n coalition values")
        game: GameOracle = TableGame([parse_rat(v) for v in values], kind=kind)
    elif gtype == "bmatching":
        graph = graph_field(spec, "bmatching game")
        _require(graph.n == n, "players must match the vertex count")
        w = rat_list_field(spec, "w", "bmatching game")
        b = int_list_field(spec, "b", "bmatching game")
        _require(kind == "value", "degree-capped matching games are value games")
        game = BMatchingGame(graph, w, b)
    elif gtype == "arboricity":
        graph = graph_field(spec, "arboricity game")
        _require(graph.m == n, "players must match the edge count")
        _require(kind == "cost", "forest-cover games are cost games")
        game = ArboricityGame(graph)
    elif gtype == "network_strength":
        graph = graph_field(spec, "network_strength game")
        _require(graph.m == n, "players must match the edge count")
        _require(kind == "value", "spanning-tree-packing games are value games")
        game = NetworkStrengthGame(graph)
    elif gtype == "packing":
        sets = spec.get("sets")
        _require(isinstance(sets, list) and sets, "packing game needs sets")
        parsed = []
        for s in sets:
            members = _field(s, "members", "packing set")
            weight = parse_rat(_field(s, "weight", "packing set"))
            _require(_ints(members), 'packing set "members" must be a list of integers')
            _require(all(0 <= p < n for p in members), "set member out of range")
            parsed.append((coalition_of(members), weight))
        _require(kind == "value", "packing games are value games")
        game = PackingGame(n, parsed)
    else:
        raise GameFileError(f"unknown game type {gtype!r}")
    return LoadedGame(game, [str(p) for p in players])


def load_allocation_dict(d: dict, n: int):
    _require(isinstance(d, dict) and "y" in d, 'allocation file needs a "y" list')
    y = d["y"]
    _require(isinstance(y, list) and len(y) == n, f"allocation must have {n} entries")
    return make_allocation(parse_rat(v) for v in y)


def load_subspace_dict(d: dict, n: int) -> LinearSubspace:
    _require(isinstance(d, dict) and "basis" in d, 'subspace file needs a "basis" list')
    rows = d["basis"]
    _require(isinstance(rows, list), 'subspace "basis" must be a list')
    for row in rows:
        _require(isinstance(row, list) and len(row) == n, f"basis rows must have {n} entries")
    L = LinearSubspace.from_rows(
        [[parse_rat(v) for v in row] for row in rows], n
    )
    _require(L.is_proper(), "avoided subspace must be a proper subspace")
    return L
