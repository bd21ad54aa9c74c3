import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_b_matching_value,
    brute_max_weight_matching,
    brute_min_t_join,
    has_negative_cycle,
    odd_degree_set,
    subset_sum,
)
from nucnz import matching
from nucnz.fixtures import random_graph
from nucnz.graphs import Graph
from nucnz.matching import (
    BMatchingGame,
    MatchingCertificate,
    b_matching_value,
    check_matching_certificate,
    complete_to_perfect,
    is_conservative,
    matching_is_valid,
    max_weight_matching,
    min_cost_t_join,
    pad_to_perfect,
    t_join_exists,
)


def test_path_matching():
    g = Graph.of(3, [(0, 1), (1, 2)])
    m = max_weight_matching(g, [F(2), F(3)])
    assert m == (1,)


def test_cycle_matching():
    g = Graph.of(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    m = max_weight_matching(g, [5, 1, 5, 1])
    assert m == (0, 2)


def test_all_negative_empty():
    g = Graph.of(4, [(0, 1), (1, 2), (2, 3)])
    assert max_weight_matching(g, [-1, -2, -3]) == ()


def test_blossom_matches_brute_above_limit():
    rng = random.Random(2)
    for trial in range(40):
        n = rng.randint(4, 8)
        g = random_graph(n, rng.randint(13, 16), 800 + trial)
        w = [F(rng.randint(-6, 9), rng.choice([1, 2])) for _ in range(g.m)]
        got = max_weight_matching(g, w)
        assert matching_is_valid(g, got)
        want_wt, _ = brute_max_weight_matching(g, w)
        assert subset_sum(w, sum(1 << e for e in got)) == want_wt


def test_brute_path_matches_below_limit():
    rng = random.Random(3)
    for trial in range(60):
        n = rng.randint(2, 6)
        g = random_graph(n, rng.randint(1, 10), 900 + trial)
        w = [F(rng.randint(-5, 8)) for _ in range(g.m)]
        got = max_weight_matching(g, w)
        want_wt, want_mask = brute_max_weight_matching(g, w)
        assert subset_sum(w, sum(1 << e for e in got)) == want_wt


def test_b_matching_examples():
    g1 = Graph.of(2, [(0, 1)])
    assert b_matching_value(g1, [F(5)], [1, 1]) == 5
    tri = Graph.of(3, [(0, 1), (1, 2), (2, 0)])
    assert b_matching_value(tri, [1, 1, 1], [2, 2, 2]) == 3
    assert b_matching_value(tri, [1, 1, 1], [1, 1, 1]) == 1
    # isolated endpoint kills every edge
    assert b_matching_value(g1, [F(5)], [1, 1], vertex_mask=0b01) == 0


def test_b_matching_matches_brute():
    rng = random.Random(4)
    for trial in range(50):
        n = rng.randint(2, 5)
        g = random_graph(n, rng.randint(1, 8), 1000 + trial)
        if g.has_loops():
            continue
        w = [F(rng.randint(-4, 8), rng.choice([1, 2])) for _ in range(g.m)]
        b = [rng.choice([1, 2]) for _ in range(n)]
        mask = rng.randrange(1 << n)
        assert b_matching_value(g, w, b, mask) == brute_b_matching_value(g, w, b, mask)


def test_b_matching_matches_brute_on_int_data():
    # Plain int weights, with negative and zero ones, and parallel edges
    # among the random draws: the value is an exact Fraction all the same.
    rng = random.Random(6)
    for trial in range(40):
        n = rng.randint(2, 5)
        g = random_graph(n, rng.randint(1, 8), 2000 + trial)
        if g.has_loops():
            continue
        w = [rng.randint(-4, 9) for _ in range(g.m)]
        b = [rng.choice([1, 2]) for _ in range(n)]
        mask = rng.randrange(1 << n)
        got = b_matching_value(g, w, b, mask)
        assert isinstance(got, F)
        assert got == brute_b_matching_value(g, w, b, mask), (g, w, b, mask)


def test_b_matching_monotone_in_s():
    rng = random.Random(5)
    g = random_graph(4, 6, 77)
    if g.has_loops():
        g = Graph.of(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    w = [F(rng.randint(0, 6)) for _ in range(g.m)]
    b = [rng.choice([1, 2]) for _ in range(4)]
    game = BMatchingGame(g, w, b)
    from nucnz.games import is_monotone

    assert is_monotone(game)


def test_b_matching_rejects_bad_caps():
    g = Graph.of(2, [(0, 1)])
    with pytest.raises(ValueError):
        b_matching_value(g, [F(1)], [3, 1])


def test_pad_to_perfect_structure():
    g = Graph.of(3, [(0, 1)])
    p = pad_to_perfect(g, [F(7)], [2])
    assert p.graph.n == 4
    # every pair gets a trivial edge, parallels included
    assert p.graph.m == 1 + 6
    assert p.w[1:] == (F(0),) * 6 and p.a[1:] == (0,) * 6
    full = complete_to_perfect(p, (0,))
    assert len(full) == 2
    assert matching_is_valid(p.graph, full)
    # weight and label preserved
    assert subset_sum(p.w, sum(1 << e for e in full)) == 7
    assert sum(p.a[e] for e in full) == 2


def test_pad_preserves_matching_spectrum():
    rng = random.Random(6)
    for trial in range(20):
        n = rng.randint(2, 5)
        g = random_graph(n, rng.randint(1, 6), 1100 + trial)
        w = [F(rng.randint(-5, 7)) for _ in range(g.m)]
        p = pad_to_perfect(g, w, [0] * g.m)
        before, _ = brute_max_weight_matching(g, w)
        after = complete_to_perfect(p, max_weight_matching(p.graph, p.w))
        assert matching_is_valid(p.graph, after) and 2 * len(after) == p.graph.n
        assert subset_sum(p.w, sum(1 << e for e in after)) == before


def test_t_join_empty_nonneg():
    g = Graph.of(3, [(0, 1), (1, 2), (2, 0)])
    assert min_cost_t_join(g, [1, 2, 3], []) == ()


def test_t_join_negative_edge():
    g = Graph.of(3, [(0, 1), (1, 2)])
    j = min_cost_t_join(g, [F(-2), F(3)], [0, 1])
    assert j == (0,)
    assert subset_sum([F(-2), F(3)], 0b01) == -2


def test_t_join_empty_with_negatives():
    g = Graph.of(3, [(0, 1), (1, 2), (2, 0)])
    j = min_cost_t_join(g, [F(-1), F(2), F(2)], [])
    assert j == ()


def test_t_join_infeasible():
    g = Graph.of(4, [(0, 1), (2, 3)])
    assert not t_join_exists(g, [0, 2])
    with pytest.raises(ValueError):
        min_cost_t_join(g, [1, 1], [0, 2])


def test_t_join_matches_brute():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(2, 5)
        g = random_graph(n, rng.randint(1, 8), 1200 + trial)
        costs = [F(rng.randint(-4, 7), rng.choice([1, 2])) for _ in range(g.m)]
        verts = list(range(n))
        rng.shuffle(verts)
        size = rng.choice([0, 2, 2, 4])
        T = sorted(verts[:size]) if size <= n else []
        if not t_join_exists(g, T):
            continue
        got = min_cost_t_join(g, costs, T)
        assert odd_degree_set(g, sum(1 << e for e in got)) == frozenset(T)
        want = brute_min_t_join(g, costs, T)
        assert subset_sum(costs, sum(1 << e for e in got)) == want[0]


def test_conservativeness_check_matches_enumeration():
    rng = random.Random(8)
    for trial in range(50):
        n = rng.randint(2, 5)
        g = random_graph(n, rng.randint(1, 7), 1300 + trial)
        costs = [F(rng.randint(-3, 6)) for _ in range(g.m)]
        assert is_conservative(g, costs) == (not has_negative_cycle(g, costs))


@settings(max_examples=250)
@given(data=st.data())
def test_t_join_property_on_multigraphs(data):
    """Parallel edges of different cost, loops, zero and negative costs:
    the shared shortest-path adjacency keeps the cheapest parallel edge and
    the walk back along its tree still yields a cheapest join of parity T.
    Up to 8 vertices, paired off by a drawn matching plus a few more edges,
    make several components.  T is the odd set of the pairing with some
    edges toggled, so up to 8 targets on which the closure's heaviest
    matching must come out perfect, plus a few drawn vertices that may
    leave no T-join."""
    n = data.draw(st.integers(2, 8), label="n")
    vertex = st.integers(0, n - 1)
    cost = st.builds(F, st.integers(-4, 5), st.sampled_from([1, 2]))
    order = data.draw(st.permutations(range(n)), label="pairing")
    pairing = list(zip(order[0::2], order[1::2]))
    edges = pairing + data.draw(st.lists(st.tuples(vertex, vertex), max_size=4), label="edges")
    copies = data.draw(st.lists(st.sampled_from(edges), max_size=3), label="parallel copies")
    g = Graph.of(n, edges + copies)
    costs = data.draw(st.lists(cost, min_size=g.m, max_size=g.m), label="costs")
    toggled = data.draw(st.sets(st.integers(0, g.m - 1)), label="toggled edges")
    join = sum(1 << e for e in range(g.m) if (e < len(pairing)) != (e in toggled))
    extra = data.draw(st.sets(vertex, max_size=3), label="extra targets")
    T = sorted(odd_degree_set(g, join) ^ extra)
    if len(T) % 2 or not t_join_exists(g, T):
        with pytest.raises(ValueError):
            min_cost_t_join(g, costs, T)
        return
    got = sum(1 << e for e in min_cost_t_join(g, costs, T))
    assert odd_degree_set(g, got) == frozenset(T)
    assert subset_sum(costs, got) == brute_min_t_join(g, costs, T)[0]


def test_only_integer_weights_reach_the_blossom_kernel(monkeypatch):
    """Half-integer weights, as the gadgets produce, reach the blossom
    kernel scaled to ints from every caller, never as Fraction or float."""
    real = matching._primal_dual
    seen = []

    def spy(n, ends, weights, *args, **kwargs):
        seen.extend(type(v) for v in weights)
        return real(n, ends, weights, *args, **kwargs)

    monkeypatch.setattr(matching, "_primal_dual", spy)
    g = random_graph(7, 16, 5)
    half = [F(2 * e - 13, 2) for e in range(g.m)]
    callers = {
        "max_weight_matching": lambda: max_weight_matching(g, half),
        "min_cost_t_join": lambda: min_cost_t_join(g, half, [0, 1, 2, 3]),
    }
    for name, call in callers.items():
        seen.clear()
        call()
        assert seen and set(seen) == {int}, name


def _networkx_weight(g, w):
    """Optimum weight by networkx on the simple graph of heaviest parallels."""
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    for e, (u, v) in enumerate(g.edges):
        if u != v and w[e] >= 0:
            if not G.has_edge(u, v) or G[u][v]["weight"] < w[e]:
                G.add_edge(u, v, weight=w[e])
    mate = nx.max_weight_matching(G)
    return sum((G[u][v]["weight"] for u, v in mate), F(0))


def _solve_checked(g, w, start=None):
    chosen = max_weight_matching(g, w, start=start)
    cert = chosen.certificate
    assert matching_is_valid(g, chosen)
    check_matching_certificate(g, w, chosen, cert)
    return subset_sum(w, sum(1 << e for e in chosen)), cert


@settings(max_examples=200)
@given(data=st.data())
def test_blossom_warm_and_cold_match_networkx_and_brute(data):
    """Random multigraphs with loops, parallels, negative and half-integer
    weights, against networkx and (up to 16 edges) brute force.  Each
    graph then loses random vertices and edges twice over; every smaller
    graph is solved warm from the parent's certificate and cold, and both
    must reach the optimum and pass the check."""
    n = data.draw(st.integers(1, 10), label="n")
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=24), label="edges")
    g = Graph.of(n, edges)
    weight = st.builds(F, st.integers(-6, 9), st.sampled_from([1, 2]))
    w = data.draw(st.lists(weight, min_size=g.m, max_size=g.m), label="w")

    def optimum(g, w):
        want = _networkx_weight(g, w)
        if g.m <= 16:
            assert want == brute_max_weight_matching(g, w)[0]
        return want

    got, cert = _solve_checked(g, w)
    assert got == optimum(g, w)
    for child in range(2):
        gone = data.draw(st.sets(vertex, max_size=3), label=f"deleted vertices {child}")
        kept = [
            e for e in range(g.m)
            if not set(g.edges[e]) & gone and data.draw(st.booleans(), label=f"keep {e}")
        ]
        sub = Graph(n, tuple(g.edges[e] for e in kept))
        sw = [w[e] for e in kept]
        warm, _ = _solve_checked(sub, sw, start=cert)
        cold, _ = _solve_checked(sub, sw)
        assert warm == cold == optimum(sub, sw)


def test_warm_start_moves_exposure_onto_a_zero_dual():
    """Path 0-2-1-3, optimum {02, 13}.  Deleting vertex 0 exposes vertex 2
    with a positive dual; growing its tree drives the dual of vertex 3 to
    zero first, so the repair flips 2-1-3 and leaves 3 exposed."""
    g = Graph.of(4, [(0, 2), (3, 1), (1, 2)])
    w = [F(4), F(3), F(6)]
    cert = max_weight_matching(g, w).certificate
    assert cert.mate == (2, 3, 0, 1) and cert.y == (1, 5, 7, 1)
    sub = Graph.of(4, [(3, 1), (1, 2)])
    warm = max_weight_matching(sub, w[1:], start=cert)
    warm_cert = warm.certificate
    assert warm == (1,) == max_weight_matching(sub, w[1:])
    assert warm_cert.mate == (-1, 2, 1, -1) and warm_cert.y[3] == 0


def test_checker_rejects_tampered_certificates():
    """Each tampered pair breaks one optimality condition and must fail.
    The path 0-1-2-3 has the optimum {01, 23}, proved by y = (0, 4, 2, 2)."""
    path = Graph.of(4, [(0, 1), (1, 2), (2, 3)])
    w = [F(2), F(3), F(2)]
    good = MatchingCertificate(1, (1, 0, 3, 2), (0, 4, 2, 2), ())
    check_matching_certificate(path, w, (0, 2), good)
    bad = [
        ((0, 2), replace(good, y=(1, 3, 2, 2))),  # edge 12 has negative slack
        ((0, 2), replace(good, y=(0, 5, 2, 2))),  # matched 01 is not tight
        ((0, 2), replace(good, y=(-1, 5, 1, 3))),  # negative vertex dual
        ((0,), replace(good, mate=(1, 0, -1, -1))),  # exposed 2 and 3 keep y = 2
        ((0,), good),  # matching differs from the certificate's
        ((0, 1), good),  # not a matching
    ]
    # the triangle 012 is a blossom with z = 4 holding the matched edge 12
    tri = Graph.of(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)])
    tw = [F(4), F(4), F(4), F(1), F(3), F(1)]
    chosen = max_weight_matching(tri, tw)
    cert = chosen.certificate
    check_matching_certificate(tri, tw, chosen, cert)
    assert cert.blossoms and cert.blossoms[0][0] > 0
    blossom = cert.blossoms[0]
    inner = next(e for e in chosen if max(tri.edges[e]) <= 2)
    mate = [-1 if v in tri.edges[inner] else m for v, m in enumerate(cert.mate)]
    unfull = tuple(e for e in chosen if e != inner)
    bad_tri = [
        (unfull, replace(cert, mate=tuple(mate))),  # blossom with z > 0 not full
        (chosen, replace(cert, blossoms=((blossom[0] + 1,) + blossom[1:],))),
        (chosen, replace(cert, blossoms=((-1,) + blossom[1:],))),
        (chosen, replace(cert, blossoms=((blossom[0], (0, 1), blossom[2][:2]),))),
    ]
    for g, weights, cases in ((path, w, bad), (tri, tw, bad_tri)):
        for chosen, tampered in cases:
            with pytest.raises(AssertionError):
                check_matching_certificate(g, weights, chosen, tampered)


def test_library_import_leaves_networkx_out():
    """networkx is a test dependency only: the library never imports it."""
    probe = "import sys, nucnz, nucnz.cli; sys.exit('networkx' in sys.modules)"
    src = str(Path(matching.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0
