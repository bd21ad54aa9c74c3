import random
from fractions import Fraction as F

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    brute_b_matching_value,
    brute_max_weight_matching,
    brute_min_t_join,
    has_negative_cycle,
    odd_degree_set,
    subset_sum,
)
from nucnz.fixtures import random_graph
from nucnz.graphs import Graph
from nucnz.matching import (
    BMatchingGame,
    b_matching_value,
    complete_to_perfect,
    is_conservative,
    matching_is_valid,
    max_weight_matching,
    max_weight_perfect_matching,
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
        after = max_weight_perfect_matching(p.graph, p.w)
        assert after is not None
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


@given(data=st.data())
def test_t_join_property_on_multigraphs(data):
    """Parallel edges of different cost, loops, zero and negative costs:
    the shared shortest-path adjacency keeps the cheapest parallel edge and
    the walk back along its tree still yields a cheapest join of parity T."""
    n = data.draw(st.integers(2, 5), label="n")
    vertex = st.integers(0, n - 1)
    cost = st.builds(F, st.integers(-4, 5), st.sampled_from([1, 2]))
    edges = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=7), label="edges")
    copies = data.draw(st.lists(st.sampled_from(edges), max_size=3), label="parallel copies")
    g = Graph.of(n, edges + copies)
    costs = data.draw(st.lists(cost, min_size=g.m, max_size=g.m), label="costs")
    T = sorted(data.draw(st.sets(vertex), label="T"))
    if len(T) % 2 or not t_join_exists(g, T):
        with pytest.raises(ValueError):
            min_cost_t_join(g, costs, T)
        return
    got = sum(1 << e for e in min_cost_t_join(g, costs, T))
    assert odd_degree_set(g, got) == frozenset(T)
    assert subset_sum(costs, got) == brute_min_t_join(g, costs, T)[0]


def test_only_integer_weights_reach_networkx(monkeypatch):
    """Half-integer weights, as the gadgets produce, reach the blossom
    scaled to ints from every caller, never as Fraction or float."""
    real = nx.max_weight_matching
    seen = []

    def spy(G, *args, **kwargs):
        seen.extend(type(d["weight"]) for _, _, d in G.edges(data=True))
        return real(G, *args, **kwargs)

    monkeypatch.setattr(nx, "max_weight_matching", spy)
    g = random_graph(7, 16, 5)
    half = [F(2 * e - 13, 2) for e in range(g.m)]
    padded = pad_to_perfect(g, half, [0] * g.m)
    callers = {
        "max_weight_matching": lambda: max_weight_matching(g, half),
        "max_weight_perfect_matching": lambda: max_weight_perfect_matching(padded.graph, padded.w),
        "min_cost_t_join": lambda: min_cost_t_join(g, half, [0, 1, 2, 3]),
    }
    for name, call in callers.items():
        seen.clear()
        call()
        assert seen and set(seen) == {int}, name
