import copy
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bits,
    brute_arboricity,
    brute_best_nz_basis,
    brute_best_nz_independent_set,
    brute_best_nz_spanning_set,
    brute_partitionable,
    brute_strength,
    check_matroid_axioms,
    is_acyclic,
    popcount,
    subset_sum,
)
from nucnz.fixtures import random_graph, random_subspace_rows
from nucnz.games import (
    as_value_game,
    brute_lsa_min_excess,
    brute_nz_min_excess,
    make_allocation,
)
from nucnz.graphs import Graph
from nucnz.linalg import LinearSubspace
from nucnz.matroids import (
    ArboricityGame,
    NetworkStrengthGame,
    _nz_max_weight_spanning_set,
    _Partition,
    _packs_trees,
    arboricity_lsa_solver,
    arboricity_nz_min_excess,
    arboricity_value,
    max_weight_basis,
    network_strength_lsa_solver,
    network_strength_nz_min_excess,
    network_strength_value,
    nz_max_weight_basis,
    nz_max_weight_independent_set,
    union_k_matroid,
)

TRIANGLE = Graph.of(3, [(0, 1), (1, 2), (2, 0)])
K4 = Graph.of(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_graphic_independence():
    m = union_k_matroid(TRIANGLE, 1)
    assert m.is_independent(0b011)
    assert not m.is_independent(0b111)
    loop = Graph.of(2, [(0, 0), (0, 1)])
    ml = union_k_matroid(loop, 1)
    assert not ml.is_independent(0b01)
    assert ml.is_independent(0b10)


def test_union_two_forests_cover_triangle():
    m = union_k_matroid(TRIANGLE, 2)
    assert m.is_independent(0b111)
    assert not union_k_matroid(TRIANGLE, 1).is_independent(0b111)


def test_axioms_on_random_constructions():
    rng = random.Random(5)
    for trial in range(25):
        g = random_graph(rng.randint(2, 4), rng.randint(1, 6), 100 + trial)
        gm = union_k_matroid(g, 1)
        assert check_matroid_axioms(gm)
        k = rng.randint(1, 3)
        um = union_k_matroid(g, k)
        assert check_matroid_axioms(um)


def test_union_matches_partition_definition():
    # independence in the k-fold sum == some split into k acyclic parts
    rng = random.Random(9)
    for trial in range(30):
        g = random_graph(rng.randint(2, 4), rng.randint(1, 6), 200 + trial)
        k = rng.randint(1, 3)
        um = union_k_matroid(g, k)
        for mask in range(1 << g.m):
            expected = brute_partitionable(g, mask, k)
            assert um.is_independent(mask) == expected, (g, k, mask)


def test_one_oracle_answers_a_mask_sequence_like_the_referee():
    # One oracle and one spanning test each answer a random walk of masks,
    # so every answer starts from the partition the earlier ones left.
    rng = random.Random(17)
    for trial in range(40):
        g = random_graph(rng.randint(2, 4), rng.randint(1, 7), 500 + trial)
        k = rng.randint(1, 3)
        um = union_k_matroid(g, k)
        spans = _packs_trees(g, k)
        r = k * (g.n - 1)
        mask = 0
        for _ in range(60):
            if rng.random() < 0.3:
                mask = rng.randrange(1 << g.m)
            else:
                mask ^= 1 << rng.randrange(g.m)
            assert um.is_independent(mask) == brute_partitionable(g, mask, k), (g, k, mask)
            packs = any(
                popcount(sub) == r and brute_partitionable(g, sub, k)
                for sub in range(1 << g.m)
                if sub & ~mask == 0
            )
            assert spans(mask) == packs, (g, k, mask)


def test_greedy_basis_triangle():
    m = union_k_matroid(TRIANGLE, 1)
    assert max_weight_basis(m, [3, 2, 1]) == 0b011
    assert max_weight_basis(m, [1, 1, 1]) == 0b011


def test_nz_basis_triangle_swap():
    m = union_k_matroid(TRIANGLE, 1)
    res = nz_max_weight_basis(m, [3, 2, 1], [1, -1, 0])
    assert res is not None
    assert res.subset == 0b101 and res.weight == 4 and res.a_value == 1


def test_nz_basis_none_when_labels_vanish():
    m = union_k_matroid(TRIANGLE, 1)
    assert nz_max_weight_basis(m, [3, 2, 1], [0, 0, 0]) is None


def test_nz_basis_direct_when_greedy_nonzero():
    m = union_k_matroid(TRIANGLE, 1)
    res = nz_max_weight_basis(m, [3, 2, 1], [1, 1, 0])
    assert res.subset == 0b011 and res.a_value == 2


def test_nz_independent_set_forced_negative_singleton():
    m = union_k_matroid(Graph.of(2, [(0, 1)]), 1)
    res = nz_max_weight_independent_set(m, [F(-5)], [1])
    assert res is not None and res.subset == 1 and res.weight == -5


def test_nz_basis_matches_brute_on_random_graphic():
    rng = random.Random(31)
    for trial in range(120):
        g = random_graph(rng.randint(2, 5), rng.randint(1, 8), 300 + trial)
        m = union_k_matroid(g, 1)
        w = [F(rng.randint(-5, 5)) for _ in range(g.m)]
        a = [rng.randint(-3, 3) for _ in range(g.m)]
        got = nz_max_weight_basis(m, w, a)
        want = brute_best_nz_basis(m, w, a)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.weight == want[0]


def test_nz_independent_set_matches_brute():
    # Zero weights and labels exercise the drops and adds of the exchange.
    rng = random.Random(41)
    for trial in range(90):
        g = random_graph(rng.randint(2, 4), rng.randint(1, 6), 400 + trial)
        m = union_k_matroid(g, rng.randint(1, 2))
        w = [F(rng.randint(-4, 4)) for _ in range(g.m)]
        a = [rng.randint(-2, 2) for _ in range(g.m)]
        got = nz_max_weight_independent_set(m, w, a)
        want = brute_best_nz_independent_set(m, w, a)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.weight == want[0]
            assert m.is_independent(got.subset)
            assert got.weight == subset_sum(w, got.subset)
            assert got.a_value == sum(a[e] for e in range(g.m) if (got.subset >> e) & 1) != 0


@st.composite
def union_queries(draw):
    """A k-fold union matroid, k in {1, 2}, of a multigraph on at most 4
    vertices and 6 edges (loops allowed), with weights and labels that may
    be zero."""
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    g = Graph.of(n, draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=6)))
    weight = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2]))
    w = draw(st.lists(weight, min_size=g.m, max_size=g.m))
    a = draw(st.lists(st.integers(-2, 2), min_size=g.m, max_size=g.m))
    return union_k_matroid(g, draw(st.integers(1, 2))), w, a


@settings(max_examples=300)
@given(union_queries())
def test_one_exchange_queries_match_brute(query):
    # Bases, independent sets and spanning sets: each query's result is
    # feasible, carries its stated weight and label, and is optimal.
    m, w, a = query
    rank = m.rank()

    def spans(mask):
        return m.rank(mask) == rank

    queries = [
        (nz_max_weight_basis(m, w, a), brute_best_nz_basis(m, w, a),
         lambda s: popcount(s) == rank and m.is_independent(s)),
        (nz_max_weight_independent_set(m, w, a), brute_best_nz_independent_set(m, w, a),
         m.is_independent),
        (_nz_max_weight_spanning_set(m.ground_size, w, a, spans),
         brute_best_nz_spanning_set(m, w, a), spans),
    ]
    for got, want, feasible in queries:
        if want is None:
            assert got is None
            continue
        assert got is not None and got.weight == want[0]
        assert feasible(got.subset)
        assert got.weight == subset_sum(w, got.subset)
        assert got.a_value == subset_sum(a, got.subset) != 0


@st.composite
def parallel_multigraph_sets(draw):
    """A loop-free multigraph on 2 to 4 vertices with up to 10 edges (so
    many of them parallel), an edge subset and a forest count k <= 3."""
    n = draw(st.integers(2, 4))
    ends = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    pairs = draw(st.lists(ends, min_size=1, max_size=10))
    g = Graph.of(n, [(u, (u + d) % n) for u, d in pairs])
    return g, draw(st.integers(0, (1 << g.m) - 1)), draw(st.integers(1, 3))


@settings(max_examples=300)
@given(parallel_multigraph_sets())
def test_partition_pass_matches_union_oracle(case):
    # Past the sizes the brute referees reach: the one-pass values against
    # the per-k independence test and the greedy rank of the union matroid.
    g, mask, k = case
    least = next(j for j in range(1, g.m + 1) if union_k_matroid(g, j).is_independent(mask))
    assert arboricity_value(g, mask) == (least if mask else 0)
    assert _packs_trees(g, k)(mask) == (union_k_matroid(g, k).rank(mask) == k * (g.n - 1))


def _forest_masks(p):
    """Each forest's edge mask, read from its adjacency."""
    return [sum({1 << e for nbrs in forest.values() for e in nbrs}) for forest in p.forests]


def _brute_rank(g, mask, k):
    """Greedy rank of the edge subset in the k-fold union, with the
    backtracking referee as its independence test."""
    basis = 0
    for e in bits(mask):
        if brute_partitionable(g, basis | 1 << e, k):
            basis |= 1 << e
    return popcount(basis)


@st.composite
def partition_walks(draw):
    """A loop-free multigraph on 2 to 4 vertices with up to 10 edges, a
    forest count k <= 3 and a walk of steps: an edge to insert or remove,
    or a (mask, target) pair for ``edit_to``."""
    g, _, k = draw(parallel_multigraph_sets())
    edit = st.tuples(st.integers(0, (1 << g.m) - 1), st.integers(0, g.m))
    steps = draw(st.lists(st.one_of(st.integers(0, g.m - 1), edit), max_size=25))
    return g, k, steps


@settings(max_examples=200)
@given(partition_walks())
def test_partition_edits_keep_forests_and_match_the_referee(walk):
    g, k, steps = walk
    p = _Partition(g, k)
    for step in steps:
        before = (p.placed, dict(p.colour), copy.deepcopy(p.forests))
        if isinstance(step, tuple):
            mask, target = step
            reached = p.edit_to(mask, target)
            assert reached == (_brute_rank(g, mask, k) >= target)
            if reached:
                assert p.placed & ~mask == 0 and popcount(p.placed) >= target
        elif p.placed >> step & 1:
            p.remove(step)
            reached = True
        else:
            reached = p.insert(step)
            assert reached == brute_partitionable(g, before[0] | 1 << step, k)
        if not reached:
            assert (p.placed, p.colour, p.forests) == before
        masks = _forest_masks(p)
        assert all(is_acyclic(g, m) for m in masks)
        assert masks == [
            sum(1 << e for e, c in p.colour.items() if c == i) for i in range(k)
        ]
        assert sum(masks) == p.placed


def test_arboricity_values():
    assert arboricity_value(TRIANGLE, 0b111) == 2
    assert arboricity_value(TRIANGLE, 0) == 0
    assert arboricity_value(TRIANGLE, 0b011) == 1
    with pytest.raises(ValueError):
        arboricity_value(Graph.of(1, [(0, 0)]), 0b1)


def test_strength_values():
    assert network_strength_value(K4, 0b111111) == 2
    assert network_strength_value(TRIANGLE, 0b111) == 1
    assert network_strength_value(TRIANGLE, 0b011) == 1
    assert network_strength_value(TRIANGLE, 0b001) == 0
    disconnected = Graph.of(4, [(0, 1), (2, 3)])
    assert network_strength_value(disconnected, 0b11) == 0


def test_values_match_brute():
    rng = random.Random(8)
    for trial in range(25):
        g = random_graph(rng.randint(2, 4), rng.randint(1, 6), 500 + trial)
        for mask in range(1 << g.m):
            if not g.has_loops():
                assert arboricity_value(g, mask) == (brute_arboricity(g, mask) or 0)
            assert network_strength_value(g, mask) == brute_strength(g, mask)


def test_arboricity_nz_matches_brute():
    rng = random.Random(71)
    for trial in range(40):
        g = random_graph(rng.randint(2, 4), rng.randint(1, 6), 600 + trial)
        game = ArboricityGame(g)
        y = make_allocation(
            [F(rng.randint(-3, 4), rng.choice([1, 2])) for _ in range(g.m)]
        )
        a = [rng.randint(-2, 2) for _ in range(g.m)]
        if all(v == 0 for v in a):
            a[rng.randrange(g.m)] = 1
        got = arboricity_nz_min_excess(g, y, a)
        want = brute_nz_min_excess(game, y, a)
        assert got.excess == want.excess


@pytest.mark.parametrize("a", [[1, 0, 0, 0, 0, 0], [1, -1, 0, 0, 0, 0]])
def test_arboricity_optimum_at_the_top_budget_matches_brute(a):
    # K4 needs two forests, and with y = 1 on every edge the whole edge set
    # (cover 2, excess -4) beats every forest (excess -2 at best).  When
    # a(E) = 0 the best set drops one labelled edge and still needs two
    # forests (excess -3).  The top budget's matroid holds every edge set,
    # so only the one-forest oracle is built.
    y = make_allocation([1] * K4.m)
    with mock.patch("nucnz.matroids.union_k_matroid", wraps=union_k_matroid) as built:
        got = arboricity_nz_min_excess(K4, y, a)
    assert [call.args[1] for call in built.call_args_list] == [1]
    assert got.excess == brute_nz_min_excess(ArboricityGame(K4), y, a).excess
    assert got.excess == (-4 if sum(a) else -3)
    assert arboricity_value(K4, got.coalition) == 2


def test_strength_nz_matches_brute():
    rng = random.Random(72)
    for trial in range(40):
        g = random_graph(rng.randint(2, 4), rng.randint(1, 6), 700 + trial)
        game = NetworkStrengthGame(g)
        y = make_allocation(
            [F(rng.randint(-3, 4), rng.choice([1, 2])) for _ in range(g.m)]
        )
        a = [rng.randint(-2, 2) for _ in range(g.m)]
        if all(v == 0 for v in a):
            a[rng.randrange(g.m)] = 1
        got = network_strength_nz_min_excess(g, y, a)
        want = brute_nz_min_excess(game, y, a)
        assert got.excess == want.excess, (g, y, a)


@pytest.mark.parametrize(
    "game_class, lsa_solver",
    [(ArboricityGame, arboricity_lsa_solver), (NetworkStrengthGame, network_strength_lsa_solver)],
)
def test_lsa_solvers_match_brute(game_class, lsa_solver):
    rng = random.Random(73)
    done = 0
    while done < 30:
        g = random_graph(rng.randint(2, 4), rng.randint(1, 6), 800 + done)
        n = g.m
        L = LinearSubspace.from_rows(random_subspace_rows(n, n - 1, 900 + done), n)
        vg = as_value_game(game_class(g))
        y = make_allocation([F(rng.randint(-3, 4), rng.choice([1, 2])) for _ in range(n)])
        got = lsa_solver(g)(vg, y, L)
        want = brute_lsa_min_excess(vg, y, L)
        assert got.excess == want.excess, (g, y, L)
        assert not L.contains([(got.coalition >> p) & 1 for p in range(n)])
        done += 1


def test_strength_nz_labels_not_cancelling_over_all_edges():
    # the labels do not cancel over the whole edge set: a(E) = 3
    g = TRIANGLE
    y = make_allocation([1, 1, 1])
    a = [1, 1, 1]
    got = network_strength_nz_min_excess(g, y, a)
    want = brute_nz_min_excess(NetworkStrengthGame(g), y, a)
    assert got.excess == want.excess
    assert not got.coalition >> g.m


def test_single_tree_forced_whole_edge_set():
    tree = Graph.of(3, [(0, 1), (1, 2)])
    y = make_allocation([F(1, 2), F(1, 3)])
    rep = network_strength_nz_min_excess(tree, y, [1, 0])
    # only coalition with a spanning tree is the full set; check candidate
    from nucnz.games import excess
    game = NetworkStrengthGame(tree)
    assert rep.excess == brute_nz_min_excess(game, y, [1, 0]).excess
