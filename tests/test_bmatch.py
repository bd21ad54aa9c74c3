import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_best_nz_matching,
    has_negative_cycle,
    shortest_nz_cycle_bruteforce,
    subset_sum,
)
from nucnz import bmatch
from nucnz.bmatch import (
    BMatchInstance,
    NZMatchingInstance,
    bmatch_lsa_min_excess,
    bmatch_nz_min_excess,
    bmatch_nz_min_excess_by_cycles,
    nz_matching_randomized,
    reduce_bmatch_to_nzmatching,
    reduce_nzcycle_to_bmatch,
    reduce_nzmatching_to_nzcycle,
    verify_nonzero_promise,
)
from nucnz.cycles import (
    NZCycleInstance,
    decompose_into_cycles,
    shortest_nz_cycle_exhaustive,
    shortest_nz_cycle_few_nonzero,
)
from nucnz.fixtures import random_subspace_rows
from nucnz.games import (
    brute_lsa_min_excess,
    brute_nz_min_excess,
    coalition_sum,
    coalition_vector,
    excess,
)
from nucnz.graphs import Graph
from nucnz.linalg import LinearSubspace
from nucnz.matching import is_conservative, matching_is_valid


def rand_bmatch(rng, n_max=4, m_max=4, y_den=(1, 2)):
    n = rng.randint(2, n_max)
    edges = []
    for _ in range(rng.randint(1, m_max)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    if not edges:
        edges = [(0, 1)]
    g = Graph.of(n, edges)
    w = tuple(F(rng.randint(-5, 5)) for _ in range(g.m))
    b = tuple(rng.choice([1, 2]) for _ in range(n))
    y = tuple(F(rng.randint(-4, 6), rng.choice(y_den)) for _ in range(n))
    a = [rng.randint(-3, 3) for _ in range(n)]
    if all(v == 0 for v in a):
        a[rng.randrange(n)] = 1
    return BMatchInstance(g, w, b, y), a


def test_node_edge_gadget_counts():
    g = Graph.of(2, [(0, 1)])
    inst = BMatchInstance(g, (F(3),), (1, 1), (F(1), F(2)))
    produced, gm = reduce_bmatch_to_nzmatching(inst, [1, 0])
    assert produced.graph.n == 4 * 2 + 2 * 1
    # 3 edges per node gadget, 1 + b(u) + b(v) per edge gadget
    assert produced.graph.m == 3 * 2 + (1 + 1 + 1)
    assert gm.K == 2 * (3 + 2 * 3) + 1
    # only center edges carry labels
    assert [e for e in range(produced.graph.m) if produced.a[e] != 0] == [gm.center_edge[0]]
    # plain int data yields the same weights, as exact Fractions
    ints = BMatchInstance(g, (3,), (1, 1), (1, 2))
    same = reduce_bmatch_to_nzmatching(ints, [1, 0])[0].w
    assert same == produced.w and all(type(v) is F for v in same)


def test_gadget_weight_identity():
    # enumerate matchings of a tiny produced graph and check the identity
    # w'(M') = K(|V|+|E|) + y(V) + v(S) - y(S) at the optimum for the
    # nonzero constraint
    rng = random.Random(2)
    for trial in range(15):
        inst, a = rand_bmatch(rng, n_max=3, m_max=2)
        produced, gm = reduce_bmatch_to_nzmatching(inst, a)
        want = brute_nz_min_excess(inst.game(), inst.y, a)
        best = brute_best_nz_matching(produced.graph, list(produced.w), list(produced.a))
        assert best is not None
        assert gm.implied_excess(best[0]) == want.excess


def test_promise_certificate_on_produced_graphs():
    rng = random.Random(3)
    for trial in range(20):
        inst, a = rand_bmatch(rng)
        produced, gm = reduce_bmatch_to_nzmatching(inst, a)
        assert verify_nonzero_promise(produced, inst.b, gm.center_edge)


def test_matching_to_cycle_direct_answer():
    g = Graph.of(4, [(0, 1), (2, 3)])
    inst = NZMatchingInstance(g, (F(3), F(2)), (1, 0))
    red = reduce_nzmatching_to_nzcycle(inst)
    assert red.direct == (0, 1)


def test_matching_to_cycle_flip():
    # two disjoint edges with cancelling labels force the cycle instance
    g = Graph.of(4, [(0, 1), (2, 3)])
    inst = NZMatchingInstance(g, (F(3), F(3)), (1, -1))
    red = reduce_nzmatching_to_nzcycle(inst)
    assert red.direct is None
    assert is_conservative(red.instance.graph, red.instance.costs)
    cyc = shortest_nz_cycle_exhaustive(red.instance)
    got = red.back_translate(cyc)
    assert got is not None and matching_is_valid(g, got)
    want = brute_best_nz_matching(g, [3, 3], [1, -1])
    assert subset_sum([3, 3], sum(1 << e for e in got)) == want[0] == 3


def test_matching_to_cycle_random():
    rng = random.Random(4)
    done = 0
    while done < 40:
        n = rng.randint(2, 4)
        edges = []
        for _ in range(rng.randint(1, 5)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((min(u, v), max(u, v)))
        if not edges:
            continue
        g = Graph.of(n, edges)
        w = tuple(F(rng.randint(-4, 5)) for _ in range(g.m))
        a = [rng.randint(-2, 2) for _ in range(g.m)]
        if all(v == 0 for v in a):
            continue
        inst = NZMatchingInstance(g, w, tuple(a))
        red = reduce_nzmatching_to_nzcycle(inst)
        if red.instance is not None:
            assert is_conservative(red.instance.graph, red.instance.costs)
        cyc = None if red.direct is not None else shortest_nz_cycle_exhaustive(red.instance)
        got = red.back_translate(cyc)
        want = brute_best_nz_matching(g, list(w), a)
        if got is None:
            assert want is None
        else:
            assert matching_is_valid(g, got)
            assert sum(a[e] for e in got) != 0
            assert subset_sum(w, sum(1 << e for e in got)) == want[0]
        done += 1


def test_subdivision_triangle():
    tri = Graph.of(3, [(0, 1), (1, 2), (2, 0)])
    inst = NZCycleInstance(tri, (F(1), F(1), F(1)), (1, 0, 0))
    bm, labels, smap = reduce_nzcycle_to_bmatch(inst)
    assert bm.graph.n == 6 and bm.graph.m == 6
    assert set(bm.b) == {2}
    assert labels[:3] == (0, 0, 0) and labels[3:] == (1, 0, 0)
    rep = bmatch_nz_min_excess(bm, labels)
    assert rep.excess == 3
    cyc_edges = smap.cycle_edges_of(rep.coalition)
    assert sorted(cyc_edges) == [0, 1, 2]


def test_cycle_game_loop_preserves_optimum():
    rng = random.Random(5)
    done = 0
    while done < 8:
        n = rng.randint(3, 4)
        g = Graph.of(
            n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(2, 4))]
        )
        costs = [F(rng.randint(-2, 6)) for _ in range(g.m)]
        if has_negative_cycle(g, costs):
            continue
        a = [0] * g.m
        for e in rng.sample(range(g.m), k=min(g.m, 2)):
            a[e] = rng.randint(-2, 2)
        if all(v == 0 for v in a):
            continue
        inst = NZCycleInstance(g, tuple(costs), tuple(a))
        direct = shortest_nz_cycle_bruteforce(inst)
        bm, labels, smap = reduce_nzcycle_to_bmatch(inst)
        rep = bmatch_nz_min_excess(bm, labels)
        if direct is None:
            assert rep.excess > smap.K / 2
        else:
            assert rep.excess == direct.cost
        done += 1


def test_nz_matching_randomized_examples():
    g = Graph.of(4, [(0, 1), (2, 3)])
    inst = NZMatchingInstance(g, (F(3), F(3)), (1, -1))
    got, wt = nz_matching_randomized(inst, seed=11)
    assert wt == 3 and len(got) == 1
    inst2 = NZMatchingInstance(g, (F(3), F(2)), (1, 0))
    got2, wt2 = nz_matching_randomized(inst2, seed=11)
    assert wt2 == 5  # unconstrained optimum is already nonzero


def test_solve_path_import_leaves_exact_matching_out():
    """Only nz_matching_randomized needs the pfaffian solver, and it imports
    it when called."""
    probe = "import sys, nucnz.bmatch; sys.exit('nucnz.exact_matching' in sys.modules)"
    src = str(Path(bmatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0


def test_nz_matching_randomized_rejects_fractional():
    g = Graph.of(2, [(0, 1)])
    with pytest.raises(ValueError):
        nz_matching_randomized(NZMatchingInstance(g, (F(1, 2),), (1,)), seed=0)


def test_nz_matching_randomized_matches_brute():
    rng = random.Random(6)
    done = 0
    while done < 30:
        n = rng.randint(2, 5)
        edges = []
        for _ in range(rng.randint(1, 6)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((min(u, v), max(u, v)))
        if not edges:
            continue
        g = Graph.of(n, edges)
        w = tuple(F(rng.randint(-8, 8)) for _ in range(g.m))
        a = [rng.randint(-3, 3) for _ in range(g.m)]
        if all(v == 0 for v in a):
            continue
        inst = NZMatchingInstance(g, w, tuple(a))
        want = brute_best_nz_matching(g, list(w), a)
        got, wt = nz_matching_randomized(inst, seed=900 + done)
        assert want is not None and wt == want[0]
        assert matching_is_valid(g, got)
        assert sum(a[e] for e in got) != 0
        done += 1


def test_strategies_agree_with_brute():
    rng = random.Random(7)
    for trial in range(20):
        inst, a = rand_bmatch(rng)
        want = brute_nz_min_excess(inst.game(), inst.y, a)
        got = bmatch_nz_min_excess(inst, a)
        assert got.excess == want.excess, trial


def test_lsa_matches_brute():
    rng = random.Random(9)
    done = 0
    while done < 12:
        inst, _ = rand_bmatch(rng)
        n = inst.graph.n
        L = LinearSubspace.from_rows(random_subspace_rows(n, n - 1, 7000 + done), n)
        if not L.is_proper():
            continue
        got = bmatch_lsa_min_excess(inst, L)
        want = brute_lsa_min_excess(inst.game(), inst.y, L)
        assert got.excess == want.excess
        assert not L.contains(coalition_vector(got.coalition, n))
        assert excess(inst.game(), inst.y, got.coalition) == got.excess
        done += 1


# A path whose two end edges are heavy, with capacity 2 at vertex 1: the
# unconstrained optimum S̄ is the grand coalition (excess 4 - 10 = -6), and
# {0, 1, 2}, which takes both edges at vertex 1, comes next (3 - 8 = -5).
PATH = BMatchInstance(
    Graph.of(4, [(0, 1), (1, 2), (2, 3)]), (F(5), F(3), F(5)), (1, 2, 1, 1), (F(1),) * 4
)


def test_lsa_returns_the_max_matching_coalition_when_it_avoids_the_span(monkeypatch):
    L = LinearSubspace.from_rows([[1, -1, 0, 0], [0, 0, 1, -1]], 4)
    gadget = bmatch._gadget(PATH)
    assert gadget.gm.coalition_of(gadget.mbar) == 0b1111
    assert not L.contains([1, 1, 1, 1])

    def no_query(*args):
        raise AssertionError("a non-zero query ran")

    monkeypatch.setattr(bmatch, "bmatch_nz_min_excess", no_query)
    got = bmatch_lsa_min_excess(PATH, L)
    assert got == brute_lsa_min_excess(PATH.game(), PATH.y, L)
    assert got.coalition == 0b1111 and got.excess == -6


def test_lsa_queries_the_kernel_when_the_span_holds_that_coalition(monkeypatch):
    L = LinearSubspace.from_rows([[1, 1, 1, 1]], 4)
    queries = []
    query = bmatch.bmatch_nz_min_excess

    def counted(inst, a):
        queries.append(a)
        return query(inst, a)

    monkeypatch.setattr(bmatch, "bmatch_nz_min_excess", counted)
    got = bmatch_lsa_min_excess(PATH, L)
    assert len(queries) == 3
    assert got == brute_lsa_min_excess(PATH.game(), PATH.y, L)
    assert got.coalition == 0b0111 and got.excess == -5


def test_lsa_rejects_the_full_space_before_building_the_gadget(monkeypatch):
    def no_gadget(*args):
        raise AssertionError("the gadget was built")

    monkeypatch.setattr(bmatch, "_Gadget", no_gadget)
    monkeypatch.setattr(bmatch, "max_weight_matching", no_gadget)
    inst = BMatchInstance(PATH.graph, PATH.w, PATH.b, (F(1, 2),) * 4)
    full = LinearSubspace.from_rows([[int(i == j) for j in range(4)] for i in range(4)], 4)
    with pytest.raises(ValueError, match="^subspace is the full space; no avoidance possible$"):
        bmatch_lsa_min_excess(inst, full)



# -- forced-status route against the brute-force and cycle-route referees --

rationals = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3]))
nonnegative = st.builds(F, st.integers(0, 12), st.sampled_from([1, 2, 3]))


def _pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@st.composite
def bmatch_instances(draw, caps=(1, 2), y_values=rationals):
    """Games on at most 6 vertices with capacities in ``caps`` and
    fractional w and y; parallel edges allowed."""
    n = draw(st.integers(2, 6))
    g = Graph.of(n, draw(st.lists(st.sampled_from(_pairs(n)), min_size=1, max_size=8)))
    w = draw(st.lists(rationals, min_size=g.m, max_size=g.m))
    b = draw(st.lists(st.sampled_from(caps), min_size=n, max_size=n))
    y = draw(st.lists(y_values, min_size=n, max_size=n))
    return BMatchInstance(g, tuple(w), tuple(b), tuple(y))


@st.composite
def empty_optimum_queries(draw):
    """Capacity-1 games with y >= 0 and labels of one sign.  The label sum
    vanishes only on the empty coalition, which is often the unconstrained
    optimum; the best labelled coalition is then often a matched pair, two
    flipped label-carrying edges, the most that #cap2 + 2 allows here."""
    inst = draw(bmatch_instances(caps=(1,), y_values=nonnegative))
    n = inst.graph.n
    sign = draw(st.sampled_from([1, -1]))
    return inst, [sign * v for v in draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))]


@st.composite
def cycle_games(draw):
    """The all-capacity-2 games that ``reduce_nzcycle_to_bmatch`` makes
    from a cycle instance, with its label vector: at most 6 vertices."""
    n = draw(st.integers(2, 3))
    g = Graph.of(n, draw(st.lists(st.sampled_from(_pairs(n)), min_size=1, max_size=6 - n)))
    costs = draw(st.lists(rationals, min_size=g.m, max_size=g.m))
    a = draw(st.lists(st.integers(-2, 2), min_size=g.m, max_size=g.m).filter(any))
    inst, labels, _ = reduce_nzcycle_to_bmatch(NZCycleInstance(g, tuple(costs), tuple(a)))
    return inst, list(labels)


def _labels(n):
    return st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)


@st.composite
def nz_queries(draw):
    kind = draw(st.sampled_from(["general", "cycle", "empty-optimum"]))
    if kind == "cycle":
        return draw(cycle_games())
    if kind == "empty-optimum":
        return draw(empty_optimum_queries())
    inst = draw(bmatch_instances())
    return inst, draw(_labels(inst.graph.n))


@settings(max_examples=300)
@given(nz_queries())
def test_forced_route_matches_brute_and_cycle_route(query):
    inst, a = query
    got = bmatch_nz_min_excess(inst, a)
    assert got.excess == brute_nz_min_excess(inst.game(), inst.y, a).excess
    assert got.excess == bmatch_nz_min_excess_by_cycles(inst, a).excess
    assert coalition_sum(a, got.coalition) != 0
    assert excess(inst.game(), inst.y, got.coalition) == got.excess


@settings(max_examples=60)
@given(st.data())
def test_forced_lsa_matches_brute_on_proper_subspaces(data):
    inst = data.draw(bmatch_instances())
    n = inst.graph.n
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    L = LinearSubspace.from_rows(data.draw(st.lists(row, max_size=n - 1)), n)
    got = bmatch_lsa_min_excess(inst, L)
    assert got.excess == brute_lsa_min_excess(inst.game(), inst.y, L).excess
    assert not L.contains(coalition_vector(got.coalition, n))
    assert excess(inst.game(), inst.y, got.coalition) == got.excess
