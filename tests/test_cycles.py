import random
from fractions import Fraction as F

import pytest

from helpers import (
    brute_shortest_nz_cycle,
    has_negative_cycle,
    is_single_cycle,
    shortest_nz_cycle_bruteforce,
)
from nucnz.cycles import (
    NZCycleInstance,
    decompose_into_cycles,
    is_simple_cycle,
    shortest_nz_cycle_exhaustive,
    shortest_nz_cycle_few_nonzero,
)
from nucnz.graphs import Graph

TRIANGLE = Graph.of(3, [(0, 1), (1, 2), (2, 0)])


def test_forest_has_no_cycles():
    g = Graph.of(4, [(0, 1), (1, 2), (2, 3)])
    inst = NZCycleInstance(g, (F(1), F(1), F(1)), (1, 0, 0))
    assert shortest_nz_cycle_bruteforce(inst) is None
    assert shortest_nz_cycle_exhaustive(inst) is None


def test_triangle_basics():
    inst = NZCycleInstance(TRIANGLE, (F(1), F(1), F(1)), (1, 0, 0))
    rep = shortest_nz_cycle_bruteforce(inst)
    assert rep.edges == (0, 1, 2) and rep.cost == 3
    rep2 = shortest_nz_cycle_few_nonzero(inst, 1)
    assert rep2.cost == 3


def test_two_triangles_pick_labeled():
    g = Graph.of(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    costs = (F(1), F(1), F(1), F(1, 3), F(1, 3), F(1, 3))
    labels = (1, 0, 0, 0, 0, 0)
    inst = NZCycleInstance(g, costs, labels)
    rep = shortest_nz_cycle_bruteforce(inst)
    assert rep.edges == (0, 1, 2) and rep.cost == 3


def test_parallel_two_cycle_and_loop():
    g = Graph.of(2, [(0, 1), (0, 1), (1, 1)])
    inst = NZCycleInstance(g, (F(2), F(3), F(1)), (1, 0, 0))
    rep = shortest_nz_cycle_bruteforce(inst)
    assert rep.edges == (0, 1) and rep.cost == 5
    loop_inst = NZCycleInstance(g, (F(2), F(3), F(1)), (0, 0, 2))
    rep2 = shortest_nz_cycle_bruteforce(loop_inst)
    assert rep2.edges == (2,) and rep2.cost == 1
    assert shortest_nz_cycle_exhaustive(loop_inst).cost == 1


def test_brute_cap():
    g = Graph.of(18, [(i, (i + 1) % 18) for i in range(18)])
    inst = NZCycleInstance(g, tuple(F(1) for _ in range(18)), (1,) + (0,) * 17)
    with pytest.raises(ValueError):
        shortest_nz_cycle_bruteforce(inst)


def test_checked_rejects_negative_cycle():
    with pytest.raises(ValueError):
        NZCycleInstance.checked(TRIANGLE, [-1, -1, -1], [1, 0, 0])


def test_decompose_into_cycles_random():
    rng = random.Random(3)
    for trial in range(60):
        n = rng.randint(2, 6)
        g = Graph.of(
            n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 9))]
        )
        # build an even-degree set as a symmetric difference of cycles
        masks = [
            m
            for m in range(1, 1 << g.m)
            if is_single_cycle(g, m)
        ]
        if not masks:
            continue
        acc = 0
        for _ in range(rng.randint(1, 3)):
            acc ^= rng.choice(masks)
        ids = [e for e in range(g.m) if (acc >> e) & 1]
        if not ids:
            continue
        parts = decompose_into_cycles(g, ids)
        covered = []
        for cyc in parts:
            assert is_simple_cycle(g, cyc)
            covered.extend(cyc)
        assert sorted(covered) == sorted(ids)


def test_few_nonzero_matches_brute_under_promise():
    rng = random.Random(5)
    done = 0
    while done < 120:
        n = rng.randint(2, 5)
        m = rng.randint(1, 9)
        g = Graph.of(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
        costs = [F(rng.randint(-3, 7)) for _ in range(g.m)]
        if has_negative_cycle(g, costs):
            continue
        a = [0] * g.m
        for e in rng.sample(range(g.m), k=min(g.m, rng.randint(1, 3))):
            a[e] = rng.randint(-2, 2)
        if all(v == 0 for v in a):
            continue
        inst = NZCycleInstance(g, tuple(costs), tuple(a))
        k = sum(1 for v in a if v != 0)
        got = shortest_nz_cycle_few_nonzero(inst, k)
        want = brute_shortest_nz_cycle(g, costs, a)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.cost == want[0]
            assert is_simple_cycle(g, got.edges)
            assert sum(a[e] for e in got.edges) != 0
        done += 1


def test_exhaustive_matches_brute_without_promise():
    rng = random.Random(6)
    done = 0
    while done < 80:
        n = rng.randint(2, 5)
        g = Graph.of(
            n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 8))]
        )
        costs = [F(rng.randint(0, 6), rng.choice([1, 2])) for _ in range(g.m)]
        a = [rng.randint(-2, 2) for _ in range(g.m)]
        if all(v == 0 for v in a):
            continue
        inst = NZCycleInstance(g, tuple(costs), tuple(a))
        got = shortest_nz_cycle_exhaustive(inst)
        want = brute_shortest_nz_cycle(g, costs, a)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.cost == want[0]
        done += 1
