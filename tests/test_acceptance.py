"""Acceptance suite: one test per criterion, everything exact.

Each test prints a single PASS line with its instance counts and elapsed
time (run with -s to see them).  Tolerances are zero throughout: every
comparison is rational equality against an independent brute-force
reference.
"""

import random
import time
from fractions import Fraction as F

import networkx as nx

from helpers import (
    brute_best_nz_basis,
    has_negative_cycle,
    shortest_nz_cycle_bruteforce,
)
from nucnz.approx import exact_min_excess_oracle, lsa_approx
from nucnz.bmatch import (
    BMatchInstance,
    NZMatchingInstance,
    bmatch_nz_min_excess,
    nz_matching_randomized,
    reduce_bmatch_to_nzmatching,
    reduce_nzcycle_to_bmatch,
    reduce_nzmatching_to_nzcycle,
    verify_nonzero_promise,
)
from nucnz.cycles import (
    NZCycleInstance,
    shortest_nz_cycle_exhaustive,
)
from nucnz.fixtures import (
    HardnessParams,
    InstabilityParams,
    gen_hardness_pair,
    gen_instability_pair,
    instability_closed_forms,
    random_graph,
    random_monotone_game,
    random_subspace_rows,
    verify_instability_balance,
)
from nucnz.games import (
    TableGame,
    brute_lsa_min_excess,
    brute_min_excess,
    brute_nz_min_excess,
    coalition_sum,
    excess,
    make_allocation,
)
from nucnz.graphs import Graph
from nucnz.linalg import LinearSubspace
from nucnz.matching import is_conservative, matching_is_valid
from nucnz.matroids import (
    ArboricityGame,
    NetworkStrengthGame,
    arboricity_lsa_solver,
    arboricity_nz_min_excess,
    network_strength_lsa_solver,
    network_strength_nz_min_excess,
    nz_max_weight_basis,
    union_k_matroid,
)
from nucnz.mps import mps_nucleolus, reference_nucleolus
from nucnz.nz import LSAInstance, lsa_to_nz


def report(num, name, detail):
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


def test_criterion_1_instability_reproduction():
    t0 = time.time()
    params = InstabilityParams(0, F(1, 16), F(64))
    v, vt = gen_instability_pair(params)
    y_exp, yt_exp = instability_closed_forms(params)
    res = mps_nucleolus(v, mode="enumerate")
    rest = mps_nucleolus(vt, mode="enumerate")
    assert res.allocation == y_exp
    assert rest.allocation == yt_exp
    diffs = [abs(b - a) for a, b in zip(res.allocation, rest.allocation)]
    assert max(diffs) == F(2) ** params.n * params.eps == F(1, 16)
    mps_elapsed = time.time() - t0
    assert mps_elapsed < 600

    t1 = time.time()
    for n in range(0, 11):
        p = InstabilityParams(n, F(1, 16), F(2) ** n * F(1, 16) + 1)
        rep = verify_instability_balance(p)
        assert rep["ok"]
    balance_elapsed = time.time() - t1
    assert balance_elapsed < 1.0
    report(
        1,
        "instability reproduction",
        f"17-player scheme {mps_elapsed:.1f}s, balance n<=10 {balance_elapsed:.2f}s",
    )


def test_criterion_2_hardness_family():
    t0 = time.time()
    for k in (2, 3):
        params = HardnessParams(k)
        base, planted = gen_hardness_pair(params)
        n = params.player_count
        y = make_allocation([1] * n)
        a = [1] * (2 * k) + [-1] * (2 * k)
        rep = brute_nz_min_excess(planted, y, a)
        assert rep.coalition == params.s_star
        minimizers = [
            m
            for m in range(1, 1 << n)
            if sum(a[p] for p in range(n) if (m >> p) & 1) != 0
            and excess(planted, y, m) == rep.excess
        ]
        assert minimizers == [params.s_star]
        rb, rp = brute_min_excess(base, y), brute_min_excess(planted, y)
        assert rb.excess == rp.excess and rb.coalition == rp.coalition
    elapsed = time.time() - t0
    assert elapsed < 60
    report(2, "planted-coalition family", f"k in {{2,3}}, {elapsed:.1f}s")


def test_criterion_3_equivalence():
    t0 = time.time()
    rng = random.Random(303)
    done = 0
    trial = 0
    while done < 200:
        trial += 1
        n = rng.randint(2, 8)
        g = random_monotone_game(n, 30_000 + trial)
        L = LinearSubspace.from_rows(random_subspace_rows(n, n - 1, 40_000 + trial), n)
        if not L.is_proper():
            continue
        y = make_allocation(
            [F(rng.randint(-4, 8), rng.choice([1, 2, 3])) for _ in range(n)]
        )
        inst = LSAInstance(g, y, L)
        direct = brute_lsa_min_excess(g, y, L)
        via = min(brute_nz_min_excess(g, y, sub.a).excess for sub in lsa_to_nz(inst))
        assert direct.excess == via
        done += 1
    elapsed = time.time() - t0
    assert elapsed < 120
    report(3, "avoidance/non-zero equivalence", f"{done} instances, {elapsed:.1f}s")


def test_criterion_4_scheme_correctness():
    t0 = time.time()
    rng = random.Random(404)
    games = []
    for i in range(40):
        games.append(("plain", random_monotone_game(3 + i % 3, 50_000 + i)))
    for i in range(35):
        g0 = random_monotone_game(5, 60_000 + i)
        table = list(g0.table())
        for m in range(1 << 5):
            b0, b1 = (m >> 0) & 1, (m >> 1) & 1
            if b0 != b1:
                sw = (m & ~0b11) | (b0 << 1) | b1
                hi = max(table[m], table[sw])
                table[m] = table[sw] = hi
        games.append(("symmetric01", TableGame(table)))
    for i in range(25):
        base = random_monotone_game(5, 70_000 + i)
        dummy_val = F(rng.randint(0, 5))
        table = []
        for m in range(1 << 6):
            table.append(base.table()[m & 31] + (dummy_val if (m >> 5) & 1 else 0))
        games.append(("dummy5", TableGame(table), dummy_val))
    count = 0
    for spec in games:
        tag, g = spec[0], spec[1]
        r_enum = mps_nucleolus(g, mode="enumerate")
        r_oracle = mps_nucleolus(g, mode="oracle", sep=brute_lsa_min_excess)
        r_ref = reference_nucleolus(g)
        assert r_enum.allocation == r_oracle.allocation == r_ref.allocation
        if tag == "symmetric01":
            assert r_enum.allocation[0] == r_enum.allocation[1]
        if tag == "dummy5":
            assert r_enum.allocation[5] == spec[2]
        count += 1
    elapsed = time.time() - t0
    assert count >= 100
    assert elapsed < 300
    report(4, "scheme vs reference", f"{count} games (both modes), {elapsed:.1f}s")


def _random_bmatch(rng, seed, n_max=5, m_max=6):
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
    y = tuple(F(rng.randint(-4, 6), rng.choice([1, 2, 4])) for _ in range(n))
    a = [rng.randint(-3, 3) for _ in range(n)]
    if all(x == 0 for x in a):
        a[rng.randrange(n)] = 1
    return BMatchInstance(g, w, b, y), a


def test_criterion_5_reduction_chain():
    t0 = time.time()
    rng = random.Random(505)
    checked = 0
    conservative_checked = 0
    while checked < 100:
        inst, a = _random_bmatch(rng, checked)
        produced, gm = reduce_bmatch_to_nzmatching(inst, a)
        red = reduce_nzmatching_to_nzcycle(produced)
        if red.instance is not None:
            assert is_conservative(red.instance.graph, red.instance.costs)
            conservative_checked += 1
            cyc = shortest_nz_cycle_exhaustive(red.instance)
        else:
            cyc = None
        matching = red.back_translate(cyc)
        assert matching is not None
        mask = gm.coalition_of(matching)
        got = coalition_sum(inst.y, mask) - inst.game().value(mask)
        want = brute_nz_min_excess(inst.game(), inst.y, a)
        assert got == want.excess
        checked += 1

    loops = 0
    while loops < 10:
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
        loops += 1
    elapsed = time.time() - t0
    assert elapsed < 600
    report(
        5,
        "reduction chain",
        f"{checked} game instances ({conservative_checked} cycle-path), "
        f"{loops} full loops, {elapsed:.1f}s",
    )


def _gadget_cycles_nonzero_counts(produced):
    G = nx.Graph()
    G.add_nodes_from(range(produced.graph.n))
    label_of_pair = {}
    for e, (u, v) in enumerate(produced.graph.edges):
        G.add_edge(u, v)
        label_of_pair[frozenset((u, v))] = produced.a[e]
    counts = []
    for cyc in nx.simple_cycles(G):
        k = len(cyc)
        nz = 0
        for i in range(k):
            pair = frozenset((cyc[i], cyc[(i + 1) % k]))
            if label_of_pair.get(pair, 0) != 0:
                nz += 1
        counts.append(nz)
    return counts


def test_criterion_6_few_capacity2_path():
    t0 = time.time()
    rng = random.Random(606)
    checked = 0
    while checked < 100:
        inst, a = _random_bmatch(rng, checked)
        if sum(1 for cap in inst.b if cap == 2) > 3:
            continue
        k2 = sum(1 for cap in inst.b if cap == 2)
        produced, gm = reduce_bmatch_to_nzmatching(inst, a)
        assert verify_nonzero_promise(produced, inst.b, gm.center_edge)
        if checked % 10 == 0:
            counts = _gadget_cycles_nonzero_counts(produced)
            assert all(c <= k2 + 2 for c in counts)
        got = bmatch_nz_min_excess(inst, a)
        want = brute_nz_min_excess(inst.game(), inst.y, a)
        assert got.excess == want.excess
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300
    report(6, "few-capacity-2 path", f"{checked} instances, {elapsed:.1f}s")


def test_criterion_7_randomized_path():
    t0 = time.time()
    rng = random.Random(707)
    agree = 0
    total = 0
    while total < 100:
        n = rng.randint(2, 6)
        edges = []
        for _ in range(rng.randint(1, 8)):
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
        want = None
        best = None
        for mask in range(1 << g.m):
            ok = True
            used = set()
            for e in range(g.m):
                if (mask >> e) & 1:
                    x, yv = g.edges[e]
                    if x in used or yv in used:
                        ok = False
                        break
                    used.add(x)
                    used.add(yv)
            if not ok:
                continue
            if sum(a[e] for e in range(g.m) if (mask >> e) & 1) == 0:
                continue
            wt = sum((w[e] for e in range(g.m) if (mask >> e) & 1), F(0))
            if best is None or wt > best:
                best = wt
        want = best
        total += 1
        try:
            got, wt = nz_matching_randomized(inst, seed=7_000 + total)
        except RuntimeError:
            continue
        assert matching_is_valid(g, got)
        assert sum(a[e] for e in got) != 0
        assert sum((w[e] for e in got), F(0)) == wt
        if want is not None and wt == want:
            agree += 1
    elapsed = time.time() - t0
    assert total >= 100
    assert agree >= 99
    assert elapsed < 600
    report(7, "randomized exact-weight path", f"{agree}/{total} agree, {elapsed:.1f}s")


def test_criterion_8_matroid_solvers():
    t0 = time.time()
    rng = random.Random(808)

    solver_checked = 0
    trial = 0
    while solver_checked < 200:
        trial += 1
        g = random_graph(rng.randint(2, 4), rng.randint(1, 6), 80_000 + trial)
        if g.m == 0:
            continue
        y = make_allocation(
            [F(rng.randint(-3, 5), rng.choice([1, 2])) for _ in range(g.m)]
        )
        a = [rng.randint(-2, 2) for _ in range(g.m)]
        if all(v == 0 for v in a):
            a[rng.randrange(g.m)] = 1
        got_a = arboricity_nz_min_excess(g, y, a)
        want_a = brute_nz_min_excess(ArboricityGame(g), y, a)
        assert got_a.excess == want_a.excess
        got_s = network_strength_nz_min_excess(g, y, a)
        want_s = brute_nz_min_excess(NetworkStrengthGame(g), y, a)
        assert got_s.excess == want_s.excess
        solver_checked += 1

    basis_checked = 0
    trial = 0
    while basis_checked < 500:
        trial += 1
        g = random_graph(rng.randint(2, 5), rng.randint(1, 8), 90_000 + trial)
        m = union_k_matroid(g, 1)
        w = [F(rng.randint(-5, 5)) for _ in range(g.m)]
        a = [rng.randint(-3, 3) for _ in range(g.m)]
        got = nz_max_weight_basis(m, w, a)
        want = brute_best_nz_basis(m, w, a)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.weight == want[0]
        basis_checked += 1

    nucleoli = 0
    trial = 0
    while nucleoli < 10:
        trial += 1
        g = random_graph(3, rng.randint(2, 5), 95_000 + trial)
        if g.m == 0 or g.has_loops():
            continue
        ag = ArboricityGame(g)
        r1 = mps_nucleolus(ag, mode="oracle", sep=arboricity_lsa_solver(g))
        assert r1.allocation == reference_nucleolus(ag).allocation
        sg = NetworkStrengthGame(g)
        r2 = mps_nucleolus(sg, mode="oracle", sep=network_strength_lsa_solver(g))
        assert r2.allocation == reference_nucleolus(sg).allocation
        nucleoli += 1
    elapsed = time.time() - t0
    assert elapsed < 600
    report(
        8,
        "matroid solvers",
        f"{solver_checked} excess checks, {basis_checked} basis checks, "
        f"{nucleoli} end-to-end nucleoli, {elapsed:.1f}s",
    )


def test_criterion_9_approximation_guarantee():
    t0 = time.time()
    rng = random.Random(909)
    oracle = exact_min_excess_oracle()
    done = 0
    trial = 0
    while done < 200:
        trial += 1
        n = rng.randint(2, 7)
        g = random_monotone_game(n, 99_000 + trial)
        L = LinearSubspace.from_rows(
            random_subspace_rows(n, n - 1, 98_000 + trial), n
        )
        if not L.is_proper():
            continue
        prime = [
            p
            for p in range(n)
            if not L.contains([1 if i == p else 0 for i in range(n)])
        ]
        if not prime:
            continue
        y = make_allocation([F(rng.randint(0, 8), rng.choice([1, 2])) for _ in range(n)])
        inst = LSAInstance(g, y, L)
        star = brute_lsa_min_excess(g, y, L)
        for eps in (F(1, 2), F(1, 4)):
            sol = lsa_approx(oracle, eps, inst)
            assert not L.contains(
                [1 if (sol.coalition >> p) & 1 else 0 for p in range(n)]
            )
            assert sol.lower_value_bound <= g.value(sol.coalition)
            lhs = coalition_sum(y, sol.coalition) - sol.lower_value_bound
            rhs = (1 + eps) * coalition_sum(y, star.coalition) - g.value(star.coalition)
            assert lhs <= rhs
        done += 1
    elapsed = time.time() - t0
    assert elapsed < 300
    report(9, "approximation guarantee", f"{done} games x 2 eps, {elapsed:.1f}s")
