"""Brute-force reference implementations shared by the test suite.

Everything here is deliberately naive: subset enumeration plus direct
definition checks.  These are the oracles the fast solvers are gated
against, so they must stay independent of the package internals.
"""

from fractions import Fraction as F
from itertools import combinations


def bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def popcount(mask):
    return bin(mask).count("1")


def subset_sum(values, mask):
    return sum((F(values[i]) for i in bits(mask)), F(0))


def is_acyclic(graph, mask):
    parent = list(range(graph.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in bits(mask):
        u, v = graph.edges[e]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def brute_arboricity(graph, mask):
    """DP: min forests covering mask (mask must be loop-free)."""
    memo = {0: 0}

    def rec(m):
        if m in memo:
            return memo[m]
        best = None
        # enumerate nonempty acyclic subsets of m containing its lowest edge
        low = m & -m
        sub = m
        while sub:
            if sub & low and is_acyclic(graph, sub):
                cand = 1 + rec(m & ~sub)
                if best is None or cand < best:
                    best = cand
            sub = (sub - 1) & m
        memo[m] = best
        return best

    return rec(mask)


def is_spanning_tree(graph, mask):
    if popcount(mask) != graph.n - 1 or not is_acyclic(graph, mask):
        return False
    seen = set()
    for e in bits(mask):
        u, v = graph.edges[e]
        seen.add(u)
        seen.add(v)
    return len(seen) == graph.n


def brute_strength(graph, mask):
    """Max number of disjoint spanning trees inside mask."""
    if graph.n < 2:
        raise ValueError("needs >= 2 vertices")
    edges = bits(mask)
    trees = [
        sum(1 << e for e in combo)
        for size in [graph.n - 1]
        for combo in combinations(edges, size)
        if is_spanning_tree(graph, sum(1 << e for e in combo))
    ]

    def rec(m):
        best = 0
        for t in trees:
            if t & m == t:
                cand = 1 + rec(m & ~t)
                if cand > best:
                    best = cand
        return best

    return rec(mask)


def brute_best_nz_basis(matroid, w, a):
    """(weight, mask) of the best basis with nonzero label, or None."""
    n = matroid.ground_size
    rank = matroid.rank()
    best = None
    for mask in range(1 << n):
        if popcount(mask) != rank or not matroid.is_independent(mask):
            continue
        if sum(a[e] for e in bits(mask)) == 0:
            continue
        wt = subset_sum(w, mask)
        if best is None or (wt, -mask) > (best[0], -best[1]):
            best = (wt, mask)
    return best


def brute_best_nz_independent_set(matroid, w, a):
    n = matroid.ground_size
    best = None
    for mask in range(1, 1 << n):
        if not matroid.is_independent(mask):
            continue
        if sum(a[e] for e in bits(mask)) == 0:
            continue
        wt = subset_sum(w, mask)
        if best is None or wt > best[0]:
            best = (wt, mask)
    return best


def check_matroid_axioms(matroid):
    """Empty set, downward closure, exchange; exhaustive on the ground set."""
    n = matroid.ground_size
    indep = [m for m in range(1 << n) if matroid.is_independent(m)]
    indep_set = set(indep)
    if 0 not in indep_set:
        return False
    for m in indep:
        mm = m
        while mm:
            low = mm & -mm
            if (m ^ low) not in indep_set:
                return False
            mm ^= low
    for i in indep:
        for j in indep:
            if popcount(i) < popcount(j):
                extend = j & ~i
                ok = False
                while extend:
                    low = extend & -extend
                    if (i | low) in indep_set:
                        ok = True
                        break
                    extend ^= low
                if not ok:
                    return False
    return True


def is_matching(graph, mask):
    used = set()
    for e in bits(mask):
        u, v = graph.edges[e]
        if u == v or u in used or v in used:
            return False
        used.add(u)
        used.add(v)
    return True


def brute_max_weight_matching(graph, w):
    """(weight, mask) over all matchings (the empty one included)."""
    best = (F(0), 0)
    m = graph.m

    def rec(idx, mask, used, wt):
        nonlocal best
        if wt > best[0] or (wt == best[0] and mask < best[1]):
            best = (wt, mask)
        for e in range(idx, m):
            u, v = graph.edges[e]
            if u == v or u in used or v in used:
                continue
            used.add(u)
            used.add(v)
            rec(e + 1, mask | (1 << e), used, wt + F(w[e]))
            used.discard(u)
            used.discard(v)

    rec(0, 0, set(), F(0))
    return best


def brute_best_nz_matching(graph, w, a):
    best = None
    for mask in range(1 << graph.m):
        if not is_matching(graph, mask):
            continue
        if sum(a[e] for e in bits(mask)) == 0:
            continue
        wt = subset_sum(w, mask)
        if best is None or (wt, -mask) > (best[0], -best[1]):
            best = (wt, mask)
    return best


def brute_b_matching_value(graph, w, b, vertex_mask):
    """Max weight of an edge subset inside the induced subgraph with
    degree at most b(v) everywhere."""
    best = F(0)
    for mask in range(1 << graph.m):
        deg = [0] * graph.n
        ok = True
        wt = F(0)
        for e in bits(mask):
            u, v = graph.edges[e]
            if not ((vertex_mask >> u) & 1 and (vertex_mask >> v) & 1):
                ok = False
                break
            deg[u] += 1
            deg[v] += 1
            wt += F(w[e])
        if not ok:
            continue
        if any(deg[x] > b[x] for x in range(graph.n)):
            continue
        if wt > best:
            best = wt
    return best


def odd_degree_set(graph, mask):
    deg = [0] * graph.n
    for e in bits(mask):
        u, v = graph.edges[e]
        deg[u] += 1
        deg[v] += 1
    return frozenset(x for x in range(graph.n) if deg[x] % 2 == 1)


def brute_min_t_join(graph, costs, T):
    """(cost, mask) of the cheapest edge set with odd-degree set T."""
    target = frozenset(T)
    best = None
    for mask in range(1 << graph.m):
        if odd_degree_set(graph, mask) != target:
            continue
        c = subset_sum(costs, mask)
        if best is None or (c, mask) < best:
            best = (c, mask)
    return best


def is_single_cycle(graph, mask):
    """mask forms one simple cycle (2-cycles via parallels and loops count)."""
    es = bits(mask)
    if not es:
        return False
    deg = {}
    for e in es:
        u, v = graph.edges[e]
        if u == v:
            return len(es) == 1
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    if len(es) != len(deg):
        return False
    # connectivity over the touched vertices
    verts = list(deg)
    adj = {x: [] for x in verts}
    for e in es:
        u, v = graph.edges[e]
        adj[u].append(v)
        adj[v].append(u)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(verts)


def brute_shortest_nz_cycle(graph, costs, a):
    """(cost, mask) of the cheapest simple cycle with nonzero label."""
    best = None
    for mask in range(1, 1 << graph.m):
        if not is_single_cycle(graph, mask):
            continue
        if sum(a[e] for e in bits(mask)) == 0:
            continue
        c = subset_sum(costs, mask)
        if best is None or (c, mask) < best:
            best = (c, mask)
    return best


def has_negative_cycle(graph, costs):
    for mask in range(1, 1 << graph.m):
        if is_single_cycle(graph, mask) and subset_sum(costs, mask) < 0:
            return True
    return False


def solve_square(a, b):
    """Exact Gauss-Jordan solve of the square system a x = b; None if
    a is singular."""
    n = len(a)
    aug = [[F(v) for v in row] + [F(rhs)] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def brute_lp_max(objective, rows, free):
    """Optimum of max objective.x over rows (coeffs, sense, rhs) and x_j >= 0
    for the non-free j, by enumerating every vertex: each choice of n tight
    constraints with a unique solution.  Only valid when the feasible set
    is bounded.  Returns None when no vertex is feasible."""
    n = len(objective)
    tight = [(list(c), rhs) for c, _, rhs in rows]
    tight += [([int(i == j) for i in range(n)], 0) for j in range(n) if not free[j]]

    def feasible(x):
        for c, sense, rhs in rows:
            v = sum(F(a) * xi for a, xi in zip(c, x))
            if (sense == "<=" and v > rhs) or (sense == ">=" and v < rhs) or (
                sense == "==" and v != rhs
            ):
                return False
        return all(free[j] or x[j] >= 0 for j in range(n))

    best = None
    for pick in combinations(tight, n):
        x = solve_square([c for c, _ in pick], [rhs for _, rhs in pick])
        if x is not None and feasible(x):
            val = sum(F(c) * xi for c, xi in zip(objective, x))
            best = val if best is None else max(best, val)
    return best
