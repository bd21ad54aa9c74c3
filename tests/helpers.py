"""Brute-force reference implementations shared by the test suite.

Everything here is deliberately naive: subset enumeration plus direct
definition checks.  These are the oracles the fast solvers are gated
against, so they must stay independent of the package internals.
"""

from fractions import Fraction as F
from itertools import combinations
from math import gcd, lcm


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


def brute_partitionable(graph, mask, k):
    """Whether the edge subset splits into k forests, by backtracking over
    the part of each edge in turn."""
    es = bits(mask)

    def rec(idx, parts):
        if idx == len(es):
            return True
        e = es[idx]
        for i in range(len(parts)):
            if is_acyclic(graph, parts[i] | (1 << e)):
                parts[i] |= 1 << e
                if rec(idx + 1, parts):
                    return True
                parts[i] ^= 1 << e
            if parts[i] == 0:
                break  # empty parts are interchangeable
        return False

    return rec(0, [0] * k)


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


def brute_best_nz_spanning_set(matroid, w, a):
    """(weight, mask) of the best spanning set (rank equal to the whole
    ground set's) with nonzero label, or None."""
    n = matroid.ground_size
    rank = matroid.rank()
    best = None
    for mask in range(1 << n):
        if matroid.rank(mask) != rank or sum(a[e] for e in bits(mask)) == 0:
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


BRUTE_CYCLE_EDGE_CAP = 16


def shortest_nz_cycle_bruteforce(inst):
    """Cheapest simple cycle with nonzero label of an NZCycleInstance, as a
    CycleReport (ties to the smallest edge tuple), or None.  Enumerates
    every edge subset, so it refuses more than BRUTE_CYCLE_EDGE_CAP edges."""
    from nucnz.cycles import CycleReport

    g = inst.graph
    if g.m > BRUTE_CYCLE_EDGE_CAP:
        raise ValueError(f"{g.m} edges exceeds the enumeration cap {BRUTE_CYCLE_EDGE_CAP}")
    best = None
    for mask in range(1, 1 << g.m):
        if not is_single_cycle(g, mask):
            continue
        es = tuple(bits(mask))
        label = sum(inst.a[e] for e in es)
        if label == 0:
            continue
        key = (subset_sum(inst.costs, mask), es)
        if best is None or key < best[0]:
            best = (key, label)
    if best is None:
        return None
    (cost, es), label = best
    return CycleReport(es, cost, label)


def dump_allocation(y):
    """Allocation file payload: {"y": ["p/q", ...]}."""
    return {"y": [str(F(v)) for v in y]}


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


def maximize(objective, rows, free=None):
    """The LPInstance max objective.x over rows (coeffs, sense, rhs), with
    every entry read as a Fraction; every variable is free unless ``free``
    says otherwise."""
    from nucnz.lp import LPInstance

    obj = tuple(F(v) for v in objective)
    n = len(obj)
    norm_rows = []
    for coeffs, sense, rhs in rows:
        if sense not in ("==", "<=", ">="):
            raise ValueError(f"bad row sense {sense!r}")
        c = tuple(F(v) for v in coeffs)
        if len(c) != n:
            raise ValueError("row width does not match objective")
        norm_rows.append((c, sense, F(rhs)))
    fr = (True,) * n if free is None else tuple(bool(b) for b in free)
    if len(fr) != n:
        raise ValueError("free-flag length does not match objective")
    return LPInstance(obj, tuple(norm_rows), fr)


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


def rref(rows):
    """Reduced row echelon form over Q, zero rows dropped: the Fraction
    elimination that the package's integer echelon must reproduce.
    Pivoting takes the first nonzero entry in each column."""
    mat = [[F(v) for v in r] for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ValueError("ragged matrix")
    top = 0
    for col in range(ncols):
        piv = next((i for i in range(top, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        p = mat[top][col]
        mat[top] = [v / p for v in mat[top]]
        for i in range(len(mat)):
            if i != top and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[top])]
        top += 1
        if top == len(mat):
            break
    return mat[:top]


def rref_kernel_basis(basis_rows, n):
    """Integer kernel of the span of ``basis_rows`` (an RREF basis in R^n)
    the way it was first computed: one Fraction kernel vector per free
    column, a Fraction RREF of those vectors, and each RREF row scaled to a
    primitive integer vector with a positive leading entry."""
    if not basis_rows:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    pivots = [next(i for i, x in enumerate(row) if x != 0) for row in basis_rows]
    mat = []
    for j in range(n):
        if j not in pivots:
            v = [F(0)] * n
            v[j] = F(1)
            for row, p in zip(basis_rows, pivots):
                v[p] = -F(row[j])
            mat.append(v)
    top = 0
    for col in range(n):
        piv = next((r for r in range(top, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        mat[top] = [x / mat[top][col] for x in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[top])]
        top += 1
    out = []
    for row in mat[:top]:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
        sign = 1 if next(x for x in ints if x) > 0 else -1
        out.append(tuple(sign * x // g for x in ints))
    return out
