"""Randomized exact-weight perfect matching via the symbolic skew matrix.

Each edge contributes a random scalar times x^weight to the skew-symmetric
adjacency matrix; the pfaffian is then a univariate polynomial whose x^r
coefficient is a signed sum over the perfect matchings of total weight r.
A nonzero coefficient certifies existence; a zero one is wrong only if
the random scalars hit a cancellation, which over a 62-bit field happens
with negligible probability (one-sided error).  The polynomial is read
off by evaluating the pfaffian at roots of unity and inverse-transforming;
the field is a fixed 62-bit prime chosen so that large power-of-two
transform sizes exist.  A witness matching is extracted by iterative edge
deletion and always verified before being returned.
"""

from __future__ import annotations

import random
from typing import Sequence

from .graphs import Graph

__all__ = [
    "PRIME",
    "pfaffian_mod",
    "pf_weight_support",
    "exact_weight_perfect_matching",
]

PRIME = 4179340454199820289  # 29 * 2^57 + 1, primitive root 3
_GENERATOR = 3
MAX_TOTAL_WEIGHT = 1 << 24  # transform-size guard
WORK_BUDGET = 8_000_000  # max transform-size * per-evaluation cost per call


def pfaffian_mod(a: list[list[int]]) -> int:
    """Pfaffian of a skew-symmetric matrix over F_p, p = PRIME, by
    congruence elimination in O(n^3)."""
    p = PRIME
    n = len(a)
    if n % 2:
        return 0
    a = [row[:] for row in a]
    sign = 1
    result = 1
    for i in range(0, n, 2):
        piv = None
        for j in range(i + 1, n):
            if a[i][j] % p:
                piv = j
                break
        if piv is None:
            return 0
        if piv != i + 1:
            a[piv], a[i + 1] = a[i + 1], a[piv]
            for row in a:
                row[piv], row[i + 1] = row[i + 1], row[piv]
            sign = -sign
        pv = a[i][i + 1] % p
        result = result * pv % p
        inv = pow(pv, -1, p)
        for j in range(i + 2, n):
            f = a[i][j] * inv % p
            if f:
                rowp = a[i + 1]
                rowj = a[j]
                for t in range(i, n):
                    rowj[t] = (rowj[t] - f * rowp[t]) % p
                for t in range(i, n):
                    a[t][j] = (a[t][j] - f * a[t][i + 1]) % p
    return result * sign % p


def _ntt(values: list[int], invert: bool) -> list[int]:
    p = PRIME
    n = len(values)
    a = values[:]
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            a[i], a[j] = a[j], a[i]
    length = 2
    while length <= n:
        root = pow(_GENERATOR, (p - 1) // length, p)
        if invert:
            root = pow(root, -1, p)
        for start in range(0, n, length):
            wcur = 1
            half = length >> 1
            for k in range(start, start + half):
                u = a[k]
                v = a[k + half] * wcur % p
                a[k] = (u + v) % p
                a[k + half] = (u - v) % p
                wcur = wcur * root % p
        length <<= 1
    if invert:
        inv_n = pow(n, -1, p)
        a = [x * inv_n % p for x in a]
    return a


def pf_weight_support(
    g: Graph,
    weights: Sequence[int],
    scalars: Sequence[int],
    active: Sequence[int] | None = None,
    verts: Sequence[int] | None = None,
) -> list[int]:
    """Coefficient list of the pfaffian polynomial (index = total weight).

    ``weights`` must be non-negative integers; ``scalars`` are the random
    field elements per edge; ``active`` restricts to a subset of edge ids
    and ``verts`` to the vertex set that must be perfectly matched.
    Index r holds a nonzero value iff some perfect matching of the active
    subgraph on ``verts`` has total weight r (up to the one-sided
    randomization error).
    """
    p = PRIME
    if active is None:
        active = range(g.m)
    active = list(active)
    if verts is None:
        verts = range(g.n)
    verts = list(verts)
    index = {v: i for i, v in enumerate(verts)}
    k = len(verts)
    if k == 0:
        return [1]
    if k % 2:
        return [0]
    half = k // 2
    top = sorted((weights[e] for e in active), reverse=True)[:half]
    degree = sum(top)
    if degree > MAX_TOTAL_WEIGHT:
        raise ValueError("total weight exceeds the configured transform bound")
    size = 1
    while size <= degree:
        size <<= 1
    if size * (len(active) + k * k * k // 3 + 1) > WORK_BUDGET:
        raise ValueError(
            "weights exceed the configured bound: the pfaffian transform "
            f"would need a size-{size} sweep over a {k}-vertex matrix"
        )
    omega = pow(_GENERATOR, (p - 1) // size, p)
    # per-edge geometric step: value at omega^j advances by omega^weight
    entries = []
    for e in active:
        u, v = g.edges[e]
        if u == v or u not in index or v not in index:
            continue
        entries.append((index[u], index[v], scalars[e] % p, pow(omega, weights[e], p)))
    evals = []
    cur = [s for (_, _, s, _) in entries]
    for _j in range(size):
        mat = [[0] * k for _ in range(k)]
        for idx, (iu, iv, _s, _step) in enumerate(entries):
            val = cur[idx]
            if iu < iv:
                mat[iu][iv] = (mat[iu][iv] + val) % p
                mat[iv][iu] = (mat[iv][iu] - val) % p
            else:
                mat[iv][iu] = (mat[iv][iu] + val) % p
                mat[iu][iv] = (mat[iu][iv] - val) % p
        evals.append(pfaffian_mod(mat))
        for idx, (_iu, _iv, _s, step) in enumerate(entries):
            cur[idx] = cur[idx] * step % p
    coeffs = _ntt(evals, invert=True)
    return coeffs[: degree + 1]


def exact_weight_perfect_matching(
    g: Graph, weights: Sequence[int], r: int, seed: int
) -> tuple[int, ...] | None:
    """A perfect matching of total weight exactly r, or None.

    Returned matchings are verified, so they are always correct; None is
    wrong only with the randomization's negligible one-sided probability.
    Weights may be negative; they are shifted internally (perfect
    matchings all have n/2 edges, so the target shifts by a constant).
    """
    if g.n % 2:
        return None
    w = [int(x) for x in weights]
    shift = max(0, -min(w)) if w else 0
    wsh = [x + shift for x in w]
    target = r + shift * (g.n // 2)
    rng = random.Random(seed)
    scalars = [rng.randrange(1, PRIME) for _ in range(g.m)]

    edge_order = [e for e in range(g.m) if g.edges[e][0] != g.edges[e][1]]
    alive = set(edge_order)
    removed: set[int] = set()
    coeffs = pf_weight_support(g, wsh, scalars, sorted(alive))
    if target < 0 or target >= len(coeffs) or coeffs[target] == 0:
        return None

    chosen: list[int] = []
    cur_target = target
    for e in edge_order:
        if e not in alive:
            continue
        u, v = g.edges[e]
        rest = sorted(alive - {e})
        verts = [x for x in range(g.n) if x not in removed]
        sub = pf_weight_support(g, wsh, scalars, rest, verts)
        if 0 <= cur_target < len(sub) and sub[cur_target] != 0:
            alive.discard(e)  # some target matching avoids e: delete it
        else:
            # every remaining target matching uses e: force it
            chosen.append(e)
            removed.update((u, v))
            cur_target -= wsh[e]
            alive = {
                f
                for f in alive
                if f != e
                and g.edges[f][0] not in removed
                and g.edges[f][1] not in removed
            }

    got = sorted(chosen)
    used = set()
    total = 0
    for e in got:
        u, v = g.edges[e]
        if u == v or u in used or v in used:
            return None
        used.add(u)
        used.add(v)
        total += w[e]
    if len(used) != g.n or total != r:
        return None
    return tuple(got)
