"""The gadget chain for degree-capped matching games.

A constrained-excess query on a matching game turns into a maximum-weight
non-zero matching (node and edge gadgets), which turns into a shortest
non-zero cycle on a padded graph (flip around a maximum matching), which
is solved by guessing the label-carrying edges and completing them with a
minimum-cost parity join.  Every step is exact and pulls back losslessly.
The library's solver reaches the same optimum without the cycle step.
"""

import random
from fractions import Fraction as F

from nucnz.bmatch import (
    BMatchInstance,
    bmatch_nz_min_excess,
    reduce_bmatch_to_nzmatching,
    reduce_nzmatching_to_nzcycle,
)
from nucnz.cycles import shortest_nz_cycle_exhaustive
from nucnz.games import brute_nz_min_excess, coalition_sum
from nucnz.graphs import Graph

# A path on four vertices; capacities allow vertex 1 to take two edges.
g = Graph.of(4, [(0, 1), (1, 2), (2, 3)])
inst = BMatchInstance(
    g,
    w=(F(4), F(3), F(5)),
    b=(1, 2, 1, 1),
    y=(F(2), F(3), F(1), F(2)),
)
a = [1, -1, 0, 2]

produced, gm = reduce_bmatch_to_nzmatching(inst, a)
print("node/edge gadget output:")
print("  vertices:", produced.graph.n, " edges:", produced.graph.m, " K =", gm.K)
print("  label-carrying edges:", [e for e in range(produced.graph.m) if produced.a[e] != 0])

red = reduce_nzmatching_to_nzcycle(produced)
if red.direct is not None:
    print("\nunconstrained optimum already carries a label; no cycle needed")
    matching = red.direct
else:
    ci = red.instance
    print("\ncycle instance over the padded graph:")
    print("  vertices:", ci.graph.n, " edges:", ci.graph.m)
    cyc = shortest_nz_cycle_exhaustive(ci)
    print("  best label-carrying cycle: cost", cyc.cost, "edges", cyc.edges[:6], "...")
    matching = red.back_translate(cyc)

mask = gm.coalition_of(matching)
value = inst.game().value(mask)
excess = coalition_sum(inst.y, mask) - value
print("\npulled-back coalition mask:", bin(mask), " excess:", excess)

want = brute_nz_min_excess(inst.game(), inst.y, a)
assert excess == want.excess
print("matches coalition enumeration exactly")

# The one-call front end skips the cycle instance: it takes a maximum
# matching of the gadget graph and guesses at most #cap2 + 2 label-carrying
# edges whose status flips, completing each guess with one blossom call.
rep = bmatch_nz_min_excess(inst, a)
assert rep.excess == want.excess
print("front-end answer:", rep.excess, "at", bin(rep.coalition))
