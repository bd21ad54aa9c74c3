"""Matroid-structured games: forest covers and spanning-tree packings.

Players are the edges of a graph.  The cost of a coalition is the least
number of forests covering it; the value of a coalition is the most
disjoint spanning trees it contains.  The cover number is one
matroid-partition pass into forests, and so is each tree-packing test.
Both constrained-excess solvers run on k-fold union matroids (k = 1 is
the graphic matroid), one exchange from the greedy optimum, and the
whole nucleolus is computed through them in oracle mode.
"""

from fractions import Fraction as F

from nucnz.games import brute_nz_min_excess, make_allocation
from nucnz.graphs import Graph
from nucnz.matroids import (
    ArboricityGame,
    NetworkStrengthGame,
    arboricity_lsa_solver,
    arboricity_nz_min_excess,
    arboricity_value,
    network_strength_lsa_solver,
    network_strength_value,
    nz_max_weight_basis,
    union_k_matroid,
)
from nucnz.mps import mps_nucleolus, reference_nucleolus

K4 = Graph.of(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
print("complete graph on 4 vertices:")
print("  forest cover number of all edges:", arboricity_value(K4, 0b111111))
print("  disjoint spanning trees in all edges:", network_strength_value(K4, 0b111111))

# --- A non-zero basis query on the triangle. ------------------------------
tri = Graph.of(3, [(0, 1), (1, 2), (2, 0)])
m = union_k_matroid(tri, 1)  # k = 1: the graphic matroid
res = nz_max_weight_basis(m, [F(3), F(2), F(1)], [1, -1, 0])
print("\ntriangle, weights (3,2,1), labels (1,-1,0):")
print("  greedy spanning tree {0,1} cancels; best label-carrying swap:")
print("  basis mask", bin(res.subset), "weight", res.weight, "label", res.a_value)

# --- Constrained excess solvers against brute force. -----------------------
y = make_allocation([F(1, 2), F(1, 3), F(1), F(1, 4), F(2, 3), F(1, 2)])
a = [1, 0, -1, 0, 2, 0]
rep = arboricity_nz_min_excess(K4, y, a)
print("\nforest-cover game constrained optimum:", rep.excess, "at", bin(rep.coalition))
assert rep.excess == brute_nz_min_excess(ArboricityGame(K4), y, a).excess

# --- Full nucleolus in oracle mode. ----------------------------------------
tri_game = ArboricityGame(tri)
res = mps_nucleolus(tri_game, mode="oracle", sep=arboricity_lsa_solver(tri))
print("\ntriangle forest-cover nucleolus:", res.allocation)
assert res.allocation == reference_nucleolus(tri_game).allocation

strength_game = NetworkStrengthGame(K4)
res = mps_nucleolus(strength_game, mode="oracle", sep=network_strength_lsa_solver(K4))
print("4-clique spanning-tree-packing nucleolus:", res.allocation)
assert res.allocation == reference_nucleolus(strength_game).allocation
print("oracle-mode nucleoli match the reference algorithm exactly")
