"""Instance types for the constrained excess problems and their equivalence.

A subspace-avoidance instance decomposes into one non-zero instance per
integer kernel vector of the avoided subspace; conversely a non-zero
constraint is avoidance of the hyperplane orthogonal to its vector.  Both
directions preserve the optimum excess exactly.

The separation solvers use a sharper form of the first direction: the
kernel vectors a_0..a_{k-1} fold into the single vector c = sum_i B^i a_i
with B = 2 max_i ||a_i||_1 + 1 (:func:`nucnz.linalg.fold_kernel`), and a
coalition avoids the subspace exactly when c(S) != 0, so one non-zero
instance is equivalent to the avoidance instance.  :func:`lsa_to_nz` keeps
the unfolded decomposition, which the tests use as the independent side
of that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .games import Allocation, GameOracle
from .linalg import LinearSubspace, integer_kernel_basis

__all__ = ["NZInstance", "LSAInstance", "lsa_to_nz", "nz_to_lsa"]


@dataclass(frozen=True)
class NZInstance:
    game: GameOracle
    y: Allocation
    a: tuple[int, ...]

    def __post_init__(self):
        if len(self.y) != self.game.player_count or len(self.a) != self.game.player_count:
            raise ValueError("allocation/vector length must equal player count")
        if all(v == 0 for v in self.a):
            raise ValueError("non-zero constraint vector must have a nonzero entry")


@dataclass(frozen=True)
class LSAInstance:
    game: GameOracle
    y: Allocation
    L: LinearSubspace

    def __post_init__(self):
        if len(self.y) != self.game.player_count:
            raise ValueError("allocation length must equal player count")
        if self.L.ambient_dim != self.game.player_count:
            raise ValueError("subspace ambient dimension must equal player count")
        if not self.L.is_proper():
            raise ValueError("avoided subspace must be proper")


def lsa_to_nz(inst: LSAInstance) -> list[NZInstance]:
    """One non-zero instance per kernel vector; the best of their optima
    equals the subspace-avoidance optimum."""
    return [
        NZInstance(inst.game, inst.y, a) for a in integer_kernel_basis(inst.L)
    ]


def nz_to_lsa(inst: NZInstance) -> LSAInstance:
    """Avoid the hyperplane orthogonal to the constraint vector."""
    n = inst.game.player_count
    hyper = LinearSubspace.from_rows(
        [[Fraction(v) for v in inst.a]], n
    )
    L = LinearSubspace.from_rows(
        [list(map(Fraction, row)) for row in integer_kernel_basis(hyper)], n
    )
    return LSAInstance(inst.game, inst.y, L)
