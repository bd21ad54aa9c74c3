"""Exact rational linear algebra: rank, span membership, integer kernels.

Vectors and matrices are plain sequences of ``fractions.Fraction`` (or ints,
which coerce exactly).  Everything here is dense; the toolkit never needs
ambient dimensions beyond a few dozen.

A ``LinearSubspace`` computes its integer kernel once, on first use, by
fraction-free (Bareiss-style) Gauss-Jordan elimination over integer rows,
and keeps it; span membership stays a ``Fraction`` reduction against the
RREF basis, independent of that kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

Rat = Fraction

__all__ = [
    "Rat",
    "parse_rat",
    "rat_str",
    "rref",
    "rank",
    "LinearSubspace",
    "in_span",
    "integer_kernel_basis",
    "fold_kernel",
    "integer_scaled",
]


def parse_rat(s: str | int) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (or an int) into an exact rational.

    Raises ``ValueError`` on malformed text, a zero denominator included.
    """
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s).strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def rat_str(x: Fraction | int) -> str:
    """Render a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _as_row(row: Sequence) -> list[Fraction]:
    return [Fraction(v) for v in row]


def rref(rows: Iterable[Sequence]) -> list[list[Fraction]]:
    """Reduced row echelon form over Q, zero rows dropped.

    Pivoting takes the first nonzero entry in each column; with exact
    arithmetic no magnitude heuristics are needed.
    """
    mat = [_as_row(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    for r in mat:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    out: list[list[Fraction]] = []
    pivot_row = 0
    for col in range(ncols):
        piv = None
        for i in range(pivot_row, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[pivot_row], mat[piv] = mat[piv], mat[pivot_row]
        p = mat[pivot_row][col]
        mat[pivot_row] = [v / p for v in mat[pivot_row]]
        for i in range(len(mat)):
            if i != pivot_row and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    for r in mat[:pivot_row]:
        out.append(r)
    return out


def rank(rows: Iterable[Sequence]) -> int:
    """Rank of a rational matrix (list of rows)."""
    return len(rref(rows))


def integer_scaled(values: Sequence) -> tuple[list[int], int]:
    """Rationals as integer numerators over one positive denominator:
    returns (the values times d, d) for d the lcm of their denominators.
    The integers keep the order of the values, so the same optima."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


@dataclass(frozen=True)
class LinearSubspace:
    """A linear subspace of R^n, stored as an RREF basis.

    ``basis_rows`` are linearly independent; ``dim < ambient_dim`` must hold
    whenever the subspace is used as an avoidance constraint.
    """

    ambient_dim: int
    basis_rows: tuple[tuple[Fraction, ...], ...] = field(default=())

    @staticmethod
    def from_rows(rows: Iterable[Sequence], ambient_dim: int) -> "LinearSubspace":
        reduced = rref(list(rows) or [])
        for r in reduced:
            if len(r) != ambient_dim:
                raise ValueError("row length does not match ambient dimension")
        return LinearSubspace(ambient_dim, tuple(tuple(r) for r in reduced))

    @staticmethod
    def zero(ambient_dim: int) -> "LinearSubspace":
        return LinearSubspace(ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.basis_rows)

    def is_proper(self) -> bool:
        return self.dim < self.ambient_dim

    def contains(self, vec: Sequence) -> bool:
        return in_span(self, vec)

    def extended(self, vec: Sequence) -> "LinearSubspace":
        """Subspace spanned by this one plus one more vector."""
        rows = [list(r) for r in self.basis_rows]
        rows.append(_as_row(vec))
        return LinearSubspace.from_rows(rows, self.ambient_dim)

    @cached_property
    def _integer_kernel(self) -> tuple[tuple[int, ...], ...]:
        # Stored in the instance __dict__: not a field, so equality, hashing
        # and the frozen check are untouched.
        return _kernel_rows(self)


def in_span(L: LinearSubspace, vec: Sequence) -> bool:
    """True iff ``vec`` lies in the span of ``L``'s basis rows.

    Since the basis is kept in RREF, a single reduction pass suffices.
    """
    v = _as_row(vec)
    if len(v) != L.ambient_dim:
        raise ValueError(
            f"dimension mismatch: vector has {len(v)}, subspace ambient {L.ambient_dim}"
        )
    for row in L.basis_rows:
        lead = next(i for i, x in enumerate(row) if x != 0)
        if v[lead] != 0:
            f = v[lead]
            v = [a - f * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


def integer_kernel_basis(L: LinearSubspace) -> list[tuple[int, ...]]:
    """Canonical integer basis of the orthogonal complement of ``L``.

    Returns ``ambient_dim - dim(L)`` primitive integer vectors a_1..a_k with
    <a_i, b> = 0 for every basis row b; together they cut out exactly L.
    The rows are the RREF basis of the complement, gcd-reduced with positive
    leading entry, so the output is deterministic.  It is computed once per
    subspace; each call returns a fresh list.
    """
    return list(L._integer_kernel)


def _kernel_rows(L: LinearSubspace) -> tuple[tuple[int, ...], ...]:
    n = L.ambient_dim
    if not L.is_proper():
        raise ValueError("subspace is the full space; no avoidance possible")
    # Null space of the basis matrix: pivot/free split from its RREF rows,
    # one kernel vector per free column, scaled to integers.
    pivots = [next(i for i, x in enumerate(row) if x != 0) for row in L.basis_rows]
    mat = []
    for j in range(n):
        if j in pivots:
            continue
        v = [0] * n
        v[j] = 1
        for row, p in zip(L.basis_rows, pivots):
            v[p] = -row[j]
        mat.append(integer_scaled(v)[0])
    # Gauss-Jordan in integers: every row stays primitive and proportional
    # to the row that ``rref`` would hold (same pivots, same zero pattern),
    # so a final sign fix gives the RREF row as a primitive integer vector.
    top = 0
    for col in range(n):
        piv = next((i for i in range(top, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        prow = mat[top]
        p = prow[col]
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != top:
                new = [p * a - f * b for a, b in zip(row, prow)]
                g = gcd(*new)
                mat[i] = [a // g for a in new]
        top += 1
        if top == len(mat):
            break
    return tuple(
        tuple(r) if next(v for v in r if v) > 0 else tuple(-v for v in r) for r in mat[:top]
    )


def fold_kernel(vectors: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Fold integer vectors a_0..a_{k-1} into c = sum_i B^i a_i, where
    B = 2 max_i ||a_i||_1 + 1.

    For a 0/1 vector x every |a_i.x| <= (B - 1)/2, so the a_i.x are the
    balanced base-B digits of c.x, and c.x != 0 exactly when some
    a_i.x != 0.  Applied to an integer kernel basis of L, one non-zero
    constraint c.x != 0 therefore says exactly that x avoids L.  A single
    vector folds to itself.
    """
    if not vectors:
        raise ValueError("nothing to fold")
    base = 2 * max(sum(abs(v) for v in a) for a in vectors) + 1
    c = [0] * len(vectors[0])
    for a in reversed(vectors):
        c = [base * u + v for u, v in zip(c, a)]
    return tuple(c)
