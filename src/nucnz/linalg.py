"""Exact rational linear algebra: rank, span membership, integer kernels.

Vectors and matrices are plain sequences of ``fractions.Fraction`` (or ints,
which coerce exactly).  Everything here is dense; the toolkit never needs
ambient dimensions beyond a few dozen.

A ``LinearSubspace`` keeps its RREF basis as primitive integer rows and
grows it one row at a time; span membership reduces a vector against
those rows, and the integer kernel is read off them once, on first use,
and finished by fraction-free (Bareiss-style) Gauss-Jordan elimination.
No ``Fraction`` is eliminated on either path.
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


def rank(rows: Iterable[Sequence]) -> int:
    """Rank of a rational matrix (list of rows)."""
    rows = [list(r) for r in rows]
    return LinearSubspace.from_rows(rows, len(rows[0])).dim if rows else 0


def integer_scaled(values: Sequence) -> tuple[list[int], int]:
    """Rationals as integer numerators over one positive denominator:
    returns (the values times d, d) for d the lcm of their denominators.
    The integers keep the order of the values, so the same optima."""
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // d) for v, d in zip(values, dens)], den


@dataclass(frozen=True)
class LinearSubspace:
    """A linear subspace of R^n, stored as its RREF basis with each row
    scaled to a primitive integer vector with positive leading entry.

    That form is canonical, so equal subspaces compare and hash equal.
    ``basis_rows`` gives the same rows as the usual ``Fraction`` RREF;
    ``dim < ambient_dim`` must hold whenever the subspace is used as an
    avoidance constraint.  Build one with ``from_rows``, ``zero`` or
    ``extended``, which keep ``rows`` in that form and ``pivots`` in step.
    """

    ambient_dim: int
    rows: tuple[tuple[int, ...], ...] = ()
    # The pivot column of each row: derived, so not compared or hashed.
    pivots: tuple[int, ...] = field(default=(), compare=False, repr=False)

    @staticmethod
    def from_rows(rows: Iterable[Sequence], ambient_dim: int) -> "LinearSubspace":
        span = LinearSubspace(ambient_dim)
        for row in rows:
            span = span.extended(row)
        return span

    @staticmethod
    def zero(ambient_dim: int) -> "LinearSubspace":
        return LinearSubspace(ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, r[p]) for x in r) for r, p in zip(self.rows, self.pivots))

    def is_proper(self) -> bool:
        return self.dim < self.ambient_dim

    def _reduced(self, vec: Sequence) -> list[int]:
        """``vec`` scaled to integers and reduced against every row:
        lead * v - v[p] * row at each row's pivot p, then divided by the
        gcd.  It is zero exactly when ``vec`` lies in the subspace."""
        v = list(vec)
        if not all(type(x) is int for x in v):
            v = integer_scaled([Fraction(x) for x in v])[0]
        if len(v) != self.ambient_dim:
            raise ValueError(
                f"dimension mismatch: vector has {len(v)}, subspace ambient {self.ambient_dim}"
            )
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                lead = row[p]
                v = [lead * a - f * b for a, b in zip(v, row)]
                g = gcd(*v)
                if g > 1:
                    v = [a // g for a in v]
        return v

    def contains(self, vec: Sequence) -> bool:
        return not any(self._reduced(vec))

    def extended(self, vec: Sequence) -> "LinearSubspace":
        """Subspace spanned by this one plus one more vector: the reduced
        vector, if nonzero, clears its pivot column from the other rows
        and joins them in pivot order."""
        v = self._reduced(vec)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return self
        g = gcd(*v) if v[p] > 0 else -gcd(*v)
        v = tuple(a // g for a in v)
        rows = list(self.rows)
        for i, row in enumerate(rows):
            f = row[p]
            if f:
                new = [v[p] * a - f * b for a, b in zip(row, v)]
                g = gcd(*new)
                rows[i] = tuple(a // g for a in new)
        at = sum(q < p for q in self.pivots)
        rows.insert(at, v)
        pivots = (*self.pivots[:at], p, *self.pivots[at:])
        return LinearSubspace(self.ambient_dim, tuple(rows), pivots)

    @cached_property
    def _integer_kernel(self) -> tuple[tuple[int, ...], ...]:
        # Stored in the instance __dict__: not a field, so equality, hashing
        # and the frozen check are untouched.
        return _kernel_rows(self)


def in_span(L: LinearSubspace, vec: Sequence) -> bool:
    """True iff ``vec`` lies in the span of ``L``'s basis rows."""
    return L.contains(vec)


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
    # Null space of the basis matrix: one vector per free column j, with
    # m at j and -row[j] * m / lead at each row's pivot, for m the lcm of
    # the leading entries, divided by its gcd.
    pivots = L.pivots
    m = lcm(*(row[p] for row, p in zip(L.rows, pivots)))
    mat = []
    for j in range(n):
        if j in pivots:
            continue
        v = [0] * n
        v[j] = m
        for row, p in zip(L.rows, pivots):
            v[p] = -row[j] * (m // row[p])
        g = gcd(*v)
        mat.append([a // g for a in v])
    # Gauss-Jordan in integers: every row stays primitive and proportional
    # to the Fraction RREF row (same pivots, same zero pattern), so a final
    # sign fix gives the RREF row as a primitive integer vector.
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
