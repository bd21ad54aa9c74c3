"""Exact rational LP solving: a revised simplex on a square integer basis.

Every constraint is held as a row a . x <= b with a slack b - a . x >= 0:
row i scaled to integers (negated on ">=", and relaxed by a slack only
until an equality is tight), the bound x_j >= 0 of a variable that is not
free, and the bound x_j = 0 that a free variable keeps until it takes a
row.  A vertex is fixed by one tight constraint per variable, the rows of
the square matrix M.  The basis holds Q = den M^-1 in integers, with
den = |det M|, then Z = Q b_M (so x = Z / den), and for the objective c
being priced the reduced costs nu = c Q and c . Z.  When the constraint of
row a joins M in place of tight constraint k, with w = a Q, every other
column becomes (|w_k| q_j - sign(w_k) w_j q_k) / den, a Bareiss step in
which each division is checked to be exact.  The basis also keeps each
loose constraint's slack times den, den b - a . Z, which the same step
carries with the loose rows' a q_k.  A loose row's other entries, a Q,
are computed only for the row that joins M, and every such product reads
only the nonzeros of one side.  Keys order the constraints as a tableau
orders its columns: the bound of variable j is j, row i is n + i, and
the phase-1 helper last.

A cold solve starts with every variable at its bound.  Each free variable
in turn takes a row of its own, by one Bareiss step: an inequality before
an equality, then the smallest |slack / entry|, then the lowest row.  (Of
the rules tried, this one left the fewest LP solves in the nucleolus
schemes.)  A free variable that no row holds keeps x_j = 0, and is a free
ray if it has a cost.  Phase 1 adds a helper h >= 0 to every violated row
and brings it in at the most violated one, which makes the vertex
feasible, then minimizes h plus the slacks of the loose equalities.  A
tight equality never leaves M.  Loose constraints at zero that must not
stay loose (the helper and equalities) then join M in place of the lowest
key with an entry that may leave.  A helper with no such entry has its
entries at equalities that are dependent once h = 0, and takes the place
of the lowest of them, which stays loose at zero.  Then h goes.

The primal simplex (phase 1, then phase 2 on the objective) takes the
tight constraint of least nu_k < 0 out of M, ties to the lowest key
(Dantzig's rule, then Bland's for good after a fixed number of
iterations, which terminates), and the loose one whose slack runs out
first joins it, ties to the lowest key.  Optimal solutions come with exact
duals, nu_k over den on each tight row, and a strong duality certificate,
with c . x equal to the returned objective, is checked before returning.
The check reads only the instance and the returned solution, never the
basis or the rows the solver scaled, and runs in integers: x and the
duals over one denominator each, and each row scaled by the lcm of its own
denominators, once per row while each rows tuple extends the one checked
before.

An optimal solution keeps its basis, and a later solve can start from it
(``start=``), copying it so that no solution is ever changed:

* over the same rows with another objective: a feasible basis stays
  feasible under any objective, so the solve prices its own objective and
  runs phase 2 only;
* over these rows plus appended inequalities, under the same objective:
  each new row starts loose, which keeps nu dual feasible, and Lemke's
  dual simplex restores primal feasibility.  The most negative slack joins
  M; the least ratio nu_k / w_k over w_k > 0 leaves, ties to the largest
  w_k and then the lowest key.  After a fixed number of iterations the
  dual Bland rule (the lowest key joins, the lowest key leaves among ties)
  takes over for good, which terminates;
* over other rows that hold at its point, under any objective: each row
  of the instance that is not one of the start's (matched by identity)
  must hold there, an equality tightly, and the start's rows it lacks are
  dropped.  The point stays feasible, so no phase 1 runs.  The kept
  constraints keep their places in M and their slacks; a place whose
  constraint the instance lacks (a dropped row, or a free variable's
  bound) holds a ghost with a negative key, which may leave M.  The solve
  prices its own objective, then the loose equalities, at zero, join M
  as in a cold solve, in ghosts' places first, which does not move the
  point.  Each ghost left leaves M the way its nu_k improves (either way
  when nu_k = 0), and the loose constraint whose slack runs out first, by
  the primal ratio test, joins M in its place.  Phase 2 finishes.  A
  ghost that no loose constraint can replace (the rows have a lineality,
  or the objective a ray) sends the solve cold.

Among equal slacks the first in ``rest`` joins M.  ``rest`` lists the
loose constraints in the order a tableau holds the rows they are basic
in: a constraint that leaves M takes the place of the one that joins it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import itemgetter, mul
from typing import Sequence

from .linalg import integer_scaled

__all__ = ["LPInstance", "LPSolution", "LPError", "solve_lp_exact"]

# Key of the phase-1 helper's bound h >= 0.  No list holds 2**63 rows, so
# it sorts after every row's key, and appended rows never reach it.
_HELPER = 1 << 63

# Dual simplex iterations before the dual Bland rule takes over for good.
DUAL_BLAND_AFTER = 50

# Every zero entry of a solution's x and duals is this one Fraction.
_ZERO = Fraction(0)


class LPError(RuntimeError):
    """Internal solver failure (certificate mismatch, iteration overflow)."""


@dataclass(frozen=True)
class LPInstance:
    """max objective . x subject to rows (coeffs, sense, rhs).

    ``free[j]`` marks variable j as unrestricted; otherwise x_j >= 0.
    All variables default to free, which is the common case here (payoff
    vectors and the excess level are sign-unrestricted).
    """

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]
    free: tuple[bool, ...]

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LPSolution:
    """status is "optimal", "infeasible" or "unbounded".

    For optimal solutions, ``duals[i]`` is the multiplier of row i in its
    given orientation: d >= 0 on "<=" rows, d <= 0 on ">=" rows, free on
    equalities, with sum_i d_i a_i = c on free variables and
    objective == sum_i d_i b_i (checked exactly).  ``basis`` is the final
    basis of an optimal solve, for ``solve_lp_exact(..., start=)``; it takes
    no part in equality or repr.
    """

    status: str
    x: tuple[Fraction, ...] | None = None
    duals: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None
    basis: _Basis | None = field(default=None, compare=False, repr=False)


class _Basis:
    """A square basis of one instance's constraints, feasible once phase 1
    is done: the instance's rows (matched row by row by identity), its free
    flags, the objective nu prices, each key's (a, b), the sign and scale of
    each row, the keys that may leave M, the key of each row of M, the loose
    keys in tableau order and their slacks times den, den, and the columns
    of Q, each with its nu_k last, followed by Z with c . Z last.  It is a
    plain class: a dataclass would add its construction to every import of
    the package."""

    def __init__(self, rows, free, objective, cons, orient, allowed, tight, rest, slack, den, cols):
        self.rows, self.free, self.objective = rows, free, objective
        self.cons, self.orient, self.allowed = cons, orient, allowed
        self.tight, self.rest, self.slack = tight, rest, slack
        self.den, self.cols = den, cols

    def copy(self) -> "_Basis":
        return _Basis(
            self.rows, self.free, self.objective, dict(self.cons), self.orient,
            set(self.allowed), list(self.tight), list(self.rest), list(self.slack),
            self.den, [list(col) for col in self.cols],
        )

    def weights(self, key: int) -> list[int]:
        """w = a Q of constraint ``key``, then minus den times its slack."""
        a, b = self.cons[key]
        w = _dots(self.cols, a)
        w[-1] -= self.den * b
        return w

    def rates(self, k: int) -> list[int]:
        """a q_k of each loose constraint: minus its entry in column k."""
        return _dots([self.cons[key][0] for key in self.rest], self.cols[k][:-1])

    def swap(self, k: int, i: int, w: list[int], rates: list[int] | None = None) -> None:
        """Loose constraint rest[i], with weights w, becomes row k of M, and
        the constraint there takes its place in ``rest``."""
        if rates is None:
            rates = self.rates(k)
        den, slack = self.den, self.slack
        f = slack[i] if w[k] > 0 else -slack[i]
        p = self.den = _bareiss(self.cols, den, k, w)
        # den b - a . Z follows Z; the constraint leaving M has a q_k = den.
        self.slack = _combine(p, slack, f, rates, den)
        self.slack[i] = -f
        self.rest[i], self.tight[k] = self.tight[k], self.rest[i]

    def price(self, c: Sequence[int]) -> None:
        for col, v in zip(self.cols, _dots(self.cols, c)):
            col[-1] = v

    def append(self, rows: tuple) -> None:
        """Extend the basis to ``rows``, which continue ``self.rows`` with
        inequalities.  Each new row starts loose, unless it holds a free
        variable that no row holds yet: then the row takes the lowest such
        variable's place in M for good, as in a cold solve."""
        n, tight, rest = len(self.free), self.tight, self.rest
        for i in range(len(self.rows), len(rows)):
            coeffs, sense, rhs = rows[i]
            a, b, rho = _oriented(sense, *integer_scaled((*coeffs, rhs)))
            key = n + i
            self.cons[key] = (a, b)
            self.orient += (rho,)
            self.allowed.add(key)
            w = self.weights(key)
            rest.append(key)
            self.slack.append(-w[-1])
            at_bound = [(j, k) for k, j in enumerate(tight) if j < n and self.free[j] and w[k]]
            if at_bound:
                self.swap(min(at_bound)[1], len(rest) - 1, w)
                del rest[-1], self.slack[-1]
        self.rows = rows

    def dual(self) -> str:
        """Lemke's dual simplex from a basis that nu prices dual feasible:
        "optimal" once no loose constraint has a negative slack,
        "infeasible" when such a constraint has no entry that may leave."""
        cols, tight, rest, allowed = self.cols, self.tight, self.rest, self.allowed
        iters = 0
        while True:
            iters += 1
            if iters > 500000:
                raise LPError("dual simplex iteration cap exceeded")
            bland = iters > DUAL_BLAND_AFTER
            slack = self.slack
            low = min(slack, default=0)
            if low >= 0:
                return "optimal"
            if bland:
                i = rest.index(min(key for key, v in zip(rest, slack) if v < 0))
            else:
                i = slack.index(low)
            w = self.weights(rest[i])
            # The least ratio nu_k / w_k over w_k > 0; ties go to the
            # largest w_k (not under Bland), then to the lowest key.
            k = None
            for j, key in enumerate(tight):
                wj = w[j]
                if wj > 0 and key in allowed:
                    if k is None:
                        k, nu_k, w_k = j, cols[j][-1], wj
                        continue
                    lhs, rhs = cols[j][-1] * w_k, nu_k * wj
                    if lhs < rhs or lhs == rhs and (
                        key < tight[k] if bland or wj == w_k else wj > w_k
                    ):
                        k, nu_k, w_k = j, cols[j][-1], wj
            if k is None:
                return "infeasible"
            self.swap(k, i, w)

    def run(self, allowed) -> str:
        """Primal simplex on nu until it is optimal or a ray is unbounded:
        Dantzig's rule first, then Bland's for good, which terminates."""
        cols, tight, rest = self.cols, self.tight, self.rest
        bland_after = 100 + 10 * (2 * len(self.rows) + len(self.free) + 1)
        iters = 0
        while True:
            iters += 1
            if iters > 500000:
                raise LPError("simplex iteration cap exceeded")
            bland = iters > bland_after
            k = None
            for j, key in enumerate(tight):
                v = cols[j][-1]
                if v < 0 and key in allowed:
                    rank = key if bland else (v, key)
                    if k is None or rank < best:
                        k, best = j, rank
            if k is None:
                return "optimal"
            r, rates = self.ratio(k)
            if r is None:
                return "unbounded"
            self.swap(k, r, self.weights(rest[r]), rates)

    def ratio(self, k: int) -> tuple[int | None, list[int]]:
        """Leaving M raises slack k, which runs every loose slack down at
        rate -a q_k over den: the place in ``rest`` of the least ratio,
        ties to the lowest key (None if no slack falls), and the rates."""
        rates, slack, rest = self.rates(k), self.slack, self.rest
        r = None
        for i, rate in enumerate(rates):
            if rate < 0:
                s, t = slack[i], -rate
                if r is None or s * r_t < r_s * t or s * r_t == r_s * t and rest[i] < rest[r]:
                    r, r_s, r_t = i, s, t
        return r, rates

    def drive_in(self, joining) -> None:
        """Each loose constraint whose key is in ``joining``, all at zero,
        joins M in place of the lowest key with an entry that may leave,
        whatever its sign.  Otherwise it is redundant and stays loose,
        never to move."""
        for i, key in enumerate(self.rest):
            if key in joining:
                w = self.weights(key)
                swap = [(j, k) for k, j in enumerate(self.tight) if w[k] and j in self.allowed]
                if swap:
                    self.swap(min(swap)[1], i, w)


def _dots(vectors: list, x: Sequence[int]) -> list[int]:
    """[v . x for v in vectors], reading each v only where x is nonzero."""
    nonzero = [i for i, u in enumerate(x) if u]
    if len(nonzero) > 1:
        get, vals = itemgetter(*nonzero), [x[i] for i in nonzero]
        return [sum(map(mul, get(v), vals)) for v in vectors]
    if nonzero:
        i = nonzero[0]
        return [v[i] * x[i] for v in vectors]
    return [0] * len(vectors)


def _bareiss(cols: list[list[int]], den: int, k: int, w: list[int]) -> int:
    """Column k of ``cols`` meets pivot w_k: column k takes its sign, and
    every other column j becomes (|w_k| col_j - w_j col_k) / den, each
    division checked to be exact.  Returns the new den, |w_k|."""
    p = w[k]
    pivot = cols[k] = cols[k] if p > 0 else [-v for v in cols[k]]
    p = abs(p)
    if p == den:
        # Then only the entries beside a nonzero of column k move.
        nonzero = [(i, u) for i, u in enumerate(pivot) if u]
        for j, f in enumerate(w):
            if f and j != k:
                col = cols[j]
                for i, u in nonzero:
                    q, r = divmod(f * u, den)
                    if r:
                        raise LPError("integer pivot lost exactness")
                    col[i] -= q
        return p
    for j, f in enumerate(w):
        if j != k:
            cols[j] = _combine(p, cols[j], f, pivot, den)
    return p


def _combine(p: int, a: list[int], f: int, b: list[int], den: int) -> list[int]:
    """(p a - f b) / den for den > 0, checked to be exact: floor division
    leaves remainders in [0, den), which are all zero when they sum to 0."""
    quo = [(p * v - f * u) // den for v, u in zip(a, b)]
    if p * sum(a) - f * sum(b) != den * sum(quo):
        raise LPError("integer pivot lost exactness")
    return quo


def solve_lp_exact(lp: LPInstance, start: LPSolution | None = None) -> LPSolution:
    """Solve a rational LP exactly; always returns a status, never raises
    for infeasible or unbounded instances.  An optimal solution is
    returned only after its certificate checks.

    ``start`` is an optimal solution with the same ``free`` flags, whose
    basis the solve copies in place of phase 1.  Over a prefix of
    ``lp.rows`` (the same row objects, in order) it is continued: over all
    of the rows, the solve prices its own objective and runs phase 2 only;
    otherwise the objective must be the start's and the appended rows
    inequalities, which join the basis loose, and the dual simplex
    re-optimizes, with the dual Bland rule after ``DUAL_BLAND_AFTER``
    iterations.  Over any other rows it is resumed: each row of ``lp`` that
    is not one of the start's (by identity) must hold at the start's
    point, an equality tightly; the start's rows that ``lp`` lacks are
    dropped; the solve prices its own objective, refills the places of M
    they held, and runs phase 2.  A start that fits none of these raises
    ``ValueError``.
    """
    n = lp.n_vars
    m = len(lp.rows)
    scaled, sigma = integer_scaled(lp.objective)
    appended = basis = None
    if start is not None:
        if start.basis is None:
            raise ValueError(f"a {start.status} solution has no basis to start from")
        if start.basis.free != lp.free:
            raise ValueError("start has other free flags")
        held = start.basis.rows
        if len(held) <= m and all(a is b for a, b in zip(held, lp.rows)):
            appended = lp.rows[len(held):]
            if appended and start.basis.objective != lp.objective:
                raise ValueError("rows can be appended only under the start's objective")
            if any(sense == "==" for _, sense, _ in appended):
                raise ValueError("an appended row must be an inequality")
            basis = start.basis.copy()
        else:
            basis = _resumed_basis(lp, start.basis, scaled)
    if basis is None:
        basis = _cold_basis(lp)
        if basis is None:
            return LPSolution(status="infeasible")

    if appended:
        basis.append(lp.rows)
        if basis.dual() == "infeasible":
            return LPSolution(status="infeasible")
    else:
        basis.price(scaled)
        basis.objective = lp.objective
        # A free variable that no row holds has a zero entry in every loose
        # constraint: if it still has a cost, it is a free ray.
        cols = basis.cols
        if any(cols[k][-1] for k, j in enumerate(basis.tight) if j < n and lp.free[j]):
            return LPSolution(status="unbounded")
    if basis.run(basis.allowed) == "unbounded":
        return LPSolution(status="unbounded")

    cols, den = basis.cols, basis.den
    z = cols[-1]
    x = tuple(Fraction(z[j], den) if z[j] else _ZERO for j in range(n))
    duals = [_ZERO] * m
    for k, key in enumerate(basis.tight):
        if cols[k][-1] and key >= n:
            duals[key - n] = Fraction(cols[k][-1] * basis.orient[key - n], den * sigma)
    sol = LPSolution(
        status="optimal", x=x, duals=tuple(duals),
        objective=Fraction(z[-1], den * sigma), basis=basis,
    )
    _verify_certificate(lp, sol)
    return sol


def _resumed_basis(lp: LPInstance, old: _Basis, scaled: list[int]) -> _Basis | None:
    """The basis ``old`` carried over to the rows of ``lp`` and priced on
    ``scaled``, at the same point, with every place of M held by a
    constraint of ``lp``; None when a place cannot be refilled."""
    n, free = lp.n_vars, lp.free
    index = {id(row): i for i, row in enumerate(old.rows)}
    cons = {j: old.cons[j] for j in range(n)}
    moved: dict[int, int] = {}  # old key -> new key of each kept row
    orient, new, equality = [], [], set()
    allowed = {j for j in range(n) if not free[j]}
    for i, row in enumerate(lp.rows):
        key, j = n + i, index.pop(id(row), None)
        if j is None:
            coeffs, sense, rhs = row
            a, b, rho = _oriented(sense, *integer_scaled((*coeffs, rhs)))
            cons[key] = (a, b)
            new.append(key)
        else:
            cons[key], rho = old.cons[n + j], old.orient[j]
            moved[n + j] = key
        orient.append(rho)
        (equality if row[1] == "==" else allowed).add(key)
    # A place whose constraint lp lacks (a dropped row or a free variable's
    # bound) holds a ghost: a negative key, which may leave M.
    tight, ghosts = [], []
    for k, key in enumerate(old.tight):
        if key < n and not free[key]:
            tight.append(key)
        elif key in moved:
            tight.append(moved[key])
        else:
            tight.append(-1 - k)
            ghosts.append(-1 - k)
            cons[-1 - k] = old.cons[key]
    allowed.update(ghosts)
    rest, slack = [], []
    for key, s in zip(old.rest, old.slack):
        key = key if key < n else moved.get(key)
        if key is not None:
            rest.append(key)
            slack.append(s)
    basis = _Basis(
        lp.rows, free, lp.objective, cons, tuple(orient), allowed, tight, rest, slack,
        old.den, [list(col) for col in old.cols],
    )
    for key in new:
        s = -basis.weights(key)[-1]
        if s < 0 or s and key in equality:
            raise ValueError("a row new to the start must hold at its point, an equality tightly")
        rest.append(key)
        slack.append(s)

    # Loose equalities, all at zero, join M, in ghosts' places first; then
    # each ghost left leaves M the way its nu_k improves (either way when
    # nu_k = 0), and the loose constraint whose slack runs out first
    # joins M in its place.
    basis.price(scaled)
    basis.drive_in(equality)
    kept = [(key, s) for key, s in zip(basis.rest, basis.slack) if key >= 0]
    basis.rest, basis.slack = [key for key, _ in kept], [s for _, s in kept]
    cols = basis.cols
    for k, key in enumerate(basis.tight):
        if key < 0:
            nu = cols[k][-1]
            for turn in range(1 if nu else 2):
                if nu > 0 or turn:
                    cols[k] = [-v for v in cols[k]]
                r, rates = basis.ratio(k)
                if r is not None:
                    break
            else:
                return None
            basis.swap(k, r, basis.weights(basis.rest[r]), rates)
            del basis.rest[r], basis.slack[r]
    for key in ghosts:
        del cons[key]
    allowed.difference_update(ghosts)
    return basis


def _cold_basis(lp: LPInstance) -> _Basis | None:
    """Free-variable rows, phase 1 and the swap-in of loose zeros: a
    feasible basis of ``lp.rows``, or None if the rows are infeasible."""
    n, free = lp.n_vars, lp.free
    cons = {j: ((0,) * j + (-1,) + (0,) * (n - 1 - j), 0) for j in range(n)}
    orient, equality = [], []
    for i, (coeffs, sense, rhs) in enumerate(lp.rows):
        a, b, rho = _oriented(sense, *integer_scaled((*coeffs, rhs)))
        cons[n + i] = (a, b)
        orient.append(rho)
        equality.append(sense == "==")
    allowed = {j for j in range(n) if not free[j]}
    allowed.update(n + i for i, eq in enumerate(equality) if not eq)
    # Every variable at its bound: M = -I, so Q = -I and Z = 0.
    cols = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n):
        cols[k][k] = -1
    rest = [n + i for i in range(len(lp.rows))]
    basis = _Basis(
        lp.rows, free, None, cons, tuple(orient), allowed, list(range(n)), rest,
        [cons[key][1] for key in rest], 1, cols,
    )

    # Each free variable in turn takes a loose row with an entry in its
    # column, and its bound leaves for good.
    for j in range(n):
        if free[j]:
            rates, slack = basis.rates(j), basis.slack
            best = None
            for i, t in enumerate(rates):
                if t:
                    eq, s, t = equality[rest[i] - n], abs(slack[i]), abs(t)
                    if best is None or (eq, s * best_t) < (best_eq, best_s * t):
                        best, best_eq, best_s, best_t = i, eq, s, t
            if best is not None:
                basis.swap(j, best, basis.weights(rest[best]), rates)
                del rest[best], basis.slack[best]

    # Phase 1: the helper relaxes every violated row and comes in at the
    # most violated one; then minimize it plus the loose equalities' slacks.
    slack = basis.slack
    negative = {key for key, v in zip(rest, slack) if v < 0}
    held = [key for key in rest if equality[key - n]]
    if negative or any(v for key, v in zip(rest, slack) if equality[key - n]):
        plain = dict(cons)
        if negative:
            for key, (a, b) in plain.items():
                cons[key] = ((*a, -1 if key in negative else 0), b)
            cons[_HELPER] = ((0,) * n + (-1,), 0)
            for col in cols:
                col.insert(n, 0)
            cols.insert(n, [0] * n + [-basis.den, 0])
            basis.tight.append(_HELPER)
        c = [0] * len(basis.tight)
        for key in held:
            for j, v in enumerate(cons[key][0]):
                c[j] += v
        if negative:
            c[n] -= 1
            i = slack.index(min(slack))
            basis.swap(n, i, basis.weights(rest[i]))
        basis.price(c)
        if basis.run(allowed | {_HELPER}) != "optimal":
            raise LPError("phase 1 cannot be unbounded")
        loose = dict(zip(rest, basis.slack))
        if sum(loose.get(key, 0) for key in (*held, _HELPER)) > 0:
            return None
    # The helper and loose equalities are at zero.
    basis.drive_in({_HELPER, *(n + i for i, eq in enumerate(equality) if eq)})
    if negative:
        if _HELPER in rest:
            # With w = a_h Q, w M = den a_h: the rows of M with w_k != 0
            # cancel in x, and since h = 0 their rhs do too.  A free
            # variable's bound in M has w_k = 0: its column of Q moves x_j
            # along a direction on which every constraint but that bound
            # is constant, as it was when the variable found no row.  So
            # the helper stayed loose only for want of a place that may
            # leave, its w_k != 0 sit at equalities, and once h = 0 each is
            # implied by the others, which never leave M.  The lowest
            # gives its place to the helper's bound and stays loose at
            # zero, as a redundant equality does after the drive-in.
            w = basis.weights(_HELPER)
            k = min((key, k) for k, key in enumerate(basis.tight) if w[k])[1]
            basis.swap(k, rest.index(_HELPER), w)
        k = basis.tight.index(_HELPER)
        del basis.tight[k], cols[k]
        for col in cols:
            del col[n]
        basis.cons = plain
    return basis


def _oriented(sense: str, scaled: list[int], rho: int) -> tuple[tuple[int, ...], int, int]:
    """A row scaled to integers as (a, b), negated on ">=" so that its
    slack b - a . x is nonnegative, and the signed scale that does it."""
    if sense == ">=":
        return tuple(-v for v in scaled[:-1]), -scaled[-1], -rho
    return tuple(scaled[:-1]), scaled[-1], rho


# The rows object last checked, its rows scaled to integers and the lcm of
# their scales.  Only the certificate reads it; the solver scales its rows
# itself.  A level's pinning LPs share one rows tuple, and each cut of a
# level's LP appends one row to the tuple before, so only rows not seen
# before are scaled.  A row is
# matched by identity: the rows of an LPInstance are nested tuples and
# cannot change.
_scaled_rows: tuple = ((), [], 1)


def _integer_rows(rows) -> tuple[list[tuple[list[int], int]], int]:
    global _scaled_rows
    held, scaled, common = _scaled_rows
    if held is not rows:
        if len(held) > len(rows) or any(a is not b for a, b in zip(held, rows)):
            held, scaled, common = (), [], 1
        new = [integer_scaled((*coeffs, rhs)) for coeffs, _, rhs in rows[len(held):]]
        scaled = scaled + new
        _scaled_rows = (rows, scaled, lcm(common, *(rho for _, rho in new)))
    return _scaled_rows[1], _scaled_rows[2]


def _verify_certificate(lp: LPInstance, sol: LPSolution) -> None:
    """Check primal feasibility, dual signs, stationarity, strong duality
    and that the objective is c . x, from ``lp`` and ``sol`` alone.  A dual is carried into the sums over its
    row times common // rho, so every row stands over the common lcm."""
    assert sol.x is not None and sol.duals is not None
    if len(sol.x) != lp.n_vars or len(sol.duals) != len(lp.rows):
        raise LPError("solution shape does not match the instance")
    x, dx = integer_scaled(sol.x)
    duals, dd = integer_scaled(sol.duals)
    rows, common = _integer_rows(lp.rows)
    # Below, dual_obj and coefs (the sum of d_i a_i) are scaled by dd * common.
    dual_obj = 0
    coefs = [0] * lp.n_vars
    for (_, sense, _), (row, rho), d in zip(lp.rows, rows, duals):
        lhs = sum(map(mul, row, x))
        rhs = row[-1] * dx
        if sense == "==" and lhs != rhs:
            raise LPError("primal equality violated")
        if sense == "<=":
            if lhs > rhs:
                raise LPError("primal <= row violated")
            if d < 0:
                raise LPError("dual sign on <= row")
        if sense == ">=":
            if lhs < rhs:
                raise LPError("primal >= row violated")
            if d > 0:
                raise LPError("dual sign on >= row")
        if d:
            e = d * (common // rho)
            dual_obj += e * row[-1]
            coefs = [a + e * c for a, c in zip(coefs, row)]
    scale = dd * common
    for j, (coef, obj) in enumerate(zip(coefs, lp.objective)):
        if lp.free[j]:
            if coef * obj.denominator != obj.numerator * scale:
                raise LPError("dual stationarity violated on free variable")
        else:
            if x[j] < 0:
                raise LPError("nonnegative variable went negative")
            if coef * obj.denominator < obj.numerator * scale:
                raise LPError("dual feasibility violated on bounded variable")
    obj = sol.objective
    if dual_obj * obj.denominator != obj.numerator * scale:
        raise LPError("strong duality certificate failed")
    c, sigma = integer_scaled(lp.objective)
    if sum(map(mul, c, x)) * obj.denominator != obj.numerator * dx * sigma:
        raise LPError("primal objective does not match x")
