import copy
import random
from dataclasses import replace
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_lp_max, maximize
from nucnz import lp as lp_module
from nucnz.lp import LPError, LPSolution, _bareiss, _verify_certificate, solve_lp_exact


@pytest.mark.parametrize(
    "rows, free, message",
    [
        ([((1,), "<", 0)], None, "bad row sense '<'"),
        ([((1, 1), "<=", 0)], None, "row width does not match objective"),
        ([((1,), "<=", 0)], [True, False], "free-flag length does not match objective"),
    ],
)
def test_maximize_rejects_malformed_rows(rows, free, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        maximize([1], rows, free)


def test_single_upper_bound_with_dual():
    lp = maximize([1], [((1,), "<=", 0)])
    sol = solve_lp_exact(lp)
    assert sol.status == "optimal"
    assert sol.x == (0,)
    assert sol.duals == (1,)
    assert sol.objective == 0


def test_two_player_split():
    lp = maximize(
        [0, 0, 1],
        [
            ((1, 1, 0), "==", 1),
            ((1, 0, -1), ">=", 0),
            ((0, 1, -1), ">=", 0),
        ],
    )
    sol = solve_lp_exact(lp)
    assert sol.status == "optimal"
    assert sol.x == (F(1, 2), F(1, 2), F(1, 2))
    assert sol.objective == F(1, 2)


def test_infeasible():
    lp = maximize([1], [((1,), "<=", 0), ((1,), ">=", 1)])
    assert solve_lp_exact(lp).status == "infeasible"


def test_unbounded():
    lp = maximize([1], [((1,), ">=", 0)])
    assert solve_lp_exact(lp).status == "unbounded"


def test_nonnegative_variables():
    # max x + y, x + 2y <= 4, 3x + y <= 6, x,y >= 0
    lp = maximize(
        [1, 1],
        [((1, 2), "<=", 4), ((3, 1), "<=", 6)],
        free=[False, False],
    )
    sol = solve_lp_exact(lp)
    assert sol.status == "optimal"
    assert sol.x == (F(8, 5), F(6, 5))
    assert sol.objective == F(14, 5)


def test_degenerate_and_redundant_rows():
    lp = maximize(
        [1, 0],
        [
            ((1, 1), "==", 1),
            ((2, 2), "==", 2),  # redundant copy
            ((1, 0), "<=", 1),
        ],
    )
    sol = solve_lp_exact(lp)
    assert sol.status == "optimal"
    assert sol.x[0] == 1
    assert sol.objective == 1


def test_fractional_data():
    lp = maximize(
        [F(1, 3), F(1, 7)],
        [((F(2, 5), F(1, 2)), "<=", F(3, 4))],
        free=[False, False],
    )
    sol = solve_lp_exact(lp)
    assert sol.status == "optimal"
    # Only x used: ratio (1/3)/(2/5) beats (1/7)/(1/2)
    assert sol.x == (F(15, 8), F(0))
    assert sol.objective == F(5, 8)


def random_lp(rng):
    n = rng.randint(1, 5)
    m = rng.randint(1, 6)
    free = [rng.random() < 0.5 for _ in range(n)]
    obj = [F(rng.randint(-4, 4)) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n))
        sense = rng.choice(["<=", ">=", "=="])
        rhs = F(rng.randint(-6, 6))
        rows.append((coeffs, sense, rhs))
    return maximize(obj, rows, free=free)


def test_random_lps_certified():
    # The solver self-verifies primal feasibility, dual signs, stationarity
    # and strong duality on every optimal solve, so surviving this loop is
    # the certificate.
    rng = random.Random(99)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        sol = solve_lp_exact(random_lp(rng))
        statuses[sol.status] += 1
    assert statuses["optimal"] > 50
    assert statuses["infeasible"] > 10


def test_matches_bounded_box_enumeration():
    # With all variables boxed via explicit rows, optima land on vertices;
    # cross-check the objective against a scan over a fine rational grid of
    # basic solutions obtained from pairs of tight rows (n = 2 case).
    rng = random.Random(7)
    for _ in range(40):
        obj = [F(rng.randint(-3, 3)), F(rng.randint(-3, 3))]
        rows = [
            ((F(1), F(0)), "<=", F(rng.randint(0, 4))),
            ((F(0), F(1)), "<=", F(rng.randint(0, 4))),
            ((F(1), F(0)), ">=", F(-rng.randint(0, 4))),
            ((F(0), F(1)), ">=", F(-rng.randint(0, 4))),
            ((F(rng.randint(-2, 2)), F(rng.randint(-2, 2))), "<=", F(rng.randint(0, 5))),
        ]
        lp = maximize(obj, rows)
        sol = solve_lp_exact(lp)
        assert sol.status == "optimal"
        # Brute force: evaluate objective at all intersections of row pairs.
        best = None
        import itertools

        def feasible(pt):
            for (a, b), sense, rhs in rows:
                v = a * pt[0] + b * pt[1]
                if sense == "<=" and v > rhs:
                    return False
                if sense == ">=" and v < rhs:
                    return False
                if sense == "==" and v != rhs:
                    return False
            return True

        for (r1, r2) in itertools.combinations(rows, 2):
            (a1, b1), _, c1 = r1
            (a2, b2), _, c2 = r2
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if feasible((x, y)):
                val = obj[0] * x + obj[1] * y
                best = val if best is None else max(best, val)
        assert best is not None
        assert sol.objective == best


def test_free_variable_absent_from_every_row():
    rows = [((0, 1), "<=", 3)]
    sol = solve_lp_exact(maximize([0, 1], rows))
    assert sol.status == "optimal"
    assert sol.x == (0, 3) and sol.duals == (1,) and sol.objective == 3
    assert solve_lp_exact(maximize([1, 1], rows)).status == "unbounded"
    assert solve_lp_exact(maximize([-2, 0], rows)).status == "unbounded"
    contradictory = rows + [((0, 1), ">=", 4)]
    assert solve_lp_exact(maximize([1, 1], contradictory)).status == "infeasible"


def test_square_equality_system():
    # Every row is an equality holding a free variable: no phase 1.
    lp = maximize([1, 2], [((1, 1), "==", -3), ((1, -1), "==", 1)])
    sol = solve_lp_exact(lp)
    assert sol.status == "optimal"
    assert sol.x == (-1, -2)
    assert sol.duals == (F(3, 2), F(-1, 2))
    assert sol.objective == -5


def test_redundant_equality_keeps_artificial_at_zero():
    # After x and y enter, the doubled row has no entry left in any column
    # the simplex may use, so its artificial stays basic at zero.
    lp = maximize(
        [1, 0], [((1, 1), "==", 2), ((2, 2), "==", 4), ((1, -1), "<=", 0)]
    )
    sol = solve_lp_exact(lp)
    assert sol.status == "optimal"
    assert sol.x == (1, 1) and sol.objective == 1
    nonnegative = maximize(
        [1, 1], [((1, 1), "==", 2), ((1, 1), "==", 2)], free=[False, False]
    )
    assert solve_lp_exact(nonnegative).objective == 2


def test_helper_loose_only_beside_dependent_equalities_goes():
    # Phase 1 ends with the helper loose at zero, its entries at the two
    # equalities only, which are one row twice once h = 0.  The lower one
    # gives the helper's bound its place, so the basis is square in x and
    # a start that resumes it never goes cold.
    lp = maximize(
        [-1, 2],
        [((F(-3, 2), 1), "==", 0), ((F(3, 2), -1), "==", 0), ((1, 0), "<=", 3),
         ((0, 1), "<=", 3), ((0, 1), ">=", -3)],
        free=[False, True],
    )
    sol = solve_lp_exact(lp)
    assert sol.x == (2, 3) and sol.objective == 4
    assert len(sol.basis.tight) == 2 and lp_module._HELPER not in sol.basis.cons
    again = replace(lp, rows=tuple((a, sense, b) for a, sense, b in lp.rows))
    with _starts_without_a_helper(), mock.patch.object(
        lp_module, "_cold_basis", side_effect=AssertionError("the resume went cold")
    ):
        resumed = solve_lp_exact(again, sol)
    assert (resumed.x, resumed.objective) == (sol.x, sol.objective)


def test_drive_out_pivot_on_negative_entry():
    # The artificial of -x == 0 is basic at zero and leaves on the -1.
    lp = maximize(
        [1, 1], [((-1, 0), "==", 0), ((0, 1), "<=", 2)], free=[False, False]
    )
    sol = solve_lp_exact(lp)
    assert sol.status == "optimal"
    assert sol.x == (0, 2) and sol.objective == 2
    assert sol.duals[1] == 1


RATIONALS = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
SENSES = st.sampled_from(["<=", ">=", "=="])


@st.composite
def mixed_rows(draw, n):
    """Up to 6 rows of mixed senses; rhs 0 is common, and an equality may
    be repeated (scaled) to make the system degenerate."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        eqs = [r for r in rows if r[1] == "=="]
        if eqs and draw(st.booleans()):
            coeffs, _, rhs = draw(st.sampled_from(eqs))
            k = draw(st.sampled_from([1, 2, -1]))
            rows.append((tuple(k * v for v in coeffs), "==", k * rhs))
            continue
        coeffs = tuple(draw(RATIONALS) for _ in range(n))
        rhs = draw(st.one_of(st.just(F(0)), st.integers(-4, 4).map(F)))
        rows.append((coeffs, draw(SENSES), rhs))
    return rows


def _boxed_draw(data):
    """Up to 4 variables and 6 drawn rows, plus the box -3 <= x_j <= 3 (the
    lower side only for free variables), so the feasible set is bounded:
    (objective, rows, free)."""
    n = data.draw(st.integers(1, 4))
    free = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    objective = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
    rows = data.draw(mixed_rows(n))
    for j in range(n):
        unit = tuple(int(i == j) for i in range(n))
        rows.append((unit, "<=", 3))
        if free[j]:
            rows.append((unit, ">=", -3))
    return objective, rows, free


@settings(max_examples=150)
@given(data=st.data())
def test_boxed_lps_match_vertex_enumeration(data):
    objective, rows, free = _boxed_draw(data)
    sol = solve_lp_exact(maximize(objective, rows, free))
    best = brute_lp_max(objective, rows, free)
    if best is None:
        assert sol.status == "infeasible"
    else:
        assert sol.status == "optimal"
        assert sol.objective == best


def _starts_without_a_helper():
    """Patch the resume so that it asserts its start's basis is square in
    the LP's variables: no phase-1 helper stayed loose in it."""
    resumed_basis = lp_module._resumed_basis

    def spy(lp, old, scaled):
        assert len(old.tight) == lp.n_vars and lp_module._HELPER not in old.cons
        return resumed_basis(lp, old, scaled)

    return mock.patch.object(lp_module, "_resumed_basis", spy)


@settings(max_examples=150)
@given(data=st.data())
def test_warm_solves_match_cold_solves(data):
    # The boxed draw above with 2-4 objectives over one rows tuple: a chain
    # of warm solves, each started from the one before, against cold solves.
    n = data.draw(st.integers(1, 4))
    free = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    objectives = data.draw(
        st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=2, max_size=4)
    )
    rows = data.draw(mixed_rows(n))
    for j in range(n):
        unit = tuple(int(i == j) for i in range(n))
        rows.append((unit, "<=", 3))
        if free[j]:
            rows.append((unit, ">=", -3))
    first = maximize(objectives[0], rows, free)
    lps = [replace(first, objective=tuple(map(F, c))) for c in objectives]
    cold = [solve_lp_exact(lp) for lp in lps]
    if cold[0].status == "infeasible":
        assert {sol.status for sol in cold} == {"infeasible"}
        with pytest.raises(ValueError):
            solve_lp_exact(first, cold[0])
        return
    start = None
    for lp, want in zip(lps, cold):
        start = solve_lp_exact(lp, start)
        assert start.status == want.status == "optimal"
        assert start.objective == want.objective
        _verify_certificate(lp, start)
    # One start serves any number of solves, in any order.
    a, b = lps[:2]
    forward = [solve_lp_exact(lp, start) for lp in (a, b)]
    backward = [solve_lp_exact(lp, start) for lp in (b, a)]
    assert forward == backward[::-1]
    assert [sol.objective for sol in forward] == [sol.objective for sol in cold[:2]]
    # The same rows as other objects are new to the start, and it resumes.
    with _starts_without_a_helper():
        resumed = solve_lp_exact(maximize(objectives[0], rows, free), start)
    assert resumed.objective == cold[0].objective
    with pytest.raises(ValueError):
        solve_lp_exact(replace(first, free=tuple(not f for f in free)), start)


def _check_appended_rows(data):
    # The boxed draw, then 1-4 inequalities appended one at a time; each
    # warm re-solve, started from the solve before, must match a cold solve
    # of the same rows.
    lp = maximize(*_boxed_draw(data))
    sol = solve_lp_exact(lp)
    if sol.status != "optimal":
        return
    n = lp.n_vars
    for _ in range(data.draw(st.integers(1, 4))):
        coeffs = tuple(data.draw(RATIONALS) for _ in range(n))
        rhs = data.draw(st.integers(-4, 4).map(F))
        row = (coeffs, data.draw(st.sampled_from(["<=", ">="])), rhs)
        lp = replace(lp, rows=lp.rows + (row,))
        warm = solve_lp_exact(lp, sol)
        cold = solve_lp_exact(lp)
        assert warm.status == cold.status
        if warm.status != "optimal":
            assert warm.status == "infeasible"
            return
        assert warm.objective == cold.objective
        _verify_certificate(lp, warm)
        sol = warm


@settings(max_examples=150)
@given(data=st.data())
def test_appended_rows_match_cold_solves(data):
    _check_appended_rows(data)


@settings(max_examples=100)
@given(data=st.data())
def test_appended_rows_match_cold_solves_under_dual_bland(data):
    # With the threshold at 0, every dual simplex iteration takes the dual
    # Bland rule.
    with mock.patch.object(lp_module, "DUAL_BLAND_AFTER", 0):
        _check_appended_rows(data)


@st.composite
def free_box_lp(draw):
    """An all-free LP of 1-4 variables: a box -K_j <= x_j <= K'_j, so every
    draw is bounded, then up to 4 rows of mixed senses.  The coefficients
    are spread wide enough that most optima are unique."""
    n = draw(st.integers(1, 4))
    rows = []
    for j in range(n):
        unit = tuple(int(i == j) for i in range(n))
        rows.append((unit, "<=", draw(st.integers(1, 30))))
        rows.append((unit, ">=", -draw(st.integers(1, 30))))
    for _ in range(draw(st.integers(0, 4))):
        coeffs = tuple(draw(st.integers(-9, 9)) for _ in range(n))
        rows.append((coeffs, draw(SENSES), draw(st.integers(-40, 40))))
    objective = [draw(st.integers(-9, 9)) for _ in range(n)]
    return maximize(objective, rows)


def _unique_optimum(lp, sol):
    """Exactly n rows are tight and every tight inequality has a nonzero
    dual: then x and the duals are the only optimal pair, and any solve
    that ends optimal must return both."""
    tight = [
        i for i, (coeffs, _, rhs) in enumerate(lp.rows)
        if sum(c * v for c, v in zip(coeffs, sol.x)) == rhs
    ]
    return len(tight) == lp.n_vars and all(
        sol.duals[i] != 0 for i in tight if lp.rows[i][1] != "=="
    )


def _check_warm_against_cold(lp, warm):
    cold = solve_lp_exact(lp)
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.objective == cold.objective
        if _unique_optimum(lp, cold):
            assert (warm.x, warm.duals) == (cold.x, cold.duals)
    return cold


@settings(max_examples=150)
@given(lp=free_box_lp(), data=st.data())
def test_square_basis_warm_solves_match_cold_solves(lp, data):
    # All-free LPs, as every nucleolus LP is: appended ">=" rows under the
    # same objective (the dual simplex), then other objectives over the same
    # rows (phase 2 only), each warm solve started from the one before.
    sol = solve_lp_exact(lp)
    if sol.status != "optimal":
        return
    n = lp.n_vars
    for _ in range(data.draw(st.integers(1, 3))):
        coeffs = tuple(data.draw(st.integers(-9, 9)) for _ in range(n))
        lp = replace(lp, rows=lp.rows + ((coeffs, ">=", data.draw(st.integers(-40, 40))),))
        sol = solve_lp_exact(lp, sol)
        _check_warm_against_cold(lp, sol)
        if sol.status != "optimal":
            return
    for _ in range(data.draw(st.integers(1, 3))):
        objective = tuple(F(data.draw(st.integers(-9, 9))) for _ in range(n))
        lp = replace(lp, objective=objective)
        sol = solve_lp_exact(lp, sol)
        assert _check_warm_against_cold(lp, sol).status == "optimal"


def _session_start():
    """max x0 + x1 over a box, and the same rows with a cut appended."""
    box = maximize(
        [1, 1],
        [((1, 0), "<=", 3), ((0, 1), "<=", 3), ((1, 0), ">=", -3), ((0, 1), ">=", -3)],
    )
    start = solve_lp_exact(box)
    assert start.status == "optimal" and start.objective == 6
    return box, start, replace(box, rows=box.rows + (((1, 2), "<=", 4),))


def test_appended_cut_reoptimises_by_dual_simplex():
    _, start, cut = _session_start()
    warm = solve_lp_exact(cut, start)
    assert warm.status == "optimal"
    assert warm.x == (3, F(1, 2)) and warm.objective == F(7, 2)
    assert warm == solve_lp_exact(cut)
    infeasible = replace(cut, rows=cut.rows + (((1, 1), ">=", 7),))
    assert solve_lp_exact(infeasible, warm).status == "infeasible"


def test_warm_resolve_leaves_the_start_unchanged():
    _, start, cut = _session_start()
    held = copy.deepcopy(start.basis)
    solve_lp_exact(cut, start)
    basis = start.basis
    assert (basis.cols, basis.den, basis.tight, basis.rest, basis.slack) == (
        held.cols, held.den, held.tight, held.rest, held.slack
    )
    assert (basis.rows, basis.cons, basis.allowed, basis.orient) == (
        held.rows, held.cons, held.allowed, held.orient
    )
    # The same start still serves another cut.
    other = replace(cut, rows=start.basis.rows + (((2, 1), "<=", 4),))
    assert solve_lp_exact(other, start).objective == solve_lp_exact(other).objective


def test_appended_row_takes_a_free_column_that_found_no_row():
    # x0 is in no row of the start, and it enters the appended row as a
    # cold solve would pivot it in.
    lp = maximize([0, 1], [((0, 1), "<=", 3)])
    start = solve_lp_exact(lp)
    cut = replace(lp, rows=lp.rows + (((1, 1), "<=", 2),))
    warm = solve_lp_exact(cut, start)
    assert warm.status == "optimal" and warm.objective == 3
    assert warm == solve_lp_exact(cut)


def _player_rows(n, masks, values):
    """The rows y(S) - xi >= v(S) of the coalitions ``masks``."""
    return [
        ((*(mask >> p & 1 for p in range(n)), -1), ">=", v) for mask, v in zip(masks, values)
    ]


@st.composite
def level_lp(draw):
    """A level LP of the nucleolus scheme over y_0..y_{n-1} and xi, all free,
    maximizing xi: the grand coalition's equality, perhaps another
    equality y(S) = v, and a row y(S) - xi >= v(S) for every singleton and
    up to four other coalitions, which keeps xi bounded."""
    n = draw(st.integers(2, 4))
    full = (1 << n) - 1
    values = st.integers(-4, 6)
    rows = [((1,) * n + (0,), "==", draw(values))]
    if draw(st.booleans()):
        mask = draw(st.integers(1, full - 1))
        rows.append(((*(mask >> p & 1 for p in range(n)), 0), "==", draw(values)))
    masks = [1 << p for p in range(n)]
    masks += draw(st.lists(st.integers(1, full - 1), max_size=4, unique=True).filter(
        lambda extra: not set(extra) & set(masks)))
    rows += _player_rows(n, masks, [draw(values) for _ in masks])
    return maximize([0] * n + [1], rows)


@settings(max_examples=150)
@given(lp=level_lp(), data=st.data())
def test_resumed_level_matches_a_cold_solve(lp, data):
    # The next level: every cut with a nonzero dual becomes the equality
    # y(S) = v(S) + xi*, tight at the start's point, and some of the other
    # cuts but the singletons, which keep xi bounded, are dropped, tight or
    # loose.  The resumed solve must match a cold one, leave its start
    # unchanged and serve a later appended cut.
    start = solve_lp_exact(lp)
    assert start.status == "optimal"
    n, xi = lp.n_vars - 1, start.x[-1]
    held = copy.deepcopy(start.basis)
    fixed, kept = [], []
    for row, d in zip(lp.rows, start.duals):
        coeffs, sense, rhs = row
        if sense == ">=" and d:
            # Either sign: a loose equality is relaxed to one side only.
            sign = data.draw(st.sampled_from([1, -1]))
            fixed.append(((*(sign * c for c in coeffs[:n]), 0), "==", sign * (rhs + xi)))
        elif sense == "==" or sum(coeffs[:n]) == 1 or not data.draw(st.booleans()):
            kept.append(row)
    nxt = replace(lp, rows=(*fixed, *kept))
    with _starts_without_a_helper():
        resumed = solve_lp_exact(nxt, start)
    _check_warm_against_cold(nxt, resumed)
    assert (start.basis.cols, start.basis.tight, start.basis.rest, start.basis.slack) == (
        held.cols, held.tight, held.rest, held.slack
    )
    if resumed.status == "optimal":
        mask, v = data.draw(st.integers(1, (1 << n) - 2)), data.draw(st.integers(-4, 6))
        cut = replace(nxt, rows=nxt.rows + tuple(_player_rows(n, [mask], [v])))
        _check_warm_against_cold(cut, solve_lp_exact(cut, resumed))


def test_resume_refills_a_singular_place_and_a_dropped_tight_row():
    # Over (y0, y1, y2, xi), the optimum xi* = -1 at y = (0, 3, 4) has
    # nonzero duals on the cuts of {2} and {0, 1}, which the next level
    # fixes, and the cut of {1} is tight with a zero dual, and dropped.
    # Once y2 = 4 holds {2}'s place, y0 + y1 = 3 is the grand coalition's
    # row less y2's: {0, 1}'s place is singular, and a ratio step refills
    # it, as it refills the dropped row's.
    level = maximize(
        [0, 0, 0, 1],
        [((1, 1, 1, 0), "==", 7)] + _player_rows(3, [1, 2, 4, 6, 3], [0, 4, 5, 5, 4]),
    )
    start = solve_lp_exact(level)
    assert start.x == (0, 3, 4, -1)
    assert [bool(d) for d in start.duals] == [True, False, False, True, False, True]
    grand, cut0, _, _, cut12, _ = level.rows
    place = {key: k for k, key in enumerate(start.basis.tight)}
    assert 4 + 2 in place  # the cut of {1} is in M
    nxt = replace(level, rows=(
        ((0, 0, 1, 0), "==", 4), ((1, 1, 0, 0), "==", 3), grand, cut0, cut12,
    ))
    refilled, ratio = [], lp_module._Basis.ratio

    def spy(basis, k):
        refilled.append(basis.tight[k])
        return ratio(basis, k)

    with mock.patch.object(lp_module._Basis, "ratio", spy):
        resumed = solve_lp_exact(nxt, start)
    # A place whose constraint the LP lacks holds the key -1 - place.
    assert {-1 - place[4 + 2], -1 - place[4 + 5]} <= set(refilled)
    # The three equalities are dependent, so only x is unique.
    assert resumed.x == solve_lp_exact(nxt).x == (1, 2, 4, 1)


def test_start_that_does_not_fit_raises():
    box, start, cut = _session_start()
    (first, *others) = cut.rows
    # Rows in another order are resumed, and the cut, new to the start,
    # does not hold at its point.
    with pytest.raises(ValueError, match="must hold at its point"):
        solve_lp_exact(replace(cut, rows=tuple(others) + (first,)), start)
    with pytest.raises(ValueError, match="must hold at its point, an equality tightly"):
        solve_lp_exact(replace(box, rows=box.rows[1:] + (((1, 1), "==", 5),)), start)
    with pytest.raises(ValueError, match="other free flags"):
        solve_lp_exact(replace(box, free=(True, False)), start)
    with pytest.raises(ValueError, match="must be an inequality"):
        solve_lp_exact(replace(box, rows=box.rows + (((1, 2), "==", 4),)), start)
    with pytest.raises(ValueError, match="the start's objective"):
        solve_lp_exact(replace(cut, objective=(F(1), F(2))), start)
    with pytest.raises(ValueError, match="no basis"):
        solve_lp_exact(cut, LPSolution(status="infeasible"))


@given(data=st.data())
def test_planted_improving_ray_is_unbounded(data):
    # Rows are oriented so that x0 + t d stays feasible for every t >= 0,
    # and the objective rises along d.
    n = data.draw(st.integers(1, 4))
    free = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ints = st.integers(-3, 3)
    x0 = [data.draw(ints if free[j] else st.integers(0, 3)) for j in range(n)]
    d = [data.draw(ints if free[j] else st.integers(0, 3)) for j in range(n)]
    if not any(d):
        d[0] = 1
    dd = sum(v * v for v in d)
    rows = []
    for _ in range(data.draw(st.integers(0, 6))):
        a = [data.draw(ints) for _ in range(n)]
        if data.draw(st.booleans()):
            ad = sum(x * y for x, y in zip(a, d))
            a = [x * dd - ad * y for x, y in zip(a, d)]
        ad = sum(x * y for x, y in zip(a, d))
        ax = sum(x * y for x, y in zip(a, x0))
        slack = data.draw(st.integers(0, 2))
        sense = ">=" if ad > 0 else "<=" if ad < 0 else data.draw(SENSES)
        rhs = ax if sense == "==" else ax - slack if sense == ">=" else ax + slack
        rows.append((a, sense, rhs))
    c = [data.draw(ints) for _ in range(n)]
    cd = sum(x * y for x, y in zip(c, d))
    if cd <= 0:
        c = [x + (1 - cd) * y for x, y in zip(c, d)]
    assert solve_lp_exact(maximize(c, rows, free)).status == "unbounded"


# max a + p - q + b - c - u - w over x = (a, p, q, b, c, u, w, z), with
# u, w >= 0.  Each certificate condition has a row or variable of its own,
# so one tampering breaks exactly one condition.  Rows 4 and 6 repeat rows 3
# and 5 as equalities, so the duals of each pair can change sign without
# breaking stationarity; rows 8 and 9 have rhs 0, so their duals do not
# enter the dual objective.
CERT_LP = maximize(
    [1, 1, -1, 1, -1, -1, -1, 0],
    [
        ((F(1, 2), 0, 0, 0, 0, 0, 0, 0), "==", F(1, 2)),
        ((0, 1, 0, 0, 0, 0, 0, 0), "<=", F(1, 3)),
        ((0, 0, F(2, 3), 0, 0, 0, 0, 0), ">=", F(2, 3)),
        ((0, 0, 0, 1, 0, 0, 0, 0), "<=", 1),
        ((0, 0, 0, 1, 0, 0, 0, 0), "==", 1),
        ((0, 0, 0, 0, 1, 0, 0, 0), ">=", 1),
        ((0, 0, 0, 0, 1, 0, 0, 0), "==", 1),
        ((0, 0, 0, 0, 0, 1, 0, 0), "<=", 0),
        ((0, 0, 0, 0, 0, 0, F(3, 4), 0), "==", 0),
        ((0, 0, 0, 0, 0, 0, 0, 1), "==", 0),
    ],
    free=[True] * 5 + [False, False, True],
)
CERT_X = (1, F(1, 3), 1, 1, 1, 0, 0, 0)
CERT_DUALS = (2, 1, F(-3, 2), 1, 0, -1, 0, 0, 0, 0)

# message: ({x index: value}, {dual index: value}, objective shift)
CERT_TAMPERS = {
    "primal equality violated": ({0: 2}, {}, 0),
    "primal <= row violated": ({1: F(1, 2)}, {}, 0),
    "primal >= row violated": ({2: F(1, 2)}, {}, 0),
    "dual sign on <= row": ({}, {3: -1, 4: 2}, 0),
    "dual sign on >= row": ({}, {5: 1, 6: -2}, 0),
    "dual stationarity violated on free variable": ({}, {9: 1}, 0),
    "nonnegative variable went negative": ({5: -1}, {}, 0),
    "dual feasibility violated on bounded variable": ({}, {8: -2}, 0),
    "strong duality certificate failed": ({}, {}, F(1, 7)),
    # p = 0 is feasible but not optimal; the duals still certify 1/3.
    "primal objective does not match x": ({1: 0}, {}, 0),
}


def _certified_solution():
    sol = solve_lp_exact(CERT_LP)
    assert sol.status == "optimal" and sol.x == CERT_X and sol.objective == F(1, 3)
    sol = replace(sol, duals=tuple(F(d) for d in CERT_DUALS))
    _verify_certificate(CERT_LP, sol)
    return sol


@pytest.mark.parametrize("message", list(CERT_TAMPERS))
def test_certificate_rejects_each_tampered_condition(message):
    sol = _certified_solution()
    x_edits, dual_edits, shift = CERT_TAMPERS[message]
    x, duals = list(sol.x), list(sol.duals)
    for i, v in x_edits.items():
        x[i] = F(v)
    for i, v in dual_edits.items():
        duals[i] = F(v)
    bad = replace(sol, x=tuple(x), duals=tuple(duals), objective=sol.objective + shift)
    with pytest.raises(LPError, match=f"^{message}$"):
        _verify_certificate(CERT_LP, bad)


def test_certificate_scales_each_rows_object_it_is_given():
    # The check keeps the integer scaling of the last rows tuple it saw; an
    # instance with other rows, checked next, must be scaled afresh.
    sol = _certified_solution()
    (coeffs, sense, rhs), *rest = CERT_LP.rows
    other = replace(CERT_LP, rows=((coeffs, sense, rhs + 1), *rest))
    with pytest.raises(LPError, match="^primal equality violated$"):
        _verify_certificate(other, sol)
    _verify_certificate(CERT_LP, sol)


@pytest.mark.parametrize(
    "x, duals",
    [(CERT_X + (0,), CERT_DUALS), (CERT_X, CERT_DUALS + (5,))],
    ids=["extra-x", "extra-dual"],
)
def test_certificate_rejects_a_solution_of_another_shape(x, duals):
    # zip would drop the extra entry and the rest of the check would pass.
    sol = replace(
        _certified_solution(), x=tuple(map(F, x)), duals=tuple(map(F, duals))
    )
    with pytest.raises(LPError, match="^solution shape does not match the instance$"):
        _verify_certificate(CERT_LP, sol)


@pytest.mark.parametrize(
    "cols, w",
    [
        # a column combined with the pivot column: 1*2 - 1*1 = 1 is not a
        # multiple of 2
        ([[1], [2]], [1, 1]),
        # an entry where the pivot column is zero: 1*1 - 1*0 is not either
        ([[0, 1], [1, 0]], [1, 1]),
        # a column with w_j = 0, scaled by |w_k| = 3: 3*1 is not either
        ([[1], [1]], [3, 0]),
        # |w_k| = den, so only the entry beside the pivot's nonzero moves:
        # 1*1 is not a multiple of 2
        ([[1, 0], [0, 0]], [2, 1]),
    ],
    ids=["combined", "scaled-off-support", "scaled-row", "unscaled"],
)
def test_pivot_with_a_wrong_denominator_raises(cols, w):
    with pytest.raises(LPError, match="integer pivot lost exactness"):
        _bareiss(cols, 2, 0, w)
