import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_lp_max
from nucnz.lp import LPInstance, solve_lp_exact


def test_single_upper_bound_with_dual():
    lp = LPInstance.maximize([1], [((1,), "<=", 0)])
    sol = solve_lp_exact(lp)
    assert sol.status == "optimal"
    assert sol.x == (0,)
    assert sol.duals == (1,)
    assert sol.objective == 0


def test_two_player_split():
    lp = LPInstance.maximize(
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
    lp = LPInstance.maximize([1], [((1,), "<=", 0), ((1,), ">=", 1)])
    assert solve_lp_exact(lp).status == "infeasible"


def test_unbounded():
    lp = LPInstance.maximize([1], [((1,), ">=", 0)])
    assert solve_lp_exact(lp).status == "unbounded"


def test_nonnegative_variables():
    # max x + y, x + 2y <= 4, 3x + y <= 6, x,y >= 0
    lp = LPInstance.maximize(
        [1, 1],
        [((1, 2), "<=", 4), ((3, 1), "<=", 6)],
        free=[False, False],
    )
    sol = solve_lp_exact(lp)
    assert sol.status == "optimal"
    assert sol.x == (F(8, 5), F(6, 5))
    assert sol.objective == F(14, 5)


def test_degenerate_and_redundant_rows():
    lp = LPInstance.maximize(
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
    lp = LPInstance.maximize(
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
    return LPInstance.maximize(obj, rows, free=free)


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
        lp = LPInstance.maximize(obj, rows)
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
    sol = solve_lp_exact(LPInstance.maximize([0, 1], rows))
    assert sol.status == "optimal"
    assert sol.x == (0, 3) and sol.duals == (1,) and sol.objective == 3
    assert solve_lp_exact(LPInstance.maximize([1, 1], rows)).status == "unbounded"
    assert solve_lp_exact(LPInstance.maximize([-2, 0], rows)).status == "unbounded"
    contradictory = rows + [((0, 1), ">=", 4)]
    assert solve_lp_exact(LPInstance.maximize([1, 1], contradictory)).status == "infeasible"


def test_square_equality_system():
    # Every row is an equality holding a free variable: no phase 1.
    lp = LPInstance.maximize([1, 2], [((1, 1), "==", -3), ((1, -1), "==", 1)])
    sol = solve_lp_exact(lp)
    assert sol.status == "optimal"
    assert sol.x == (-1, -2)
    assert sol.duals == (F(3, 2), F(-1, 2))
    assert sol.objective == -5


def test_redundant_equality_keeps_artificial_at_zero():
    # After x and y enter, the doubled row has no entry left in any column
    # the simplex may use, so its artificial stays basic at zero.
    lp = LPInstance.maximize(
        [1, 0], [((1, 1), "==", 2), ((2, 2), "==", 4), ((1, -1), "<=", 0)]
    )
    sol = solve_lp_exact(lp)
    assert sol.status == "optimal"
    assert sol.x == (1, 1) and sol.objective == 1
    nonnegative = LPInstance.maximize(
        [1, 1], [((1, 1), "==", 2), ((1, 1), "==", 2)], free=[False, False]
    )
    assert solve_lp_exact(nonnegative).objective == 2


def test_drive_out_pivot_on_negative_entry():
    # The artificial of -x == 0 is basic at zero and leaves on the -1.
    lp = LPInstance.maximize(
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


@settings(max_examples=150)
@given(data=st.data())
def test_boxed_lps_match_vertex_enumeration(data):
    # Up to 4 variables and 6 drawn rows, plus the box -3 <= x_j <= 3 (the
    # lower side only for free variables), so the feasible set is bounded.
    n = data.draw(st.integers(1, 4))
    free = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    objective = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
    rows = data.draw(mixed_rows(n))
    for j in range(n):
        unit = tuple(int(i == j) for i in range(n))
        rows.append((unit, "<=", 3))
        if free[j]:
            rows.append((unit, ">=", -3))
    sol = solve_lp_exact(LPInstance.maximize(objective, rows, free))
    best = brute_lp_max(objective, rows, free)
    if best is None:
        assert sol.status == "infeasible"
    else:
        assert sol.status == "optimal"
        assert sol.objective == best


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
    assert solve_lp_exact(LPInstance.maximize(c, rows, free)).status == "unbounded"
