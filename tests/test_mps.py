import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import nucnz.mps
from nucnz.fixtures import random_graph, random_monotone_game
from nucnz.games import (
    CapExceededError,
    GameOracle,
    TableGame,
    brute_lsa_min_excess,
    coalition_vector,
    excess,
    make_allocation,
)
from nucnz.linalg import LinearSubspace
from nucnz.lp import LPSolution, solve_lp_exact
from nucnz.matroids import ArboricityGame, arboricity_lsa_solver
from nucnz.mps import MpsError, least_core, mps_nucleolus, reference_nucleolus


def unanimity3():
    return TableGame([0, 0, 0, 0, 0, 0, 0, 1])


def brute_lsa_solver(g, y, span):
    return brute_lsa_min_excess(g, y, span)


def test_unanimity_symmetric_split():
    res = mps_nucleolus(unanimity3())
    assert res.allocation == (F(1, 3), F(1, 3), F(1, 3))


def test_pair_game():
    g = TableGame([0, 0, 0, 1, 0, 0, 0, 1])
    assert mps_nucleolus(g).allocation == (F(1, 2), F(1, 2), F(0))


def test_single_player():
    g = TableGame([0, 5])
    assert mps_nucleolus(g).allocation == (F(5),)
    assert reference_nucleolus(g).allocation == (F(5),)


def test_reference_matches_known():
    assert reference_nucleolus(unanimity3()).allocation == (F(1, 3),) * 3


def test_oracle_mode_matches_enumerate():
    rng = random.Random(31)
    for seed in range(12):
        n = rng.randint(3, 5)
        g = random_monotone_game(n, 400 + seed)
        r1 = mps_nucleolus(g, mode="enumerate")
        r2 = mps_nucleolus(g, mode="oracle", sep=brute_lsa_solver)
        assert r1.allocation == r2.allocation


def test_modes_match_reference_on_random_games():
    for seed in range(15):
        n = 3 + seed % 3
        g = random_monotone_game(n, 700 + seed)
        r1 = mps_nucleolus(g, mode="enumerate")
        r2 = reference_nucleolus(g)
        assert r1.allocation == r2.allocation


def test_trace_xi_nondecreasing_and_fixed_allocation_consistency():
    for seed in range(10):
        g = random_monotone_game(4, 900 + seed)
        res = mps_nucleolus(g)
        xis = [rec.xi for rec in res.trace]
        assert all(a <= b for a, b in zip(xis, xis[1:]))
        # every fixed coalition's excess at the final allocation equals its level
        for rec in res.trace:
            for mask in rec.fixed:
                assert excess(g, res.allocation, mask) == rec.xi


def test_efficiency_exact():
    for seed in range(10):
        g = random_monotone_game(5, 50 + seed)
        res = mps_nucleolus(g)
        assert sum(res.allocation) == g.grand_value()


def test_symmetric_players_equal_payoff():
    rng = random.Random(8)
    for trial in range(8):
        n = rng.randint(3, 5)
        g0 = random_monotone_game(n, 60 + trial)
        # symmetrize players 0 and 1
        table = list(g0.table())
        for m in range(1 << n):
            b0, b1 = (m >> 0) & 1, (m >> 1) & 1
            if b0 != b1:
                sw = (m & ~0b11) | (b0 << 1) | b1
                hi = max(table[m], table[sw])
                table[m] = table[sw] = hi
        g = TableGame(table)
        res = mps_nucleolus(g)
        assert res.allocation[0] == res.allocation[1]
        assert res.allocation == reference_nucleolus(g).allocation


def test_dummy_player_gets_own_value():
    rng = random.Random(77)
    for trial in range(8):
        n = rng.randint(2, 4)
        g0 = random_monotone_game(n, 80 + trial)
        dummy_val = F(rng.randint(0, 5))
        table = []
        for m in range(1 << (n + 1)):
            base = g0.table()[m & ((1 << n) - 1)]
            table.append(base + (dummy_val if (m >> n) & 1 else 0))
        g = TableGame(table)
        res = mps_nucleolus(g)
        assert res.allocation[n] == dummy_val
        assert res.allocation == reference_nucleolus(g).allocation


def test_reference_refuses_eight_players_before_any_value():
    class Unevaluable(GameOracle):
        def value(self, mask):
            raise AssertionError("the cap must refuse before any value is read")

    with pytest.raises(CapExceededError):
        reference_nucleolus(Unevaluable(8))


def test_enumerate_mode_refuses_above_cap_before_any_value(monkeypatch):
    class Unevaluable(GameOracle):
        def value(self, mask):
            raise AssertionError("the cap must refuse before any value is read")

    monkeypatch.setenv("NUCNZ_ENUM_CAP", "3")
    with pytest.raises(CapExceededError):
        mps_nucleolus(Unevaluable(4))


def test_cost_game_additive():
    tab = [0]
    for m in range(1, 8):
        tab.append(sum((2, 3, 4)[p] for p in range(3) if (m >> p) & 1))
    cg = TableGame(tab, kind="cost")
    assert mps_nucleolus(cg).allocation == (F(2), F(3), F(4))
    assert reference_nucleolus(cg).allocation == (F(2), F(3), F(4))


def test_cost_games_match_reference():
    rng = random.Random(3)
    for trial in range(6):
        n = rng.randint(3, 4)
        g0 = random_monotone_game(n, 110 + trial)
        cg = TableGame(g0.table(), kind="cost")
        assert mps_nucleolus(cg).allocation == reference_nucleolus(cg).allocation


def test_least_core_examples():
    xi, y = least_core(unanimity3())
    assert xi == F(1, 3)
    add = TableGame([0, 1, 2, 3])
    xi2, y2 = least_core(add)
    assert xi2 == 0 and sum(y2) == 3
    assert y2 == (F(1), F(2))


def test_iteration_count_within_bound():
    for seed in range(6):
        n = 3 + seed % 3
        g = random_monotone_game(n, 130 + seed)
        res = mps_nucleolus(g)
        assert len(res.trace) <= n


def test_oracle_inconsistency_detected():
    g = unanimity3()

    def lying_sep(vg, y, span):
        from nucnz.games import ExcessReport

        return ExcessReport(0b001, F(-1000))

    with pytest.raises(MpsError):
        mps_nucleolus(g, mode="oracle", sep=lying_sep)


def test_result_json_shape():
    res = mps_nucleolus(unanimity3())
    d = res.to_json_dict()
    assert d["allocation"] == ["1/3", "1/3", "1/3"]
    assert all(set(r) == {"xi", "fixed", "duals"} for r in d["trace"])


def ref6_dense():
    """random_monotone_game(5, 1) plus player 5, a dummy of value 3."""
    five = random_monotone_game(5, 1).table()
    return TableGame([five[m & 31] + (3 if m & 32 else 0) for m in range(64)])


REF6_ALLOCATION = ["0", "22/3", "47/6", "133/6", "2/3", "3"]


def _unbounded_at_call(monkeypatch, index):
    """Make the index-th LP solve (counted from 1) come back unbounded; the
    calls made are returned in a list."""
    real = nucnz.mps.solve_lp_exact
    calls = []

    def unbounded_there(lp, start=None):
        calls.append(lp)
        return LPSolution("unbounded") if len(calls) == index else real(lp, start)

    monkeypatch.setattr(nucnz.mps, "solve_lp_exact", unbounded_there)
    return calls


def test_reference_raises_when_a_pinning_lp_is_not_optimal(monkeypatch):
    # The first call is the level LP, the second the face LP that continues
    # its session; the third is the first pinning LP.
    calls = _unbounded_at_call(monkeypatch, 3)
    with pytest.raises(MpsError, match="^reference pinning LP came back unbounded$"):
        reference_nucleolus(ref6_dense())
    assert len(calls) == 3


def test_reference_raises_when_the_face_lp_is_not_optimal(monkeypatch):
    calls = _unbounded_at_call(monkeypatch, 2)
    with pytest.raises(MpsError, match="^reference face LP came back unbounded$"):
        reference_nucleolus(ref6_dense())
    assert len(calls) == 2


def test_ref6_traces_are_pinned():
    # Recorded from the dense integer tableau; a change of pivot path that
    # moves a fixed set or a dual must update these literals on purpose.
    g = ref6_dense()
    assert reference_nucleolus(g).to_json_dict() == {
        "allocation": REF6_ALLOCATION,
        "trace": [
            {
                "xi": "-95/6",
                "fixed": [6, 7, 8, 9, 16, 17, 38, 39, 40, 41, 48, 49],
                "duals": {"7": "1/3", "8": "1/3", "48": "1/3"},
            },
            {
                "xi": "-19/2",
                "fixed": [18, 19, 21, 50, 51, 53],
                "duals": {"18": "1/2", "21": "1/2"},
            },
        ],
    }
    assert mps_nucleolus(g).to_json_dict() == {
        "allocation": REF6_ALLOCATION,
        "trace": [
            {
                "xi": "-95/6",
                "fixed": [7, 8, 16, 38],
                "duals": {"7": "1/6", "8": "1/6", "16": "1/3", "38": "1/6", "41": "1/6"},
            },
            {"xi": "-19/2", "fixed": [18], "duals": {"18": "1/2", "53": "1/2"}},
        ],
    }


def test_arbor12_oracle_trace_is_pinned():
    # The coalitions fixed at each level depend on the span bookkeeping, the
    # cut order and the pivot path, none of which can move the allocation;
    # only the trace shows a change in them.
    g = random_graph(6, 12, 3)
    result = mps_nucleolus(ArboricityGame(g), mode="oracle", sep=arboricity_lsa_solver(g))
    assert [(rec.xi, rec.fixed) for rec in result.trace] == [
        (0, (512, 1535)),
        (0, (2, 64, 525, 529, 1442)),
        (0, (38, 1410)),
        (0, (130,)),
        (0, (258,)),
    ]
    assert result.allocation == tuple(F(int(e in (1, 6, 9, 11))) for e in range(12))


def _pinning_record(monkeypatch):
    """Record each level LP that reference_nucleolus solves, and the
    objective of each LP it solves that is not a level or face LP."""
    real = nucnz.mps.solve_lp_exact
    levels, pinning = [], set()

    def spy(lp, start=None):
        level = lp.objective[-1] == 1
        if level and start is None:
            levels.append(lp)
        elif not level:
            pinning.add(lp.objective)
        return real(lp, start)

    monkeypatch.setattr(nucnz.mps, "solve_lp_exact", spy)
    return levels, pinning


def test_span_closure_pins_only_what_a_pinning_lp_pins(monkeypatch):
    # A tight coalition in the span of those already pinned is pinned with
    # no LP.  Its own pinning LP, solved cold over the level's face, must
    # reach exactly v(S) + xi*: no maximization can move its excess.
    levels, pinning = _pinning_record(monkeypatch)
    closure_pinned = 0
    for n in range(3, 7):
        for seed in range(4):
            table = random_monotone_game(n, 1000 * n + seed).table()
            for kind in ("value", "cost"):
                levels.clear()
                pinning.clear()
                g = TableGame(table, kind=kind)
                result = reference_nucleolus(g)
                assert len(levels) == len(result.trace)
                value = -1 if kind == "cost" else 1
                for lp, rec in zip(levels, result.trace):
                    face = replace(lp, rows=lp.rows + (((0,) * n + (1,), ">=", rec.xi),))
                    for mask in rec.fixed:
                        vec = (*coalition_vector(mask, n), 0)
                        if vec in pinning:
                            continue
                        closure_pinned += 1
                        sol = solve_lp_exact(replace(face, objective=vec))
                        assert sol.status == "optimal"
                        assert sol.objective == value * table[mask] + rec.xi, (n, seed, kind, mask)
    assert closure_pinned > 50


def test_reference_matches_the_scheme_at_its_player_cap():
    # Seven players is reference_nucleolus's cap, where each game takes it
    # about 40 ms.
    assert nucnz.mps.REFERENCE_MAX_PLAYERS == 7
    games = [random_monotone_game(7, seed) for seed in (1, 2, 3)]
    games.append(TableGame(random_monotone_game(7, 4).table(), kind="cost"))
    for g in games:
        assert reference_nucleolus(g).allocation == mps_nucleolus(g).allocation
