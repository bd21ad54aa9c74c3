"""The exhaustive excess scan against a direct search that shares no code
with it: every referee and enumerate-mode separation must return the
lowest mask of least excess."""

from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from nucnz.games import (
    ExcessReport,
    TableGame,
    as_value_game,
    brute_lsa_min_excess,
    brute_min_excess,
    brute_nz_min_excess,
    coalition_vector,
    excess,
)
from nucnz.linalg import LinearSubspace
from nucnz.mps import _enumerate_sep

rationals = st.builds(F, st.integers(-20, 20), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def scan_cases(draw):
    n = draw(st.integers(1, 6))
    values = [F(0)] + draw(st.lists(rationals, min_size=(1 << n) - 1, max_size=(1 << n) - 1))
    g = TableGame(values, kind=draw(st.sampled_from(["value", "cost"])))
    y = draw(st.lists(rationals, min_size=n, max_size=n))
    a = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=n - 1))
    return g, y, a, LinearSubspace.from_rows(rows, n)


def direct_min(g, y, masks):
    best = min((excess(g, y, m), m) for m in masks)
    return ExcessReport(best[1], best[0])


@given(scan_cases())
def test_scan_matches_direct_search(case):
    g, y, a, L = case
    n = g.player_count
    masks = range(1 << n)
    avoiding = [m for m in masks if not L.contains(coalition_vector(m, n))]
    assert brute_min_excess(g, y) == direct_min(g, y, masks)
    nonzero = [m for m in masks if sum(a[p] for p in range(n) if m >> p & 1) != 0]
    assert brute_nz_min_excess(g, y, a) == direct_min(g, y, nonzero)
    assert brute_lsa_min_excess(g, y, L) == direct_min(g, y, avoiding)
    vg = as_value_game(g)
    assert _enumerate_sep(vg)(vg, y, L) == direct_min(vg, y, avoiding)
