import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import nucnz.linalg
from helpers import rref, rref_kernel_basis
from nucnz.linalg import (
    LinearSubspace,
    fold_kernel,
    in_span,
    integer_kernel_basis,
    parse_rat,
    rank,
    rat_str,
)


def test_rank_identity_and_zero():
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0, 0], [0, 0, 0], [0, 0, 0]]) == 0


def test_rank_dependent_rows():
    assert rank([[1, 1, 0], [2, 2, 0], [0, 0, 1]]) == 2


def test_in_span_basic():
    L = LinearSubspace.from_rows([[1, 0, 0], [0, 1, 0]], 3)
    assert in_span(L, [1, 1, 0])
    assert not in_span(L, [0, 0, 1])
    L2 = LinearSubspace.from_rows([[1, 1, 0]], 3)
    assert in_span(L2, [2, 2, 0])


def test_in_span_dimension_mismatch():
    L = LinearSubspace.from_rows([[1, 0]], 2)
    with pytest.raises(ValueError):
        in_span(L, [1, 0, 0])


def test_kernel_of_zero_space():
    L = LinearSubspace.zero(2)
    assert integer_kernel_basis(L) == [(1, 0), (0, 1)]


def test_kernel_of_line():
    L = LinearSubspace.from_rows([[1, 1, 0]], 3)
    ker = integer_kernel_basis(L)
    assert ker == [(1, -1, 0), (0, 0, 1)]
    for a in ker:
        assert sum(x * y for x, y in zip(a, (1, 1, 0))) == 0


def test_kernel_of_plane():
    L = LinearSubspace.from_rows([[1, 0, 0], [0, 1, 0]], 3)
    assert integer_kernel_basis(L) == [(0, 0, 1)]


def test_kernel_full_space_rejected():
    L = LinearSubspace.from_rows([[1, 0], [0, 1]], 2)
    with pytest.raises(ValueError):
        integer_kernel_basis(L)


def test_kernel_orthogonality_and_rank_random():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 7)
        k = rng.randint(0, n - 1)
        rows = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(k)]
        L = LinearSubspace.from_rows(rows, n)
        if not L.is_proper():
            continue
        ker = integer_kernel_basis(L)
        assert len(ker) == n - L.dim
        for a in ker:
            for b in L.basis_rows:
                assert sum(x * y for x, y in zip(a, b)) == 0
        combined = [list(b) for b in L.basis_rows] + [list(a) for a in ker]
        assert len(rref(combined)) == n


@pytest.mark.parametrize("span", ["any", "empty", "one off full"])
@given(data=st.data())
def test_kernel_matches_the_fraction_rref_referee(span, data):
    n = data.draw(st.integers(1, 8), label="n")
    if span == "empty":
        dim = 0
    elif span == "one off full":
        dim = n - 1
    else:
        dim = data.draw(st.integers(0, n - 1), label="dim")
    entry = data.draw(
        st.sampled_from([st.integers(0, 1), st.fractions(-3, 3, max_denominator=4)]),
        label="entries",
    )
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=dim, max_size=dim))
    L = LinearSubspace.from_rows(rows, n)
    assume(L.dim == dim)
    assert integer_kernel_basis(L) == rref_kernel_basis(L.basis_rows, n)


def test_kernel_is_computed_once_per_subspace(monkeypatch):
    calls = []
    compute = nucnz.linalg._kernel_rows
    monkeypatch.setattr(nucnz.linalg, "_kernel_rows", lambda L: calls.append(L) or compute(L))
    L = LinearSubspace.from_rows([[1, 1, 0]], 3)
    first = integer_kernel_basis(L)
    first[0] = (0, 0, 0)
    first.append((9, 9, 9))
    assert integer_kernel_basis(L) == [(1, -1, 0), (0, 0, 1)]
    M = L.extended([0, 0, 1])
    assert integer_kernel_basis(M) == [(1, -1, 0)]
    assert calls == [L, M]
    assert L == LinearSubspace.from_rows([[2, 2, 0]], 3)
    assert hash(L) == hash(LinearSubspace.from_rows([[2, 2, 0]], 3))


def test_in_span_matches_rank_test():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 6)
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(0, n))]
        L = LinearSubspace.from_rows(rows, n)
        x = [F(rng.randint(-3, 3)) for _ in range(n)]
        brute = len(rref([list(r) for r in L.basis_rows] + [x])) == L.dim
        assert in_span(L, x) == brute


def test_wrong_length_rows_are_refused():
    # An all-zero row reduces to nothing, so its length is checked first.
    with pytest.raises(ValueError, match="^dimension mismatch"):
        LinearSubspace.from_rows([[0, 0]], 3)
    with pytest.raises(ValueError, match="^dimension mismatch"):
        LinearSubspace.from_rows([[1, 0, 0], [0, 1]], 3)
    with pytest.raises(ValueError, match="^dimension mismatch: vector has 2, subspace ambient 3$"):
        LinearSubspace.zero(3).extended([1, 0])
    with pytest.raises(ValueError, match="^dimension mismatch"):
        LinearSubspace.from_rows([[1, 1, 0]], 3).extended([0, 0, 0, 1])


@given(data=st.data())
def test_integer_echelon_matches_the_fraction_rref_referee(data):
    n = data.draw(st.integers(1, 8), label="n")
    entry = data.draw(
        st.sampled_from([st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)]),
        label="entries",
    )
    vector = st.lists(entry, min_size=n, max_size=n)
    rows = data.draw(st.lists(vector, max_size=n + 1), label="rows")
    x = data.draw(vector, label="x")
    L = LinearSubspace.from_rows(rows, n)
    assert L.basis_rows == tuple(tuple(r) for r in rref(rows))
    assert rank(rows) == L.dim == len(rref(rows))
    # Folding the rows one at a time, in any order, lands on the same
    # canonical rows.
    M = LinearSubspace.zero(n)
    for row in data.draw(st.permutations(rows), label="order"):
        M = M.extended(row)
    assert M == L and hash(M) == hash(L)
    inside = len(rref(rows + [x])) == len(rref(rows))
    assert L.contains(x) == inside
    assert (L.extended(x) == L) == inside
    for r in rows:
        assert L.extended(r) == L and hash(L.extended(r)) == hash(L)


@pytest.mark.parametrize("kernel", ["one vector", "n vectors", "any"])
@given(data=st.data())
def test_fold_kernel_is_nonzero_exactly_outside_the_span(kernel, data):
    n = data.draw(st.integers(1, 8), label="n")
    if kernel == "one vector":
        dim = n - 1
    elif kernel == "n vectors":
        dim = 0
    else:
        dim = data.draw(st.integers(0, n - 1), label="dim")
    entry = st.integers(-3, 3)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=dim, max_size=dim))
    L = LinearSubspace.from_rows(rows, n)
    assume(L.dim == dim)
    c = fold_kernel(integer_kernel_basis(L))
    assert len(c) == n
    for mask in range(1 << n):
        x = [(mask >> p) & 1 for p in range(n)]
        assert (sum(ci * xi for ci, xi in zip(c, x)) != 0) == (not L.contains(x))


def test_fold_kernel_small_cases():
    assert fold_kernel([(1, -1, 0)]) == (1, -1, 0)
    # B = 2 * 2 + 1: the second vector is scaled by 5
    assert fold_kernel([(1, -1, 0), (0, 1, -1)]) == (1, 4, -5)
    with pytest.raises(ValueError):
        fold_kernel([])
    # Kernel (3, 0, 2), (0, 3, -1): x = (1, 0, 1) has digits 5 and -1, which
    # a base of only max ||a_i||_1 = 5 would cancel.
    L = LinearSubspace.from_rows([[2, -1, -3]], 3)
    c = fold_kernel(integer_kernel_basis(L))
    assert c[0] + c[2] != 0 and not L.contains([1, 0, 1])


def test_rat_round_trip():
    for s in ["3/4", "-7/5", "12", "0", "-9"]:
        assert rat_str(parse_rat(s)) == s
    for s in ["1/0", "x", ""]:
        with pytest.raises(ValueError):
            parse_rat(s)
    rng = random.Random(3)
    for _ in range(200):
        x = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        assert parse_rat(rat_str(x)) == x
