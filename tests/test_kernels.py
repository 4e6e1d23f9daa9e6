import itertools
import random

import numpy as np

from matsemi import Matrix, SignDiagonal, harness
from matsemi._kernels import power_iteration, residual
from matsemi.harness import sign_search_oracle, subset_invariance_oracle
from _reference import (reference_power_iteration, reference_sign_search,
                        reference_subset_search)


def brute_sign_mask(signs, n: int) -> int:
    # sign vectors in lexicographic order (+1 before -1), first sign +1;
    # bit (n-1-i) of the mask is set when vertex i gets sign -1
    for tail in itertools.product((1, -1), repeat=n - 1):
        s = (1,) + tail
        if all(s[i] * s[j] * sg[i * n + j] >= 0
               for sg in signs for i in range(n) for j in range(n)):
            return sum(1 << (n - 1 - i) for i in range(n) if s[i] < 0)
    return -1


def brute_subset_mask(edges, n: int) -> int:
    # subsets in itertools.combinations order, by size; bit (n-1-i) of
    # the mask is set when element i is in the subset
    for size in range(1, n):
        for inside in itertools.combinations(range(n), size):
            if not any(i not in inside and j in inside for i, j in edges):
                return sum(1 << (n - 1 - i) for i in inside)
    return -1


def flat_matrix(flat, n: int) -> Matrix:
    return Matrix.from_rows([flat[i:i + n] for i in range(0, n * n, n)])


def sign_mask(signs, n: int) -> int:
    # the sign oracle's answer in brute_sign_mask's layout
    s = sign_search_oracle([flat_matrix(sg, n) for sg in signs])
    if s is None:
        return -1
    return sum(1 << (n - 1 - i) for i in range(n) if s.signs[i] < 0)


def subset_mask(edges, n: int) -> int:
    # the subset oracle's answer in brute_subset_mask's layout
    rep = subset_invariance_oracle(flat_matrix(
        [int((i, j) in edges) for i in range(n) for j in range(n)], n))
    if not rep.decomposable:
        return -1
    return sum(1 << (n - 1 - i) for i in rep.subset)


def random_edges(rng, n: int, density: float) -> frozenset:
    return frozenset((i, j) for i in range(n) for j in range(n)
                     if rng.random() < density)


def planted_signs(rng, n: int, k: int) -> list[list[int]]:
    """Sign patterns of k matrices conjugated nonnegative by one hidden
    sign vector; a random entry of a random half is then negated, which
    usually makes them infeasible."""
    s = [rng.choice((1, -1)) for _ in range(n)]
    signs = [[s[i] * s[j] * (rng.random() < 0.4)
              for i in range(n) for j in range(n)] for _ in range(k)]
    if rng.random() < 0.5:
        sg = rng.choice(signs)
        idx = rng.randrange(n * n)
        sg[idx] = -sg[idx] or -1
    return signs


def test_power_iteration_matches_eigvals():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        a = rng.random((n, n))
        a[rng.random((n, n)) < 0.3] = 0.0
        # a positive diagonal rules out the nilpotent patterns whose
        # dominant eigenvalue is defective (power iteration then crawls)
        a[np.arange(n), np.arange(n)] = rng.random(n) + 0.5
        rho, v, res, _ = power_iteration(a, 1e-12, 200000)
        assert residual(a, v, rho) == residual(a.tolist(), v, rho) == res
        left = residual(a.T, v, rho)
        v = np.array(v)
        assert res <= 1e-12
        assert np.abs(a @ v - rho * v).max() <= 1e-12
        assert abs(left - np.abs(a.T @ v - rho * v).max()) <= 1e-12
        assert v.min() >= 0 and np.abs(v).max() == 1.0
        want = max(abs(x) for x in np.linalg.eigvals(a))
        assert abs(rho - want) < 1e-9


def test_power_iteration_periodic_pattern_converges():
    swap = [[0.0, 1.0], [1.0, 0.0]]
    rho, v, res, _ = power_iteration(swap, 1e-12, 10000)
    assert abs(rho - 1.0) < 1e-9
    assert res <= 1e-12
    assert max(abs(x - 1.0) for x in v) < 1e-7


def test_power_iteration_matches_numpy_reference():
    rng = np.random.default_rng(10)
    cases = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]),
             np.array([[3.0]]), np.zeros((1, 1))]
    for _ in range(60):
        n = int(rng.integers(1, 9))
        a = rng.random((n, n))
        a[rng.random((n, n)) < 0.4] = 0.0
        a[np.arange(n), np.arange(n)] += rng.random(n) + 0.1
        cases.append(a)
    for a in cases:
        for tol in (1e-9, 1e-12):
            rho, v, res, _ = power_iteration(a, tol, 100000)
            ref_rho, ref_v, ref_res, _ = reference_power_iteration(
                a, tol, 100000)
            assert abs(rho - ref_rho) <= 1e-12
            assert res <= tol and ref_res <= tol
            assert np.abs(np.array(v) - ref_v).max() <= 1e-9


def test_sign_search_matches_brute_force():
    rng = random.Random(8)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(1, 5)
        signs = [[rng.randint(-1, 1) for _ in range(n * n)]
                 for _ in range(rng.randint(1, 3))]
        want = brute_sign_mask(signs, n)
        assert sign_mask(signs, n) == want
        outcomes.add(want >= 0)
    assert outcomes == {True, False}


def test_sign_search_mask_is_first_feasible():
    assert sign_mask([[0, 0, 0, 0]], 2) == 0
    assert sign_mask([[1, -1, 0, 0]], 2) == 1
    # a strictly mixed row: no sign diagonal can fix it
    assert sign_mask([[1, -1, 1, 1]], 2) == -1
    # a negative diagonal entry is never fixed by conjugation
    assert sign_mask([[1, 0, 0, -1]], 2) == -1
    assert sign_mask([[1]], 1) == 0
    # each matrix alone is feasible, the two together are not
    assert sign_mask([[0, 1, 0, 0], [0, -1, 0, 0]], 2) == -1


def test_sign_search_stops_once_no_mask_is_left(monkeypatch):
    # the first matrix has a negative diagonal entry, so the search must
    # return without reading the signs of the later matrices' keys
    read = []

    def entry_signs(key):
        k = len(read)
        read.append(k)
        return [1, 0, 0, -1] if k == 0 else [0, 1, 1, 0]

    monkeypatch.setattr(harness, "_entry_signs", entry_signs)
    ms = [flat_matrix([0, 1, 1, 0], 2)] * 3
    assert sign_search_oracle(ms) is None
    assert read == [0]


def test_sign_search_matches_numpy_reference():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(1, 14)
        signs = planted_signs(rng, n, rng.randint(1, 3))
        want = reference_sign_search(
            np.array(signs, dtype=np.int8).reshape(len(signs), n, n))
        assert sign_mask(signs, n) == want
        s = sign_search_oracle([flat_matrix(sg, n) for sg in signs])
        assert s == (None if want < 0 else SignDiagonal(tuple(
            -1 if (want >> (n - 1 - i)) & 1 else 1 for i in range(n))))
        outcomes.add(want >= 0)
    assert outcomes == {True, False}


def test_subset_search_matches_brute_force():
    rng = random.Random(9)
    outcomes = set()
    for _ in range(80):
        n = rng.randint(1, 6)
        edges = random_edges(rng, n, rng.choice((0.2, 0.5)))
        want = brute_subset_mask(edges, n)
        assert subset_mask(edges, n) == want
        outcomes.add(want >= 0)
    assert outcomes == {True, False}


def test_subset_search_orders_by_size_then_lexicographically():
    # S qualifies iff no edge (i, j) has j in S and i outside it
    pairs = {(0, 1), (1, 0), (2, 3), (3, 2)}
    # {0, 1} and {2, 3} qualify; {0, 1} comes first
    assert subset_mask(pairs, 4) == 0b1100
    # the edge (1, 2) enters {2, 3}; the edge (2, 1) enters {0, 1}
    assert subset_mask(pairs | {(1, 2)}, 4) == 0b1100
    assert subset_mask(pairs | {(2, 1)}, 4) == 0b0011
    # an isolated vertex is a smaller witness than any pair
    assert subset_mask(pairs, 5) == 0b00001
    # {0, 2} comes before {1, 3}, although its mask is the higher one
    assert subset_mask({(0, 2), (2, 0), (1, 3), (3, 1)}, 4) == 0b1010
    assert subset_mask({(0, 1), (1, 0)}, 2) == -1
    assert subset_mask(set(), 1) == -1


def test_subset_search_matches_numpy_reference():
    rng = random.Random(12)
    outcomes = set()
    for _ in range(50):
        n = rng.randint(1, 12)
        edges = random_edges(rng, n, rng.choice((0.1, 0.2, 0.4)))
        pattern = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            pattern[i, j] = True
        order = [sum(1 << i for i in comb) for size in range(1, n)
                 for comb in itertools.combinations(range(n), size)]
        hit = reference_subset_search(pattern, np.array(order,
                                                        dtype=np.int64))
        want = (None if hit < 0
                else tuple(i for i in range(n) if (hit >> i) & 1))
        m = flat_matrix([int((i, j) in edges)
                         for i in range(n) for j in range(n)], n)
        rep = subset_invariance_oracle(m)
        assert (rep.decomposable, rep.subset) == (want is not None, want)
        outcomes.add(want is not None)
    assert outcomes == {True, False}


def test_dispatch_wrappers_accept_lists():
    for a in ([[2.0, 1.0], [1.0, 2.0]], ((2, 1), (1, 2)),
              np.array([[2.0, 1.0], [1.0, 2.0]])):
        rho, v, res, _ = power_iteration(a, 1e-10, 100000)
        assert abs(rho - 3.0) < 1e-9
        assert res <= 1e-10
        assert len(v) == 2
    rho, v, res, it = power_iteration(np.eye(2), 1e-9, 100)
    assert (rho, v, res) == (1.0, [1.0, 1.0], 0.0)
