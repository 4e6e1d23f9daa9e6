import itertools

import numpy as np

from matsemi._kernels import power_iteration, sign_search, subset_search


def brute_sign_mask(mats: np.ndarray) -> int:
    # sign vectors in lexicographic order (+1 before -1), first sign +1;
    # bit (n-1-i) of the mask is set when vertex i gets sign -1
    n = mats.shape[1]
    for tail in itertools.product((1, -1), repeat=n - 1):
        s = (1,) + tail
        if all(s[i] * s[j] * int(m[i, j]) >= 0
               for m in mats for i in range(n) for j in range(n)):
            return sum(1 << (n - 1 - i) for i in range(n) if s[i] < 0)
    return -1


def brute_subset_mask(pattern: np.ndarray, order) -> int:
    n = pattern.shape[0]
    for mask in order:
        inside = [i for i in range(n) if (mask >> i) & 1]
        outside = [i for i in range(n) if not (mask >> i) & 1]
        if not any(pattern[i, j]
                   for i, j in itertools.product(outside, inside)):
            return int(mask)
    return -1


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
        assert res <= 1e-12
        assert np.abs(a @ v - rho * v).max() <= 1e-12
        assert v.min() >= 0 and np.abs(v).max() == 1.0
        want = max(abs(x) for x in np.linalg.eigvals(a))
        assert abs(rho - want) < 1e-9


def test_power_iteration_periodic_pattern_converges():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    rho, v, res, _ = power_iteration(swap, 1e-12, 10000)
    assert abs(rho - 1.0) < 1e-9
    assert res <= 1e-12
    assert np.max(np.abs(v - 1.0)) < 1e-7


def test_sign_search_matches_brute_force():
    rng = np.random.default_rng(8)
    outcomes = set()
    for _ in range(60):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        mats = rng.integers(-1, 2, size=(m, n, n)).astype(np.int8)
        want = brute_sign_mask(mats)
        assert sign_search(mats) == want
        outcomes.add(want >= 0)
    assert outcomes == {True, False}


def test_sign_search_mask_is_first_feasible():
    assert sign_search(np.zeros((1, 2, 2))) == 0
    assert sign_search([[[1.0, -1.0], [0.0, 0.0]]]) == 1
    # a strictly mixed row: no sign diagonal can fix it
    assert sign_search([[[1.0, -1.0], [1.0, 1.0]]]) == -1


def test_subset_search_matches_brute_force():
    rng = np.random.default_rng(9)
    outcomes = set()
    for _ in range(60):
        n = int(rng.integers(2, 6))
        pattern = rng.random((n, n)) < 0.5
        masks = [m for m in range(1, (1 << n) - 1)]
        rng.shuffle(masks)
        order = np.array(masks, dtype=np.int64)
        want = brute_subset_mask(pattern, masks)
        assert subset_search(pattern, order) == want
        outcomes.add(want >= 0)
    assert outcomes == {True, False}


def test_subset_search_respects_given_order():
    # S qualifies iff pattern[i, j] == 0 whenever j is in S and i is not
    pattern = np.array([[1, 1, 1],
                        [1, 1, 0],
                        [0, 0, 1]], dtype=bool)
    inv = 0b011     # {0, 1}: row 2 is zero on those columns
    leak = 0b100    # {2}: pattern[0, 2] = 1 escapes
    order = np.array([leak, inv], dtype=np.int64)
    assert subset_search(pattern, order) == inv
    assert subset_search(np.ones((3, 3), dtype=bool), order) == -1


def test_subset_search_empty_order():
    assert subset_search(np.ones((2, 2), dtype=bool),
                         np.zeros(0, dtype=np.int64)) == -1


def test_dispatch_wrappers_accept_lists():
    rho, v, res, _ = power_iteration([[2.0, 1.0], [1.0, 2.0]], 1e-10, 100000)
    assert abs(rho - 3.0) < 1e-9
    assert res <= 1e-10
    assert v.shape == (2,)
