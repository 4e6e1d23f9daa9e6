import math
import random

import numpy as np
import pytest

from matsemi import (Matrix, NonConvergenceError, Scalar, is_primitive,
                     perron)
from _fx import M, ones, random_pattern

C3 = M([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def _floats(m):
    return np.array([[float(m.entry(i, j).re) for j in range(m.cols)]
                     for i in range(m.rows)])


def random_irreducible(rng, n, hi=5):
    # a full cycle keeps the pattern strongly connected, so the shifted
    # iteration converges geometrically
    rows = [[rng.randint(0, hi) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = max(1, rows[i][(i + 1) % n])
    return M(rows)


def test_perron_known_values():
    r = perron(M([[2, 1], [1, 2]]))
    assert abs(r.rho - 3.0) <= 1e-9
    assert max(abs(x - 1.0) for x in r.right_vector) <= 1e-6
    assert max(abs(x - 1.0) for x in r.left_vector) <= 1e-6

    for n in range(2, 7):
        r = perron(ones(n))
        assert abs(r.rho - n) <= 1e-9

    r = perron(M([[5]]))
    assert r.rho == 5.0 and r.right_vector == (1.0,)
    assert r.residual == 0.0


def test_perron_periodic_pattern():
    # eigenvalues +-4; the shift must still converge, to the +4 pair
    r = perron(M([[0, 2], [8, 0]]))
    assert abs(r.rho - 4.0) <= 1e-9
    assert abs(r.right_vector[0] - 0.5) <= 1e-6
    assert abs(r.right_vector[1] - 1.0) <= 1e-6
    assert abs(r.left_vector[0] - 1.0) <= 1e-6
    assert abs(r.left_vector[1] - 0.5) <= 1e-6


def test_perron_matches_eigenvalue_oracle():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(1, 6)
        m = random_irreducible(rng, n)
        r = perron(m)
        want = max(abs(x) for x in np.linalg.eigvals(_floats(m)))
        assert abs(r.rho - want) <= 1e-6


def test_perron_row_sum_bounds():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = random_irreducible(rng, n)
        r = perron(m)
        sums = _floats(m).sum(axis=1)
        assert sums.min() - 1e-9 <= r.rho <= sums.max() + 1e-9


def test_perron_residual_contract():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_irreducible(rng, n)
        r = perron(m, tol=1e-10)
        a = _floats(m)
        v = np.array(r.right_vector)
        u = np.array(r.left_vector)
        assert np.abs(a @ v - r.rho * v).max() <= 1e-10
        assert np.abs(a.T @ u - r.rho * u).max() <= 1e-10
        assert v.min() >= 0 and np.abs(v).max() == 1.0
        assert u.min() >= 0 and np.abs(u).max() == 1.0


def test_perron_validation():
    with pytest.raises(ValueError):
        perron(Matrix.zeros(2, 3))
    with pytest.raises(ValueError):
        perron(M([[1, -1], [0, 1]]))
    with pytest.raises(ValueError):
        perron(Matrix.from_rows([[Scalar(0, 1)]]))
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            perron(ones(2), tol=tol)
    with pytest.raises(ValueError):
        perron(ones(2), max_iters=0)
    # an entry beyond float range, and row sums of A or A^T that
    # overflow; the exact primitivity test still takes them
    big = 10 ** 308
    for m, prim in ((M([[10 ** 400, 1], [1, 1]]), True),
                    (M([[big, big], [big, big]]), True),
                    (M([[big, 0], [big, 0]]), False)):
        with pytest.raises(ValueError, match="finite"):
            perron(m)
        assert is_primitive(m) == prim


def test_perron_nonconvergence():
    with pytest.raises(NonConvergenceError):
        perron(M([[1, 2], [3, 4]]), tol=1e-9, max_iters=1)


def test_is_primitive_known():
    assert is_primitive(ones(3))
    assert not is_primitive(C3)                      # period 3
    assert is_primitive(M([[0, 1], [1, 1]]))         # fibonacci pattern
    assert is_primitive(M([[1]]))
    assert not is_primitive(M([[0]]))
    assert not is_primitive(M([[1, 1], [0, 1]]))     # not strongly connected


def test_is_primitive_validation():
    with pytest.raises(ValueError):
        is_primitive(M([[0, -1], [1, 0]]))
    with pytest.raises(ValueError):
        is_primitive(Matrix.zeros(2, 3))
    with pytest.raises(ValueError):
        is_primitive(Matrix.from_rows([[Scalar(0, 1)]]))


def brute_primitive(p: np.ndarray) -> bool:
    n = p.shape[0]
    q = np.eye(n, dtype=bool)
    for _ in range((n - 1) ** 2 + 1):
        q = (q.astype(np.int64) @ p.astype(np.int64)) > 0
    return bool(q.all())


def test_is_primitive_matches_power_oracle():
    rng = random.Random(44)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_pattern(rng, n, density=rng.choice((0.2, 0.4, 0.7)))
        assert is_primitive(m) == brute_primitive(_floats(m) > 0)
