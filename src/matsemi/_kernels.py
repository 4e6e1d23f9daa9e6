"""Spectral's float kernels: the shifted power iteration and its residual.

Both run on Python floats over sparse rows.  Exactness lives in the
rational modules, which only hand validated data down.
"""

from __future__ import annotations


def _sparse_rows(a) -> list[list[tuple[int, float]]]:
    return [[(j, float(x)) for j, x in enumerate(row) if x] for row in a]


def _mat_vec(rows, v) -> list[float]:
    return [sum([x * v[j] for j, x in row]) for row in rows]


def residual(a, v, rho: float) -> float:
    """||a v - rho v|| in the infinity norm, a given as to power_iteration."""
    av = _mat_vec(_sparse_rows(a), v)
    return max([abs(x - rho * y) for x, y in zip(av, v)])


def power_iteration(a, tol: float, max_iters: int):
    """Shifted power iteration on (a + I); returns (rho, v, residual, it).

    a is any sequence of rows.  The +I shift makes the iteration converge
    for indecomposable matrices whose period would otherwise make the
    plain iteration oscillate.  v keeps infinity norm 1, so the residual
    is the infinity-norm eigenpair defect for the returned rho.
    """
    rows = _sparse_rows(a)
    n = len(rows)
    v = [1.0] * n
    if n == 1:
        return float(a[0][0]), v, 0.0, 1
    rho = 0.0
    res = 0.0
    av = _mat_vec(rows, v)
    for it in range(1, max_iters + 1):
        # the residual's A v of the previous step is this step's A v
        w = [x + y for x, y in zip(av, v)]
        nw = max(map(abs, w))
        v = [x / nw for x in w]
        rho = nw - 1.0
        av = _mat_vec(rows, v)
        res = max([abs(x - rho * y) for x, y in zip(av, v)])
        if res <= tol:
            return rho, v, res, it
    return rho, v, res, max_iters
