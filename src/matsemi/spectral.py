"""Spectral radius and primitivity of nonnegative matrices.

Only this module and the float routines it calls in
:mod:`matsemi._kernels` (``power_iteration`` and ``residual``) compute
in floating point.  Inputs are validated exactly (square, real,
entrywise nonnegative) before they become floats; `is_primitive` is
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .exact import Matrix, _square_size, classify_entries
from .structure import pattern_digraph, scc_condensation


class NonConvergenceError(RuntimeError):
    """Raised when power iteration cannot meet the residual tolerance."""


@dataclass(frozen=True, slots=True)
class SpectralResult:
    """Approximate Perron data with a verified residual contract.

    rho approximates the spectral radius; right_vector and left_vector
    are nonnegative with infinity norm 1, and both infinity-norm
    residuals ||A v - rho v|| and ||A^T u - rho u|| are at most the
    tolerance that was requested.
    """

    rho: float
    right_vector: tuple[float, ...]
    left_vector: tuple[float, ...]
    residual: float
    iterations: int


def _check_nonnegative_square(m: Matrix) -> None:
    _square_size([m])
    cls = classify_entries(m)
    if not cls.is_real:
        raise ValueError("spectral analysis requires a real matrix")
    if not cls.is_nonnegative:
        raise ValueError("spectral analysis requires a nonnegative matrix")


def perron(m: Matrix, tol: float = 1e-9,
           max_iters: int = 100000) -> SpectralResult:
    """Spectral radius with right and left Perron vectors.

    Runs shifted power iteration on A and on A^T.  Both residuals are
    checked against the single reported rho; when the left run's own
    eigenvalue estimate differs from it by enough to break that shared
    contract, both runs are retried at tighter internal tolerances.
    Raises NonConvergenceError if the contract cannot be met within
    max_iters per run, and ValueError before iterating if an entry or a
    row sum of A or A^T is not finite as a float.
    """
    # a NaN tolerance compares false with every residual and an infinite
    # one accepts any iterate, so both are refused with the rest
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    _check_nonnegative_square(m)
    n = m.rows
    try:
        flat = [float(e.re) for e in m.entries]
    except OverflowError:  # an entry beyond float range
        flat = [math.inf] * (n * n)
    a = [flat[i:i + n] for i in range(0, n * n, n)]
    at = [flat[j::n] for j in range(n)]
    # finite row sums of A and A^T bound every iterate of both runs
    if not all(math.isfinite(sum(row)) for row in a + at):
        raise ValueError("entries and row sums must be finite as floats")
    total = 0
    inner = tol
    residual = float("inf")
    for _ in range(5):
        rho, v, res_r, it_r = _kernels.power_iteration(a, inner, max_iters)
        _, u, _, it_l = _kernels.power_iteration(at, inner, max_iters)
        total += it_r + it_l
        residual = max(res_r, _kernels.residual(at, u, rho))
        if residual <= tol:
            return SpectralResult(
                rho=rho,
                right_vector=tuple(v),
                left_vector=tuple(u),
                residual=residual,
                iterations=total,
            )
        if res_r > inner:
            break  # the forward run itself is stuck; tightening won't help
        inner /= 16.0
    raise NonConvergenceError(
        f"residual {residual:.3e} above tolerance {tol:.3e} "
        f"after {total} total iterations")


def is_primitive(m: Matrix) -> bool:
    """Strongly connected pattern with cycle-length gcd 1.

    Uses the standard distance criterion: with d the BFS levels from
    any root, the gcd of d[u] + 1 - d[v] over all edges (u, v) equals
    the period of a strongly connected digraph.
    """
    _check_nonnegative_square(m)  # same validation contract as perron
    g = pattern_digraph(m)
    if scc_condensation(g).scc_count != 1:
        return False
    adj = g.adjacency()
    n = g.n
    dist = [-1] * n
    dist[0] = 0
    queue = [0]
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    period = 0
    for u, w in g.edges:
        period = math.gcd(period, dist[u] + 1 - dist[w])
    return period == 1
