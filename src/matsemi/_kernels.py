"""Hot numeric kernels: power iteration and the two exhaustive oracles.

The oracles are bit-parallel on Python integers: one int per vertex
holds that vertex's bit in every candidate mask at once, so each matrix
entry rules out all the masks it contradicts in one integer operation.
The power iteration runs on Python floats over sparse rows.  Exactness
lives in the rational modules, which only hand validated data down.
"""

from __future__ import annotations


def _bit_columns(width: int) -> list[int]:
    """cols[p] has bit m set iff bit p of m is set, for all m < 2^width.

    Each step doubles the masks: the old columns repeat, and the new top
    bit is clear on the old half and set on the new one.
    """
    cols: list[int] = []
    for t in range(width):
        span = 1 << t
        cols = [c | c << span for c in cols] + [((1 << span) - 1) << span]
    return cols


def sign_search(signs, n: int) -> int:
    """First mask in [0, 2^(n-1)) giving a feasible sign diagonal.

    signs holds one row-major list of n*n entry signs in {-1, 0, 1} per
    matrix.  Bit (n-1-i) of the mask holds the sign of vertex i (set =
    -1), so ascending masks enumerate sign vectors in lexicographic order
    with the leading sign pinned to +1.  Returns -1 if none is feasible.
    """
    bits = [0] + _bit_columns(n - 1)[::-1]
    ok = (1 << (1 << (n - 1))) - 1
    for sg in signs:
        for k, s in enumerate(sg):
            if s:
                i, j = divmod(k, n)
                # masks where s_i * s_j = -1; a negative diagonal entry
                # (i == j) therefore rules out every mask
                flip = bits[i] ^ bits[j]
                ok &= flip if s < 0 else ~flip
        if not ok:
            return -1
    return (ok & -ok).bit_length() - 1


def subset_search(edges, n: int) -> int:
    """Smallest, then lexicographically first, nontrivial subset S of
    range(n) that no edge (i, j) enters from outside (j in S implies
    i in S).  Element i sits at bit n-1-i of the returned mask, so within
    one size the first subset is the highest mask.  Returns -1 if none
    qualifies.
    """
    bits = _bit_columns(n)[::-1]
    ok = (1 << (1 << n)) - 1
    for i, j in edges:
        if i != j:
            ok &= ~(bits[j] & ~bits[i])
    # by_size[k] has bit m set iff mask m has k elements
    by_size = [1]
    for t in range(n):
        by_size = [a | (b << (1 << t))
                   for a, b in zip(by_size + [0], [0] + by_size)]
    for size in range(1, n):
        hits = ok & by_size[size]
        if hits:
            return hits.bit_length() - 1
    return -1


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
