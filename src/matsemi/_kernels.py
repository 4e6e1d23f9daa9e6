"""Hot numeric kernels: power iteration and the two exhaustive oracles.

One numpy implementation of each: a shifted power iteration and
vectorised scans for the sign and subset searches.  numpy is imported
inside each kernel, so it loads on the first float computation and
never for the exact-only paths.  Everything here is float64/int64
plumbing; exactness lives in the rational modules, which only hand
validated arrays down.
"""

from __future__ import annotations


def power_iteration(a, tol: float, max_iters: int):
    """Shifted power iteration on (a + I); returns (rho, v, residual, it).

    The +I shift makes the iteration converge for indecomposable
    matrices whose period would otherwise make the plain iteration
    oscillate.  v keeps infinity norm 1, so the residual is the
    infinity-norm eigenpair defect for the returned rho.
    """
    import numpy as np

    a = np.ascontiguousarray(a, dtype=np.float64)
    tol = float(tol)
    max_iters = int(max_iters)
    n = a.shape[0]
    v = np.ones(n, dtype=np.float64)
    if n == 1:
        rho = a[0, 0]
        return rho, v, 0.0, 1
    rho = 0.0
    res = 0.0
    for it in range(1, max_iters + 1):
        w = np.dot(a, v) + v
        nw = np.abs(w).max()
        v = w / nw
        rho = nw - 1.0
        res = np.abs(np.dot(a, v) - rho * v).max()
        if res <= tol:
            return rho, v, res, it
    return rho, v, res, max_iters


def sign_search(signs) -> int:
    """First mask in [0, 2^(n-1)) giving a feasible sign diagonal.

    signs has shape (k, n, n) with entries in {-1, 0, 1}.  Bit (n-1-i)
    of the mask holds the sign of vertex i (set = -1), so ascending
    masks enumerate sign vectors in lexicographic order with the leading
    sign pinned to +1.  Returns -1 if none is feasible.
    """
    import numpy as np

    sg = np.ascontiguousarray(signs, dtype=np.int8).astype(np.int64)
    k, n, _ = sg.shape
    total = 1 << (n - 1)
    shifts = (n - 1 - np.arange(n)).astype(np.int64)
    chunk = 2048
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        s = 1 - 2 * ((masks[:, None] >> shifts[None, :]) & 1)
        prod = s[:, :, None] * s[:, None, :]
        ok = np.ones(masks.shape[0], dtype=bool)
        for m in range(k):
            viol = (prod * sg[m][None, :, :]) < 0
            ok &= ~viol.reshape(viol.shape[0], -1).any(axis=1)
        hits = np.nonzero(ok)[0]
        if hits.size:
            return int(masks[hits[0]])
    return -1


def subset_search(pattern, order) -> int:
    """First mask in `order` whose vertex set S has no edge into S
    from outside (pattern[i, j] implies i in S whenever j in S).
    Returns -1 if none qualifies.
    """
    import numpy as np

    pm = np.ascontiguousarray(pattern, dtype=np.bool_).astype(np.int64)
    order = np.ascontiguousarray(order, dtype=np.int64)
    n = pm.shape[0]
    if order.shape[0] == 0:
        return -1
    members = (order[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
    # edges entering the subset from outside, counted per mask
    into = members @ pm.T
    bad = ((1 - members) * into).sum(axis=1)
    hits = np.nonzero(bad == 0)[0]
    return int(order[hits[0]]) if hits.size else -1
