"""Reference implementations that the fast exact code is tested against.

These are the straightforward rational versions.  For semigroups every
product goes through ``matrix_product``, every canonical form through
``Matrix.scale``, spans are eliminated with ``Scalar`` division, and
group closures are checked by inverting every member, and key products
are the dense integer loop over every entry.  Diagonal similarity is
decided on ``Scalar`` values: propagated along the support graph, reduced
to signs when real, and verified by conjugating every matrix.
For cones the dual is computed on canonical ``Fraction`` rays with
``Fraction`` Gauss-Jordan elimination and a ``Scalar`` ``inverse`` for
the initial simplicial cone, and membership, properness and extreme
rays are decided by an exact phase-1 simplex, independently of the
dual.  They are slow and obviously correct.
"""

from __future__ import annotations

import functools
from collections import deque
from fractions import Fraction
from typing import Optional, Sequence

from matsemi import (Caps, Cone, DiagonalWitness, GroupInfo, Matrix,
                     ProjectiveElement, PropernessReport, Ray, Scalar,
                     SemigroupClosure, canonical_ray, generate_closure, rank)
from matsemi.cones import Vec
from matsemi.exact import (ONE, _as_fraction, _int_vector, int_rank, inverse,
                           matrix_product, primitive)
from matsemi.semigroup import Key


def reference_canonical(m: Matrix) -> Matrix:
    """Scale by a positive rational so max(|re|, |im|) over entries is 1."""
    scale = Fraction(0)
    for e in m.entries:
        scale = max(scale, e.max_abs_part())
    if scale == 0:
        return m
    return m.scale(Scalar(1 / scale))


def _canonical_vector(v: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
    scale = Fraction(0)
    for e in v:
        scale = max(scale, e.max_abs_part())
    if scale == 0:
        return v
    s = Scalar(1 / scale)
    return tuple(s * e for e in v)


def reference_closure(gens, caps: Caps = Caps()) -> SemigroupClosure:
    """BFS closure on canonical matrices, by word length then word."""
    elements: dict[Matrix, ProjectiveElement] = {}
    order: list[Matrix] = []
    truncated = False
    for gi, g in enumerate(gens):
        c = reference_canonical(g)
        if c not in elements:
            if len(elements) >= caps.max_elements:
                truncated = True
                continue
            elements[c] = ProjectiveElement(c, (gi,))
            order.append(c)
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        ue = elements[u]
        extendable = len(ue.word) < caps.max_word_length
        for gi, g in enumerate(gens):
            c = reference_canonical(matrix_product(u, g))
            if c in elements:
                continue
            if not extendable or len(elements) >= caps.max_elements:
                truncated = True
                continue
            elements[c] = ProjectiveElement(c, ue.word + (gi,))
            order.append(c)
    return SemigroupClosure(
        elements=tuple(elements[c] for c in order),
        truncated=truncated,
        caps=caps,
    )


def reference_algebra_dimension(gens) -> int:
    """Dimension of the span of all words in gens and the identity."""
    n = gens[0].rows
    basis: list[list[Scalar]] = []

    def try_add(m: Matrix) -> bool:
        row = list(m.entries)
        for e in basis:
            lead = next(i for i, x in enumerate(e) if x)
            if row[lead]:
                f = row[lead] / e[lead]
                row = [x - f * y for x, y in zip(row, e)]
        if any(row):
            basis.append(row)
            return True
        return False

    frontier = [m for m in [Matrix.identity(n), *gens] if try_add(m)]
    while frontier and len(basis) < n * n:
        nxt = []
        for m in frontier:
            for g in gens:
                for prod in (matrix_product(m, g), matrix_product(g, m)):
                    if try_add(prod):
                        nxt.append(prod)
        frontier = nxt
    return len(basis)


def reference_group_info(gens, caps: Caps = Caps(), closure=None) -> GroupInfo:
    """Inverse-closure checked member by member with an exact inverse."""
    n = gens[0].rows
    all_invertible = all(rank(g) == n for g in gens)
    if not all_invertible:
        return GroupInfo(False, False)
    if closure is None:
        closure = generate_closure(gens, caps)
    if closure.truncated:
        return GroupInfo(True, False)
    for e in closure.elements:
        # members are products of invertible generators, so inversion succeeds
        if not closure.contains_matrix(inverse(e.canonical)):
            return GroupInfo(True, False)
    return GroupInfo(True, True)


def reference_key_product(a: Key, b: Key, n: int) -> Key:
    """Key of the product of the n x n matrices with keys a and b."""
    out: list[int] = []
    row_len = 2 * n
    for i in range(0, row_len * n, row_len):
        arow = a[i:i + row_len]
        for j in range(0, row_len, 2):
            re = im = 0
            for k in range(0, row_len, 2):
                x = arow[k]
                y = arow[k + 1]
                if x or y:
                    bk = k * n + j
                    u = b[bk]
                    v = b[bk + 1]
                    re += x * u - y * v
                    im += x * v + y * u
            out.append(re)
            out.append(im)
    return primitive(out)


# -- diagonal similarity ---------------------------------------------------

_MINUS_ONE = Scalar(-1)


def reference_conjugate(w: DiagonalWitness, m: Matrix) -> Matrix:
    """D m D^{-1}, entrywise d_i * m_ij / d_j.

    Each 1/d_j is formed once.  Diagonal and zero entries are kept as
    they are, and an entry whose ratio d_i/d_j is +1 or -1 is copied or
    negated, so sign witnesses cost no multiplications.
    """
    if not m.is_square or m.rows != len(w.d):
        raise ValueError("witness size does not match matrix")
    n = m.rows
    d = w.d
    neg = [-x for x in d]
    inv = [ONE / x for x in d]
    flat = list(m.entries)
    for i in range(n):
        di = d[i]
        for j in range(n):
            e = flat[i * n + j]
            if i == j or not e or di == d[j]:
                continue
            flat[i * n + j] = -e if di == neg[j] else di * e * inv[j]
    return Matrix(n, n, flat)


def _support_adjacency(ms: Sequence[Matrix]) -> list[list[int]]:
    n = ms[0].rows
    nbr: list[set[int]] = [set() for _ in range(n)]
    for m in ms:
        for i in range(n):
            for j in range(n):
                if i != j and (m.entry(i, j) or m.entry(j, i)):
                    nbr[i].add(j)
                    nbr[j].add(i)
    return [sorted(s) for s in nbr]


def _edge_constraint(ms: Sequence[Matrix], u: int, v: int) -> Scalar:
    """Value forced for d_v given d_u = 1, from the first nonzero entry.

    Scans members in order, orientation (u, v) before (v, u).  A valid
    witness must make d_u * m_uv / d_v positive, so d_v = d_u * m_uv up
    to positive scaling; the reverse orientation forces d_v = d_u / m_vu.
    """
    for m in ms:
        e = m.entry(u, v)
        if e:
            return e
        e = m.entry(v, u)
        if e:
            return ONE / e
    raise AssertionError("no constraint on a support edge")


def _propagate(ms: Sequence[Matrix]) -> tuple[Scalar, ...]:
    n = ms[0].rows
    adj = _support_adjacency(ms)
    d: list[Optional[Scalar]] = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = ONE
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if d[v] is None:
                    d[v] = d[u] * _edge_constraint(ms, u, v)
                    queue.append(v)
    return tuple(x if x is not None else ONE for x in d)


def _sign_reduce(d: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
    # real case: only the signs matter, so collapse magnitudes to 1
    return tuple(ONE if x.re > 0 else _MINUS_ONE for x in d)


def reference_simultaneous_diag_sim(
        ms: Sequence[Matrix]) -> Optional[DiagonalWitness]:
    """One witness D making every D m D^{-1} nonnegative, or None."""
    if not ms:
        raise ValueError("empty matrix collection")
    n = ms[0].rows
    for m in ms:
        if not m.is_square:
            raise ValueError("diagonal similarity requires square matrices")
        if m.rows != n:
            raise ValueError("all matrices must have the same size")
    d = _propagate(ms)
    if all(x.is_real for x in d):
        d = _sign_reduce(d)
    w = DiagonalWitness(d)
    for m in ms:
        if not all(x.is_nonneg_real for x in reference_conjugate(w, m).entries):
            return None
    return w


# -- cones -----------------------------------------------------------------


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot column indices)."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        p = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def _frac_rank(rows) -> int:
    return len(_rref(rows)[1])


def _nullspace(rows, n):
    """Deterministic basis of {x : rows @ x = 0} via RREF free columns."""
    if not rows:
        return [tuple(Fraction(1 if i == j else 0) for i in range(n))
                for j in range(n)]
    red, pivots = _rref(rows)
    pivset = set(pivots)
    basis = []
    for free in range(n):
        if free in pivset:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for ri, p in enumerate(pivots):
            v[p] = -red[ri][free]
        basis.append(tuple(v))
    return basis


def _independent_subset(vecs) -> list[int]:
    """Indices of a maximal independent subset, greedily in given order."""
    ech: list[list[Fraction]] = []
    keep: list[int] = []
    for idx, v in enumerate(vecs):
        row = list(v)
        for e in ech:
            lead = next(i for i, x in enumerate(e) if x != 0)
            if row[lead] != 0:
                f = row[lead] / e[lead]
                row = [x - f * y for x, y in zip(row, e)]
        if any(x != 0 for x in row):
            ech.append(row)
            keep.append(idx)
    return keep


def _dd_insert(rays, processed, h, ambient_rank):
    """One double description step: intersect cone(rays) with h.x >= 0."""
    s = [_dot(h, r) for r in rays]
    pos = [i for i, x in enumerate(s) if x > 0]
    zer = [i for i, x in enumerate(s) if x == 0]
    neg = [i for i, x in enumerate(s) if x < 0]
    if not neg:
        return rays
    active = [[i for i, c in enumerate(processed) if _dot(c, r) == 0]
              for r in rays]
    out = {}
    for i in pos:
        out[rays[i]] = None
    for i in zer:
        out[rays[i]] = None
    for p in pos:
        zp = set(active[p])
        for q in neg:
            common = [processed[i] for i in active[q] if i in zp]
            if _frac_rank(common) != ambient_rank - 2:
                continue
            w = tuple(s[p] * x - s[q] * y
                      for x, y in zip(rays[q], rays[p]))
            out[canonical_ray(w)] = None
    return list(out)


@functools.lru_cache(maxsize=512)
def reference_dual_ray_vectors(cone: Cone):
    """Canonical Fraction rays of the dual cone, sorted."""
    n = cone.dim
    gens = [r.v for r in cone.rays]
    if not gens:
        out = []
        for j in range(n):
            e = [Fraction(0)] * n
            e[j] = Fraction(1)
            out.append(tuple(e))
            out.append(tuple(-x for x in e))
        return tuple(sorted(out))
    basis_idx = _independent_subset(gens)
    d = len(basis_idx)
    w = [gens[i] for i in basis_idx]
    lineality = _nullspace(gens, n)
    proj = [tuple(_dot(g, wj) for wj in w) for g in gens]
    bmat = Matrix.from_rows([[Scalar(x) for x in proj[i]] for i in basis_idx])
    binv = inverse(bmat)
    rays_u = []
    for j in range(d):
        col = tuple(binv.entry(i, j).re for i in range(d))
        rays_u.append(canonical_ray(col))
    processed = [proj[i] for i in basis_idx]
    for idx, h in enumerate(proj):
        if idx in basis_idx:
            continue
        rays_u = _dd_insert(rays_u, processed, h, d)
        processed.append(h)
    out_vecs = set()
    for u in rays_u:
        x = [Fraction(0)] * n
        for j in range(d):
            if u[j] != 0:
                x = [a + u[j] * c for a, c in zip(x, w[j])]
        out_vecs.add(canonical_ray(x))
    for ell in lineality:
        out_vecs.add(canonical_ray(ell))
        out_vecs.add(canonical_ray(tuple(-x for x in ell)))
    return tuple(sorted(out_vecs))


def reference_contains(k: Cone, v) -> bool:
    """Membership via the dual inequalities, in Fractions."""
    w = tuple(_as_fraction(x) for x in v)
    if len(w) != k.dim:
        raise ValueError("vector dimension does not match cone")
    return all(_dot(c, w) >= 0 for c in reference_dual_ray_vectors(k))


def reference_is_invariant(m: Matrix, k: Cone) -> bool:
    """Whether m maps the cone into itself, with Fraction images."""
    duals = reference_dual_ray_vectors(k)
    for r in k.rays:
        img = [sum((m.entry(i, j).re * r.v[j] for j in range(k.dim)),
                   Fraction(0)) for i in range(k.dim)]
        for c in duals:
            if _dot(c, tuple(img)) < 0:
                return False
    return True


# -- exact phase-1 simplex ----------------------------------------------


def _nonneg_combination(columns: Sequence[Vec],
                        target: Vec) -> Optional[list[Fraction]]:
    """Coefficients c >= 0 with sum c_k * columns[k] == target, or None.

    Phase-1 simplex over exact rationals.  Bland's rule (smallest index
    enters, smallest basis index on ratio ties) rules out cycling, so
    termination is unconditional.
    """
    m = len(target)
    n = len(columns)
    if n == 0:
        return [] if all(x == 0 for x in target) else None
    rows = [[columns[k][i] for k in range(n)] for i in range(m)]
    b = list(target)
    for i in range(m):
        if b[i] < 0:
            b[i] = -b[i]
            rows[i] = [-x for x in rows[i]]
    # tableau columns: n structural + m artificial + rhs
    tab = [rows[i]
           + [Fraction(1 if j == i else 0) for j in range(m)]
           + [b[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    # reduced costs for minimizing the sum of artificials
    obj = [Fraction(0)] * (n + m + 1)
    for j in range(n + m):
        cj = Fraction(0) if j < n else Fraction(1)
        obj[j] = cj - sum(tab[i][j] for i in range(m))
    obj[n + m] = -sum(b)  # negated objective value
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = -1
        best: Optional[Fraction] = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][n + m] / tab[i][enter]
                if (best is None or ratio < best
                        or (ratio == best and basis[i] < basis[leave])):
                    best = ratio
                    leave = i
        if leave < 0:
            # phase-1 objective is bounded below by zero
            raise AssertionError("unbounded phase-1 pivot")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter
    value = sum(tab[i][n + m] for i in range(m) if basis[i] >= n)
    if value != 0:
        return None
    out = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            out[basis[i]] = tab[i][n + m]
    return out


def reference_properness(k: Cone) -> PropernessReport:
    gens = [r.v for r in k.rays]
    solid = int_rank([_int_vector(g) for g in gens]) == k.dim
    if not gens:
        pointed = True
    else:
        # pointed iff no nonzero nonnegative combination vanishes
        cols = [g + (Fraction(1),) for g in gens]
        tgt = tuple([Fraction(0)] * k.dim + [Fraction(1)])
        pointed = _nonneg_combination(cols, tgt) is None
    return PropernessReport(is_pointed=pointed, is_solid=solid,
                            is_proper=pointed and solid)


def reference_extreme_rays(k: Cone) -> tuple[Ray, ...]:
    """The irredundant generators.  Requires a pointed cone."""
    if not reference_properness(k).is_pointed:
        raise ValueError("extreme rays are only defined for pointed cones")
    keep = [r.v for r in k.rays]
    for v in [r.v for r in k.rays]:
        if v not in keep:
            continue
        others = [u for u in keep if u != v]
        if not others:
            continue
        if _nonneg_combination(others, v) is not None:
            keep = others
    return tuple(Ray(v) for v in keep)
