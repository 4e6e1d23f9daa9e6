"""Reference implementations that the fast exact code is tested against.

These are the straightforward rational versions.  For semigroups every
product goes through ``matrix_product``, every canonical form through
``Matrix.scale``, spans are eliminated with ``Scalar`` division, and
group closures are checked by inverting every member.
For cones the dual is computed on canonical ``Fraction`` rays with
``Fraction`` Gauss-Jordan elimination and a ``Scalar`` ``inverse`` for
the initial simplicial cone.  They are slow and obviously correct.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from matsemi import (Caps, Cone, GroupInfo, Matrix, ProjectiveElement, Scalar,
                     SemigroupClosure, canonical_ray, generate_closure, rank)
from matsemi.exact import _as_fraction, inverse, matrix_product
from matsemi.semigroup import _projective_key


def reference_canonical(m: Matrix) -> Matrix:
    """Scale by a positive rational so max(|re|, |im|) over entries is 1."""
    scale = Fraction(0)
    for e in m.entries:
        scale = max(scale, e.max_abs_part())
    if scale == 0:
        return m
    return m.scale(Scalar(1 / scale))


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
        if _projective_key(inverse(e.canonical)) not in closure.keys:
            return GroupInfo(True, False)
    return GroupInfo(True, True)


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
