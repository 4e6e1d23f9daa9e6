"""Reference implementations that the fast exact code is tested against.

These are the straightforward rational versions.  For semigroups every
product goes through ``matrix_product``, every canonical form through
``Matrix.scale``, spans are eliminated with ``Scalar`` division, and
group closures are checked by inverting every member, and key products
are the dense integer loop over every entry.  Ranks are checked
against the integer real form [[A, -B], [B, A]], with its own sign
convention and a separate lcm per row.  Null spaces and inverses are
read off a Gauss-Jordan loop with its own column-pivot search and row
swaps, and rank-one factors take their pivot from a first-nonzero-column
scan.  Theorem conclusions are tested on every closure member rather
than on the generators, and the theorem pipelines decide every member
hypothesis on the member's canonical matrix.
Diagonal similarity is decided on ``Scalar`` values: propagated along
the support graph, reduced to signs when real, and verified by
conjugating every matrix.  Strongly connected components come from an
iterative Tarjan search and are ordered by Kahn's algorithm on a heap.
For cones the dual is computed on canonical ``Fraction`` rays with
``Fraction`` Gauss-Jordan elimination and a ``Scalar`` ``inverse`` for
the initial simplicial cone, and membership, properness and extreme
rays are decided by an exact phase-1 simplex, independently of the
dual.  Entry flags count the nonzeros of every row and every column.
They are slow and obviously correct.  The numeric kernels are
checked against the earlier numpy versions: a shifted power iteration
on float64 arrays and vectorised scans over chunks of masks.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import deque
from fractions import Fraction
from typing import Optional, Sequence

from matsemi import (Caps, Cone, DecompositionKind, DecompositionReport,
                     DiagonalWitness, EntryClassification, Matrix,
                     PatternDigraph, ProjectiveElement, PropernessReport,
                     Ray, Scalar, SemigroupClosure, TheoremReport,
                     canonical_ray, generate_closure, is_irreducible,
                     projective_canonical)
from matsemi.cones import Vec
from matsemi.harness import HypothesisCheck, _validate_theorem_input
from matsemi.exact import (ONE, _as_fraction, _clear, _int_vector, int_rank,
                           inverse, matrix_product, primitive)
from matsemi.semigroup import Key


def reference_canonical(m: Matrix) -> Matrix:
    """Scale by a positive rational so max(|re|, |im|) over entries is 1."""
    scale = Fraction(0)
    for e in m.entries:
        scale = max(scale, abs(e.re), abs(e.im))
    if scale == 0:
        return m
    return m.scale(Scalar(1 / scale))


def _canonical_vector(v: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
    scale = Fraction(0)
    for e in v:
        scale = max(scale, abs(e.re), abs(e.im))
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


def reference_group_info(gens, caps: Caps = Caps()) -> tuple[bool, bool]:
    """(all generators invertible, closure inverse-closed within caps),
    with inverse-closure checked member by member by an exact inverse."""
    n = gens[0].rows
    if not all(rank(g) == n for g in gens):
        return False, False
    closure = generate_closure(gens, caps)
    if closure.truncated:
        return True, False
    members = closure.canonical_matrices()
    for m in members:
        # members are products of invertible generators, so inversion succeeds
        if projective_canonical(inverse(m)) not in members:
            return True, False
    return True, True


def reference_report(theorem: str, hyps, closure: SemigroupClosure,
                     monomial: bool) -> TheoremReport:
    """A pipeline's report with its conclusion tested on every closure
    member: one witness for all members, each conjugated member checked
    to be nonnegative (and monomial for the group theorem)."""
    applicable = all(h.holds for h in hyps.values())
    witness = None
    monomial_check: Optional[bool] = None
    conclusion = False
    notes = []
    if applicable:
        mats = closure.canonical_matrices()
        witness = simultaneous_diag_sim(mats)
        if witness is None:
            notes.append("no simultaneous diagonal similarity exists")
        else:
            facts = [classify_entries(conjugate(witness, m)) for m in mats]
            conclusion = all(f.is_nonnegative for f in facts)
            notes.append(f"witness verified on {len(facts)} members")
            if monomial:
                monomial_check = all(f.is_monomial for f in facts)
                conclusion = conclusion and monomial_check
                if not monomial_check:
                    notes.append("a conjugated member is not monomial")
    else:
        notes.append("hypotheses not established; conclusion untested")
    return TheoremReport(theorem, hyps, applicable, conclusion, witness,
                         monomial_check, "; ".join(notes))


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


def reference_real_form(m: Matrix) -> tuple[list[list[int]], list[int]]:
    """Integer rows of the real form [[A, -B], [B, A]] of m = A + iB.

    Rows i and m.rows + i come from row i of m and are both scaled by
    L_i, the positive lcm of that row's denominators; returns the rows
    and the L_i.  The real form is m acting on C^n = R^n + iR^n, so its
    rank is twice the rank of m, and when m is invertible its inverse is
    the real form of m^-1.
    """
    top: list[list[int]] = []
    bottom: list[list[int]] = []
    dens: list[int] = []
    for i in range(m.rows):
        row = m.row(i)
        parts = [e.re for e in row] + [e.im for e in row]
        den = math.lcm(*(x.denominator for x in parts))
        ints = [x.numerator * (den // x.denominator) for x in parts]
        re, im = ints[:m.cols], ints[m.cols:]
        top.append(re + [-x for x in im])
        bottom.append(im + re)
        dens.append(den)
    return top + bottom, dens


def reference_int_gauss_jordan(
        rows: Sequence[Sequence[int]]
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Fraction-free Gauss-Jordan elimination over integer rows.

    Returns (rows, pivots).  For i < len(pivots), row i has a nonzero
    entry D_i at column pivots[i] and zeros in every other pivot column,
    so it is D_i times row i of the rational reduced row echelon form;
    the rows after those are zero.  Each update clears one entry with
    ``_clear``, so entries stay integers and every row stays primitive.
    D_i may be negative: callers dividing by it must keep its sign.
    """
    work = [primitive(r) for r in rows]
    pivots: list[int] = []
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        prow = work[r]
        for i in range(nrows):
            if i != r and work[i][c]:
                work[i] = _clear(work[i], prow, c)
        pivots.append(c)
        r += 1
    return work, pivots


def reference_int_nullspace(rows: Sequence[Sequence[int]],
                            n: int) -> list[tuple[int, ...]]:
    """The null-space basis of ``int_span``, read off
    ``reference_int_gauss_jordan``."""
    red, pivots = reference_int_gauss_jordan(rows)
    den = math.lcm(*(abs(red[i][p]) for i, p in enumerate(pivots)))
    pivset = set(pivots)
    basis: list[tuple[int, ...]] = []
    for f in range(n):
        if f in pivset:
            continue
        v = [0] * n
        v[f] = den
        for i, p in enumerate(pivots):
            v[p] = -red[i][f] * (den // red[i][p])
        basis.append(primitive(v))
    return basis


def reference_int_inverse_rows(
        b: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """``_int_inverse_rows`` read off ``reference_int_gauss_jordan``:
    [b | I] eliminated to rows D_i e_i | X_i, or ValueError if b is
    singular."""
    n = len(b)
    red, pivots = reference_int_gauss_jordan(
        [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(b)])
    if pivots and pivots[-1] >= n:
        raise ValueError("matrix is singular")
    return red


def reference_rank_one_factor(
        m: Matrix) -> tuple[tuple[Scalar, ...], tuple[Scalar, ...]]:
    """x y^T = m with the pivot found by a first-nonzero-column scan."""
    if rank(m) != 1:
        raise ValueError("rank_one_factor requires a matrix of rank exactly 1")
    pivot_col = -1
    for j in range(m.cols):
        if any(m.entry(i, j) for i in range(m.rows)):
            pivot_col = j
            break
    col = m.col(pivot_col)
    pivot_row = next(i for i, e in enumerate(col) if e)
    scale = col[pivot_row]
    x = tuple(e / scale for e in col)
    y = tuple(m.entry(pivot_row, j) for j in range(m.cols))
    return x, y


def reference_classify_entries(m: Matrix) -> EntryClassification:
    """Entry flags by per-row and per-column counts of nonzeros."""
    is_real = all(e.is_real for e in m.entries)
    is_nonneg = all(e.is_nonneg_real for e in m.entries)
    is_pos = all(e.is_positive_real for e in m.entries)
    is_diag = all(not m.entry(i, j)
                  for i in range(m.rows) for j in range(m.cols) if i != j)
    # monomial: exactly one nonzero entry in every row and every column
    is_monomial = m.is_square
    if is_monomial:
        for i in range(m.rows):
            if sum(1 for e in m.row(i) if e) != 1:
                is_monomial = False
                break
    if is_monomial:
        for j in range(m.cols):
            if sum(1 for e in m.col(j) if e) != 1:
                is_monomial = False
                break
    ndiag = min(m.rows, m.cols)
    has_nonneg_diag = all(m.entry(i, i).is_nonneg_real for i in range(ndiag))
    return EntryClassification(
        is_real=is_real,
        is_nonnegative=is_nonneg,
        is_positive=is_pos,
        is_diagonal=is_diag,
        is_monomial=is_monomial,
        has_nonneg_diagonal=has_nonneg_diag,
    )


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


# -- strongly connected components ----------------------------------------


def _tarjan_sccs(n: int, adj: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan.  Components returned with vertices sorted."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            deeper = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if index[w] == -1:
                    work.append((v, k + 1))
                    work.append((w, 0))
                    deeper = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if deeper:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


def reference_scc_condensation(g: PatternDigraph) -> DecompositionReport:
    """Components in a topological order of the condensation.

    The order is the unique one produced by Kahn's algorithm with ties
    broken by the smallest vertex contained in a component, so reports
    are reproducible.  The permutation concatenates the components; it
    relabels vertices so that the matrix becomes block upper triangular
    (position p holds old vertex permutation[p]).
    """
    comps = _tarjan_sccs(g.n, g.adjacency())
    comp_id = [0] * g.n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_id[v] = ci
    succ: list[set[int]] = [set() for _ in comps]
    indeg = [0] * len(comps)
    for i, j in g.edges:
        a, b = comp_id[i], comp_id[j]
        if a != b and b not in succ[a]:
            succ[a].add(b)
            indeg[b] += 1
    heap = [(comps[ci][0], ci) for ci in range(len(comps)) if indeg[ci] == 0]
    heapq.heapify(heap)
    ordered: list[int] = []
    while heap:
        _, ci = heapq.heappop(heap)
        ordered.append(ci)
        for cj in succ[ci]:
            indeg[cj] -= 1
            if indeg[cj] == 0:
                heapq.heappush(heap, (comps[cj][0], cj))
    sccs = tuple(tuple(comps[ci]) for ci in ordered)
    count = len(sccs)
    if count == 1:
        kind = DecompositionKind.INDECOMPOSABLE
    elif count == 2:
        kind = DecompositionKind.ONE_DECOMPOSABLE
    else:
        kind = DecompositionKind.MULTI_DECOMPOSABLE
    permutation = tuple(v for comp in sccs for v in comp)
    return DecompositionReport(kind=kind, scc_count=count, sccs=sccs,
                               permutation=permutation)


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


# -- numpy kernels ---------------------------------------------------------

# Masks per numpy batch in both exhaustive scans: large enough to
# amortise the Python loop, small enough that memory stays flat in n.
MASK_CHUNK = 2048


def reference_power_iteration(a, tol: float, max_iters: int):
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


def reference_sign_search(signs) -> int:
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
    for start in range(0, total, MASK_CHUNK):
        masks = np.arange(start, min(start + MASK_CHUNK, total),
                          dtype=np.int64)
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


def reference_subset_search(pattern, order) -> int:
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


# -- theorem pipelines -----------------------------------------------------
#
# The pipelines as they were before member facts were decided on closure
# keys, verbatim but for the names of the two entry points: every member
# fact is decided on the member's canonical matrix.  Closures and
# irreducibility come from matsemi.  Rank, feasibility, components,
# conjugation and entry flags go through names bound here to routines
# of this module, so a fault in a routine that the fast pipelines share
# with the Matrix path shows as a difference.  The other references in
# this module use these names too.


def reference_rank(m: Matrix) -> int:
    """Rank read off Gauss-Jordan elimination of the real form, whose
    rank is twice that of m."""
    return len(reference_int_gauss_jordan(reference_real_form(m)[0])[1]) // 2


def diag_sim_nonneg(m: Matrix) -> Optional[DiagonalWitness]:
    return reference_simultaneous_diag_sim([m])


def classify_decomposability(m: Matrix) -> DecompositionReport:
    return reference_scc_condensation(PatternDigraph(m.rows, frozenset(
        (i, j) for i in range(m.rows) for j in range(m.cols)
        if m.entry(i, j))))


rank = reference_rank
conjugate = reference_conjugate
classify_entries = reference_classify_entries
simultaneous_diag_sim = reference_simultaneous_diag_sim

# The irreducibility check of both pipelines, one shared report per verdict.
_IRREDUCIBLE = {
    True: HypothesisCheck(True, "generated algebra has full dimension"),
    False: HypothesisCheck(False, "generated algebra spans a proper subspace"),
}



def _report(theorem: str, hyps: dict[str, HypothesisCheck],
            gens: Sequence[Matrix], members: Sequence[ProjectiveElement],
            monomial: bool) -> TheoremReport:
    """A pipeline's report, its conclusion tested on the generators.

    Conjugation by a diagonal D is multiplicative.  The generators are
    members, each member is a positive multiple of a product of them,
    and products of nonnegative (monomial) matrices are nonnegative
    (monomial), so D makes all ``members`` so exactly when it makes all
    generators so.  When the hypotheses hold, ``members`` is the whole
    closure, where a generator's class has the one-letter word of its
    first generator: one generator per class is tested.
    """
    if not all(h.holds for h in hyps.values()):
        return TheoremReport(theorem, hyps, False, False, None, None,
                             "hypotheses not established; conclusion untested")
    gens = [gens[e.word[0]] for e in members if len(e.word) == 1]
    witness = simultaneous_diag_sim(gens)
    if witness is None:
        return TheoremReport(theorem, hyps, True, False, None, None,
                             "no simultaneous diagonal similarity exists")
    conj = [conjugate(witness, g) for g in gens]
    conclusion = all(x.is_nonneg_real for c in conj for x in c.entries)
    notes = f"witness verified on {len(members)} members"
    monomial_check = None
    if monomial:
        monomial_check = all(classify_entries(c).is_monomial for c in conj)
        conclusion = conclusion and monomial_check
        if not monomial_check:
            notes += "; a conjugated member is not monomial"
    return TheoremReport(theorem, hyps, True, conclusion, witness,
                         monomial_check, notes)


def reference_verify_group_theorem(gens: Sequence[Matrix],
                         caps: Caps = Caps()) -> TheoremReport:
    """Irreducible groups with nonnegative diagonals become nonnegative
    monomial groups under one diagonal similarity.

    Hypotheses: the capped closure is a finite inverse-closed group of
    invertible matrices; the generators act irreducibly; every closure
    member has a nonnegative diagonal.  When all hold, one witness must
    make every generator nonnegative and monomial (see ``_report``).

    A complete closure of invertible classes is a group: the powers of
    a member g fall in finitely many classes, so g^k = c * g^l for some
    k > l and c > 0, and g^-1 is in the class of g^(k-l-1) (of g itself
    when k = l + 1).
    """
    n = _validate_theorem_input(gens)
    closure = generate_closure(gens, caps)
    hyps: dict[str, HypothesisCheck] = {}

    if closure.truncated:
        a = HypothesisCheck(False, (
            f"closure truncated at {len(closure.elements)} elements; "
            "group property not established"))
    elif not all(rank(g) == n for g in gens):
        a = HypothesisCheck(False, "a generator is singular")
    else:
        a = HypothesisCheck(True, (
            f"projective group with {len(closure.elements)} elements, "
            "inverse-closed"))
    hyps["closure_is_group_within_caps"] = a

    hyps["irreducible"] = _IRREDUCIBLE[is_irreducible(gens)]

    bad = [idx for idx, e in enumerate(closure.elements)
           if not all(e.canonical.entry(i, i).is_nonneg_real
                      for i in range(n))]
    detail = ("every member has a nonnegative diagonal" if not bad
              else f"member {bad[0]} has a negative or non-real diagonal entry")
    if closure.truncated:
        detail += " (only the truncated closure was checked)"
    hyps["nonneg_diagonals"] = HypothesisCheck(not bad, detail)

    return _report("Group", hyps, gens, closure.elements, True)


def reference_verify_semigroup_theorem(gens: Sequence[Matrix],
                             caps: Caps = Caps()) -> TheoremReport:
    """Irreducible semigroups of individually feasible members whose
    rank >= 2 members have at most two diagonal blocks are feasible as
    a whole.

    For n = 2 the block-structure hypothesis is skipped (every 2x2
    matrix has at most two components), hence the distinct theorem id.
    """
    n = _validate_theorem_input(gens)
    closure = generate_closure(gens, caps)
    hyps: dict[str, HypothesisCheck] = {}

    hyps["irreducible"] = _IRREDUCIBLE[is_irreducible(gens)]

    if closure.truncated:
        hyps["members_individually_feasible"] = HypothesisCheck(
            False, (f"closure truncated at {len(closure.elements)} elements; "
                    "member quantification not established"))
    else:
        infeasible = [idx for idx, e in enumerate(closure.elements)
                      if diag_sim_nonneg(e.canonical) is None]
        hyps["members_individually_feasible"] = HypothesisCheck(
            not infeasible,
            f"all {len(closure.elements)} members feasible" if not infeasible
            else f"member {infeasible[0]} admits no diagonal witness")

    if n >= 3:
        if closure.truncated:
            hyps["rank2_members_block_structured"] = HypothesisCheck(
                False, "closure truncated; member quantification "
                       "not established")
        else:
            offenders = [
                idx for idx, e in enumerate(closure.elements)
                if rank(e.canonical) >= 2
                and classify_decomposability(e.canonical).scc_count > 2
            ]
            hyps["rank2_members_block_structured"] = HypothesisCheck(
                not offenders,
                "every rank >= 2 member has at most two components"
                if not offenders else
                f"member {offenders[0]} has rank >= 2 and more than "
                "two components")

    return _report("Semigroup2x2" if n == 2 else "Semigroup", hyps, gens,
                   closure.elements, False)
