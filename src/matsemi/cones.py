"""Finitely generated polyhedral cones over the rationals, exactly.

Cones are stored by generators (V-representation).  Public rays are
canonical ``Fraction`` vectors (largest |coordinate| 1).  Inside, the
duality code works on primitive integer vectors: integer vectors whose
entries have gcd 1, each standing for its ray up to positive scaling.
Every elimination goes through the fraction-free core in
:mod:`matsemi.exact`.

The dual cone is computed with the double description method:
constraints are the generators of the primal, an initial simplicial
cone comes from a maximal independent subset of them, and the remaining
constraints are inserted one at a time, combining only adjacent ray
pairs.  Adjacency is the algebraic test: two extreme rays are adjacent
iff the rank of their common active constraints is two less than the
ambient rank.  Each step (dot products, the rank test,
``s_p r_q - s_q r_p`` and its gcd) is integer and commutes with
positive scaling, so it finds the rays the rational computation finds;
``dual`` turns them back into canonical ``Fraction`` rays.  The
independent subset and the null space of the generators, whose +-
directions the dual also holds, come from one echelon basis; when the
generators span everything the steps run on them directly.

Each cone's rays are cleared to primitive integer vectors the first
time they are needed and kept on the cone.  The cached entry holding
them and the dual vectors is what every operation reads.  Integer
query coordinates are used as given; only other coordinates are
cleared by a positive lcm, and a matrix's entries once per call.
``dual`` returns one shared ``Cone`` per integer dual while any caller
holds it, and ``properness`` one shared report per outcome, so a kept
answer costs little.  Properness and extreme rays are read off the
cached dual, since
the largest subspace inside K is the orthogonal complement of span K*
(Schrijver, *Theory of Linear and Integer Programming*, ch. 8):

- K is pointed iff K* is solid, i.e. the dual vectors have rank dim;
- a generator g of a pointed K is extreme iff the dual vectors c with
  c.g = 0 have rank dim - 1.  Those c cut out the smallest face of K
  containing g, whose dimension is dim minus their rank.
"""

from __future__ import annotations

import functools
import operator
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import (Matrix, RationalLike, _as_fraction, _int_vector,
                    int_inverse_columns, int_rank, int_span, primitive)

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


# Canonical rays are mostly 0 and +-1; sharing these keeps cones small.
_UNITS = (Fraction(-1), Fraction(0), Fraction(1))


def _int_ray(v: Sequence[RationalLike]) -> IntVec:
    """A positive integer multiple of v: v itself if its coordinates are
    ints, else v times the lcm of its denominators."""
    v = tuple(v)
    if all(type(x) is int for x in v):
        return v
    return _int_vector([_as_fraction(x) for x in v])


def _canonical(v: IntVec) -> Vec:
    """The canonical ray of an integer vector: v / max |v_i|."""
    m = max(map(abs, v), default=0)
    if m == 0:
        raise ValueError("zero vector cannot represent a ray")
    # |x / m| <= 1, so an integer quotient is -1, 0 or 1
    return tuple(_UNITS[x // m + 1] if x % m == 0 else Fraction(x, m)
                 for x in v)


def canonical_ray(v: Sequence[RationalLike]) -> Vec:
    """Scale by a positive rational so the largest |coordinate| is 1."""
    return _canonical(_int_ray(v))


@dataclass(frozen=True, slots=True)
class Ray:
    """A ray of a cone, stored in canonical form."""

    v: Vec

    def __post_init__(self):
        if not self.v:
            raise ValueError("ray needs at least one coordinate")
        if max(abs(x) for x in self.v) != 1:
            raise ValueError("ray is not in canonical form")

    @staticmethod
    def of(coords: Sequence[RationalLike]) -> "Ray":
        return Ray(canonical_ray(coords))


@dataclass(frozen=True)
class Cone:
    """cone(rays) in Q^dim.  Rays are canonical, distinct, sorted."""

    dim: int
    rays: tuple[Ray, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("cone dimension must be positive")
        for r in self.rays:
            if len(r.v) != self.dim:
                raise ValueError("ray dimension mismatch")
        vs = [r.v for r in self.rays]
        if sorted(set(vs)) != list(vs):
            raise ValueError("rays must be deduplicated and sorted")
        # Cones key the dual cache, so hash the Fraction coordinates once;
        # kept outside the fields, so eq, repr and asdict do not see it.
        object.__setattr__(self, "_hash", hash((self.dim, self.rays)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(dim: int, rays: Sequence[Sequence[RationalLike]]) -> "Cone":
        return _primitive_cone(dim, {primitive(_int_ray(v)) for v in rays})


def _primitive_cone(dim: int, vecs: Iterable[IntVec]) -> Cone:
    """The cone of distinct primitive integer vectors, keeping them as
    its integer generators."""
    pairs = sorted((_canonical(v), v) for v in vecs)
    k = Cone(dim, tuple(Ray(c) for c, _ in pairs))
    object.__setattr__(k, "_gens", tuple(v for _, v in pairs))
    return k


def _int_gens(k: Cone) -> tuple[IntVec, ...]:
    """k's rays as primitive integer vectors, in ray order: cleared the
    first time they are needed and kept on k."""
    gens = getattr(k, "_gens", None)
    if gens is None:
        gens = tuple(primitive(_int_vector(r.v)) for r in k.rays)
        object.__setattr__(k, "_gens", gens)
    return gens


@dataclass(frozen=True, slots=True)
class PropernessReport:
    is_pointed: bool
    is_solid: bool
    is_proper: bool


# -- cone operations ------------------------------------------------------


# Most entries the null space of a cone's generators may hold: n per
# free direction in dimension n.  The dual holds each direction and its
# negative, so a larger null space raises ValueError before it is built.
# The empty cone in dimension 1000, the largest admitted, gets its dual
# in about 2 s (2-vCPU VM, CPython 3.11.7), most of it spent building
# the 2000 Fraction rays; in dimension 10**8 the null space alone would
# need 10**16 entries.
MAX_NULLSPACE_ENTRIES = 10**6

# Most positive x negative ray pairs one double description step may
# combine; a larger step raises ValueError before any pair is tried, as
# the ray set can grow by a factor per step.  A step costs about 0.15 s
# per million pairs (2-vCPU VM, CPython 3.11.7); README "Numeric
# kernels" gives the seeded cones this bound refuses and admits.
MAX_DD_PAIRS = 10**6


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def _dd_insert(rays: list[IntVec], processed: list[IntVec], h: IntVec,
               ambient_rank: int) -> list[IntVec]:
    """One double description step: intersect cone(rays) with h.x >= 0."""
    s = [_dot(h, r) for r in rays]
    pos = [i for i, x in enumerate(s) if x > 0]
    zer = [i for i, x in enumerate(s) if x == 0]
    neg = [i for i, x in enumerate(s) if x < 0]
    if not neg:
        return rays
    if len(pos) * len(neg) > MAX_DD_PAIRS:
        raise ValueError(f"cone duality is limited to {MAX_DD_PAIRS} ray "
                         f"pairs per step, got {len(pos)} x {len(neg)}")
    active = [{i for i, c in enumerate(processed) if _dot(c, r) == 0}
              for r in rays]
    out = dict.fromkeys(rays[i] for i in pos + zer)
    for p in pos:
        for q in neg:
            common = active[p] & active[q]
            # rank <= row count, so too few common constraints never pass
            if (len(common) < ambient_rank - 2
                    or int_rank([processed[i] for i in common])
                    != ambient_rank - 2):
                continue
            out[primitive([s[p] * x - s[q] * y
                           for x, y in zip(rays[q], rays[p])])] = None
    return list(out)


@functools.lru_cache(maxsize=512)
def _dual_ray_vectors(cone: Cone) -> tuple[tuple[IntVec, ...],
                                            tuple[IntVec, ...]]:
    """Primitive integer generators of the cone, in ray order, and of its
    dual, distinct and sorted: the one integer form of the cone."""
    n = cone.dim
    gens = _int_gens(cone)
    basis_idx, lineality = int_span(gens, n, MAX_NULLSPACE_ENTRIES)
    d = len(basis_idx)
    w = [gens[i] for i in basis_idx]  # basis of the span of the generators
    # The pointed part of the dual lives in the span.  Unless the span is
    # everything, work in coordinates u with x = sum u_j w_j.
    proj = gens if d == n else [primitive([_dot(g, wj) for wj in w])
                                for g in gens]
    processed = [proj[i] for i in basis_idx]
    rays_u = int_inverse_columns(processed)
    in_basis = set(basis_idx)
    for idx, h in enumerate(proj):
        if idx in in_basis:
            continue
        rays_u = _dd_insert(rays_u, processed, h, d)
        processed.append(h)
    out_vecs = set(rays_u) if d == n else {
        primitive([_dot(u, col) for col in zip(*w)]) for u in rays_u}
    for ell in lineality:  # dual contains +- these directions
        out_vecs.add(ell)
        out_vecs.add(tuple(-x for x in ell))
    return gens, tuple(sorted(out_vecs))


# The duals some caller still holds, by dimension and dual vectors, so an
# equal dual is returned as the same Cone while it is referenced anywhere.
_DUALS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def dual(k: Cone) -> Cone:
    """The dual cone {x : r.x >= 0 for every generator r of k}.

    While some caller still holds an equal dual, that same Cone is
    returned; a new one is built from the integer dual vectors.
    """
    duals = _dual_ray_vectors(k)[1]
    key = k.dim, duals
    d = _DUALS.get(key)
    if d is None:
        d = _DUALS[key] = _primitive_cone(k.dim, duals)
    return d


# A report is immutable, so each outcome has one.
_REPORTS = {(pointed, solid): PropernessReport(pointed, solid,
                                               pointed and solid)
            for pointed in (False, True) for solid in (False, True)}


def properness(k: Cone) -> PropernessReport:
    gens, duals = _dual_ray_vectors(k)
    # K is pointed iff its dual is solid
    return _REPORTS[int_rank(duals) == k.dim, int_rank(gens) == k.dim]


def extreme_rays(k: Cone) -> tuple[Ray, ...]:
    """The irredundant generators, in k's order.  Requires a pointed cone.

    A generator g is extreme iff the dual vectors vanishing on g have
    rank dim - 1; the +-lineality vectors of the dual vanish on every g.
    When every generator is extreme the answer is k.rays itself.
    """
    gens, duals = _dual_ray_vectors(k)
    if int_rank(duals) != k.dim:
        raise ValueError("extreme rays are only defined for pointed cones")
    ext = tuple(r for r, g in zip(k.rays, gens)
                if int_rank([c for c in duals if _dot(c, g) == 0])
                == k.dim - 1)
    return k.rays if len(ext) == len(k.rays) else ext


def contains(k: Cone, v: Sequence[RationalLike]) -> bool:
    """Membership via the dual inequalities."""
    iv = _int_ray(v)
    if len(iv) != k.dim:
        raise ValueError("vector dimension does not match cone")
    for c in _dual_ray_vectors(k)[1]:
        if _dot(c, iv) < 0:
            return False
    return True


def is_invariant(m: Matrix, k: Cone) -> bool:
    """Whether m maps the cone into itself (checked on generators)."""
    if not m.is_square or m.rows != k.dim:
        raise ValueError("matrix size does not match cone dimension")
    if any(e.im for e in m.entries):
        raise ValueError("cone invariance is defined for real matrices")
    gens, duals = _dual_ray_vectors(k)
    n = k.dim
    flat = _int_vector([e.re for e in m.entries])
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    for g in gens:
        img = [_dot(row, g) for row in rows]
        for c in duals:
            if _dot(c, img) < 0:
                return False
    return True
