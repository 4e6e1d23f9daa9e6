import hashlib
import math
import random
from fractions import Fraction

import pytest

from matsemi import (Cone, Matrix, Ray, canonical_ray, contains, dual,
                     extreme_rays, is_invariant, properness)
from matsemi import cones
from matsemi.exact import _int_vector, primitive
from _fx import M, ones
from _reference import (_nonneg_combination, reference_contains,
                        reference_dual_ray_vectors, reference_extreme_rays,
                        reference_is_invariant, reference_properness)


def frac_rays(k):
    return [r.v for r in k.rays]


def orthant(n):
    return Cone.of(n, [[1 if i == j else 0 for i in range(n)]
                       for j in range(n)])


def random_cone(rng, n, nrays):
    rays = []
    while len(rays) < nrays:
        v = [rng.randint(-3, 3) for _ in range(n)]
        if any(v):
            rays.append(v)
    return Cone.of(n, rays)


def random_pointed_cone(rng, n, nrays):
    for _ in range(50):
        k = random_cone(rng, n, nrays)
        if properness(k).is_pointed:
            return k
    raise AssertionError("could not sample a pointed cone")


def test_canonical_ray():
    assert canonical_ray([2, -4]) == (Fraction(1, 2), Fraction(-1))
    assert canonical_ray([Fraction(1, 3)]) == (Fraction(1),)
    with pytest.raises(ValueError):
        canonical_ray([0, 0])


def test_ray_and_cone_validation():
    with pytest.raises(ValueError):
        Ray((Fraction(2),))  # not canonical
    k = Cone.of(2, [[2, 0], [1, 0], [0, 3]])
    assert frac_rays(k) == [(Fraction(0), Fraction(1)),
                            (Fraction(1), Fraction(0))]
    with pytest.raises(ValueError):
        Cone(2, (Ray((Fraction(1), Fraction(0))),
                 Ray((Fraction(1), Fraction(0)))))


def test_dual_orthant_fixed_point():
    for n in range(2, 6):
        assert frac_rays(dual(orthant(n))) == frac_rays(orthant(n))


def test_dual_of_zero_cone_is_everything():
    z = Cone.of(3, [])
    d = dual(z)
    # +-e_i for each axis
    assert len(d.rays) == 6
    for v in [(1, 0, 0), (-1, 0, 0), (3, -2, 1)]:
        assert contains(d, v)


def test_dual_halfline_has_lineality():
    k = Cone.of(2, [[1, 0]])
    d = dual(k)
    assert set(frac_rays(d)) == {
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1)),
    }
    rep = properness(d)
    assert not rep.is_pointed and rep.is_solid


def test_dual_of_full_line_is_orthogonal_complement():
    k = Cone.of(2, [[1, 1], [-1, -1]])
    d = dual(k)
    assert set(frac_rays(d)) == {
        (Fraction(1), Fraction(-1)),
        (Fraction(-1), Fraction(1)),
    }


def test_dual_known_order_cone():
    K3 = Cone.of(3, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    want = sorted([
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(-1)),
    ])
    assert frac_rays(dual(K3)) == want


def test_dual_inequalities_hold_exactly():
    rng = random.Random(91)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = random_cone(rng, n, rng.randint(1, 5))
        d = dual(k)
        for r in k.rays:
            for c in d.rays:
                assert sum(a * b for a, b in zip(r.v, c.v)) >= 0


def test_double_dual_restores_extreme_rays():
    rng = random.Random(92)
    for _ in range(60):
        n = rng.randint(2, 4)
        k = random_pointed_cone(rng, n, rng.randint(1, 5))
        dd = dual(dual(k))
        assert properness(dd).is_pointed
        got = sorted(r.v for r in extreme_rays(dd))
        want = sorted(r.v for r in extreme_rays(k))
        assert got == want


def test_properness_cases():
    rep = properness(Cone.of(2, [[1, 0], [0, 1]]))
    assert rep.is_pointed and rep.is_solid and rep.is_proper
    rep = properness(Cone.of(2, [[1, 0]]))
    assert rep.is_pointed and not rep.is_solid
    rep = properness(Cone.of(2, [[1, 0], [-1, 0], [0, 1]]))
    assert not rep.is_pointed and rep.is_solid
    rep = properness(Cone.of(2, []))
    assert rep.is_pointed and not rep.is_solid


def test_extreme_rays_prunes_redundant():
    k = Cone.of(2, [[1, 0], [1, 1], [0, 1], [1, 2]])
    ext = sorted(r.v for r in extreme_rays(k))
    assert ext == [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]
    with pytest.raises(ValueError):
        extreme_rays(Cone.of(2, [[1, 0], [-1, 0]]))


def test_extreme_rays_of_zero_cone_is_empty():
    assert extreme_rays(Cone.of(2, [])) == ()


def test_contains_agrees_with_simplex_certificate():
    rng = random.Random(93)
    for _ in range(120):
        n = rng.randint(1, 4)
        k = random_cone(rng, n, rng.randint(1, 5))
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
        via_dual = contains(k, v)
        via_simplex = _nonneg_combination([r.v for r in k.rays], v) is not None
        assert via_dual == via_simplex


def test_nonneg_combination_is_exact():
    cols = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    coeffs = _nonneg_combination(cols, (Fraction(3), Fraction(2)))
    assert coeffs == [Fraction(1), Fraction(2)]
    assert _nonneg_combination(cols, (Fraction(-1), Fraction(0))) is None
    assert _nonneg_combination([], (Fraction(0),)) == []
    assert _nonneg_combination([], (Fraction(1),)) is None


def test_is_invariant_known():
    K = Cone.of(2, [[1, 0], [1, 1]])
    assert is_invariant(M([[1, -1], [0, 0]]), K)
    assert not is_invariant(M([[0, 0], [1, -1]]), K)
    assert is_invariant(ones(2), orthant(2))
    with pytest.raises(ValueError):
        is_invariant(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), K)
    from matsemi import Scalar
    with pytest.raises(ValueError):
        is_invariant(Matrix.from_rows([[Scalar(0, 1), 0], [0, 1]]), K)


def test_invariance_matches_membership_of_images():
    rng = random.Random(94)
    for _ in range(60):
        n = rng.randint(1, 3)
        k = random_cone(rng, n, rng.randint(1, 4))
        m = M([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        want = all(
            contains(k, tuple(
                sum(m.entry(i, j).re * r.v[j] for j in range(n))
                for i in range(n)))
            for r in k.rays)
        assert is_invariant(m, k) == want


def random_rational(rng, lo=-3, hi=3):
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 3, 4)))


def random_rational_cone(rng, n):
    """Rational rays, sometimes with lineality, sometimes none at all."""
    rays = []
    for _ in range(rng.randint(0, 6 if n < 5 else 5)):
        v = [random_rational(rng) for _ in range(n)]
        if any(v):
            rays.append(v)
    if rays and rng.random() < 0.3:
        rays.append([-x for x in rng.choice(rays)])  # a lineality line
    return Cone.of(n, rays)


def test_integer_dual_matches_fraction_reference():
    rng = random.Random(95)
    seen = {"contains": set(), "invariant": set(), "lineality": 0,
            "empty": 0, "rational": 0}
    for _ in range(320):
        n = rng.randint(1, 5)
        k = random_rational_cone(rng, n)
        ref = reference_dual_ray_vectors(k)
        assert [r.v for r in dual(k).rays] == list(ref)
        gens, ints = cones._dual_ray_vectors(k)
        assert gens == tuple(primitive(_int_vector(r.v)) for r in k.rays)
        assert len(set(ints)) == len(ints) == len(ref)
        assert all(math.gcd(*c) == 1 for c in ints)
        seen["empty"] += not k.rays
        seen["lineality"] += bool(k.rays) and not properness(k).is_pointed
        seen["rational"] += any(x.denominator > 1
                                for r in k.rays for x in r.v)
        queries = [(0,) * n,
                   tuple(random_rational(rng) for _ in range(n)),
                   tuple(rng.randint(-2, 2) for _ in range(n))]
        queries += [r.v for r in k.rays[:1]]
        queries += [tuple(-x for x in c) for c in ref[:1]]
        for v in queries:
            want = reference_contains(k, v)
            for form in query_forms(v):
                assert contains(k, form) == want, form
            seen["contains"].add(want)
        mats = [Matrix.identity(n).scale(Fraction(rng.randint(1, 5), 3)),
                M([[random_rational(rng, -2, 2) for _ in range(n)]
                   for _ in range(n)]),
                M([[random_rational(rng, 0, 2) for _ in range(n)]
                   for _ in range(n)])]
        for m in mats:
            got = is_invariant(m, k)
            assert got == reference_is_invariant(m, k)
            seen["invariant"].add(got)
    assert seen["contains"] == seen["invariant"] == {True, False}
    assert min(seen["lineality"], seen["empty"], seen["rational"]) >= 10
    k = Cone.of(2, [[1, 0], [1, 1]])
    for bad in ((True, 0), (1, False), (Fraction(1), True), ("1", False)):
        with pytest.raises(TypeError):
            contains(k, bad)
    for short in ((1,), (Fraction(1, 2),), ("1/2",), (1, 0, 0)):
        with pytest.raises(ValueError):
            contains(k, short)


def query_forms(v):
    """v as ints (its positive multiple by the lcm of its denominators),
    as Fractions and as 'p/q' strings: every form has v's answer."""
    fr = tuple(Fraction(x) for x in v)
    den = math.lcm(*(x.denominator for x in fr))
    ints = tuple(x.numerator * (den // x.denominator) for x in fr)
    assert all(type(x) is int for x in ints)
    return [ints, fr, tuple(f"{x.numerator}/{x.denominator}" for x in fr),
            list(ints)]


def test_properness_and_extreme_rays_match_simplex_reference():
    rng = random.Random(96)
    seen = {"pointed": 0, "not_pointed": 0, "not_solid": 0, "redundant": 0}
    for _ in range(2000):
        n = rng.randint(1, 5)
        rays = []
        for _ in range(rng.randint(0, 6)):
            v = [random_rational(rng) for _ in range(n)]
            if any(v):
                rays.append(v)
        if rays and rng.random() < 0.25:
            rays.append([-x for x in rng.choice(rays)])  # a lineality line
        k = Cone.of(n, rays)
        rep = properness(k)
        assert rep == reference_properness(k)
        assert not hasattr(rep, "__dict__")
        seen["not_solid"] += not rep.is_solid
        if not rep.is_pointed:
            seen["not_pointed"] += 1
            with pytest.raises(ValueError):
                extreme_rays(k)
            continue
        seen["pointed"] += 1
        ext = extreme_rays(k)
        assert [r.v for r in ext] == [r.v for r in reference_extreme_rays(k)]
        assert all(any(r is g for g in k.rays) for r in ext)
        assert not any(hasattr(r, "__dict__") for r in ext)
        seen["redundant"] += len(ext) < len(k.rays)
    assert min(seen.values()) >= 100, seen


def test_dual_cache_contract():
    """perfbench clears this cache every pass and reads its statistics."""
    cache = cones._dual_ray_vectors
    assert cache.cache_info().maxsize == 512
    cache.cache_clear()
    assert cache.cache_info().currsize == 0

    def lookups():
        info = cache.cache_info()
        return info.hits, info.misses

    k = Cone.of(2, [[1, 0], [1, 1]])
    empty = Cone.of(2, [])
    calls = [(lambda: contains(k, (0, 0)), (0, 1)),
             (lambda: contains(k, (0, 0)), (1, 0)),
             (lambda: contains(k, (1, Fraction(-1, 2))), (1, 0)),
             (lambda: is_invariant(M([[0, 0], [0, 0]]), k), (1, 0)),
             (lambda: is_invariant(M([[1, -1], [0, 0]]), k), (1, 0)),
             (lambda: is_invariant(ones(2), empty), (0, 1)),
             (lambda: contains(empty, (0, 0)), (1, 0)),
             (lambda: properness(k), (1, 0)),
             (lambda: extreme_rays(k), (1, 0)),
             (lambda: dual(k), (1, 0)),
             (lambda: properness(Cone.of(2, [[1, 0]])), (0, 1)),
             (lambda: extreme_rays(Cone.of(2, [[0, 1], [1, 2]])), (0, 1)),
             (lambda: dual(Cone.of(3, [[1, 0, 0]])), (0, 1)),
             (lambda: properness(empty), (1, 0)),
             (lambda: dual(empty), (1, 0))]
    for call, (dh, dm) in calls:
        h0, m0 = lookups()
        call()
        h1, m1 = lookups()
        assert (h1 - h0, m1 - m0) == (dh, dm)


def test_cone_builds_share_their_parts_and_retain_little():
    import gc
    import os
    import tracemalloc
    import weakref

    import matsemi

    rng = random.Random(640006)
    ks = [random_pointed_cone(rng, rng.randint(2, 4), rng.randint(1, 5))
          for _ in range(400)]

    def build(k):
        d = dual(k)
        return properness(k), d, dual(d), extreme_rays(k)

    # The first results stay held, so every repeat finds its duals in the
    # table; most of what the repeats retain is the dual cache they refill.
    first = [build(k) for k in ks]
    src = os.path.join(os.path.dirname(matsemi.__file__), "*")
    tracemalloc.start()
    try:
        again = [build(k) for _ in range(2) for k in ks]
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kept = sum(t.size for t in snapshot.filter_traces(
        [tracemalloc.Filter(True, src)]).traces)
    assert kept <= 400 * len(again), kept / len(again)
    for old, new in zip(first * 2, again):
        assert all(a is b for a, b in zip(old[:3], new[:3]))
        assert new[3] == old[3]

    for k in ks[:50]:
        twin = Cone.of(k.dim, [r.v for r in k.rays])
        assert twin is not k and dual(twin) is dual(k)
    # Nothing holds this dual after the call, so the table lets it go.
    k = Cone.of(3, [[1, 2, 3], [3, -1, 2]])
    ref = weakref.ref(dual(k))
    gc.collect()
    assert ref() is None
    assert (k.dim, cones._dual_ray_vectors(k)[1]) not in cones._DUALS


def test_dual_below_the_pair_limit_is_unchanged():
    # peaks at 41,360 pairs in one step; the digest predates the limit
    rng = random.Random(7)
    d = dual(Cone.of(7, [[rng.randint(0, 5) for _ in range(7)]
                         for _ in range(40)]))
    text = "\n".join(" ".join(map(str, r.v)) for r in d.rays)
    assert len(d.rays) == 706
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3ffbd0031ca2345e8f4bef69d1f5430d4769d8e0e7fbc8661ac8ca77a1eb503e")


def test_every_cone_operation_refuses_past_the_pair_limit(monkeypatch):
    # the fourth generator splits the simplicial start into 2 x 1 pairs
    k = Cone.of(3, [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]])
    monkeypatch.setattr(cones, "MAX_DD_PAIRS", 1)
    cones._dual_ray_vectors.cache_clear()
    for op in (dual, properness, extreme_rays,
               lambda k: contains(k, [0, 0, 1]),
               lambda k: is_invariant(Matrix.identity(3), k)):
        with pytest.raises(ValueError, match="ray pairs"):
            op(k)
    monkeypatch.setattr(cones, "MAX_DD_PAIRS", 2)
    assert len(dual(k).rays) == 4
