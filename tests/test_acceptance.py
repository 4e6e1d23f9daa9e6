"""Acceptance gate: eight criteria, one test each.

Every test prints one CRITERION line (visible under -s or -rA; under
plain -v the per-test PASSED/FAILED line serves the same purpose) and
enforces its time budget with time.monotonic.  Exact checks use the
rational modules; float tolerances are stated inline.
"""

import random
import time
from fractions import Fraction

import numpy as np

from matsemi import (Caps, Cone, DecompositionKind, Matrix, Scalar,
                     algebra_dimension, classify_decomposability,
                     classify_entries, conjugate, diag_sim_nonneg, dual,
                     extreme_rays, generate_closure, is_invariant,
                     is_irreducible, is_primitive, matrix_product, perron,
                     projective_canonical, properness, rank, rank_one_ideal,
                     simultaneous_diag_sim)
from matsemi.cones import contains
from matsemi.harness import (plant_group_instance, plant_semigroup_instance,
                             run_fixtures, sign_search_oracle,
                             subset_invariance_oracle, verify_group_theorem,
                             verify_semigroup_theorem)
from _fx import M, outer, ones, random_int_matrix, random_pattern

A3 = M([[1, 0, 1], [0, 1, -1], [0, 0, 0]])
K3 = Cone.of(3, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
L3 = Cone.of(3, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])


def _report(k: int, t0: float, budget: float) -> None:
    dt = time.monotonic() - t0
    print(f"CRITERION {k} PASS ({dt:.2f}s, budget {budget:.0f}s)")
    assert dt < budget, f"criterion {k} exceeded its {budget}s budget: {dt:.2f}s"


def test_criterion_1_rank_one_pair():
    t0 = time.monotonic()
    a = [1, 1, 1]
    b = [1, 1, -2]
    A, B = outer(a, a), outer(b, b)

    cl = generate_closure([A, B])
    assert not cl.truncated
    assert set(cl.canonical_matrices()) == {
        projective_canonical(A), projective_canonical(B), Matrix.zeros(3, 3)}
    assert len(cl.elements) == 3
    assert len(rank_one_ideal(cl)) == 3

    for m in (A, B):
        kind = classify_decomposability(m).kind
        assert kind == DecompositionKind.INDECOMPOSABLE

    w = diag_sim_nonneg(B)
    assert w is not None and w.signs().signs == (1, 1, -1)
    assert classify_entries(conjugate(w, B)).is_nonnegative  # exact

    assert simultaneous_diag_sim([A, B]) is None
    assert not is_irreducible([A, B])

    assert run_fixtures("rank-one-pair").all_passed
    _report(1, t0, 1.0)


def test_criterion_2_idempotent_extension():
    t0 = time.monotonic()
    assert is_invariant(A3, K3)
    assert is_invariant(A3.transpose(), L3)
    assert classify_decomposability(A3).scc_count == 3
    assert rank(A3) == 2

    w = diag_sim_nonneg(A3)
    assert w is not None and w.signs().signs == (1, -1, 1)
    assert classify_entries(conjugate(w, A3)).is_nonnegative

    outer_products = [outer(k.v, l.v) for k in K3.rays for l in L3.rays]
    assert len(outer_products) == 9
    assert algebra_dimension(outer_products) == 9
    assert is_irreducible(outer_products)

    assert simultaneous_diag_sim(outer_products + [A3]) is None

    A4 = M([[1, 0, 1, 0], [0, 1, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert matrix_product(A4, A4) == A4  # exact idempotence of the padding
    assert matrix_product(A3, A3) == A3

    assert run_fixtures("idempotent-extension").all_passed
    _report(2, t0, 1.0)


def test_criterion_3_small_cone_examples():
    t0 = time.monotonic()
    half = M([[1, -1], [0, 0]])
    K = Cone.of(2, [[1, 0], [1, 1]])
    assert is_invariant(half, K)
    w = diag_sim_nonneg(half)
    assert w is not None and w.signs().signs == (1, -1)

    for n in (2, 3, 4):
        a = [1] * (n - 1) + [1 - n]
        ray = Cone.of(n, [[1] * n])
        assert is_invariant(outer(a, a), ray)
        rep = properness(ray)
        assert rep.is_pointed and not rep.is_solid

    assert run_fixtures("invariant-ray").all_passed
    assert run_fixtures("half-plane-cone").all_passed
    _report(3, t0, 1.0)


def test_criterion_4_solver_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(640004)
    checked_feasible = 0
    for _ in range(500):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, n)  # entries in {-2..2}
        w = simultaneous_diag_sim([m])
        orc = sign_search_oracle([m])
        assert (w is None) == (orc is None)
        if w is not None:
            checked_feasible += 1
            assert classify_entries(conjugate(w, m)).is_nonnegative
            assert classify_entries(
                conjugate(orc.witness(), m)).is_nonnegative
    assert checked_feasible > 0

    for _ in range(200):
        n = rng.randint(1, 4)
        ms = [random_int_matrix(rng, n, n) for _ in range(rng.randint(2, 3))]
        w = simultaneous_diag_sim(ms)
        orc = sign_search_oracle(ms)
        assert (w is None) == (orc is None)
        if w is not None:
            for m in ms:
                assert classify_entries(conjugate(w, m)).is_nonnegative
    _report(4, t0, 30.0)


def test_criterion_5_decomposability_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(640005)
    for _ in range(500):
        n = rng.randint(1, 5)
        m = random_pattern(rng, n, density=rng.choice((0.2, 0.4, 0.6)))
        via_scc = classify_decomposability(m).scc_count >= 2
        assert via_scc == subset_invariance_oracle(m).decomposable
    _report(5, t0, 10.0)


def test_criterion_6_cone_duality():
    t0 = time.monotonic()
    for n in range(2, 6):
        orthant = Cone.of(n, [[1 if i == j else 0 for i in range(n)]
                              for j in range(n)])
        assert dual(orthant) == orthant

    rng = random.Random(640006)
    done = 0
    while done < 200:
        n = rng.randint(2, 4)
        rays = [[rng.randint(-3, 3) for _ in range(n)]
                for _ in range(rng.randint(1, 5))]
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        k = Cone.of(n, rays)
        if not properness(k).is_pointed:
            continue
        done += 1
        got = sorted(r.v for r in extreme_rays(dual(dual(k))))
        want = sorted(r.v for r in extreme_rays(k))
        assert got == want

    want = sorted([
        tuple(map(Fraction, (1, 0, 0))),
        tuple(map(Fraction, (0, 0, 1))),
        tuple(map(Fraction, (0, 1, -1))),
    ])
    assert [r.v for r in dual(K3).rays] == want
    _report(6, t0, 30.0)


def _strongly_connected_nonneg(rng, n, hi=5):
    rows = [[rng.randint(0, hi) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = max(1, rows[i][(i + 1) % n])
    return M(rows)


def _brute_primitive(p: np.ndarray) -> bool:
    n = p.shape[0]
    q = np.eye(n, dtype=bool)
    for _ in range((n - 1) ** 2 + 1):
        q = (q.astype(np.int64) @ p.astype(np.int64)) > 0
    return bool(q.all())


def test_criterion_7_perron():
    t0 = time.monotonic()
    for n in range(2, 7):
        r = perron(ones(n))
        assert abs(r.rho - n) <= 1e-9
        assert max(abs(x - 1.0) for x in r.right_vector) <= 1e-6

    rng = random.Random(640007)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = _strongly_connected_nonneg(rng, n)
        r = perron(m)
        sums = [sum(float(m.entry(i, j).re) for j in range(n))
                for i in range(n)]
        assert min(sums) - 1e-9 <= r.rho <= max(sums) + 1e-9

    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_pattern(rng, n, density=rng.choice((0.2, 0.5)))
        p = np.array([[float(m.entry(i, j).re) for j in range(n)]
                      for i in range(n)]) > 0
        assert is_primitive(m) == _brute_primitive(p)
    _report(7, t0, 10.0)


def test_criterion_8_pipelines_never_falsified():
    t0 = time.monotonic()
    caps = Caps(max_elements=300, max_word_length=8)

    rng = random.Random(640008)
    group_applicable = 0
    for _ in range(100):
        n = rng.randint(2, 4)
        gens, _kind = plant_group_instance(rng, n)
        rep = verify_group_theorem(gens, caps)
        assert not rep.falsified
        if rep.applicable:
            group_applicable += 1
            assert rep.conclusion_holds and rep.monomial_check is True
            cl = generate_closure(gens, caps)
            for m in cl.canonical_matrices():
                c = conjugate(rep.witness, m)
                assert classify_entries(c).is_nonnegative
                assert classify_entries(c).is_monomial

    semi_applicable = 0
    for _ in range(100):
        n = rng.randint(2, 4)
        gens, _kind = plant_semigroup_instance(rng, n)
        rep = verify_semigroup_theorem(gens, caps)
        assert not rep.falsified
        if rep.applicable:
            semi_applicable += 1
            assert rep.conclusion_holds
            cl = generate_closure(gens, caps)
            for m in cl.canonical_matrices():
                assert classify_entries(
                    conjugate(rep.witness, m)).is_nonnegative
    # the semigroup side must actually exercise the conclusion
    assert semi_applicable >= 10
    print(f"criterion 8 detail: group applicable {group_applicable}, "
          f"semigroup applicable {semi_applicable} (of 100 each)")
    _report(8, t0, 60.0)
