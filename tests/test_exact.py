import math
import random
from fractions import Fraction

import pytest

from matsemi import (Cone, Matrix, Scalar, algebra_dimension, canonical_ray,
                     classify_entries, classify_decomposability,
                     generate_closure, inverse, is_irreducible,
                     matrix_product, pattern_digraph, perron, rank,
                     rank_one_factor, sign_search_oracle,
                     simultaneous_diag_sim, spectral,
                     subset_invariance_oracle, union_pattern,
                     verify_group_theorem, verify_semigroup_theorem)
from matsemi import exact
from matsemi.exact import (int_independent_subset, int_inverse_columns,
                           int_rank, int_span, primitive)
from _fx import M, outer, random_int_matrix
from _reference import (_independent_subset, _nullspace, _rref,
                        reference_classify_entries, reference_int_inverse_rows,
                        reference_int_nullspace, reference_rank_one_factor,
                        reference_real_form)


def test_scalar_arithmetic():
    a = Scalar(Fraction(1, 2), Fraction(3))
    b = Scalar(2, -1)
    assert a + b == Scalar(Fraction(5, 2), 2)
    assert a - b == Scalar(Fraction(-3, 2), 4)
    # (1/2 + 3i)(2 - i) = 1 - 1/2 i + 6i + 3 = 4 + 11/2 i
    assert a * b == Scalar(4, Fraction(11, 2))
    assert (a * b) / b == a
    assert -b == Scalar(-2, 1)
    assert b.conjugate() == Scalar(2, 1)


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


def test_scalar_predicates():
    assert Scalar(0).is_nonneg_real
    assert not Scalar(0).is_positive_real
    assert Scalar(Fraction(2, 7)).is_positive_real
    assert not Scalar(1, 1).is_real
    assert not Scalar(0)
    assert Scalar(-1).is_real and not Scalar(-1).is_nonneg_real
    assert bool(Scalar(0, 1))
    # bool is not a rational value: never equal, and no TypeError
    assert not Scalar(1) == True  # noqa: E712
    assert Scalar(0) != False  # noqa: E712


def test_scalar_hash_agrees_with_equality():
    # a real Scalar equals its real part, so it must hash like it
    assert 1 in {Scalar(1)}
    assert Scalar(1) in {1}
    assert len({Scalar(1), 1, Fraction(1)}) == 1
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert {Scalar(0): "zero"}[0] == "zero"
    # Gaussian values are still found, and not confused with their parts
    z = Scalar(Fraction(1, 2), -3)
    assert z in {Scalar(Fraction(1, 2), -3)}
    assert Fraction(1, 2) not in {z}
    assert len({z, Scalar(Fraction(1, 2), -3), z.conjugate()}) == 2


def test_scalar_rejects_floats():
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar.of(True)


@pytest.mark.parametrize("text", ["1e5", "2E-3"])
@pytest.mark.parametrize("build", [
    Scalar, lambda x: Scalar(0, x), Scalar.of,
    lambda x: Cone.of(2, [["1", "0"], [x, "1"]]),
    lambda x: canonical_ray(["1", x])],
    ids=["Scalar", "Scalar-im", "Scalar.of", "Cone.of", "canonical_ray"])
def test_exponent_notation_is_refused(build, text):
    # only small exponents here: a large one is the bug being guarded
    with pytest.raises(ValueError, match="exponent notation"):
        build(text)


def test_matrix_construction_and_access():
    m = M([[1, 2], [3, 4], [5, 6]])
    assert (m.rows, m.cols) == (3, 2)
    assert m.entry(2, 1) == Scalar(6)
    assert m.row(1) == (Scalar(3), Scalar(4))
    assert m.col(0) == (Scalar(1), Scalar(3), Scalar(5))
    assert m.transpose().row(0) == (Scalar(1), Scalar(3), Scalar(5))
    with pytest.raises(ValueError):
        M([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix(0, 1, [])


def test_matrix_product_known():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert matrix_product(a, b) == M([[2, 1], [4, 3]])
    assert a @ b == M([[2, 1], [4, 3]])
    with pytest.raises(ValueError):
        matrix_product(a, M([[1, 2, 3]]))


def test_matrix_product_random_agrees_with_float():
    import numpy as np

    rng = random.Random(101)
    for _ in range(40):
        r, k, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = random_int_matrix(rng, r, k, -4, 4)
        b = random_int_matrix(rng, k, c, -4, 4)
        got = matrix_product(a, b)
        fa = np.array([[int(a.entry(i, j).re) for j in range(k)]
                       for i in range(r)])
        fb = np.array([[int(b.entry(i, j).re) for j in range(c)]
                       for i in range(k)])
        want = fa @ fb
        for i in range(r):
            for j in range(c):
                assert got.entry(i, j) == Scalar(int(want[i, j]))


def test_rank_examples():
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank(M([[1, 2], [2, 5]])) == 2
    assert rank(Matrix.zeros(3, 2)) == 0
    assert rank(Matrix.identity(4)) == 4
    # complex rank: rows (1, i) and (i, -1) are dependent
    m = Matrix.from_rows([[Scalar(1), Scalar(0, 1)],
                          [Scalar(0, 1), Scalar(-1)]])
    assert rank(m) == 1


_PARTS = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))


def random_gaussian_matrix(rng, r, c):
    """Small Gaussian rationals, often zero, sometimes a dependent row."""
    rows = [[Scalar(rng.choice(_PARTS), rng.choice(_PARTS))
             for _ in range(c)] for _ in range(r)]
    if r > 1 and rng.random() < 0.3:
        f = Scalar(rng.choice(_PARTS), rng.choice(_PARTS))
        rows[-1] = [f * x for x in rows[0]]
    return Matrix.from_rows(rows)


def test_rank_random_agrees_with_float_svd():
    import numpy as np

    rng = random.Random(202)
    for _ in range(150):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = random_int_matrix(rng, r, c, -3, 3)
        fa = np.array([[float(m.entry(i, j).re) for j in range(c)]
                       for i in range(r)])
        # integer entries bounded by 3: float rank is reliable here
        assert rank(m) == np.linalg.matrix_rank(fa)
    shapes = set()
    for _ in range(150):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = random_gaussian_matrix(rng, r, c)
        fa = np.array([[complex(m.entry(i, j).re, m.entry(i, j).im)
                        for j in range(c)] for i in range(r)])
        assert rank(m) == np.linalg.matrix_rank(fa)
        shapes.add((r > c) - (r < c))
    assert shapes == {-1, 0, 1}  # wide, square and tall matrices occur


def _random_real_matrix(rng, r, c):
    """Small rationals with per-row denominators; some rows are zero and
    some are multiples of the first."""
    rows = []
    for _ in range(r):
        den = rng.choice((1, 2, 3, 7))
        kind = rng.random()
        if kind < 0.2:
            rows.append([0] * c)
        elif kind < 0.4 and rows:
            f = Fraction(rng.choice((-3, 1, 2)), den)
            rows.append([f * x for x in rows[0]])
        else:
            rows.append([Fraction(rng.choice((0, 0, 1, -1, 2, -5)),
                                  rng.choice((1, den))) for _ in range(c)])
    return M(rows)


def test_real_rank_matches_real_form(monkeypatch):
    rng = random.Random(3131)
    cases = [_random_real_matrix(rng, r, c)
             for r, c in [(1, 4), (4, 1), (2, 5), (1, 1)] * 10]
    cases += [_random_real_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
              for _ in range(150)]
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases += [M([[0, 0, 0], [half, third, 0], [1, Fraction(2, 3), 0]]),
              M([[0], [half], [third]]), M([[third, 0, 0, 0, half]])]
    real = len(cases)
    cases += [random_gaussian_matrix(rng, rng.randint(1, 5),
                                     rng.randint(1, 5)) for _ in range(150)]
    want = [int_rank(reference_real_form(m)[0]) // 2 for m in cases]
    widths = []

    def recording_int_rank(rows):
        widths.append({len(r) for r in rows})
        return int_rank(rows)

    monkeypatch.setattr(exact, "int_rank", recording_int_rank)
    assert [rank(m) for m in cases] == want
    assert {0, 1, 2}.issubset(want[:real])
    assert {1, 2, 3}.issubset(want[real:])
    # a real matrix is eliminated in rows of cols parts, and a Gaussian
    # one in rows of 2 * cols: its key rows and their rotations
    gaussian = [any(e.im for e in m.entries) for m in cases]
    assert gaussian.count(True) > 100
    assert widths == [{m.cols * (1 + g)} for m, g in zip(cases, gaussian)]


def test_inverse_round_trip(monkeypatch):
    rng = random.Random(303)
    found = 0
    while found < 30:
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, n, -3, 3)
        if rank(m) < n:
            continue
        found += 1
        assert matrix_product(m, inverse(m)) == Matrix.identity(n)
    found = 0
    while found < 40:
        n = rng.randint(1, 4)
        m = random_gaussian_matrix(rng, n, n)
        if rank(m) < n:
            continue
        found += 1
        assert matrix_product(m, inverse(m)) == Matrix.identity(n)
    for z in (Scalar(0, 1), Scalar(Fraction(-2, 3), Fraction(5, 7))):
        m = Matrix.from_rows([[z]])
        assert inverse(m) == Matrix.from_rows([[Scalar(1) / z]])
        assert matrix_product(m, inverse(m)) == Matrix.identity(1)
    # a real matrix is inverted n wide, a Gaussian one 2n wide
    widths = []
    int_inverse_rows = exact._int_inverse_rows

    def recording_inverse_rows(b):
        widths.append({len(r) for r in b})
        return int_inverse_rows(b)

    monkeypatch.setattr(exact, "_int_inverse_rows", recording_inverse_rows)
    third = Fraction(1, 3)
    assert inverse(M([[2, 1, 0], [0, third, 1], [1, 0, 1]])) == M(
        [[Fraction(1, 5), Fraction(-3, 5), Fraction(3, 5)],
         [Fraction(3, 5), Fraction(6, 5), Fraction(-6, 5)],
         [Fraction(-1, 5), Fraction(3, 5), Fraction(2, 5)]])
    assert inverse(Matrix.from_rows([[Scalar(0, 2)]])) == Matrix.from_rows(
        [[Scalar(0, Fraction(-1, 2))]])
    assert widths == [{3}, {2}]
    with pytest.raises(ValueError):
        inverse(M([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        inverse(M([[1, 2, 3]]))
    with pytest.raises(ValueError):  # (i, -1) is i times (1, i)
        inverse(Matrix.from_rows([[Scalar(1), Scalar(0, 1)],
                                  [Scalar(0, 1), Scalar(-1)]]))


def test_rank_one_factor_reconstructs():
    rng = random.Random(404)
    for _ in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        u = [rng.randint(-3, 3) for _ in range(r)]
        v = [rng.randint(-3, 3) for _ in range(c)]
        if not any(u) or not any(v):
            continue
        m = outer(u, v)
        x, y = rank_one_factor(m)
        rebuilt = Matrix.from_rows([[xi * yj for yj in y] for xi in x])
        assert rebuilt == m
        lead = next(s for s in x if s)
        assert lead == Scalar(1)


def test_rank_one_factor_rejects_other_ranks():
    with pytest.raises(ValueError):
        rank_one_factor(Matrix.zeros(2, 2))
    with pytest.raises(ValueError):
        rank_one_factor(Matrix.identity(2))


def test_classify_entries():
    c = classify_entries(M([[1, 0], [0, Fraction(1, 2)]]))
    assert c.is_real and c.is_nonnegative and c.is_diagonal
    assert c.is_monomial and c.has_nonneg_diagonal and not c.is_positive

    c = classify_entries(M([[0, 2], [3, 0]]))
    assert c.is_monomial and not c.is_diagonal

    c = classify_entries(M([[1, -1], [0, 0]]))
    assert c.is_real and not c.is_nonnegative and c.has_nonneg_diagonal

    c = classify_entries(Matrix.from_rows([[Scalar(0, 1)]]))
    assert not c.is_real and not c.has_nonneg_diagonal

    c = classify_entries(M([[1, 2], [3, 4]]))
    assert c.is_positive and not c.is_monomial


def test_classify_entries_matches_reference():
    rng = random.Random(98)
    seen = {"rectangular": 0, "zero": 0, "gaussian": 0, "one_row": 0,
            "monomial": 0, "diagonal": 0}
    for _ in range(2500):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        kind = rng.randrange(5)
        if kind == 0:
            m = Matrix.zeros(rows, cols)
        elif kind == 1:  # a signed, scaled permutation, perhaps with a hole
            n = rows
            perm = rng.sample(range(n), n)
            entries = [[0] * n for _ in range(n)]
            for i, j in enumerate(perm):
                entries[i][j] = rng.choice((-2, -1, Fraction(1, 3), 1, 3))
            if rng.random() < 0.2:
                entries[rng.randrange(n)][rng.randrange(n)] = 0
            m = M(entries)
        elif kind == 2:  # n nonzeros, all in one row
            n = rows
            entries = [[0] * n for _ in range(n)]
            entries[rng.randrange(n)] = [rng.choice((-1, 1, 2))
                                         for _ in range(n)]
            m = M(entries)
        else:
            density = rng.random()
            gaussian = kind == 3
            m = Matrix.from_rows(
                [[Scalar(rng.randint(-2, 2),
                         rng.randint(-1, 1) if gaussian else 0)
                  if rng.random() < density else Scalar(0)
                  for _ in range(cols)] for _ in range(rows)])
        got = classify_entries(m)
        assert got == reference_classify_entries(m)
        seen["rectangular"] += not m.is_square
        seen["zero"] += m.is_zero()
        seen["gaussian"] += not got.is_real
        seen["one_row"] += kind == 2 and m.rows > 1
        seen["monomial"] += got.is_monomial
        seen["diagonal"] += got.is_diagonal and not m.is_zero()
    assert min(seen.values()) >= 100


def test_matrix_scale_and_sums():
    m = M([[1, -2], [0, 3]])
    assert m.scale(Fraction(1, 2)) == M([[Fraction(1, 2), -1],
                                         [0, Fraction(3, 2)]])
    assert m + (-m) == Matrix.zeros(2, 2)
    assert m - m == Matrix.zeros(2, 2)


# -- fraction-free integer core ----------------------------------------------


def is_positive_multiple(u, v) -> bool:
    """u == c * v for some rational c > 0 (v nonzero)."""
    i = next(i for i, x in enumerate(v) if x)
    c = Fraction(u[i]) / v[i]
    return c > 0 and all(a == c * b for a, b in zip(u, v))


def is_primitive(v) -> bool:
    return math.gcd(*v) in (0, 1)


def int_rows_corpus(rng):
    """Seeded integer matrices: empty, rank 0, singular, wide, tall."""
    cases = [([], 3), ([[0, 0, 0]], 3), ([[0], [0]], 1),
             ([[2, 4, 6], [1, 2, 3]], 3), ([[0, -3], [2, 0]], 2)]
    for _ in range(150):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(c)]
                for _ in range(r)]
        if rng.random() < 0.3:  # a dependent row makes it singular
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append([a * x + b * y
                         for x, y in zip(rng.choice(rows), rng.choice(rows))])
        cases.append((rows, c))
    return cases


def test_primitive():
    assert primitive((4, -6, 0)) == (2, -3, 0)
    assert primitive((-3,)) == (-1,)
    assert primitive((0, 0)) == (0, 0)
    assert primitive([1, 5]) == (1, 5)


def test_reduced_basis_matches_fraction_rref():
    rng = random.Random(505)
    ranks = set()
    for rows, ncols in int_rows_corpus(rng):
        frows = [[Fraction(x) for x in r] for r in rows]
        fred, fpiv = _rref(frows)
        basis = exact._reduced_basis(rows)
        piv = [p for p, _ in basis]
        red = [e for _, e in basis]
        assert piv == fpiv
        ranks.add(len(piv) - min(len(rows), ncols))
        for i, p in enumerate(piv):
            assert list(red[i]) == [red[i][p] * x for x in fred[i]]
        assert all(is_primitive(r) for r in red)
        assert int_rank(rows) == len(fpiv)
        assert int_independent_subset(rows) == _independent_subset(frows)
        got = int_span(rows, ncols)[1]
        want = _nullspace(frows, ncols)
        assert len(got) == len(want) == ncols - len(fpiv)
        for u, v in zip(got, want):
            assert is_primitive(u) and is_positive_multiple(u, v)
            assert all(sum(a * b for a, b in zip(r, u)) == 0 for r in rows)
        assert int_span(rows, ncols) == (int_independent_subset(rows), got)
        entries = ncols * len(got)
        assert int_span(rows, ncols, entries)[1] == got
        if entries:
            with pytest.raises(ValueError, match="null space is limited"):
                int_span(rows, ncols, entries - 1)
    assert 0 in ranks and min(ranks) < 0  # full and deficient rank occur


def test_int_inverse_columns_are_positive_multiples():
    rng = random.Random(606)
    found = negative_pivot = 0
    while found < 60:
        n = rng.randint(1, 5)
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if rank(M(b)) < n:
            with pytest.raises(ValueError):
                int_inverse_columns(b)
            continue
        found += 1
        inv = inverse(M(b))
        cols = int_inverse_columns(b)
        assert len(cols) == n
        for j, u in enumerate(cols):
            assert is_primitive(u)
            assert is_positive_multiple(u, [inv.entry(i, j).re
                                            for i in range(n)])
        red = exact._int_inverse_rows(b)
        negative_pivot += any(red[i][i] < 0 for i in range(n))
    assert negative_pivot >= 5
    with pytest.raises(ValueError):
        int_inverse_columns([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        int_inverse_columns([[0, 0], [0, 0]])


def _outcome(f, *args):
    """f(*args), or "singular" where f refuses with ValueError."""
    try:
        return f(*args)
    except ValueError:
        return "singular"


def _sparse_int(rng, lo=-5, hi=5):
    return rng.choice((0, 0, rng.randint(lo, hi)))


def test_elimination_matches_reference_gauss_jordan(monkeypatch):
    # null spaces, inverse columns and inverses equal the ones read off
    # an independent Gauss-Jordan loop with column pivots and row swaps
    rng = random.Random(2222)
    seen = dict.fromkeys(("no rows", "zero row", "tall", "singular",
                          "n = 0", "gaussian"), 0)

    def with_reference_rows(f, *args):
        with monkeypatch.context() as mp:
            mp.setattr(exact, "_int_inverse_rows",
                       reference_int_inverse_rows)
            return _outcome(f, *args)

    for _ in range(12000):
        ncols, nrows = rng.randint(0, 7), rng.randint(0, 6)
        rows = [[_sparse_int(rng) for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.3:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        assert int_span(rows, ncols)[1] == reference_int_nullspace(
            rows, ncols)
        seen["no rows"] += not rows
        seen["zero row"] += any(not any(r) for r in rows)
        seen["tall"] += nrows > ncols
    for _ in range(5000):
        n = rng.randint(0, 5)
        b = [[_sparse_int(rng, -4, 4) for _ in range(n)] for _ in range(n)]
        got = _outcome(int_inverse_columns, b)
        assert got == with_reference_rows(int_inverse_columns, b)
        seen["singular"] += got == "singular"
        seen["n = 0"] += n == 0
    for _ in range(4000):
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            m = random_gaussian_matrix(rng, n, n)
            seen["gaussian"] += not classify_entries(m).is_real
        else:
            m = random_int_matrix(rng, n, n)
        assert repr(_outcome(inverse, m)) == repr(
            with_reference_rows(inverse, m))
    assert min(seen.values()) >= 50, seen


def test_rank_one_factor_matches_reference():
    rng = random.Random(4041)
    gaussian = 0

    def part():
        return rng.choice((0, 0, rng.randint(-3, 3),
                           Fraction(rng.randint(-3, 3), rng.randint(1, 4))))

    for _ in range(3000):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        imag = rng.random() < 0.5
        u = [Scalar(part(), part() if imag else 0) for _ in range(r)]
        v = [Scalar(part(), part() if imag else 0) for _ in range(c)]
        if not any(u) or not any(v):
            continue
        m = Matrix.from_rows([[a * b for b in v] for a in u])
        assert rank_one_factor(m) == reference_rank_one_factor(m)
        gaussian += not classify_entries(m).is_real
    assert gaussian >= 500


_COLLECTION_ENTRY_POINTS = (
    generate_closure, algebra_dimension, is_irreducible,
    simultaneous_diag_sim, union_pattern, sign_search_oracle,
    verify_group_theorem, verify_semigroup_theorem)

_BAD_COLLECTIONS = {
    "empty": [],
    "non-square": [Matrix.zeros(2, 3)],
    "non-square-later": [Matrix.identity(2), Matrix.zeros(2, 3)],
    "mixed-size": [Matrix.identity(2), Matrix.identity(3)],
    "mixed-size-later": [Matrix.identity(3), Matrix.identity(3),
                         Matrix.identity(2)],
}


@pytest.mark.parametrize("case", sorted(_BAD_COLLECTIONS))
@pytest.mark.parametrize("fn", _COLLECTION_ENTRY_POINTS,
                         ids=lambda fn: fn.__name__)
def test_collection_entry_points_reject_bad_collections(fn, case):
    with pytest.raises(ValueError):
        fn(_BAD_COLLECTIONS[case])


@pytest.mark.parametrize("fn", (pattern_digraph, classify_decomposability,
                                subset_invariance_oracle, perron,
                                spectral.is_primitive),
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 2)])
def test_single_matrix_entry_points_reject_non_square(fn, shape):
    with pytest.raises(ValueError):
        fn(Matrix.zeros(*shape))
