import random
from fractions import Fraction

import pytest

from matsemi import (DiagonalWitness, Matrix, Scalar, SignDiagonal,
                     classify_entries, conjugate, diag_sim_nonneg,
                     simultaneous_diag_sim)
from _fx import (M, outer, ones, primitive_gaussian, random_int_matrix,
                 random_signs, sign_conjugate)
from _reference import reference_simultaneous_diag_sim


def test_sign_diagonal_validation():
    with pytest.raises(ValueError):
        SignDiagonal((-1, 1))
    with pytest.raises(ValueError):
        SignDiagonal((1, 0))
    d = SignDiagonal((1, -1)).witness()
    assert d.d == (Scalar(1), Scalar(-1))


def test_witness_validation_and_signs():
    with pytest.raises(ValueError):
        DiagonalWitness((Scalar(1), Scalar(0)))
    w = DiagonalWitness((Scalar(2), Scalar(-3)))
    assert w.signs().signs == (1, -1)
    # D and -D conjugate alike, so a negative lead flips the pattern
    assert DiagonalWitness((Scalar(-1), Scalar(1))).signs().signs == (1, -1)
    w = DiagonalWitness((Scalar(Fraction(-1, 2)), Scalar(-3), Scalar(5)))
    assert w.signs().signs == (1, 1, -1)
    wc = DiagonalWitness((Scalar(1), Scalar(0, 1)))
    assert wc.signs() is None


def test_conjugate_entrywise():
    w = DiagonalWitness((Scalar(1), Scalar(-1)))
    m = M([[1, -1], [2, 3]])
    assert conjugate(w, m) == M([[1, 1], [-2, 3]])
    with pytest.raises(ValueError):
        conjugate(w, ones(3))


def _entrywise(w, m):
    n = m.rows
    return Matrix(n, n, [w.d[i] * m.entry(i, j) / w.d[j]
                         for i in range(n) for j in range(n)])


def test_conjugate_gaussian_witness():
    w = DiagonalWitness((Scalar(1), Scalar(2, 1), Scalar(0, Fraction(-3, 2)),
                         Scalar(2, 1)))
    m = Matrix.from_rows(
        [[Scalar(1, 1), 2, 0, Scalar(0, 5)],
         [Fraction(1, 3), 0, Scalar(-1, 2), 7],
         [0, Scalar(3, -1), 4, Fraction(-1, 2)],
         [Scalar(0, 1), -3, 1, Scalar(2, 2)]])
    got = conjugate(w, m)
    assert got == _entrywise(w, m)
    assert got.entry(1, 3) == m.entry(1, 3)  # d_1 = d_3
    assert not got.entry(0, 2)


def test_conjugate_sign_witness_and_zeros():
    rng = random.Random(11)
    for _ in range(20):
        m = random_int_matrix(rng, 4, 4)
        w = DiagonalWitness(tuple(Scalar(s) for s in random_signs(rng, 4)))
        assert conjugate(w, m) == _entrywise(w, m)
    w = DiagonalWitness((Scalar(1), Scalar(-1), Scalar(Fraction(1, 2))))
    m = M([[0, 3, 0], [-2, 0, 0], [0, 5, 0]])
    want = M([[0, -3, 0], [2, 0, 0], [0, Fraction(-5, 2), 0]])
    assert conjugate(w, m) == want


def test_known_witnesses():
    b = [1, 1, -2]
    B = outer(b, b)
    w = diag_sim_nonneg(B)
    assert w.signs().signs == (1, 1, -1)
    assert classify_entries(conjugate(w, B)).is_nonnegative

    A3 = M([[1, 0, 1], [0, 1, -1], [0, 0, 0]])
    assert diag_sim_nonneg(A3).signs().signs == (1, -1, 1)

    assert diag_sim_nonneg(M([[1, -1], [0, 0]])).signs().signs == (1, -1)

    # negative diagonal entry can never be fixed
    assert diag_sim_nonneg(M([[-1]])) is None
    assert diag_sim_nonneg(M([[1, 1], [1, -1]])) is None


def test_gauge_is_one_at_component_roots():
    # two disconnected support components: vertices {0,1} and {2}
    m = M([[0, -1, 0], [0, 0, 0], [0, 0, 1]])
    w = diag_sim_nonneg(m)
    assert w.d[0] == Scalar(1)
    assert w.d[2] == Scalar(1)
    assert w.d[1] == Scalar(-1)


def test_simultaneous_validation():
    with pytest.raises(ValueError):
        simultaneous_diag_sim([])
    with pytest.raises(ValueError):
        simultaneous_diag_sim([M([[1, 2, 3]])])
    with pytest.raises(ValueError):
        simultaneous_diag_sim([ones(2), ones(3)])


def test_simultaneous_known_failure():
    A = ones(2)
    B = outer([1, -1], [1, -1])
    assert simultaneous_diag_sim([A, B]) is None


def test_recovers_planted_sign_conjugations():
    rng = random.Random(5150)
    for _ in range(200):
        n = rng.randint(1, 5)
        k = rng.randint(1, 3)
        signs = random_signs(rng, n)
        mats = []
        for _ in range(k):
            m = random_int_matrix(rng, n, n, 0, 3)  # nonnegative plant
            mats.append(sign_conjugate(m, signs))
        w = simultaneous_diag_sim(mats)
        assert w is not None
        for m in mats:
            assert classify_entries(conjugate(w, m)).is_nonnegative


def test_real_witness_is_sign_diagonal():
    rng = random.Random(6001)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, n, -2, 2)
        w = diag_sim_nonneg(m)
        if w is None:
            continue
        assert all(x in (Scalar(1), Scalar(-1)) for x in w.d)
        assert classify_entries(conjugate(w, m)).is_nonnegative


def test_complex_feasible_instance():
    # entries i and -i cancel under conjugation by diag(1, i)
    i = Scalar(0, 1)
    m = Matrix.from_rows([[Scalar(0), Scalar(0, -1)], [Scalar(0, 1), Scalar(0)]])
    w = diag_sim_nonneg(m)
    assert w is not None
    conj = conjugate(w, m)
    assert classify_entries(conj).is_nonnegative
    assert w.d[0] == Scalar(1)
    assert w.d[1] == i or w.d[1] == Scalar(0, -1)


def test_complex_infeasible_instance():
    # diagonal entries are conjugation-invariant; i on the diagonal is fatal
    m = Matrix.from_rows([[Scalar(0, 1)]])
    assert diag_sim_nonneg(m) is None


def test_complex_cycle_obstruction():
    # cycle product (1)(1)(-1) is negative; no diagonal can fix all three
    m = Matrix.from_rows([
        [0, 1, 0],
        [0, 0, 1],
        [-1, 0, 0],
    ])
    assert diag_sim_nonneg(m) is None
    # flipping the cycle product sign makes it feasible
    m2 = Matrix.from_rows([
        [0, 1, 0],
        [0, 0, 1],
        [1, 0, 0],
    ])
    assert diag_sim_nonneg(m2) is not None


_VALUES = (1, 2, 3, Fraction(1, 2), Fraction(5, 3))


def _support_components(ms):
    n = ms[0].rows
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for m in ms:
        for i in range(n):
            for j in range(n):
                if i != j and m.entry(i, j):
                    parent[find(i)] = find(j)
    return len({find(i) for i in range(n)})


def _planted_real_set(rng):
    """1-4 real rational n x n matrices (n = 1-6) and what was planted.

    Nonnegative members, some of them zero, on an optional block
    pattern (disconnected support), conjugated by one sign diagonal; then
    possibly one defect: an opposite-sign 2-cycle, a negative diagonal
    entry, or a random sign flip.
    """
    n = rng.randint(1, 6)
    blocks = [rng.randrange(rng.choice((1, 1, 2, 3))) for _ in range(n)]
    density = rng.choice((0.3, 0.6, 1.0))
    signs = random_signs(rng, n)
    mats = []
    for _ in range(rng.randint(1, 4)):
        zero = rng.random() < 0.15
        rows = [[0 if zero or blocks[i] != blocks[j] or rng.random() > density
                 else rng.choice(_VALUES) for j in range(n)] for i in range(n)]
        mats.append(sign_conjugate(M(rows), signs))
    defect = rng.choice((None, None, "two_cycle", "negative_diagonal",
                         "flip"))
    k = rng.randrange(len(mats))
    flat = list(mats[k].entries)
    if defect == "two_cycle" and n >= 2:
        i, j = rng.sample(range(n), 2)
        s = signs[i] * signs[j]
        flat[i * n + j] = Scalar(s * rng.choice(_VALUES))
        flat[j * n + i] = Scalar(-s * rng.choice(_VALUES))
    elif defect == "negative_diagonal":
        i = rng.randrange(n)
        flat[i * n + i] = Scalar(-rng.choice(_VALUES))
    elif defect == "flip":
        e = rng.randrange(n * n)
        flat[e] = -flat[e] if flat[e] else Scalar(-1)
    mats[k] = Matrix(n, n, flat)
    return mats


def test_sign_path_matches_scalar_reference_on_real_sets():
    rng = random.Random(8008)
    feasible = infeasible = multi = 0
    for _ in range(1200):
        mats = _planted_real_set(rng)
        got = simultaneous_diag_sim(mats)
        want = reference_simultaneous_diag_sim(mats)
        if want is None:
            assert got is None
            infeasible += 1
        else:
            assert got is not None and got.d == want.d
            feasible += 1
        multi += _support_components(mats) > 1
    assert feasible >= 100 and infeasible >= 100 and multi >= 100, \
        (feasible, infeasible, multi)


_GAUSSIAN_UNITS = (Scalar(1), Scalar(0, 1), Scalar(1, 1), Scalar(2, -1))


def test_complex_path_matches_scalar_reference():
    # Gaussian diagonals plant feasible sets; a non-real entry under a
    # real propagated diagonal (or on the diagonal) makes them infeasible.
    # The witness is the reference's moved along each entry's ray to its
    # primitive Gaussian integer.
    rng = random.Random(8009)
    feasible = infeasible = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        d = DiagonalWitness(tuple(
            [Scalar(1)] + [rng.choice(_GAUSSIAN_UNITS) for _ in range(n - 1)]))
        mats = [conjugate(d, random_int_matrix(rng, n, n, 0, 2))
                for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            k = rng.randrange(len(mats))
            flat = list(mats[k].entries)
            flat[rng.randrange(n * n)] = Scalar(rng.choice((1, -1)),
                                                rng.choice((1, -1)))
            mats[k] = Matrix(n, n, flat)
        got = simultaneous_diag_sim(mats)
        want = reference_simultaneous_diag_sim(mats)
        if want is None:
            assert got is None
            infeasible += 1
        else:
            assert got is not None
            assert got.d == tuple(map(primitive_gaussian, want.d))
            assert all(classify_entries(conjugate(got, m)).is_nonnegative
                       for m in mats)
            feasible += 1
    assert feasible >= 30 and infeasible >= 30, (feasible, infeasible)


def test_gaussian_witness_is_canonical():
    # the witness is the one with primitive Gaussian integer entries and
    # 1 at each component root, whatever the member order and however
    # each member is scaled by a positive rational
    i = Scalar(0, 1)
    A = Matrix.from_rows([[0, i * 2], [-i / 2, 1]])
    B = Matrix.from_rows([[0, i * 3], [-i, 0]])
    assert simultaneous_diag_sim([A, B]).d == (Scalar(1), i)
    assert simultaneous_diag_sim([B, A]).d == (Scalar(1), i)
    rng = random.Random(8010)
    gaussian = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        d = DiagonalWitness(tuple(
            [Scalar(1)] + [rng.choice(_GAUSSIAN_UNITS) for _ in range(n - 1)]))
        mats = [conjugate(d, random_int_matrix(rng, n, n, 0, 2).scale(
            rng.choice(_VALUES))) for _ in range(rng.randint(2, 4))]
        w = simultaneous_diag_sim(mats)
        assert w is not None
        gaussian += not all(x.is_real for x in w.d)
        assert w.d == tuple(map(primitive_gaussian, w.d))
        rng.shuffle(mats)
        k = rng.randrange(len(mats))
        mats[k] = mats[k].scale(rng.choice(_VALUES))
        assert simultaneous_diag_sim(mats).d == w.d
    assert gaussian >= 50, gaussian
