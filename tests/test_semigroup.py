import random
from fractions import Fraction

import pytest

from matsemi import (Caps, Matrix, ProjectiveElement, Scalar,
                     algebra_dimension, generate_closure, is_irreducible,
                     projective_canonical, rank_one_factor, rank_one_ideal,
                     verify_group_theorem, xy_decomposition)
from _fx import M, outer, ones
from matsemi import semigroup
from matsemi.semigroup import _key_product, _key_rows, _nonzeros
from _reference import (_canonical_vector, reference_algebra_dimension,
                        reference_canonical, reference_closure,
                        reference_group_info, reference_key_product)

C3 = M([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def test_caps_validation():
    with pytest.raises(ValueError):
        Caps(max_elements=0)
    with pytest.raises(ValueError):
        Caps(max_word_length=0)


def test_projective_canonical():
    assert projective_canonical(Matrix.identity(2).scale(2)) \
        == Matrix.identity(2)
    z = Matrix.zeros(2, 2)
    assert projective_canonical(z) == z
    got = projective_canonical(M([[0, 0], [0, 0]]) + Matrix.diagonal([3, -6]))
    assert got == Matrix.diagonal([Fraction(1, 2), -1])
    # only positive rescaling: signs survive
    assert projective_canonical(M([[-2]])) == M([[-1]])
    got = projective_canonical(Matrix.from_rows([[Scalar(0, 3)]]))
    assert got.entry(0, 0) == Scalar(0, 1)


def test_projective_element_semantics():
    e1 = ProjectiveElement(Matrix.identity(2), (0,))
    e2 = ProjectiveElement(Matrix.identity(2), (1, 1))
    assert e1 == e2 and hash(e1) == hash(e2)
    assert e1 != "x"
    with pytest.raises(AttributeError):
        e1.word = ()


def test_closure_of_cyclic_generator():
    cl = generate_closure([C3])
    assert not cl.truncated
    assert len(cl.elements) == 3
    assert cl.elements[0].word == (0,)
    assert cl.elements[1].word == (0, 0)
    assert cl.elements[2].word == (0, 0, 0)
    assert cl.elements[2].canonical == Matrix.identity(3)
    members = cl.canonical_matrices()
    assert projective_canonical(C3.scale(7)) in members
    assert projective_canonical(Matrix.identity(3)) in members
    assert projective_canonical(ones(3)) not in members
    # scaling is positive only
    assert projective_canonical(C3.scale(-1)) not in members


def test_closure_earliest_word_wins():
    cl = generate_closure([C3, matrix_square(C3)])
    assert len(cl.elements) == 3
    by_canonical = {e.canonical: e.word for e in cl.elements}
    assert by_canonical[matrix_square(C3)] == (1,)
    assert by_canonical[Matrix.identity(3)] == (0, 1)


def matrix_square(m):
    return m @ m


def test_closure_element_cap_truncates():
    d = Matrix.diagonal([2, 1])
    cl = generate_closure([d], Caps(max_elements=5, max_word_length=50))
    assert cl.truncated
    assert len(cl.elements) == 5
    # canonical powers: diag(1, 2^-k)
    assert cl.elements[3].canonical == Matrix.diagonal([1, Fraction(1, 16)])


def test_closure_word_cap_truncates():
    d = Matrix.diagonal([2, 1])
    cl = generate_closure([d], Caps(max_elements=1000, max_word_length=3))
    assert cl.truncated
    assert len(cl.elements) == 3
    assert max(len(e.word) for e in cl.elements) == 3


def test_closure_validation():
    with pytest.raises(ValueError):
        generate_closure([])
    with pytest.raises(ValueError):
        generate_closure([Matrix.identity(2), Matrix.identity(3)])
    with pytest.raises(ValueError):
        generate_closure([Matrix.zeros(2, 3)])


def _group_hypothesis(gens, caps=Caps()):
    return verify_group_theorem(gens, caps).hypotheses[
        "closure_is_group_within_caps"]


def test_group_hypothesis_cyclic_group():
    h = _group_hypothesis([C3])
    assert h.holds and "3 elements" in h.detail


def test_group_hypothesis_singular_generator():
    h = _group_hypothesis([C3, M([[1, 0, 0], [0, 1, 0], [0, 0, 0]])])
    assert not h.holds and "singular" in h.detail


def test_group_hypothesis_truncated_closure():
    h = _group_hypothesis([Matrix.diagonal([2, 1])],
                          Caps(max_elements=4, max_word_length=50))
    assert not h.holds and "truncated at 4 elements" in h.detail


def test_group_hypothesis_truncation_outranks_singularity():
    # a truncated closure is reported as such, singular generator or not
    h = _group_hypothesis([Matrix.diagonal([2, 1, 0])],
                          Caps(max_elements=4, max_word_length=50))
    assert not h.holds and "truncated" in h.detail


def test_algebra_dimension_examples():
    a = ones(2)
    b = outer([1, -1], [1, -1])
    # a + b = 2I and ab = ba = 0, so the algebra is 2-dimensional
    assert algebra_dimension([a, b]) == 2
    assert not is_irreducible([a, b])

    e01 = M([[0, 1], [0, 0]])
    e10 = M([[0, 0], [1, 0]])
    assert algebra_dimension([e01, e10]) == 4
    assert is_irreducible([e01, e10])

    swap = M([[0, 1], [1, 0]])
    sign = Matrix.diagonal([1, -1])
    assert algebra_dimension([swap, sign]) == 4

    assert algebra_dimension([M([[0, 1], [0, 0]])]) == 2
    assert algebra_dimension([Matrix.identity(3)]) == 1


def test_rank_one_ideal():
    assert rank_one_ideal(generate_closure([C3])) == ()
    cl = generate_closure([outer([1, 1], [1, 0])])
    ideal = rank_one_ideal(cl)
    assert len(ideal) == len(cl.elements) == 1


def test_members_build_canonical_matrices_only_when_read(monkeypatch):
    gens = [outer([1, 1, 0], [1, 0, 2]), outer([0, 1, 1], [1, -1, 0]),
            Matrix.from_rows([[Scalar(0, 1), 0, 0], [0, 1, 0], [0, 0, 1]])]
    want = [e.canonical for e in generate_closure(gens).elements]

    def refuse(*args):
        raise AssertionError("a canonical matrix was built")

    monkeypatch.setattr(semigroup, "_canonical_from_key", refuse)
    cl = generate_closure(gens)
    ideal = rank_one_ideal(cl)
    assert 0 < len(ideal) < len(cl.elements) == len(want)
    monkeypatch.undo()
    assert [e.canonical for e in cl.elements] == want


def test_xy_decomposition_directions_and_spans():
    p = outer([1, 1], [1, 0])
    q = outer([1, 0], [0, 1])
    cl = generate_closure([p, q])
    ideal = rank_one_ideal(cl)
    assert len(ideal) == len(cl.elements) == 5  # 4 outer products + zero
    fac = xy_decomposition(ideal)
    xset = set(fac.x_vectors)
    yset = set(fac.y_vectors)
    one = Scalar(1)
    zero = Scalar(0)
    assert xset == {(one, one), (one, zero)}
    assert yset == {(one, zero), (zero, one)}
    assert fac.x_spans and fac.y_spans
    assert (-1, -1) in fac.pairing  # the zero member
    for k, (xi, yi) in enumerate(fac.pairing):
        if xi < 0:
            assert ideal[k].canonical.is_zero()
        else:
            prod = Matrix.from_rows(
                [[a * b for b in fac.y_vectors[yi]]
                 for a in fac.x_vectors[xi]])
            assert projective_canonical(prod) == ideal[k].canonical


_PARTS = (0, 0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2))


def _random_scalar(rng, gaussian):
    return Scalar(rng.choice(_PARTS), rng.choice(_PARTS) if gaussian else 0)


def _random_generators(rng, gaussian, kinds=("dense", "monomial")):
    n = rng.randint(2, 3)
    kind = rng.choice(kinds)
    gens = []
    for _ in range(rng.randint(1, 3)):
        if kind == "dense":
            flat = [_random_scalar(rng, gaussian) for _ in range(n * n)]
        elif kind == "weighted_monomial":
            # nonzero weights other than units: closures grow until a cap
            perm = list(range(n))
            rng.shuffle(perm)
            flat = [Scalar(0)] * (n * n)
            for i, j in enumerate(perm):
                e = Scalar(0)
                while not e:
                    e = _random_scalar(rng, gaussian)
                flat[i * n + j] = e
        elif kind == "outer":
            u = [_random_scalar(rng, gaussian) for _ in range(n)]
            v = [_random_scalar(rng, gaussian) for _ in range(n)]
            flat = [a * b for a in u for b in v]
        else:
            # signed (Gaussian) unit permutation matrices: finite groups,
            # so some closures complete within the caps
            units = ((1, 0), (-1, 0), (0, 1), (0, -1)) if gaussian \
                else ((1, 0), (-1, 0))
            perm = list(range(n))
            rng.shuffle(perm)
            flat = [Scalar(0)] * (n * n)
            for i, j in enumerate(perm):
                flat[i * n + j] = Scalar(*rng.choice(units))
        gens.append(Matrix(n, n, flat))
    return gens


def _with_one_gaussian(rng, gens):
    """Real generators plus one Gaussian generator of their size: the
    whole set must run at Gaussian width."""
    n = gens[0].rows
    flat = [_random_scalar(rng, False) for _ in range(n * n)]
    flat[rng.randrange(n * n)] = Scalar(rng.choice((1, -2)),
                                        rng.choice((1, -1)))
    return gens + [Matrix(n, n, flat)]


@pytest.mark.parametrize("gaussian, mixed",
                         [(False, False), (True, False), (False, True)],
                         ids=["False", "True", "mixed"])
def test_closure_matches_fraction_reference(gaussian, mixed):
    rng = random.Random(20260 + gaussian + 2 * mixed)
    hit = {"elements": 0, "word_length": 0, "complete": 0}
    for k in range(80):
        # the second half draws rank-one outer products and weighted
        # monomials, whose keys are mostly zero columns
        gens = _random_generators(
            rng, gaussian, ("dense", "monomial") if k < 40
            else ("weighted_monomial", "outer"))
        if mixed:
            gens = _with_one_gaussian(rng, gens)
        caps = Caps(max_elements=rng.choice((6, 25, 60)),
                    max_word_length=rng.choice((2, 3, 6)))
        got = generate_closure(gens, caps)
        want = reference_closure(gens, caps)
        assert [e.word for e in got.elements] == \
            [e.word for e in want.elements]
        assert got.canonical_matrices() == want.canonical_matrices()
        assert got.truncated == want.truncated
        for m in gens:
            c = projective_canonical(m.scale(3))
            assert (c in got.canonical_matrices()) == \
                (c in want.canonical_matrices())
        if not got.truncated:
            hit["complete"] += 1
        elif len(got.elements) == caps.max_elements:
            hit["elements"] += 1
        else:
            hit["word_length"] += 1
    assert all(hit.values()), hit


def _with_repeats(rng, gens):
    """A copy, a x2 and a x1/3 multiple of random generators of gens,
    inserted anywhere, also ahead of the generator's first occurrence."""
    for c in (1, 2, Fraction(1, 3)):
        g = rng.choice(gens)
        gens.insert(rng.randint(0, len(gens)), g.scale(c))
    return gens


def _first_occurrences(gens):
    firsts = {}
    for g in gens:
        firsts.setdefault(projective_canonical(g), g)
    return list(firsts.values())


@pytest.mark.parametrize("gaussian", [False, True])
def test_closure_with_repeated_classes_matches_fraction_reference(
        gaussian):
    # a copy, a x2 and a x1/3 multiple of random generators, inserted
    # anywhere: the closure multiplies by first occurrences only, and
    # words, members and truncation stay those of every generator,
    # also when the search ends on a product that a repeat follows
    rng = random.Random(31031 + gaussian)
    repeat_follows = 0
    for k in range(80):
        gens = _with_repeats(rng, _random_generators(
            rng, gaussian, ("dense", "monomial") if k < 40
            else ("weighted_monomial", "outer")))
        caps = Caps(max_elements=rng.choice((6, 25, 60)),
                    max_word_length=rng.choice((2, 3, 6)))
        got = generate_closure(gens, caps)
        want = reference_closure(gens, caps)
        assert [e.word for e in got.elements] == \
            [e.word for e in want.elements]
        assert got.canonical_matrices() == want.canonical_matrices()
        assert got.truncated == want.truncated
        gi = _last_product_class(got, gens) if got.truncated else None
        if gi is not None:
            keys = got._gens.keys
            repeat_follows += any(keys[j] in keys[:j]
                                  for j in range(gi + 1, len(keys)))
    assert repeat_follows >= 20, repeat_follows


def _last_product_class(closure, gens):
    """The generator index of the class whose product ended a truncated
    search, or None if no product did.

    Every product the search tried before the last one was a member or
    became one, so the last one is the first (member, class) product,
    in search order, outside the closure; it is made here with Fraction
    matrices, so skipped products count too.
    """
    members = set(closure.canonical_matrices())
    firsts = [gi for gi, _, _ in closure._gens.classes]
    if len(closure.elements) < len(firsts):
        return None
    return next((gi for e in closure.elements for gi in firsts
                 if reference_canonical(e.canonical @ gens[gi])
                 not in members), None)


@pytest.mark.parametrize("gaussian", [False, True])
def test_closure_truncated_at_seeding_with_repeated_classes(gaussian):
    # at most as many elements allowed as there are generator classes:
    # the closure is the first classes in input order, one-letter words
    # naming their first occurrences, and is truncated whenever a class
    # or a product does not fit; the first set is closed, so it fits
    # untruncated once every class does
    rng = random.Random(4141 + gaussian)
    closed = ([Matrix.diagonal([1, Scalar(0, k)]) for k in (1, -1)]
              + [Matrix.diagonal([1, -1])] if gaussian
              else [M([[0, 1], [1, 0]])]) + [Matrix.identity(2)]
    sets = [_with_repeats(rng, list(closed))] + [
        _with_repeats(rng, _random_generators(
            rng, gaussian, ("dense", "monomial", "outer")))
        for _ in range(40)]
    tried = 0
    for gens in sets:
        classes = len(_first_occurrences(gens))
        for m in range(1, classes + 1):
            caps = Caps(max_elements=m)
            got = generate_closure(gens, caps)
            want = reference_closure(gens, caps)
            assert [e.word for e in got.elements] == \
                [e.word for e in want.elements]
            assert got.canonical_matrices() == want.canonical_matrices()
            assert got.truncated == want.truncated
            assert got.truncated or m == classes
            tried += 1
    assert tried >= 80, tried
    assert not generate_closure(
        sets[0], Caps(max_elements=len(closed))).truncated


@pytest.mark.parametrize("gaussian", [False, True])
def test_algebra_span_multiplies_by_generator_classes(gaussian, monkeypatch):
    # repeats of a class add no product to the span: it makes as many
    # products as on the first occurrences alone
    product = semigroup._key_product
    count = [0]

    def counting(*args):
        count[0] += 1
        return product(*args)

    monkeypatch.setattr(semigroup, "_key_product", counting)
    rng = random.Random(5151 + gaussian)
    for _ in range(60):
        gens = _with_repeats(rng, _random_generators(
            rng, gaussian, ("dense", "monomial", "outer")))
        count[0] = 0
        dim = algebra_dimension(gens)
        made = count[0]
        count[0] = 0
        assert algebra_dimension(_first_occurrences(gens)) == dim
        assert count[0] == made
        assert dim == reference_algebra_dimension(gens)


def _random_key(rng, n, gaussian, shape):
    parts = (0, 1, -1, 2, -3, 5)
    if shape == "monomial":
        perm = list(range(n))
        rng.shuffle(perm)
        cells = {(i, j) for i, j in enumerate(perm)}
    elif shape == "zero":
        cells = set()
    else:
        cells = {(i, j) for i in range(n) for j in range(n)}
        if shape == "zero_rows":
            dead = set(rng.sample(range(n), rng.randint(1, n)))
            cells = {(i, j) for i, j in cells if i not in dead}
        elif shape == "zero_cols":
            dead = set(rng.sample(range(n), rng.randint(1, n)))
            cells = {(i, j) for i, j in cells if j not in dead}
    if shape == "rank_one":
        u = [(rng.choice(parts), rng.choice(parts) if gaussian else 0)
             for _ in range(n)]
        v = [(rng.choice(parts), rng.choice(parts) if gaussian else 0)
             for _ in range(n)]
        key = []
        for a, b in u:
            for c, d in v:
                key += [a * c - b * d, a * d + b * c]
        return tuple(key)
    key = []
    for i in range(n):
        for j in range(n):
            if (i, j) in cells:
                re = rng.choice(parts) or 1
                key += [re, rng.choice(parts) if gaussian else 0]
            else:
                key += [0, 0]
    return tuple(key)


_KEY_SHAPES = ("dense", "zero_rows", "zero_cols", "monomial", "rank_one",
               "zero")


def _block_row(key, n):
    """The [A | B] key of a reference key, which interleaves the real
    and imaginary part of each entry."""
    out = []
    for r in range(0, len(key), 2 * n):
        out += key[r:r + 2 * n:2] + key[r + 1:r + 2 * n:2]
    return tuple(out)


def _real_parts(key, n):
    return key[::2]


@pytest.mark.parametrize("gaussian", [False, True])
def test_sparse_key_product_matches_dense_reference(gaussian):
    rng = random.Random(9090 + gaussian)
    # a real key drops the zero imaginary parts of a reference key and a
    # block-row key regroups them; neither changes the gcd
    layout = _block_row if gaussian else _real_parts
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 5)
        sa, sb = rng.choice(_KEY_SHAPES), rng.choice(_KEY_SHAPES)
        a = _random_key(rng, n, gaussian, sa)
        b = _random_key(rng, n, gaussian, sb)
        want = reference_key_product(a, b, n)
        ka = layout(a, n)
        parts, _ = _nonzeros(ka, len(ka) // n)
        rows, _ = _key_rows(layout(b, n), n)
        assert _key_product(parts, rows, len(ka)) == layout(want, n)
        seen.update((sa, sb))
    assert seen == set(_KEY_SHAPES)


def _support_key(rng, n, gaussian, shape):
    """A reference key of a dense, a monomial or an outer-product matrix;
    the outer product's factors are zero in about half their entries,
    and its Gaussian entries may be real or imaginary."""
    if shape != "outer":
        return _random_key(rng, n, gaussian, shape)
    units = (1, -1, 2, -2)

    def factor():
        out = []
        for _ in range(n):
            x = (rng.choice(units), 0) if rng.random() < 0.5 else (0, 0)
            if gaussian and x[0]:
                x = rng.choice((x, (0, x[0]), (x[0], rng.choice(units))))
            out.append(x)
        return out

    key = []
    for a, b in factor():
        for c, d in factor():
            key += [a * c - b * d, a * d + b * c]
    return tuple(key)


@pytest.mark.parametrize("gaussian", [False, True])
def test_disjoint_masks_give_the_zero_key(gaussian):
    # a member whose nonzero parts read only image rows that a class has
    # zero has the zero key as its product with the class; wherever the
    # masks meet, the kernel makes the reference product
    rng = random.Random(7171 + gaussian)
    layout = _block_row if gaussian else _real_parts
    shapes = ("dense", "monomial", "outer", "outer")
    # [[1, 1], [0, 0]] (or i times it) times [[1, 0], [-1, 0]] cancels
    # although the masks meet
    top = (0, 1, 0, 1) if gaussian else (1, 0, 1, 0)
    pairs = [(2, top + (0,) * 4, (1, 0, 0, 0, -1, 0, 0, 0))]
    for _ in range(800):
        n = rng.randint(2, 4)
        pairs.append((n, _support_key(rng, n, gaussian, rng.choice(shapes)),
                      _support_key(rng, n, gaussian, rng.choice(shapes))))
    disjoint = meet = cancelled = 0
    for n, a, b in pairs:
        want = layout(reference_key_product(a, b, n), n)
        ka = layout(a, n)
        parts, mask = _nonzeros(ka, len(ka) // n)
        rows, rmask = _key_rows(layout(b, n), n)
        if mask & rmask:
            assert _key_product(parts, rows, len(ka)) == want
            meet += 1
            cancelled += not any(want)
        else:
            assert want == (0,) * len(ka)
            disjoint += 1
    assert disjoint >= 100 and meet >= 300 and cancelled, (
        disjoint, meet, cancelled)


@pytest.mark.parametrize("gaussian", [False, True])
def test_closure_truncated_on_a_new_zero_product(gaussian):
    # E12 E12 = 0 by disjoint supports, and so is (i E12)(i E12): the
    # zero class enters without a product, and the caps end the search
    # on it as on any new member
    e12 = Matrix.from_rows([[0, Scalar(0, 1) if gaussian else 1, 0],
                            [0, 0, 0], [0, 0, 0]])
    gens = [e12, M([[0, 0, 0], [0, 0, 1], [0, 0, 0]])]
    zero = Matrix.zeros(3, 3)
    on_zero = complete = 0
    for m in range(1, 7):
        for length in range(1, 5):
            caps = Caps(max_elements=m, max_word_length=length)
            got = generate_closure(gens, caps)
            want = reference_closure(gens, caps)
            assert [e.word for e in got.elements] == \
                [e.word for e in want.elements]
            assert got.canonical_matrices() == want.canonical_matrices()
            assert got.truncated == want.truncated
            members = got.canonical_matrices()
            on_zero += got.truncated and zero not in members and m >= 2
            complete += not got.truncated and zero in members
    assert on_zero >= 4 and complete >= 4, (on_zero, complete)


@pytest.mark.parametrize("gaussian", [False, True])
def test_span_stops_once_the_basis_is_full(gaussian, monkeypatch):
    # the search ends with the product that fills the basis: no row is
    # cleared against a full basis, and the dimension is unchanged
    insert = semigroup._insert
    late = [0]

    def counting(basis, row):
        late[0] += len(basis) >= len(row)
        return insert(basis, row)

    monkeypatch.setattr(semigroup, "_insert", counting)
    rng = random.Random(6161 + gaussian)
    full = 0
    for _ in range(60):
        gens = _random_generators(rng, gaussian, ("dense", "monomial"))
        dim = algebra_dimension(gens)
        assert dim == reference_algebra_dimension(gens)
        full += dim == gens[0].rows ** 2
    assert late[0] == 0 and full >= 25, (late[0], full)


def test_projective_canonical_matches_reference():
    rng = random.Random(7)
    for _ in range(50):
        m = Matrix(2, 3, [_random_scalar(rng, True) for _ in range(6)])
        assert projective_canonical(m) == reference_canonical(m)


def test_gaussian_closure_members():
    # i*I generates the four classes i*I, -I, -i*I and I
    cl = generate_closure([Matrix.diagonal([Scalar(0, 1)] * 2)])
    assert not cl.truncated and len(cl.elements) == 4
    members = cl.canonical_matrices()
    assert projective_canonical(Matrix.identity(2).scale(-3)) in members
    assert projective_canonical(Matrix.identity(2)) in members
    assert projective_canonical(Matrix.diagonal([1, -1])) not in members


def test_algebra_dimension_is_complex_linear():
    # i*I and I span one complex dimension; splitting real and imaginary
    # parts into independent coordinates would give 2
    assert algebra_dimension([Matrix.diagonal([Scalar(0, 1)] * 2)]) == 1
    assert algebra_dimension([Matrix.diagonal([Scalar(0, 1), 1])]) == 2


def test_algebra_dimension_matches_scalar_reference():
    # the reference multiplies by generators on both sides
    rng = random.Random(4242)
    full = deficient = 0
    for k in range(240):
        # real, Gaussian, and real plus one Gaussian generator in turn
        gens = _random_generators(rng, gaussian=k % 3 == 1)
        if k % 3 == 2:
            gens = _with_one_gaussian(rng, gens)
        dim = algebra_dimension(gens)
        assert dim == reference_algebra_dimension(gens)
        n = gens[0].rows
        full += dim == n * n
        deficient += dim < n * n
    assert full and deficient


@pytest.mark.parametrize("gaussian", [False, True])
def test_width_follows_generators(gaussian, monkeypatch):
    # a silent fall-back to block-row keys would give the same answers
    # at twice the cost: record the width of every left factor, which
    # reads one row of the layout it is multiplied by per part of its rows
    product = semigroup._key_product
    widths = set()

    def recording(a, rows, size):
        w = len(rows)
        assert all(k < w and base % w == 0 and base + w <= size
                   for base, k, _ in a)
        widths.add((size, w))
        return product(a, rows, size)

    monkeypatch.setattr(semigroup, "_key_product", recording)
    rng = random.Random(515 + gaussian)
    for _ in range(20):
        gens = _random_generators(rng, False, ("dense", "monomial", "outer"))
        if gaussian:
            gens = _with_one_gaussian(rng, gens)
        n = gens[0].rows
        caps = Caps(max_elements=40, max_word_length=4)
        widths.clear()
        got = generate_closure(gens, caps)
        want = reference_closure(gens, caps)
        assert [e.word for e in got.elements] == \
            [e.word for e in want.elements]
        assert got.canonical_matrices() == want.canonical_matrices()
        assert got.truncated == want.truncated
        assert algebra_dimension(gens) == reference_algebra_dimension(gens)
        # only a set of zero generators makes no product: every one
        # has disjoint masks
        w = (2 if gaussian else 1) * n
        nonzero = any(not g.is_zero() for g in gens)
        assert widths == ({(n * w, w)} if nonzero else set())


def _monomial_generators(rng, gaussian):
    """(Gaussian) signed permutation matrices; a zero makes a generator
    singular and a 2 gives it infinitely many positive-scaling classes."""
    n = rng.randint(2, 3)
    units = [1, -1] + ([Scalar(0, 1), Scalar(0, -1)] if gaussian else [])
    gens = []
    for _ in range(rng.randint(1, 3)):
        perm = list(range(n))
        rng.shuffle(perm)
        flat = [Scalar(0)] * (n * n)
        for i, j in enumerate(perm):
            flat[i * n + j] = Scalar.of(rng.choice(units))
        gens.append(Matrix(n, n, flat))
    g = rng.randrange(len(gens))
    extra = rng.choice((None, None, None, 0, 2))
    if extra is not None:
        flat = list(gens[g].entries)
        k = next(k for k, e in enumerate(flat) if e)
        flat[k] = Scalar(extra)
        gens[g] = Matrix(n, n, flat)
    return gens


@pytest.mark.parametrize("gaussian", [False, True])
def test_group_hypothesis_matches_member_inverse_reference(gaussian):
    rng = random.Random(5150 + gaussian)
    outcomes = set()
    for _ in range(60):
        gens = _monomial_generators(rng, gaussian)
        caps = Caps(max_elements=rng.choice((10, 60, 400)),
                    max_word_length=rng.choice((4, 12)))
        h = _group_hypothesis(gens, caps)
        want = reference_group_info(gens, caps)
        assert h.holds == all(want)
        truncated = generate_closure(gens, caps).truncated
        assert ("truncated" in h.detail) == truncated
        assert ("singular" in h.detail) == (not truncated and not want[0])
        outcomes.add(want)
    # singular, truncated and complete groups all occur
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_xy_decomposition_rejects_higher_rank():
    e = ProjectiveElement(Matrix.identity(2), (0,))
    with pytest.raises(ValueError):
        xy_decomposition([e])


def test_xy_decomposition_no_span():
    cl = generate_closure([outer([1, 0, 0], [0, 1, 0])])
    fac = xy_decomposition(rank_one_ideal(cl))
    assert not fac.x_spans and not fac.y_spans


def _random_direction(rng, n):
    while True:
        v = tuple(_random_scalar(rng, True) for _ in range(n))
        if any(v):
            return v


def test_xy_decomposition_matches_fraction_reference():
    # Gaussian rank-one ideals whose members repeat directions up to
    # positive, negative and complex scalars, plus the odd zero member;
    # the directions must be the Fraction-scaled ones, deduplicated in
    # order
    rng = random.Random(6262)
    shared = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        us = [_random_direction(rng, n) for _ in range(rng.randint(1, 3))]
        vs = [_random_direction(rng, n) for _ in range(rng.randint(1, 3))]
        ideal = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.1:
                m = Matrix.zeros(n, n)
            else:
                c = rng.choice((Scalar(2), Scalar(Fraction(1, 3)),
                                Scalar(-1), Scalar(0, 1), Scalar(1, 1)))
                u, v = rng.choice(us), rng.choice(vs)
                m = Matrix(n, n, [c * a * b for a in u for b in v])
            ideal.append(ProjectiveElement(projective_canonical(m), (0,)))
        xs, ys, pairing = [], [], []
        for e in ideal:
            if e.canonical.is_zero():
                pairing.append((-1, -1))
                continue
            x, y = map(_canonical_vector, rank_one_factor(e.canonical))
            for vec, seen in ((x, xs), (y, ys)):
                if vec not in seen:
                    seen.append(vec)
            pairing.append((xs.index(x), ys.index(y)))
        fac = xy_decomposition(ideal)
        assert fac.x_vectors == tuple(xs)
        assert fac.y_vectors == tuple(ys)
        assert fac.pairing == tuple(pairing)
        shared += len(pairing) > len(set(pairing))
    assert shared  # some ideals repeat a pair of directions
