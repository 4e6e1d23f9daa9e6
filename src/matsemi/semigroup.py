"""Finitely generated matrix semigroups up to positive scaling.

Scaling a matrix by a positive rational changes nothing that this
package cares about (signs, zero patterns, diagonal similarity), so
closures are computed projectively.  Inside, every positive-scaling
class is represented by its projective key from :mod:`matsemi.exact`,
of the width chosen once for the generator set.  Products of keys are
plain integer arithmetic: the left factor's nonzero parts times each
generator's nonzero image rows, so zeros on either side cost nothing.
The closure is a set of keys, grown by one generator per class.  Each
member is handed out with its key; its canonical form, scaled so the
largest entry magnitude component is 1, is built the first time a
caller reads it.  That keeps closures finite in the cases of interest
and keeps entry sizes bounded.
A generator set becomes integers once, as a ``_Generators`` record of
its classes; a closure keeps the one it multiplied by, so the theorem
pipelines read their generators from it without keying again.
Closures that hit a cap are marked truncated and no downstream check is
allowed to treat them as complete.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import (Basis, Key, Matrix, Scalar, _image_rows, _insert,
                    _key_parts, _key_rank, _projective_keys, _rotation,
                    _square_size, primitive, rank, rank_one_factor)


@dataclass(frozen=True)
class Caps:
    """Budgets for closure generation."""

    max_elements: int = 10000
    max_word_length: int = 12

    def __post_init__(self):
        if self.max_elements < 1 or self.max_word_length < 1:
            raise ValueError("caps must be positive")


KeyRows = tuple[tuple[tuple[int, int], ...], ...]
Nonzeros = list[tuple[int, int]]


def _key_rows(key: Key, n: int) -> KeyRows:
    """The nonzero entries of each row of the w x w image of an n x n
    matrix's key, placed for every row of a left factor.

    The image is the key itself at real width (w = n) and the key over
    its rotation at block-row width (w = 2n).  Part p = i*w + k of a
    left key multiplies row k of the image into row i of the product,
    so row p lists the pairs ``(i*w + j, f_kj)`` for the nonzero entries
    f_kj of that row: the offset in the product that the term adds to,
    and f_kj itself.  Each generator class is turned into rows once, so
    a product term is one multiply-add, and a zero part of the left key
    costs nothing.
    """
    image = _image_rows(key, n, n)
    w = len(image)
    nw = n * w
    rows: list[list[tuple[int, int]]] = [[] for _ in range(nw)]
    for k, row in enumerate(image):
        for j, u in enumerate(row):
            if u:
                for i in range(0, nw, w):
                    rows[i + k].append((i + j, u))
    return tuple(map(tuple, rows))


def _nonzeros(key: Key) -> Nonzeros:
    """The (index, part) pairs of a key's nonzero parts."""
    return [(p, x) for p, x in enumerate(key) if x]


class _Generators(NamedTuple):
    """A generator set as integers: its size n, its projective keys in
    input order (repeats included, one width) and its positive-scaling
    classes in input order, each as its first occurrence's index and
    rows.  A repeat's products are positive multiples of its first
    occurrence's, so products with generators read ``classes`` only."""

    n: int
    keys: list[Key]
    classes: list[tuple[int, KeyRows]]

    @classmethod
    def of(cls, gens: Sequence[Matrix]) -> "_Generators":
        n = _square_size(gens)
        keys = _projective_keys(gens)
        return cls(n, keys, [(keys.index(k), _key_rows(k, n))
                             for k in dict.fromkeys(keys)])


def _key_product(a: Nonzeros, brows: KeyRows) -> Key:
    """Key of the product of the matrix whose key has the nonzero parts
    a (``_nonzeros``) and the one whose key has rows brows."""
    out = [0] * len(brows)
    for p, x in a:
        for o, u in brows[p]:
            out[o] += x * u
    return primitive(out)


def _canonical_from_key(key: Key, rows: int, cols: int,
                        memo: dict) -> Matrix:
    """The max-part-1 canonical matrix of a key's scaling class.

    ``memo`` maps each key maximum to the entries made for it, so the
    members of one closure share equal entries.
    """
    top = max(map(abs, key))
    if top == 0:
        return Matrix.zeros(rows, cols)
    entries = memo.get(top)
    if entries is None:
        entries = memo[top] = {}
    re, im = _key_parts(key, rows, cols)
    if not im:
        for x in set(re).difference(entries):
            entries[x] = Scalar(Fraction(x, top))
        return Matrix(rows, cols, map(entries.__getitem__, re))
    flat = []
    for part in zip(re, im):
        e = entries.get(part)
        if e is None:
            e = entries[part] = Scalar(Fraction(part[0], top),
                                       Fraction(part[1], top))
        flat.append(e)
    return Matrix(rows, cols, flat)


def projective_canonical(m: Matrix) -> Matrix:
    """Scale by a positive rational so max(|re|, |im|) over entries is 1.

    The zero matrix is its own canonical form.
    """
    key, = _projective_keys([m])
    return _canonical_from_key(key, m.rows, m.cols, {})


@functools.lru_cache(maxsize=4096)
def _extend_word(word: tuple[int, ...], gi: int) -> tuple[int, ...]:
    # Closures of similar generator sets repeat the same short words;
    # handing out one shared tuple per word keeps retained results small.
    return word + (gi,)


class ProjectiveElement:
    """A closure member: canonical matrix plus one generator word.

    Equality and hashing look at the canonical matrix only; the word is
    provenance (0-based generator indices, earliest discovered word).
    A member also carries its projective key (``_key``, of the width of
    its closure's generator set, for an n x n matrix with n = ``_n``).
    A closure builds a member's canonical matrix from the key the first
    time it is read, sharing equal entries through ``_memo``.
    """

    __slots__ = ("word", "_key", "_n", "_memo", "_canonical")

    def __init__(self, canonical: Matrix, word: tuple[int, ...]):
        key, = _projective_keys([canonical])
        self._set(word, key, canonical.rows, None, canonical)

    @classmethod
    def _of_key(cls, key: Key, word: tuple[int, ...], n: int,
                memo: dict) -> "ProjectiveElement":
        e = cls.__new__(cls)
        e._set(word, key, n, memo, None)
        return e

    def _set(self, word, key, n, memo, canonical) -> None:
        for name, value in (("word", word), ("_key", key), ("_n", n),
                            ("_memo", memo), ("_canonical", canonical)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectiveElement is immutable")

    @property
    def canonical(self) -> Matrix:
        m = self._canonical
        if m is None:
            m = _canonical_from_key(self._key, self._n, self._n, self._memo)
            object.__setattr__(self, "_canonical", m)
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectiveElement):
            return NotImplemented
        return self.canonical == other.canonical

    def __hash__(self):
        return hash(self.canonical)

    def __repr__(self) -> str:
        return f"ProjectiveElement({self.canonical!r}, {self.word!r})"


@dataclass(frozen=True)
class SemigroupClosure:
    elements: tuple[ProjectiveElement, ...]
    truncated: bool
    caps: Caps

    def canonical_matrices(self) -> tuple[Matrix, ...]:
        return tuple(e.canonical for e in self.elements)


@dataclass(frozen=True)
class XYFactorization:
    x_vectors: tuple[tuple[Scalar, ...], ...]
    y_vectors: tuple[tuple[Scalar, ...], ...]
    pairing: tuple[tuple[int, int], ...]  # element k -> (x index, y index)
    x_spans: bool
    y_spans: bool


def generate_closure(gens: Sequence[Matrix],
                     caps: Caps = Caps()) -> SemigroupClosure:
    """BFS closure under right multiplication by generators.

    Multiplying members on the right by generators reaches every
    positive-scaling class of the semigroup: scalars commute past
    products.  The search runs on projective keys of the generator
    set's width, so each step is one integer product and one gcd
    division.  A member's nonzero parts are listed once and go into
    every product it is the left factor of.  One-letter words and
    products come from the record's ``classes``: a repeat gives the
    class of its first occurrence's product, which is tried first, so
    it could neither add a member nor end the search.  Members keep
    their keys and build their max-part-1 canonical form only when it
    is read.  Discovery order is by word length, then lexicographic
    word, so runs are reproducible.  The first product that would
    exceed a cap marks the closure truncated and ends the search.  The
    closure keeps its ``_Generators`` outside its fields, so equality
    and repr do not see it.
    """
    record = _Generators.of(gens)
    n, gkeys, classes = record
    product = _key_product
    words: dict[Key, tuple[int, ...]] = {
        gkeys[gi]: _extend_word((), gi)
        for gi, _ in classes[:caps.max_elements]}
    truncated = len(classes) > caps.max_elements
    order = list(words)
    qi = 0
    while qi < len(order) and not truncated:
        u = order[qi]
        qi += 1
        word = words[u]
        extendable = len(word) < caps.max_word_length
        nonzeros = _nonzeros(u)
        for gi, g in classes:
            c = product(nonzeros, g)
            if c in words:
                continue
            if not extendable or len(words) >= caps.max_elements:
                # Word lengths never decrease along the queue and the
                # set never shrinks, so no later product could be kept
                # either: the search is over.
                truncated = True
                break
            words[c] = _extend_word(word, gi)
            order.append(c)
    memo: dict = {}
    closure = SemigroupClosure(
        elements=tuple(ProjectiveElement._of_key(c, words[c], n, memo)
                       for c in order),
        truncated=truncated,
        caps=caps,
    )
    object.__setattr__(closure, "_gens", record)
    return closure


def rank_one_ideal(closure: SemigroupClosure) -> tuple[ProjectiveElement, ...]:
    """Members of rank at most one, in closure order."""
    return tuple(e for e in closure.elements
                 if _key_rank(e._key, e._n, e._n) <= 1)


def algebra_dimension(gens: Sequence[Matrix]) -> int:
    """Dimension of the algebra spanned by the matrices and the identity.

    The span is grown from the identity by multiplying new basis
    elements by generators on the right until it stabilises.  Every
    basis element is a word and every right product of one lies in the
    span, so the span is closed under right multiplication by the
    generators; as it contains I, it contains every word.  Matrices
    enter as projective keys (a positive scaling does not change a
    span) and grow an echelon basis.  At block-row width every row that
    enters brings its rotation, the key of i times it, so the rational
    span of the keys is the complex span of the matrices and has twice
    its dimension.  The value is the same over any field extending the
    rationals because ranks of rational matrices do not change under
    field extension.
    """
    return _span_dimension(_Generators.of(gens))


def _span_dimension(record: _Generators) -> int:
    """``algebra_dimension`` of the generators with this record, spanned
    by products with its ``classes``."""
    n, keys, classes = record
    w = len(keys[0]) // n
    identity = tuple(int(i == j) for i in range(n) for j in range(w))
    dim_target = len(identity)
    basis: Basis = []

    def try_add(row: Key) -> bool:
        if not _insert(basis, row):
            return False
        if len(row) > n * n:
            # iX is never in a rotation-closed span that lacks X, so
            # it always enters too
            _insert(basis, _rotation(basis[-1][1], n))
        return True

    try_add(identity)
    frontier = [identity]
    while frontier and len(basis) < dim_target:
        nxt: list[Key] = []
        for m in frontier:
            nonzeros = _nonzeros(m)
            for _, g in classes:
                prod = _key_product(nonzeros, g)
                if try_add(prod):
                    nxt.append(prod)
        frontier = nxt
    return len(basis) // (dim_target // (n * n))


def is_irreducible(gens: Sequence[Matrix]) -> bool:
    """No common invariant subspace besides {0} and everything.

    Equivalent to the generated algebra being the full matrix algebra,
    so the test is one exact dimension computation.
    """
    return algebra_dimension(gens) == gens[0].rows ** 2


def xy_decomposition(ideal: Sequence[ProjectiveElement]) -> XYFactorization:
    """Factor rank-one members as outer products and collect directions.

    Every nonzero member factors as x * y^T; the x and y directions are
    deduplicated projectively (positive scaling).  Zero members are
    skipped.  A member of rank two or more raises ValueError.
    """
    xs: list[tuple[Scalar, ...]] = []
    ys: list[tuple[Scalar, ...]] = []
    xi_of: dict[tuple[Scalar, ...], int] = {}
    yi_of: dict[tuple[Scalar, ...], int] = {}
    pairing: list[tuple[int, int]] = []
    nrows = None
    ncols = None
    for e in ideal:
        m = e.canonical
        nrows, ncols = m.rows, m.cols
        if m.is_zero():
            pairing.append((-1, -1))
            continue
        x, y = rank_one_factor(m)
        x = projective_canonical(Matrix(1, len(x), x)).entries
        y = projective_canonical(Matrix(1, len(y), y)).entries
        if x not in xi_of:
            xi_of[x] = len(xs)
            xs.append(x)
        if y not in yi_of:
            yi_of[y] = len(ys)
            ys.append(y)
        pairing.append((xi_of[x], yi_of[y]))
    x_spans = _vectors_span(xs, nrows) if nrows else False
    y_spans = _vectors_span(ys, ncols) if ncols else False
    return XYFactorization(
        x_vectors=tuple(xs),
        y_vectors=tuple(ys),
        pairing=tuple(pairing),
        x_spans=x_spans,
        y_spans=y_spans,
    )


def _vectors_span(vs: list[tuple[Scalar, ...]], n: int) -> bool:
    if not vs:
        return False
    return rank(Matrix(len(vs), n, [e for v in vs for e in v])) == n
