"""Finitely generated matrix semigroups up to positive scaling.

Scaling a matrix by a positive rational changes nothing that this
package cares about (signs, zero patterns, diagonal similarity), so
closures are computed projectively.  Inside, every positive-scaling
class is represented by its projective key from :mod:`matsemi.exact`,
of the width chosen once for the generator set.  Products of keys are
plain integer arithmetic: the left factor's nonzero parts times each
generator's nonzero image rows, so zeros on either side cost nothing.
Each generator class is laid out once per image row, with a bitmask
of its nonzero rows; each left factor lists its nonzero parts once,
with a bitmask of the image rows they read.  Where the two masks share
no bit, every term of the product is zero, so the product is the zero
key and is not computed.
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
from math import gcd
from typing import NamedTuple, Sequence

from .exact import (Basis, Key, Matrix, Scalar, _image_rows, _insert,
                    _key_parts, _key_rank, _projective_keys, _rotation,
                    _square_size, rank, rank_one_factor)


@dataclass(frozen=True)
class Caps:
    """Budgets for closure generation."""

    max_elements: int = 10000
    max_word_length: int = 12

    def __post_init__(self):
        if self.max_elements < 1 or self.max_word_length < 1:
            raise ValueError("caps must be positive")


KeyRows = tuple[tuple[tuple[int, int], ...], ...]
Parts = list[tuple[int, int, int]]


def _key_rows(key: Key, n: int) -> tuple[KeyRows, int]:
    """The nonzero entries of each row of the w x w image of an n x n
    matrix's key, and the bitmask of its nonzero image rows.

    The image is the key itself at real width (w = n) and the key over
    its rotation at block-row width (w = 2n).  Row k lists the pairs
    ``(j, f_kj)`` for the nonzero entries f_kj of image row k: a left
    key's part i*w + k times it adds to part i*w + j of the product.
    Each generator class is laid out once, w rows that serve every row
    of a left factor, so a product term is one multiply-add; bit k of
    the mask is set when row k has an entry.
    """
    rows = tuple(tuple((j, u) for j, u in enumerate(row) if u)
                 for row in _image_rows(key, n, n))
    return rows, sum(1 << k for k, row in enumerate(rows) if row)


def _nonzeros(key: Key, w: int) -> tuple[Parts, int]:
    """A key's nonzero parts, each as ``(i*w, k, part)`` for its row i
    and the image row k it multiplies, and the bitmask of the image rows
    they read.

    A product with a layout of ``_key_rows`` whose mask shares no bit
    with this one multiplies every nonzero part by a zero row: it is the
    zero key.
    """
    parts = []
    mask = 0
    for p, x in enumerate(key):
        if x:
            k = p % w
            parts.append((p - k, k, x))
            mask |= 1 << k
    return parts, mask


class _Generators(NamedTuple):
    """A generator set as integers: its size n, its projective keys in
    input order (repeats included, one width) and its positive-scaling
    classes in input order, each as its first occurrence's index and
    the image rows and their mask of ``_key_rows``.  A repeat's products
    are positive multiples of its first occurrence's, so products with
    generators read ``classes`` only."""

    n: int
    keys: list[Key]
    classes: list[tuple[int, KeyRows, int]]

    @classmethod
    def of(cls, gens: Sequence[Matrix]) -> "_Generators":
        n = _square_size(gens)
        keys = _projective_keys(gens)
        return cls(n, keys, [(keys.index(k), *_key_rows(k, n))
                             for k in dict.fromkeys(keys)])


def _key_product(a: Parts, rows: KeyRows, size: int) -> Key:
    """Key, of ``size`` parts, of the product of the matrix whose key has
    the nonzero parts a (``_nonzeros``) and the one laid out as rows
    (``_key_rows``).

    Callers skip the pairs whose masks share no bit: their product is
    the zero key ``(0,) * size``, which this also returns for them.  A
    part that reads a zero image row adds nothing, and the sum is
    divided by its positive gcd here, as ``exact.primitive`` does.
    """
    out = [0] * size
    for base, k, x in a:
        for j, u in rows[k]:
            out[base + j] += x * u
    g = gcd(*out)
    if g > 1:
        return tuple([y // g for y in out])
    return tuple(out)


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
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_memo", memo)
        object.__setattr__(self, "_canonical", canonical)

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
    division.  A member's nonzero parts are listed once, with the mask
    of the image rows they read, and go into every product it is the
    left factor of; a class whose mask of nonzero image rows shares no
    bit with it gives the zero key, the key the product would have made,
    with nothing multiplied.  One-letter words and products come from
    the record's ``classes``: a repeat gives the class of its first
    occurrence's product, which is tried first, so it could neither add
    a member nor end the search.  Members keep their keys and build
    their max-part-1 canonical form only when it is read.  Discovery
    order is by word length, then lexicographic word, so runs are
    reproducible.  The first product that would exceed a cap marks the
    closure truncated and ends the search.  The closure keeps its
    ``_Generators`` outside its fields, so equality and repr do not see
    it.
    """
    record = _Generators.of(gens)
    n, gkeys, classes = record
    size = len(gkeys[0])
    w = size // n
    zero = (0,) * size
    product = _key_product
    words: dict[Key, tuple[int, ...]] = {
        gkeys[gi]: _extend_word((), gi)
        for gi, _, _ in classes[:caps.max_elements]}
    truncated = len(classes) > caps.max_elements
    order = list(words)
    qi = 0
    while qi < len(order) and not truncated:
        u = order[qi]
        qi += 1
        word = words[u]
        extendable = len(word) < caps.max_word_length
        nonzeros, mask = _nonzeros(u, w)
        for gi, rows, rmask in classes:
            c = product(nonzeros, rows, size) if mask & rmask else zero
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
    elements by generators on the right until it stabilises or is the
    whole space.  Every basis element is a word and every right product
    of one lies in the span, so the span is closed under right
    multiplication by the generators; as it contains I, it contains
    every word.  Matrices enter as projective keys (a positive scaling
    does not change a span) and grow an echelon basis.  At block-row
    width every row that enters brings its rotation, the key of i times
    it, so the rational span of the keys is the complex span of the
    matrices and has twice its dimension.  The value is the same over
    any field extending the rationals because ranks of rational matrices
    do not change under field extension.
    """
    return _span_dimension(_Generators.of(gens))


def _span_dimension(record: _Generators) -> int:
    """``algebra_dimension`` of the generators with this record, spanned
    by products with its ``classes``.

    A product whose masks share no bit is the zero key, which never
    enters the basis, so it is not made.  The search stops as soon as
    the basis has n*w rows, as many as a key has parts: every later
    product would lie in its span.
    """
    n, keys, classes = record
    size = len(keys[0])
    w = size // n
    identity = tuple(int(i == j) for i in range(n) for j in range(w))
    basis: Basis = []

    def try_add(row: Key) -> bool:
        if not _insert(basis, row):
            return False
        if size > n * n:
            # iX is never in a rotation-closed span that lacks X, so
            # it always enters too
            _insert(basis, _rotation(basis[-1][1], n))
        return True

    try_add(identity)
    frontier = [identity]
    while frontier and len(basis) < size:
        nxt: list[Key] = []
        for m in frontier:
            nonzeros, mask = _nonzeros(m, w)
            for _, rows, rmask in classes:
                if mask & rmask:
                    prod = _key_product(nonzeros, rows, size)
                    if try_add(prod):
                        if len(basis) == size:
                            return n * n
                        nxt.append(prod)
        frontier = nxt
    return len(basis) // (size // (n * n))


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
