"""Finitely generated matrix semigroups up to positive scaling.

Scaling a matrix by a positive rational changes nothing that this
package cares about (signs, zero patterns, diagonal similarity), so
closures are computed projectively.  Inside, every positive-scaling
class is represented by one projective key: the matrix's parts, cleared
of denominators and divided by their positive gcd.  Products of keys
are plain integer arithmetic on each generator's nonzero column
entries, and the closure is a set of keys.  At the boundary each member
is handed out in canonical form, scaled so the largest entry magnitude
component is 1.  That keeps closures finite in the cases of interest
and keeps entry sizes bounded.  Closures that hit a cap are marked
truncated and no downstream check is allowed to treat them as complete.

Keys come in two widths, chosen once per generator set.  When every
entry of every generator has a zero imaginary part, keys hold the real
parts only, and closure products, canonical forms and algebra
elimination run on them: products of real matrices are real, so one
computation never mixes widths.  Otherwise keys interleave real and
imaginary parts and the arithmetic is Gaussian.  The width never
changes an answer: a real key is the Gaussian key of the same matrix
with its zero imaginary parts dropped.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .exact import (Matrix, Scalar, _int_vector, _square_size, primitive,
                    rank, rank_one_factor)

Key = tuple[int, ...]


@dataclass(frozen=True)
class Caps:
    """Budgets for closure generation."""

    max_elements: int = 10000
    max_word_length: int = 12

    def __post_init__(self):
        if self.max_elements < 1 or self.max_word_length < 1:
            raise ValueError("caps must be positive")


def _projective_key(m: Matrix, real: bool) -> Key:
    """The projective key of m at the given width.

    A real key holds the real parts, row major; a Gaussian key holds
    the parts re, im, re, im, ...  Either is cleared of denominators and
    divided by the positive gcd of its parts.  Two matrices of one shape
    get the same key of one width exactly when one is a positive
    rational multiple of the other.  A real key is only meaningful for
    a matrix whose imaginary parts are all zero; the width is chosen by
    ``_width`` for a whole generator set, so that every key of one
    computation has the same width.
    """
    if real:
        return primitive(_int_vector([e.re for e in m.entries]))
    parts: list[Fraction] = []
    for e in m.entries:
        parts.append(e.re)
        parts.append(e.im)
    return primitive(_int_vector(parts))


KeyColumns = tuple[tuple[tuple[int, ...], ...], ...]


def _key_columns(key: Key, n: int) -> KeyColumns:
    """The nonzero entries of each column of an n x n Gaussian key.

    Column j lists its nonzero entries (k, j) as ``(2k, re, im)``; 2k is
    the offset of entry k within a key row.  Generators are turned into
    columns once, so a product skips their zero entries for free.
    """
    row_len = 2 * n
    return tuple(
        tuple((k, key[k * n + j], key[k * n + j + 1])
              for k in range(0, row_len, 2)
              if key[k * n + j] or key[k * n + j + 1])
        for j in range(0, row_len, 2))


def _key_product(a: Key, bcols: KeyColumns, n: int) -> Key:
    """Gaussian key of the product of the n x n matrix with key a and
    the one whose key has columns bcols."""
    out: list[int] = []
    row_len = 2 * n
    for i in range(0, row_len * n, row_len):
        for col in bcols:
            re = im = 0
            for k, u, v in col:
                x = a[i + k]
                y = a[i + k + 1]
                re += x * u - y * v
                im += x * v + y * u
            out.append(re)
            out.append(im)
    return primitive(out)


def _real_key_columns(key: Key, n: int) -> KeyColumns:
    """The nonzero entries of each column of an n x n real key, placed
    for every row of a left factor.

    Entry (i, j) of a product a b lists the pairs ``(i*n + k, b_kj)``
    for the nonzero entries b_kj of column j: the offset in a's key of
    the entry that b_kj multiplies, and b_kj itself.  Generators are
    turned into columns once, so a product term is one multiply-add.
    """
    nn = n * n
    terms: list[list[tuple[int, int]]] = [[] for _ in range(nn)]
    for kj, u in enumerate(key):
        if u:
            k, j = divmod(kj, n)
            for i in range(0, nn, n):
                terms[i + j].append((i + k, u))
    return tuple(map(tuple, terms))


def _real_key_product(a: Key, bcols: KeyColumns, n: int) -> Key:
    """Real key of the product of the n x n matrix with real key a and
    the one whose real key has columns bcols."""
    out: list[int] = []
    for terms in bcols:
        s = 0
        for k, u in terms:
            s += a[k] * u
        out.append(s)
    return primitive(out)


def _canonical_from_key(key: Key, rows: int, cols: int,
                        memo: dict) -> Matrix:
    """The max-part-1 canonical matrix of a Gaussian key's scaling class.

    ``memo`` lets the members of one closure share equal entries.
    """
    top = max(map(abs, key))
    if top == 0:
        return Matrix.zeros(rows, cols)
    flat = []
    for k in range(0, len(key), 2):
        part = (key[k], key[k + 1], top)
        e = memo.get(part)
        if e is None:
            e = memo[part] = Scalar(Fraction(key[k], top),
                                    Fraction(key[k + 1], top))
        flat.append(e)
    return Matrix(rows, cols, flat)


def _real_canonical_from_key(key: Key, rows: int, cols: int,
                             memo: dict) -> Matrix:
    """The max-part-1 canonical matrix of a real key's scaling class.

    ``memo`` maps each key maximum to the entries made for it, so the
    members of one closure share equal entries.
    """
    top = max(map(abs, key))
    if top == 0:
        return Matrix.zeros(rows, cols)
    entries = memo.get(top)
    if entries is None:
        entries = memo[top] = {}
    for x in set(key).difference(entries):
        entries[x] = Scalar(Fraction(x, top))
    return Matrix(rows, cols, map(entries.__getitem__, key))


Basis = list[tuple[int, Key]]  # (pivot part index, echelon row)


def _reduce(basis: Basis, row: Key) -> tuple[int, Key]:
    """Reduce a Gaussian key row by an echelon basis of Gaussian rows.

    A row is reduced by a basis row with pivot p as
    ``p * row - x * basis_row``, where x is the row's entry in the pivot
    column, then divided by the gcd of its parts.  Multipliers are
    Gaussian, so the span is complex-linear.  Returns the part index of
    the reduced row's first nonzero entry (-1 for a zero row) and the
    row.
    """
    for lead, e in basis:
        x = row[lead]
        y = row[lead + 1]
        if x or y:
            p = e[lead]
            q = e[lead + 1]
            out = []
            for k in range(0, len(row), 2):
                a = row[k]
                b = row[k + 1]
                c = e[k]
                d = e[k + 1]
                out.append(p * a - q * b - x * c + y * d)
                out.append(p * b + q * a - x * d - y * c)
            row = primitive(out)
    lead = next((k for k in range(0, len(row), 2)
                 if row[k] or row[k + 1]), -1)
    return lead, row


def _real_reduce(basis: Basis, row: Key) -> tuple[int, Key]:
    """Reduce a real key row by an echelon basis of real rows: the real
    step ``p * row - x * basis_row``, made primitive."""
    for lead, e in basis:
        x = row[lead]
        if x:
            p = e[lead]
            row = primitive([p * a - x * c for a, c in zip(row, e)])
    lead = next((k for k, a in enumerate(row) if a), -1)
    return lead, row


class _Width(NamedTuple):
    """The routines of one key width."""

    real: bool
    columns: Callable[[Key, int], KeyColumns]
    product: Callable[[Key, KeyColumns, int], Key]
    canonical: Callable[[Key, int, int, dict], Matrix]
    reduce: Callable[[Basis, Key], tuple[int, Key]]


_REAL = _Width(True, _real_key_columns, _real_key_product,
               _real_canonical_from_key, _real_reduce)
_GAUSSIAN = _Width(False, _key_columns, _key_product, _canonical_from_key,
                   _reduce)


def _width(ms: Sequence[Matrix]) -> _Width:
    """Real width when every entry of every matrix is real, else Gaussian."""
    if all(not e.im for m in ms for e in m.entries):
        return _REAL
    return _GAUSSIAN


def projective_canonical(m: Matrix) -> Matrix:
    """Scale by a positive rational so max(|re|, |im|) over entries is 1.

    The zero matrix is its own canonical form.
    """
    w = _width((m,))
    return w.canonical(_projective_key(m, w.real), m.rows, m.cols, {})


@functools.lru_cache(maxsize=4096)
def _extend_word(word: tuple[int, ...], gi: int) -> tuple[int, ...]:
    # Closures of similar generator sets repeat the same short words;
    # handing out one shared tuple per word keeps retained results small.
    return word + (gi,)


@dataclass(frozen=True, slots=True)
class ProjectiveElement:
    """A closure member: canonical matrix plus one generator word.

    Equality and hashing look at the canonical matrix only; the word is
    provenance (0-based generator indices, earliest discovered word).
    """

    canonical: Matrix
    word: tuple[int, ...] = field(compare=False)


@dataclass(frozen=True)
class SemigroupClosure:
    elements: tuple[ProjectiveElement, ...]
    truncated: bool
    caps: Caps

    def canonical_matrices(self) -> tuple[Matrix, ...]:
        return tuple(e.canonical for e in self.elements)

    def contains_matrix(self, m: Matrix) -> bool:
        return projective_canonical(m) in self.canonical_matrices()


@dataclass(frozen=True)
class GroupInfo:
    all_invertible: bool
    closed_under_inverse_within_cap: bool


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
    division; members are converted to their max-part-1 canonical form
    once, on the way out.  Discovery order is by word length, then
    lexicographic word, so runs are reproducible.  The first product
    that would exceed a cap marks the closure truncated and ends the
    search.
    """
    n = _square_size(gens)
    width = _width(gens)
    product = width.product
    gkeys = [_projective_key(g, width.real) for g in gens]
    gcols = [width.columns(c, n) for c in gkeys]
    words: dict[Key, tuple[int, ...]] = {}
    truncated = False
    for gi, c in enumerate(gkeys):
        if c not in words:
            if len(words) >= caps.max_elements:
                truncated = True
                continue
            words[c] = _extend_word((), gi)
    order = list(words)
    qi = 0
    while qi < len(order) and not truncated:
        u = order[qi]
        qi += 1
        word = words[u]
        extendable = len(word) < caps.max_word_length
        for gi, g in enumerate(gcols):
            c = product(u, g, n)
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
    return SemigroupClosure(
        elements=tuple(ProjectiveElement(width.canonical(c, n, n, memo),
                                         words[c]) for c in order),
        truncated=truncated,
        caps=caps,
    )


def rank_one_ideal(closure: SemigroupClosure) -> tuple[ProjectiveElement, ...]:
    """Members of rank at most one, in closure order."""
    return tuple(e for e in closure.elements if rank(e.canonical) <= 1)


def algebra_dimension(gens: Sequence[Matrix]) -> int:
    """Dimension of the algebra spanned by the matrices and the identity.

    The span is grown from the identity by multiplying new basis
    elements by generators on the right until it stabilises.  Every
    basis element is a word and every right product of one lies in the
    span, so the span is closed under right multiplication by the
    generators; as it contains I, it contains every word.  Matrices
    enter as projective keys of the generator set's width (a positive
    scaling does not change a span) and elimination is fraction-free:
    over the integers for real keys, over the Gaussian integers for
    Gaussian ones.  The value is the same over any field extending the
    rationals because ranks of rational matrices do not change under
    field extension.
    """
    n = _square_size(gens)
    dim_target = n * n
    width = _width(gens)
    product = width.product
    reduce = width.reduce
    gcols = [width.columns(_projective_key(g, width.real), n) for g in gens]
    basis: Basis = []

    def try_add(row: Key) -> bool:
        lead, row = reduce(basis, row)
        if lead < 0:
            return False
        basis.append((lead, row))
        return True

    identity = _projective_key(Matrix.identity(n), width.real)
    try_add(identity)
    frontier = [identity]
    while frontier and len(basis) < dim_target:
        nxt: list[Key] = []
        for m in frontier:
            for g in gcols:
                prod = product(m, g, n)
                if try_add(prod):
                    nxt.append(prod)
        frontier = nxt
    return len(basis)


def is_irreducible(gens: Sequence[Matrix]) -> bool:
    """No common invariant subspace besides {0} and everything.

    Equivalent to the generated algebra being the full matrix algebra,
    so the test is one exact dimension computation.
    """
    return algebra_dimension(gens) == gens[0].rows ** 2


def group_info(gens: Sequence[Matrix], caps: Caps = Caps(),
               closure: Optional[SemigroupClosure] = None) -> GroupInfo:
    """Invertibility of generators, and inverse-closure of the closure.

    Inverse-closure is projective: the class of each member's inverse
    must itself be a member.  It holds exactly when every generator is
    invertible and the closure is complete, because a finite semigroup
    of invertible classes is a group.  The powers of a member g fall in
    finitely many classes, so g^k = c * g^l for some k > l and c > 0;
    then g^(k-l) = c * I and g^-1 = g^(k-l-1) / c, a member's class (g's
    own when k = l + 1, as g is then a multiple of I).  With a truncated
    closure (or any singular generator) the property is not established
    and is reported False.
    """
    n = _square_size(gens)
    all_invertible = all(rank(g) == n for g in gens)
    if not all_invertible:
        return GroupInfo(False, False)
    if closure is None:
        closure = generate_closure(gens, caps)
    return GroupInfo(True, not closure.truncated)


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
