"""Exact arithmetic over the Gaussian rationals, and dense matrices over them.

Every structural decision made by this package (zero tests, sign tests,
rank computations) reduces to exact comparisons of ``fractions.Fraction``
values.  Nothing in this module rounds; the floating-point world is
confined to :mod:`matsemi.spectral` and the float routines it calls in
:mod:`matsemi._kernels` (``power_iteration`` and ``residual``).

This is the only module that turns matrices into integers and
eliminates them, in one loop: each row is cleared at the pivots of an
echelon basis with one fraction-free step (``_clear``) that keeps it a
primitive integer vector, and enters the basis unless it is zero.  Null
spaces and inverses also clear each basis row at the later pivots.
Where only rays matter, callers clear denominators and use the core
directly.

Matrices enter the core as projective keys: their parts cleared of
denominators and divided by their positive gcd.  A matrix A + iB is
keyed by its real parts A when every matrix of its set is real, and
otherwise by the n x 2n block row [A | B].  The map A + iB ->
[[A, B], [-B, A]] is an injective ring homomorphism, and the first
block row of the image of XY is [A | B] times the image of Y.  So one
integer product serves both widths: the right factor of a product is
the w x w image, A itself when w = n, and [[A, B], [-B, A]] when
w = 2n.  Its second block row [-B | A] is the rotation of the key, the
key of iX.  The width is chosen once per set and read from a key's
length after that; it never changes an answer, because a real key is
the block-row key of the same matrix with its zero B block dropped.
``rank`` and ``inverse`` eliminate the rows of the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

RationalLike = Union[int, str, Fraction]
ScalarLike = Union["Scalar", int, str, Fraction]


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        # Fraction would compute 10**exp for "1e999999999": eleven
        # characters that exhaust time and memory.
        if "e" in x or "E" in x:
            raise ValueError(
                f"exponent notation is not accepted in {x!r}; "
                "write 'p/q' strings")
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class Scalar:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def of(x: ScalarLike) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(_as_fraction(x))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        return Scalar(self.re + o.re, self.im + o.im)

    def __sub__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        return Scalar(self.re - o.re, self.im - o.im)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        return Scalar(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar((self.re * o.re + self.im * o.im) / den,
                      (self.im * o.re - self.re * o.im) / den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) - self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    @property
    def is_nonneg_real(self) -> bool:
        return self.im == 0 and self.re >= 0

    @property
    def is_positive_real(self) -> bool:
        return self.im == 0 and self.re > 0

    # -- plumbing ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real Scalar equals its real part, so it must hash like it
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"Scalar({str(self.re)!r})"
        return f"Scalar({str(self.re)!r}, {str(self.im)!r})"


ZERO = Scalar(0)
ONE = Scalar(1)


class Matrix:
    """An immutable dense matrix of :class:`Scalar` entries, row major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Scalar]):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[ScalarLike]]) -> "Matrix":
        if not rows:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        flat: list[Scalar] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(Scalar.of(x) for x in r)
        return Matrix(len(rows), ncols, flat)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [ZERO] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.diagonal([ONE] * n)

    @staticmethod
    def diagonal(diag: Sequence[ScalarLike]) -> "Matrix":
        n = len(diag)
        flat = [ZERO] * (n * n)
        for i, x in enumerate(diag):
            flat[i * n + i] = Scalar.of(x)
        return Matrix(n, n, flat)

    # -- access --------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[Scalar, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self.entries)

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return matrix_product(self, other)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix difference")
        return Matrix(self.rows, self.cols,
                      [a - b for a, b in zip(self.entries, other.entries)])

    def scale(self, c: ScalarLike) -> "Matrix":
        c = Scalar.of(c)
        return Matrix(self.rows, self.cols, [c * e for e in self.entries])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-e for e in self.entries])

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [self.entry(i, j) for j in range(self.cols)
                       for i in range(self.rows)])

    # -- plumbing ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        def fmt(e: Scalar) -> str:
            if e.im == 0:
                return str(e.re)
            return f"({e.re}{'+' if e.im >= 0 else ''}{e.im}i)"
        body = "; ".join(" ".join(fmt(e) for e in self.row(i))
                         for i in range(self.rows))
        return f"Matrix[{body}]"


def matrix_product(a: Matrix, b: Matrix) -> Matrix:
    """Exact product ``a @ b``."""
    if a.cols != b.rows:
        raise ValueError(
            f"dimension mismatch: ({a.rows}x{a.cols}) @ ({b.rows}x{b.cols})")
    flat: list[Scalar] = []
    brows = [b.row(k) for k in range(b.rows)]
    for i in range(a.rows):
        arow = a.row(i)
        for j in range(b.cols):
            s = ZERO
            for k in range(a.cols):
                aik = arow[k]
                if aik:
                    s = s + aik * brows[k][j]
            flat.append(s)
    return Matrix(a.rows, b.cols, flat)


def _square_size(ms: Sequence[Matrix]) -> int:
    """The size n of a non-empty collection of n x n matrices.

    Raises ValueError if the collection is empty, or if a member is not
    square or differs in size from the first.
    """
    if not ms:
        raise ValueError("empty matrix collection")
    n = ms[0].rows
    if any(m.rows != n or m.cols != n for m in ms):
        raise ValueError("matrices must be square of the same size")
    return n


# -- fraction-free elimination over the integers ------------------------

Key = tuple[int, ...]


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """v divided by the positive gcd of its entries.

    The result is the primitive integer vector on the ray of v: one
    representative per positive-scaling class.  Zero stays zero.
    """
    g = math.gcd(*v)
    if g > 1:
        return tuple(x // g for x in v)
    return tuple(v)


def _clear(row: Sequence[int], prow: Sequence[int], c: int) -> Key:
    """|a| * row - sign(a) * b * prow for a = prow[c] != 0, b = row[c].

    Both factors are divided by gcd(a, b), and the result by its
    positive gcd, so it is primitive and zero at column c.
    """
    a, b = prow[c], row[c]
    g = math.gcd(a, b)
    fa, fb = abs(a) // g, b // g if a > 0 else -b // g
    return primitive([fa * x - fb * y for x, y in zip(row, prow)])


Basis = list[tuple[int, Key]]  # (pivot part index, echelon row)


def _insert(basis: Basis, row: Sequence[int]) -> bool:
    """Clear an integer row at the pivots of an echelon basis, in order.

    Unless the row then lies in the span of the basis, appends it with
    the part index of its first nonzero entry as its pivot.  Returns
    whether it was appended.
    """
    for lead, e in basis:
        if row[lead]:
            row = _clear(row, e, lead)
    lead = next((k for k, a in enumerate(row) if a), -1)
    if lead < 0:
        return False
    basis.append((lead, tuple(row)))
    return True


def _reduced_basis(rows: Sequence[Sequence[int]]) -> Basis:
    """The echelon basis of the primitive rows, reduced and sorted.

    A row is zero at the pivots of the rows inserted before it, so one
    pass clearing each row at the later pivots leaves it zero at every
    pivot but its own: row i is D_i times row i of the rational reduced
    row echelon form.  D_i may be negative; callers must keep its sign.
    """
    basis: Basis = []
    for r in rows:
        _insert(basis, primitive(r))
    for i, (lead, e) in enumerate(basis):
        for later, f in basis[i + 1:]:
            if e[later]:
                e = _clear(e, f, later)
        basis[i] = lead, e
    return sorted(basis)


def int_independent_subset(vecs: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the vectors outside the span of the earlier ones."""
    basis: Basis = []
    return [i for i, v in enumerate(vecs) if _insert(basis, v)]


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix given by its rows."""
    return len(int_independent_subset(rows))


def int_span(rows: Sequence[Sequence[int]], n: int,
             max_null_entries: float = math.inf,
             ) -> tuple[list[int], list[tuple[int, ...]]]:
    """The indices of ``int_independent_subset`` and a primitive basis
    of {x in Z^n : rows @ x = 0}, from one echelon basis of the rows:
    for each free column f, the rational reduced-row-echelon basis
    vector (1 at f, minus the reduced column at the pivots) times the
    positive lcm of the |D_i| of ``_reduced_basis``, made primitive.

    Raises ValueError before building the null-space basis if it would
    hold more than max_null_entries entries: n per free column.
    """
    basis: Basis = []
    entered = [i for i, r in enumerate(rows) if _insert(basis, primitive(r))]
    free = n - len(basis)
    if n * free > max_null_entries:
        raise ValueError(f"the null space is limited to {max_null_entries} "
                         f"entries, got {free} vectors of length {n}")
    if not free:
        return entered, []
    # each echelon row is zero at the earlier pivots, so it re-enters as is
    red = _reduced_basis([e for _, e in basis])
    den = math.lcm(*(abs(e[p]) for p, e in red))
    pivots = {p for p, _ in red}
    null: list[tuple[int, ...]] = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = den
        for p, e in red:
            v[p] = -e[f] * (den // e[p])
        null.append(primitive(v))
    return entered, null


def _int_vector(v: Sequence[Fraction]) -> tuple[int, ...]:
    """v times the lcm of its denominators: a positive integer multiple."""
    ratios = [x.as_integer_ratio() for x in v]
    den = math.lcm(*[q for _, q in ratios])
    if den == 1:
        return tuple([p for p, _ in ratios])
    return tuple([p * (den // q) for p, q in ratios])


def _int_inverse_rows(b: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Eliminate [b | I] for a square integer b.

    Row i comes back as D_i e_i | X_i, so b^-1 = diag(D)^-1 X; D_i may
    be negative.  Raises ValueError if b is singular.
    """
    n = len(b)
    red = _reduced_basis([list(row) + [int(i == j) for j in range(n)]
                          for i, row in enumerate(b)])
    if red and red[-1][0] >= n:
        raise ValueError("matrix is singular")
    return [e for _, e in red]


def int_inverse_columns(b: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Columns of b^-1 for an invertible integer b, each made primitive.

    With b^-1 = diag(D)^-1 X from eliminating [b | I], column j times
    L = lcm |D_i| is (X_ij * (L / D_i))_i: a positive multiple of the
    exact column.  Raises ValueError if b is singular.
    """
    n = len(b)
    red = _int_inverse_rows(b)
    den = math.lcm(*(abs(red[i][i]) for i in range(n)))
    scale = [den // red[i][i] for i in range(n)]
    return [primitive([red[i][n + j] * scale[i] for i in range(n)])
            for j in range(n)]


# -- matrices on the integer core: projective keys ----------------------


def _projective_keys(ms: Sequence[Matrix]) -> list[Key]:
    """The projective keys of a set of matrices, all of one width.

    When every entry of every matrix is real, a key holds the real
    parts A row major; otherwise it holds the block row [A | B], each
    row of A followed by the same row of B.  Either is cleared of
    denominators and divided by the positive gcd of its parts.  Two
    matrices of one shape get the same key of one width exactly when
    one is a positive rational multiple of the other.
    """
    real = all(not e.im for m in ms for e in m.entries)
    keys = []
    for m in ms:
        if real:
            parts = [e.re for e in m.entries]
        else:
            parts = []
            for i in range(m.rows):
                row = m.row(i)
                parts += [e.re for e in row]
                parts += [e.im for e in row]
        keys.append(primitive(_int_vector(parts)))
    return keys


def _rotation(key: Key, n: int) -> Key:
    """The key [-B | A] of iX, for the block-row key [A | B] of X."""
    out: list[int] = []
    for r in range(0, len(key), 2 * n):
        out += [-x for x in key[r + n:r + 2 * n]]
        out += key[r:r + n]
    return tuple(out)


def _image_rows(key: Key, rows: int, cols: int) -> list[Key]:
    """The rows of s times the image of the rows x cols matrix with this
    key, for the key's positive rational s: the key's rows and, at
    block-row width, its rotation's.
    """
    w = len(key) // rows
    if w > cols:
        key += _rotation(key, cols)
    return [key[i:i + w] for i in range(0, len(key), w)]


def _key_rank(key: Key, rows: int, cols: int) -> int:
    """Exact rank of the rows x cols matrix with this key.

    A real image A has the rank of the matrix, as rank does not change
    under field extension; the image [[A, B], [-B, A]] has twice that
    rank.
    """
    image = _image_rows(key, rows, cols)
    return int_rank(image) * cols // len(image[0])


def _key_parts(key: Key, rows: int, cols: int) -> tuple[Key, Key]:
    """The real and the imaginary parts, row major, of the rows x cols
    matrix with this key, times the key's positive scale.  At real width
    the imaginary parts are empty."""
    if len(key) == rows * cols:
        return key, ()
    re: list[int] = []
    im: list[int] = []
    for r in range(0, len(key), 2 * cols):
        re += key[r:r + cols]
        im += key[r + cols:r + 2 * cols]
    return tuple(re), tuple(im)


def _entry_signs(parts: Sequence[int]) -> list[int]:
    """The signs (-1, 0, 1) of key parts: at real width, the row-major
    entry signs of the key's matrix."""
    return [(x > 0) - (x < 0) for x in parts]


def rank(m: Matrix) -> int:
    """Exact rank over the Gaussian rationals."""
    key, = _projective_keys([m])
    return _key_rank(key, m.rows, m.cols)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse.  Raises ValueError on non-square or singular input.

    Eliminating [R | I] for the image rows R gives R^-1 = diag(D)^-1 X,
    and s R^-1 is the image of m^-1, whose first n rows are its key.
    """
    if not m.is_square:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    key, = _projective_keys([m])
    rows = _image_rows(key, n, n)
    w = len(rows)
    red = _int_inverse_rows(rows)
    # s is a nonzero key part of row 0 over the part of m it scales
    k = next(k for k, x in enumerate(rows[0]) if x)
    e = m.entry(0, k % n)
    s = rows[0][k] / (e.re if k < n else e.im)

    def part(i: int, k: int) -> Fraction:
        return Fraction(red[i][w + k] * s.numerator,
                        red[i][i] * s.denominator)

    return Matrix(n, n, [Scalar(part(i, j), part(i, n + j) if w > n else 0)
                         for i in range(n) for j in range(n)])


def rank_one_factor(m: Matrix) -> tuple[tuple[Scalar, ...], tuple[Scalar, ...]]:
    """Factor a rank-one matrix as an outer product x * y^T.

    The first nonzero entry of x is normalised to 1, which makes the
    factorisation canonical.  Raises ValueError unless rank(m) == 1.
    """
    if rank(m) != 1:
        raise ValueError("rank_one_factor requires a matrix of rank exactly 1")
    # for m = x y^T the first nonzero entry in row-major order sits at
    # the first nonzero of x and the first nonzero of y
    k = next(k for k, e in enumerate(m.entries) if e)
    pivot_row, pivot_col = divmod(k, m.cols)
    col = m.col(pivot_col)
    x = tuple(e / col[pivot_row] for e in col)
    return x, m.row(pivot_row)


@dataclass(frozen=True, slots=True)
class EntryClassification:
    """Sign/shape facts about a matrix, all decided exactly."""

    is_real: bool
    is_nonnegative: bool
    is_positive: bool
    is_diagonal: bool
    is_monomial: bool
    has_nonneg_diagonal: bool


def _nonzero_positions(flat: Sequence, cols: int) -> list[tuple[int, int]]:
    """(row, column) of each nonzero entry of a row-major sequence."""
    return [divmod(k, cols) for k, e in enumerate(flat) if e]


def _is_monomial(nonzero: Sequence[tuple[int, int]], n: int) -> bool:
    """Whether these nonzero positions of an n x n matrix hold one entry
    in every row and every column: n of them, in n distinct rows and n
    distinct columns."""
    return (len(nonzero) == n and len({i for i, _ in nonzero}) == n
            and len({j for _, j in nonzero}) == n)


def classify_entries(m: Matrix) -> EntryClassification:
    nonzero = _nonzero_positions(m.entries, m.cols)
    return EntryClassification(
        is_real=all(e.is_real for e in m.entries),
        is_nonnegative=all(e.is_nonneg_real for e in m.entries),
        is_positive=all(e.is_positive_real for e in m.entries),
        is_diagonal=all(i == j for i, j in nonzero),
        is_monomial=m.is_square and _is_monomial(nonzero, m.rows),
        has_nonneg_diagonal=all(m.entry(i, i).is_nonneg_real
                                for i in range(min(m.rows, m.cols))),
    )
