"""Exact arithmetic over the Gaussian rationals, and dense matrices over them.

Every structural decision made by this package (zero tests, sign tests,
rank computations) reduces to exact comparisons of ``fractions.Fraction``
values.  Nothing in this module rounds, and nothing imports numpy; the
floating-point world is confined to :mod:`matsemi.spectral`.

All elimination runs on one fraction-free integer Gauss-Jordan core at
the end of this module, which keeps every row a primitive integer
vector.  Where only rays matter (vectors up to positive scaling),
callers clear denominators and use it directly.  ``rank`` and
``inverse`` of a Gaussian matrix A + iB use it on the integer real form
[[A, -B], [B, A]], which has twice the rank and inverts to the real
form of the inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

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

    def max_abs_part(self) -> Fraction:
        return max(abs(self.re), abs(self.im))

    # -- plumbing ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

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


def matrix_vector(m: Matrix, v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    if len(v) != m.cols:
        raise ValueError("dimension mismatch in matrix-vector product")
    out = []
    for i in range(m.rows):
        s = ZERO
        for j, x in enumerate(m.row(i)):
            if x:
                s = s + x * v[j]
        out.append(s)
    return tuple(out)


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


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """v divided by the positive gcd of its entries.

    The result is the primitive integer vector on the ray of v: one
    representative per positive-scaling class.  Zero stays zero.
    """
    g = math.gcd(*v)
    if g > 1:
        return tuple(x // g for x in v)
    return tuple(v)


def int_gauss_jordan(
        rows: Sequence[Sequence[int]]
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Fraction-free Gauss-Jordan elimination over integer rows.

    Returns (rows, pivots).  For i < len(pivots), row i has a nonzero
    entry D_i at column pivots[i] and zeros in every other pivot column,
    so it is D_i times row i of the rational reduced row echelon form;
    the rows after those are zero.  Each update clears one entry with
    integer factors, row <- |D| * row - sign(D) * row[c] * pivot_row
    (both factors divided by their gcd), and then divides the row by its
    positive gcd, so entries stay integers and every row stays
    primitive.  D_i may be negative: callers dividing by it must keep
    its sign.
    """
    work = [primitive(r) for r in rows]
    pivots: list[int] = []
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        prow = work[r]
        a = prow[c]
        for i in range(nrows):
            b = work[i][c]
            if i == r or not b:
                continue
            g = math.gcd(a, b)
            fa, fb = abs(a) // g, b // g if a > 0 else -b // g
            work[i] = primitive([fa * x - fb * y
                                 for x, y in zip(work[i], prow)])
        pivots.append(c)
        r += 1
    return work, pivots


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix given by its rows."""
    return len(int_gauss_jordan(rows)[1])


def int_nullspace(rows: Sequence[Sequence[int]],
                  n: int) -> list[tuple[int, ...]]:
    """Primitive basis of {x in Z^n : rows @ x = 0}, one per free column.

    The vector for free column f is the rational reduced-row-echelon
    basis vector (1 at f, minus the reduced column at the pivots)
    times the positive lcm L of the |D_i|, then made primitive.
    """
    red, pivots = int_gauss_jordan(rows)
    den = math.lcm(*(abs(red[i][p]) for i, p in enumerate(pivots)))
    pivset = set(pivots)
    basis: list[tuple[int, ...]] = []
    for f in range(n):
        if f in pivset:
            continue
        v = [0] * n
        v[f] = den
        for i, p in enumerate(pivots):
            v[p] = -red[i][f] * (den // red[i][p])
        basis.append(primitive(v))
    return basis


def int_independent_subset(vecs: Sequence[Sequence[int]]) -> list[int]:
    """Indices of a maximal independent subset, greedily in given order.

    These are the pivot columns of the matrix whose columns are vecs: a
    column is a pivot exactly when it is outside the span of the earlier
    ones.
    """
    if not vecs:
        return []
    return int_gauss_jordan(list(zip(*vecs)))[1]


def _int_vector(v: Sequence[Fraction]) -> tuple[int, ...]:
    """v times the lcm of its denominators: a positive integer multiple."""
    den = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (den // x.denominator) for x in v)


def _int_inverse_rows(b: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Eliminate [b | I] for a square integer b.

    Row i comes back as D_i e_i | X_i, so b^-1 = diag(D)^-1 X; D_i may
    be negative.  Raises ValueError if b is singular.
    """
    n = len(b)
    red, pivots = int_gauss_jordan(
        [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(b)])
    if pivots and pivots[-1] >= n:
        raise ValueError("matrix is singular")
    return red


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


# -- Gaussian matrices on the integer core -------------------------------


def _real_form(m: Matrix) -> tuple[list[list[int]], list[int]]:
    """Integer rows of the real form [[A, -B], [B, A]] of m = A + iB.

    Rows i and m.rows + i come from row i of m and are both scaled by
    L_i, the positive lcm of that row's denominators; returns the rows
    and the L_i.  The real form is m acting on C^n = R^n + iR^n, so its
    rank is twice the rank of m, and when m is invertible its inverse is
    the real form of m^-1.
    """
    top: list[list[int]] = []
    bottom: list[list[int]] = []
    dens: list[int] = []
    for i in range(m.rows):
        row = m.row(i)
        parts = [e.re for e in row] + [e.im for e in row]
        den = math.lcm(*(x.denominator for x in parts))
        ints = [x.numerator * (den // x.denominator) for x in parts]
        re, im = ints[:m.cols], ints[m.cols:]
        top.append(re + [-x for x in im])
        bottom.append(im + re)
        dens.append(den)
    return top + bottom, dens


def rank(m: Matrix) -> int:
    """Exact rank over the Gaussian rationals: half that of the real form."""
    return int_rank(_real_form(m)[0]) // 2


def inverse(m: Matrix) -> Matrix:
    """Exact inverse.  Raises ValueError on non-square or singular input.

    Eliminating [R | I] for the scaled real form R = diag(L) [[A, -B],
    [B, A]] gives R^-1 = diag(D)^-1 X.  The first n columns of R^-1
    diag(L) are C over D for m^-1 = C + iD.
    """
    if not m.is_square:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    rows, dens = _real_form(m)
    red = _int_inverse_rows(rows)

    def part(i: int, j: int) -> Fraction:
        return Fraction(red[i][2 * n + j] * dens[j], red[i][i])

    return Matrix(n, n, [Scalar(part(i, j), part(n + i, j))
                         for i in range(n) for j in range(n)])


def rank_one_factor(m: Matrix) -> tuple[tuple[Scalar, ...], tuple[Scalar, ...]]:
    """Factor a rank-one matrix as an outer product x * y^T.

    The first nonzero entry of x is normalised to 1, which makes the
    factorisation canonical.  Raises ValueError unless rank(m) == 1.
    """
    if rank(m) != 1:
        raise ValueError("rank_one_factor requires a matrix of rank exactly 1")
    pivot_col = -1
    for j in range(m.cols):
        if any(m.entry(i, j) for i in range(m.rows)):
            pivot_col = j
            break
    col = m.col(pivot_col)
    pivot_row = next(i for i, e in enumerate(col) if e)
    scale = col[pivot_row]
    x = tuple(e / scale for e in col)
    y = tuple(m.entry(pivot_row, j) for j in range(m.cols))
    return x, y


@dataclass(frozen=True)
class EntryClassification:
    """Sign/shape facts about a matrix, all decided exactly."""

    is_real: bool
    is_nonnegative: bool
    is_positive: bool
    is_diagonal: bool
    is_monomial: bool
    has_nonneg_diagonal: bool


def classify_entries(m: Matrix) -> EntryClassification:
    is_real = all(e.is_real for e in m.entries)
    is_nonneg = all(e.is_nonneg_real for e in m.entries)
    is_pos = all(e.is_positive_real for e in m.entries)
    is_diag = all(not m.entry(i, j)
                  for i in range(m.rows) for j in range(m.cols) if i != j)
    # monomial: exactly one nonzero entry in every row and every column
    is_monomial = m.is_square
    if is_monomial:
        for i in range(m.rows):
            if sum(1 for e in m.row(i) if e) != 1:
                is_monomial = False
                break
    if is_monomial:
        for j in range(m.cols):
            if sum(1 for e in m.col(j) if e) != 1:
                is_monomial = False
                break
    ndiag = min(m.rows, m.cols)
    has_nonneg_diag = all(m.entry(i, i).is_nonneg_real for i in range(ndiag))
    return EntryClassification(
        is_real=is_real,
        is_nonnegative=is_nonneg,
        is_positive=is_pos,
        is_diagonal=is_diag,
        is_monomial=is_monomial,
        has_nonneg_diagonal=has_nonneg_diag,
    )
