"""Deciding diagonal similarity to nonnegative matrices, with witnesses.

Entry (i, j) of D m D^{-1} is d_i * m_ij / d_j, a positive multiple of
d_i * m_ij * conj(d_j), so whether it is nonnegative depends only on the
phase of each d_i: the question is whether a gain graph is balanced
(Engel and Schneider, "Cyclic and diagonal products on a matrix", 1973;
Zaslavsky, "Biased graphs. I", 1989).  The solver reads the matrices'
projective keys, whose parts are positive multiples of the entries, and
keeps each d_i as a primitive Gaussian integer, one per phase.  It
propagates the phases along a spanning forest of the undirected support
graph (vertices joined when either of the two opposite entries is
nonzero), with 1 at the smallest vertex of every component.  Any valid
witness has these phases up to one common phase per component, so if
the propagated diagonal fails the check, no diagonal works.

The decision is integer multiply-adds, with no division; at real key
width the phases are +-1 and the check is one on entry signs.  The
witness becomes ``Scalar`` values only for output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .exact import (Key, Matrix, ONE, Scalar, _key_parts, _projective_keys,
                    _square_size, primitive)

_MINUS_ONE = Scalar(-1)

# a nonzero entry of a key's matrix: row, column, real and imaginary part
Entry = tuple[int, int, int, int]
# a diagonal entry up to a positive factor: a primitive Gaussian integer
Phase = tuple[int, int]


@dataclass(frozen=True)
class SignDiagonal:
    """A diagonal of +-1 entries, first entry fixed to +1."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if not self.signs:
            raise ValueError("empty sign diagonal")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")
        if self.signs[0] != 1:
            raise ValueError("leading sign must be +1")

    def witness(self) -> "DiagonalWitness":
        return DiagonalWitness(tuple(Scalar(s) for s in self.signs))


@dataclass(frozen=True, slots=True)
class DiagonalWitness:
    """An invertible diagonal D given by its diagonal entries."""

    d: tuple[Scalar, ...]

    def __post_init__(self):
        if not self.d:
            raise ValueError("empty diagonal")
        if any(not x for x in self.d):
            raise ValueError("diagonal entries must be nonzero")

    def signs(self) -> Optional[SignDiagonal]:
        """The +-1 sign pattern times the sign of d[0] (D and -D
        conjugate alike), if every entry is real.  None otherwise."""
        if any(not x.is_real for x in self.d):
            return None
        d0 = self.d[0].re
        return SignDiagonal(tuple(1 if x.re * d0 > 0 else -1 for x in self.d))


def conjugate(w: DiagonalWitness, m: Matrix) -> Matrix:
    """D m D^{-1}, entrywise d_i * m_ij / d_j.

    Diagonal and zero entries are kept as they are, and an entry whose
    ratio d_i/d_j is +1 or -1 is copied or negated, so sign witnesses
    cost no multiplications.  Each 1/d_j is formed once, and only when
    an entry needs it, so they cost no divisions either.
    """
    if not m.is_square or m.rows != len(w.d):
        raise ValueError("witness size does not match matrix")
    n = m.rows
    d = w.d
    neg = [-x for x in d]
    inv: list[Optional[Scalar]] = [None] * n
    flat = list(m.entries)
    for i in range(n):
        di = d[i]
        for j in range(n):
            e = flat[i * n + j]
            if i == j or not e or di == d[j]:
                continue
            if di == neg[j]:
                flat[i * n + j] = -e
            else:
                if inv[j] is None:
                    inv[j] = ONE / d[j]
                flat[i * n + j] = di * e * inv[j]
    return Matrix(n, n, flat)


def _key_entries(key: Key, n: int) -> list[Entry]:
    """(i, j, re, im) of each nonzero entry, row major, of the n x n
    matrix with this key, its parts times the key's positive scale."""
    re, im = _key_parts(key, n, n)
    im = im or (0,) * len(re)
    return [(k // n, k % n, a, b) for k, (a, b) in enumerate(zip(re, im))
            if a or b]


def _propagate(entries: Sequence[Sequence[Entry]], n: int) -> list[Phase]:
    """Breadth-first phases over the support graph of these nonzero
    entries, (1, 0) at the smallest vertex of every component.

    A valid witness makes d_u * m_uv * conj(d_v) a positive real, so d_v
    is a positive multiple of d_u * m_uv, and of d_u * conj(m_vu) for
    the reverse orientation: each off-diagonal entry is an edge both
    ways.
    """
    adj: list[dict[int, Phase]] = [{} for _ in range(n)]
    for es in entries:
        for i, j, a, b in es:
            if i != j:
                adj[i][j] = a, b
                adj[j][i] = a, -b
    d: list = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = (1, 0)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            p, q = d[u]
            for v, (a, b) in adj[u].items():
                if d[v] is None:
                    d[v] = primitive((p * a - q * b, p * b + q * a))
                    queue.append(v)
    return d


def _fits(d: Sequence[Phase], entries: Iterable[Entry]) -> bool:
    """Whether the phase diagonal d makes every d_i * m_ij * conj(d_j)
    over these nonzero entries a positive real, so for i = j, m_ii > 0."""
    for i, j, a, b in entries:
        p, q = d[i]
        r, s = d[j]
        x = p * a - q * b
        y = p * b + q * a
        if x * r + y * s <= 0 or y * r != x * s:
            return False
    return True


def _keyed_witness(keys: Sequence[Key], n: int) -> Optional[list[Phase]]:
    """The phases making every n x n matrix with these projective keys
    nonnegative, or None if none exist.

    The candidate is the propagated phase diagonal, and if it fails no
    diagonal works.
    """
    entries = [_key_entries(k, n) for k in keys]
    d = _propagate(entries, n)
    return d if all(_fits(d, es) for es in entries) else None


def _witness(d: Sequence[Phase]) -> DiagonalWitness:
    """The phases as Scalars; +-1 are the shared ONE and -ONE."""
    return DiagonalWitness(tuple(
        ONE if p == (1, 0) else _MINUS_ONE if p == (-1, 0) else Scalar(*p)
        for p in d))


def diag_sim_nonneg(m: Matrix) -> Optional[DiagonalWitness]:
    """Witness D with D m D^{-1} nonnegative, or None if none exists.

    The witness is canonical: primitive Gaussian integers, 1 at the
    smallest vertex of every support component, so +-1 on real input.
    None is certified: the propagated phases failed, so no diagonal
    works.
    """
    return simultaneous_diag_sim([m])


def simultaneous_diag_sim(ms: Sequence[Matrix]) -> Optional[DiagonalWitness]:
    """One witness D making every D m D^{-1} nonnegative, or None."""
    n = _square_size(ms)
    d = _keyed_witness(_projective_keys(ms), n)
    return None if d is None else _witness(d)
