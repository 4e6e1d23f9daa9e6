"""Deciding diagonal similarity to nonnegative matrices, with witnesses.

The solver propagates the required diagonal along a spanning forest of
the undirected support graph (vertices joined when either of the two
opposite entries is nonzero).  Any valid witness is determined on each
connected component up to one common scalar, so fixing the root value to
1 loses nothing: if the propagated diagonal fails verification, no
diagonal works.

For real input the question is one of signs only (signature
similarity: every cycle of the support graph must have a positive sign
product; Engel and Schneider, "Cyclic and diagonal products on a
matrix", 1973).  Input is real when its projective keys have real
width, and is then decided on the keys' signs, which are its entry
signs: the propagated diagonal is +-1 and is verified entrywise,
without forming any conjugated matrix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .exact import (Key, Matrix, ONE, Scalar, _entry_signs,
                    _projective_keys, _square_size)

_MINUS_ONE = Scalar(-1)


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


def _support_adjacency(flats: Sequence[Sequence], n: int) -> list[list[int]]:
    """Sorted neighbours in the undirected support graph of row-major
    n x n entry sequences, where a truthy entry is in the support."""
    nbr: list[set[int]] = [set() for _ in range(n)]
    for flat in flats:
        for i in range(n):
            for j in range(i + 1, n):
                if flat[i * n + j] or flat[j * n + i]:
                    nbr[i].add(j)
                    nbr[j].add(i)
    return [sorted(s) for s in nbr]


def _propagate(flats: Sequence[Sequence], n: int, one,
               reciprocal: Callable) -> list:
    """Breadth-first diagonal values over the support graph, ``one`` at
    the smallest vertex of every component.

    d_v is forced by the first nonzero entry on the edge {u, v}, scanning
    members in order, orientation (u, v) before (v, u).  A valid witness
    makes d_u * m_uv / d_v positive, so d_v = d_u * m_uv up to positive
    scaling; the reverse orientation forces d_v = d_u * reciprocal(m_vu).
    """
    adj = _support_adjacency(flats, n)
    d: list = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = one
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if d[v] is None:
                    d[v] = d[u] * _edge_factor(flats, n, u, v, reciprocal)
                    queue.append(v)
    return d


def _edge_factor(flats, n: int, u: int, v: int, reciprocal: Callable):
    for flat in flats:
        e = flat[u * n + v]
        if e:
            return e
        e = flat[v * n + u]
        if e:
            return reciprocal(e)
    raise AssertionError("no constraint on a support edge")


def _signs_fit(s: Sequence[int], signs: Sequence[int], n: int) -> bool:
    """Whether the +-1 diagonal s makes the real n x n matrix with these
    row-major entry signs nonnegative: every s_i * s_j * m_ij >= 0, so
    for i = j, m_ii >= 0."""
    for i in range(n):
        si = s[i]
        row = i * n
        for j in range(n):
            if si * s[j] * signs[row + j] < 0:
                return False
    return True


def _sign_witness(signs: Sequence[Sequence[int]],
                  n: int) -> Optional[list[int]]:
    """The +-1 diagonal making every real n x n matrix with these
    row-major entry signs nonnegative, or None if none exists.

    Real input is a question of signs only: the candidate is the +-1
    diagonal of propagated edge signs, and if it fails no diagonal
    works.
    """
    s = _propagate(signs, n, 1, lambda e: e)
    for sg in signs:
        if not _signs_fit(s, sg, n):
            return None
    return s


def diag_sim_nonneg(m: Matrix) -> Optional[DiagonalWitness]:
    """Witness D with D m D^{-1} nonnegative, or None if none exists.

    For real input the witness is a +-1 diagonal.  The propagated
    candidate is canonical (value 1 at the smallest vertex of every
    support component), and its failure certifies infeasibility.
    """
    return simultaneous_diag_sim([m])


def simultaneous_diag_sim(ms: Sequence[Matrix]) -> Optional[DiagonalWitness]:
    """One witness D making every D m D^{-1} nonnegative, or None."""
    return _keyed_witness(ms, _projective_keys(ms))


def _keyed_witness(ms: Sequence[Matrix],
                   keys: Sequence[Key]) -> Optional[DiagonalWitness]:
    """``simultaneous_diag_sim`` given the matrices' projective keys: on
    their signs at real width, on the matrices' entries otherwise."""
    n = _square_size(ms)
    if len(keys[0]) == n * n:
        s = _sign_witness([_entry_signs(k) for k in keys], n)
        if s is None:
            return None
        return DiagonalWitness(tuple(ONE if x > 0 else _MINUS_ONE
                                     for x in s))
    flats = [m.entries for m in ms]
    d = _propagate(flats, n, ONE, lambda e: ONE / e)
    w = DiagonalWitness(tuple(d))
    for m in ms:
        if not all(x.is_nonneg_real for x in conjugate(w, m).entries):
            return None
    return w
