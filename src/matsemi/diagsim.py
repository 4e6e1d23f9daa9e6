"""Deciding diagonal similarity to nonnegative matrices, with witnesses.

The solver propagates the required diagonal along a spanning forest of
the undirected support graph (vertices joined when either of the two
opposite entries is nonzero).  Any valid witness is determined on each
connected component up to one common scalar, so fixing the root value to
1 loses nothing: if the propagated diagonal fails verification, no
diagonal works.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import Matrix, ONE, Scalar, matrix_product

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

    def matrix(self) -> Matrix:
        return Matrix.diagonal(self.d)

    def signs(self) -> Optional[SignDiagonal]:
        """The +-1 sign pattern, if every entry is real.  None otherwise."""
        if any(not x.is_real for x in self.d):
            return None
        return SignDiagonal(tuple(1 if x.re > 0 else -1 for x in self.d))


def conjugate(w: DiagonalWitness, m: Matrix) -> Matrix:
    """D m D^{-1}, entrywise d_i * m_ij / d_j.

    Each 1/d_j is formed once.  Diagonal and zero entries are kept as
    they are, and an entry whose ratio d_i/d_j is +1 or -1 is copied or
    negated, so sign witnesses cost no multiplications.
    """
    if not m.is_square or m.rows != len(w.d):
        raise ValueError("witness size does not match matrix")
    n = m.rows
    d = w.d
    neg = [-x for x in d]
    inv = [ONE / x for x in d]
    flat = list(m.entries)
    for i in range(n):
        di = d[i]
        for j in range(n):
            e = flat[i * n + j]
            if i == j or not e or di == d[j]:
                continue
            flat[i * n + j] = -e if di == neg[j] else di * e * inv[j]
    return Matrix(n, n, flat)


def _support_adjacency(ms: Sequence[Matrix]) -> list[list[int]]:
    n = ms[0].rows
    nbr: list[set[int]] = [set() for _ in range(n)]
    for m in ms:
        for i in range(n):
            for j in range(n):
                if i != j and (m.entry(i, j) or m.entry(j, i)):
                    nbr[i].add(j)
                    nbr[j].add(i)
    return [sorted(s) for s in nbr]


def _edge_constraint(ms: Sequence[Matrix], u: int, v: int) -> Scalar:
    """Value forced for d_v given d_u = 1, from the first nonzero entry.

    Scans members in order, orientation (u, v) before (v, u).  A valid
    witness must make d_u * m_uv / d_v positive, so d_v = d_u * m_uv up
    to positive scaling; the reverse orientation forces d_v = d_u / m_vu.
    """
    for m in ms:
        e = m.entry(u, v)
        if e:
            return e
        e = m.entry(v, u)
        if e:
            return ONE / e
    raise AssertionError("no constraint on a support edge")


def _propagate(ms: Sequence[Matrix]) -> tuple[Scalar, ...]:
    n = ms[0].rows
    adj = _support_adjacency(ms)
    d: list[Optional[Scalar]] = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = ONE
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if d[v] is None:
                    d[v] = d[u] * _edge_constraint(ms, u, v)
                    queue.append(v)
    return tuple(x if x is not None else ONE for x in d)


def _sign_reduce(d: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
    # real case: only the signs matter, so collapse magnitudes to 1
    return tuple(ONE if x.re > 0 else _MINUS_ONE for x in d)


def diag_sim_nonneg(m: Matrix) -> Optional[DiagonalWitness]:
    """Witness D with D m D^{-1} nonnegative, or None if none exists.

    For real input the witness is a +-1 diagonal.  The propagated
    candidate is canonical (value 1 at the smallest vertex of every
    support component), and its failure certifies infeasibility.
    """
    return simultaneous_diag_sim([m])


def simultaneous_diag_sim(ms: Sequence[Matrix]) -> Optional[DiagonalWitness]:
    """One witness D making every D m D^{-1} nonnegative, or None."""
    if not ms:
        raise ValueError("empty matrix collection")
    n = ms[0].rows
    for m in ms:
        if not m.is_square:
            raise ValueError("diagonal similarity requires square matrices")
        if m.rows != n:
            raise ValueError("all matrices must have the same size")
    d = _propagate(ms)
    if all(x.is_real for x in d):
        d = _sign_reduce(d)
    w = DiagonalWitness(d)
    for m in ms:
        if not all(x.is_nonneg_real for x in conjugate(w, m).entries):
            return None
    return w
