"""Zero patterns, strongly connected components, and decomposability.

A square matrix is decomposable when some simultaneous row/column
permutation puts it into block upper triangular form; equivalently, when
its pattern digraph has more than one strongly connected component.
Components are read off one reachability closure (Warshall, "A theorem
on Boolean matrices", J. ACM 9, 1962), kept as one integer bitmask per
vertex: a component is a set of vertices that reach each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .exact import Matrix, _nonzero_positions, _square_size


class DecompositionKind(str, Enum):
    INDECOMPOSABLE = "Indecomposable"
    ONE_DECOMPOSABLE = "OneDecomposable"
    MULTI_DECOMPOSABLE = "MultiDecomposable"


@dataclass(frozen=True, slots=True)
class PatternDigraph:
    """Digraph on vertices 0..n-1 with an edge i->j iff entry (i, j) != 0."""

    n: int
    edges: frozenset[tuple[int, int]]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in sorted(self.edges):
            adj[i].append(j)
        return adj


@dataclass(frozen=True, slots=True)
class DecompositionReport:
    kind: DecompositionKind
    scc_count: int
    sccs: tuple[tuple[int, ...], ...]
    permutation: tuple[int, ...]


def pattern_digraph(m: Matrix) -> PatternDigraph:
    return union_pattern([m])


def union_pattern(ms: Sequence[Matrix]) -> PatternDigraph:
    """Pattern of the set: edge present iff nonzero in some member."""
    n = _square_size(ms)
    return PatternDigraph(n, frozenset(
        p for m in ms for p in _nonzero_positions(m.entries, n)))


def scc_condensation(g: PatternDigraph) -> DecompositionReport:
    """Components in a topological order of the condensation.

    ``reach[v]`` holds the vertices v reaches, v included, closed by
    Warshall's rule: whoever reaches k reaches all that k reaches.  The
    component of v is ``reach[v]`` met with the vertices that reach v.
    Each step places the first remaining component, by smallest vertex,
    that no other remaining component reaches, so reports are
    reproducible.  The permutation concatenates the components; it
    relabels vertices so that the matrix becomes block upper triangular
    (position p holds old vertex permutation[p]).
    """
    n = g.n
    bit = [1 << v for v in range(n)]
    reach = bit[:]
    for i, j in g.edges:
        reach[i] |= bit[j]
    for k in range(n):
        rk = reach[k]
        reach = [r | rk if r >> k & 1 else r for r in reach]
    # (bitmask, vertices that reach it, sorted vertices), by smallest vertex
    comps = []
    remaining = 0  # every vertex once the loop ends
    for v in range(n):
        if not remaining >> v & 1:
            back = sum(1 << u for u in range(n) if reach[u] >> v & 1)
            mask = reach[v] & back
            remaining |= mask
            comps.append((mask, back,
                          tuple(u for u in range(n) if mask >> u & 1)))
    ordered = []
    while comps:
        k = next(k for k, (mask, back, _) in enumerate(comps)
                 if back & remaining == mask)
        mask, _, comp = comps.pop(k)
        remaining ^= mask
        ordered.append(comp)
    sccs = tuple(ordered)
    count = len(sccs)
    if count == 1:
        kind = DecompositionKind.INDECOMPOSABLE
    elif count == 2:
        kind = DecompositionKind.ONE_DECOMPOSABLE
    else:
        kind = DecompositionKind.MULTI_DECOMPOSABLE
    permutation = tuple(v for comp in sccs for v in comp)
    return DecompositionReport(kind=kind, scc_count=count, sccs=sccs,
                               permutation=permutation)


def classify_decomposability(m: Matrix) -> DecompositionReport:
    return scc_condensation(pattern_digraph(m))
