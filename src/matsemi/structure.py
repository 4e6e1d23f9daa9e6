"""Zero patterns, strongly connected components, and decomposability.

A square matrix is decomposable when some simultaneous row/column
permutation puts it into block upper triangular form; equivalently, when
its pattern digraph has more than one strongly connected component.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import heapq
from typing import Iterable, Sequence

from .exact import Matrix, _square_size


class DecompositionKind(str, Enum):
    INDECOMPOSABLE = "Indecomposable"
    ONE_DECOMPOSABLE = "OneDecomposable"
    MULTI_DECOMPOSABLE = "MultiDecomposable"


@dataclass(frozen=True)
class PatternDigraph:
    """Digraph on vertices 0..n-1 with an edge i->j iff entry (i, j) != 0."""

    n: int
    edges: frozenset[tuple[int, int]]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in sorted(self.edges):
            adj[i].append(j)
        return adj


@dataclass(frozen=True)
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
        divmod(k, n) for m in ms for k, e in enumerate(m.entries) if e))


def _strongly_connected_components(n: int,
                                   adj: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan.  Components returned with vertices sorted."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            deeper = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if index[w] == -1:
                    work.append((v, k + 1))
                    work.append((w, 0))
                    deeper = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if deeper:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


def scc_condensation(g: PatternDigraph) -> DecompositionReport:
    """Components in a topological order of the condensation.

    The order is the unique one produced by Kahn's algorithm with ties
    broken by the smallest vertex contained in a component, so reports
    are reproducible.  The permutation concatenates the components; it
    relabels vertices so that the matrix becomes block upper triangular
    (position p holds old vertex permutation[p]).
    """
    comps = _strongly_connected_components(g.n, g.adjacency())
    comp_id = [0] * g.n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_id[v] = ci
    succ: list[set[int]] = [set() for _ in comps]
    indeg = [0] * len(comps)
    for i, j in g.edges:
        a, b = comp_id[i], comp_id[j]
        if a != b and b not in succ[a]:
            succ[a].add(b)
            indeg[b] += 1
    heap = [(comps[ci][0], ci) for ci in range(len(comps)) if indeg[ci] == 0]
    heapq.heapify(heap)
    ordered: list[int] = []
    while heap:
        _, ci = heapq.heappop(heap)
        ordered.append(ci)
        for cj in succ[ci]:
            indeg[cj] -= 1
            if indeg[cj] == 0:
                heapq.heappush(heap, (comps[cj][0], cj))
    sccs = tuple(tuple(comps[ci]) for ci in ordered)
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
