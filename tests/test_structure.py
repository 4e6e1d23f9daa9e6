import random

import pytest

from matsemi import (DecompositionKind, PatternDigraph, classify_entries,
                     classify_decomposability, pattern_digraph, perron,
                     scc_condensation, union_pattern)
from _fx import M, ones, random_pattern
from _reference import reference_scc_condensation


def brute_sccs(n, edges):
    # reachability closure, then mutual-reachability classes
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, j in edges:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    comps = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        comp = [j for j in range(n) if reach[i][j] and reach[j][i]]
        seen.update(comp)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def test_pattern_digraph_requires_square():
    with pytest.raises(ValueError):
        pattern_digraph(M([[1, 0, 0], [0, 1, 0]]))


def test_known_classifications():
    rep = classify_decomposability(ones(3))
    assert rep.kind == DecompositionKind.INDECOMPOSABLE
    assert rep.scc_count == 1 and rep.permutation == (0, 1, 2)

    rep = classify_decomposability(M([[1, 1], [0, 1]]))
    assert rep.kind == DecompositionKind.ONE_DECOMPOSABLE
    assert rep.sccs == ((0,), (1,))

    rep = classify_decomposability(M([[1, 0, 1], [0, 1, -1], [0, 0, 0]]))
    assert rep.kind == DecompositionKind.MULTI_DECOMPOSABLE
    assert rep.scc_count == 3

    # lower triangular: sinks last in the topological order
    rep = classify_decomposability(M([[1, 0], [1, 1]]))
    assert rep.sccs == ((1,), (0,))
    assert rep.permutation == (1, 0)


def test_zero_diagonal_single_vertex_components():
    # an isolated vertex with no self loop still forms its own component
    rep = classify_decomposability(M([[0, 1], [1, 0]]))
    assert rep.scc_count == 1
    rep = classify_decomposability(M([[0, 0], [0, 0]]))
    assert rep.scc_count == 2


def test_sccs_match_brute_force_on_random_digraphs():
    rng = random.Random(777)
    for _ in range(300):
        n = rng.randint(1, 6)
        m = random_pattern(rng, n, rng.choice((0.2, 0.4, 0.6)))
        g = pattern_digraph(m)
        assert sorted(scc_condensation(g).sccs) == brute_sccs(n, g.edges)


def _random_digraph(rng, n, shape):
    """A seeded digraph of one shape, under a random relabelling."""
    p = {"dense": 0.5, "sparse": 1.5 / n, "dag": 0.4, "loops": 0.3,
         "empty": 0, "isolated": 0.5}[shape]
    live = range(n) if shape != "isolated" else range(rng.randint(0, n))
    edges = {(i, j) for i in live for j in live
             if (shape != "dag" or i < j) and rng.random() < p}
    if shape == "loops":
        edges |= {(i, i) for i in range(n) if rng.random() < 0.5}
    label = list(range(n))
    rng.shuffle(label)
    return PatternDigraph(n, frozenset((label[i], label[j])
                                       for i, j in edges))


_SHAPES = ("dense", "sparse", "dag", "loops", "empty", "isolated")


@pytest.mark.parametrize("seed, count, lo, hi", [
    (2121, 20000, 1, 10),
    (2122, 240, 20, 60),
])
def test_condensation_matches_reference_on_seeded_digraphs(seed, count,
                                                           lo, hi):
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(lo, hi)
        g = _random_digraph(rng, n, _SHAPES[k % len(_SHAPES)])
        assert scc_condensation(g) == reference_scc_condensation(g), g


def test_condensation_small_cases():
    single = PatternDigraph(1, frozenset())
    assert scc_condensation(single).sccs == ((0,),)
    loop = PatternDigraph(1, frozenset({(0, 0)}))
    assert scc_condensation(loop) == scc_condensation(single)
    # no edges: singletons in vertex order
    rep = scc_condensation(PatternDigraph(4, frozenset()))
    assert rep.sccs == ((0,), (1,), (2,), (3,))
    assert rep.permutation == (0, 1, 2, 3)
    # the chain 3 -> 2 -> 1 -> 0 runs against vertex order
    rep = scc_condensation(PatternDigraph(4, frozenset({(3, 2), (2, 1),
                                                        (1, 0)})))
    assert rep.sccs == ((3,), (2,), (1,), (0,))
    # cycle {1, 3} feeding 0, beside the isolated vertex 2
    rep = scc_condensation(PatternDigraph(4, frozenset({(1, 3), (3, 1),
                                                        (3, 0)})))
    assert rep.sccs == ((1, 3), (0,), (2,))
    assert rep.kind == DecompositionKind.MULTI_DECOMPOSABLE
    # an edge leaving the vertex range is refused, not dropped
    for edge in ((0, 5), (5, 0)):
        with pytest.raises(IndexError):
            scc_condensation(PatternDigraph(2, frozenset({edge})))


def test_condensation_is_topological_and_permutation_triangularizes():
    rng = random.Random(888)
    for _ in range(200):
        n = rng.randint(2, 6)
        m = random_pattern(rng, n, 0.35)
        rep = scc_condensation(pattern_digraph(m))
        pos = {}
        for ci, comp in enumerate(rep.sccs):
            for v in comp:
                pos[v] = ci
        # every edge points to the same or a later component
        for i in range(n):
            for j in range(n):
                if m.entry(i, j):
                    assert pos[i] <= pos[j]
        # permuted matrix is block upper triangular
        perm = rep.permutation
        for p in range(n):
            for q in range(n):
                if pos[perm[p]] > pos[perm[q]]:
                    assert not m.entry(perm[p], perm[q])


def test_topological_tie_break_is_smallest_vertex():
    # two independent source components {0} and {1}, then the sink {2}
    m = M([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    rep = scc_condensation(pattern_digraph(m))
    assert rep.sccs == ((0,), (1,), (2,))


def test_union_pattern():
    a = M([[1, 0], [0, 0]])
    b = M([[0, 0], [1, 0]])
    g = union_pattern([a, b])
    assert g.edges == frozenset({(0, 0), (1, 0)})
    with pytest.raises(ValueError):
        union_pattern([])
    with pytest.raises(ValueError):
        union_pattern([a, M([[1]])])


def test_reports_keep_no_instance_dict():
    # results are kept in bulk; slotted dataclasses carry no __dict__
    m = M([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    for obj in (pattern_digraph(m), classify_decomposability(m),
                classify_entries(m), perron(ones(2))):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
