"""Reference implementations that the fast semigroup code is tested against.

These are the straightforward Gaussian-rational versions: every product
goes through ``matrix_product`` and every canonical form through
``Matrix.scale``, and spans are eliminated with ``Scalar`` division.
They are slow and obviously correct.
"""

from __future__ import annotations

from fractions import Fraction

from matsemi import Caps, Matrix, ProjectiveElement, Scalar, SemigroupClosure
from matsemi.exact import matrix_product


def reference_canonical(m: Matrix) -> Matrix:
    """Scale by a positive rational so max(|re|, |im|) over entries is 1."""
    scale = Fraction(0)
    for e in m.entries:
        scale = max(scale, e.max_abs_part())
    if scale == 0:
        return m
    return m.scale(Scalar(1 / scale))


def reference_closure(gens, caps: Caps = Caps()) -> SemigroupClosure:
    """BFS closure on canonical matrices, by word length then word."""
    elements: dict[Matrix, ProjectiveElement] = {}
    order: list[Matrix] = []
    truncated = False
    for gi, g in enumerate(gens):
        c = reference_canonical(g)
        if c not in elements:
            if len(elements) >= caps.max_elements:
                truncated = True
                continue
            elements[c] = ProjectiveElement(c, (gi,))
            order.append(c)
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        ue = elements[u]
        extendable = len(ue.word) < caps.max_word_length
        for gi, g in enumerate(gens):
            c = reference_canonical(matrix_product(u, g))
            if c in elements:
                continue
            if not extendable or len(elements) >= caps.max_elements:
                truncated = True
                continue
            elements[c] = ProjectiveElement(c, ue.word + (gi,))
            order.append(c)
    return SemigroupClosure(
        elements=tuple(elements[c] for c in order),
        truncated=truncated,
        caps=caps,
    )


def reference_algebra_dimension(gens) -> int:
    """Dimension of the span of all words in gens and the identity."""
    n = gens[0].rows
    basis: list[list[Scalar]] = []

    def try_add(m: Matrix) -> bool:
        row = list(m.entries)
        for e in basis:
            lead = next(i for i, x in enumerate(e) if x)
            if row[lead]:
                f = row[lead] / e[lead]
                row = [x - f * y for x, y in zip(row, e)]
        if any(row):
            basis.append(row)
            return True
        return False

    frontier = [m for m in [Matrix.identity(n), *gens] if try_add(m)]
    while frontier and len(basis) < n * n:
        nxt = []
        for m in frontier:
            for g in gens:
                for prod in (matrix_product(m, g), matrix_product(g, m)):
                    if try_add(prod):
                        nxt.append(prod)
        frontier = nxt
    return len(basis)
