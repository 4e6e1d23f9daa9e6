"""Exhaustive oracles, theorem pipelines, and worked fixtures.

The oracles re-answer questions the structured algorithms answer, by
brute force, so the two routes can be compared on random instances.
Each runs its own bit-parallel search over every candidate mask, laid
out by ``_bit_columns``, and decodes its answer with the same columns.
The theorem pipelines find the generators' witness once, let it settle
the member facts it implies, and report the conclusion only when every
hypothesis holds; a run whose hypotheses hold but whose conclusion
fails is a falsification event and is expected never to occur.
"""

from __future__ import annotations

import functools
import random
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .diagsim import (DiagonalWitness, SignDiagonal, _keyed_witness,
                      _sign_witness, _signs_fit, conjugate, diag_sim_nonneg,
                      simultaneous_diag_sim)
from .exact import (Matrix, Scalar, _entry_signs, _is_monomial, _key_parts,
                    _key_rank, _nonzero_positions, _projective_keys,
                    _square_size, classify_entries, matrix_product, rank)
from .io import witness_to_json
from .semigroup import (Caps, ProjectiveElement, SemigroupClosure,
                        _span_dimension, generate_closure, is_irreducible,
                        projective_canonical, rank_one_ideal, xy_decomposition)
from .structure import (DecompositionKind, PatternDigraph,
                        classify_decomposability, scc_condensation,
                        union_pattern)

# -- exhaustive oracles ----------------------------------------------------

# Largest matrix size each exhaustive oracle accepts; larger input raises
# ValueError before anything is enumerated.  Both searches keep one bit
# per candidate mask in each of about n Python ints, so their time and
# memory double per n.  At n = 20 the sign search took 10-16 ms per dense
# matrix, feasible or not, with a 1.9 MB allocation peak (1.3 MB of RSS
# above the interpreter).  At n = 17 the subset search took 9.5 ms on the
# complete pattern and 1.5 ms on the cycle, both irreducible, with a
# 0.7 MB allocation peak.  Measured on a 2-vCPU VM, CPython 3.11.7.
MAX_SIGN_SEARCH_N = 20
MAX_SUBSET_SEARCH_N = 17


def _bit_columns(width: int) -> list[int]:
    """One column per vertex over all 2^width candidate masks.

    Vertex i sits at bit width-1-i of a mask m, and cols[i] has bit m
    set iff m holds vertex i.  So one Python int carries a vertex's bit
    in every mask at once, and an integer operation on columns tests all
    masks together.  With vertex 0 most significant, ascending masks run
    through 0/1 vectors in lexicographic order.

    Each step doubles the masks: the old columns repeat, and the new
    leading vertex is clear on the old half and set on the new one.
    """
    cols: list[int] = []
    for t in range(width):
        span = 1 << t
        cols = [((1 << span) - 1) << span] + [c | c << span for c in cols]
    return cols


def sign_search_oracle(ms: Sequence[Matrix]) -> Optional[SignDiagonal]:
    """Exhaustive search over +-1 diagonals with the first sign +1.

    Returns the lexicographically first diagonal making every matrix
    nonnegative under conjugation, or None.  Cost 2^(n-1); real input
    only, n at most MAX_SIGN_SEARCH_N.
    """
    n = _square_size(ms)
    if n > MAX_SIGN_SEARCH_N:
        raise ValueError(f"sign search is limited to n <= "
                         f"{MAX_SIGN_SEARCH_N}, got n = {n}")
    keys = _projective_keys(ms)
    if len(keys[0]) != n * n:
        raise ValueError("sign search requires real matrices")
    # a set bit means sign -1; vertex 0 keeps +1 in every mask
    bits = [0] + _bit_columns(n - 1)
    ok = (1 << (1 << (n - 1))) - 1
    for key in keys:
        for k, s in enumerate(_entry_signs(key)):
            if s:
                i, j = divmod(k, n)
                # masks where s_i * s_j = -1; a negative diagonal entry
                # (i == j) therefore rules out every mask
                flip = bits[i] ^ bits[j]
                ok &= flip if s < 0 else ~flip
        if not ok:
            return None
    mask = (ok & -ok).bit_length() - 1
    return SignDiagonal(tuple(-1 if bits[i] >> mask & 1 else 1
                              for i in range(n)))


@dataclass(frozen=True)
class SubsetReport:
    decomposable: bool
    subset: Optional[tuple[int, ...]]


def subset_invariance_oracle(m: Matrix) -> SubsetReport:
    """Exhaustive search for a nontrivial coordinate-invariant subset.

    A subset S certifies decomposability when no entry (i, j) with
    i outside S and j inside S is nonzero.  Candidates are tried by
    cardinality, then lexicographically, so the returned witness is the
    smallest one.  Cost 2^n; n at most MAX_SUBSET_SEARCH_N.
    """
    n = _square_size([m])
    if n > MAX_SUBSET_SEARCH_N:
        raise ValueError(f"subset search is limited to n <= "
                         f"{MAX_SUBSET_SEARCH_N}, got n = {n}")
    bits = _bit_columns(n)
    ok = (1 << (1 << n)) - 1
    for i, j in union_pattern([m]).edges:
        if i != j:
            ok &= ~(bits[j] & ~bits[i])
    # by_size[k] has bit m set iff mask m has k elements
    by_size = [1]
    for t in range(n):
        by_size = [a | (b << (1 << t))
                   for a, b in zip(by_size + [0], [0] + by_size)]
    for size in range(1, n):
        hits = ok & by_size[size]
        if hits:
            # within one size the lexicographically first subset is the
            # highest mask
            hit = hits.bit_length() - 1
            return SubsetReport(True, tuple(i for i in range(n)
                                            if bits[i] >> hit & 1))
    return SubsetReport(False, None)


# -- theorem pipelines -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class HypothesisCheck:
    holds: bool
    detail: str


@dataclass(frozen=True, slots=True)
class TheoremReport:
    """A pipeline's verdict.  ``hypotheses`` is a read-only mapping, and
    reports with equal hypotheses or notes share one object for them;
    the pipelines hand out equal reports as one object."""

    theorem: str
    hypotheses: Mapping[str, HypothesisCheck]
    applicable: bool
    conclusion_holds: bool
    witness: Optional[DiagonalWitness]
    monomial_check: Optional[bool]
    notes: str

    def __post_init__(self):
        object.__setattr__(self, "hypotheses",
                           _hypotheses(tuple(self.hypotheses.items())))
        object.__setattr__(self, "notes", sys.intern(self.notes))

    @property
    def falsified(self) -> bool:
        return self.applicable and not self.conclusion_holds

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypotheses": {k: asdict(h) for k, h in self.hypotheses.items()},
            "applicable": self.applicable,
            "conclusion_holds": self.conclusion_holds,
            "falsified": self.falsified,
            "witness": witness_to_json(self.witness) if self.witness else None,
            "monomial_check": self.monomial_check,
            "notes": self.notes,
        }


# Callers keep reports in bulk, and most of them repeat a few checks,
# hypothesis maps and whole reports, so equal ones are handed out as one
# shared object.
@functools.lru_cache(maxsize=4096)
def _check(holds: bool, detail: str) -> HypothesisCheck:
    return HypothesisCheck(holds, detail)


@functools.lru_cache(maxsize=4096)
def _hypotheses(items: tuple[tuple[str, HypothesisCheck], ...]
                ) -> Mapping[str, HypothesisCheck]:
    return MappingProxyType(dict(items))


@functools.lru_cache(maxsize=4096)
def _shared_report(theorem: str,
                   items: tuple[tuple[str, HypothesisCheck], ...],
                   *rest) -> TheoremReport:
    return TheoremReport(theorem, dict(items), *rest)


def _irreducible(closure: SemigroupClosure) -> HypothesisCheck:
    """The irreducibility check of both pipelines, on the generator
    record that the closure multiplied by."""
    record = closure._gens
    if _span_dimension(record) == record.n ** 2:
        return _check(True, "generated algebra has full dimension")
    return _check(False, "generated algebra spans a proper subspace")


def _validate_theorem_input(gens: Sequence[Matrix]) -> int:
    n = _square_size(gens)
    if n < 2:
        raise ValueError("theorem pipelines need size at least 2")
    return n


# -- member facts, decided on projective keys -------------------------------
#
# A member's key is a positive multiple of its parts, so it has the
# member's entry signs and zero pattern.  Each fact goes through the
# routine that decides it for a Matrix, fed the key's data.


def _key_nonzero(key: Sequence[int], n: int) -> list[tuple[int, int]]:
    """(row, column) of each nonzero entry of the n x n key's matrix."""
    re, im = _key_parts(key, n, n)
    return _nonzero_positions([a or b for a, b in zip(re, im)]
                              if im else re, n)


def _nonneg_diagonal(e: ProjectiveElement, n: int) -> bool:
    re, im = _key_parts(e._key, n, n)
    diagonal = range(0, n * n, n + 1)
    return (all(re[k] >= 0 for k in diagonal)
            and not (im and any(im[k] for k in diagonal)))


def _feasible(e: ProjectiveElement, n: int) -> bool:
    """Whether the member is diagonally similar to a nonnegative matrix:
    on its entry signs when it is real, on its canonical matrix when
    not."""
    re, im = _key_parts(e._key, n, n)
    if any(im):
        return _keyed_witness([e.canonical], [e._key]) is not None
    return _sign_witness([_entry_signs(re)], n) is not None


def _many_blocks(e: ProjectiveElement, n: int) -> bool:
    """Whether the member has rank >= 2 and more than two components."""
    if _key_rank(e._key, n, n) < 2:
        return False
    return scc_condensation(PatternDigraph(
        n, frozenset(_key_nonzero(e._key, n)))).scc_count > 2


def _first(members: Sequence[ProjectiveElement],
           test: Callable[[ProjectiveElement], bool]) -> Optional[int]:
    """Index of the first member passing the test, or None."""
    return next((idx for idx, e in enumerate(members) if test(e)), None)


class _GeneratorWitness(NamedTuple):
    """The generators' simultaneous witness (None if the solver found
    none) and whether it re-checks on every generator."""

    witness: Optional[DiagonalWitness]
    fits: bool


def _generator_witness(gens: Sequence[Matrix],
                       closure: SemigroupClosure) -> _GeneratorWitness:
    """The witness of ``gens``, found once and re-checked, not taken on
    trust, on every generator: from ``gens`` and the keys of the
    closure's ``_Generators``, repeats included.

    Conjugation by a diagonal D is multiplicative.  The generators are
    members, each member is a positive multiple of a product of them,
    and products of nonnegative (monomial) matrices are nonnegative
    (monomial), so D makes every member of ``closure``, the closure of
    ``gens``, so exactly when it makes every generator so.  A witness
    that fits therefore also gives every member a nonnegative diagonal
    and makes every member feasible on its own.

    At real key width the witness is +-1 and is checked on the keys'
    signs by the routine that found it.  At block-row width it is
    checked on the conjugated generators.
    """
    keys = closure._gens.keys
    witness = _keyed_witness(gens, keys)
    if witness is None:
        return _GeneratorWitness(None, False)
    n = len(witness.d)
    if len(keys[0]) == n * n:
        s = [1 if x == 1 else -1 for x in witness.d]
        fits = all(_signs_fit(s, _entry_signs(k), n) for k in keys)
    else:
        fits = all(x.is_nonneg_real for g in gens
                   for x in conjugate(witness, g).entries)
    return _GeneratorWitness(witness, fits)


def _report(theorem: str, hyps: Mapping[str, HypothesisCheck],
            closure: SemigroupClosure, checked: _GeneratorWitness,
            monomial: bool) -> TheoremReport:
    """A pipeline's report, its conclusion read from the generators'
    checked witness (``_generator_witness``), which holds for every
    member of ``closure`` exactly when it fits every generator.  No
    witness is solved for here.  Conjugation by a diagonal keeps zero
    patterns, so the monomial check reads the generator keys' patterns.
    """
    items = tuple(hyps.items())
    if not all(h.holds for h in hyps.values()):
        return _shared_report(theorem, items, False, False, None, None,
                              "hypotheses not established; conclusion "
                              "untested")
    witness, conclusion = checked
    if witness is None:
        return _shared_report(theorem, items, True, False, None, None,
                              "no simultaneous diagonal similarity exists")
    n = len(witness.d)
    notes = f"witness verified on {len(closure.elements)} members"
    monomial_check = None
    if monomial:
        monomial_check = all(_is_monomial(_key_nonzero(k, n), n)
                             for k in closure._gens.keys)
        conclusion = conclusion and monomial_check
        if not monomial_check:
            notes += "; a conjugated member is not monomial"
    return _shared_report(theorem, items, True, conclusion, witness,
                          monomial_check, notes)


def verify_group_theorem(gens: Sequence[Matrix],
                         caps: Caps = Caps()) -> TheoremReport:
    """Irreducible groups with nonnegative diagonals become nonnegative
    monomial groups under one diagonal similarity.

    Hypotheses: the capped closure is a finite inverse-closed group of
    invertible matrices; the generators act irreducibly; every closure
    member has a nonnegative diagonal.  When all hold, one witness must
    make every generator nonnegative and monomial (see ``_report``).
    A witness that fits every generator settles the diagonals: it makes
    every member nonnegative and keeps its diagonal, so the members are
    scanned only when the generators have none.

    A complete closure of invertible classes is a group: the powers of
    a member g fall in finitely many classes, so g^k = c * g^l for some
    k > l and c > 0, and g^-1 is in the class of g^(k-l-1) (of g itself
    when k = l + 1).
    """
    n = _validate_theorem_input(gens)
    closure = generate_closure(gens, caps)
    members = closure.elements
    hyps: dict[str, HypothesisCheck] = {}

    if closure.truncated:
        a = _check(False, (
            f"closure truncated at {len(members)} elements; "
            "group property not established"))
    elif not all(_key_rank(closure._gens.keys[gi], n, n) == n
                 for gi, _ in closure._gens.classes):
        a = _check(False, "a generator is singular")
    else:
        a = _check(True, (
            f"projective group with {len(members)} elements, "
            "inverse-closed"))
    hyps["closure_is_group_within_caps"] = a

    hyps["irreducible"] = _irreducible(closure)

    checked = _generator_witness(gens, closure)
    bad = None if checked.fits else _first(
        members, lambda e: not _nonneg_diagonal(e, n))
    detail = ("every member has a nonnegative diagonal" if bad is None
              else f"member {bad} has a negative or non-real diagonal entry")
    if closure.truncated:
        detail += " (only the truncated closure was checked)"
    hyps["nonneg_diagonals"] = _check(bad is None, detail)

    return _report("Group", hyps, closure, checked, True)


def verify_semigroup_theorem(gens: Sequence[Matrix],
                             caps: Caps = Caps()) -> TheoremReport:
    """Irreducible semigroups of individually feasible members whose
    rank >= 2 members have at most two diagonal blocks are feasible as
    a whole.

    For n = 2 the block-structure hypothesis is skipped (every 2x2
    matrix has at most two components), hence the distinct theorem id.
    A witness that fits every generator makes every member nonnegative,
    so it settles member feasibility on a complete closure; the members
    are scanned only when the generators have none.
    """
    n = _validate_theorem_input(gens)
    closure = generate_closure(gens, caps)
    members = closure.elements
    hyps: dict[str, HypothesisCheck] = {}

    hyps["irreducible"] = _irreducible(closure)

    checked = _generator_witness(gens, closure)
    if closure.truncated:
        hyps["members_individually_feasible"] = _check(
            False, (f"closure truncated at {len(members)} elements; "
                    "member quantification not established"))
    else:
        infeasible = None if checked.fits else _first(
            members, lambda e: not _feasible(e, n))
        hyps["members_individually_feasible"] = _check(
            infeasible is None,
            f"all {len(members)} members feasible" if infeasible is None
            else f"member {infeasible} admits no diagonal witness")

    if n >= 3:
        if closure.truncated:
            hyps["rank2_members_block_structured"] = _check(
                False, "closure truncated; member quantification "
                       "not established")
        else:
            offender = _first(members, lambda e: _many_blocks(e, n))
            hyps["rank2_members_block_structured"] = _check(
                offender is None,
                "every rank >= 2 member has at most two components"
                if offender is None else
                f"member {offender} has rank >= 2 and more than "
                "two components")

    return _report("Semigroup2x2" if n == 2 else "Semigroup", hyps,
                   closure, checked, False)


# -- planted instances -----------------------------------------------------


def _random_signs(rng: random.Random, n: int) -> DiagonalWitness:
    signs = [1] + [rng.choice((1, -1)) for _ in range(n - 1)]
    return DiagonalWitness(tuple(Scalar(s) for s in signs))


def _monomial(perm: Sequence[int], values: Sequence[Fraction]) -> Matrix:
    n = len(perm)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][perm[i]] = values[i]
    return Matrix.from_rows(rows)


def _balanced_cycle_values(rng: random.Random,
                           perm: Sequence[int]) -> list[Fraction]:
    """Positive values whose product around every cycle of perm is 1,
    so the monomial matrix has finite order exactly."""
    n = len(perm)
    values = [Fraction(1)] * n
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        j = perm[start]
        while j != start:
            cycle.append(j)
            seen[j] = True
            j = perm[j]
        prod = Fraction(1)
        for i in cycle[:-1]:
            values[i] = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            prod *= values[i]
        values[cycle[-1]] = 1 / prod
    return values


def plant_group_instance(rng: random.Random,
                         n: int) -> tuple[list[Matrix], str]:
    """Monomial generators conjugated by a random sign diagonal.

    Kinds: 'permutation' (finite group, reducible), 'balanced' (one
    generator of finite order), 'free' (unconstrained positive parts;
    generically of infinite projective order, so the closure truncates).
    """
    kind = rng.choice(("permutation", "permutation", "balanced", "free"))
    count = 1 if kind == "balanced" else rng.randint(1, 3)
    gens = []
    for _ in range(count):
        perm = list(range(n))
        rng.shuffle(perm)
        if kind == "permutation":
            values = [Fraction(1)] * n
        elif kind == "balanced":
            values = _balanced_cycle_values(rng, perm)
        else:
            values = [Fraction(rng.randint(1, 3), rng.randint(1, 3))
                      for _ in range(n)]
        gens.append(_monomial(perm, values))
    d = _random_signs(rng, n)
    return [conjugate(d, g) for g in gens], kind


def _outer(u: Sequence[Fraction], v: Sequence[Fraction]) -> Matrix:
    return Matrix.from_rows([[ui * vj for vj in v] for ui in u])


def plant_semigroup_instance(rng: random.Random,
                             n: int) -> tuple[list[Matrix], str]:
    """Nonnegative semigroups conjugated by a random sign diagonal.

    Kinds: 'spanning' (rank-one outer products whose directions span,
    expected applicable), 'idempotent' (adds a rank-two idempotent with
    exactly two components, expected applicable), 'multi_block' (adds a
    diagonal projection with many components, blocking the structural
    hypothesis for n >= 3), 'reducible' (directions do not span).
    """
    kind = rng.choice(("spanning", "spanning", "idempotent", "idempotent",
                       "multi_block", "reducible"))
    basis = [tuple(Fraction(1 if i == j else 0) for i in range(n))
             for j in range(n)]

    def random01() -> tuple[Fraction, ...]:
        while True:
            v = tuple(Fraction(rng.randint(0, 1)) for _ in range(n))
            if any(v):
                return v

    if kind == "reducible":
        us = [tuple(Fraction(1) for _ in range(n))]  # single direction
        vs = list(basis)
    else:
        us = list(basis) + [random01()]
        vs = list(basis) + [random01()]
    gens = [_outer(u, v) for u in us for v in vs]
    if kind == "idempotent":
        # positive idempotent block of size n-1, plus a trailing 1x1 block
        x = [Fraction(rng.randint(1, 3)) for _ in range(n - 1)]
        y = [Fraction(rng.randint(1, 3)) for _ in range(n - 1)]
        dot = sum(a * b for a, b in zip(x, y))
        rows = [[x[i] * y[j] / dot for j in range(n - 1)] + [Fraction(0)]
                for i in range(n - 1)]
        rows.append([Fraction(0)] * (n - 1) + [Fraction(1)])
        gens.append(Matrix.from_rows(rows))
    elif kind == "multi_block":
        ones = max(2, n - 1)
        gens.append(Matrix.diagonal([1] * ones + [0] * (n - ones)))
    d = _random_signs(rng, n)
    return [conjugate(d, g) for g in gens], kind


# -- fixtures --------------------------------------------------------------


@dataclass(frozen=True)
class ExpectationResult:
    fixture: str
    expectation: str
    origin: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class FixtureSummary:
    results: tuple[ExpectationResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failed(self) -> tuple[ExpectationResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def to_json(self) -> dict:
        return {
            "total": len(self.results),
            "failures": len(self.failed),
            "all_passed": self.all_passed,
            "results": [asdict(r) for r in self.results],
        }


class _Recorder:
    def __init__(self, fixture: str):
        self.fixture = fixture
        self.results: list[ExpectationResult] = []

    def check(self, expectation: str, origin: str, passed: bool,
              detail: str = ""):
        self.results.append(ExpectationResult(
            self.fixture, expectation, origin, bool(passed), detail))


def _ones(n: int) -> Matrix:
    return Matrix.from_rows([[1] * n for _ in range(n)])


def _fx_rank_one_pair(rec: _Recorder) -> None:
    n = 3
    a = [Fraction(1)] * n
    b = [Fraction(1)] * (n - 1) + [Fraction(1 - n)]
    A = _outer(a, a)
    B = _outer(b, b)

    rec.check("products vanish in both orders", "direct computation",
              matrix_product(A, B).is_zero()
              and matrix_product(B, A).is_zero())
    rec.check("A squared equals 3A", "direct computation",
              matrix_product(A, A) == A.scale(3))
    rec.check("both generators have rank one", "direct computation",
              rank(A) == 1 and rank(B) == 1)

    closure = generate_closure([A, B])
    expected = {projective_canonical(A), projective_canonical(B),
                Matrix.zeros(n, n)}
    rec.check("closure is exactly three classes", "direct computation",
              not closure.truncated and len(closure.elements) == 3
              and set(closure.canonical_matrices()) == expected,
              f"got {len(closure.elements)} elements")
    rec.check("rank-one ideal is the whole closure", "direct computation",
              len(rank_one_ideal(closure)) == 3)

    rec.check("both generators indecomposable", "complete zero pattern",
              classify_decomposability(A).kind
              == DecompositionKind.INDECOMPOSABLE
              and classify_decomposability(B).kind
              == DecompositionKind.INDECOMPOSABLE)

    w = diag_sim_nonneg(B)
    ok = (w is not None and w.signs() is not None
          and w.signs().signs == (1, 1, -1)
          and classify_entries(conjugate(w, B)).is_nonnegative)
    rec.check("single witness for B flips the last sign",
              "hand-checked propagation", ok)
    orc = sign_search_oracle([B])
    rec.check("sign oracle agrees on B", "exhaustive enumeration",
              orc is not None and orc.signs == (1, 1, -1))

    rec.check("no simultaneous witness for the pair",
              "sign clash between generators",
              simultaneous_diag_sim([A, B]) is None
              and sign_search_oracle([A, B]) is None)
    rec.check("pair is reducible", "algebra span dimension 3",
              not is_irreducible([A, B]))

    xy = xy_decomposition(rank_one_ideal(closure))
    rec.check("direction sets have two rays and do not span",
              "hand factorization",
              len(xy.x_vectors) == 2 and len(xy.y_vectors) == 2
              and not xy.x_spans and not xy.y_spans)

    b2 = [Fraction(1), Fraction(-1)]
    A2 = _ones(2)
    B2 = _outer(b2, b2)
    rec.check("size-two pair also has no simultaneous witness",
              "sign clash between generators",
              simultaneous_diag_sim([A2, B2]) is None
              and sign_search_oracle([A2, B2]) is None)


def _fx_invariant_ray(rec: _Recorder) -> None:
    from .cones import Cone, is_invariant, properness

    for n in (2, 3, 4):
        a = [Fraction(1)] * (n - 1) + [Fraction(1 - n)]
        A = _outer(a, a)
        K = Cone.of(n, [[1] * n])
        rec.check(f"n={n}: ray of ones is invariant",
                  "generator maps to zero", is_invariant(A, K))
        rep = properness(K)
        rec.check(f"n={n}: single-ray cone pointed but not solid",
                  "direct computation",
                  rep.is_pointed and not rep.is_solid and not rep.is_proper)
        w = diag_sim_nonneg(A)
        want = tuple([1] * (n - 1) + [-1])
        rec.check(f"n={n}: witness flips exactly the last sign",
                  "hand-checked propagation",
                  w is not None and w.signs() is not None
                  and w.signs().signs == want
                  and classify_entries(conjugate(w, A)).is_nonnegative)
        orc = sign_search_oracle([A])
        rec.check(f"n={n}: sign oracle agrees", "exhaustive enumeration",
                  orc is not None and orc.signs == want)


def _fx_half_plane(rec: _Recorder) -> None:
    from .cones import (Cone, contains as cone_contains, dual, is_invariant,
                        properness)

    M = Matrix.from_rows([[1, -1], [0, 0]])
    K = Cone.of(2, [[1, 0], [1, 1]])
    rec.check("cone invariant under the matrix",
              "images are a generator and zero", is_invariant(M, K))
    rep = properness(K)
    rec.check("cone is proper", "direct computation", rep.is_proper)
    w = diag_sim_nonneg(M)
    rec.check("matrix witness is (+, -)", "hand-checked propagation",
              w is not None and w.signs() is not None
              and w.signs().signs == (1, -1))
    d = dual(K)
    rec.check("dual rays are (0,1) and (1,-1)",
              "inverse of the generator matrix",
              [r.v for r in d.rays]
              == [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1))])
    rec.check("membership agrees with hand checks", "direct computation",
              cone_contains(K, (2, 1)) and not cone_contains(K, (-1, 0))
              and cone_contains(K, (1, 1)))


def _fx_idempotent_extension(rec: _Recorder) -> None:
    from .cones import Cone, dual, extreme_rays, is_invariant

    A3 = Matrix.from_rows([[1, 0, 1], [0, 1, -1], [0, 0, 0]])
    K3 = Cone.of(3, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    L3 = Cone.of(3, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])

    rec.check("order cone invariant under the idempotent",
              "generator images computed by hand", is_invariant(A3, K3))
    rec.check("transpose leaves the second cone invariant",
              "generator images computed by hand",
              is_invariant(A3.transpose(), L3))

    dec = classify_decomposability(A3)
    rec.check("three components, fully decomposable",
              "pattern inspection",
              dec.scc_count == 3
              and dec.kind == DecompositionKind.MULTI_DECOMPOSABLE)
    sub = subset_invariance_oracle(A3)
    rec.check("subset oracle finds the smallest witness {0}",
              "exhaustive enumeration",
              sub.decomposable and sub.subset == (0,))

    rec.check("rank is two", "direct computation", rank(A3) == 2)

    w = diag_sim_nonneg(A3)
    rec.check("witness flips the middle sign", "hand-checked propagation",
              w is not None and w.signs() is not None
              and w.signs().signs == (1, -1, 1)
              and classify_entries(conjugate(w, A3)).is_nonnegative)
    orc = sign_search_oracle([A3])
    rec.check("sign oracle agrees", "exhaustive enumeration",
              orc is not None and orc.signs == (1, -1, 1))

    d = dual(K3)
    want = sorted([
        tuple(map(Fraction, (1, 0, 0))),
        tuple(map(Fraction, (0, 0, 1))),
        tuple(map(Fraction, (0, 1, -1))),
    ])
    rec.check("dual cone has the three expected rays",
              "hand-solved inequalities",
              [r.v for r in d.rays] == want)
    rec.check("all three generators are extreme", "direct computation",
              extreme_rays(K3) == K3.rays)

    outer_products = [_outer(k.v, l.v) for k in K3.rays for l in L3.rays]
    rec.check("nine outer products act irreducibly",
              "algebra span dimension 9", is_irreducible(outer_products))

    family = outer_products + [A3]
    rec.check("whole family has no simultaneous witness",
              "sign clash with the idempotent",
              simultaneous_diag_sim(family) is None
              and sign_search_oracle(family) is None)

    rec.check("idempotent is exactly idempotent", "direct computation",
              matrix_product(A3, A3) == A3)
    A4 = Matrix.from_rows([
        [1, 0, 1, 0], [0, 1, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    rec.check("padded idempotent stays idempotent", "direct computation",
              matrix_product(A4, A4) == A4)

    closure = generate_closure(family)
    rec.check("closure has fourteen classes, untruncated",
              "hand-enumerated products",
              not closure.truncated and len(closure.elements) == 14,
              f"got {len(closure.elements)}")
    ideal = rank_one_ideal(closure)
    rec.check("rank-one ideal has thirteen classes",
              "hand-enumerated products", len(ideal) == 13)
    xy = xy_decomposition(ideal)
    rec.check("ideal directions span on both sides",
              "hand factorization",
              xy.x_spans and xy.y_spans
              and len(xy.x_vectors) == 3 and len(xy.y_vectors) == 4)

    rep = verify_semigroup_theorem(family)
    h = rep.hypotheses
    rec.check("pipeline rejects on the block-structure hypothesis",
              "hypothesis evaluation",
              not rep.applicable
              and h["irreducible"].holds
              and h["members_individually_feasible"].holds
              and not h["rank2_members_block_structured"].holds
              and not rep.falsified)


def _fx_oracle_basics(rec: _Recorder) -> None:
    rec.check("full pattern is not decomposable", "exhaustive enumeration",
              not subset_invariance_oracle(_ones(3)).decomposable)
    T = Matrix.from_rows([[1, 1], [0, 1]])
    sub = subset_invariance_oracle(T)
    rec.check("upper triangular pattern decomposes at {0}",
              "exhaustive enumeration",
              sub.decomposable and sub.subset == (0,))
    N = Matrix.from_rows([[1, 2], [0, 3]])
    orc = sign_search_oracle([N])
    rec.check("nonnegative input gets the all-plus diagonal",
              "exhaustive enumeration",
              orc is not None and orc.signs == (1, 1))


_FIXTURES: tuple[tuple[str, Callable[[_Recorder], None]], ...] = (
    ("rank-one-pair", _fx_rank_one_pair),
    ("invariant-ray", _fx_invariant_ray),
    ("half-plane-cone", _fx_half_plane),
    ("idempotent-extension", _fx_idempotent_extension),
    ("oracle-basics", _fx_oracle_basics),
)


def run_fixtures(name_filter: Optional[str] = None) -> FixtureSummary:
    """Run the worked examples and report each expectation.

    Failures are reported, never raised; an exception inside a fixture
    is recorded as a failed expectation on that fixture.
    """
    results: list[ExpectationResult] = []
    for name, fn in _FIXTURES:
        if name_filter and name_filter not in name:
            continue
        rec = _Recorder(name)
        try:
            fn(rec)
        except Exception as e:  # noqa: BLE001 - reported, not raised
            rec.check("fixture executes without error", "runtime", False,
                      f"{type(e).__name__}: {e}")
        results.extend(rec.results)
    return FixtureSummary(tuple(results))
