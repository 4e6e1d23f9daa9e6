import dataclasses
import random
from fractions import Fraction

import pytest

from matsemi import (Caps, DecompositionKind, DiagonalWitness, Matrix, Scalar,
                     classify_decomposability, classify_entries, conjugate,
                     diag_sim_nonneg, generate_closure, simultaneous_diag_sim)
from matsemi.harness import (_FIXTURES, MAX_SIGN_SEARCH_N,
                             MAX_SUBSET_SEARCH_N, HypothesisCheck,
                             _generator_witness, _report,
                             plant_group_instance, plant_semigroup_instance,
                             run_fixtures, sign_search_oracle,
                             subset_invariance_oracle, verify_group_theorem,
                             verify_semigroup_theorem)
from matsemi.exact import _projective_keys
from _fx import (M, outer, primitive_gaussian, random_int_matrix,
                 random_pattern)
from _reference import (reference_report,
                        reference_verify_group_theorem,
                        reference_verify_semigroup_theorem)

C3 = M([[0, 1, 0], [0, 0, 1], [1, 0, 0]])

UNITS2 = [M([[1, 0], [0, 0]]), M([[0, 1], [0, 0]]),
          M([[0, 0], [1, 0]]), M([[0, 0], [0, 1]])]

UNITS3 = [Matrix.from_rows([[1 if (r, c) == (i, j) else 0 for c in range(3)]
                            for r in range(3)])
          for i in range(3) for j in range(3)]


# -- oracles ---------------------------------------------------------------


def test_sign_oracle_known():
    s = sign_search_oracle([M([[1, -1], [-1, 1]])])
    assert s is not None and s.signs == (1, -1)
    assert sign_search_oracle([M([[1, -1], [1, 1]])]) is None
    s = sign_search_oracle([M([[1]])])
    assert s is not None and s.signs == (1,)
    assert sign_search_oracle([M([[-1]])]) is None


def test_sign_oracle_collection_constraint():
    a = M([[0, 1], [0, 0]])
    b = M([[0, -1], [0, 0]])
    # individually fine, jointly contradictory
    assert sign_search_oracle([a]) is not None
    assert sign_search_oracle([b]) is not None
    assert sign_search_oracle([a, b]) is None


def test_sign_oracle_validation():
    with pytest.raises(ValueError):
        sign_search_oracle([])
    with pytest.raises(ValueError):
        sign_search_oracle([Matrix.zeros(2, 3)])
    with pytest.raises(ValueError):
        sign_search_oracle([M([[1]]), M([[1, 0], [0, 1]])])
    with pytest.raises(ValueError):
        sign_search_oracle([Matrix.from_rows([[Scalar(0, 1)]])])


def test_oracles_refuse_oversized_input():
    """One size past each limit is refused before any enumeration."""
    n = MAX_SIGN_SEARCH_N + 1
    with pytest.raises(ValueError, match="limited"):
        sign_search_oracle([Matrix.identity(n)])
    n = MAX_SUBSET_SEARCH_N + 1
    with pytest.raises(ValueError, match="limited"):
        subset_invariance_oracle(Matrix.identity(n))


def test_sign_oracle_agrees_with_solver_on_real_inputs():
    rng = random.Random(1234)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, n)
        assert (sign_search_oracle([m]) is not None) \
            == (diag_sim_nonneg(m) is not None)


def test_subset_oracle_known():
    rep = subset_invariance_oracle(M([[1, 1], [0, 1]]))
    assert rep.decomposable and rep.subset == (0,)
    rep = subset_invariance_oracle(M([[1, 1], [1, 1]]))
    assert not rep.decomposable and rep.subset is None
    assert not subset_invariance_oracle(M([[1]])).decomposable


def test_subset_oracle_prefers_small_then_lex():
    # both {2} and {1, 2} are invariant; smallest cardinality wins
    m = M([[1, 0, 0], [1, 1, 0], [1, 1, 1]])
    assert subset_invariance_oracle(m).subset == (2,)


def test_subset_oracle_scans_past_the_first_chunk():
    # n = 13: the 1092 subsets of size <= 4 and the first 956 of size 5
    # fill the first 2048-mask chunk.  Two cycles, {0..7} and {8..12},
    # with edges only from rows in the second to columns in the first:
    # the only invariant subset is {8..12}, the last 5-subset.
    n = 13
    rows = [[0] * n for _ in range(n)]
    for block in (range(8), range(8, n)):
        for i in block:
            rows[i][block[(i - block[0] + 1) % len(block)]] = 1
    rows[9][3] = rows[12][0] = 1
    assert subset_invariance_oracle(M(rows)).subset == tuple(range(8, n))
    rows[3][9] = 1  # now irreducible: every chunk is scanned
    assert not subset_invariance_oracle(M(rows)).decomposable


def test_subset_oracle_agrees_with_scc_classifier():
    rng = random.Random(1235)
    for _ in range(150):
        n = rng.randint(1, 5)
        m = random_pattern(rng, n, density=rng.choice((0.3, 0.6)))
        rep = subset_invariance_oracle(m)
        kind = classify_decomposability(m).kind
        assert rep.decomposable == (kind != DecompositionKind.INDECOMPOSABLE)


# -- theorem pipelines ------------------------------------------------------


def test_group_pipeline_gates_on_irreducibility():
    rep = verify_group_theorem([C3])
    assert rep.theorem == "Group"
    assert rep.hypotheses["closure_is_group_within_caps"].holds
    assert not rep.hypotheses["irreducible"].holds
    assert not rep.applicable and not rep.falsified
    assert rep.witness is None and rep.monomial_check is None


def test_group_pipeline_gates_on_diagonal_signs():
    swap = M([[0, 1], [1, 0]])
    sign = Matrix.diagonal([1, -1])
    rep = verify_group_theorem([swap, sign])
    assert rep.hypotheses["closure_is_group_within_caps"].holds
    assert rep.hypotheses["irreducible"].holds
    assert not rep.hypotheses["nonneg_diagonals"].holds
    assert not rep.applicable


def test_group_pipeline_gates_on_truncation():
    rep = verify_group_theorem([Matrix.diagonal([2, 1])],
                               Caps(max_elements=8, max_word_length=50))
    h = rep.hypotheses["closure_is_group_within_caps"]
    assert not h.holds and "truncated" in h.detail
    assert not rep.applicable


def test_group_pipeline_gates_on_singular_generator():
    rep = verify_group_theorem([M([[1, 0], [0, 0]])])
    h = rep.hypotheses["closure_is_group_within_caps"]
    assert not h.holds and "singular" in h.detail


def test_pipeline_input_validation():
    with pytest.raises(ValueError):
        verify_group_theorem([])
    with pytest.raises(ValueError):
        verify_group_theorem([M([[1]])])
    with pytest.raises(ValueError):
        verify_semigroup_theorem([M([[2]])])


def test_semigroup_pipeline_applicable_case():
    rep = verify_semigroup_theorem(UNITS3)
    assert rep.theorem == "Semigroup"
    assert rep.applicable and rep.conclusion_holds and not rep.falsified
    assert rep.witness is not None
    assert all(x == Scalar(1) for x in rep.witness.d)


def test_semigroup_pipeline_recovers_planted_signs():
    d = (1, -1, 1)
    gens = [Matrix.from_rows(
        [[Scalar(d[i] * d[j]) * g.entry(i, j) for j in range(3)]
         for i in range(3)]) for g in UNITS3]
    rep = verify_semigroup_theorem(gens)
    assert rep.applicable and rep.conclusion_holds
    w = rep.witness
    for g in gens:
        assert classify_entries(conjugate(w, g)).is_nonnegative


def test_semigroup_pipeline_2x2_theorem_id():
    rep = verify_semigroup_theorem(UNITS2)
    assert rep.theorem == "Semigroup2x2"
    assert "rank2_members_block_structured" not in rep.hypotheses
    assert rep.applicable and rep.conclusion_holds


def test_semigroup_pipeline_gates_on_block_structure():
    gens = UNITS3 + [Matrix.diagonal([1, 1, 1])]
    rep = verify_semigroup_theorem(gens)
    assert not rep.hypotheses["rank2_members_block_structured"].holds
    assert not rep.applicable and not rep.falsified


def test_semigroup_pipeline_gates_on_member_feasibility():
    gens = UNITS2 + [M([[0, 0], [1, -1]])]
    rep = verify_semigroup_theorem(gens)
    assert not rep.hypotheses["members_individually_feasible"].holds
    assert not rep.applicable


def test_semigroup_pipeline_gates_on_truncation():
    gens = UNITS2 + [Matrix.diagonal([2, 1])]
    rep = verify_semigroup_theorem(gens, Caps(max_elements=6,
                                              max_word_length=40))
    h = rep.hypotheses["members_individually_feasible"]
    assert not h.holds and "truncated" in h.detail
    # two members of five generator classes: irreducibility still reads
    # every generator, not the members
    rep = verify_semigroup_theorem(gens, Caps(max_elements=2))
    assert rep.hypotheses["irreducible"].holds
    assert not rep.hypotheses["members_individually_feasible"].holds


PLANT_CAPS = Caps(max_elements=300, max_word_length=8)

# Unit-modulus Gaussian rationals: conjugating by a diagonal of these
# keeps entry sizes small and makes every instance non-real.
PHASES = (Scalar(1), Scalar(0, 1), Scalar(Fraction(3, 5), Fraction(4, 5)),
          Scalar(-1), Scalar(Fraction(-4, 5), Fraction(3, 5)))


def _conjugated_plants(seed, count, entry):
    """Planted generator sets, each conjugated by a diagonal whose
    entries are drawn by ``entry(rng)``, with their pipeline and
    whether it is the group theorem."""
    rng = random.Random(seed)
    for k in range(count):
        group = k % 2 == 0
        plant = plant_group_instance if group else plant_semigroup_instance
        n = rng.randint(2, 4)
        gens, _ = plant(rng, n)
        d = DiagonalWitness(tuple(entry(rng) for _ in range(n)))
        verify = verify_group_theorem if group else verify_semigroup_theorem
        yield [conjugate(d, g) for g in gens], verify, group


def _reference_for(gens, rep, group):
    closure = generate_closure(gens, PLANT_CAPS)
    return closure, reference_report(rep.theorem, rep.hypotheses, closure,
                                     monomial=group)


def _signed_positive(rng):
    return Scalar(rng.choice((1, -1))
                  * Fraction(rng.randint(1, 3), rng.randint(1, 3)))


def test_report_matches_member_reference_on_real_plants():
    applicable = 0
    for gens, verify, group in _conjugated_plants(7, 120, _signed_positive):
        rep = verify(gens, PLANT_CAPS)
        _, want = _reference_for(gens, rep, group)
        assert rep.to_json() == want.to_json()
        applicable += rep.applicable
    assert applicable >= 10


def test_report_matches_member_reference_on_gaussian_plants():
    applicable = 0
    for gens, verify, group in _conjugated_plants(
            7, 120, lambda rng: rng.choice(PHASES)):
        rep = verify(gens, PLANT_CAPS)
        closure, want = _reference_for(gens, rep, group)
        got = rep.to_json()
        ref = want.to_json()
        assert (got.pop("witness") is None) == (ref.pop("witness") is None)
        assert got == ref
        if rep.witness is not None:
            applicable += 1
            for m in closure.canonical_matrices():
                assert classify_entries(
                    conjugate(rep.witness, m)).is_nonnegative
    assert applicable >= 5


def test_report_matches_member_reference_with_repeated_classes():
    # a copy and positive multiples of random generators, inserted
    # anywhere, also ahead of the generator's other occurrences: every
    # generator is tested, and repeats of a class change no verdict
    rng = random.Random(2028)
    applicable = early = 0
    for entry, real in ((_signed_positive, True),
                        (lambda rng: rng.choice(PHASES), False)):
        for gens, verify, group in _conjugated_plants(11, 80, entry):
            for c in (1, 2, Fraction(1, 3)):
                g = rng.choice(gens)
                at = rng.randint(0, len(gens))
                early += at <= gens.index(g)
                gens.insert(at, g.scale(c))
            rep = verify(gens, PLANT_CAPS)
            _, want = _reference_for(gens, rep, group)
            got = rep.to_json()
            ref = want.to_json()
            if not real:
                assert ((got.pop("witness") is None)
                        == (ref.pop("witness") is None))
            assert got == ref
            applicable += rep.applicable
    assert applicable >= 40 and early >= 150


def _group_report(gens):
    """The Group conclusion on gens with every hypothesis assumed, and
    the member-quantified reference for it."""
    hyps = {"given": HypothesisCheck(True, "assumed for the test")}
    closure = generate_closure(gens)
    rep = _report("Group", hyps, closure, _generator_witness(closure),
                  True)
    assert rep.to_json() == reference_report("Group", hyps, closure,
                                             monomial=True).to_json()
    return rep


def test_group_report_on_signed_permutations():
    d = DiagonalWitness(tuple(map(Scalar, (1, -1, 1))))
    gens = [conjugate(d, C3), conjugate(d, M([[0, 1, 0], [1, 0, 0],
                                              [0, 0, 1]]))]
    rep = _group_report(gens)
    assert rep.applicable and rep.conclusion_holds and not rep.falsified
    assert rep.monomial_check is True
    assert rep.witness == d
    assert rep.notes == "witness verified on 6 members"


def test_group_report_on_non_monomial_set():
    # real and Gaussian key widths; the conjugates keep the zero pattern
    for m in (M([[1, 1], [0, 1]]), M([[1, Scalar(0, 1)], [0, 1]])):
        rep = _group_report([m])
        assert rep.applicable and not rep.conclusion_holds and rep.falsified
        assert rep.monomial_check is False
        assert rep.notes == ("witness verified on 12 members; "
                             "a conjugated member is not monomial")


def test_group_report_on_infeasible_pair():
    rep = _group_report([M([[1, 1], [1, 1]]), M([[1, -1], [-1, 1]])])
    assert rep.applicable and rep.falsified
    assert rep.witness is None and rep.monomial_check is None
    assert rep.notes == "no simultaneous diagonal similarity exists"


def test_report_rechecks_the_witness(monkeypatch):
    # the conclusion is verified, not taken from the solver: a witness
    # that leaves a negative entry (real keys) or a non-real one
    # (Gaussian keys), checked on the keys' integer parts, falsifies the
    # run
    import matsemi.harness as h

    widths = []

    def wrong(keys, n):
        widths.append(len(keys[0]))
        return [(1, 0), (1, 0)]

    monkeypatch.setattr(h, "_keyed_witness", wrong)
    i = Scalar(0, 1)
    for gens in ([M([[0, -1], [1, 0]])], [M([[0, i], [i, 0]])]):
        closure = generate_closure(gens)
        rep = _report("Group", {"given": HypothesisCheck(True, "assumed")},
                      closure, _generator_witness(closure), True)
        assert rep.falsified and not rep.conclusion_holds
        assert rep.monomial_check is True
    assert widths == [4, 8]


def test_pipelines_recheck_the_witness_on_every_generator(monkeypatch):
    # a witness that the solver got wrong fails its re-check, so the
    # member scans still run and find the offending member; in the last
    # two sets the all-plus witness fits every generator but the last,
    # which comes after a repeated class.  The solver errs on the
    # generator set only, so each member is still decided right.
    import matsemi.harness as h

    solve = h._keyed_witness
    generator_keys = []

    def plus_ones(keys, n):
        return [(1, 0)] * n if keys == generator_keys else solve(keys, n)

    monkeypatch.setattr(h, "_keyed_witness", plus_ones)
    minus_e01 = M([[0, -1, 0], [0, 0, 0], [0, 0, 0]])
    for group, gens in ((True, [M([[0, -1], [1, 0]])]),
                        (False, UNITS2 + [M([[0, 0], [1, -1]])]),
                        (True, [C3, C3.scale(2), -C3]),
                        (False, UNITS3 + [UNITS3[0], minus_e01])):
        generator_keys[:] = _projective_keys(gens)
        if group:
            rep = verify_group_theorem(gens)
            want = reference_verify_group_theorem(gens)
            assert not rep.hypotheses["nonneg_diagonals"].holds
        else:
            rep = verify_semigroup_theorem(gens)
            want = reference_verify_semigroup_theorem(gens)
            assert not rep.hypotheses["members_individually_feasible"].holds
        assert rep.to_json() == want.to_json()


def _unit_phases(rng, n):
    return DiagonalWitness((Scalar(1),) + tuple(rng.choice(PHASES)
                                                for _ in range(n - 1)))


def _pipeline_set(rng):
    """A seeded generator set for the pipelines: n = 2-5; monomial,
    rank-one or dense generators; real, Gaussian (every generator
    conjugated by unit phases) or mixed (a real set plus a phase
    conjugate of one generator); with caps that some closures meet and
    others do not."""
    n = rng.randint(2, 5)
    kind = rng.choice(("monomial", "rank_one", "rank_one", "dense"))
    count = rng.randint(1, 3)
    if kind == "monomial":
        gens = []
        for _ in range(count):
            perm = list(range(n))
            rng.shuffle(perm)
            value = rng.choice((1, 1, 1, Fraction(1, 2), 2))
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][perm[i]] = value
            gens.append(M(rows))
    elif kind == "rank_one":
        gens = []
        for _ in range(count + 1):
            u = [rng.randint(0, 2) for _ in range(n)]
            v = [rng.randint(0, 2) for _ in range(n)]
            u[rng.randrange(n)] = v[rng.randrange(n)] = 1
            gens.append(outer(u, v))
    else:
        gens = [random_int_matrix(rng, n, n, 0, 2)
                for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.5:
        # every cycle keeps a positive sign product: feasible as a set
        d = DiagonalWitness(tuple(Scalar(rng.choice((1, -1)))
                                  for _ in range(n)))
        gens = [conjugate(d, g) for g in gens]
    else:
        gens = [Matrix(n, n, [e if rng.random() < 0.8 else -e
                              for e in g.entries]) for g in gens]
    field = rng.choice(("real", "gaussian", "mixed"))
    if field == "gaussian":
        d = _unit_phases(rng, n)
        gens = [conjugate(d, g) for g in gens]
    elif field == "mixed":
        gens.append(conjugate(_unit_phases(rng, n), rng.choice(gens)))
    caps = Caps(max_elements=rng.choice((10, 50, 100)),
                max_word_length=rng.choice((3, 6)))
    return gens, caps, (n, kind, field)


def test_pipelines_match_member_quantified_reference():
    # The reference pipelines decide every member fact on the member's
    # canonical matrix, through this suite's own rank, solver, SCC and
    # conjugation routines.  Sets whose generators have no simultaneous
    # witness decide their member hypothesis by scanning the members;
    # both outcomes occur.  The pipelines' witness is the reference's
    # moved along each entry's ray to its primitive Gaussian integer.
    rng = random.Random(25025)
    tally = {}
    scanned = set()
    seen = set()
    for _ in range(600):
        gens, caps, labels = _pipeline_set(rng)
        truncated = generate_closure(gens, caps).truncated
        no_witness = simultaneous_diag_sim(gens) is None
        for verify, reference, member in (
                (verify_group_theorem, reference_verify_group_theorem,
                 "nonneg_diagonals"),
                (verify_semigroup_theorem,
                 reference_verify_semigroup_theorem,
                 "members_individually_feasible")):
            rep = verify(gens, caps)
            want = reference(gens, caps)
            if want.witness is not None:
                want = dataclasses.replace(want, witness=DiagonalWitness(
                    tuple(map(primitive_gaussian, want.witness.d))))
            assert rep.to_json() == want.to_json()
            for name, h in rep.hypotheses.items():
                tally[name, h.holds] = tally.get((name, h.holds), 0) + 1
            if no_witness and (member == "nonneg_diagonals"
                               or not truncated):
                scanned.add((member, rep.hypotheses[member].holds))
        seen.add(labels + (truncated,))
    assert scanned == {(member, holds) for holds in (False, True) for member
                       in ("nonneg_diagonals",
                           "members_individually_feasible")}
    names = {name for name, _ in tally}
    assert len(names) == 5
    for name in names:
        assert tally[name, True] >= 50 and tally[name, False] >= 50, tally
    for k in range(4):
        assert len({labels[k] for labels in seen}) == (4, 3, 3, 2)[k]
    for field in ("real", "gaussian", "mixed"):
        assert {t for _, _, f, t in seen if f == field} == {False, True}


def test_real_pipelines_build_no_canonical_matrix(monkeypatch):
    import matsemi.semigroup as sg

    def refuse(*args):
        raise AssertionError("a canonical matrix was built")

    monkeypatch.setattr(sg, "_canonical_from_key", refuse)
    rng = random.Random(8)
    applicable = 0
    for k in range(40):
        plant = plant_group_instance if k % 2 else plant_semigroup_instance
        verify = verify_group_theorem if k % 2 else verify_semigroup_theorem
        gens, _ = plant(rng, rng.randint(2, 4))
        applicable += verify(gens, PLANT_CAPS).applicable
    assert applicable >= 10


def test_gaussian_member_scan_builds_no_canonical_matrix(monkeypatch):
    # P = p p* and Q = q q^T for p = (1, i), q = (1, -1) have no common
    # witness, so the semigroup pipeline scans its four members P, Q, PQ
    # and QP; PQ has the non-real diagonal entry 1 + i
    import matsemi.semigroup as sg

    i = Scalar(0, 1)
    gens = [M([[1, -i], [i, 1]]), M([[1, -1], [-1, 1]])]
    assert simultaneous_diag_sim(gens) is None
    built = []
    make = sg._canonical_from_key

    def count(*args):
        built.append(args)
        return make(*args)

    monkeypatch.setattr(sg, "_canonical_from_key", count)
    rep = verify_semigroup_theorem(gens)
    assert built == []
    h = rep.hypotheses["members_individually_feasible"]
    assert not h.holds and h.detail == "member 2 admits no diagonal witness"


def _seeded_plants():
    """48 seeded planted sets, group and semigroup in turn, n = 2-4,
    each with its pipeline."""
    rng = random.Random(640008)
    ops = []
    for k in range(48):
        group = k % 2 == 0
        plant = plant_group_instance if group else plant_semigroup_instance
        gens, _ = plant(rng, rng.randint(2, 4))
        ops.append((gens, verify_group_theorem if group
                    else verify_semigroup_theorem))
    return ops


def test_closures_multiply_once_per_generator_class(monkeypatch):
    # a repeat of a class only repeats its first occurrence's products,
    # and a member that reads only image rows a class has zero gives
    # the zero key without a product: a complete closure makes exactly
    # one product per member and class whose supports meet
    import matsemi.semigroup as sg
    from matsemi.exact import _image_rows

    product = sg._key_product
    count = [0]

    def counting(*args):
        count[0] += 1
        return product(*args)

    monkeypatch.setattr(sg, "_key_product", counting)
    complete = repeated = skipped = 0
    for gens, _ in _seeded_plants():
        count[0] = 0
        closure = generate_closure(gens, PLANT_CAPS)
        if closure.truncated:
            continue
        n, keys = closure._gens.n, closure._gens.keys
        w = len(keys[0]) // n
        # part i*w + k of a member's key multiplies image row k
        reads = [{p % w for p, x in enumerate(e._key) if x}
                 for e in closure.elements]
        nonzero = [{k for k, row in enumerate(_image_rows(key, n, n))
                    if any(row)} for key in dict.fromkeys(keys)]
        meet = sum(bool(r & z) for r in reads for z in nonzero)
        assert count[0] == meet
        complete += 1
        repeated += len(nonzero) < len(gens)
        skipped += meet < len(closure.elements) * len(nonzero)
    assert complete >= 20 and repeated >= 5 and skipped >= 15, (
        complete, repeated, skipped)


def test_pipeline_ops_key_their_generators_once(monkeypatch):
    # the closure keys the generator set once and lays out each class
    # once, and its rows feed the irreducibility check and its keys the
    # witness, on real and Gaussian sets alike
    import matsemi.diagsim as ds
    import matsemi.exact as ex
    import matsemi.harness as h
    import matsemi.semigroup as sg

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    project = ex._projective_keys
    keys = counting("keys", project)
    for mod in (ex, sg, ds, h):
        monkeypatch.setattr(mod, "_projective_keys", keys, raising=False)
    monkeypatch.setattr(sg, "_key_rows", counting("rows", sg._key_rows))
    monkeypatch.setattr(h, "generate_closure",
                        counting("closure", h.generate_closure))
    ops = _seeded_plants()
    ops += [(gens, verify) for gens, verify, _ in _conjugated_plants(
        7, 30, lambda rng: rng.choice(PHASES))]
    gaussian = applicable = 0
    for gens, verify in ops:
        calls.clear()
        applicable += verify(gens, PLANT_CAPS).applicable
        classes = len(set(project(gens)))
        assert sorted(calls) == ["closure", "keys"] + ["rows"] * classes
        gaussian += any(e.im for g in gens for e in g.entries)
    assert gaussian >= 20 and applicable >= 20


def test_reports_share_their_parts_and_retain_little():
    import gc
    import os
    import tracemalloc

    import matsemi

    rng = random.Random(640008)
    ops = []
    for k in range(144):
        group = k % 2 == 0
        plant = plant_group_instance if group else plant_semigroup_instance
        gens, _ = plant(rng, rng.randint(2, 4))
        ops.append((verify_group_theorem if group
                    else verify_semigroup_theorem, gens))
    for verify, gens in ops:
        verify(gens, PLANT_CAPS)
    src = os.path.join(os.path.dirname(matsemi.__file__), "*")
    tracemalloc.start()
    try:
        reports = [verify(gens, PLANT_CAPS) for verify, gens in ops]
        # free lists keep the blocks of dead tuples and floats traced
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kept = sum(t.size for t in snapshot.filter_traces(
        [tracemalloc.Filter(True, src)]).traces)
    assert kept <= 250 * len(reports), kept / len(reports)
    rep = reports[0]
    with pytest.raises(TypeError):
        rep.hypotheses["irreducible"] = HypothesisCheck(True, "forged")
    twin = verify_group_theorem(ops[0][1], PLANT_CAPS)
    assert twin.hypotheses is rep.hypotheses and twin.notes is rep.notes
    assert all(a is b for a, b in zip(twin.hypotheses.values(),
                                      rep.hypotheses.values()))


def test_equal_reports_are_one_object():
    # reports are shared by value: a scaled copy of a generator set gets
    # the very same report, and a report with another witness does not
    assert verify_group_theorem([C3.scale(2)]) is verify_group_theorem([C3])
    rep = verify_semigroup_theorem(UNITS3)
    assert rep.applicable
    assert verify_semigroup_theorem([g.scale(2) for g in UNITS3]) is rep
    d = DiagonalWitness(tuple(map(Scalar, (1, -1, 1))))
    other = verify_semigroup_theorem([conjugate(d, g) for g in UNITS3])
    assert other.witness == d and other is not rep


# -- planted instances ------------------------------------------------------


def test_plants_are_deterministic():
    a = plant_group_instance(random.Random(5), 3)
    b = plant_group_instance(random.Random(5), 3)
    assert a == b
    c = plant_semigroup_instance(random.Random(5), 3)
    d = plant_semigroup_instance(random.Random(5), 3)
    assert c == d


def test_group_plants_by_kind():
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        gens, kind = plant_group_instance(rng, 3)
        seen.add(kind)
        if kind in ("permutation", "balanced"):
            # exact finite projective order: closure must complete
            cl = generate_closure(gens, Caps(max_elements=2000,
                                             max_word_length=30))
            assert not cl.truncated
        rep = verify_group_theorem(gens, Caps(max_elements=300,
                                              max_word_length=8))
        assert not rep.falsified
    assert {"permutation", "balanced", "free"} <= seen


def test_semigroup_plants_by_kind():
    seen = set()
    for seed in range(30):
        rng = random.Random(seed)
        gens, kind = plant_semigroup_instance(rng, 3)
        seen.add(kind)
        rep = verify_semigroup_theorem(gens)
        assert not rep.falsified
        if kind in ("spanning", "idempotent"):
            assert rep.applicable and rep.conclusion_holds
        elif kind == "multi_block":
            assert not rep.hypotheses["rank2_members_block_structured"].holds
        else:
            assert not rep.hypotheses["irreducible"].holds
    assert {"spanning", "idempotent", "multi_block", "reducible"} <= seen


# -- fixture runner ---------------------------------------------------------


def test_all_fixtures_pass():
    summary = run_fixtures()
    assert summary.all_passed, summary.failed
    assert len(summary.results) >= 40
    assert set(r.fixture for r in summary.results) == \
        {name for name, _ in _FIXTURES}


def test_fixture_filter():
    summary = run_fixtures("oracle")
    assert {r.fixture for r in summary.results} == {"oracle-basics"}
    empty = run_fixtures("zzz")
    assert empty.results == () and empty.all_passed


def test_fixture_exception_becomes_failure(monkeypatch):
    import matsemi.harness as h

    def boom(rec):
        rec.check("first expectation", "direct computation", True)
        raise RuntimeError("exploded mid-fixture")

    monkeypatch.setattr(h, "_FIXTURES", (("boom", boom),))
    summary = h.run_fixtures()
    assert not summary.all_passed
    assert summary.results[0].passed
    bad = summary.failed[0]
    assert bad.expectation == "fixture executes without error"
    assert "exploded" in bad.detail


def test_summary_json_shape():
    obj = run_fixtures("half-plane").to_json()
    assert obj["total"] == len(obj["results"]) > 0
    assert obj["failures"] == 0 and obj["all_passed"] is True
    r = obj["results"][0]
    assert set(r) == {"fixture", "expectation", "origin", "passed", "detail"}
