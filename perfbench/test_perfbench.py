"""Tests for the benchmark's own code.

Run from the repository root: python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import matsemi  # noqa: E402
from matsemi import harness  # noqa: E402

import runner  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (WORKLOADS, AnswerError, Corpus, Workload,  # noqa: E402
                       in_cone)

SMALL = {"pipelines": 8, "cones": 60, "matrices": 9, "cli": 2}


@pytest.mark.parametrize("n, p", [(19, None), (20, 50.0), (39, 50.0),
                                  (40, 75.0), (99, 75.0), (100, 90.0),
                                  (999, 90.0), (1000, 99.0), (9999, 99.0),
                                  (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert runner.tail_percentile(n) == p


def test_tail_value_has_ten_samples_above_it():
    values = [float(i) for i in range(1, 101)]  # 100 samples -> p90
    tail = runner.percentile(values, runner.tail_percentile(100))
    assert tail == 90.0
    assert sum(1 for v in values if v > tail) == 10


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    t.names = ["op", "closure", "product", "product", "rank"]
    t.parents = [-1, 0, 1, 1, 0]
    t.starts = [0.0, 1.0, 2.0, 4.0, 7.0]
    t.ends = [10.0, 6.0, 3.0, 5.5, 8.0]
    assert t.self_times() == [10.0 - 5.0 - 1.0, 5.0 - 1.0 - 1.5, 1.0, 1.5,
                              1.0]
    s = t.summary()
    assert s["product"] == {"calls": 2, "total_s": 2.5, "self_s": 2.5}
    assert t.child_calls("product", "closure") == (2, 2.5)
    assert t.child_calls("product", "op") == (0, 0.0)


def test_install_wraps_every_binding_and_restores_it():
    original = matsemi.semigroup.generate_closure
    t = Tracer()
    with t:
        t.install([("semigroup.generate_closure", "matsemi.semigroup",
                    "generate_closure", None, None),
                   ("exact.matrix_product", "matsemi.exact",
                    "matrix_product", None, None),
                   ("gone", "matsemi.exact", "no_such_function", None, None)])
        assert harness.generate_closure is not original
        assert matsemi.generate_closure is not original
        a = matsemi.Matrix.from_rows([[0, 1], [1, 0]])
        harness.generate_closure([a])
    assert harness.generate_closure is original
    assert matsemi.semigroup.matrix_product is matsemi.exact.matrix_product
    assert t.names[0] == "semigroup.generate_closure"
    assert set(t.names[1:]) == {"exact.matrix_product"}
    assert all(p == 0 for p in t.parents[1:])


class _Flaky(Workload):
    name = "flaky"

    def build(self, seed):
        return Corpus([1, 2, 3], [])

    def run(self, corpus, item):
        if item == 2:
            raise RuntimeError("boom")
        return item

    def answer(self, item, raw):
        return str(raw)


def test_failed_ops_are_counted_and_the_pass_goes_on():
    w = _Flaky()
    corpus = w.build(0)
    p = runner.run_pass(w, corpus, max_ops=7)
    assert len(p.raws) == 7
    assert sum(runner.failed(w, r) for r in p.raws) == 2
    assert runner.answers(w, corpus, p) == {0: "1", 2: "3"}


def test_changed_answer_on_repeat_is_wrong():
    w = _Flaky()
    corpus = w.build(0)
    p = runner.run_pass(w, corpus, max_ops=4)
    p.raws[3] = 5  # sequence index 0 again, with another answer
    with pytest.raises(AnswerError):
        runner.answers(w, corpus, p)


def test_in_cone_matches_hand_cases():
    rays = [(1, 0), (1, 1)]
    assert in_cone(rays, (2, 1)) and in_cone(rays, (1, 1))
    assert not in_cone(rays, (-1, 0)) and not in_cone(rays, (0, 1))


def _texts(name, seed):
    w = WORKLOADS[name]()
    corpus = w.build(seed)
    p = runner.run_pass(w, corpus, max_ops=SMALL[name])
    return runner.answers(w, corpus, p)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_answers(name):
    seed = WORKLOADS[name].default_seed
    first = _texts(name, seed)
    assert first and first == _texts(name, seed)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_answers_agree(name):
    w = WORKLOADS[name]()
    original_rank = matsemi.exact.rank
    corpus = w.build(w.heldout_seed)
    plain = runner.run_pass(w, corpus, max_ops=SMALL[name])
    t = Tracer()
    with t:
        t.install(runner.TRACED)
        traced = runner.run_pass(w, corpus, max_ops=SMALL[name], tracer=t)
    runner.same_answers(w, corpus, plain, traced)
    assert t.names.count("op") == SMALL[name]
    assert matsemi.exact.rank is original_rank


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stored_reference_covers_both_seeds(name):
    w = WORKLOADS[name]()
    ref = runner.load_reference()[name]
    assert set(ref) == {str(w.default_seed), str(w.heldout_seed)}
    corpus = w.build(w.default_seed)
    p = runner.run_pass(w, corpus, max_ops=runner.CHUNK)
    texts = runner.answers(w, corpus, p)
    assert runner.compare_reference(w, w.default_seed, corpus,
                                    texts).startswith("1 of")
