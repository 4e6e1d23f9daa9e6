"""Timed passes, answer checks, the stored reference, and the metrics.

A pass runs a workload's op sequence, cycled, for a given number of
seconds or ops, one op at a time.  Every op's wall time is kept; an op
that raises, a Perron run that does not converge and a CLI exit code
other than 0 count as failed without ending the pass.  Answers are
checked after the pass, outside the timed region: each op against its
contract, repeats of one op against each other, and, when the seed has
one, against the stored reference digests.  Only a falsified theorem or
a wrong answer fails a run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

import matsemi
from matsemi import _kernels, spectral

from tracing import Tracer
from workloads import WORK, AnswerError, Corpus, Workload

REFERENCE = Path(__file__).resolve().parent / "reference.json"
CHUNK = 16          # ops per reference digest
SETUP_REPS = 3      # set-ups per run; setup_s reports their median
# Tail percentiles.  From p90 up each step leaves a tenth of the samples
# beyond it, so that run-to-run changes in the op count rarely switch
# the step; p50 and p75 serve runs of fewer than a hundred ops.
LADDER = (50.0, 75.0, 90.0, 99.0, 99.9, 99.99)


def _rank(p: float, n: int) -> int:
    """Nearest-rank position (1-based) of percentile p among n samples,
    in exact arithmetic so that 99.9 % of 10000 is 9990, not 9991."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it
    (nearest-rank), or None when there are fewer than twenty samples."""
    best = None
    for p in LADDER:
        if n - _rank(p, n) >= 10:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    return sorted(values)[_rank(p, len(values)) - 1]


def machine_facts() -> dict:
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "numba": have_numba,
            "backend": getattr(_kernels, "BACKEND", "n/a"),
            "machine": platform.machine(),
            "package": str(Path(matsemi.__file__).resolve().parent)}


def warm_kernels() -> None:
    """Trigger any JIT compilation before timing (numba, where present)."""
    kernel = getattr(_kernels, "power_iteration", None)
    if kernel is not None:
        kernel(np.eye(2), 1e-9, 100)


@dataclass
class Pass:
    raws: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    elapsed: float = 0.0
    stats: dict = field(default_factory=dict)


class OpError:
    """An op that raised; its answer is unknown."""

    def __init__(self, e: Exception):
        self.text = f"{type(e).__name__}: {e}"


def run_pass(w: Workload, corpus: Corpus, seconds: Optional[float] = None,
             max_ops: Optional[int] = None,
             tracer: Optional[Tracer] = None) -> Pass:
    seq = corpus.ops
    run = w.run if tracer is None else tracer.wrap("op", w.run)
    out = Pass()
    lat, raws = out.latencies, out.raws
    clock = time.perf_counter
    w.reset()
    with w.session(corpus):
        start = clock()
        deadline = start + seconds if seconds is not None else math.inf
        limit = max_ops if max_ops is not None else math.inf
        i = 0
        while i < limit and clock() < deadline:
            item = seq[i % len(seq)]
            t0 = clock()
            try:
                raw = run(corpus, item)
            except Exception as e:  # counted as a failed op, run goes on
                raw = OpError(e)
            lat.append(clock() - t0)
            raws.append(raw)
            i += 1
        out.elapsed = clock() - start
    out.stats = w.pass_stats()
    return out


def failed(w: Workload, raw) -> bool:
    return isinstance(raw, OpError) or w.failed(raw)


def describe_failure(w: Workload, raw) -> str:
    return raw.text if isinstance(raw, OpError) else w.describe_failure(raw)


def answers(w: Workload, corpus: Corpus, p: Pass) -> dict[int, str]:
    """Check every answer; return the answer text per sequence index.

    Raises AnswerError on a contract breach or when one sequence index
    gets two different answers in the pass.
    """
    seq = corpus.ops
    first: dict[int, str] = {}
    for i, raw in enumerate(p.raws):
        if failed(w, raw):
            continue
        j = i % len(seq)
        text = w.answer(seq[j], raw)
        if j in first:
            if first[j] != text:
                raise AnswerError(f"op {j} answered differently on repeat")
            continue
        w.check(corpus, seq[j], raw)
        first[j] = text
    return first


def chunk_digests(texts: dict[int, str], length: int) -> dict[int, str]:
    """Digest of each fully answered chunk of CHUNK sequence indices."""
    out = {}
    for c in range(0, length, CHUNK):
        idx = range(c, min(c + CHUNK, length))
        if all(j in texts for j in idx):
            h = hashlib.sha256()
            for j in idx:
                h.update(f"{j}:{texts[j]}\n".encode())
            out[c // CHUNK] = h.hexdigest()[:16]
    return out


def load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {}


def compare_reference(w: Workload, seed: int, corpus: Corpus,
                      texts: dict[int, str]) -> str:
    """Compare with the stored digests; raise AnswerError on mismatch."""
    ref = load_reference().get(w.name, {}).get(str(seed))
    if ref is None:
        return "no stored reference for this seed"
    if ref["ops"] != len(corpus.ops):
        raise AnswerError("op sequence length differs from the reference")
    got = chunk_digests(texts, len(corpus.ops))
    for c, digest in got.items():
        if ref["digests"][c] != digest:
            raise AnswerError(f"answers of ops {c * CHUNK}.. differ from "
                              "the stored reference")
    return f"{len(got)} of {len(ref['digests'])} reference chunks matched"


def setup(w: Workload, seed: int) -> tuple[Corpus, list[float]]:
    """Build the corpus and warm up, SETUP_REPS times; keep the last."""
    times = []
    corpus = None
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        corpus = w.build(seed)
        warm_kernels()
        run_pass(w, Corpus(corpus.warm, []), max_ops=len(corpus.warm))
        times.append(time.perf_counter() - t0)
    return corpus, times


def end_to_end(w: Workload, p: Pass, setup_s: float) -> tuple[dict, dict]:
    n = len(p.latencies)
    tail_p = tail_percentile(n) or 100.0
    lat_ms = [x * 1000 for x in p.latencies]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN
                                 if w.name == "cli"
                                 else resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "throughput_ops_s": n / p.elapsed,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": percentile(lat_ms, tail_p),
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": setup_s,
    }
    notes = {"samples": n, "tail_percentile": tail_p,
             "tail_beyond": n - _rank(tail_p, n)}
    return metrics, notes


# -- traced run -------------------------------------------------------------

def _on_closure(t: Tracer, cl) -> None:
    t.counters["semigroup.closure.elements"] += len(cl.elements)
    t.counters["semigroup.closure.new"] += sum(
        1 for e in cl.elements if len(e.word) > 1)
    t.counters["semigroup.closure.truncated"] += int(cl.truncated)


def _on_witness(t: Tracer, w) -> None:
    t.counters["diagsim.feasible"] += int(w is not None)


def _on_dual(t: Tracer, k) -> None:
    t.counters["cones.dual_rays_out"] += len(k.rays)


def _on_perron(t: Tracer, res) -> None:
    t.counters["spectral.perron.iterations"] += res.iterations


def _on_perron_error(t: Tracer, e) -> None:
    if isinstance(e, spectral.NonConvergenceError):
        t.counters["spectral.perron.nonconvergence"] += 1


# (span and metric prefix, module, attribute, on_result, on_error)
TRACED = (
    ("semigroup.generate_closure", "matsemi.semigroup", "generate_closure",
     _on_closure, None),
    ("semigroup.is_irreducible", "matsemi.semigroup", "is_irreducible",
     None, None),
    ("semigroup.group_info", "matsemi.semigroup", "group_info", None, None),
    ("exact.matrix_product", "matsemi.exact", "matrix_product", None, None),
    ("exact.rank", "matsemi.exact", "rank", None, None),
    ("exact.inverse", "matsemi.exact", "inverse", None, None),
    ("exact.classify_entries", "matsemi.exact", "classify_entries",
     None, None),
    ("diagsim.diag_sim_nonneg", "matsemi.diagsim", "diag_sim_nonneg",
     None, None),
    ("diagsim.simultaneous_diag_sim", "matsemi.diagsim",
     "simultaneous_diag_sim", _on_witness, None),
    ("diagsim.conjugate", "matsemi.diagsim", "conjugate", None, None),
    ("structure.classify_decomposability", "matsemi.structure",
     "classify_decomposability", None, None),
    ("cones.dual", "matsemi.cones", "dual", _on_dual, None),
    ("cones.extreme_rays", "matsemi.cones", "extreme_rays", None, None),
    ("cones.properness", "matsemi.cones", "properness", None, None),
    ("cones.contains", "matsemi.cones", "contains", None, None),
    ("cones.is_invariant", "matsemi.cones", "is_invariant", None, None),
    ("spectral.perron", "matsemi.spectral", "perron", _on_perron,
     _on_perron_error),
    ("spectral.is_primitive", "matsemi.spectral", "is_primitive", None, None),
    # "_kernels" cannot start a metric name
    ("kernels.power_iteration", "matsemi._kernels", "power_iteration",
     None, None),
)


def layer_metrics(w: Workload, corpus: Corpus, traced: Pass,
                  tracer: Tracer, overhead: float) -> dict:
    summary = tracer.summary()
    m: dict[str, float] = {}
    for name, *_ in TRACED:
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        m[f"{name}.calls"] = row["calls"]
        m[f"{name}.self_s"] = row["self_s"]
    c = tracer.counters
    products, product_s = tracer.child_calls(
        "exact.matrix_product", "semigroup.generate_closure")
    m["semigroup.closure.products"] = products
    m["semigroup.closure.elements"] = c["semigroup.closure.elements"]
    m["semigroup.closure.new_ratio"] = (
        c["semigroup.closure.new"] / products if products else 0.0)
    m["semigroup.closure.truncated"] = c["semigroup.closure.truncated"]
    op_s = summary.get("op", {}).get("total_s", 0.0)
    closure_self = summary.get("semigroup.generate_closure",
                               {}).get("self_s", 0.0)
    m["semigroup.closure.op_share"] = (
        (closure_self + product_s) / op_s if op_s else 0.0)
    m["semigroup.algebra.products"] = tracer.child_calls(
        "exact.matrix_product", "semigroup.is_irreducible")[0]
    decided = m["diagsim.simultaneous_diag_sim.calls"]
    m["diagsim.feasible_ratio"] = (
        c["diagsim.feasible"] / decided if decided else 0.0)
    hits = traced.stats.get("hits", 0)
    lookups = hits + traced.stats.get("misses", 0)
    m["cones.dual_cache_lookups"] = lookups
    m["cones.dual_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    m["cones.dual_rays_out"] = c["cones.dual_rays_out"]
    m["spectral.perron.iterations"] = c["spectral.perron.iterations"]
    m["spectral.perron.nonconvergence"] = c["spectral.perron.nonconvergence"]
    m["op.calls"] = len(traced.raws)
    m["op.total_s"] = op_s
    m["trace.overhead_frac"] = overhead
    m["trace.spans"] = len(tracer.names)
    m.update({"harness.plant_s": 0.0, "harness.applicable_ratio": 0.0,
              "cli.interpreter_s": 0.0, "cli.import_s": 0.0,
              "cli.work_s": 0.0})
    m.update(w.layer_metrics(corpus, traced.raws, traced.latencies))
    return m


def _traced_pass(w: Workload, corpus: Corpus, ops: int) -> tuple[Pass, Tracer]:
    tracer = Tracer()
    with tracer:
        tracer.install(TRACED)
        return run_pass(w, corpus, max_ops=ops, tracer=tracer), tracer


def traced_run(w: Workload, corpus: Corpus) -> tuple[dict, Pass, Pass, Path]:
    """The fixed traced slice, plain and traced, in the order plain,
    traced, traced, plain.

    The slice is a fixed op count, so count metrics repeat exactly.  The
    per-layer metrics come from the first traced pass; the overhead
    compares both traced passes with both plain ones, an order that
    cancels a machine speed drifting linearly during the run.
    """
    ops = min(w.trace_ops, len(corpus.ops))
    plain = run_pass(w, corpus, max_ops=ops)
    traced, tracer = _traced_pass(w, corpus, ops)
    again, _ = _traced_pass(w, corpus, ops)
    plain_again = run_pass(w, corpus, max_ops=ops)
    overhead = ((traced.elapsed + again.elapsed)
                / (plain.elapsed + plain_again.elapsed) - 1.0)
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"trace-{w.name}.tsv"
    tracer.write(path)
    return (layer_metrics(w, corpus, traced, tracer, overhead), plain,
            traced, path)


def same_answers(w: Workload, corpus: Corpus, a: Pass, b: Pass) -> None:
    seq = corpus.ops
    for i, (x, y) in enumerate(zip(a.raws, b.raws)):
        fx, fy = failed(w, x), failed(w, y)
        if fx != fy or (not fx and w.answer(seq[i % len(seq)], x)
                        != w.answer(seq[i % len(seq)], y)):
            raise AnswerError(f"op {i} answered differently when traced")
