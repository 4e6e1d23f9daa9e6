#!/usr/bin/env python3
"""Seeded end-to-end benchmark for matsemi.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipelines --seed 640008 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/run.py --write-reference       # store answer digests

Workloads: pipelines, cones, matrices, cli (see workloads.py).  With
``--trace 0`` the run measures the end-to-end metrics for ``--seconds``
seconds; with ``--trace 1`` it runs a fixed slice of the op sequence
once plain and once traced, and reports per-layer metrics and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when every answer checked out,
1 when one did not, and 2 when the package source is missing.

The benchmark imports matsemi from ``src/`` next to this directory and
nowhere else.  It writes only under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

NAMES = ("pipelines", "cones", "matrices", "cli")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_share")):
        return "ratio"
    return "count"


E2E_UNITS = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         units) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units(k)}
                    for k, v in metrics.items()}}))


def run_one(args, import_s: float) -> int:
    import runner
    from workloads import WORKLOADS, AnswerError

    w = WORKLOADS[args.workload]()
    seed = w.default_seed if args.seed is None else args.seed
    print("# machine " + json.dumps(runner.machine_facts()))
    corpus, setup_times = runner.setup(w, seed)
    setup_s = import_s + statistics.median(setup_times)
    print(f"# {w.name} seed {seed}: {len(corpus.ops)} ops in the sequence; "
          f"set-up {setup_s:.3f} s (import {import_s:.3f} s + median of "
          f"{len(setup_times)} set-ups {[round(t, 3) for t in setup_times]})")
    if args.trace:
        metrics, plain, timed, path = runner.traced_run(w, corpus)
        p, units = timed, unit_of
        print(f"# traced slice: {len(timed.raws)} ops, plain "
              f"{plain.elapsed:.3f} s, traced {timed.elapsed:.3f} s, "
              f"{metrics['trace.spans']} spans written to {path.name}")
    else:
        p = runner.run_pass(w, corpus, seconds=args.seconds)
        metrics, notes = runner.end_to_end(w, p, setup_s)
        units = E2E_UNITS.get
    bad = [raw for raw in p.raws if runner.failed(w, raw)]
    failed = len(bad)
    if bad:
        print(f"# first failed op: {runner.describe_failure(w, bad[0])}")
    correct = True
    try:
        texts = runner.answers(w, corpus, p)
        if args.trace:
            runner.same_answers(w, corpus, plain, timed)
        verdict = runner.compare_reference(w, seed, corpus, texts)
        print(f"# answers: {len(texts)} distinct ops checked; {verdict}")
    except AnswerError as e:
        correct = False
        print(f"# WRONG ANSWER: {e}")
    if not args.trace:
        print(f"throughput_ops_s {metrics['throughput_ops_s']:.4f} 1/s "
              f"({notes['samples']} ops in {p.elapsed:.3f} s)")
        print(f"latency_p50_ms {metrics['latency_p50_ms']:.4f} ms "
              f"({notes['samples']} samples)")
        print(f"latency_tail_ms {metrics['latency_tail_ms']:.4f} ms "
              f"(p{notes['tail_percentile']}, {notes['tail_beyond']} of "
              f"{notes['samples']} samples beyond)")
        print(f"ops_failed_frac {failed / len(p.raws):.4f} "
              f"({failed} of {len(p.raws)} ops)")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.2f} MB "
              f"({'children' if w.name == 'cli' else 'this process'})")
        print(f"setup_s {metrics['setup_s']:.4f} s "
              f"(median of {len(setup_times)} set-ups)")
    else:
        for k, v in metrics.items():
            print(f"{k} {v} {unit_of(k)}")
    emit(correct, len(p.raws), failed, metrics, units)
    return 0 if correct else 1


def write_reference() -> int:
    import runner
    from workloads import WORKLOADS

    out = {}
    for name, cls in WORKLOADS.items():
        w = cls()
        out[name] = {}
        for seed in (w.default_seed, w.heldout_seed):
            corpus = w.build(seed)
            p = runner.run_pass(w, corpus, max_ops=len(corpus.ops))
            bad = [r for r in p.raws if runner.failed(w, r)]
            if bad:
                print(f"{name} seed {seed}: {len(bad)} ops failed; "
                      "no reference written", file=sys.stderr)
                return 1
            texts = runner.answers(w, corpus, p)
            digests = runner.chunk_digests(texts, len(corpus.ops))
            out[name][str(seed)] = {
                "ops": len(corpus.ops),
                "digests": [digests[c] for c in sorted(digests)]}
            print(f"{name} seed {seed}: {len(corpus.ops)} ops, "
                  f"{p.elapsed:.1f} s")
    runner.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def run_all(args) -> int:
    code = 0
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        print(f"## {name}", flush=True)
        code = max(code, subprocess.run(argv).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="corpus seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store answer digests for every workload's "
                             "default and held-out seeds")
    args = parser.parse_args(argv)

    if not (SRC / "matsemi" / "__init__.py").is_file():
        print(f"error: no matsemi package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all" and not args.write_reference:
        return run_all(args)
    t0 = time.perf_counter()
    import runner  # noqa: F401  (imports numpy and all of matsemi)
    import_s = time.perf_counter() - t0
    if args.write_reference:
        return write_reference()
    return run_one(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
