"""Command line interface.

Every subcommand reads JSON files (matrix, generator, or ray-set
formats) and prints one JSON document.  Exit codes: 0 success (and, for
`verify`/`fixtures`, no falsification or fixture failure), 1 for a
falsified theorem run or failed fixture, 2 for bad input, 3 for an
internal error (any other exception; the message goes to stderr).  A
crash therefore never exits 1, which is reserved for a falsification.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from typing import TYPE_CHECKING, Optional, Sequence

from . import io
from .diagsim import diag_sim_nonneg
from .exact import classify_entries, rank
from .structure import classify_decomposability

# The other subcommands import what they run when they run, so a cold
# `analyze` loads only the modules it needs.
if TYPE_CHECKING:
    from .semigroup import Caps


def _emit(obj) -> None:
    print(io.dump_json(obj))


def _caps_from_args(args) -> Caps:
    from .semigroup import Caps

    return Caps(max_elements=args.max_elements,
                max_word_length=args.max_word_length)


def _cmd_analyze(args) -> int:
    m = io.load_matrix(args.matrix)
    out = {
        "rows": m.rows,
        "cols": m.cols,
        "rank": rank(m),
        "classification": dataclasses.asdict(classify_entries(m)),
    }
    if m.is_square:
        out["decomposability"] = io.decomposition_to_json(
            classify_decomposability(m))
        w = diag_sim_nonneg(m)
        out["witness"] = io.witness_to_json(w) if w else "infeasible"
    _emit(out)
    return 0


def _cmd_cone(args) -> int:
    from .cones import dual, extreme_rays, is_invariant, properness

    k = io.load_cone(args.rays)
    if args.action == "dual":
        _emit(io.cone_to_json(dual(k)))
    elif args.action == "extreme":
        rays = extreme_rays(k)
        _emit({"dim": k.dim, "extreme_rays": [[str(x) for x in r.v]
                                              for r in rays]})
    elif args.action == "proper":
        _emit(io.properness_to_json(properness(k)))
    else:  # invariant
        if not args.matrix:
            raise ValueError("cone invariant needs --matrix")
        m = io.load_matrix(args.matrix)
        _emit({"invariant": is_invariant(m, k)})
    return 0


def _cmd_closure(args) -> int:
    from .semigroup import generate_closure

    gens = io.load_generators(args.gens)
    closure = generate_closure(gens, _caps_from_args(args))
    _emit(io.closure_to_json(closure, include_matrices=not args.words_only))
    return 0


def _cmd_irreducible(args) -> int:
    from .semigroup import algebra_dimension

    gens = io.load_generators(args.gens)
    n = gens[0].rows
    d = algebra_dimension(gens)
    _emit({"n": n, "algebra_dimension": d, "full_dimension": n * n,
           "irreducible": d == n * n})
    return 0


def _cmd_perron(args) -> int:
    from .spectral import NonConvergenceError, perron

    m = io.load_matrix(args.matrix)
    try:
        res = perron(m, tol=args.tol, max_iters=args.max_iters)
    except NonConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _emit(io.spectral_to_json(res))
    return 0


def _cmd_verify(args) -> int:
    from .harness import verify_group_theorem, verify_semigroup_theorem

    gens = io.load_generators(args.gens)
    caps = _caps_from_args(args)
    if args.kind == "group":
        report = verify_group_theorem(gens, caps)
    else:
        report = verify_semigroup_theorem(gens, caps)
    _emit(report.to_json())
    return 1 if report.falsified else 0


def _cmd_fixtures(args) -> int:
    from .harness import run_fixtures

    summary = run_fixtures(args.filter)
    if not summary.results:
        raise ValueError(f"no fixture name contains {args.filter!r}")
    _emit(summary.to_json())
    return 0 if summary.all_passed else 1


def _cmd_oracle(args) -> int:
    from .harness import sign_search_oracle, subset_invariance_oracle

    if args.kind == "signs":
        ms = io.load_generators(args.input)
        s = sign_search_oracle(ms)
        _emit({"feasible": s is not None,
               "signs": list(s.signs) if s else None})
    else:  # subsets
        m = io.load_matrix(args.input)
        rep = subset_invariance_oracle(m)
        _emit({"decomposable": rep.decomposable,
               "subset": list(rep.subset) if rep.subset else None})
    return 0


def _add_caps_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-elements", type=int, default=10000,
                   help="closure element budget (default 10000)")
    p.add_argument("--max-word-length", type=int, default=12,
                   help="closure word length budget (default 12)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matsemi",
        description=("Exact diagonal-similarity analysis of matrices, "
                     "cones, and matrix semigroups"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze",
                       help="classification, decomposability, and witness")
    p.add_argument("matrix", help="matrix JSON file")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("cone", help="cone computations on a ray set")
    p.add_argument("action", choices=("dual", "extreme", "proper",
                                      "invariant"))
    p.add_argument("rays", help="ray-set JSON file")
    p.add_argument("--matrix", help="matrix JSON file (for 'invariant')")
    p.set_defaults(fn=_cmd_cone)

    p = sub.add_parser("closure", help="projective semigroup closure")
    p.add_argument("gens", help="generators JSON file")
    p.add_argument("--words-only", action="store_true",
                   help="omit member matrices from the output")
    _add_caps_options(p)
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("irreducible",
                       help="algebra dimension and irreducibility")
    p.add_argument("gens", help="generators JSON file")
    p.set_defaults(fn=_cmd_irreducible)

    p = sub.add_parser("perron", help="spectral radius and Perron vectors")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iters", type=int, default=100000)
    p.set_defaults(fn=_cmd_perron)

    p = sub.add_parser("verify", help="theorem verification pipelines")
    p.add_argument("kind", choices=("group", "semigroup"))
    p.add_argument("gens", help="generators JSON file")
    _add_caps_options(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("fixtures", help="run the worked examples")
    p.add_argument("--filter", default=None,
                   help="only fixtures whose name contains this string")
    p.set_defaults(fn=_cmd_fixtures)

    p = sub.add_parser("oracle", help="exhaustive oracles")
    p.add_argument("kind", choices=("signs", "subsets"))
    p.add_argument("input", help="matrix or generators JSON file")
    p.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, OSError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
