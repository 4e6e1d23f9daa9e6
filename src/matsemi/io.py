"""JSON loading and dumping for matrices, cones, and reports.

Entry encoding: a rational is the string "p/q" (or "p"), an integer is
accepted on input; a Gaussian rational is {"re": "p/q", "im": "p/q"}.
Floats are rejected so exactness is never silently lost.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .exact import Matrix, Scalar, _as_fraction

if TYPE_CHECKING:
    from .cones import Cone
    from .diagsim import DiagonalWitness
    from .semigroup import SemigroupClosure


def _fraction_from_json(x: Any) -> Fraction:
    if isinstance(x, bool):
        raise ValueError("booleans are not rational entries")
    if isinstance(x, (int, str)):
        return _as_fraction(x)
    if isinstance(x, float):
        raise ValueError(
            "floating point entries are not accepted; write 'p/q' strings")
    raise ValueError(f"cannot read {x!r} as a rational")


def scalar_from_json(x: Any) -> Scalar:
    if isinstance(x, dict):
        unknown = set(x) - {"re", "im"}
        if unknown:
            raise ValueError(f"unknown scalar fields {sorted(unknown)}")
        if not x:
            raise ValueError("a scalar object needs 're' or 'im'")
        return Scalar(_fraction_from_json(x.get("re", 0)),
                      _fraction_from_json(x.get("im", 0)))
    return Scalar(_fraction_from_json(x))


def scalar_to_json(s: Scalar) -> Any:
    if s.im == 0:
        return str(s.re)
    return {"re": str(s.re), "im": str(s.im)}


def _require_int(x: Any, field: str) -> None:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"'{field}' must be an integer, got {x!r}")


def _require_list_of_lists(x: Any, field: str) -> None:
    if not isinstance(x, list) or not all(isinstance(r, list) for r in x):
        raise ValueError(f"'{field}' must be a list of lists")


def matrix_from_json(obj: dict) -> Matrix:
    try:
        rows = obj["rows"]
        cols = obj["cols"]
        entries = obj["entries"]
    except (TypeError, KeyError) as e:
        raise ValueError("matrix object needs rows, cols, entries") from e
    _require_int(rows, "rows")
    _require_int(cols, "cols")
    _require_list_of_lists(entries, "entries")
    if len(entries) != rows:
        raise ValueError("entry row count does not match 'rows'")
    flat = []
    for r in entries:
        if len(r) != cols:
            raise ValueError("entry column count does not match 'cols'")
        flat.extend(scalar_from_json(x) for x in r)
    return Matrix(rows, cols, flat)


def matrix_to_json(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[scalar_to_json(e) for e in m.row(i)]
                    for i in range(m.rows)],
    }


def generators_from_json(obj: dict) -> list[Matrix]:
    try:
        mats = obj["matrices"]
    except (TypeError, KeyError) as e:
        raise ValueError("generator object needs a 'matrices' list") from e
    if not isinstance(mats, list) or not mats:
        raise ValueError("'matrices' must be a non-empty list")
    return [matrix_from_json(m) for m in mats]


def cone_from_json(obj: dict) -> Cone:
    from .cones import Cone

    try:
        dim = obj["dim"]
        rays = obj["rays"]
    except (TypeError, KeyError) as e:
        raise ValueError("cone object needs dim and rays") from e
    _require_int(dim, "dim")
    _require_list_of_lists(rays, "rays")
    return Cone.of(dim, [[_fraction_from_json(x) for x in r] for r in rays])


def cone_to_json(k: Cone) -> dict:
    return {"dim": k.dim, "rays": [[str(x) for x in r.v] for r in k.rays]}


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nesting is too deep to read") from None


def load_matrix(path: str) -> Matrix:
    return matrix_from_json(load_json(path))


def load_generators(path: str) -> list[Matrix]:
    obj = load_json(path)
    if isinstance(obj, dict) and "matrices" in obj:
        return generators_from_json(obj)
    # a bare matrix object is accepted as a singleton collection
    return [matrix_from_json(obj)]


def load_cone(path: str) -> Cone:
    return cone_from_json(load_json(path))


def witness_to_json(w: DiagonalWitness) -> dict:
    return {"diagonal": [scalar_to_json(x) for x in w.d]}


# Decomposition, properness and spectral reports are flat dataclasses
# whose fields are already JSON values (the decomposition kind is a str
# enum), so their writer is the generic one.
decomposition_to_json = properness_to_json = spectral_to_json = \
    dataclasses.asdict


def closure_to_json(c: SemigroupClosure, include_matrices: bool = True) -> dict:
    elements = []
    for e in c.elements:
        item: dict[str, Any] = {"word": list(e.word)}
        if include_matrices:
            item["matrix"] = matrix_to_json(e.canonical)
        elements.append(item)
    return {
        "count": len(c.elements),
        "truncated": c.truncated,
        "caps": dataclasses.asdict(c.caps),
        "elements": elements,
    }


def dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)
