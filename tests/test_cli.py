import importlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

import matsemi
from matsemi import Caps, Matrix, Scalar, cli, harness
from matsemi.cli import main
from matsemi.io import dump_json, matrix_to_json
from _fx import M


@pytest.fixture
def paths(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(dump_json(obj))
        return str(p)
    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_analyze(paths, capsys):
    p = paths("m.json", matrix_to_json(M([[1, 0, 1], [0, 1, -1], [0, 0, 0]])))
    code, out = run(capsys, ["analyze", p])
    assert code == 0
    assert out["rank"] == 2
    assert out["witness"]["diagonal"] == ["1", "-1", "1"]
    assert out["decomposability"]["scc_count"] == 3

    p = paths("bad.json", matrix_to_json(M([[-1]])))
    code, out = run(capsys, ["analyze", p])
    assert code == 0
    assert out["witness"] == "infeasible"


def test_analyze_prints_the_primitive_gaussian_witness(paths, capsys):
    # d_1 is the primitive Gaussian integer i on the ray of 2i
    i = Scalar(0, 1)
    p = paths("g.json", matrix_to_json(M([[0, i * 2], [-i / 2, 1]])))
    code, out = run(capsys, ["analyze", p])
    assert code == 0
    assert out["witness"]["diagonal"] == ["1", {"re": "0", "im": "1"}]


def test_analyze_rectangular_has_no_witness_section(paths, capsys):
    p = paths("r.json", matrix_to_json(M([[1, 2, 3], [4, 5, 6]])))
    code, out = run(capsys, ["analyze", p])
    assert code == 0
    assert "witness" not in out and "decomposability" not in out
    assert out["rank"] == 2


def test_cone_subcommands(paths, capsys):
    k = paths("k.json", {"dim": 2, "rays": [["1", "0"], ["0", "1"]]})
    code, out = run(capsys, ["cone", "dual", k])
    assert code == 0
    assert out["rays"] == [["0", "1"], ["1", "0"]]

    code, out = run(capsys, ["cone", "proper", k])
    assert code == 0
    assert out == {"is_pointed": True, "is_solid": True, "is_proper": True}

    k2 = paths("k2.json", {"dim": 2,
                           "rays": [["1", "0"], ["1", "1"], ["1", "2"]]})
    code, out = run(capsys, ["cone", "extreme", k2])
    assert code == 0
    assert out["extreme_rays"] == [["1/2", "1"], ["1", "0"]]

    m = paths("m.json", matrix_to_json(M([[1, 1], [0, 1]])))
    code, out = run(capsys, ["cone", "invariant", k, "--matrix", m])
    assert code == 0
    assert out == {"invariant": True}

    code, _ = run(capsys, ["cone", "invariant", k])
    assert code == 2  # --matrix missing


def test_closure_and_caps_flags(paths, capsys):
    g = paths("g.json", {"matrices": [matrix_to_json(
        M([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))]})
    code, out = run(capsys, ["closure", g, "--words-only"])
    assert code == 0
    assert out["count"] == 3 and not out["truncated"]
    assert all("matrix" not in e for e in out["elements"])

    d = paths("d.json", matrix_to_json(M([[2, 0], [0, 1]])))
    code, out = run(capsys, ["closure", d, "--max-elements", "4"])
    assert code == 0
    assert out["truncated"] and out["count"] == 4
    assert out["caps"]["max_elements"] == 4


def test_caps_flag_defaults_are_caps_defaults():
    caps = Caps()
    parser = cli.build_parser()
    for argv in (["closure", "g.json"], ["verify", "group", "g.json"],
                 ["verify", "semigroup", "g.json"]):
        args = parser.parse_args(argv)
        assert (args.max_elements, args.max_word_length) == (
            caps.max_elements, caps.max_word_length), argv


def test_irreducible(paths, capsys):
    g = paths("g.json", {"matrices": [
        matrix_to_json(M([[0, 1], [0, 0]])),
        matrix_to_json(M([[0, 0], [1, 0]]))]})
    code, out = run(capsys, ["irreducible", g])
    assert code == 0
    assert out == {"n": 2, "algebra_dimension": 4, "full_dimension": 4,
                   "irreducible": True}


def test_perron(paths, capsys):
    p = paths("m.json", matrix_to_json(M([[2, 1], [1, 2]])))
    code, out = run(capsys, ["perron", p])
    assert code == 0
    assert abs(out["rho"] - 3.0) <= 1e-9

    slow = paths("slow.json", matrix_to_json(M([[1, 2], [3, 4]])))
    code, _ = run(capsys, ["perron", slow, "--max-iters", "1"])
    assert code == 2  # cannot converge in one step
    # an infinite tolerance used to accept the first iterate, rho 7
    assert main(["perron", slow, "--tol", "inf"]) == 2
    assert "tolerance must be positive and finite" in capsys.readouterr().err

    neg = paths("neg.json", matrix_to_json(M([[-1]])))
    code, _ = run(capsys, ["perron", neg])
    assert code == 2

    wide = paths("wide.json", matrix_to_json(M([[1, 2]])))
    assert main(["perron", wide]) == 2
    assert "matrices must be square" in capsys.readouterr().err

    # beyond float range: refused before iterating, no traceback
    for name, entry in (("huge.json", 10 ** 400), ("big.json", 10 ** 308)):
        big = paths(name, matrix_to_json(M([[entry, entry], [1, entry]])))
        assert main(["perron", big]) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err and "Traceback" not in err


def test_verify_exit_codes(paths, capsys):
    g = paths("g.json", {"matrices": [matrix_to_json(
        M([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))]})
    code, out = run(capsys, ["verify", "group", g])
    assert code == 0
    assert out["theorem"] == "Group"
    assert not out["falsified"]

    code, out = run(capsys, ["verify", "semigroup", g])
    assert code == 0
    assert out["theorem"] in ("Semigroup", "Semigroup2x2")


def test_fixtures_exit_code(capsys):
    code, out = run(capsys, ["fixtures", "--filter", "half-plane"])
    assert code == 0
    assert out["all_passed"] is True
    assert out["total"] > 0 and out["failures"] == 0

    # a filter that matches no fixture is bad input, not a clean pass
    code = main(["fixtures", "--filter", "nosuch"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "nosuch" in captured.err


def test_cone_past_the_pair_limit_exits_2(paths, capsys):
    # dim 9, 70 generators: unbounded, cone duality runs past a minute
    rng = random.Random(9)
    k = paths("k.json", {"dim": 9, "rays": [
        [str(rng.randint(0, 5)) for _ in range(9)] for _ in range(70)]})
    start = time.perf_counter()
    code = main(["cone", "dual", k])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 10
    assert code == 2
    assert captured.out == ""
    assert "ray pairs" in captured.err


OVERSIZED_CONE = """
import resource, sys
limit = 512 << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
import matsemi.cli as cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_oversized_cone_exits_2_before_allocating(paths):
    # The null space of an empty cone in dimension n has n x n entries.
    # The child caps its own address space, so a build that tries to
    # allocate them fails there, not on the machine.
    src = os.path.dirname(os.path.dirname(os.path.abspath(matsemi.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for dim in (100_000_000, 3000):
        k = paths(f"k{dim}.json", {"dim": dim, "rays": []})
        for action in ("proper", "dual"):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", OVERSIZED_CONE, "cone", action, k],
                env=env, capture_output=True, text=True, timeout=120)
            assert time.perf_counter() - start < 10
            assert proc.returncode == 2, proc.stderr
            assert proc.stdout == ""
            assert "null space" in proc.stderr


def test_oracle_commands(paths, capsys):
    m = paths("m.json", matrix_to_json(M([[1, 0, 1], [0, 1, -1], [0, 0, 0]])))
    code, out = run(capsys, ["oracle", "signs", m])
    assert code == 0
    assert out == {"feasible": True, "signs": [1, -1, 1]}

    code, out = run(capsys, ["oracle", "subsets", m])
    assert code == 0
    assert out["decomposable"] is True

    bad = paths("bad.json", matrix_to_json(M([[1, -1], [1, 1]])))
    code, out = run(capsys, ["oracle", "signs", bad])
    assert code == 0
    assert out == {"feasible": False, "signs": None}


def test_oracle_commands_refuse_oversized_input(paths, capsys):
    for kind, limit in (("signs", harness.MAX_SIGN_SEARCH_N),
                        ("subsets", harness.MAX_SUBSET_SEARCH_N)):
        p = paths(f"{kind}.json", matrix_to_json(Matrix.identity(limit + 1)))
        code = main(["oracle", kind, p])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "limited" in captured.err


def test_bad_input_paths_exit_2(paths, capsys, tmp_path):
    code, _ = run(capsys, ["analyze", str(tmp_path / "missing.json")])
    assert code == 2

    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    code, _ = run(capsys, ["analyze", str(junk)])
    assert code == 2

    floats = paths("f.json", {"rows": 1, "cols": 1, "entries": [[0.5]]})
    code, _ = run(capsys, ["analyze", floats])
    assert code == 2


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code = main(["analyze", str(deep)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "nesting" in captured.err


def test_exponent_notation_exits_2(paths, capsys):
    m = paths("m.json", {"rows": 1, "cols": 1, "entries": [["1e5"]]})
    g = paths("g.json", {"matrices": [
        {"rows": 2, "cols": 2, "entries": [["1", {"re": "2E-3"}],
                                           ["0", "1"]]}]})
    k = paths("k.json", {"dim": 2, "rays": [["1e2", "0"]]})
    for argv in (["analyze", m], ["verify", "semigroup", g],
                 ["cone", "dual", k]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert "exponent notation" in captured.err


BAD_MATRICES = [
    {"rows": 1, "cols": 1, "entries": 5},
    {"rows": "1", "cols": 1, "entries": [["1"]]},
    {"rows": True, "cols": 1, "entries": [["1"]]},
    {"rows": 1, "cols": 1, "entries": ["1"]},
    {"rows": 1, "cols": 1, "entries": [[None]]},
    {"rows": 1, "cols": 1, "entries": [[{}]]},
    [1, 2],
    None,
]
BAD_GENERATORS = BAD_MATRICES + [
    {"matrices": 5},
    {"matrices": []},
    {"matrices": ["x"]},
]
BAD_CONES = [
    {"dim": "2", "rays": [["1", "0"]]},
    {"dim": 2, "rays": 5},
    {"dim": 2, "rays": ["1", "0"]},
    {"dim": 0, "rays": []},
    [],
]


def test_malformed_input_never_exits_1(paths, capsys):
    # exit 1 means "theorem falsified"; bad input must exit 2 on every
    # subcommand that reads a file (`fixtures` reads none)
    good_m = paths("good_m.json", matrix_to_json(M([[1, 0], [0, 1]])))
    good_k = paths("good_k.json", {"dim": 2, "rays": [["1", "0"]]})
    argvs = []
    for i, obj in enumerate(BAD_MATRICES):
        p = paths(f"m{i}.json", obj)
        argvs += [["analyze", p], ["perron", p], ["oracle", "subsets", p],
                  ["cone", "invariant", good_k, "--matrix", p]]
    for i, obj in enumerate(BAD_GENERATORS):
        p = paths(f"g{i}.json", obj)
        argvs += [["closure", p], ["irreducible", p], ["verify", "group", p],
                  ["verify", "semigroup", p], ["oracle", "signs", p]]
    for i, obj in enumerate(BAD_CONES):
        p = paths(f"k{i}.json", obj)
        argvs += [["cone", action, p] for action in ("dual", "extreme",
                                                     "proper")]
        argvs.append(["cone", "invariant", p, "--matrix", good_m])
    for argv in argvs:
        code, out = run(capsys, argv)
        assert (code, out) == (2, None), argv


def test_unexpected_exception_exits_3(paths, capsys, monkeypatch):
    def boom(_):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(cli, "rank", boom)
    p = paths("m.json", matrix_to_json(M([[1]])))
    assert main(["analyze", p]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error" in captured.err and "kaboom" in captured.err


NO_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every "import numpy" now raises ImportError
import matsemi.cli as cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_every_subcommand_runs_without_numpy(paths, capsys):
    m = paths("m.json", matrix_to_json(M([[1, 0, 1], [0, 1, -1], [0, 0, 0]])))
    p = paths("p.json", matrix_to_json(M([[2, 1], [1, 2]])))
    k = paths("k.json", {"dim": 2, "rays": [["1", "0"], ["1", "1"]]})
    g = paths("g.json", {"matrices": [matrix_to_json(
        M([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))]})
    argvs = [["analyze", m], ["cone", "dual", k], ["cone", "extreme", k],
             ["cone", "proper", k], ["cone", "invariant", k, "--matrix", p],
             ["closure", g], ["irreducible", g], ["perron", p],
             ["verify", "group", g], ["verify", "semigroup", g],
             ["fixtures"], ["oracle", "signs", g], ["oracle", "subsets", m]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(matsemi.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY, json.dumps(argvs)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    in_process = []
    for argv in argvs:
        code = main(argv)
        in_process.append([code, capsys.readouterr().out])
    assert blocked == in_process
    assert all(code == 0 for code, _ in blocked)
    assert json.loads(blocked[7][1])["rho"] == pytest.approx(3.0, abs=1e-9)


ANALYZE_ONLY = """
import sys
import matsemi.cli as cli
assert cli.main(["analyze", sys.argv[1]]) == 0
loaded = sorted(m for m in ("matsemi.harness", "matsemi.semigroup",
                            "matsemi.cones", "matsemi.spectral")
                if m in sys.modules)
assert not loaded, loaded
assert cli.main(["verify", "semigroup", sys.argv[2]]) == 0
loaded = sorted(m for m in ("matsemi.cones", "matsemi.spectral",
                            "matsemi._kernels")
                if m in sys.modules)
assert not loaded, loaded
print("analyze-only-ok")
"""


def test_analyze_imports_only_what_it_runs(paths):
    m = paths("m.json", matrix_to_json(M([[1, -1], [0, 2]])))
    g = paths("g.json", {"matrices": [matrix_to_json(
        M([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))]})
    src = os.path.dirname(os.path.dirname(os.path.abspath(matsemi.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", ANALYZE_ONLY, m, g],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("analyze-only-ok")


def test_package_names_resolve_on_every_access(monkeypatch):
    from matsemi import cones

    calls = []
    real = importlib.import_module

    def recording(name, *args):
        calls.append(name)
        return real(name, *args)

    monkeypatch.setattr(importlib, "import_module", recording)
    assert matsemi.dual is cones.dual

    def replaced(k):
        return k

    monkeypatch.setattr(cones, "dual", replaced)
    assert matsemi.dual is replaced
    assert calls == []


def test_every_export_is_defined_where_the_table_says():
    """A stale entry in ``matsemi._EXPORTS`` fails here, not in a caller."""
    listed = [n for names in matsemi._EXPORTS.values() for n in names]
    assert matsemi.__all__ == sorted(set(listed))
    assert len(listed) == len(set(listed))
    for name in matsemi.__all__:
        module = importlib.import_module(
            f"matsemi.{matsemi._SOURCES[name]}")
        obj = getattr(matsemi, name)
        assert obj is getattr(module, name)
        assert obj.__module__ == module.__name__, name
