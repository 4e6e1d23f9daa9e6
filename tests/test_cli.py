import json
import os
import subprocess
import sys

import pytest

import matsemi
from matsemi import Matrix, cli, harness
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

    neg = paths("neg.json", matrix_to_json(M([[-1]])))
    code, _ = run(capsys, ["perron", neg])
    assert code == 2


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


COLD_START = """
import json, sys
import matsemi, matsemi.cli as cli
from matsemi import Matrix, is_primitive
m, k, g = sys.argv[1:4]
codes = [cli.main(["analyze", m]), cli.main(["cone", "dual", k]),
         cli.main(["verify", "group", g])]
assert is_primitive(Matrix.from_rows([[0, 1], [1, 1]]))
assert codes == [0, 0, 0], codes
assert "numpy" not in sys.modules, "an exact command imported numpy"
res = matsemi.perron(Matrix.from_rows([[2, 1], [1, 2]]))
assert abs(res.rho - 3.0) <= 1e-9
assert "numpy" in sys.modules
print("cold-start-ok")
"""


def test_exact_commands_do_not_import_numpy(paths):
    m = paths("m.json", matrix_to_json(M([[1, 0, 1], [0, 1, -1], [0, 0, 0]])))
    k = paths("k.json", {"dim": 2, "rays": [["1", "0"], ["1", "1"]]})
    g = paths("g.json", {"matrices": [matrix_to_json(
        M([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))]})
    src = os.path.dirname(os.path.dirname(os.path.abspath(matsemi.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", COLD_START, m, k, g],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("cold-start-ok")


ANALYZE_ONLY = """
import sys
import matsemi.cli as cli
assert cli.main(["analyze", sys.argv[1]]) == 0
loaded = sorted(m for m in ("matsemi.harness", "matsemi.semigroup",
                            "matsemi.cones", "matsemi.spectral")
                if m in sys.modules)
assert not loaded, loaded
assert cli.main(["verify", "semigroup", sys.argv[2]]) == 0
loaded = sorted(m for m in ("matsemi.cones", "matsemi.spectral")
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
