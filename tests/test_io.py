import json
import random
from fractions import Fraction

import pytest

from matsemi import (Cone, Matrix, Scalar, diag_sim_nonneg, generate_closure,
                     perron, rank_one_ideal, xy_decomposition)
from matsemi.io import (cone_from_json, cone_to_json, dump_json,
                        generators_from_json, load_cone, load_generators,
                        load_matrix, matrix_from_json, matrix_to_json,
                        scalar_from_json, scalar_to_json, spectral_to_json,
                        witness_to_json, xy_to_json)
from _fx import M, random_int_matrix


def test_scalar_round_trip():
    for s in [Scalar(0), Scalar(Fraction(-7, 3)), Scalar(1, -2),
              Scalar(Fraction(1, 2), Fraction(3, 5))]:
        assert scalar_from_json(scalar_to_json(s)) == s
    assert scalar_to_json(Scalar(Fraction(1, 2))) == "1/2"
    assert scalar_to_json(Scalar(0, 1)) == {"re": "0", "im": "1"}


def test_scalar_from_json_inputs():
    assert scalar_from_json(3) == Scalar(3)
    assert scalar_from_json("-2/7") == Scalar(Fraction(-2, 7))
    assert scalar_from_json({"im": "1/3"}) == Scalar(0, Fraction(1, 3))
    with pytest.raises(ValueError):
        scalar_from_json(0.5)
    with pytest.raises(ValueError):
        scalar_from_json(True)
    with pytest.raises(ValueError):
        scalar_from_json({"re": "1", "imag": "2"})
    with pytest.raises(ValueError):
        scalar_from_json(None)


@pytest.mark.parametrize("entry", ["1e5", "2E-3", {"re": "1e2"},
                                   {"re": "1", "im": "-3E1"}])
def test_scalar_from_json_rejects_exponent_notation(entry):
    # only small exponents here: a large one is the bug being guarded
    with pytest.raises(ValueError, match="exponent"):
        scalar_from_json(entry)


def test_cone_from_json_rejects_exponent_notation():
    with pytest.raises(ValueError, match="exponent"):
        cone_from_json({"dim": 2, "rays": [["1", "0"], ["1e5", "1"]]})


def test_matrix_round_trip():
    rng = random.Random(17)
    for _ in range(25):
        m = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert matrix_from_json(matrix_to_json(m)) == m
    c = Matrix.from_rows([[Scalar(1, 1), Scalar(Fraction(-1, 2))]])
    assert matrix_from_json(matrix_to_json(c)) == c


def test_matrix_from_json_shape_errors():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 1, "entries": [["1"]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 2, "entries": [["1"]]})
    with pytest.raises(ValueError):
        matrix_from_json([1, 2])


def test_matrix_from_json_field_types():
    for bad in ({"rows": "1", "cols": 1, "entries": [["1"]]},
                {"rows": 1, "cols": 1.0, "entries": [["1"]]},
                {"rows": True, "cols": 1, "entries": [["1"]]},
                {"rows": 1, "cols": 1, "entries": 5},
                {"rows": 1, "cols": 1, "entries": ["1"]}):
        with pytest.raises(ValueError):
            matrix_from_json(bad)
    for bad in ({"matrices": 5}, {"matrices": []}):
        with pytest.raises(ValueError):
            generators_from_json(bad)


def test_cone_from_json_field_types():
    for bad in ({"dim": "2", "rays": [["1", "0"]]},
                {"dim": 2, "rays": 5},
                {"dim": 2, "rays": ["1", "0"]}):
        with pytest.raises(ValueError):
            cone_from_json(bad)


def test_cone_round_trip():
    k = Cone.of(3, [[1, 0, 0], [2, 2, -1]])
    assert cone_from_json(cone_to_json(k)) == k
    with pytest.raises(ValueError):
        cone_from_json({"rays": [["1"]]})


def test_file_loaders(tmp_path):
    mp = tmp_path / "m.json"
    mp.write_text(dump_json(matrix_to_json(M([[1, -1], [0, 2]]))))
    assert load_matrix(str(mp)) == M([[1, -1], [0, 2]])

    # a bare matrix works where a generator list is expected
    assert load_generators(str(mp)) == [M([[1, -1], [0, 2]])]

    gp = tmp_path / "g.json"
    gp.write_text(dump_json(
        {"matrices": [matrix_to_json(M([[0, 1], [1, 0]]))]}))
    gens = load_generators(str(gp))
    assert gens == [M([[0, 1], [1, 0]])]

    kp = tmp_path / "k.json"
    k = Cone.of(2, [[1, 1], [0, 1]])
    kp.write_text(dump_json(cone_to_json(k)))
    assert load_cone(str(kp)) == k


def test_generators_from_json_requires_matrices_key():
    with pytest.raises(ValueError):
        generators_from_json({"mats": []})


def test_witness_report_shape():
    w = diag_sim_nonneg(M([[1, 0, 1], [0, 1, -1], [0, 0, 0]]))
    assert w is not None
    obj = witness_to_json(w)
    assert obj["diagonal"] == ["1", "-1", "1"]
    assert json.loads(dump_json(obj)) == obj


def test_spectral_report_is_json_safe():
    obj = spectral_to_json(perron(M([[2, 1], [1, 2]])))
    parsed = json.loads(dump_json(obj))
    assert abs(parsed["rho"] - 3.0) <= 1e-9
    assert len(parsed["right_vector"]) == 2
    assert parsed["iterations"] >= 2


def test_xy_report_shape():
    cl = generate_closure([M([[1, 0], [1, 0]])])
    obj = xy_to_json(xy_decomposition(rank_one_ideal(cl)))
    parsed = json.loads(dump_json(obj))
    assert parsed["x_vectors"] == [["1", "1"]]
    assert parsed["y_vectors"] == [["1", "0"]]
    assert parsed["pairing"] == [[0, 0]]
    assert parsed["x_spans"] is False and parsed["y_spans"] is False
