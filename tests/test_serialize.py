import json
from fractions import Fraction

import pytest

from prehomog.bernstein import BFailure, bfunction
from prehomog.errors import ContextError, ParseError
from prehomog.fixtures import get_fixture
from prehomog.geometry import OrderForm
from prehomog.liealg import GeneratorSet, classify
from prehomog.polyring import MultiPoly, UniPoly, parse_rational
from prehomog.quiver import star_quiver
from prehomog.serialize import (bresult_to_json, classification_to_json,
                                generatorset_from_json, multipoly_to_json,
                                orderform_to_json, quiver_from_json,
                                unipoly_to_json,
                                vector_from_text)

F = Fraction


def read_multipoly(obj):
    return MultiPoly(obj["variables"], {tuple(t["exponents"]): parse_rational(
        t["coefficient"]) for t in obj["terms"]})


def write_generators(g):
    return {"n": g.n, "variables": list(g.variables),
            "generators": [[[str(v) for v in row] for row in m]
                           for m in g.matrices()]}


class TestScalars:
    def test_rational(self):
        # "p/q", and "p" when the denominator is 1
        assert orderform_to_json(OrderForm(F(-2), F(3, 4))) == \
            {"m": "-2", "half_mu": "3/4"}
        assert unipoly_to_json(UniPoly([5, F(-1, 3)])) == ["5", "-1/3"]

    def test_vector_from_text(self):
        assert vector_from_text("1, -2/3, 0") == [F(1), F(-2, 3), F(0)]
        assert vector_from_text("") == []
        with pytest.raises(ParseError):
            vector_from_text("1, two")


class TestPolynomials:
    def test_multipoly_round_trip(self):
        p = MultiPoly(("x", "y"), {(2, 0): F(1, 3), (0, 1): -2})
        obj = multipoly_to_json(p)
        assert obj["variables"] == ["x", "y"]
        assert obj["terms"][0] == {"exponents": [0, 1], "coefficient": "-2"}
        assert read_multipoly(obj) == p

    def test_multipoly_terms_sorted(self):
        p = MultiPoly(("x", "y"), {(1, 0): 1, (0, 2): 1, (0, 1): 1})
        exps = [t["exponents"] for t in multipoly_to_json(p)["terms"]]
        assert exps == sorted(exps)

    def test_unipoly_round_trip(self):
        p = UniPoly([F(1, 2), 0, 1])
        assert unipoly_to_json(p) == ["1/2", "0", "1"]
        assert UniPoly([parse_rational(c) for c in unipoly_to_json(p)]) == p

    def test_json_serializable(self):
        p = MultiPoly(("x",), {(3,): F(-1, 7)})
        text = json.dumps(multipoly_to_json(p), indent=2)
        assert read_multipoly(json.loads(text)) == p


class TestGeneratorSets:
    def test_round_trip(self):
        g = get_fixture("binary-cubic").generators()
        obj = write_generators(g)
        assert obj["n"] == 4
        back = generatorset_from_json(obj)
        assert back.variables == g.variables
        assert back.matrices() == g.matrices()

    def test_declared_n_checked(self):
        obj = write_generators(get_fixture("nc-2").generators())
        obj["n"] = 3
        with pytest.raises(ContextError):
            generatorset_from_json(obj)

    def test_malformed(self):
        with pytest.raises(ParseError):
            generatorset_from_json({"variables": ["x"]})

    def test_entries(self):
        # JSON ints, "p" text and "p/q" text read alike; anything else is
        # still refused
        want = GeneratorSet([[[F(1, 2), 0], [0, 0]], [[0, 0], [0, -3]]])
        obj = {"generators": [[["1/2", 0], ["0", 0]], [[0, "0"], ["+0", "-6/2"]]]}
        assert generatorset_from_json(obj) == want
        for bad in (True, 1.5, "1_0", None, "x", "1/0"):
            with pytest.raises(ParseError):
                generatorset_from_json({"generators": [[[bad]]]})


class TestQuivers:
    def test_round_trip(self):
        qv, d = star_quiver()
        obj = {"vertices": list(qv.vertices), "edges": [list(e) for e in qv.edges],
               "dimensions": {v: d[v] for v in qv.vertices}}
        assert obj["dimensions"]["c"] == 2
        qv2, d2 = quiver_from_json(obj)
        assert qv2 == qv and d2 == d

    def test_malformed(self):
        with pytest.raises(ParseError):
            quiver_from_json({"vertices": ["a"]})


class TestResults:
    def test_classification(self):
        obj = classification_to_json(classify(get_fixture("nc-2").generators()))
        assert obj == {"kind": "linear-free-divisor", "reduced": True,
                       "special": True, "closed_under_bracket": True}

    def test_bresult(self):
        obj = bresult_to_json(bfunction(get_fixture("nc-2").generators()))
        assert obj["functional_equation_held"] is True
        assert obj["monic_coefficients"] == ["1", "2", "1"]
        assert obj["raw_leading"] == "1"
        assert obj["roots"] == [["-1", 2]]
        assert obj["residual"] == ["1"]
        assert obj["symmetric_about_minus_one"] is True

    def test_bfailure(self):
        obj = bresult_to_json(BFailure("functional-equation", "detail",
                                       special=False))
        assert obj["functional_equation_held"] is False
        assert obj["reason"] == "functional-equation"
        assert obj["special"] is False
        assert "message" in obj

    def test_orderform(self):
        assert orderform_to_json(OrderForm(1, F(1, 2))) == \
            {"m": "1", "half_mu": "1/2"}
