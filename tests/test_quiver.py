import pytest

from prehomog.errors import CapacityError, ContextError, DomainError
from prehomog.fixtures import get_fixture
from prehomog.liealg import discriminant
from prehomog.polyring import MultiPoly
from prehomog.quiver import (DimensionVector, Quiver, atilde_quiver,
                             dtilde3_quiver, infinitesimal_generators,
                             quiver_discriminant, rep_space, star_quiver,
                             tits_form)


class TestQuiverValidation:
    def test_duplicate_vertices(self):
        with pytest.raises(DomainError):
            Quiver(["a", "a"], [])

    def test_empty(self):
        with pytest.raises(DomainError):
            Quiver([], [])

    def test_unknown_vertex(self):
        with pytest.raises(DomainError):
            Quiver(["a", "b"], [("a", "z")])

    def test_loop_rejected(self):
        with pytest.raises(DomainError):
            Quiver(["a"], [("a", "a")])

    def test_immutable(self):
        q = Quiver(["a", "b"], [("a", "b")])
        with pytest.raises(AttributeError):
            q.vertices = ("x",)

    def test_connectivity(self):
        assert Quiver(["a", "b"], [("a", "b")]).is_connected()
        assert not Quiver(["a", "b"], []).is_connected()
        assert Quiver(["a"], []).is_connected()

    def test_parallel_edges_allowed(self):
        q = Quiver(["a", "b"], [("a", "b"), ("a", "b")])
        assert len(q.edges) == 2


class TestDimensionVector:
    def test_positive_required(self):
        with pytest.raises(DomainError):
            DimensionVector({"a": 0})

    def test_missing_vertex(self):
        d = DimensionVector({"a": 1})
        with pytest.raises(ContextError):
            d["b"]

    def test_immutable(self):
        d = DimensionVector({"a": 1})
        with pytest.raises(AttributeError):
            d.dims = {}


class TestTitsForm:
    def test_families_are_roots(self):
        for qv, d in (star_quiver(), dtilde3_quiver(), atilde_quiver(1),
                      atilde_quiver(3)):
            assert tits_form(qv, d) == 1

    def test_path(self):
        q = Quiver(["a", "b"], [("a", "b")])
        assert tits_form(q, DimensionVector({"a": 1, "b": 1})) == 1
        assert tits_form(q, DimensionVector({"a": 2, "b": 1})) == 3

    def test_vertex_set_mismatch(self):
        q = Quiver(["a", "b"], [("a", "b")])
        with pytest.raises(ContextError):
            tits_form(q, DimensionVector({"a": 1}))


class TestRepSpace:
    def test_star_names(self):
        qv, d = star_quiver()
        assert rep_space(qv, d) == ("x1_1_1", "x1_2_1", "x2_1_1", "x2_2_1",
                                    "x3_1_1", "x3_2_1")

    def test_block_shape(self):
        # one edge from a 2-dim source into a 1-dim target: a 1x2 block
        q = Quiver(["t", "s"], [("s", "t")])
        d = DimensionVector({"t": 1, "s": 2})
        assert rep_space(q, d) == ("x1_1_1", "x1_1_2")


class TestGenerators:
    def test_one_edge_quiver(self):
        # target declared first so that its scalar generator survives
        q = Quiver(["t", "s"], [("s", "t")])
        d = DimensionVector({"t": 1, "s": 1})
        g = infinitesimal_generators(q, d)
        assert g.n == 1
        assert g.matrices() == [[[1]]]
        f, cls = quiver_discriminant(q, d)
        assert f == MultiPoly(g.variables, {(1,): 1})
        assert cls.kind == "linear-free-divisor"
        assert cls.special

    def test_generator_count_is_rep_dimension(self):
        for qv, d in (star_quiver(), dtilde3_quiver(), atilde_quiver(2)):
            g = infinitesimal_generators(qv, d)
            assert g.n == len(rep_space(qv, d))

    def test_disconnected_rejected(self):
        q = Quiver(["a", "b"], [])
        with pytest.raises(DomainError, match="connected"):
            infinitesimal_generators(q, DimensionVector({"a": 1, "b": 1}))

    def test_tits_form_guard(self):
        qv, _ = star_quiver()
        d = DimensionVector({"c": 3, "s1": 1, "s2": 1, "s3": 1})
        with pytest.raises(DomainError, match="Tits form"):
            infinitesimal_generators(qv, d)

    def test_size_cap(self):
        # the Kronecker quiver at (1001, 1000) has Tits form 1 and about two
        # million variables: refused before the first matrix is built
        qv = Quiver(["a", "b"], [("a", "b"), ("a", "b")])
        d = DimensionVector({"a": 1001, "b": 1000})
        assert tits_form(qv, d) == 1
        with pytest.raises(CapacityError, match="2002000 variables"):
            infinitesimal_generators(qv, d)


class TestFamilies:
    def test_star_classification(self):
        qv, d = star_quiver()
        f, cls = quiver_discriminant(qv, d)
        assert cls.kind == "linear-free-divisor"
        assert cls.reduced and cls.special
        assert f.degree() == 6
        # product of the three 2x2 minors of the assembled 2x3 matrix
        xs = MultiPoly.gens(rep_space(qv, d))

        def minor(a, b):
            return xs[2 * a] * xs[2 * b + 1] - xs[2 * a + 1] * xs[2 * b]

        assert f == minor(0, 1) * minor(0, 2) * minor(1, 2)

    def test_atilde_one_is_a_squared_minor(self):
        qv, d = atilde_quiver(1)
        f, cls = quiver_discriminant(qv, d)
        assert cls.kind == "prehomogeneous-determinant"
        assert not cls.reduced
        assert cls.special
        a, b, c, e = MultiPoly.gens(rep_space(qv, d))
        m = a * e - b * c
        assert f == m * m or f == -(m * m)

    def test_atilde_matches_fixture(self):
        g = get_fixture("atilde-2").generators()
        qv, d = atilde_quiver(2)
        assert g.matrices() == infinitesimal_generators(qv, d).matrices()

    def test_dtilde3_vertex_choice(self):
        qv, d = dtilde3_quiver()
        g = infinitesimal_generators(qv, d)
        assert g.n == 10
        f = discriminant(g)
        assert f.is_homogeneous() and f.degree() == 10

    def test_atilde_needs_positive_length(self):
        with pytest.raises(DomainError):
            atilde_quiver(0)
