from itertools import combinations_with_replacement, permutations, product

import pytest

from conftest import (blocks_agree, delta_character, dual_rows_agree, one_walk_b,
                      ref_quiver_matrices, saito_oracle)
from prehomog.bernstein import BResult, bfunction
from prehomog.errors import CapacityError, ContextError, DomainError
from prehomog.fixtures import get_fixture
from prehomog.liealg import (GeneratorSet, character, classify, discriminant,
                             dual_generators)
from prehomog.polyring import MultiPoly
from prehomog.quiver import (DimensionVector, Quiver, atilde_quiver,
                             dtilde3_quiver, infinitesimal_generators,
                             rep_space, star_quiver, tits_form)


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
        cls = classify(g)
        f = cls.discriminant
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
        # million variables: refused before the first generator is built
        qv = Quiver(["a", "b"], [("a", "b"), ("a", "b")])
        d = DimensionVector({"a": 1001, "b": 1000})
        assert tits_form(qv, d) == 1
        with pytest.raises(CapacityError, match="2002000 variables"):
            infinitesimal_generators(qv, d)


class TestFamilies:
    def test_star_classification(self):
        qv, d = star_quiver()
        cls = classify(infinitesimal_generators(qv, d))
        f = cls.discriminant
        assert cls.kind == "linear-free-divisor"
        assert cls.reduced and cls.special
        assert f.degree() == 6
        # product of the three 2x2 minors of the assembled 2x3 matrix
        names = rep_space(qv, d)

        def mono(i, j):
            return tuple(int(k in (i, j)) for k in range(len(names)))

        def minor(a, b):
            """x_2a x_2b+1 - x_2a+1 x_2b"""
            return MultiPoly(names, {mono(2 * a, 2 * b + 1): 1,
                                     mono(2 * a + 1, 2 * b): -1})

        assert f == minor(0, 1) * minor(0, 2) * minor(1, 2)

    def test_atilde_one_is_a_squared_minor(self):
        qv, d = atilde_quiver(1)
        cls = classify(infinitesimal_generators(qv, d))
        f = cls.discriminant
        assert cls.kind == "prehomogeneous-determinant"
        assert not cls.reduced
        assert cls.special
        # m = ae - bc on the coordinates a, b, c, e
        m = MultiPoly(rep_space(qv, d), {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
        assert f == m * m or f == m * m * -1

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

    @pytest.mark.parametrize("n", [2.9, 2.0, "3", True])
    def test_atilde_needs_an_int(self, n):
        # no truncation to the n = 2 quiver, no string or bool lengths
        with pytest.raises(DomainError):
            atilde_quiver(n)


def reference_inputs():
    """The quivers whose generators are checked against the dense
    reference: the three families, the 3x4 star and the Kronecker quiver."""
    sources = ["s1", "s2", "s3", "s4"]
    out = {"star-2111": star_quiver(), "dtilde3-22111": dtilde3_quiver()}
    out.update((f"atilde-{n}", atilde_quiver(n)) for n in range(1, 9))
    out["star-31111"] = (Quiver(["c"] + sources, [(s, "c") for s in sources]),
                         DimensionVector({"c": 3, **dict.fromkeys(sources, 1)}))
    out["kronecker-2-1"] = (Quiver(["a", "b"], [("a", "b"), ("a", "b")]),
                            DimensionVector({"a": 2, "b": 1}))
    return out


class TestAgainstDenseReference:
    @pytest.mark.parametrize("name, qv, d", [
        pytest.param(name, qv, d, id=name) for name, (qv, d) in reference_inputs().items()])
    def test_forms_equal_the_dense_build(self, name, qv, d):
        expected = GeneratorSet(ref_quiver_matrices(qv, d), rep_space(qv, d))
        assert infinitesimal_generators(qv, d) == expected


def generated_quivers():
    """One pytest.param(quiver, dimension vector) per isomorphism class of the
    connected quivers with 2-4 vertices, at most 4 arrows and no loops,
    with dimensions 1-3, n = dim Rep <= 8, Tits form 1 and f != 0.  The
    class key is the least (dims, sorted arrows) over vertex relabellings."""
    classes = set()
    for nv in range(2, 5):
        pairs = [(a, b) for a in range(nv) for b in range(nv) if a != b]
        perms = list(permutations(range(nv)))
        for m in range(nv - 1, 5):
            for edges in combinations_with_replacement(pairs, m):
                if not Quiver(range(nv), edges).is_connected():
                    continue
                for dims in product(range(1, 4), repeat=nv):
                    n = sum(dims[a] * dims[b] for a, b in edges)
                    if n > 8 or sum(x * x for x in dims) - n != 1:
                        continue
                    classes.add(min((tuple(dims[p.index(i)] for i in range(nv)),
                                     tuple(sorted((p[a], p[b]) for a, b in edges)))
                                    for p in perms))
    out = []
    for dims, edges in sorted(classes):
        names = [f"v{i}" for i in range(len(dims))]
        qv = Quiver(names, [(names[a], names[b]) for a, b in edges])
        d = DimensionVector(dict(zip(names, dims)))
        if not discriminant(infinitesimal_generators(qv, d)).is_zero:
            arrows = ",".join(f"{a}{b}" for a, b in edges)
            out.append(pytest.param(qv, d, id=f"{arrows}-{''.join(map(str, dims))}"))
    return out


GENERATED = generated_quivers()


class TestGeneratedQuivers:
    """The paper's theorem on every generated quiver: b is symmetric about
    -1, and -1 is its only integer root (negativity is Kashiwara's)."""

    def test_class_count(self):
        assert len(GENERATED) == 61

    @pytest.mark.parametrize("qv, d", GENERATED)
    def test_symmetric_b(self, qv, d):
        g = infinitesimal_generators(qv, d)
        assert g == GeneratorSet(ref_quiver_matrices(qv, d), rep_space(qv, d))
        assert delta_character(g, discriminant(g)) == character(g)
        assert dual_rows_agree(g) and dual_rows_agree(dual_generators(g))
        res = bfunction(g)
        assert isinstance(res, BResult) and res.symmetric
        assert (res.b, res.raw_leading) == one_walk_b(g)
        roots = [r for r, m in res.spectrum.roots for _ in range(m)]
        assert sorted(-2 - r for r in roots) == sorted(roots)
        assert max(roots) < 0
        assert [r for r, _ in res.spectrum.roots if r.denominator == 1] == [-1]
        dual = bfunction(dual_generators(g))
        assert (dual.b, dual.raw_leading) == (res.b, res.raw_leading)

    def test_saito_blocks(self):
        """`conftest.saito_oracle` on every class and its dual: a squared
        block determinant certifies 86 of the 90 sets that are not
        reduced; the blocks are those of `conftest.ref_blocks`."""
        sets = [h for qv, d in (p.values for p in GENERATED)
                for g in [infinitesimal_generators(qv, d)]
                for h in (g, dual_generators(g))]
        witnessed = [saito_oracle(g) for g in sets]
        nonreduced = [not classify(g).reduced for g in sets]
        assert (len(sets), sum(nonreduced), sum(witnessed)) == (122, 90, 86)
        assert all(n for w, n in zip(witnessed, nonreduced) if w)
        assert all(blocks_agree(g) for g in sets)
