from fractions import Fraction

import pytest

from conftest import reduced_discriminant_bfunctions, star_edge_factors, table_spectra

from prehomog import fixtures, quiver
from prehomog.errors import CapacityError, ContextError
from prehomog.fixtures import _diag, fixture_names, get_fixture, star_chain
from prehomog.liealg import GeneratorSet, classify, validate_algebra
from prehomog.polyring import UniPoly, parse_factored


class TestRegistry:
    def test_names_resolve(self):
        for name in fixture_names():
            fx = get_fixture(name)
            assert fx.name == name
            g = fx.generators()
            assert g.n >= 1

    def test_unknown_name(self):
        with pytest.raises(ContextError):
            get_fixture("moduli-of-dreams")

    def test_family_patterns(self):
        assert get_fixture("nc-1").generators().n == 1
        assert get_fixture("nc-4").generators().n == 4
        assert get_fixture("atilde-3").generators().n == 6
        assert get_fixture("atilde-10").generators().n == 13
        with pytest.raises(ContextError, match="nc-N needs N >= 1"):
            get_fixture("nc-0")
        with pytest.raises(ContextError, match="atilde-N needs N >= 1"):
            get_fixture("atilde-0")

    @pytest.mark.parametrize("name", ["nc-01", "atilde-007", "nc-00", "nc-\u0661"])
    def test_family_names_are_canonical(self, name):
        # one spelling, so one cached Fixture, per member: no leading
        # zero, ASCII digits only
        with pytest.raises(ContextError, match="unknown fixture"):
            get_fixture(name)

    def test_family_size_cap(self):
        # refused when the name resolves, before any matrix is built;
        # nc-N has N variables and atilde-N has N + 3
        cap = quiver.MAX_GENERATED_VARIABLES
        for name in ("nc-1000000", f"nc-{cap + 1}", f"atilde-{cap - 2}"):
            with pytest.raises(CapacityError, match="variables"):
                get_fixture(name)
        assert get_fixture(f"nc-{cap}").name == f"nc-{cap}"
        assert get_fixture(f"atilde-{cap - 3}").name == f"atilde-{cap - 3}"

    @pytest.mark.parametrize("n", range(1, 9))
    def test_nc_forms_equal_the_dense_build(self, n):
        mats = [_diag(*[int(i == k) for i in range(n)]) for k in range(n)]
        assert get_fixture(f"nc-{n}").generators() == GeneratorSet(mats)

    def test_generators_cached(self):
        fx = get_fixture("binary-cubic")
        assert fx.generators() is fx.generators()

    def test_family_memoised(self, monkeypatch):
        monkeypatch.setattr(fixtures, "_FAMILY", {})
        built = []
        atilde = quiver.atilde_quiver

        def counting(n):
            built.append(n)
            return atilde(n)

        monkeypatch.setattr(quiver, "atilde_quiver", counting)
        for name in ("atilde-3", "nc-5"):
            fx = get_fixture(name)
            assert get_fixture(name) is fx
            assert fx.generators() is get_fixture(name).generators()
        assert built == [3]


class TestMetadata:
    def test_reductive_flags(self):
        reductive = {"nc-1", "nc-3", "binary-cubic", "det22-squared",
                     "star-2111", "dtilde3-22111", "atilde-2"}
        nonreductive = {"quadric-cone-3", "quadric-cone-4",
                        "bilinear-cone-4", "cubic-chain-4"}
        for name in reductive:
            assert get_fixture(name).reductive, name
        for name in nonreductive:
            assert not get_fixture(name).reductive, name


class TestAlgebraSanity:
    def test_all_closed_and_prehomogeneous(self):
        for name in fixture_names():
            g = get_fixture(name).generators()
            assert validate_algebra(g) is None, name
            cls = classify(g)
            assert cls.kind != "not-prehomogeneous", name

    def test_expected_kinds(self):
        assert classify(get_fixture("star-2111").generators()).reduced
        assert not classify(get_fixture("det22-squared").generators()).reduced
        assert not classify(get_fixture("atilde-2").generators()).reduced


class TestChainData:
    def test_star_chain_shape(self):
        chain = star_chain()
        assert [p.label for p in chain] == [
            "open", "one-minor", "two-minors", "rank-one", "origin"]
        assert chain[0].y0 is None
        for p in chain:
            assert len(p.x0) == 6
        assert len(chain[1].y0) == 1
        assert len(chain[4].y0) == 6

    def test_edge_factors_product(self):
        prod = UniPoly.one()
        for factor in star_edge_factors():
            prod = prod * factor
        assert prod.monic() == parse_factored("(s+2/3)(s+1)^4(s+4/3)")


class TestCatalogue:
    def test_table_size(self):
        rows = table_spectra()
        assert len(rows) == 9
        labels = [label for label, _ in rows]
        assert "binary-cubic-discriminant" in labels

    def test_monic_and_degrees(self):
        for label, b in table_spectra():
            assert b.leading() == 1, label
        degs = sorted(b.degree() for _, b in table_spectra())
        assert degs == [1, 2, 3, 4, 4, 4, 5, 5, 9]

    def test_reduced_family(self):
        rows = dict(reduced_discriminant_bfunctions())
        assert rows["atilde-3-reduced"] == parse_factored("(s+1)^3(s+2)")
        assert rows["dtilde3-reduced"].degree() == 8
