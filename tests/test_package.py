"""The package's public surface, its imports, and the garbage it leaves."""

import ast
import gc
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import prehomog
from prehomog import polyring
from prehomog.bernstein import SPowerExpression, bfunction
from prehomog.cli import run
from prehomog.errors import ContextError
from prehomog.fixtures import get_fixture
from prehomog.geometry import OrderForm, conormal_order, point_context
from prehomog.liealg import (GeneratorSet, character, character_of_combination,
                             classify)
from prehomog.polyring import MultiPoly, Spectrum, UniPoly
from prehomog.quiver import DimensionVector, Quiver


def test_every_public_name_resolves():
    missing = [name for name in prehomog.__all__ if not hasattr(prehomog, name)]
    assert missing == []
    assert len(set(prehomog.__all__)) == len(prehomog.__all__)


def test_imports_only_the_standard_library():
    """The package is pure Python with no dependencies: every absolute
    import of a module in src/prehomog names a standard library module."""
    src = Path(prehomog.__file__).parent
    foreign = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


ROOT = Path(__file__).resolve().parents[1]


def _definitions(paths):
    """(file name, name) of every function, class and method, dunders aside."""
    return [(path.name, node.name) for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("__")]


def _named(paths):
    """Every name, attribute, imported name and identifier string (the
    benchmark's span names) in the files `paths`."""
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return named


def _methods(paths):
    """(file name, class name, name) of every method, dunders aside."""
    return [(path.name, cls.name, node.name) for path in paths
            for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")]


def _attributes(paths):
    """Every attribute and string constant in the files `paths`: the ways
    a caller outside a class names one of its methods."""
    return {node.attr if isinstance(node, ast.Attribute) else node.value
            for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) or (
                isinstance(node, ast.Constant) and isinstance(node.value, str))}


def _readme_code():
    """Every word of a code span or code block of README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return set(re.findall(r"\w+", " ".join(
        re.findall(r"```.*?```|`[^`\n]+`", text, re.S))))


def _assignments(paths):
    """(file name, name) of every module-level assignment to a name,
    dunders aside."""
    return [(path.name, t.id) for path in paths
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(t, ast.Name) and not t.id.startswith("__")]


def _read(paths):
    """Every name and attribute read (an ast.Load) in the files `paths`."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def test_no_unreferenced_definitions():
    """Every function, class and method of src/prehomog, dunders aside, is
    named somewhere in src, tests or benchmark, so a definition nothing uses
    does not linger."""
    src = sorted((ROOT / "src" / "prehomog").glob("*.py"))
    named = _named(src + sorted((ROOT / "tests").glob("*.py")) +
                   sorted((ROOT / "benchmark").glob("*.py")))
    defined = _definitions(src)
    assert len(defined) > 100
    assert [d for d in defined if d[1] not in named] == []


def test_no_test_only_definitions():
    """Every function, class and method of src/prehomog outside `fixtures`
    (test and bench data), dunders aside, is named by the product: in a src
    module other than the re-exports of __init__.py, in benchmark/*.py or
    in README.md.  A name only tests reach belongs in the tests.  A
    method counts as named only as an attribute or a string of those
    product files or in a README code span: a local variable of the same
    name does not reach it.  Each module-level assignment there is read
    (an ast.Load) by the same product files or named in README.md: a
    re-export alone is no use."""
    src = sorted((ROOT / "src" / "prehomog").glob("*.py"))
    product = [p for p in src if p.name != "__init__.py"] + \
        sorted((ROOT / "benchmark").glob("*.py"))
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    named = _named(product) | readme
    defined = _definitions(p for p in src if p.stem != "fixtures")
    assert len(defined) > 100
    assert [d for d in defined if d[1] not in named] == []
    reached = _attributes(product) | _readme_code()
    methods = _methods(p for p in src if p.stem != "fixtures")
    assert len(methods) > 25
    assert [m for m in methods if m[2] not in reached] == []
    read = _read(product) | readme
    assigned = _assignments(p for p in src if p.stem not in ("fixtures", "__init__"))
    assert len(assigned) > 9
    assert [a for a in assigned if a[1] not in read] == []


@pytest.mark.parametrize("call", [
    lambda: bfunction(get_fixture("dtilde3-22111").generators()),
    lambda: classify(get_fixture("star-2111").generators()),
    lambda: classify(get_fixture("det22-squared").generators()),
    lambda: run(["chain", "s+1", "(3s+2)(3s+3)(3s+4)", "((s+1)^2+1)"]),
    lambda: run(["chain", "s+1", "(3s+2"]),
], ids=["bfunction", "classify", "classify-witness", "chain", "chain-error"])
def test_no_reference_cycles(call):
    """The recursive closures (the walk's `descend`, the determinant's
    `minor`, the parser's `parse_sum` and `parse_product`) are freed on
    return, and the Saito blocks' matching recurses through the module
    function `liealg._augment`, which holds no reference to itself, so a
    call leaves nothing for the cyclic collector."""
    call()      # the caches of the first call: fixtures, argparse, re
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _conormal_order(y):
    g = get_fixture("nc-2").generators()
    c = character(g)
    return conormal_order(g, c, point_context(g, (1, 0)), (y,))


CALLER_NUMBERS = {
    "SPowerExpression": lambda x: SPowerExpression(("x",), 1, {(0,): (1, x)}),
    "MultiPoly": lambda x: MultiPoly(("x",), {(1,): x}),
    "GeneratorSet": lambda x: GeneratorSet([[[x]]]),
    "character_of_combination": lambda x: character_of_combination((1, 2), (x, 1)),
    "conormal_order": _conormal_order,
    "OrderForm": lambda x: OrderForm(x, x),
    "point_context": lambda x: point_context(get_fixture("nc-2").generators(),
                                             (x, 1)).x0,
    "GeneratorSet.combination":
        lambda x: get_fixture("nc-2").generators().combination((x, 1)),
    "GeneratorSet.images": lambda x: get_fixture("nc-2").generators().images((x, 1)),
}


@pytest.mark.parametrize("name", CALLER_NUMBERS)
def test_caller_numbers_are_exact(name):
    """A float would be stored inexactly (0.1 is 3602879701896397/2^55) and
    a bool is no number, so every entry point that takes a caller's number
    refuses both, and takes the same rational as a "p/q" string or a
    Fraction."""
    entry = CALLER_NUMBERS[name]
    for bad in (0.1, True):
        with pytest.raises(ContextError):
            entry(bad)
    assert entry("1/3") == entry(Fraction(1, 3))


def _nc2_context(x0):
    return point_context(get_fixture("nc-2").generators(), x0)


# each value record: a builder, called twice for two equal values, then
# builders that each change one field of its value
RECORDS = {
    "MultiPoly": (lambda: MultiPoly(("x", "y"), {(1, 0): 2, (0, 1): 1}),
                  lambda: MultiPoly(("x", "z"), {(1, 0): 2, (0, 1): 1}),
                  lambda: MultiPoly(("x", "y"), {(1, 0): 1, (0, 1): 2}),
                  lambda: MultiPoly(("x", "y"), {(1, 0): 4, (0, 1): 2})),
    "UniPoly": (lambda: UniPoly([1, 2]), lambda: UniPoly([2, 1]),
                lambda: UniPoly([2, 4])),
    "Spectrum": (lambda: Spectrum([(Fraction(-1), 2)], UniPoly.one()),
                 lambda: Spectrum([(Fraction(-1), 1)], UniPoly.one()),
                 lambda: Spectrum([(Fraction(-1), 2)], UniPoly([1, 0, 1]))),
    "SPowerExpression": (lambda: SPowerExpression(("x",), 1, {(1,): (1, 2)}),
                         lambda: SPowerExpression(("y",), 1, {(1,): (1, 2)}),
                         lambda: SPowerExpression(("x",), 2, {(1,): (1, 2)}),
                         lambda: SPowerExpression(("x",), 1, {(1,): (1,)})),
    "GeneratorSet": (lambda: GeneratorSet([[[1, 0], [0, 0]], [[0, 0], [0, 1]]]),
                     lambda: GeneratorSet([[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                                          ("a", "b")),
                     lambda: GeneratorSet([[[1, 0], [0, 0]], [[0, 0], [0, 2]]])),
    "PointContext": (lambda: _nc2_context((1, 1)), lambda: _nc2_context((1, 0)),
                     lambda: _nc2_context((2, 2))),
    "OrderForm": (lambda: OrderForm(1, "1/2"), lambda: OrderForm(2, "1/2"),
                  lambda: OrderForm(1, 1)),
    "Quiver": (lambda: Quiver(["a", "b"], [("a", "b")]),
               lambda: Quiver(["a", "c"], [("a", "c")]),
               lambda: Quiver(["a", "b"], [("b", "a")])),
    "DimensionVector": (lambda: DimensionVector({"a": 1}),
                        lambda: DimensionVector({"a": 2})),
}


@pytest.mark.parametrize("name", RECORDS)
def test_value_records(name):
    """A value record is frozen once built: assigning or deleting any
    slot, or any other name, raises an AttributeError naming its class.
    Equal inputs build == values, a changed field gives a != one, and a
    value of another type is never ==."""
    build, *changed = RECORDS[name]
    value = build()
    assert type(value).__name__ == name
    for attr in type(value).__slots__ + ("other",):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, attr, getattr(value, attr, None))
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(value, attr)
    str(value)
    assert value == build() and not value != build()
    for other in changed:
        assert value != other() and not value == other()
    assert value != name and not value == object()


def test_one_value_base():
    """The immutability guard and slot equality live once, in
    polyring._Value: no other class of src/prehomog defines __eq__,
    __setattr__ or __delattr__.  RECORDS covers every subclass."""
    guarded = {"__eq__", "__setattr__", "__delattr__"}
    defines = set()
    for path in sorted((ROOT / "src" / "prehomog").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        names = {node.name}
                    else:  # an assignment such as __eq__ = ...
                        names = {t.id for t in getattr(node, "targets", ())
                                 if isinstance(t, ast.Name)}
                    defines |= {(cls.name, name) for name in names & guarded}
    assert defines == {("_Value", name) for name in guarded}
    assert sorted(c.__name__ for c in polyring._Value.__subclasses__()) == \
        sorted(RECORDS)
