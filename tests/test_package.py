"""The package's public surface and its imports."""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import prehomog
from prehomog.bernstein import (FirstOrderOperator, SPowerExpression,
                                fourier_check, q_dual_operator, q_operator,
                                substitute_s)
from prehomog.errors import ContextError
from prehomog.fixtures import get_fixture
from prehomog.geometry import OrderForm, conormal_order, point_context
from prehomog.liealg import (CharacterData, character,
                             character_of_combination, discriminant)
from prehomog.linalg import mat_scale


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


def _conormal_order(y):
    g = get_fixture("nc-2").generators()
    c = character(g, discriminant(g))
    return conormal_order(g, c, point_context(g, (1, 0)), (y,))


CALLER_NUMBERS = {
    "FirstOrderOperator": lambda x: FirstOrderOperator([[1]], x, x),
    "q_operator": lambda x: q_operator([[1]], x),
    "q_dual_operator": lambda x: q_dual_operator([[1]], x),
    "substitute_s": lambda x: substitute_s(FirstOrderOperator([[1]], 1, 1), x, x),
    "fourier_check": lambda x: fourier_check([[1]], x),
    "SPowerExpression": lambda x: SPowerExpression(("x",), 1, {(0,): (1, x)}),
    "character_of_combination": lambda x: character_of_combination(
        CharacterData([1, 2], [1, 1]), (x, 1)),
    "mat_scale": lambda x: mat_scale([[1, 2]], x),
    "conormal_order": _conormal_order,
    "OrderForm": lambda x: OrderForm(x, x),
}


@pytest.mark.parametrize("name", CALLER_NUMBERS)
def test_caller_numbers_are_exact(name):
    """A float would be stored inexactly (0.1 is 3602879701896397/2^55), so
    every entry point that takes a caller's number refuses it, and takes
    the same rational as a "p/q" string or a Fraction."""
    entry = CALLER_NUMBERS[name]
    with pytest.raises(ContextError):
        entry(0.1)
    assert entry("1/3") == entry(Fraction(1, 3))
