"""The package's public surface and its imports."""

import ast
import sys
from pathlib import Path

import prehomog


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
