"""The README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert str(scope["res"].spectrum) == "-4/3, -1 (x4), -2/3"
