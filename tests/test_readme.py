"""The README's library quickstart runs and gives the values its comments state."""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    """The python block under the README's "Library quickstart" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _stated(comment: str) -> object:
    """The value a comment states, a Python literal or a fraction such as ``1/6``; None for prose."""
    try:
        return ast.literal_eval(comment)
    except (ValueError, SyntaxError):
        pass
    try:
        return Fraction(comment)
    except ValueError:
        return None


def test_quickstart_gives_the_values_its_comments_state():
    source = _quickstart()
    namespace: dict[str, object] = {}
    exec(compile(source, str(README), "exec"), namespace)
    checked = []
    for line in source.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        want = _stated(comment)
        if not code or want is None:
            continue
        got = eval(code, namespace)
        if isinstance(want, Fraction):
            assert abs(got - want) < 1e-12, code
        else:
            assert got == want, code
        checked.append(comment)
    assert checked == ["[{1, 2, 3, 4}]", "1/6", "3"]
