"""The README's library example prints what its comments say, and its
Library section names only entries that exist."""

import builtins
import contextlib
import io
import math
import re
from pathlib import Path

import g3bell
import g3bell.cli  # the package does not import it

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    return README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_prints_its_comments():
    code = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    # Each print carries one comment; its text up to the first ": " is the
    # printed line, and the rest explains it.
    expected = [m.group(1).split(": ", 1)[0] for m in re.finditer(r"# (.*)", code)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert expected
    assert out.getvalue().splitlines() == expected


# Where a bare name may be found: the package, each of its modules, builtins, math.
_SCOPES = ({"g3bell": g3bell}, *(vars(m) for m in (
    g3bell, g3bell.ga, g3bell.model, g3bell.measure, g3bell.bell, g3bell.audit, g3bell.cli,
    builtins, math)))


def _resolves(dotted: str) -> bool:
    head, *rest = dotted.split(".")
    for scope in _SCOPES:
        obj = scope.get(head)
        for name in rest:
            obj = getattr(obj, name, None)
        if obj is not None:
            return True
    return False


def test_library_section_names_only_existing_entries():
    section = _library_section()
    names = set(re.findall(r"`([A-Za-z_][\w.]*)\(", section))
    names |= set(re.findall(r"`(g3bell(?:\.\w+)+)`", section))
    assert {"sweeps", "g3bell.cli", "Multivector.grade_norm"} <= names
    assert [name for name in sorted(names) if not _resolves(name)] == []
