"""The README's library example prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # Each print carries one comment; its text up to the first ": " is the
    # printed line, and the rest explains it.
    expected = [m.group(1).split(": ", 1)[0] for m in re.finditer(r"# (.*)", code)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert expected
    assert out.getvalue().splitlines() == expected
