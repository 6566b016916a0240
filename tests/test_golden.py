"""The default reports, byte for byte.

``data/default_report.json`` and ``data/default_report.txt`` hold the output
of ``g3bell --format json`` and ``g3bell`` at the default flags.  Any change
to a default report, down to the last digit of a maximum, fails here; a
deliberate change regenerates both files and says why.
"""

from pathlib import Path

import pytest

from g3bell.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, golden", [
    (["--format", "json"], "default_report.json"),
    ([], "default_report.txt"),
])
def test_default_report_matches_golden_bytes(argv, golden, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (DATA / golden).read_bytes()
