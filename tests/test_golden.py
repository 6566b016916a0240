"""The default reports, byte for byte.

``data/default_report.json`` and ``data/default_report.txt`` hold the output
of ``g3bell --format json`` and ``g3bell`` at the default flags.
``data/offgrid_report.json`` holds a JSON report on a 0.03-step grid, which
misses p = 1/2, with two extra pairs: its isotropic records come from an
evaluation off the sweep grid.  ``data/generic_pairs_report.json`` holds a
JSON report on a 0.1-step grid with two pairs of generic unit vectors, whose
coefficients have 16- and 17-digit reprs: it pins the rounding of such
numbers to 15 significant digits.  Any change to these reports, down to the
last digit of a maximum, fails here; a deliberate change regenerates the
files and says why.
"""

from pathlib import Path

import pytest

from g3bell.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, golden", [
    (["--format", "json"], "default_report.json"),
    ([], "default_report.txt"),
    (["--format", "json", "--p-step", "0.03", "--trials", "200",
      "--pair", "0,0,1:0.6,0.8,0", "--pair", "0.6,0,0.8:0,0.6,0.8"], "offgrid_report.json"),
    (["--format", "json", "--p-step", "0.1", "--trials", "50",
      "--pair", "0.5387420514859359,-0.6787843704983392,0.4990077958588409"
                ":-0.841929443328549,-0.5395300132043183,-0.007885258919495666",
      "--pair", "0.5130004462210656,0.4556010994273583,0.7275013267187697"
                ":0.13962595519492985,-0.8801133360079384,-0.45376768110662224"],
     "generic_pairs_report.json"),
])
def test_default_report_matches_golden_bytes(argv, golden, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (DATA / golden).read_bytes()
