"""The default reports, byte for byte.

``data/default_report.json`` and ``data/default_report.txt`` hold the output
of ``g3bell --format json`` and ``g3bell`` at the default flags.
``data/offgrid_report.json`` holds a JSON report on a 0.03-step grid, which
misses p = 1/2, with two extra pairs: its isotropic records come from an
evaluation off the sweep grid.  ``data/generic_pairs_report.json`` holds a
JSON report on a 0.1-step grid with two pairs of generic unit vectors, whose
coefficients have 16- and 17-digit reprs: it pins the rounding of such
numbers to 15 significant digits.  Two reports pin the verdict paths that
exit 1: ``data/degenerate_report.json`` (a tolerance of 10, every verdict
informational) and ``data/informational_report.json`` (all four CHSH angles
0, the projection claim informational).  ``data/tiny_tolerance_report.txt``
(a tolerance of 1e-300, far below the rounding error of the checks that
compare a float with its closed form) pins the 4-ulp floor under those
checks: all ten claims stay confirmed.
Any change to these reports, down to the last digit of a maximum, fails
here; a deliberate change regenerates the files and says why.
"""

import json
from pathlib import Path

import pytest

from g3bell.audit import AuditReport, emit
from g3bell.cli import main

DATA = Path(__file__).parent / "data"


# (argv, golden file, exit code)
CASES = [
    (["--format", "json"], "default_report.json", 0),
    ([], "default_report.txt", 0),
    (["--format", "json", "--p-step", "0.03", "--trials", "200",
      "--pair", "0,0,1:0.6,0.8,0", "--pair", "0.6,0,0.8:0,0.6,0.8"], "offgrid_report.json", 0),
    (["--format", "json", "--p-step", "0.1", "--trials", "50",
      "--pair", "0.5387420514859359,-0.6787843704983392,0.4990077958588409"
                ":-0.841929443328549,-0.5395300132043183,-0.007885258919495666",
      "--pair", "0.5130004462210656,0.4556010994273583,0.7275013267187697"
                ":0.13962595519492985,-0.8801133360079384,-0.45376768110662224"],
     "generic_pairs_report.json", 0),
    (["--format", "json", "--tol", "10", "--p-step", "0.25", "--trials", "50"],
     "degenerate_report.json", 1),
    (["--format", "json", "--angles=0,0,0,0", "--p-step", "0.25", "--trials", "50"],
     "informational_report.json", 1),
    (["--tol", "1e-300", "--p-step", "0.25", "--trials", "50",
      "--pair", "0.6,0,0.8:0,0.6,0.8"], "tiny_tolerance_report.txt", 0),
]


# Each case is named after its golden file: argv<index>-<file>.
@pytest.mark.parametrize("argv, golden, exit_code", CASES,
                         ids=[f"argv{i}-{golden}" for i, (_, golden, _) in enumerate(CASES)])
def test_default_report_matches_golden_bytes(argv, golden, exit_code, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == exit_code
    assert out.encode() == (DATA / golden).read_bytes()



def test_text_golden_renders_from_the_json_golden():
    # The two default goldens differ only in --format; the text writer reads
    # nothing but the report document.
    doc = json.loads((DATA / "default_report.json").read_bytes())
    assert emit(AuditReport(doc), "text").encode() == (DATA / "default_report.txt").read_bytes()
