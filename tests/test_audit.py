import ast
import contextlib
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import g3bell
from g3bell import audit
from g3bell.ga import GradeSupport, Multivector, Vector3, ZERO, cross, dot
from g3bell.model import PRODUCT_FORMS
from g3bell.audit import (
    AuditConfig,
    CLAIM_MAP,
    CONFIRMED,
    Claim,
    DEFAULT_PAIRS,
    INFORMATIONAL,
    MAX_GRID_POINTS,
    MAX_TRIALS,
    REFUTED,
    TOOL_VERSION,
    emit,
    format_value,
    _json_document,
    pair_key,
    run_audit,
)
from g3bell.measure import p_grid_size
from g3bell.cli import angles_argument, build_parser, config_from_args, main, pair_argument

from _oracle import reference_emit_json

FAST = dict(trials=60, seed=42)

ORTHO_KEY = pair_key(*DEFAULT_PAIRS[0])
PARALLEL_KEY = pair_key(*DEFAULT_PAIRS[1])
GENERIC_KEY = pair_key(*DEFAULT_PAIRS[2])


@pytest.fixture(scope="module")
def default_report():
    return run_audit(AuditConfig(**FAST))


# --- config validation ---------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"tolerance": 0.0},
    {"tolerance": -1e-9},
    {"p_step": 0.0},
    {"p_step": 1.5},
    {"trials": 0},
    {"output_format": "yaml"},
    {"angles_deg": (0.0, 90.0)},
    {"trials": 2.5},
    {"trials": True},
    {"tolerance": True},
    {"seed": None},
    {"seed": 1.5},
    {"seed": "abc"},
    {"p_step": True},
    {"p_step": "0.1"},
    {"p_step": None},
    {"angles_deg": (True, 90.0, 45.0, 135.0)},
    {"angles_deg": ("a", 0.0, 0.0, 0.0)},
    {"extra_pairs": ((Vector3(2, 0, 0), Vector3(0, 1, 0)),)},
    {"extra_pairs": ((1, 2),)},
    {"extra_pairs": ((Vector3("a", 0, 0), Vector3(0, 1, 0)),)},
    {"extra_pairs": ((Vector3(True, 0, 0), Vector3(0, 1, 0)),)},
    {"angles_deg": 5},
    {"extra_pairs": None},
    {"extra_pairs": 5},
])
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        AuditConfig(**kwargs)


# Steps and trial counts past the caps; none of them is ever built or run.
@pytest.mark.parametrize("kwargs", [
    {"p_step": 1e-9},
    {"p_step": 5e-324},
    {"p_step": 1.0 / (MAX_GRID_POINTS - 1) * 0.999},
    {"trials": MAX_TRIALS + 1},
    {"trials": 10**12},
])
def test_config_rejects_unbounded_work(kwargs):
    with pytest.raises(ValueError):
        AuditConfig(**kwargs)


def test_caps_admit_the_largest_configs():
    assert p_grid_size(1.0 / (MAX_GRID_POINTS - 1)) == MAX_GRID_POINTS
    AuditConfig(p_step=1.0 / (MAX_GRID_POINTS - 1), trials=MAX_TRIALS)
    assert p_grid_size(0.002) <= MAX_GRID_POINTS and 10000 <= MAX_TRIALS


@pytest.mark.parametrize("argv", [
    ["--p-step", "1e-9"],
    ["--trials", str(MAX_TRIALS + 1)],
])
def test_cli_rejects_unbounded_work(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "g3bell: error:" in captured.err


def test_version_kept_in_one_place():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    assert g3bell.__version__ is TOOL_VERSION
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == TOOL_VERSION


def test_cli_defaults_are_the_config_defaults():
    assert config_from_args(build_parser().parse_args([])) == AuditConfig()


def test_runtime_imports_only_the_stdlib():
    src = Path(g3bell.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_no_module_imports_a_name_it_never_uses():
    # The package's __init__ imports are its public exports.
    src = Path(g3bell.__file__).parent
    paths = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    unused = []
    for path in paths:
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((path.name, alias.lineno, name))
    assert unused == []


# --- report content ---------------------------------------------------------------

def test_default_pairs_audited(default_report):
    assert default_report.document["config"]["pairs"] == [ORTHO_KEY, PARALLEL_KEY, GENERIC_KEY]


def test_orthogonal_directed_support_is_vector_grade(default_report):
    support = default_report.document["grade_support"][ORTHO_KEY]["identity"]["directed_trivector"]
    assert support["present"] == [1]


def test_generic_supports(default_report):
    entry = default_report.document["grade_support"][GENERIC_KEY]["identity"]
    assert entry["scalar_weights"]["present"] == [0, 2]
    assert entry["directed_trivector"]["present"] == [1, 3]


def test_normalization_flags(default_report):
    n = default_report.document["normalization"]
    assert n["directed_valid_probability_measure"] is False
    assert n["scalar_valid_probability_measure"] is True
    assert n["directed_total"]["e123"] == 1.0
    assert n["directed_total_is_unit_trivector"] is True


def test_functional_range_never_attains_scalar(default_report):
    for key in default_report.document["config"]["pairs"]:
        entry = default_report.document["functional_range"][key]
        assert entry["identity"]["nonzero_scalar_attained"] is False
        assert entry["raw"]["max_abs_scalar_component"] == 0.0


def test_all_claims_confirmed(default_report):
    assert default_report.all_confirmed()
    assert [c["id"] for c in default_report.document["claims"]] == [c.id for c in CLAIM_MAP]


def test_chsh_section(default_report):
    c = default_report.document["chsh"]
    assert c["lhv_bruteforce_bound"] == 2.0
    assert abs(c["quantum_target_s"] + 2.0 * math.sqrt(2.0)) <= 1e-12
    assert c["quantum_target_exceeds_lhv_bound"] is True
    assert set(c["scalarizer_maxima"]) == {"grade0_projection", "orientation_sign",
                                           "component_sign"}


def test_isotropic_zero_annotated(default_report):
    iso = default_report.document["grade_support"][ORTHO_KEY]["isotropic"]["identity"]
    assert iso["scalar_weights"]["rendered"] == "0 [as grade-2]"
    assert iso["directed_trivector"]["rendered"] == "0 [as grade-1]"


def test_endpoint_grid_gives_same_supports(default_report):
    coarse = run_audit(AuditConfig(p_step=1.0, **FAST))
    for key in default_report.document["config"]["pairs"]:
        for form in ("identity", "raw"):
            for kind in ("scalar_weights", "directed_trivector"):
                assert (coarse.document["grade_support"][key][form][kind]["present"]
                        == default_report.document["grade_support"][key][form][kind]["present"])


def test_degenerate_tolerance_goes_informational():
    report = run_audit(AuditConfig(tolerance=10.0, **FAST))
    assert report.document["degenerate_tolerance"]
    for key in report.document["config"]["pairs"]:
        for form in ("identity", "raw"):
            for kind in ("scalar_weights", "directed_trivector"):
                assert report.document["grade_support"][key][form][kind]["present"] == []
    assert all(c["verdict"] == INFORMATIONAL for c in report.document["claims"])
    assert not report.all_confirmed()


def test_extra_pair_appended_and_deduplicated():
    extra = (Vector3(0, 0, 1), Vector3(0, 1, 0))
    config = AuditConfig(extra_pairs=(extra, DEFAULT_PAIRS[0]), **FAST)
    report = run_audit(config)
    assert report.document["config"]["pairs"] == [ORTHO_KEY, PARALLEL_KEY, GENERIC_KEY,
                                                  pair_key(*extra)]
    assert report.all_confirmed()


# Each pair is unit within the tolerance; its components differ from the
# labelled pair's by about 1e-10, below the label's 9 significant digits.
@pytest.mark.parametrize("pairs, label", [
    (((Vector3(0.6, 0.8, 0.0), Vector3(0.0, 0.0, 1.0)),
      (Vector3(0.6000000004, 0.7999999997, 0.0), Vector3(0.0, 0.0, 1.0))), "0.6,0.8,0:0,0,1"),
    (((Vector3(1.0, 0.0, 0.0), Vector3(0.7071067812, 0.7071067812, 0.0)),), GENERIC_KEY),
])
def test_config_rejects_two_pairs_with_one_label(pairs, label):
    with pytest.raises(ValueError, match=label):
        AuditConfig(extra_pairs=pairs)


def test_cli_rejects_two_pairs_with_one_label(capsys):
    argv = ["--pair", "0.6,0.8,0:0,0,1", "--pair", "0.6000000004,0.7999999997,0:0,0,1",
            "--format", "json"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0.6,0.8,0:0,0,1" in captured.err


@pytest.mark.parametrize("argv, expected", [
    (["--pair=-0,0,1:1,0,0", "--pair", "0,0,1:1,0,0"], ("0,0,1:1,0,0",)),
    (["--pair", "1,-0,0:0,1,0"], ()),
])
def test_cli_audits_each_pair_once(argv, expected):
    code, out = _run_cli(argv + ["--trials", "20", "--p-step", "0.5", "--format", "json"])
    assert code == 0
    pairs = tuple(json.loads(out)["config"]["pairs"])
    assert pairs == (ORTHO_KEY, PARALLEL_KEY, GENERIC_KEY) + expected


def test_non_default_angles_without_violation_is_informational():
    report = run_audit(AuditConfig(angles_deg=(0.0, 0.0, 0.0, 0.0), **FAST))
    claim = {c["id"]: c for c in report.document["claims"]}["projection_reproduces_violation"]
    assert claim["verdict"] == INFORMATIONAL
    assert not report.all_confirmed()


def test_grade_norm_calls_do_not_grow_with_the_grid(monkeypatch):
    # The sweeps carry their per-point grade norms; no reader recomputes them.
    calls = []
    original = Multivector.grade_norm

    def counted(self, k):
        calls.append(k)
        return original(self, k)

    monkeypatch.setattr(Multivector, "grade_norm", counted)
    pairs = (pair_argument("0.6,0,0.8:0,0.6,0.8"), pair_argument("0,0,1:0.6,0.8,0"))
    counts = []
    for p_step in (0.1, 0.01):
        calls.clear()
        run_audit(AuditConfig(p_step=p_step, extra_pairs=pairs, trials=50))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_negated_identity_product_refutes_the_split(monkeypatch, capsys):
    # Flipping the whole product flips -a.b, which the split claim compares;
    # a sign flip of the bivector part alone keeps every magnitude.
    identity = PRODUCT_FORMS["identity"]
    monkeypatch.setitem(PRODUCT_FORMS, "identity", lambda a, b, hv: -identity(a, b, hv))
    report = run_audit(AuditConfig(p_step=0.25, **FAST))
    split = {c["id"]: c for c in report.document["claims"]}["observable_product_splits"]
    assert split["verdict"] == REFUTED
    assert main(["--trials", "60", "--p-step", "0.25"]) == 1
    assert f"{split['statement']}: refuted\n" in capsys.readouterr().out


def test_claim_table_drives_every_claim_reader(monkeypatch, capsys):
    extra = Claim("extra_claim", "an extra claim that never holds", "the evaluator says no",
                  lambda report, pairs: (False, {"pairs_seen": len(pairs)}))
    monkeypatch.setattr(audit, "CLAIM_MAP", CLAIM_MAP + (extra,))
    argv = ["--trials", "20", "--p-step", "0.5"]
    assert main(argv + ["--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["claim_map"][-1] == {"id": "extra_claim", "statement": extra.statement,
                                    "check": extra.check}
    assert doc["claims"][-1] == {"id": "extra_claim", "statement": extra.statement,
                                 "check": extra.check, "verdict": REFUTED,
                                 "observed": {"pairs_seen": 3}}
    assert [c["verdict"] for c in doc["claims"][:-1]] == [CONFIRMED] * len(CLAIM_MAP)
    assert main(argv) == 1
    text = capsys.readouterr().out
    assert ("  extra_claim:\n    an extra claim that never holds\n"
            "    check: the evaluator says no\n") in text
    assert "\nan extra claim that never holds: refuted\n" in text


_unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1).map(
    lambda v: Vector3(*(c / math.hypot(*v) for c in v)))
# Log-uniform over every positive decade a double spans, up to the unit.
_tolerances = st.floats(-300.0, 0.0, exclude_max=True).map(lambda e: 10.0 ** e)
_p_steps = st.sampled_from([0.1, 0.25, 0.5, 1.0])
# |a.b| = 0.48: orthogonal within a tolerance of 0.49, whose isotropic terms,
# |a x b|/2 = 0.44, fall below it.
_HALF_RESOLVED = (Vector3(1.0, 0.0, 0.0), Vector3(0.48, math.sqrt(1.0 - 0.48 ** 2), 0.0))


@settings(max_examples=40, deadline=None)
@given(st.tuples(_unit_vectors, _unit_vectors), _p_steps, _tolerances, _tolerances,
       st.integers(1, 10))
@example((Vector3(0.6, 0.0, 0.8), Vector3(0.0, 0.6, 0.8)), 0.25, 1e-300, 1e-12, 10)
@example(_HALF_RESOLVED, 0.1, 0.3, 0.49, 10)
def test_confirmed_verdicts_stay_confirmed_at_larger_tolerances(pair, p_step, t1, t2, trials):
    low, high = sorted((t1, t2))
    before, after = (run_audit(AuditConfig(tolerance=t, p_step=p_step, trials=trials,
                                           extra_pairs=(pair,))) for t in (low, high))
    if after.document["degenerate_tolerance"]:
        return
    for old, new in zip(before.document["claims"], after.document["claims"]):
        if old["verdict"] == CONFIRMED:
            assert new["verdict"] == CONFIRMED, (old["id"], low, high)


@settings(max_examples=30, deadline=None)
@given(_p_steps, _tolerances)
@example(0.25, 1e-300)
@example(0.25, 1e-17)
@example(0.25, 4e-16)
@example(0.05, 1e-15)
@example(1.0, 0.49)
@example(0.1, 0.75)
@example(0.25, math.nextafter(0.5, 0))  # |a x b| = 1 of (e1, e2) is one ulp above 2*tol
def test_default_pairs_confirm_every_claim_below_a_degenerate_tolerance(p_step, tol):
    report = run_audit(AuditConfig(tolerance=tol, p_step=p_step, trials=10))
    expected = INFORMATIONAL if report.document["degenerate_tolerance"] else CONFIRMED
    assert [c["verdict"] for c in report.document["claims"]] == [expected] * len(CLAIM_MAP), tol


# A tolerance one ulp below |a x b|, and one whose double meets |a x b|: the
# closed-form magnitude and the grade norm of the product round apart.
@pytest.mark.parametrize("argv", [
    ["--tol", "0.4101510815825138", "--p-step", "0.25", "--trials", "5", "--pair",
     "0.83818580697262,0.4725867084100706,-0.272224826244398"
     ":-0.9392627860498142,-0.07047280757587214,0.3358854002994402"],
    ["--tol", "0.4808641682080958", "--p-step", "0.25", "--trials", "5", "--pair",
     "0.7435026563468654,-0.6657342458178159,0.06325910172092847"
     ":0.4328430657640179,0.8740066763480466,-0.22081487748575032"],
], ids=["tol_at_cross_norm", "twice_tol_at_cross_norm"])
def test_tolerance_at_a_closed_form_magnitude_confirms_every_claim(argv, capsys):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.endswith(": confirmed")] == \
        [f"{c.statement}: confirmed" for c in CLAIM_MAP]


def _ulps_away(x: float, n: int) -> float:
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else 0.0)
    return x


@settings(max_examples=40, deadline=None)
@given(st.tuples(_unit_vectors, _unit_vectors), st.sampled_from(["dot", "cross", "half_cross"]),
       st.integers(-3, 3), st.integers(1, 10))
def test_no_claim_refuted_within_ulps_of_a_closed_form_magnitude(pair, magnitude, n, trials):
    a, b = pair
    at = {"dot": abs(dot(a, b)), "cross": cross(a, b).norm(), "half_cross": cross(a, b).norm() / 2}
    tol = _ulps_away(at[magnitude], n)
    assume(0.0 < tol < 0.5)
    report = run_audit(AuditConfig(tolerance=tol, p_step=0.25, trials=trials, extra_pairs=(pair,)))
    refuted = [c["id"] for c in report.document["claims"] if c["verdict"] == REFUTED]
    assert refuted == [], (tol, magnitude, n)


# --- rendering -----------------------------------------------------------------------

def test_format_value_annotates_tagged_zero():
    support = GradeSupport(frozenset({2}), (0.0, 0.0, 1.0, 0.0))
    assert format_value(ZERO, support, 1e-12) == "0 [as grade-2]"
    both = GradeSupport(frozenset({1, 2}), (0.0, 1.0, 1.0, 0.0))
    assert format_value(ZERO, both, 1e-12) == "0 [as grades 1, 2]"
    assert format_value(Multivector.scalar(2.0), support, 1e-12) == "2"
    assert format_value(ZERO, GradeSupport.empty(), 1e-12) == "0"


def test_text_report_lines(default_report):
    text = emit(default_report, "text")
    assert "directed measure normalizes to trivector: confirmed" in text
    assert "claim map" in text
    assert "0 [as grade-2]" in text
    assert "0 [as grade-1]" in text
    for c in CLAIM_MAP:
        assert f"{c.statement}: confirmed" in text


def test_json_report_structure(default_report):
    doc = json.loads(emit(default_report, "json"))
    assert doc["tool"]["name"] == "g3bell"
    assert doc["normalization"]["directed_total"]["e123"] == 1.0
    assert doc["normalization"]["directed_valid_probability_measure"] is False
    assert {c["id"] for c in doc["claim_map"]} == {c.id for c in CLAIM_MAP}
    assert doc["config"]["pairs"] == default_report.document["config"]["pairs"]
    probe = doc["functional_range"][ORTHO_KEY]["identity"]["probe"]
    assert len(probe) == 21


def test_json_numbers_rounded_to_15_significant_digits(default_report):
    doc = json.loads(emit(default_report, "json"))
    s = doc["chsh"]["quantum_target_s"]
    assert s == float(f"{default_report.document['chsh']['quantum_target_s']:.15g}")


def test_emit_deterministic(default_report):
    again = run_audit(AuditConfig(**FAST))
    assert emit(default_report, "json") == emit(again, "json")


def test_emit_rejects_unknown_format(default_report):
    with pytest.raises(ValueError):
        emit(default_report, "xml")


# --- CLI ----------------------------------------------------------------------------------

def test_cli_default_run_exits_zero(capsys):
    code = main(["--trials", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdicts" in out


def test_cli_json_mode(capsys):
    code = main(["--trials", "60", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["config"]["trials"] == 60


def test_cli_degenerate_tolerance_exits_one(capsys):
    code = main(["--trials", "60", "--tol", "10"])
    assert code == 1


def test_cli_rejects_bad_tolerance(capsys):
    code = main(["--trials", "60", "--tol", "-1"])
    assert code == 2
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--p-step", "0"],
    ["--trials", "0"],
])
def test_cli_rejects_bad_config(argv, capsys):
    assert main(argv) == 2


@pytest.mark.parametrize("bad", [
    "1,0,0",            # missing second vector
    "1,0:0,1,0",        # short vector
    "1,0,x:0,1,0",      # non-numeric
    "2,0,0:0,1,0",      # far from unit
])
def test_pair_argument_rejects_malformed(bad):
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        pair_argument(bad)


def test_pair_argument_normalizes_near_unit():
    a, b = pair_argument("1.0000001,0,0:0,1,0")
    assert abs(a.norm() - 1.0) <= 1e-12
    assert b == Vector3(0.0, 1.0, 0.0)


def test_cli_bad_pair_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--pair", "2,0,0:0,1,0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("pair", ["nan,0,0:0,1,0", "1,0,0:0,nan,1", "inf,0,0:0,1,0"])
def test_cli_non_finite_pair_exits_two(pair, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--pair", pair, "--format", "json"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_json_emit_refuses_nan(default_report):
    doc = default_report.document
    bad = dataclasses.replace(default_report, document={
        **doc, "chsh": {**doc["chsh"], "quantum_target_s": float("nan")}})
    with pytest.raises(ValueError):
        emit(bad, "json")


# --- the JSON emitter against the stdlib encoder --------------------------------------------

EDGE_FLOATS = [0.0, 5e-324, 2.225e-308, 1e-5, 1e-4, 9.99999999999999e14, 1e15, 1e16,
               9.999999999999999e15, 1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
json_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS + [-x for x in EDGE_FLOATS]),
    st.floats(allow_nan=False, allow_infinity=False),
)
json_strings = st.text(alphabet=st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
                                          st.characters()), max_size=8)
json_leaves = st.one_of(json_floats, st.integers(), st.booleans(), st.none(), json_strings)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_strings, children, max_size=4),
    ),
    max_leaves=40,
)


def _emitted(emitter, tree):
    """The document, or the exception type the emitter raised."""
    try:
        return emitter(tree)
    except (ValueError, TypeError) as exc:
        return type(exc)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


@given(json_trees)
def test_json_document_matches_stdlib_encoder(tree):
    expected = _emitted(reference_emit_json, tree)
    got = _emitted(_json_document, tree)
    if expected is ValueError:
        # The trees hold no NaN or inf, so the stdlib path failed on a float
        # that rounds past the largest one; the emitter writes it unrounded.
        assert isinstance(got, str)
        json.loads(got, parse_constant=_reject_constant)
    else:
        assert got == expected


@pytest.mark.parametrize("x, text", [
    (1.7976931348623157e308, "1.7976931348623157e+308"),
    (-1.7976931348623151e308, "-1.7976931348623151e+308"),
    (1.797693134862315e308, "1.79769313486231e+308"),
])
def test_json_document_keeps_top_of_range_finite(x, text):
    assert _json_document([x]) == f"[\n  {text}\n]\n"


def test_cli_json_with_top_of_range_tolerance(capsys):
    code = main(["--trials", "5", "--tol", "1.7976931348623151e+308", "--format", "json"])
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 1  # a tolerance above unit magnitude: every verdict informational
    assert doc["config"]["tolerance"] == 1.7976931348623151e308


@pytest.mark.parametrize("tree", [
    math.nan, math.inf, -math.inf,
    [0.0, math.nan], (1, [2.0, {"x": -math.inf}]), {"a": {"b": [{"c": math.inf}]}},
])
def test_json_document_refuses_non_finite(tree):
    with pytest.raises(ValueError):
        reference_emit_json(tree)
    with pytest.raises(ValueError):
        _json_document(tree)


@pytest.mark.parametrize("tree", [
    object(), {1, 2}, b"bytes", 1j, [0.0, {"a": object()}], {"a": (1, frozenset())},
])
def test_json_document_refuses_unsupported_types(tree):
    with pytest.raises(TypeError):
        reference_emit_json(tree)
    with pytest.raises(TypeError):
        _json_document(tree)


def test_json_document_refuses_non_string_keys():
    # Report keys are always strings; json.dumps would coerce this one to "1".
    with pytest.raises(TypeError):
        _json_document({1: 0.0})


def test_angles_argument_accepts_comma_and_slash():
    assert angles_argument("0,90,45,135") == (0.0, 90.0, 45.0, 135.0)
    assert angles_argument("0/90/45/135") == (0.0, 90.0, 45.0, 135.0)
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        angles_argument("0,90,45")


def test_cli_io_failure_exits_three(monkeypatch, capsys):
    import sys

    def broken_write(_):
        raise OSError("pipe closed")

    monkeypatch.setattr(sys.stdout, "write", broken_write)
    code = main(["--trials", "60"])
    assert code == 3


# --- the CLI on arbitrary flag values ------------------------------------------------------

def _unit_vector_text():
    return _unit_vectors.map(lambda v: ",".join(map(repr, v.components())))


_ODD_NUMBERS = ["nan", "inf", "-inf", "1e400", "", "x", "1,2", "0x10"]

# Valid values keep the work small: at most 50 trials and a p-step of at least 0.05.
_valid_flags = st.one_of(
    st.tuples(st.just("--tol"), st.floats(min_value=5e-324, allow_infinity=False).map(repr)),
    st.tuples(st.just("--p-step"), st.floats(0.05, 1.0).map(repr)),
    st.tuples(st.just("--seed"), st.integers(-2**70, 2**70).map(str)),
    st.tuples(st.just("--angles"), st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                            min_size=4, max_size=4).map(lambda xs: ",".join(map(repr, xs)))),
    st.tuples(st.just("--pair"), st.tuples(_unit_vector_text(), _unit_vector_text()).map(":".join)),
    st.just(("--pair", "1.0000001,0,0:0,1,0")),
)
# Every odd value is refused before any work: malformed, non-finite or out of range.
_odd_flags = st.one_of(
    st.tuples(st.just("--tol"), st.sampled_from(_ODD_NUMBERS + ["0", "-1", "-0.0"])),
    st.tuples(st.just("--p-step"), st.sampled_from(_ODD_NUMBERS + ["0", "-0.1", "1.5", "1e-9", "5e-324"])),
    st.tuples(st.just("--trials"), st.sampled_from(_ODD_NUMBERS + ["0", "-3", "1.5", "1000001", "10" * 10])),
    st.tuples(st.just("--seed"), st.sampled_from(_ODD_NUMBERS + ["1.0"])),
    st.tuples(st.just("--angles"), st.sampled_from(["0,90,45", "0,90,45,135,180", "nan,0,0,0",
                                                    "0,inf,0,0", "0;90;45;135", ""])),
    st.tuples(st.just("--pair"), st.sampled_from(["1,0,0", "1,0,0:0,1", "2,0,0:0,1,0", "nan,0,0:0,1,0",
                                                  "1e400,0,0:0,1,0", "0,0,0:0,0,0", "a,b,c:d,e,f",
                                                  "1,0,0:0,1,0:0,0,1"])),
)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=30, deadline=None)
@given(st.lists(_valid_flags, min_size=1, max_size=3))
@example([("--pair", "-1,0,0:0,1,0")])
@example([("--pai", "-1,0,0:0,1,0")])  # a prefix that argparse expands
@example([("--angles", "-45,0,45,90"), ("--pair", "0,-1,0:-0.6,0,-0.8")])
def test_cli_space_and_equals_forms_give_identical_output(valid):
    base = ["--trials", "20", "--p-step", "0.25", "--format", "json"]
    spaced = base + [part for flag in valid for part in flag]
    joined = base + [f"{name}={value}" for name, value in valid]
    code, out = _run_cli(spaced)
    assert code in (0, 1)
    assert (code, out) == _run_cli(joined)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 50), st.lists(_valid_flags, max_size=4), st.lists(_odd_flags, max_size=1),
       st.booleans())
def test_cli_exit_code_and_json_on_arbitrary_flags(trials, valid, odd, as_json):
    argv = [f"--trials={trials}"] + [f"{name}={value}" for name, value in valid]
    argv += [part for flag in odd for part in flag]
    if as_json:
        argv += ["--format", "json"]
    code, out = _run_cli(argv)
    assert code in (0, 1, 2, 3)
    if as_json and out:
        json.loads(out, parse_constant=_reject_constant)
