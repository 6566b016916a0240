import ast
import contextlib
import dataclasses
import gc
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import g3bell
from g3bell import audit, measure
from g3bell.bell import make_scalarizer
from g3bell.ga import GradeSupport, I, Multivector, ONE, Vector3, ZERO, cross, dot, grade_project
from g3bell.model import (ORIENTATIONS, PRODUCT_FORMS, OrientationDistribution, product_identity,
                          product_raw)
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
from g3bell.measure import (MeasureKind, Sweep, is_valid_probability_measure, measure_total,
                            p_grid, p_grid_size, sweeps)
from g3bell.cli import _VALUE_FLAGS, angles_argument, build_parser, main, main_entry, pair_argument

from _oracle import reference_emit_json, reference_sweep_rows, reference_within

FAST = dict(trials=60, seed=42)

DIRECTED = MeasureKind.DIRECTED_TRIVECTOR

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
    # Ints past the largest float, and a seed too long to print.
    {"tolerance": 10**400},
    {"p_step": 10**400},
    {"angles_deg": (10**400, 0.0, 0.0, 0.0)},
    {"extra_pairs": ((Vector3(10**400, 0, 0), Vector3(0, 1, 0)),)},
    {"seed": 10**5000},
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
    assert AuditConfig(**vars(build_parser().parse_args([]))) == AuditConfig()
    assert AuditConfig().p_step is measure.DEFAULT_P_STEP


@pytest.mark.parametrize("field, value", [
    ("angles_deg", [0.0, 90.0, 45.0, 135.0]),
    ("extra_pairs", [(Vector3(0.0, 0.0, 1.0), Vector3(1.0, 0.0, 0.0))]),
])
def test_config_stores_a_list_as_its_tuple(field, value):
    from_list = AuditConfig(**{field: value})
    from_tuple = AuditConfig(**{field: tuple(value)})
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)


@pytest.mark.parametrize("field, value, twin", [
    ("tolerance", 1, 1.0),
    ("p_step", 1, 1.0),
    ("angles_deg", (0, 90, 45, 135), (0.0, 90.0, 45.0, 135.0)),
    ("extra_pairs", ((Vector3(0, 0, 1), Vector3(1, 0, 0)),),
     ((Vector3(0.0, 0.0, 1.0), Vector3(1.0, 0.0, 0.0)),)),
])
def test_equal_configs_emit_equal_bytes(field, value, twin):
    base = dict(p_step=0.5, trials=2, output_format="json")
    from_int, from_float = (AuditConfig(**{**base, field: v}) for v in (value, twin))
    assert from_int == from_float and hash(from_int) == hash(from_float)
    assert emit(run_audit(from_int)) == emit(run_audit(from_float))
    assert repr(from_int) == repr(from_float)


def test_config_admits_the_longest_printable_seed():
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 5000
    seed = int("9" * digits)
    document = emit(run_audit(AuditConfig(seed=seed, p_step=0.5, trials=1, output_format="json")))
    assert f'"seed": {"9" * digits},' in document


def test_value_flags_are_the_parsers_value_taking_options():
    # A value flag missing from _VALUE_FLAGS would lose the "--flag=-value" rewrite.
    options = {option for action in build_parser()._actions if action.nargs is None
               for option in action.option_strings}
    assert options == set(_VALUE_FLAGS)


def test_console_script_entry_exits_zero(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["g3bell", "--p-step", "0.5", "--trials", "2"])
    with pytest.raises(SystemExit) as exc:
        main_entry()
    assert exc.value.code == 0
    assert "verdicts" in capsys.readouterr().out


def test_console_script_is_main_entry():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"g3bell": "g3bell.cli:main_entry"}


def _third_party_imports(source: str) -> list[str]:
    """The absolute imports in ``source``, nested ones included, that name a
    module outside the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name != "__future__"
                  and name.partition(".")[0] not in sys.stdlib_module_names]
    return found


def test_runtime_imports_only_the_stdlib():
    src = Path(g3bell.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert modules
    for path in modules:
        assert _third_party_imports(path.read_text()) == [], path.name


@pytest.mark.parametrize("source, found", [
    ("import numpy", ["numpy"]),
    ("import os, numpy.linalg as la", ["numpy.linalg"]),
    ("from numpy import float64", ["numpy"]),
    ("def f():\n    import scipy.special\n", ["scipy.special"]),
    ("from __future__ import annotations\nimport math\nfrom .ga import gp\n", []),
])
def test_stdlib_check_names_each_third_party_import(source, found):
    assert _third_party_imports(source) == found


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


def test_normalization_builds_no_per_point_multivector(monkeypatch):
    # The totals are checked as coefficient columns over the grid.
    calls = []
    original = Multivector.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Multivector, "__init__", counted)
    counts = []
    for p_step in (0.1, 0.001):
        grid = p_grid(p_step)
        calls.clear()
        audit._normalization_section(grid, 1e-12)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _normalization_by_totals(grid, tol):
    """The normalization section as first written: one total per grid point."""
    scalar_totals, directed_totals = (
        [measure_total(OrientationDistribution(p), kind) for p in grid] for kind in MeasureKind)
    return {
        "scalar_total": audit._mv_dict(scalar_totals[0]),
        "scalar_valid_probability_measure":
            all(is_valid_probability_measure(t, tol) for t in scalar_totals),
        "directed_total": audit._mv_dict(directed_totals[0]),
        "directed_valid_probability_measure":
            all(is_valid_probability_measure(t, tol) for t in directed_totals),
        "directed_total_is_unit_trivector": all(t.max_abs_diff(I) == 0.0 for t in directed_totals),
        "totals_constant_over_grid":
            all(t.max_abs_diff(scalar_totals[0]) <= tol for t in scalar_totals)
            and all(t.max_abs_diff(directed_totals[0]) <= tol for t in directed_totals),
    }


@pytest.mark.parametrize("grid", [p_grid(0.1), p_grid(0.001), (0.3, 0.0, 1.0 / 3.0, 5e-324, 1.0)])
@pytest.mark.parametrize("tol", [0.0, 1e-12, 0.5])
def test_normalization_section_matches_per_point_totals(grid, tol):
    section = audit._normalization_section(grid, tol)
    assert repr(section) == repr(_normalization_by_totals(grid, tol))


@st.composite
def _within_cases(draw):
    """Non-empty columns, their targets and a finite tolerance >= 0: each point
    is any float, NaN and the infinities included, or one near its target."""
    tol = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-12, 0.5]),
                         st.floats(min_value=0.0, allow_infinity=False)))
    columns, target = [], []
    for _ in range(draw(st.integers(1, 4))):
        t = draw(st.floats())
        near = st.sampled_from([t, -t, t + tol, t - tol,
                                math.nextafter(t + tol, math.inf), math.nextafter(t - tol, -math.inf)])
        columns.append(tuple(draw(st.lists(st.one_of(near, st.floats()), min_size=1, max_size=6))))
        target.append(t)
    return columns, tuple(target), tol


@settings(max_examples=300, deadline=None)
@given(_within_cases())
@example(([(1.0, math.nan, 1.0)], (1.0,), 0.5))  # a NaN after the first point
@example(([(0.5, -0.5), (0.0, 1.0, math.nan)], (0.5, 0.0), 1e308))
@example(([(math.inf, -math.inf)], (0.0,), 1e308))  # both infinities: a NaN sum
@example(([(math.inf, math.inf)], (math.inf,), 0.0))
@example(([(1e308,) * 3], (1e308,), 0.0))  # the sum overflows, every point passes
@example(([(1e308, 1e308, -1e308)], (1e308,), 1e308))
@example(([(0.0, -0.0, 0.0), (-0.0, -0.0)], (-0.0, 0.0), 0.0))
@example(([(0.75, 1.25, 1.0)], (1.0,), 0.25))  # x = t + tol and t - tol exactly
@example(([(1.0, math.nextafter(1.25, 2.0))], (1.0,), 0.25))
@example(([(5e-324, -5e-324, 0.0)], (0.0,), 5e-324))  # subnormals
@example(([(5e-324, -5e-324, 0.0)], (0.0,), 0.0))
@example(([(2.2250738585072014e-308, 1e-310)], (1.5e-308,), 1e-308))
def test_within_is_its_per_point_definition(case):
    columns, target, tol = case
    assert audit._within(columns, target, tol) is reference_within(columns, target, tol)


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


@pytest.mark.parametrize("key, slot, refuted", [
    # The split claim reads the grade-2 norm, the leak claim the sweep's grade-2 norms.
    (ORTHO_KEY, 4, {"observable_product_splits", "scalar_weight_codomain", "directed_codomain",
                    "orthogonal_zero_graded", "nonisotropic_leak"}),
    # Grade 3 feeds the split's off-grade maximum and, times I, the directed scalar;
    # every planted NaN gives both identity-form sweeps a NaN peak, refuting both codomains.
    (GENERIC_KEY, 7, {"observable_product_splits", "scalar_weight_codomain", "directed_codomain",
                      "directed_scalar_range_empty"}),
    (ORTHO_KEY, 0, {"observable_product_splits", "scalar_weight_codomain", "directed_codomain",
                    "orthogonal_zero_graded"}),
    (GENERIC_KEY, 1, {"observable_product_splits", "scalar_weight_codomain", "directed_codomain"}),
], ids=["bivector", "trivector", "scalar", "vector"])
def test_planted_nan_refutes_the_claims_that_read_it(monkeypatch, key, slot, refuted):
    # One NaN coefficient in one identity product, at orientation -1.
    identity = PRODUCT_FORMS["identity"]

    def planted(a, b, hv):
        mv = identity(a, b, hv)
        if hv.orientation == -1 and pair_key(a, b) == key:
            coeffs = list(mv.coeffs)
            coeffs[slot] = math.nan
            return Multivector(tuple(coeffs))
        return mv

    monkeypatch.setitem(PRODUCT_FORMS, "identity", planted)
    claims = run_audit(AuditConfig(p_step=0.25, **FAST)).document["claims"]
    assert {c["id"] for c in claims if c["verdict"] == REFUTED} == refuted


@pytest.mark.parametrize("forms, slot, value, field", [
    # inf - inf is NaN at every p that weighs orientation +1, that is all but p = 0.
    (("identity", "raw"), 0, math.inf, "grade0_max_diff_over_grid"),
    (("raw",), 4, math.nan, "raw_scalar_weight_grade2_range"),
])
def test_raw_vs_identity_keeps_a_nan_after_the_first_point(monkeypatch, forms, slot, value, field):
    for form in forms:
        product = PRODUCT_FORMS[form]

        def planted(a, b, hv, product=product):
            coeffs = list(product(a, b, hv).coeffs)
            if hv.orientation == +1:
                coeffs[slot] = value
            return Multivector(tuple(coeffs))

        monkeypatch.setitem(PRODUCT_FORMS, form, planted)
    kind = MeasureKind.SCALAR_WEIGHTS
    identity, raw = (sweeps(PRODUCT_FORMS[form], *DEFAULT_PAIRS[0], (kind,), p_grid(0.25))[kind]
                     for form in ("identity", "raw"))
    # The values the field reduces: finite at p = 0 only.
    reduced = ([abs(x - y) for x, y in zip(identity.columns[0], raw.columns[0])]
               if field == "grade0_max_diff_over_grid" else raw.grade_norms[2])
    assert not math.isnan(reduced[0]) and all(map(math.isnan, reduced[1:]))
    doc = run_audit(AuditConfig(p_step=0.25, **FAST)).document
    got = doc["grade_support"][ORTHO_KEY]["raw_vs_identity"][field]
    assert all(map(math.isnan, got if isinstance(got, list) else [got]))


def _functional_range_of(scalar_column):
    """The functional-range entry of a pair whose directed sweeps, both forms,
    have ``scalar_column`` as their scalar column."""
    grid = p_grid(0.25)
    swept = dataclasses.replace(
        sweeps(product_identity, *DEFAULT_PAIRS[2], (DIRECTED,), grid)[DIRECTED],
        columns=(scalar_column, *[(0.0,) * len(grid)] * 7))
    pr = dataclasses.replace(audit._audit_pair(GENERIC_KEY, *DEFAULT_PAIRS[2], grid, 1e-12),
                             sweeps={form: {MeasureKind.DIRECTED_TRIVECTOR: swept}
                                     for form in ("identity", "raw")})
    return audit._functional_range(pr)


@pytest.mark.parametrize("column", [
    (-0.0,) * 5,
    (0.0, -0.0, math.nan, 0.0, -0.0),
    (0.0, 0.0, 0.0, -5e-324, 0.0),
    (0.0,) * 5,
])
def test_functional_range_shortcut_is_the_max_magnitude(column):
    entry = _functional_range_of(column)
    expected = audit._max_magnitude(list(map(abs, column)))
    for form in ("identity", "raw"):
        got = entry[form]["max_abs_scalar_component"]
        assert float.hex(got) == float.hex(expected)
        assert entry[form]["nonzero_scalar_attained"] is (expected > 0.0)


def _identity_ignoring_orientation(a, b, hv):
    return product_identity(a, b, ORIENTATIONS[0])


def _identity_grade0(a, b, hv):
    return grade_project(product_identity(a, b, hv), 0)


def _oversized_scalarizer(a, hv):
    # Passes the registration probes, none of which has both |x| and |z| below 0.5.
    return (1.5 if abs(a.x) < 0.5 and abs(a.z) < 0.5 else 1.0) * hv.orientation


def _with_oversized_scalarizer(default_scalarizers=audit.default_scalarizers):
    return default_scalarizers() + (make_scalarizer("oversized", _oversized_scalarizer),)


def _scaled_quantum_target(a, b, quantum_target=audit.quantum_target):
    return 0.9 * quantum_target(a, b)


def _scalar_weight_sweeps_without_grade0(product_fn, a, b, kinds, grid, tol):
    # The scalar-weight expectation loses the -a.b part of every product.
    def lossy(a, b, hv):
        return grade_project(product_fn(a, b, hv), 2)
    return {kind: sweeps(lossy if kind is MeasureKind.SCALAR_WEIGHTS else product_fn,
                         a, b, (kind,), grid, tol)[kind] for kind in kinds}


# One defect per row, planted in the model, the measure or the CHSH inputs, and
# the exact claims it refutes at p_step 0.25 and 200 trials; rows that refute
# the same claims show which claims share a check.
PLANTED_DEFECTS = {
    "directed_unit_is_one": (
        lambda mp: mp.setitem(measure._UNIT, MeasureKind.DIRECTED_TRIVECTOR, ONE),
        {"directed_codomain", "orthogonal_zero_graded", "nonisotropic_leak",
         "directed_total_trivector", "directed_scalar_range_empty"}),
    "identity_is_raw": (
        lambda mp: mp.setitem(PRODUCT_FORMS, "identity", product_raw),
        {"orthogonal_zero_graded", "nonisotropic_leak"}),
    "identity_ignores_orientation": (
        lambda mp: mp.setitem(PRODUCT_FORMS, "identity", _identity_ignoring_orientation),
        {"orthogonal_zero_graded", "nonisotropic_leak"}),
    "identity_projected_to_grade0": (
        lambda mp: mp.setitem(PRODUCT_FORMS, "identity", _identity_grade0),
        {"observable_product_splits", "scalar_weight_codomain", "directed_codomain",
         "orthogonal_zero_graded", "nonisotropic_leak"}),
    "oversized_scalarizer": (
        lambda mp: mp.setattr(audit, "default_scalarizers", _with_oversized_scalarizer),
        {"scalarized_chsh_classical"}),
    "quantum_target_scaled": (
        lambda mp: mp.setattr(audit, "quantum_target", _scaled_quantum_target),
        {"projection_reproduces_violation"}),
    "lhv_bound_three": (
        lambda mp: mp.setattr(audit, "lhv_bruteforce_bound", lambda: 3.0),
        {"lhv_bound_two"}),
    "scalar_weight_sweep_without_grade0": (
        lambda mp: mp.setattr(audit, "sweeps", _scalar_weight_sweeps_without_grade0),
        {"scalar_weight_codomain"}),
    "quantum_target_zero": (
        lambda mp: mp.setattr(audit, "quantum_target", lambda a, b: 0.0),
        set()),
}
# The rows that leave a claim informational: a quantum target of 0 probes no violation.
PLANTED_INFORMATIONAL = {"quantum_target_zero": {"projection_reproduces_violation"}}


@pytest.mark.parametrize("defect", list(PLANTED_DEFECTS))
def test_planted_defect_refutes_exactly_its_claims(monkeypatch, capsys, defect):
    plant, refuted = PLANTED_DEFECTS[defect]
    plant(monkeypatch)
    claims = run_audit(AuditConfig(p_step=0.25, trials=200)).document["claims"]
    assert {c["id"] for c in claims if c["verdict"] == REFUTED} == refuted
    assert ({c["id"] for c in claims if c["verdict"] == INFORMATIONAL}
            == PLANTED_INFORMATIONAL.get(defect, set()))
    assert main(["--p-step", "0.25", "--trials", "200"]) == 1
    capsys.readouterr()


def test_planted_defects_refute_every_claim():
    assert set().union(*(refuted for _, refuted in PLANTED_DEFECTS.values())) == \
        {c.id for c in CLAIM_MAP}


def test_audit_evaluates_each_product_form_twice_per_pair(monkeypatch):
    # Wrapped as the benchmark harness wraps them: each PRODUCT_FORMS entry, and
    # expectation in every g3bell namespace that holds it.
    calls = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    for form, fn in list(PRODUCT_FORMS.items()):
        monkeypatch.setitem(PRODUCT_FORMS, form, counting(form, fn))
    for mod in (g3bell, g3bell.measure):
        monkeypatch.setattr(mod, "expectation", counting("expectation", mod.expectation))
    extra = (Vector3(0.0, 0.6, 0.8), Vector3(0.0, 0.0, 1.0))
    config = AuditConfig(p_step=0.25, extra_pairs=(extra,), **FAST)
    pairs = len(audit.audited_pairs(config))
    run_audit(config)
    assert pairs == 4
    assert calls == {"identity": 2 * pairs, "raw": 2 * pairs, "expectation": 4 * pairs}


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
# One ulp from the default pair (e1, (e1+e2)/sqrt(2)) in each of two components,
# so it has that pair's label; _unit_vectors can draw it.
_LABEL_CLASH = (Vector3(1.0, 0.0, 0.0), Vector3(0.7071067811865476, 0.7071067811865476, 0.0))


def _label_clash(extra_pairs) -> bool:
    """Whether an extra pair has the label of a different default or earlier
    pair: AuditConfig then raises ValueError, and the CLI exits 2."""
    labelled = {}
    for a, b in DEFAULT_PAIRS + tuple(extra_pairs):
        if labelled.setdefault(pair_key(a, b), (a, b)) != (a, b):
            return True
    return False


def _assert_label_clash_raises(pair):
    with pytest.raises(ValueError, match="two different pairs have the label"):
        AuditConfig(extra_pairs=(pair,))


@settings(max_examples=40, deadline=None)
@given(st.tuples(_unit_vectors, _unit_vectors), _p_steps, _tolerances, _tolerances,
       st.integers(1, 10))
@example((Vector3(0.6, 0.0, 0.8), Vector3(0.0, 0.6, 0.8)), 0.25, 1e-300, 1e-12, 10)
@example(_HALF_RESOLVED, 0.1, 0.3, 0.49, 10)
@example(_LABEL_CLASH, 0.25, 1e-12, 1e-6, 10)
def test_confirmed_verdicts_stay_confirmed_at_larger_tolerances(pair, p_step, t1, t2, trials):
    if _label_clash([pair]):
        _assert_label_clash_raises(pair)
        return
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
@example(_LABEL_CLASH, "half_cross", 0, 10)
def test_no_claim_refuted_within_ulps_of_a_closed_form_magnitude(pair, magnitude, n, trials):
    a, b = pair
    at = {"dot": abs(dot(a, b)), "cross": cross(a, b).norm(), "half_cross": cross(a, b).norm() / 2}
    tol = _ulps_away(at[magnitude], n)
    assume(0.0 < tol < 0.5)
    if _label_clash([pair]):
        _assert_label_clash_raises(pair)
        return
    report = run_audit(AuditConfig(tolerance=tol, p_step=0.25, trials=trials, extra_pairs=(pair,)))
    refuted = [c["id"] for c in report.document["claims"] if c["verdict"] == REFUTED]
    assert refuted == [], (tol, magnitude, n)


def _tilted(pair, shape: str, eps: float):
    """The pair as drawn, or with b replaced by a turned eps towards b (so
    |a x b| is at most about eps), or by the unit normal of a and b turned eps
    towards a (so |a.b| is about eps)."""
    a, b = pair
    if shape == "near_parallel":
        base, towards = a, b
    elif shape == "near_orthogonal":
        normal = cross(a, b)
        assume(normal.norm() > 0.1)
        base, towards = normal.normalized(), a
    else:
        return pair
    return a, Vector3(*(x + eps * y for x, y in zip(base.components(), towards.components()))
                      ).normalized()


@settings(max_examples=30, deadline=None)
@given(st.tuples(_unit_vectors, _unit_vectors),
       st.sampled_from(["as_drawn", "near_parallel", "near_orthogonal"]), st.floats(0.25, 4.0))
@example((Vector3(1.0, 0.0, 0.0), Vector3(0.0, 1.0, 0.0)), "near_parallel", 1.5)
@example((Vector3(1.0, 0.0, 0.0), Vector3(0.0, 1.0, 0.0)), "near_orthogonal", 3.0)
def test_end_point_verdicts_equal_fine_grid_verdicts(pair, shape, scale):
    # Every value is affine in p, so the end points decide each sweep claim:
    # the interior of a 501-point grid must not change any of the ten verdicts.
    tol = AuditConfig().tolerance
    pair = _tilted(pair, shape, scale * tol)
    a, b = pair
    assume(not any(audit._undecided(m, t) for m in (abs(dot(a, b)), cross(a, b).norm())
                   for t in (tol, 2.0 * tol)))
    if _label_clash([pair]):
        _assert_label_clash_raises(pair)
        return
    coarse, fine = ([c["verdict"] for c in run_audit(AuditConfig(
        p_step=step, trials=10, extra_pairs=(pair,))).document["claims"]] for step in (1.0, 0.002))
    assert coarse == fine


# --- rendering -----------------------------------------------------------------------

def test_format_value_annotates_tagged_zero():
    support = GradeSupport(frozenset({2}), (0.0, 0.0, 1.0, 0.0))
    assert format_value(ZERO, support, 1e-12) == "0 [as grade-2]"
    both = GradeSupport(frozenset({1, 2}), (0.0, 1.0, 1.0, 0.0))
    assert format_value(ZERO, both, 1e-12) == "0 [as grades 1, 2]"
    assert format_value(Multivector.scalar(2.0), support, 1e-12) == "2"
    assert format_value(ZERO, GradeSupport(frozenset(), (0.0,) * 4), 1e-12) == "0"


def test_format_value_renders_a_nan_coefficient():
    support = GradeSupport(frozenset({1}), (0.0, 1.0, 0.0, 0.0))
    assert format_value(Multivector.blade(1, math.nan), support, 1e-12) == "nan*e1"


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


def test_json_emit_leaves_no_reference_cycle(default_report):
    # A cycle would keep every fragment of the document alive until a
    # collection reached it.
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        emit(default_report, "json")
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# --- the JSON emitter against the stdlib encoder --------------------------------------------

EDGE_FLOATS = [0.0, 5e-324, 2.225e-308, 1e-5, 1e-4, 9.99999999999999e14, 1e15, 1e16,
               9.999999999999999e15, 1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
json_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS + [-x for x in EDGE_FLOATS]),
    st.floats(allow_nan=False, allow_infinity=False),
)
json_strings = st.text(alphabet=st.one_of(st.sampled_from('"\\/%\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
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


def _has_non_finite(tree) -> bool:
    if isinstance(tree, float):
        return not math.isfinite(tree)
    if isinstance(tree, dict):
        return any(map(_has_non_finite, tree.values()))
    return isinstance(tree, (list, tuple)) and any(map(_has_non_finite, tree))


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


@given(json_trees)
@example([{"p": 0.0, "value": {"%s": -0.0, "e\u00e9": 1.7976931348623157e308}}] * 2)
@example([{"p": 0.5}, {"p": math.inf}, {"p": math.nan}])
def test_json_document_matches_stdlib_encoder(tree):
    expected = _emitted(reference_emit_json, tree)
    got = _emitted(_json_document, tree)
    if expected is ValueError and not _has_non_finite(tree):
        # The stdlib path failed on a float that rounds past the largest one;
        # the emitter writes it unrounded.
        assert isinstance(got, str)
        json.loads(got, parse_constant=_reject_constant)
    else:
        assert got == expected


def _with_slot(slot: int, value: float, orientations=(+1, -1)):
    """The identity product form with coefficient ``slot`` set to ``value``
    at the given orientations."""
    def planted(a, b, hv):
        coeffs = list(product_identity(a, b, hv).coeffs)
        if hv.orientation in orientations:
            coeffs[slot] = value
        return Multivector(tuple(coeffs))
    return planted


# Product forms a probe sweep is built from: e12 is -0.0 at both orientations,
# so its column is all zeros; a NaN or an infinity makes the sweep unwritable.
_SWEPT_FORMS = {
    "identity": product_identity,
    "raw": product_raw,
    "signed_zero_e12": _with_slot(4, -0.0),
    "nan_e1": _with_slot(1, math.nan, (-1,)),
    "inf_e123": _with_slot(7, math.inf, (+1,)),
}
# Where the sweep sits in the tree, which sets the indent of its rows.
_PLACES = {
    "root": lambda s: s,
    "probe": lambda s: {"probe": s},
    "nested": lambda s: [0.5, {"functional_range": {"identity": {"probe": s, "x": None}}}],
}
_EXAMPLE_PAIR = (Vector3(0.6, 0.0, 0.8), Vector3(0.0, 0.6, 0.8))


@settings(max_examples=60, deadline=None)
@given(st.tuples(_unit_vectors, _unit_vectors), st.sampled_from([1.0, 0.25, 0.05, 0.002]),
       st.sampled_from(list(MeasureKind)), st.sampled_from(sorted(_SWEPT_FORMS)),
       st.sampled_from(sorted(_PLACES)))
@example(_EXAMPLE_PAIR, 1.0, MeasureKind.DIRECTED_TRIVECTOR, "identity", "probe")
@example(_EXAMPLE_PAIR, 0.002, MeasureKind.DIRECTED_TRIVECTOR, "identity", "nested")
@example(_EXAMPLE_PAIR, 0.002, MeasureKind.SCALAR_WEIGHTS, "signed_zero_e12", "root")
@example(_EXAMPLE_PAIR, 1.0, MeasureKind.DIRECTED_TRIVECTOR, "nan_e1", "probe")
@example(_EXAMPLE_PAIR, 0.002, MeasureKind.SCALAR_WEIGHTS, "inf_e123", "nested")
def test_json_document_writes_a_sweep_as_its_rows(pair, p_step, kind, form, place):
    swept = sweeps(_SWEPT_FORMS[form], *pair, (kind,), p_grid(p_step))[kind]
    # The same sweep with every zero coefficient -0.0, which is written 0.0.
    negated_zeros = dataclasses.replace(swept, columns=tuple(
        tuple(-0.0 if c == 0.0 else c for c in column) for column in swept.columns))
    for s in (swept, negated_zeros):
        tree = _PLACES[place](s)
        expected = _emitted(reference_emit_json, tree)
        assert _emitted(_json_document, tree) == expected
        assert (expected is ValueError) == form.startswith(("nan", "inf"))
        # The writer's own walk over the rows: the same bytes, or the same message.
        rows = _PLACES[place](reference_sweep_rows(s))
        assert _document_or_error(tree) == _document_or_error(rows)


_TOP = 1.7976931348623157e308
# Columns planted into a 5-point sweep by key ("p" is the grid): each holds cells
# whose %.15g text is not what _json_float writes, with the message that the
# row-order first non-finite value raises, or None.
_PLANTED_COLUMNS = {
    "signed_zeros": ({"e2": (0.0, -0.0, 0.5, -0.0, -0.25), "e123": (-0.0, 0.0, -0.0, 0.0, 1e-3)},
                     None),
    "integral": ({"scalar": (1.0, -1.0, 2.0, -0.5, 3.0), "e12": (-1.0,) * 5}, None),
    # The parallel pair's directed e123 at p_step 0.002, in a 501-point sweep.
    "integral_501": ({"e123": (-1.0,) * 501}, None),
    # Texts that %.15g rounds to an integer.
    "rounds_to_integral": ({"e12": (0.9999999999999999, -0.9999999999999999,
                                    123456789012345.6, -123456789012345.6, 0.5)}, None),
    # %.15g turns to exponent form at 1e15, repr only at 1e16, with a "." in e1
    # and without one in e2; it also rounds 123456789012345.6 to an integer.
    "exponent_band": ({"e1": (1.25e15, 9.99999999999999e15, -1.5e15, 0.5, 0.25),
                       "e2": (1e15, -1e15, 123456789012345.6, 0.5, 0.25)}, None),
    # 5e-324 is rounded to its shortest repr; the top float rounds past the range
    # and is written unrounded.
    "extremes": ({"e3": (2.5e-5, 5e-324, _TOP, -0.1, -_TOP), "e23": (1e-5, 0.5, -1e-5, 0.5, 0.5)},
                 None),
    "list_column": ({"e13": [0.1, -0.2, 0.0, 1.0, 1e-7]}, None),
    # Zero everywhere, grid included: still one row per grid point.
    "all_zero": ({key: (0.0,) * 5 for key in ("p", *audit._MV_KEYS)}, None),
    # Columns with no nonzero entry are literals of the row template.
    "all_zero_values": ({key: (0.0,) * 5 for key in audit._MV_KEYS}, None),
    "negative_zeros": ({"e1": (-0.0,) * 5, "e123": (-0.0,) * 5}, None),
    "mixed_zeros": ({"e2": (0.0, -0.0, -0.0, 0.0, -0.0), "e3": (-0.0, 0.0, 0.0, -0.0, 0.0)}, None),
    # A NaN is nonzero: a column zero but for one, in the last row, is not a literal.
    "zero_but_late_nan": ({"e13": (0.0, -0.0, 0.0, 0.0, math.nan)},
                          "Out of range float values are not JSON compliant: nan"),
    # An early NaN in a live column beside zero columns, before a later column's inf.
    "early_nan_beside_zeros": ({"e1": (0.5, math.nan, 0.5, 0.5, 0.5), "e2": (-0.0,) * 5,
                                "e3": (0.0,) * 5, "e123": (0.5, 0.5, math.inf, 0.5, 0.5)},
                               "Out of range float values are not JSON compliant: nan"),
    # Repeated values, each distinct one formatted once: both zeros, an integral
    # value and exponent forms below 1e-4 among them.
    "repeated": ({"e1": (1e-5, 0.0, -0.0, 1e-5, 2.0), "e2": (0.25, -0.0, 0.25, 0.0, 0.25),
                  "e3": (-3e-7, 2.0, -3e-7, 2.0, -3e-7)}, None),
    # A repeated NaN, after a repeated -inf in a later column of an earlier row.
    "repeated_nan": ({"e1": (0.5, 0.5, math.nan, math.nan, 0.5),
                      "e12": (0.5, -math.inf, 0.5, -math.inf, 0.5)},
                     "Out of range float values are not JSON compliant: -inf"),
    # e1 is infinite in the last row, e13 (a later column) NaN in the first.
    "nan_before_inf": ({"e1": (0.5, 0.5, 0.5, 0.5, math.inf),
                        "e13": (math.nan, 0.5, 0.5, 0.5, 0.5)},
                       "Out of range float values are not JSON compliant: nan"),
    # The grid is NaN in a later row than a coefficient's -inf.
    "grid_nan_after_inf": ({"p": (0.0, 0.25, math.nan, 0.75, 1.0),
                            "e23": (0.5, -math.inf, 0.5, 0.5, 0.5)},
                           "Out of range float values are not JSON compliant: -inf"),
}


@pytest.mark.parametrize("name", sorted(_PLANTED_COLUMNS))
def test_json_document_writes_every_planted_cell_as_json_float(name):
    planting, message = _PLANTED_COLUMNS[name]
    size, = {len(column) for column in planting.values()}
    swept = sweeps(product_identity, *_EXAMPLE_PAIR, (DIRECTED,),
                   p_grid(1.0 / (size - 1)))[DIRECTED]
    columns = [planting.get(key, column) for key, column in zip(audit._MV_KEYS, swept.columns)]
    planted = dataclasses.replace(swept, grid=planting.get("p", swept.grid), columns=tuple(columns))
    tree = [0.5, {"probe": planted}]
    got = _document_or_error(tree)
    # The writer's own walk over the rows gives the same bytes, or the same message.
    assert got == _document_or_error([0.5, {"probe": reference_sweep_rows(planted)}])
    if message is not None:
        assert got == (ValueError, message)
        return
    for column in (planted.grid, *planted.columns):
        assert audit._json_column(column) == list(map(audit._json_float, column))
    if name == "extremes":
        # The stdlib path rounds the top float to inf and refuses it.
        assert _emitted(reference_emit_json, tree) is ValueError
        assert [row["value"]["e3"] for row in json.loads(got)[1]["probe"]][2:5:2] == [_TOP, -_TOP]
    else:
        assert got == reference_emit_json(tree)


def test_json_column_writes_integral_cells_without_json_float(monkeypatch):
    calls = []
    json_float = audit._json_float
    monkeypatch.setattr(audit, "_json_float", lambda x: calls.append(x) or json_float(x))
    column = (-1.0, 0.0, -0.0, 2.0, 0.9999999999999999, -123456789012345.6, 0.5, 1e15)
    assert audit._json_column(column) == list(map(json_float, column))
    assert audit._json_column((-1.0,) * 501) == ["-1.0"] * 501
    assert calls == [1e15]  # the exponent form only
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            audit._json_column((0.5, x))


def test_json_column_formats_each_distinct_value_once(monkeypatch):
    calls = []
    json_float = audit._json_float
    monkeypatch.setattr(audit, "_json_float", lambda x: calls.append(x) or json_float(x))
    column = (1e-5, 0.5, 1e-5, -0.0, 0.0, 3.0, 1e-5, 3.0, -0.0, 2.5e-300)
    assert audit._json_column(column) == [json_float(x) for x in column]
    assert calls == [1e-5, 2.5e-300]
    # The directed identity probe's e123 holds 3 distinct values in 501.
    e123 = sweeps(product_identity, *_EXAMPLE_PAIR, (DIRECTED,), p_grid(0.002))[DIRECTED].columns[7]
    assert len(set(e123)) == 3 and len(e123) == 501
    assert audit._json_column(e123) == [json_float(x) for x in e123]
    # A non-finite value raises, naming the first in row order, repeated or not.
    nan = math.nan
    for column, first in [((0.5, -0.0, 0.5, nan, math.inf, nan), "nan"),
                          ((0.5, math.inf, 0.5, nan, nan, math.inf), "inf"),
                          ((-0.0, 0.0, -math.inf, nan, -math.inf), "-inf")]:
        with pytest.raises(ValueError, match=f"not JSON compliant: {first}$"):
            audit._json_column(column)


def test_json_document_formats_each_grid_once_and_only_as_itself(monkeypatch):
    formatted = []
    json_column = audit._json_column
    monkeypatch.setattr(audit, "_json_column",
                        lambda column: formatted.append(column) or json_column(column))
    quarter, half = (run_audit(AuditConfig(p_step=step, output_format="json", **FAST))
                     for step in (0.25, 0.5))
    for report in (quarter, half, quarter):
        formatted.clear()
        assert emit(report) == reference_emit_json(report.document)
        # The three pairs' probes share one grid, formatted once per document.
        probes = [entry["identity"]["probe"]
                  for entry in report.document["functional_range"].values()]
        assert len(probes) == 3 and all(probe.grid is probes[0].grid for probe in probes)
        assert [column is probes[0].grid for column in formatted].count(True) == 1
        # A column with no nonzero entry, four per probe, is a literal of the row template.
        assert all(map(any, formatted))
    # Equal but distinct grids, and a different grid of the same length.
    grid = p_grid(0.25)
    twin, reversed_grid = tuple(list(grid)), grid[::-1]
    assert twin == grid and twin is not grid
    tree = {key: sweeps(product_identity, *_EXAMPLE_PAIR, (DIRECTED,), g)[DIRECTED]
            for key, g in (("grid", grid), ("twin", twin), ("reversed", reversed_grid))}
    assert _json_document(tree) == reference_emit_json(tree)


def _document_or_error(tree):
    """The document, or the exception the emitter raised and its message."""
    try:
        return _json_document(tree)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _containers(tree) -> int:
    """The dicts and lists in a report document, not counting a sweep's rows."""
    if isinstance(tree, dict):
        return 1 + sum(map(_containers, tree.values()))
    if isinstance(tree, (list, tuple)):
        return 1 + sum(map(_containers, tree))
    return 0


def test_each_probe_is_the_pairs_directed_identity_sweep(monkeypatch):
    # The probe is the sweep the audit made, not a copy of it as per-point rows.
    made = []

    class CountedDict(dict):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(audit, "dict", CountedDict, raising=False)
    pairs = (pair_argument("0.6,0,0.8:0,0.6,0.8"), pair_argument("0,0,1:0.6,0.8,0"))
    counts = []
    for p_step in (0.1, 0.001):
        made.clear()
        config = AuditConfig(p_step=p_step, extra_pairs=pairs, trials=20)
        doc = run_audit(config).document
        counts.append((len(made), _containers(doc)))
        grid = p_grid(p_step)
        for key, a, b in audit.audited_pairs(config):
            probe = doc["functional_range"][key]["identity"]["probe"]
            assert type(probe) is Sweep
            assert probe.grid == grid
            expected = sweeps(product_identity, a, b, (DIRECTED,), grid,
                              config.tolerance)[DIRECTED]
            assert list(map(_float_bits, probe.columns)) == list(map(_float_bits, expected.columns))
    assert counts[0] == counts[1]


def _float_bits(column) -> list[str]:
    return [float.hex(c) for c in column]


def test_sweep_fine_shaped_report_emits_the_oracles_bytes():
    # A 501-point grid over 19 pairs: 19 probe tables of 501 rows each.
    rng = random.Random(16)
    units = [Vector3(*(rng.gauss(0.0, 1.0) for _ in range(3))).normalized() for _ in range(32)]
    pairs = tuple(zip(units[::2], units[1::2]))
    report = run_audit(AuditConfig(p_step=0.002, trials=100, seed=16, output_format="json",
                                   extra_pairs=pairs))
    assert len(report.document["functional_range"]) == 19
    assert emit(report, "json") == reference_emit_json(report.document)


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
@example([("--pair", "1.0,0.0,0.0:0.7071067811865476,0.7071067811865476,0.0")])  # _LABEL_CLASH
def test_cli_space_and_equals_forms_give_identical_output(valid):
    base = ["--trials", "20", "--p-step", "0.25", "--format", "json"]
    spaced = base + [part for flag in valid for part in flag]
    joined = base + [f"{name}={value}" for name, value in valid]
    code, out = _run_cli(spaced)
    pairs = [pair_argument(value) for name, value in valid if "--pair".startswith(name)]
    assert code in ((2,) if _label_clash(pairs) else (0, 1))
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
