"""Audit pipeline: runs every check over the configured setting pairs, the
distribution grid and the CHSH scenario, then assembles a structured report
whose claim verdicts drive the CLI exit code.

The claim map is compiled in (see CLAIM_MAP) and printed in the report
header, so every verdict line is traceable to the check that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain, compress
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable

from .ga import (
    DEFAULT_TOLERANCE,
    GradeSupport,
    I,
    Multivector,
    NonUnitVectorError,
    ONE,
    Vector3,
    cross,
    dot,
    ensure_unit,
    grade_audit,
    grade_project,
    _is_int, _is_real, _max_magnitude, _shown,
)
from .model import ORIENTATIONS, PRODUCT_FORMS, ProductForm
from .measure import DEFAULT_P_STEP, MeasureKind, Sweep, measure_total_columns, p_grid, p_grid_size, sweeps
from .bell import (
    DEFAULT_ANGLES_DEG,
    ChshScenario,
    chsh,
    default_scalarizers,
    lhv_bruteforce_bound,
    quantum_target,
    scalarizer_maxima,
)

TOOL_NAME = "g3bell"
TOOL_VERSION = "0.1.0"

CONFIRMED = "confirmed"
REFUTED = "refuted"
INFORMATIONAL = "informational"

OUTPUT_FORMATS = ("text", "json")

# Bounds on the work a flag can ask for: grid points swept per pair, and trials.
MAX_GRID_POINTS = 10_001
MAX_TRIALS = 1_000_000

_SQRT1_2 = 1.0 / math.sqrt(2.0)

# Always audited; configured pairs are appended after these.
DEFAULT_PAIRS = (
    (Vector3(1.0, 0.0, 0.0), Vector3(0.0, 1.0, 0.0)),
    (Vector3(1.0, 0.0, 0.0), Vector3(1.0, 0.0, 0.0)),
    (Vector3(1.0, 0.0, 0.0), Vector3(_SQRT1_2, _SQRT1_2, 0.0)),
)

# The grades that the two parts of the observable product -a.b - mu(a x b)
# feed under each measure kind, as (a.b part, a x b part).  The directed
# measure multiplies by I, which sends grade 0 to 3 and grade 2 to 1.
_GRADES_FED = {
    MeasureKind.SCALAR_WEIGHTS: (0, 2),
    MeasureKind.DIRECTED_TRIVECTOR: (3, 1),
}
_KINDS = tuple(_GRADES_FED)
_FORMS = ("identity", "raw")


@dataclass(frozen=True)
class AuditConfig:
    tolerance: float = DEFAULT_TOLERANCE
    p_step: float = DEFAULT_P_STEP
    angles_deg: tuple[float, float, float, float] = DEFAULT_ANGLES_DEG
    trials: int = 10000
    seed: int = 42
    output_format: str = "text"
    extra_pairs: tuple[tuple[Vector3, Vector3], ...] = ()

    def __post_init__(self):
        if not (_is_real(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be a positive real, got {_shown(self.tolerance)}")
        if p_grid_size(self.p_step) > MAX_GRID_POINTS:
            raise ValueError(f"p-step {self.p_step!r} gives more than {MAX_GRID_POINTS} grid points")
        if not (isinstance(self.angles_deg, (tuple, list)) and len(self.angles_deg) == 4
                and all(_is_real(x) for x in self.angles_deg)):
            raise ValueError(f"angles must be four finite degrees, got {_shown(self.angles_deg)}")
        if not (_is_int(self.trials) and 1 <= self.trials <= MAX_TRIALS):
            raise ValueError(f"trials must be an integer in [1, {MAX_TRIALS}], got {_shown(self.trials)}")
        # The report prints the seed; an int too long to print is shown as <int of N bits>.
        if not _is_int(self.seed) or _shown(self.seed).startswith("<"):
            raise ValueError(f"seed must be an integer the report can print, got {_shown(self.seed)}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"output format must be one of {OUTPUT_FORMATS}, got {_shown(self.output_format)}")
        if not isinstance(self.extra_pairs, (tuple, list)):
            raise ValueError(f"extra pairs must be a sequence of pairs, got {_shown(self.extra_pairs)}")
        # Lists are stored as tuples and reals as floats: equal configs hash and emit alike.
        pairs = []
        for pair in self.extra_pairs:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(
                    isinstance(v, Vector3) and all(map(_is_real, v.components())) for v in pair)):
                raise ValueError(f"an extra pair must be two real Vector3s, got {_shown(pair)}")
            try:
                pairs.append(tuple([ensure_unit(Vector3(*map(float, v.components()))) for v in pair]))
            except NonUnitVectorError as exc:
                raise NonUnitVectorError(f"an extra pair must be two unit vectors: {exc}") from None
        object.__setattr__(self, "extra_pairs", tuple(pairs))
        audited_pairs(self)  # two different pairs with one label raise
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "p_step", float(self.p_step))
        object.__setattr__(self, "angles_deg", tuple(map(float, self.angles_deg)))


@dataclass(frozen=True)
class AuditReport:
    """The report document that ``run_audit`` builds: the JSON tree, keyed in
    output order, which the verdicts, the text view and the JSON writer read.
    Each ``functional_range`` probe is held as the pair's directed
    identity-form ``Sweep``, not as plain JSON types; the writer emits it as
    one ``{"p": ..., "value": {...}}`` row per grid point."""

    document: dict

    def all_confirmed(self) -> bool:
        return all(c["verdict"] == CONFIRMED for c in self.document["claims"])


def _fmt_comp(c: float) -> str:
    # + 0.0 turns -0.0 into 0.0, so a pair written with -0 keeps the label of 0.
    return f"{c + 0.0:.9g}"


def pair_key(a: Vector3, b: Vector3) -> str:
    """Label a setting pair the way the --pair flag spells it."""
    return (f"{_fmt_comp(a.x)},{_fmt_comp(a.y)},{_fmt_comp(a.z)}"
            f":{_fmt_comp(b.x)},{_fmt_comp(b.y)},{_fmt_comp(b.z)}")


_MV_KEYS = ("scalar", "e1", "e2", "e3", "e12", "e13", "e23", "e123")


def _mv_dict(mv: Multivector) -> dict:
    return dict(zip(_MV_KEYS, mv.coeffs))


def _support_dict(gs: GradeSupport) -> dict:
    return {"present": list(gs.grades()), "max_magnitude": list(gs.max_magnitude)}


def format_value(mv: Multivector, family_support: GradeSupport, tol: float) -> str:
    """Render a value, annotating an exact zero with the grade support of the
    family that produced it (a zero bivector is not a zero scalar)."""
    if mv.max_abs_coeff() <= tol and family_support.present:
        grades = family_support.grades()
        if len(grades) == 1:
            return f"0 [as grade-{grades[0]}]"
        return "0 [as grades " + ", ".join(str(g) for g in grades) + "]"
    return str(mv)


def audited_pairs(config: AuditConfig) -> list[tuple[str, Vector3, Vector3]]:
    """Default pairs plus configured ones, each pair once.  Two different
    pairs with one label raise ``ValueError``: the report could not tell
    them apart."""
    labelled: dict[str, tuple[Vector3, Vector3]] = {}
    for a, b in DEFAULT_PAIRS + tuple(config.extra_pairs):
        key = pair_key(a, b)
        if labelled.setdefault(key, (a, b)) != (a, b):
            raise ValueError(f"two different pairs have the label {key}: "
                             f"{labelled[key]!r} and {(a, b)!r}")
    return [(key, a, b) for key, (a, b) in labelled.items()]


@dataclass(frozen=True)
class _AuditedPair:
    """One audited setting pair: its geometry, both product forms at both
    orientations, and one expectation sweep per product form and measure
    kind.  Every per-pair report section and every claim reads this record."""

    key: str
    dot: float
    cross_norm: float
    products: dict  # orientation -> form -> Multivector
    sweeps: dict  # form -> MeasureKind -> Sweep

    def every_product(self) -> list[Multivector]:
        return [mv for by_form in self.products.values() for mv in by_form.values()]


def _audit_pair(key: str, a: Vector3, b: Vector3, grid, tol: float) -> _AuditedPair:
    # Each form is evaluated once per orientation, looked up at call time so a wrapped
    # PRODUCT_FORMS entry is seen; the sweeps and their isotropic results read these.
    products = {hv.orientation: {form: PRODUCT_FORMS[form](a, b, hv) for form in _FORMS}
                for hv in ORIENTATIONS}

    def held(form: str) -> ProductForm:
        return lambda a, b, hv: products[hv.orientation][form]

    return _AuditedPair(
        key=key,
        dot=dot(a, b),
        cross_norm=cross(a, b).norm(),
        products=products,
        sweeps={form: sweeps(held(form), a, b, _KINDS, grid, tol) for form in _FORMS},
    )


def run_audit(config: AuditConfig) -> AuditReport:
    tol = config.tolerance
    grid = p_grid(config.p_step)
    pairs = [_audit_pair(key, a, b, grid, tol) for key, a, b in audited_pairs(config)]
    # A tolerance that swallows half a unit blade swallows the isotropic terms,
    # p = 1/2 times a product of unit vectors, and cannot grade them; every
    # verdict is then informational.
    degenerate = not grade_audit(I.scale(0.5), tol).present

    notes = [
        "the identity form and the literal observable product agree at orientation +1 "
        "and differ by the sign of the bivector term at orientation -1; the audit "
        "reports both and does not adjudicate between them",
        "under scalar weights the raw form keeps an orientation-independent bivector "
        "part of magnitude |a x b| at every p, including the isotropic point where "
        "the identity form's expectation is purely scalar",
        "orientations {+1, -1} exhaust the unit trivectors: the grade-3 subspace of "
        "G3 is one-dimensional",
        "scalarizers are factorizing by construction: each sees one local setting and "
        "the hidden variable; joint maps are rejected at registration",
    ]
    if degenerate:
        swallowed = ("unit-magnitude components; all grade supports are empty"
                     if not grade_audit(I, tol).present else "the half-unit isotropic terms")
        notes.insert(0, f"tolerance {tol:g} swallows {swallowed} and every verdict is "
                        "informational")

    doc = {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "config": {
            "tolerance": tol,
            "p_step": config.p_step,
            "angles_deg": list(config.angles_deg),
            "trials": config.trials,
            "seed": config.seed,
            "output_format": config.output_format,
            "pairs": [pr.key for pr in pairs],
        },
        "claim_map": [{"id": claim.id, "statement": claim.statement, "check": claim.check}
                      for claim in CLAIM_MAP],
        "degenerate_tolerance": degenerate,
        "identity_check": {pr.key: _identity_check(pr, tol) for pr in pairs},
        "grade_support": {pr.key: _grade_support(pr, tol) for pr in pairs},
        "normalization": _normalization_section(grid, tol),
        "functional_range": {pr.key: _functional_range(pr) for pr in pairs},
        "chsh": _chsh_section(config),
    }
    claims = []
    for claim, entry in zip(CLAIM_MAP, doc["claim_map"]):
        ok, observed = claim.evaluate(doc, pairs)
        if degenerate:
            ok, observed = None, {**observed, "reason": "degenerate tolerance"}
        verdict = INFORMATIONAL if ok is None else CONFIRMED if ok else REFUTED
        claims.append({**entry, "verdict": verdict, "observed": observed})
    doc["claims"] = claims
    doc["notes"] = notes
    return AuditReport(doc)


def _close(error: float, scale: float, tol: float) -> bool:
    """``error <= tol``, with ``tol`` floored at 4 ulp(scale).  A computed float
    and its closed form are each a few rounded sums and products of terms no
    larger than ``scale`` (|a||b| = 1 for the product parts and the leak, |S|
    for the CHSH value), so a correct model keeps them a few ulp(scale) apart:
    300 random pairs on a 1001-point grid gave at most 1 ulp(1) for the split,
    1.5 ulp(1) for the leak, and 1 ulp(2*sqrt(2)) for the default CHSH value."""
    return error <= max(tol, 4.0 * math.ulp(scale))


def _undecided(magnitude: float, threshold: float) -> bool:
    """True when ``magnitude`` lies within 4 ulp(1) of ``threshold``, where a
    correct model may land on either side.  The magnitudes compared (|a.b|,
    |a x b|) come from ``Vector3`` arithmetic, the grades observed from norms of
    product coefficients; like the two sides of ``_close`` they round a few
    ulp(1) apart, so on this band either observation is accepted."""
    return abs(magnitude - threshold) <= 4.0 * math.ulp(1.0)


def _identity_check(pr: _AuditedPair, tol: float) -> dict:
    plus, minus = pr.products[+1], pr.products[-1]
    return {
        "dot": pr.dot,
        "cross_norm": pr.cross_norm,
        **{label: {
            "identity": _mv_dict(values["identity"]),
            "raw": _mv_dict(values["raw"]),
            "max_coeff_diff": values["identity"].max_abs_diff(values["raw"]),
        } for label, values in (("orientation_plus", plus), ("orientation_minus", minus))},
        "scalar_parts_match_minus_dot": _close(_max_magnitude(
            [abs(mv.coeffs[0] - (-pr.dot)) for mv in pr.every_product()]), 1.0, tol),
        "bivector_magnitudes_match_cross_norm": _close(_max_magnitude(
            [abs(mv.grade_norm(2) - pr.cross_norm) for mv in pr.every_product()]), 1.0, tol),
        "raw_orientation_independent": plus["raw"].max_abs_diff(minus["raw"]) <= tol,
        "identity_bivector_flips_with_orientation":
            grade_project(plus["identity"] + minus["identity"], 2).max_abs_coeff() <= tol,
    }


def _grade_support(pr: _AuditedPair, tol: float) -> dict:
    forms = pr.sweeps
    entry: dict = {form: {kind.value: _support_dict(forms[form][kind].support)
                          for kind in _KINDS}
                   for form in _FORMS}
    entry["isotropic"] = {form: {kind.value: _isotropic_dict(forms[form][kind].isotropic, tol)
                                 for kind in _KINDS}
                          for form in _FORMS}
    # The forms disagree away from orientation +1; quantify what that does
    # to the scalar-weight expectation across the grid.
    identity, raw = (forms[form][MeasureKind.SCALAR_WEIGHTS] for form in ("identity", "raw"))
    grade0_diff = _max_magnitude([abs(c_id - c_raw)
                                  for c_id, c_raw in zip(identity.columns[0], raw.columns[0])])
    # The sweep's grade-2 peak is NaN where a norm is; so is the low end then.
    peak = raw.support.max_magnitude[2]
    entry["raw_vs_identity"] = {
        "grade0_max_diff_over_grid": grade0_diff,
        "raw_scalar_weight_grade2_range": [peak if math.isnan(peak) else min(raw.grade_norms[2]),
                                           peak],
    }
    return entry


def _isotropic_dict(result, tol: float) -> dict:
    return {
        "value": _mv_dict(result.value),
        "rendered": format_value(result.value, result.term_support, tol),
        "term_support": _support_dict(result.term_support),
    }


def _normalization_section(grid, tol: float) -> dict:
    # Each kind's totals over the grid as coefficient columns, compared with
    # the tests of max_abs_diff; the report shows the total at the first point.
    scalar, directed = (measure_total_columns(grid, kind) for kind in _KINDS)
    return {
        "scalar_total": dict(zip(_MV_KEYS, (column[0] for column in scalar))),
        "scalar_valid_probability_measure": _within(scalar, ONE.coeffs, tol),
        "directed_total": dict(zip(_MV_KEYS, (column[0] for column in directed))),
        "directed_valid_probability_measure": _within(directed, ONE.coeffs, tol),
        "directed_total_is_unit_trivector": _within(directed, I.coeffs, 0.0),
        "totals_constant_over_grid": all(
            _within(columns, [column[0] for column in columns], tol)
            for columns in (scalar, directed)),
    }


def _within(columns, target, tol: float) -> bool:
    """True iff every point of the columns is within ``tol`` of ``target`` in
    every slot: ``max_abs_diff(target) <= tol`` at each point, NaN failing.
    Each non-empty column is decided from its extremes: rounding is monotone,
    so ``x - t`` is largest at the column's maximum and ``t - x`` at its
    minimum, and the column's sum is NaN only when it holds a NaN or both
    infinities, which fail at some point.  That needs a finite ``tol >= 0``
    (an infinite one passes ``[inf, -inf]`` point by point); the audit passes
    its validated tolerance or 0.0."""
    return all(not math.isnan(sum(column)) and max(column) - t <= tol and t - min(column) <= tol
               for column, t in zip(columns, target))


def _functional_range(pr: _AuditedPair) -> dict:
    entry: dict = {}
    for form in _FORMS:
        # For real pairs this is the sweep's shared zeros column: no product has an e123 part.
        scalar = pr.sweeps[form][MeasureKind.DIRECTED_TRIVECTOR].columns[0]
        max_scalar = _max_magnitude(list(map(abs, scalar))) if any(scalar) else 0.0
        entry[form] = {
            "max_abs_scalar_component": max_scalar,
            "nonzero_scalar_attained": max_scalar > 0.0,
        }
    # The sweep itself: the JSON writer writes it as one row per grid point.
    entry["identity"]["probe"] = pr.sweeps["identity"][MeasureKind.DIRECTED_TRIVECTOR]
    return entry


def _chsh_section(config: AuditConfig) -> dict:
    scenario = ChshScenario.from_angles(config.angles_deg)
    scalarizers = default_scalarizers()
    maxima = dict(zip(
        (s.name for s in scalarizers),
        scalarizer_maxima(scalarizers, trials=config.trials, seed=config.seed),
    ))
    s_value = chsh(quantum_target, scenario)
    return {
        "angles_deg": list(config.angles_deg),
        "scenario": {f.name: list(getattr(scenario, f.name).components()) for f in fields(scenario)},
        "lhv_bruteforce_bound": lhv_bruteforce_bound(),
        "trials": config.trials,
        "seed": config.seed,
        "scalarizer_maxima": maxima,
        "quantum_target_s": s_value,
        "quantum_target_exceeds_lhv_bound": abs(s_value) > 2.0,
    }


@dataclass(frozen=True)
class Claim:
    """One audited claim; ``statement`` doubles as its text verdict line.
    ``evaluate(doc, pairs)`` reads the report document's sections and the
    audited pairs, and returns ``(ok, observed)``: ``ok is None`` means
    informational.  Most claims below decorate their evaluator with
    ``partial(Claim, id, statement, check)``."""

    id: str
    statement: str
    check: str
    evaluate: Callable[[dict, list[_AuditedPair]], tuple[bool | None, dict]]


@partial(Claim, "observable_product_splits",
         "the observable product splits into a scalar part -a.b and a bivector part of magnitude |a x b|",
         "both product forms, every audited pair, both orientations: grade-0 equals "
         "-dot(a,b), grade-2 magnitude equals |cross(a,b)|, grades 1 and 3 vanish")
def _observable_product_splits(doc, pairs):
    grade13 = _max_magnitude([mv.grade_norm(g) for pr in pairs for mv in pr.every_product()
                              for g in (1, 3)])
    ok = all(c["scalar_parts_match_minus_dot"] and c["bivector_magnitudes_match_cross_norm"]
             for c in doc["identity_check"].values())
    return ok and grade13 <= doc["config"]["tolerance"], {"max_offgrade_magnitude": grade13}


def _codomain(kind: MeasureKind, doc, pairs):
    tol = doc["config"]["tolerance"]
    supports = {}
    ok = True
    for pr in pairs:
        support = doc["grade_support"][pr.key]["identity"][kind.value]
        observed = list(support["present"])
        # Each part of the product reaches its grade unless it vanishes here.
        parts = (abs(pr.dot), pr.cross_norm)
        expected = sorted(g for g, part in zip(_GRADES_FED[kind], parts)
                          if (g in observed if _undecided(part, tol) else part > tol))
        supports[pr.key] = {"observed": observed, "expected": expected}
        # A NaN peak leaves its grade out of the observed support, which then proves nothing.
        ok = ok and observed == expected and not any(map(math.isnan, support["max_magnitude"]))
    return ok, {"supports": supports}


_scalar_weight_codomain = Claim(
    "scalar_weight_codomain",
    "under conventional scalar weights the expectation family sweeps scalar and bivector grades",
    "identity-form sweep support over the p-grid equals {0,2}, dropping grade 0 when a.b = 0 "
    "and grade 2 when a x b = 0", partial(_codomain, MeasureKind.SCALAR_WEIGHTS))
_directed_codomain = Claim(
    "directed_codomain",
    "under the directed trivector measure the expectation family sweeps vector and trivector grades",
    "identity-form sweep support over the p-grid equals {1,3}, dropping grade 3 when a.b = 0 "
    "and grade 1 when a x b = 0", partial(_codomain, MeasureKind.DIRECTED_TRIVECTOR))


@partial(Claim, "orthogonal_zero_graded",
         "the isotropic average at orthogonal settings is the zero element of a non-scalar subspace",
         "for orthogonal pairs the isotropic identity-form expectation is zero while its "
         "contributing terms occupy grade 2 (scalar weights) and grade 1 (directed)")
def _orthogonal_zero_graded(doc, pairs):
    tol = doc["config"]["tolerance"]
    cases = {}
    ok = True
    for pr in pairs:
        # The isotropic terms carry |a x b| / 2, which must clear the tolerance.
        undecided = _undecided(pr.cross_norm, 2.0 * tol)
        if abs(pr.dot) > tol or (pr.cross_norm <= 2.0 * tol and not undecided):
            continue
        for kind, (_, cross_grade) in _GRADES_FED.items():
            result = pr.sweeps["identity"][kind].isotropic
            zero = result.value.max_abs_coeff() <= tol
            present = result.term_support.present
            ok = ok and zero and (present == {cross_grade} or undecided and not present)
            cases[f"{pr.key}|{kind.value}"] = {
                "value_is_zero": zero,
                "term_support": list(result.term_support.grades()),
            }
    return ok and bool(cases), {"cases": cases}


@partial(Claim, "nonisotropic_leak",
         "non-isotropic distributions leak a non-scalar component of magnitude |2p-1|*|a x b|",
         "identity form, every pair and grid point: the grade-2 leak (scalar weights) and "
         "grade-1 leak (directed) match |2p-1|*|cross(a,b)| within tolerance")
def _nonisotropic_leak(doc, pairs):
    # Every sweep of one audit runs over the same grid.
    grid = pairs[0].sweeps["identity"][_KINDS[0]].grid
    leak = [abs(2.0 * p - 1.0) for p in grid]
    worst = [0.0]
    for pr in pairs:
        for kind, (_, cross_grade) in _GRADES_FED.items():
            norms = pr.sweeps["identity"][kind].grade_norms[cross_grade]
            worst.append(_max_magnitude([abs(norm - scale * pr.cross_norm)
                                         for norm, scale in zip(norms, leak)]))
    worst = _max_magnitude(worst)
    return _close(worst, 1.0, doc["config"]["tolerance"]), {"max_leak_error": worst}


@partial(Claim, "directed_total_trivector",
         "directed measure normalizes to trivector",
         "the directed total equals e123 for every p on the grid, so the valid-probability "
         "flag is false; scalar weights total exactly 1 with the flag true")
def _directed_total_trivector(doc, pairs):
    n = doc["normalization"]
    ok = (n["directed_total_is_unit_trivector"]
          and not n["directed_valid_probability_measure"]
          and n["scalar_valid_probability_measure"]
          and n["totals_constant_over_grid"])
    return ok, {"directed_total_e123": n["directed_total"]["e123"],
                "scalar_total": n["scalar_total"]["scalar"]}


@partial(Claim, "directed_scalar_range_empty",
         "the directed-measure functional attains no nonzero scalar value",
         "both forms, every pair and grid point: the grade-0 component of the directed "
         "expectation stays within tolerance of zero")
def _directed_scalar_range_empty(doc, pairs):
    worst = _max_magnitude([entry[form]["max_abs_scalar_component"]
                            for entry in doc["functional_range"].values() for form in _FORMS])
    return worst <= doc["config"]["tolerance"], {"max_abs_scalar_component": worst}


@partial(Claim, "lhv_bound_two",
         "deterministic strategies bound the CHSH combination by 2",
         "exhaustive enumeration of the 16 sign strategies returns exactly 2")
def _lhv_bound_two(doc, pairs):
    bound = doc["chsh"]["lhv_bruteforce_bound"]
    return bound == 2.0, {"bound": bound}


@partial(Claim, "scalarized_chsh_classical",
         "every registered scalarization keeps CHSH within the classical bound",
         "seeded random scenarios and weights: max |S| <= 2 + tolerance for each "
         "registered scalarizer")
def _scalarized_chsh_classical(doc, pairs):
    maxima = doc["chsh"]["scalarizer_maxima"]
    return (all(v <= 2.0 + doc["config"]["tolerance"] for v in maxima.values()),
            {"maxima": dict(maxima)})


@partial(Claim, "projection_reproduces_violation",
         "the grade-0 projection alone reproduces the quantum-style CHSH violation while the unprojected expectation is not scalar-valued",
         "chsh of -a.b at the configured settings exceeds 2 in magnitude (and equals "
         "-2*sqrt(2) at the default settings) while the sweeps above show non-scalar grades")
def _projection_reproduces_violation(doc, pairs):
    s_value = doc["chsh"]["quantum_target_s"]
    grades = sorted({grade for pr in pairs for kind in _KINDS
                     for grade in pr.sweeps["identity"][kind].support.present})
    observed = {"s": s_value, "abs_s": abs(s_value), "non_scalar_grades": grades}
    if abs(s_value) <= 2.0:
        return None, {**observed, "reason": "configured settings do not probe the violation"}
    ok = any(grade != 0 for grade in grades)
    if tuple(doc["config"]["angles_deg"]) == DEFAULT_ANGLES_DEG:
        ok = ok and _close(abs(s_value + 2.0 * math.sqrt(2.0)), s_value, doc["config"]["tolerance"])
    return ok, observed


# The claim table, in report order; every reader of the claims iterates it.
CLAIM_MAP: tuple[Claim, ...] = (
    _observable_product_splits, _scalar_weight_codomain, _directed_codomain,
    _orthogonal_zero_graded, _nonisotropic_leak, _directed_total_trivector,
    _directed_scalar_range_empty, _lhv_bound_two, _scalarized_chsh_classical,
    _projection_reproduces_violation,
)


# ---------------------------------------------------------------------------
# Emission


def _json_float(x: float) -> str:
    """``float.__repr__`` of ``x`` rounded to 15 significant digits, zero as
    ``0.0``.  NaN and the infinities raise ``ValueError``, as
    ``json.dumps(allow_nan=False)`` does; a finite value that rounds past the
    largest float is written unrounded."""
    if x == 0.0:
        return "0.0"
    s = f"{x:.15g}"
    # At most 15 significant digits in fixed notation is already the
    # shortest repr of the rounded float.
    if "." in s and "e" not in s:
        return s
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    r = float(s)
    return float.__repr__(r if math.isfinite(r) else x)


def _json_document(tree) -> str:
    """``json.dumps(tree, indent=2, allow_nan=False) + "\\n"`` in one direct
    pass, each float rounded by ``_json_float``, with a ``Sweep`` written as
    the list of its rows (see ``_json_sweep``).  Dict keys must be strings;
    a value of any other type than str, int, float, bool, None, dict, list,
    tuple or ``Sweep`` raises ``TypeError``."""
    out: list[str] = []
    _json_walk(tree, "\n", out.append, {})
    out.append("\n")
    return "".join(out)


def _json_walk(obj, pad: str, put: Callable[[str], None], grids: dict) -> None:
    """Append the JSON pieces of ``obj`` through ``put``; ``pad`` is a newline
    and the indent of obj's own line.  A module-level function, not a closure
    over ``put``: a nested walker that calls itself holds a reference cycle to
    the whole list of pieces until the garbage collector breaks it."""
    if isinstance(obj, float):
        put(_json_float(obj))
    elif isinstance(obj, str):
        put(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = pad + "  "
        comma = "," + inner
        sep = "{" + inner
        for key, value in obj.items():
            put(f"{sep}{_quote(key)}: ")  # TypeError unless key is a str
            _json_walk(value, inner, put, grids)
            sep = comma
        put(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = pad + "  "
        comma = "," + inner
        sep = "[" + inner
        for value in obj:
            put(sep)
            _json_walk(value, inner, put, grids)
            sep = comma
        put(pad + "]")
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, Sweep):
        _json_sweep(obj, pad, put, grids)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_column(column) -> list[str]:
    """``_json_float`` of each value, from one ``%.15g`` pass: ``_json_float``
    keeps that text exactly when it has a ``.`` and no ``e``, so only the other
    cells (integral ones, exponent forms, NaN and the infinities) go through
    it.  A column with repeated values formats each distinct one once, in
    order of first appearance, so a NaN or infinity still raises from the
    first in the column; 0.0 and -0.0 share a key, both written ``0.0``."""
    distinct = dict.fromkeys(column)
    if len(distinct) < len(column):
        cells = dict(zip(distinct, _json_column(tuple(distinct))))
        return list(map(cells.__getitem__, column))
    text = "%.15g " * len(column) % tuple(column)
    cells = text.split()
    if text.count(".") < len(cells) or "e" in text:
        cells = [s if "." in s and "e" not in s else _json_float(x) for s, x in zip(cells, column)]
    return cells


def _json_sweep(swept: Sweep, pad: str, put: Callable[[str], None], grids: dict) -> None:
    """Put a sweep, whose grid ``sweeps`` keeps non-empty, as the JSON list of
    its rows, one per grid point in grid order:
    ``{"p": grid[j], "value": {"scalar": columns[0][j], ...}}``.  Each column
    goes through ``_json_column``, the grid once per document (``grids`` maps
    its id to the grid, held so that no other object takes the id, and its
    cells).  A column with no nonzero entry is ``0.0`` throughout, as
    ``_json_float`` writes either zero (a NaN is truthy), so it is a literal
    of the row template and not one of its cells.  A non-finite value raises
    from the first one in row order, as the walk over the rows would.  Every
    row goes through one ``%`` of that template."""
    row, inner, slot = pad + "  ", pad + "    ", pad + "      "
    live = [any(column) for column in swept.columns]
    template = ("{" + inner + '"p": %s,' + inner + '"value": {'
                + ",".join(slot + _quote(key) + (": %s" if on else ": 0.0")
                           for key, on in zip(_MV_KEYS, live))
                + inner + "}" + row + "}")
    grid = swept.grid
    try:
        held = grids.get(id(grid))
        if held is None:
            held = grids[id(grid)] = (grid, _json_column(grid))
        cells = zip(held[1], *map(_json_column, compress(swept.columns, live)))
    except ValueError:
        for x in chain.from_iterable(zip(grid, *swept.columns)):
            _json_float(x)
        raise
    # One piece per row: a table joined into one string (about 180 KB on a
    # 501-point grid) raised the sweep_fine benchmark's peak RSS by about 2 MB.
    put("[" + row + template % next(cells))
    rest = "," + row + template
    for values in cells:
        put(rest % values)
    put(pad + "]")


def emit(report: AuditReport, output_format: str | None = None) -> str:
    """Render the report as a text or json document (no trailing I/O)."""
    doc = report.document
    fmt = output_format or doc["config"]["output_format"]
    if fmt == "json":
        return _json_document(doc)
    if fmt == "text":
        return _render_text(doc)
    raise ValueError(f"unknown output format {fmt!r}")


def _num(x: float) -> str:
    return f"{x:.12g}"


def _mv_str(d: dict) -> str:
    return str(Multivector(tuple(d[k] for k in _MV_KEYS)))


def _render_text(doc: dict) -> str:
    cfg = doc["config"]
    lines: list[str] = []
    push = lines.append

    def section(title: str) -> None:
        lines.extend(("", title, "-" * 72))

    push(f"{doc['tool']['name']} audit report (v{doc['tool']['version']})")
    push("=" * 72)
    push(f"config: tolerance={cfg['tolerance']:g} | p-step={cfg['p_step']:g} | "
         f"angles={'/'.join(_num(x) for x in cfg['angles_deg'])} deg | "
         f"trials={cfg['trials']} | seed={cfg['seed']}")
    push(f"audited pairs: {', '.join(cfg['pairs'])}")

    section("claim map (id: statement | check)")
    for claim in doc["claim_map"]:
        push(f"  {claim['id']}:")
        push(f"    {claim['statement']}")
        push(f"    check: {claim['check']}")

    section("identity check (quoted product identity vs literal observable product)")
    for key, info in doc["identity_check"].items():
        push(f"pair {key}  (a.b = {_num(info['dot'])}, |a x b| = {_num(info['cross_norm'])})")
        for label, tag in (("orientation_plus", "+1"), ("orientation_minus", "-1")):
            row = info[label]
            push(f"  orientation {tag}: identity = {_mv_str(row['identity'])} | "
                 f"raw = {_mv_str(row['raw'])} | max coeff diff = {_num(row['max_coeff_diff'])}")
        push(f"  scalar parts equal -a.b: {_yn(info['scalar_parts_match_minus_dot'])} | "
             f"bivector magnitude equals |a x b|: {_yn(info['bivector_magnitudes_match_cross_norm'])}")
        push(f"  raw form orientation-independent: {_yn(info['raw_orientation_independent'])} | "
             f"identity bivector flips with orientation: {_yn(info['identity_bivector_flips_with_orientation'])}")

    section("grade support (family sweep over the p-grid)")
    for key, entry in doc["grade_support"].items():
        push(f"pair {key}")
        for form in _FORMS:
            for kind in _KINDS:
                support = entry[form][kind.value]["present"]
                rendered = "{" + ", ".join(str(g) for g in support) + "}"
                push(f"  {form:8s} | {kind.value:18s}: {rendered}")
        for kind in _KINDS:
            iso = entry["isotropic"]["identity"][kind.value]
            push(f"  isotropic expectation | {kind.value:18s}: {iso['rendered']}")

    section("normalization")
    n = doc["normalization"]
    push(f"scalar weights total: {_mv_str(n['scalar_total'])} | "
         f"valid probability measure: {_yn(n['scalar_valid_probability_measure'])}")
    push(f"directed trivector total: {_mv_str(n['directed_total'])} | "
         f"valid probability measure: {_yn(n['directed_valid_probability_measure'])}")
    push(f"totals constant over p-grid: {_yn(n['totals_constant_over_grid'])}")

    section("functional range under the directed measure")
    for key, entry in doc["functional_range"].items():
        push(f"pair {key}: max |scalar component| = "
             f"{_num(entry['identity']['max_abs_scalar_component'])} (identity), "
             f"{_num(entry['raw']['max_abs_scalar_component'])} (raw) | "
             f"nonzero scalar attained: {_yn(entry['identity']['nonzero_scalar_attained'])}")

    section("chsh")
    c = doc["chsh"]
    push(f"scenario angles: {'/'.join(_num(x) for x in c['angles_deg'])} deg (e1-e2 plane)")
    push(f"lhv brute-force bound: {_num(c['lhv_bruteforce_bound'])}")
    push(f"scalarizer maxima over {c['trials']} trials (seed {c['seed']}):")
    for name, value in c["scalarizer_maxima"].items():
        push(f"  {name}: {_num(value)}")
    push(f"quantum-target S: {_num(c['quantum_target_s'])} | "
         f"exceeds classical bound: {_yn(c['quantum_target_exceeds_lhv_bound'])}")

    section("verdicts")
    for claim in doc["claims"]:
        push(f"{claim['statement']}: {claim['verdict']}")

    section("notes")
    for note in doc["notes"]:
        push(f"- {note}")
    push("")
    return "\n".join(lines)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"
