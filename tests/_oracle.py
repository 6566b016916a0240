"""Independent reference arithmetic for the tests.

Basis-blade products are derived here from first principles: concatenate the
index lists, bubble-sort to canonical order counting a sign flip per swap,
and contract equal adjacent indices with the Euclidean metric (+1).  That
part uses nothing from the package under test, so comparisons against it are
a genuine dual route.

``reference_p_grid`` is the p-grid builder as first written, clamping passes
and all; ``p_grid`` must return the same tuple for every step.

The CHSH Monte Carlo reference at the end is the straightforward loop that
``scalarizer_maxima`` streamlines: a fresh generator per scalarizer and the
definitional ``chsh`` over ``scalar_correlation``.  It is built on those
package definitions and serves as a bitwise oracle for the fast path.

``reference_expectation`` is the expectation as first written: a loop over
the two orientation atoms that adds each weighted term to ``ZERO`` through
``gp``.  ``expectation`` and every ``sweep`` value must match it bit for bit,
sign of zero included.

``reference_within`` is the normalization section's tolerance test as first
written, one comparison per point; ``_within`` decides each column from its
extremes and must agree with it.

``reference_emit_json`` is the JSON emission as first written: a copy of the
tree with every float rounded to 15 significant digits and every ``Sweep``
expanded into its rows (``reference_sweep_rows``), then the stdlib encoder
at ``indent=2`` with ``allow_nan=False``.  The report emitter must write the
same bytes.
"""

from __future__ import annotations

import json
import math
import random

from g3bell.bell import ChshScenario, chsh, scalar_correlation
from g3bell.ga import GradeSupport, Vector3, ZERO, grade_audit, gp
from g3bell.audit import _MV_KEYS
from g3bell.measure import (_SCALE, _UNIT, _UNSCALE, ExpectationResult, Sweep,
                            is_valid_probability_measure, measure_total)
from g3bell.model import ORIENTATIONS, OrientationDistribution

ORACLE_BLADES = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


def oracle_blade_product(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(sign, canonical blade) for the product of two basis blades."""
    seq = list(u) + list(v)
    sign = 1
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                swapped = True
    out: list[int] = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            i += 2  # e_k e_k = +1
        else:
            out.append(seq[i])
            i += 1
    return sign, tuple(out)


def oracle_table() -> list[list[tuple[int, int]]]:
    """Full 8x8 table of (sign, result slot) pairs."""
    table = []
    for u in ORACLE_BLADES:
        row = []
        for v in ORACLE_BLADES:
            sign, blade = oracle_blade_product(u, v)
            row.append((sign, ORACLE_BLADES.index(blade)))
        table.append(row)
    return table


_TABLE = oracle_table()


def oracle_gp(x: tuple[float, ...], y: tuple[float, ...]) -> tuple[float, ...]:
    """Geometric product on raw coefficient 8-tuples via the oracle table."""
    out = [0.0] * 8
    for i, xi in enumerate(x):
        if xi == 0.0:
            continue
        for j, yj in enumerate(y):
            if yj == 0.0:
                continue
            sign, slot = _TABLE[i][j]
            out[slot] += sign * xi * yj
    return tuple(out)


def reference_unit_vector(rng: random.Random):
    """Normalized Gaussian triple, normalizing through ``Vector3.normalized``
    (which takes the norm a second time)."""
    while True:
        v = Vector3(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        if v.norm() > 1e-6:
            return v.normalized()


def reference_scalarizer_maxima(scalarizers, trials: int, seed: int) -> tuple[float, ...]:
    """Max |S| per scalarizer, re-seeding and redrawing every scenario for
    each scalarizer and evaluating S through ``chsh``."""
    maxima = []
    for s in scalarizers:
        rng = random.Random(seed)
        worst = 0.0
        for _ in range(trials):
            scenario = ChshScenario(
                reference_unit_vector(rng),
                reference_unit_vector(rng),
                reference_unit_vector(rng),
                reference_unit_vector(rng),
            )
            dist = OrientationDistribution(rng.random())
            value = abs(chsh(lambda a, b: scalar_correlation(s, a, b, dist), scenario))
            if value > worst:
                worst = value
        maxima.append(worst)
    return tuple(maxima)


def reference_p_grid(step: float) -> tuple[float, ...]:
    """The original p-grid: multiples of step, filtered, clamped and snapped."""
    count = int(math.floor(1.0 / step + 1e-9))
    points = [i * step for i in range(count + 1)]
    points = [p for p in points if p <= 1.0 + 1e-12]
    points[-1] = min(points[-1], 1.0)
    if points[-1] < 1.0 - 1e-12:
        points.append(1.0)
    points[0] = 0.0
    if abs(points[-1] - 1.0) <= 1e-12:
        points[-1] = 1.0
    return tuple(points)


def reference_expectation(product_fn, a, b, dist, kind, tol=1e-12) -> ExpectationResult:
    """The original expectation: each atom's term is the 2**54-scaled product
    times the weighted unit, and the terms are summed from ``ZERO``."""
    scaled = ZERO
    term_support = GradeSupport(frozenset(), (0.0, 0.0, 0.0, 0.0))
    for hv in ORIENTATIONS:
        term = gp(product_fn(a, b, hv).scale(_SCALE), _UNIT[kind].scale(dist.weight(hv)))
        term_support = term_support.union(grade_audit(term.scale(_UNSCALE), tol))
        scaled = scaled + term
    value = scaled.scale(_UNSCALE)
    total = measure_total(dist, kind)
    return ExpectationResult(
        value=value,
        support=grade_audit(value, tol),
        term_support=term_support,
        measure_total=total,
        valid_probability_measure=is_valid_probability_measure(total, tol),
    )


def reference_within(columns, target, tol: float) -> bool:
    """True iff ``abs(x - t) <= tol`` at every point ``x`` of every column,
    ``t`` its slot's target: a NaN fails."""
    return all(abs(x - t) <= tol for column, t in zip(columns, target) for x in column)


def _reference_round15(x: float) -> float:
    if x == 0.0:
        return 0.0
    return float(f"{x:.15g}")


def reference_sweep_rows(swept: Sweep) -> list[dict]:
    """A sweep as the report's probe first held it: per grid point, ``p`` and
    then the value's 8 coefficients by slot name."""
    return [{"p": p, "value": dict(zip(_MV_KEYS, coeffs))}
            for p, coeffs in zip(swept.grid, zip(*swept.columns))]


def _reference_round_tree(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _reference_round15(obj)
    if isinstance(obj, Sweep):
        return _reference_round_tree(reference_sweep_rows(obj))
    if isinstance(obj, dict):
        return {k: _reference_round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_round_tree(v) for v in obj]
    return obj


def reference_emit_json(tree) -> str:
    """The original JSON document: a rounded copy, then ``json.dumps``."""
    return json.dumps(_reference_round_tree(tree), indent=2, allow_nan=False) + "\n"
