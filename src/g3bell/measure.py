"""Expectation functionals over the orientation distribution, under two
measure kinds: conventional scalar weights p(lambda), and the directed
variant that assigns each atom the trivector weight p(lambda)*I.

The directed total is I rather than the scalar 1 for every distribution,
so its valid-probability flag is always false.  Grade support of a
functional is reported from a sweep over a distribution family, never from
a single evaluation, because the isotropic point hides the non-scalar
grades inside an exact zero.  ``sweeps`` sweeps one product form under
several kinds in one pass, sharing each column of equal weights and each
grade's norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .ga import (
    DEFAULT_TOLERANCE,
    GRADES,
    GRADE_SLOTS,
    GradeSupport,
    I,
    ONE,
    Multivector,
    Vector3,
    _max_magnitude,
    grade_audit,
    gp,
)
from .model import ISOTROPIC, ORIENTATIONS, OrientationDistribution, ProductForm

# Terms are weighted at a 2**54 scale and unscaled once summed, so a subnormal
# coefficient survives the p = 1/2 average; for normal numbers no bit changes.
_SCALE = 2.0 ** 54
_UNSCALE = 2.0 ** -54


class MeasureKind(Enum):
    SCALAR_WEIGHTS = "scalar_weights"
    DIRECTED_TRIVECTOR = "directed_trivector"


# Each grade's coefficient slots are contiguous.
_GRADE_SPANS = tuple(slice(slots[0], slots[-1] + 1) for slots in GRADE_SLOTS.values())

# The weight of one orientation atom is p(lambda) times its kind's unit.
_UNIT = {MeasureKind.SCALAR_WEIGHTS: ONE, MeasureKind.DIRECTED_TRIVECTOR: I}


def measure_total(dist: OrientationDistribution, kind: MeasureKind) -> Multivector:
    """Total weight of the measure: scalar 1, or the trivector I.  It is
    ``measure_total_columns`` read at its one point p_plus."""
    return Multivector(next(zip(*measure_total_columns((dist.p_plus,), kind))))


def measure_total_columns(grid: tuple[float, ...],
                          kind: MeasureKind) -> tuple[tuple[float, ...], ...]:
    """The measure total at each grid point, column-major: ``columns[i][j]`` is
    slot ``i`` of ``unit.scale(p) + unit.scale(1 - p)`` at ``p = grid[j]``."""
    # Built a point at a time and transposed: cheapest at measure_total's one point.
    return tuple(zip(*[[p * u + (1.0 - p) * u for u in _UNIT[kind].coeffs] for p in grid]))


def is_valid_probability_measure(total: Multivector, tol: float) -> bool:
    """True iff the measure total is the scalar 1 within tolerance."""
    return total.max_abs_diff(ONE) <= tol


@dataclass(frozen=True)
class ExpectationResult:
    """Outcome of one expectation evaluation.

    ``support`` audits the summed value; ``term_support`` is the union over
    the per-atom contributions before they cancel, which is what
    distinguishes a zero bivector (or zero vector) from a zero scalar.
    """

    value: Multivector
    support: GradeSupport
    term_support: GradeSupport
    measure_total: Multivector
    valid_probability_measure: bool


def _atom_sums(product_fn: ProductForm, a: Vector3, b: Vector3, kinds, points, zeros=None):
    """The expectation at each point ``(p, q)``, p and q weighing the + and -
    atoms, as one tuple of columns per kind: ``columns[i][j]`` is slot ``i`` at
    ``points[j]``; p may be a polynomial.  A column depends only on its slot's
    weights ``(t, u)``, the atoms' products times the kind's unit at the 2**54
    scale: weights seen before share a column, and zero ones the column
    ``zeros``, by default a new tuple of +0.0.  An atom of weight 0 drops out."""
    # product*1, or product*I (a signed permutation), is exact at any scale.
    plus, minus = [product_fn(a, b, hv).scale(_SCALE) for hv in ORIENTATIONS]
    # +-0.0 keys are equal: the + 0.0 below erases the sign.
    seen = {(0.0, 0.0): (0.0,) * len(points) if zeros is None else zeros}
    swept = []
    for kind in kinds:
        columns = []
        for t, u in zip(gp(plus, _UNIT[kind]).coeffs, gp(minus, _UNIT[kind]).coeffs):
            column = seen.get((t, u))
            if column is None:
                if t * 0.0 == u * 0.0 == 0.0:
                    # (A + B) + 0.0 == (0.0 + A) + (0.0 + B) bitwise: never -0.0.
                    column = tuple([_UNSCALE * (t * p + u * q + 0.0) for p, q in points])
                else:  # NaN or infinite weights: a weightless atom adds +0.0, not t * 0.0
                    # (for finite weights the guards change no bit, but cost 16% per point).
                    column = tuple([_UNSCALE * ((t * p if p else 0.0) + (u * q if q else 0.0) + 0.0)
                                    for p, q in points])
                seen[t, u] = column
            columns.append(column)
        swept.append(tuple(columns))
    return swept


def expectation(product_fn: ProductForm, a: Vector3, b: Vector3,
                dist: OrientationDistribution, kind: MeasureKind,
                tol: float = DEFAULT_TOLERANCE) -> ExpectationResult:
    """Sum of product_fn(a, b, lambda) times the atom weight, over lambda.

    The weight multiplies on the right; I is central in G3, so the side
    does not matter for the directed kind.  The value is the atom sum at
    ``(p, 1 - p)``, each atom's term the sum at ``(p, 0)`` or ``(0, q)``: a NaN
    or infinite coefficient of one atom leaves the other atom's term as it is.
    """
    p, q = dist.p_plus, dist.p_minus
    [columns] = _atom_sums(product_fn, a, b, (kind,), ((p, q), (p, 0.0), (0.0, q)))
    value, plus, minus = map(Multivector, zip(*columns))
    total = measure_total(dist, kind)
    return ExpectationResult(
        value=value,
        support=grade_audit(value, tol),
        term_support=grade_audit(plus, tol).union(grade_audit(minus, tol)),
        measure_total=total,
        valid_probability_measure=is_valid_probability_measure(total, tol),
    )


def p_grid_size(step: float) -> int:
    """len(p_grid(step)), computed without building the grid."""
    if not 0.0 < step <= 1.0:
        raise ValueError(f"p-grid step must lie in (0, 1], got {step!r}")
    span = 1.0 / step + 1e-9
    if span == math.inf:
        raise ValueError(f"p-grid step {step!r} is too small to count its points")
    last = int(math.floor(span))
    if last * step > 1.0 + 1e-12:
        last -= 1
    # A last multiple within 1e-12 of 1 is snapped to 1; otherwise 1 is appended.
    return last + 1 + (last * step < 1.0 - 1e-12)


def p_grid(step: float) -> tuple[float, ...]:
    """Distribution family grid: p = 0, step, 2*step, ... ending at exactly 1."""
    # float(step): an int step of 1 still gives the float point 0.0.
    return tuple(i * float(step) for i in range(p_grid_size(step) - 1)) + (1.0,)


DEFAULT_P_STEP = 0.05
DEFAULT_P_GRID = p_grid(DEFAULT_P_STEP)


@dataclass(frozen=True)
class Sweep:
    """One product form under one measure kind over a p-grid: the value at
    each point, the magnitude of each grade at each point, their union grade
    support, and the isotropic expectation.

    The values are the atom sum's columns: ``columns[i][j]`` is coefficient
    slot ``i`` of the value at ``grid[j]``, and ``grade_norms[k][j]`` is that
    value's ``grade_norm(k)``, bit for bit, so a reader of per-point grade
    magnitudes need not recompute them.
    """

    grid: tuple[float, ...]
    columns: tuple[tuple[float, ...], ...]
    grade_norms: tuple[tuple[float, ...], ...]
    support: GradeSupport
    isotropic: ExpectationResult


def sweeps(product_fn: ProductForm, a: Vector3, b: Vector3, kinds,
           grid: tuple[float, ...] = DEFAULT_P_GRID,
           tol: float = DEFAULT_TOLERANCE) -> dict[MeasureKind, Sweep]:
    """One product form under each of ``kinds``: the expectation at every
    grid point from two product evaluations, one coefficient slot at a time.

    Each value is ``expectation``'s atom sum, bit for bit.  A grade norm is
    ``grade_norm``'s root of the squares ``c * c`` added left to right over
    the grade's slots with weights not both zero (a dropped square, +0.0,
    changes no bit), computed in one pass per ordered tuple of the live
    columns.  A peak is the largest norm (``sqrt`` is monotone and correctly
    rounded, so it is the root of the largest square), or NaN where a norm is
    NaN; a grade with a NaN peak counts as absent.
    """
    grid = tuple(grid)
    # One pass checks the grid (a NaN fails both comparisons) and weighs it.
    points = [(p, 1.0 - p) for p in grid if 0.0 <= p <= 1.0]
    if not grid or len(points) < len(grid):
        raise ValueError("p-grid must be non-empty with every point in [0, 1]")
    zeros = (0.0,) * len(grid)
    sqrt = math.sqrt
    graded = {}  # ids of a grade's live columns -> their norms and peak, if any is live
    swept = {}
    for kind, columns in zip(kinds, _atom_sums(product_fn, a, b, kinds, points, zeros)):
        found = []
        for span in _GRADE_SPANS:
            live = [c for c in columns[span] if c is not zeros]
            key = tuple(map(id, live))
            if live and key not in graded:
                if len(live) == 3:
                    norms = tuple([sqrt(x * x + y * y + z * z) for x, y, z in zip(*live)])
                elif len(live) == 2:
                    norms = tuple([sqrt(x * x + y * y) for x, y in zip(*live)])
                else:
                    norms = tuple([sqrt(x * x) for x in live[0]])
                graded[key] = norms, _max_magnitude(norms)
            found.append(graded.get(key, (zeros, 0.0)))
        grade_norms, peaks = zip(*found)
        swept[kind] = Sweep(
            grid=grid,
            columns=columns,
            grade_norms=grade_norms,
            support=GradeSupport(frozenset(k for k in GRADES if peaks[k] > tol), peaks),
            isotropic=expectation(product_fn, a, b, ISOTROPIC, kind, tol),
        )
    return swept


def codomain_support(product_fn: ProductForm, a: Vector3, b: Vector3,
                     kind: MeasureKind, grid: tuple[float, ...] = DEFAULT_P_GRID,
                     tol: float = DEFAULT_TOLERANCE) -> GradeSupport:
    """Attainable grade support of the expectation as the family varies.

    Union of the per-point audits over the grid, so a grade that only shows
    away from the isotropic point is still counted.
    """
    return sweeps(product_fn, a, b, (kind,), grid, tol)[kind].support

