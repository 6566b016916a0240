import math
from fractions import Fraction
from unittest import mock

import pytest
import hypothesis
from hypothesis import example, given, assume
from hypothesis import strategies as st

from g3bell.audit import _KINDS
from g3bell.ga import GRADE_SLOTS, GRADES, GradeSupport, I, ONE, Multivector, Vector3, ZERO, cross, dot
from g3bell.measure import (
    _UNIT,
    DEFAULT_P_GRID,
    MeasureKind,
    _atom_sums,
    codomain_support,
    expectation,
    is_valid_probability_measure,
    measure_total,
    measure_total_columns,
    p_grid,
    p_grid_size,
    sweeps,
)
from g3bell.model import (
    ISOTROPIC,
    OrientationDistribution,
    product_identity,
    product_raw,
)

from _oracle import reference_expectation, reference_p_grid

TOL = 1e-12

SCALAR = MeasureKind.SCALAR_WEIGHTS
DIRECTED = MeasureKind.DIRECTED_TRIVECTOR

E1V = Vector3(1, 0, 0)
E2V = Vector3(0, 1, 0)
S2 = 1.0 / math.sqrt(2.0)
GENERIC = Vector3(S2, S2, 0.0)  # neither parallel nor orthogonal to e1

coords = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def unit_vectors():
    def build(xyz):
        v = Vector3(*xyz)
        assume(v.norm() > 1e-3)
        return v.normalized()
    return st.tuples(coords, coords, coords).map(build)


probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# --- measure totals -----------------------------------------------------------

def test_measure_total_scalar_weights_is_exactly_one():
    assert measure_total(OrientationDistribution(0.5), SCALAR) == Multivector.scalar(1.0)


@pytest.mark.parametrize("p", [0.5, 0.3, 0.0, 1.0])
def test_measure_total_directed_is_exactly_the_pseudoscalar(p):
    assert measure_total(OrientationDistribution(p), DIRECTED) == I


@given(probabilities)
def test_measure_totals_independent_of_p(p):
    dist = OrientationDistribution(p)
    assert measure_total(dist, SCALAR) == Multivector.scalar(1.0)
    assert measure_total(dist, DIRECTED) == I


# --- expectation examples ------------------------------------------------------

def test_expectation_orthogonal_isotropic_scalar_weights():
    result = expectation(product_identity, E1V, E2V, OrientationDistribution(0.5), SCALAR)
    assert result.value == ZERO
    assert result.support.present == frozenset()
    assert result.term_support.present == frozenset({2})
    assert result.valid_probability_measure


def test_expectation_single_atom_scalar_weights():
    result = expectation(product_identity, E1V, E2V, OrientationDistribution(1.0), SCALAR)
    assert result.value == Multivector.blade(4, -1.0)  # -e12
    assert result.support.present == frozenset({2})


def test_expectation_parallel_isotropic_directed():
    result = expectation(product_identity, E1V, E1V, OrientationDistribution(0.5), DIRECTED)
    assert result.value == -I
    assert result.support.present == frozenset({3})
    assert not result.valid_probability_measure


def test_expectation_orthogonal_single_atom_directed():
    result = expectation(product_identity, E1V, E2V, OrientationDistribution(1.0), DIRECTED)
    assert result.value == Multivector.blade(3, 1.0)  # +e3: bivector times trivector
    assert result.support.present == frozenset({1})


def test_expectation_measure_total_recorded():
    result = expectation(product_identity, E1V, E2V, OrientationDistribution(0.25), DIRECTED)
    assert result.measure_total == I


# --- sweep grid -----------------------------------------------------------------

def test_default_p_grid_shape():
    assert len(DEFAULT_P_GRID) == 21
    assert DEFAULT_P_GRID[0] == 0.0
    assert DEFAULT_P_GRID[-1] == 1.0
    assert 0.5 in DEFAULT_P_GRID


@pytest.mark.parametrize("slot", range(8))
def test_probability_measure_check_rejects_a_nan_coefficient(slot):
    total = Multivector.scalar(1.0) + Multivector.blade(slot, math.nan)
    assert is_valid_probability_measure(Multivector.scalar(1.0), TOL)
    assert not is_valid_probability_measure(total, TOL)


def test_p_grid_step_one_is_endpoints():
    assert p_grid(1.0) == (0.0, 1.0)
    # An int step gives float points too, as the report writes them.
    assert list(map(type, p_grid(1))) == [float, float]


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
def test_p_grid_rejects_bad_step(bad):
    with pytest.raises(ValueError):
        p_grid(bad)


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, math.nan, 5e-324])
def test_p_grid_size_rejects_bad_step(bad):
    with pytest.raises(ValueError):
        p_grid_size(bad)


def test_p_grid_size_counts_without_building():
    assert p_grid_size(1e-9) == 1_000_000_001


steps = st.one_of(
    st.floats(min_value=1e-3, max_value=1.0),
    st.integers(min_value=1, max_value=1000).map(lambda n: 1.0 / n),
    st.sampled_from([0.05, 0.03, 0.1, 0.2, 0.3, 0.7, 0.002, 1.0 / 3.0, 0.1 + 1e-13,
                     0.2 * (1.0 + 1e-10), 0.25 * (1.0 - 1e-13)]),
)


@given(steps)
def test_p_grid_matches_reference_and_size(step):
    grid = p_grid(step)
    assert grid == reference_p_grid(step)
    assert len(grid) == p_grid_size(step)


# --- codomain sweeps --------------------------------------------------------------

def test_codomain_support_orthogonal_pair():
    assert codomain_support(product_identity, E1V, E2V, SCALAR).present == frozenset({2})
    assert codomain_support(product_identity, E1V, E2V, DIRECTED).present == frozenset({1})


def test_codomain_support_generic_pair():
    assert codomain_support(product_identity, E1V, GENERIC, SCALAR).present == frozenset({0, 2})
    assert codomain_support(product_identity, E1V, GENERIC, DIRECTED).present == frozenset({1, 3})


def test_codomain_support_parallel_pair():
    assert codomain_support(product_identity, E1V, E1V, SCALAR).present == frozenset({0})
    assert codomain_support(product_identity, E1V, E1V, DIRECTED).present == frozenset({3})


def test_codomain_support_endpoints_only_grid_matches_default():
    for kind in (SCALAR, DIRECTED):
        full = codomain_support(product_identity, E1V, GENERIC, kind, DEFAULT_P_GRID)
        ends = codomain_support(product_identity, E1V, GENERIC, kind, p_grid(1.0))
        assert full.present == ends.present


def test_codomain_support_rejects_empty_grid():
    with pytest.raises(ValueError):
        codomain_support(product_identity, E1V, E2V, SCALAR, ())


# --- functional range probe ---------------------------------------------------------

def test_probe_isotropic_orthogonal_is_zero():
    s = sweeps(product_identity, E1V, E2V, (DIRECTED,), (0.5,))[DIRECTED]
    assert list(zip(s.grid, map(Multivector, zip(*s.columns)))) == [(0.5, ZERO)]


def test_probe_single_atom_orthogonal():
    s = sweeps(product_identity, E1V, E2V, (DIRECTED,), (1.0,))[DIRECTED]
    [(p, value)] = zip(s.grid, map(Multivector, zip(*s.columns)))
    assert p == 1.0
    assert value == Multivector.blade(3, 1.0)


def test_probe_isotropic_generic_is_pure_trivector():
    s = sweeps(product_identity, E1V, GENERIC, (DIRECTED,), (0.5,))[DIRECTED]
    [value] = map(Multivector, zip(*s.columns))
    assert value.max_abs_diff(Multivector.blade(7, -S2)) <= TOL


def test_probe_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweeps(product_identity, E1V, E2V, (DIRECTED,), ())


@pytest.mark.parametrize("grid", [(), (0.5, 1.5), (-0.1,), (math.nan,)])
def test_sweep_rejects_bad_grid(grid):
    with pytest.raises(ValueError):
        sweeps(product_identity, E1V, E2V, (SCALAR,), grid)


@pytest.mark.parametrize("grid", [(0.0, math.nan, 1.0), (0.0, 0.5, 1.0000001)])
def test_sweep_rejects_one_bad_point_among_good_ones(grid):
    with pytest.raises(ValueError):
        sweeps(product_identity, E1V, GENERIC, (DIRECTED,), grid)


@pytest.mark.parametrize("kind", [SCALAR, DIRECTED])
def test_measure_total_columns_are_the_totals_bitwise(kind):
    grid = p_grid(0.001) + (0.3, 1.0 / 3.0, 5e-324, 1.0 - 2.0 ** -53)
    columns = measure_total_columns(grid, kind)
    assert len(columns) == 8
    for j, p in enumerate(grid):
        total = _UNIT[kind].scale(p) + _UNIT[kind].scale(1.0 - p)
        assert [c[j].hex() for c in columns] == [x.hex() for x in total.coeffs]
        one_point = measure_total(OrientationDistribution(p), kind)
        assert [x.hex() for x in one_point.coeffs] == [x.hex() for x in total.coeffs]


def test_sweep_builds_no_per_point_multivector(monkeypatch):
    # The values are stored as coefficient columns; Multivectors are built
    # per product and for the isotropic record, never per grid point.
    calls = []
    original = Multivector.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Multivector, "__init__", counted)
    counts = []
    for step in (0.1, 0.001):
        calls.clear()
        sweeps(product_identity, E1V, GENERIC, (DIRECTED,), p_grid(step))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_sweep_isotropic_record_off_grid():
    swept = sweeps(product_identity, E1V, E2V, (SCALAR,), (0.0, 1.0))[SCALAR]
    assert swept.grid == (0.0, 1.0)
    assert swept.isotropic == expectation(product_identity, E1V, E2V, ISOTROPIC, SCALAR)
    assert swept.isotropic.term_support.present == frozenset({2})


# --- expectation and the sweep against the expectation as first written ------------------

def _bits(mv):
    return [(c, math.copysign(1.0, c)) for c in mv.coeffs]


def _assert_same_result(result, reference):
    assert _bits(result.value) == _bits(reference.value)
    assert result.support == reference.support
    assert result.term_support == reference.term_support
    assert result.measure_total == reference.measure_total
    assert result.valid_probability_measure == reference.valid_probability_measure


# Axis vectors with signed zeros, and settings whose dot product is subnormal.
SPECIAL = [Vector3(*v) for v in ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (-0.0, 0.0, -1.0),
                                  (0.6, -0.0, -0.8), (0.0, 1.0, 5e-324),
                                  (0.0, 1.0, 2.225e-308), (0.0, 0.0, 1.0))]
settings = st.one_of(st.sampled_from(SPECIAL), unit_vectors())
forms = st.sampled_from([product_identity, product_raw])
kinds = st.sampled_from([SCALAR, DIRECTED])
weights = st.one_of(probabilities, st.sampled_from([0.0, 0.5, 1.0, 5e-324, 1.0 - 2.0 ** -53]))


@given(forms, settings, settings, kinds, weights)
@example(product_identity, E1V, E2V, SCALAR, 0.5)  # the terms cancel to +0.0
@example(product_identity, Vector3(0.0, 0.0, 1.0), Vector3(0.0, 1.0, 5e-324), DIRECTED, 0.5)
def test_expectation_bitwise_equals_reference(form, a, b, kind, p):
    dist = OrientationDistribution(p)
    _assert_same_result(expectation(form, a, b, dist, kind),
                        reference_expectation(form, a, b, dist, kind))


def grids():
    points = st.lists(probabilities, min_size=1, max_size=12)
    with_half = points.flatmap(lambda ps: st.permutations(ps + [0.5]))
    without_half = points.map(lambda ps: [p for p in ps if p != 0.5]).filter(bool)
    on_p_grid = st.floats(min_value=0.02, max_value=1.0).map(p_grid)
    return st.one_of(with_half, without_half, on_p_grid).map(tuple)


@given(forms, settings, settings, kinds, grids())
def test_sweep_values_bitwise_equal_expectation(form, a, b, kind, grid):
    swept = sweeps(form, a, b, (kind,), grid)[kind]
    assert swept.grid == grid
    values = list(map(Multivector, zip(*swept.columns)))
    assert len(values) == len(grid)
    union = GradeSupport(frozenset(), (0.0,) * 4)
    for p, value in zip(grid, values):
        reference = reference_expectation(form, a, b, OrientationDistribution(p), kind)
        assert _bits(value) == _bits(reference.value)
        union = union.union(reference.support)
    assert swept.support == union
    _assert_same_result(swept.isotropic, reference_expectation(form, a, b, ISOTROPIC, kind))


# Grids of one point, and the endpoints-only grid p_grid(1.0) == (0.0, 1.0).
edge_grids = st.sampled_from([(0.0,), (0.5,), (1.0,), p_grid(1.0)])


@given(forms, settings, settings, kinds, st.one_of(grids(), edge_grids))
@example(product_identity, E1V, E1V, SCALAR, p_grid(1.0))  # parallel
@example(product_raw, E1V, E2V, DIRECTED, (0.5,))  # orthogonal
@example(product_identity, Vector3(0.0, 0.0, 1.0), Vector3(0.0, 1.0, 5e-324), DIRECTED,
         (0.0, 0.5, 1.0))  # subnormal component
def test_sweep_grade_norms_bitwise_equal_grade_norm(form, a, b, kind, grid):
    swept = sweeps(form, a, b, (kind,), grid)[kind]
    values = list(map(Multivector, zip(*swept.columns)))
    for k in GRADES:
        per_point = [value.grade_norm(k).hex() for value in values]
        assert [norm.hex() for norm in swept.grade_norms[k]] == per_point
        assert swept.support.max_magnitude[k].hex() == \
            max(value.grade_norm(k) for value in values).hex()
    # A slot that is zero under both single-atom measures is +0.0 at every p.
    ends = [reference_expectation(form, a, b, OrientationDistribution(p), kind).value
            for p in (0.0, 1.0)]
    for slot in range(8):
        if all(end.coeffs[slot] == 0.0 for end in ends):
            assert all(math.copysign(1.0, c) == 1.0 and c == 0.0 for c in swept.columns[slot])


@pytest.mark.parametrize("tiny", [5e-324, 2.225e-308])
@pytest.mark.parametrize("kind, slot", [(SCALAR, 0), (DIRECTED, 7)])
def test_isotropic_average_keeps_subnormal_dot(tiny, kind, slot):
    b = Vector3(0.0, 1.0, tiny)
    expected = Multivector.blade(slot, -tiny)
    result = expectation(product_identity, Vector3(0.0, 0.0, 1.0), b, ISOTROPIC, kind)
    assert _bits(result.value) == _bits(expected)
    swept = sweeps(product_identity, Vector3(0.0, 0.0, 1.0), b, (kind,), (0.0, 0.5, 1.0))[kind]
    assert _bits(Multivector(tuple(column[1] for column in swept.columns))) == _bits(expected)


# --- both kinds in one pass against the expectation as first written ------------------

def _hex_result(result):
    """An expectation result as hex strings, so that NaN and -0.0 compare."""
    return ([c.hex() for c in result.value.coeffs],
            *[(s.present, [m.hex() for m in s.max_magnitude])
              for s in (result.support, result.term_support)],
            [c.hex() for c in result.measure_total.coeffs], result.valid_probability_measure)


def _fixed(plus, minus):
    """A product form that ignores the settings: ``plus`` at orientation +1."""
    products = {+1: Multivector(plus), -1: Multivector(minus)}
    return lambda a, b, hv: products[hv.orientation]


# 1,1e-162,0:1,0,5e-162: the identity form's e23 is -+5e-324, which underflows to
# -0.0 in 125 of the 501 scalar-weight e23 cells of the 0.002 grid.
TINY_PAIR = (Vector3(1.0, 1e-162, 0.0), Vector3(1.0, 0.0, 5e-162))
# -0.0 coefficients beside opposite weights; a bivector whose squares round
# differently when added in reversed slot order, as the directed grade 1 adds them.
SIGNED_ZEROS = _fixed((-0.0, 0.0, 1.5, -1.5, 0.3, 0.58, -0.81, -0.0),
                      (2.0, -2.0, 0.25, -0.25, 0.3, 0.58, -0.81, 0.0))
WITH_NAN = _fixed((0.5, 0.0, 0.0, 0.0, math.nan, 0.25, -0.5, 0.0),
                  (0.5, 0.0, 0.0, 0.0, math.nan, -0.25, 0.5, 0.0))


@hypothesis.settings(max_examples=60, deadline=None)
@given(forms, st.tuples(settings, settings), st.sampled_from([1.0, 0.25, 0.05, 0.002]),
       st.just(I))
@example(product_identity, TINY_PAIR, 0.002, I)
@example(SIGNED_ZEROS, (E1V, E2V), 0.25, I)
@example(WITH_NAN, (E1V, E2V), 0.25, I)
@example(product_identity, (E1V, GENERIC), 0.05, ONE)  # the directed unit planted as 1
def test_sweeps_of_both_kinds_bitwise_equal_reference(form, pair, step, directed_unit):
    # The one-kind sweep never shares a column or a norm across kinds; this does.
    grid = p_grid(step)
    with mock.patch.dict(_UNIT, {DIRECTED: directed_unit}):
        swept = sweeps(form, *pair, _KINDS, grid)
        reference = {kind: [reference_expectation(form, *pair, OrientationDistribution(p), kind)
                            for p in grid] for kind in _KINDS}
        isotropic = {kind: reference_expectation(form, *pair, ISOTROPIC, kind)
                     for kind in _KINDS}
    assert list(swept) == list(_KINDS)
    for kind, s in swept.items():
        values = [result.value for result in reference[kind]]
        assert s.grid == grid
        assert [[c.hex() for c in column] for column in s.columns] == \
            [[v.coeffs[i].hex() for v in values] for i in range(8)]
        norms = [[v.grade_norm(k) for v in values] for k in GRADES]
        assert [[n.hex() for n in column] for column in s.grade_norms] == \
            [[n.hex() for n in column] for column in norms]
        peaks = [math.nan if any(map(math.isnan, n)) else max(n) for n in norms]
        assert [m.hex() for m in s.support.max_magnitude] == [m.hex() for m in peaks]
        assert s.support.present == {k for k in GRADES if peaks[k] > TOL}
        assert _hex_result(s.isotropic) == _hex_result(isotropic[kind])


def test_tiny_pair_sweeps_keep_the_sign_of_underflowed_zeros():
    grid = p_grid(0.002)
    swept = sweeps(product_identity, *TINY_PAIR, _KINDS, grid)
    scalar_e23 = swept[SCALAR].columns[6]
    assert [c.hex() for c in scalar_e23].count("-0x0.0p+0") == 125
    # The directed e1 is the negated e23, each underflowed zero's sign flipped
    # with it, but for the exact +0.0 at p = 1/2.
    negated = [(-c).hex() for c in scalar_e23]
    negated[grid.index(0.5)] = scalar_e23[grid.index(0.5)].hex()
    assert negated.count("0x0.0p+0") == 126
    assert [c.hex() for c in swept[DIRECTED].columns[1]] == negated


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("form", [
    WITH_NAN,
    _fixed((0.5, 0.0, 0.0, 0.0, math.nan, 0.25, -0.5, 0.0),
           (0.5, 0.0, 0.0, 0.0, 0.3, 0.25, math.nan, 0.0)),
], ids=["same_slot", "other_slot"])
def test_term_support_keeps_a_nan_grade_as_the_reference_does(form, kind):
    # The reference unions each atom's term support into a zero one, so a NaN
    # magnitude must survive as union's second argument as well as its first.
    for p in (0.3, 0.5):
        dist = OrientationDistribution(p)
        result = expectation(form, E1V, E2V, dist, kind)
        assert _hex_result(result) == _hex_result(reference_expectation(form, E1V, E2V, dist, kind))
        assert math.isnan(result.term_support.max_magnitude[2 if kind is SCALAR else 1])


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_atom_leaves_the_other_atoms_term(bad, kind):
    # e12 is non-finite at orientation +1 only: the - atom's term stays finite.
    form = _fixed((0.5, 0.0, 0.0, 0.0, bad, 0.0, 0.0, 0.0),
                  (0.5, 0.0, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0))
    dist = OrientationDistribution(0.3)
    result = expectation(form, E1V, E2V, dist, kind)
    assert _hex_result(result) == _hex_result(reference_expectation(form, E1V, E2V, dist, kind))
    bivector_grade = 2 if kind is SCALAR else 1
    assert result.term_support.present == {0 if kind is SCALAR else 3, bivector_grade}
    assert result.term_support.max_magnitude[bivector_grade].hex() == abs(bad).hex()


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("p", [1.0, 0.0])
def test_a_non_finite_weightless_atom_drops_out(p, bad, kind):
    # e12 is non-finite only at the orientation that p weighs 0, so the
    # reference's gp, which skips a zero weight, never sees it.
    finite = (0.5, 0.0, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0)
    other = (0.5, 0.0, 0.0, 0.0, bad, 0.0, 0.0, 0.0)
    form = _fixed(finite, other) if p == 1.0 else _fixed(other, finite)
    dist = OrientationDistribution(p)
    reference = reference_expectation(form, E1V, E2V, dist, kind)
    result = expectation(form, E1V, E2V, dist, kind)
    assert _hex_result(result) == _hex_result(reference)
    assert result.support.present == ({0, 2} if kind is SCALAR else {1, 3})
    grid = p_grid(1.0)
    swept = sweeps(form, E1V, E2V, _KINDS, grid)[kind]
    assert [column[grid.index(p)].hex() for column in swept.columns] == \
        [c.hex() for c in reference.value.coeffs]


@hypothesis.settings(deadline=None)
@given(forms, settings, settings, st.sampled_from([1.0, 0.05, 0.002]))
def test_grid_peaks_are_the_end_point_norms_within_rounding(form, a, b, step):
    # Each value p*P+ + (1-p)*P- is affine in p, so in real arithmetic each
    # grade norm is convex in p and peaks at p = 0 or 1: the interior of the
    # grid adds rounding only.
    for s in sweeps(form, a, b, _KINDS, p_grid(step)).values():
        for k in GRADES:
            ends = max(s.grade_norms[k][0], s.grade_norms[k][-1])
            assert ends <= s.support.max_magnitude[k] <= ends + 4.0 * math.ulp(1.0)


# Coefficients whose squares are NaN, overflow, or underflow.
_EDGE_COEFFS = (math.nan, 1e200, -1e200, 5e-324, -2.5e-320, 1e-170, 0.75)


def _live_slots_forms():
    """Fixed product forms with 1, 2 or 3 live slots in grades 1 and 2,
    one edge coefficient planted among ordinary ones."""
    forms = []
    for live in (1, 2, 3):
        for edge in _EDGE_COEFFS:
            for at in range(live):
                vector = [0.5, -0.25, 0.125][:live]
                vector[at] = edge
                vector += [0.0] * (3 - live)
                bivector = [-0.3, 0.6, 2.0][:live] + [0.0] * (3 - live)
                forms.append(_fixed((edge, *vector, *bivector, -0.5),
                                    (0.5, *vector[::-1], *bivector, edge)))
    return forms


@pytest.mark.parametrize("form", _live_slots_forms())
@pytest.mark.parametrize("kind", _KINDS)
def test_fused_grade_norms_on_edge_coefficients(form, kind):
    swept = sweeps(form, E1V, E2V, (kind,), p_grid(0.25))[kind]
    values = list(map(Multivector, zip(*swept.columns)))
    for k in GRADES:
        assert [n.hex() for n in swept.grade_norms[k]] == [v.grade_norm(k).hex() for v in values]
        # The peak is the root of the largest sum of squares, or NaN.
        squares = []
        for v in values:
            total = 0.0
            for i in GRADE_SLOTS[k]:
                total += v.coeffs[i] * v.coeffs[i]
            squares.append(total)
        peak = math.nan if any(map(math.isnan, squares)) else math.sqrt(max(squares))
        assert swept.support.max_magnitude[k].hex() == peak.hex()
        # A NaN peak fails the comparison, so its grade is absent.
        assert (k in swept.support.present) == (peak > TOL)


@pytest.mark.parametrize("form", [product_identity, product_raw])
def test_atom_sums_are_never_negative_zero(form):
    # Every weight here is negative or zero, so each term t * 0.0 is -0.0 or
    # +0.0; the trailing + 0.0 makes the sum +0.0, for weights of either sign.
    a, b = Vector3(-S2, -S2, 0.0), Vector3(S2, S2 * 0.6, S2 * 0.8)
    for columns in _atom_sums(form, a, b, _KINDS, [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)]):
        assert {c.hex() for column in columns for c in column} == {"0x0.0p+0"}


# --- functional structure across the family ------------------------------------------

@given(unit_vectors(), unit_vectors())
def test_isotropy_kills_orientation_odd_part(a, b):
    result = expectation(product_identity, a, b, OrientationDistribution(0.5), SCALAR)
    assert result.value == Multivector.scalar(-dot(a, b))


@given(unit_vectors(), unit_vectors(), probabilities)
def test_scalar_weight_leak_magnitude(a, b, p):
    result = expectation(product_identity, a, b, OrientationDistribution(p), SCALAR)
    leak = result.value.grade_norm(2)
    assert abs(leak - abs(2.0 * p - 1.0) * cross(a, b).norm()) <= TOL
    assert abs(result.value.coeffs[0] + dot(a, b)) <= TOL


@given(unit_vectors(), unit_vectors(), probabilities)
def test_directed_expectation_grade_structure(a, b, p):
    result = expectation(product_identity, a, b, OrientationDistribution(p), DIRECTED)
    value = result.value
    # scalar and bivector components vanish identically
    assert value.grade_norm(0) == 0.0
    assert value.grade_norm(2) == 0.0
    # trivector coefficient is -a.b, vector magnitude is |2p-1|*|a x b|
    assert abs(value.coeffs[7] + dot(a, b)) <= TOL
    assert abs(value.grade_norm(1) - abs(2.0 * p - 1.0) * cross(a, b).norm()) <= TOL
    assert not result.valid_probability_measure


def test_leak_is_exactly_zero_at_isotropy():
    result = expectation(product_identity, E1V, GENERIC, OrientationDistribution(0.5), SCALAR)
    assert result.value.grade_norm(2) == 0.0


@given(unit_vectors(), unit_vectors(), probabilities)
def test_expectation_linear_in_atom_weights(a, b, p):
    at_one = expectation(product_identity, a, b, OrientationDistribution(1.0), SCALAR).value
    at_zero = expectation(product_identity, a, b, OrientationDistribution(0.0), SCALAR).value
    blended = at_one.scale(p) + at_zero.scale(1.0 - p)
    actual = expectation(product_identity, a, b, OrientationDistribution(p), SCALAR).value
    assert actual.max_abs_diff(blended) <= TOL


# --- raw vs identity form -------------------------------------------------------------

@given(unit_vectors(), unit_vectors(), probabilities)
def test_raw_form_grade0_agrees_with_identity_form(a, b, p):
    dist = OrientationDistribution(p)
    raw = expectation(product_raw, a, b, dist, SCALAR).value
    ident = expectation(product_identity, a, b, dist, SCALAR).value
    assert abs(raw.coeffs[0] - ident.coeffs[0]) <= TOL


@given(unit_vectors(), unit_vectors(), probabilities)
def test_raw_form_keeps_constant_bivector_under_scalar_weights(a, b, p):
    result = expectation(product_raw, a, b, OrientationDistribution(p), SCALAR)
    assert abs(result.value.grade_norm(2) - cross(a, b).norm()) <= TOL


@given(unit_vectors(), unit_vectors(), probabilities)
def test_raw_form_directed_scalar_part_vanishes(a, b, p):
    result = expectation(product_raw, a, b, OrientationDistribution(p), DIRECTED)
    assert result.value.grade_norm(0) == 0.0


# Squares of (0.3, 0.29, 0.88) added left to right round one ulp away from
# their correctly rounded sum, which a compensated sum (the builtin sum from
# Python 3.12 on) returns.
_SPLIT_SUM = (0.3, 0.29, 0.88)
_SPLIT_SUM_NORM = math.sqrt((0.3 * 0.3 + 0.29 * 0.29) + 0.88 * 0.88)


def test_grade_norms_add_squares_left_to_right():
    assert _SPLIT_SUM_NORM != math.sqrt(math.fsum(c * c for c in _SPLIT_SUM))
    mv = Multivector((0.0, *_SPLIT_SUM, *_SPLIT_SUM, 0.0))
    assert mv.grade_norm(1) == mv.grade_norm(2) == _SPLIT_SUM_NORM
    # At p = 1 the scalar-weight sweep's value is the + atom's product itself.
    swept = sweeps(lambda a, b, hv: mv, E1V, E2V, (SCALAR,), (1.0,))[SCALAR]
    assert swept.grade_norms[1] == swept.grade_norms[2] == (_SPLIT_SUM_NORM,)


# A libm pow may round c ** 2 away from the exactly rounded square; the square of
# 0.6486850258817574 is one such case for glibc 2.36, and it moves the norm.
_POW_SENSITIVE = (0.8050594286638928, 0.1790104140753379, 0.6486850258817574)


def test_grade_norms_use_exactly_rounded_squares():
    squares = [float(Fraction(c) ** 2) for c in _POW_SENSITIVE]
    norm = math.sqrt((squares[0] + squares[1]) + squares[2])
    mv = Multivector((0.0, *_POW_SENSITIVE, *_POW_SENSITIVE, 0.0))
    assert mv.grade_norm(1) == mv.grade_norm(2) == norm
    swept = sweeps(lambda a, b, hv: mv, E1V, E2V, (SCALAR,), (1.0,))[SCALAR]
    assert swept.grade_norms[1] == swept.grade_norms[2] == (norm,)
