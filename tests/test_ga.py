import itertools
import math
import re
import struct

import pytest
from hypothesis import example, given, assume, settings
from hypothesis import strategies as st

from g3bell import ga
from g3bell.ga import (
    BASIS,
    BLADE_NAMES,
    E1,
    E2,
    E12,
    E23,
    GradeSupport,
    I,
    Multivector,
    NonUnitVectorError,
    ONE,
    UNIT_TOLERANCE,
    Vector3,
    ZERO,
    _max_magnitude,
    _shown,
    cross,
    dot,
    ensure_unit,
    gp,
    grade_audit,
    grade_project,
    wedge,
)

from _oracle import oracle_gp, oracle_table, reference_ensure_unit, vector_of_squared_norm

TOL = 1e-12

coeffs = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
multivectors = st.tuples(*[coeffs] * 8).map(Multivector)


def unit_vectors():
    def build(xyz):
        v = Vector3(*xyz)
        assume(v.norm() > 1e-3)
        return v.normalized()
    return st.tuples(coeffs, coeffs, coeffs).map(build)


# --- Cayley table -----------------------------------------------------------

def test_gp_matches_oracle_table_on_all_64_basis_pairs():
    for i in range(8):
        for j in range(8):
            sign, slot = oracle_table()[i][j]
            expected = Multivector.blade(slot, float(sign))
            assert gp(BASIS[i], BASIS[j]) == expected, (BLADE_NAMES[i], BLADE_NAMES[j])


@pytest.mark.parametrize("x, y, expected", [
    (E1, E1, ONE),
    (E1, E2, E12),
    (I, I, Multivector.scalar(-1.0)),
    (I, E1, E23),
])
def test_gp_basis_examples(x, y, expected):
    assert gp(x, y) == expected


@given(multivectors, multivectors)
def test_gp_matches_oracle_on_random_multivectors(x, y):
    assert gp(x, y).coeffs == oracle_gp(x.coeffs, y.coeffs)


special = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e300])
any_multivectors = st.tuples(*[st.one_of(coeffs, special)] * 8).map(Multivector)
SIGNED = Multivector((-0.0, 1.0, -0.0, 0.0, 0.5, -0.0, -2.0, -0.0))


@given(any_multivectors, any_multivectors)
@example(SIGNED, Multivector((0.0, -0.0, -1.0, 0.0, -0.0, 0.25, 0.0, -0.0)))
@example(SIGNED, Multivector.blade(3, math.nan))
@example(Multivector.blade(0, math.nan), SIGNED)
@example(Multivector((math.inf, 0.0, -0.0, 0.0, 0.0, 0.0, 1.0, 0.0)), SIGNED)
@example(SIGNED, Multivector.blade(0, -math.inf))
@example(SIGNED, I)
@example(Multivector((1.0, 2.0, -3.0, 0.5, -0.0, 1e-300, 7.0, -1.5)), I)
def test_gp_is_the_double_loop_over_all_slot_pairs_bitwise(x, y):
    # oracle_gp visits every (i, j) pair, skipping a zero of either factor but
    # not a NaN, and adds in (i, j) order; gp lists y's kept slots once.
    assert [c.hex() for c in gp(x, y).coeffs] == [c.hex() for c in oracle_gp(x.coeffs, y.coeffs)]


# --- grade projection -------------------------------------------------------

def test_grade_project_examples():
    x = Multivector((3.0, 2.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0))
    assert grade_project(x, 0) == Multivector.scalar(3.0)
    assert grade_project(x, 2) == Multivector.blade(4, -1.0)
    assert grade_project(I, 1) == ZERO


# A bool or an integral float is not a grade index, though one would hash as 1 or 2.
@pytest.mark.parametrize("bad", [-1, 4, 17, True, 2.0])
def test_grade_project_rejects_bad_grade(bad):
    with pytest.raises(ValueError, match=re.escape(_shown(bad))):
        grade_project(E12, bad)
    with pytest.raises(ValueError, match=re.escape(_shown(bad))):
        Multivector.blade(1).grade_norm(bad)


@given(multivectors)
def test_grade_projections_sum_to_identity_exactly(x):
    total = ZERO
    for k in range(4):
        total = total + grade_project(x, k)
    assert total == x


@given(multivectors, multivectors, st.integers(min_value=0, max_value=3))
def test_grade_closure_under_addition(x, y, k):
    combined = grade_project(x, k) + grade_project(y, k)
    for other in range(4):
        if other != k:
            assert combined.grade_norm(other) == 0.0


# --- wedge / cross / dot ----------------------------------------------------

def test_wedge_examples():
    assert wedge(Vector3(1, 0, 0), Vector3(0, 1, 0)) == E12
    assert wedge(Vector3(1, 0, 0), Vector3(1, 0, 0)) == ZERO
    # bilinearity: (e1+e2) ^ e2 = e1 ^ e2
    assert wedge(Vector3(1, 1, 0), Vector3(0, 1, 0)) == E12


def test_cross_examples():
    assert cross(Vector3(1, 0, 0), Vector3(0, 1, 0)) == Vector3(0, 0, 1)
    assert cross(Vector3(1, 0, 0), Vector3(1, 0, 0)) == Vector3(0, 0, 0)
    assert cross(Vector3(0, 1, 0), Vector3(0, 0, 1)) == Vector3(1, 0, 0)


def test_dot_examples():
    assert dot(Vector3(1, 0, 0), Vector3(1, 0, 0)) == 1.0
    assert dot(Vector3(1, 0, 0), Vector3(0, 1, 0)) == 0.0
    s = 1.0 / math.sqrt(2.0)
    assert dot(Vector3(s, s, 0), Vector3(1, 0, 0)) == pytest.approx(s, abs=TOL)


vec3 = st.tuples(coeffs, coeffs, coeffs).map(lambda t: Vector3(*t))


@given(vec3, vec3)
def test_wedge_is_gp_minus_dot_part(a, b):
    product = gp(a.as_multivector(), b.as_multivector())
    expected = product - Multivector.scalar(dot(a, b))
    assert wedge(a, b).max_abs_diff(expected) <= TOL


@given(vec3, vec3)
def test_duality_cross_wedge(a, b):
    # I * (a x b) = a ^ b, exactly up to float products
    lhs = gp(I, cross(a, b).as_multivector())
    assert lhs.max_abs_diff(wedge(a, b)) <= TOL


@given(vec3, vec3)
def test_cross_is_minus_I_wedge(a, b):
    lhs = gp(Multivector.scalar(-1.0) * I, wedge(a, b))
    assert lhs.max_abs_diff(cross(a, b).as_multivector()) <= TOL


# --- algebraic laws ---------------------------------------------------------

@settings(max_examples=200)
@given(multivectors, multivectors, multivectors)
def test_gp_associative(x, y, z):
    assert gp(gp(x, y), z).max_abs_diff(gp(x, gp(y, z))) <= TOL


@given(multivectors, multivectors, multivectors)
def test_gp_distributes_over_addition(x, y, z):
    left = gp(x, y + z)
    assert left.max_abs_diff(gp(x, y) + gp(x, z)) <= TOL
    right = gp(y + z, x)
    assert right.max_abs_diff(gp(y, x) + gp(z, x)) <= TOL


@given(multivectors, multivectors, coeffs)
def test_gp_bilinear_in_scaling(x, y, c):
    assert gp(x.scale(c), y).max_abs_diff(gp(x, y).scale(c)) <= TOL
    assert gp(x, y.scale(c)).max_abs_diff(gp(x, y).scale(c)) <= TOL


@given(multivectors)
def test_pseudoscalar_central(x):
    assert gp(I, x) == gp(x, I)


def test_pseudoscalar_squares_to_minus_one():
    assert gp(I, I) == Multivector.scalar(-1.0)


@pytest.mark.parametrize("slot", range(8))
def test_max_abs_is_nan_when_any_coefficient_is_nan(slot):
    x = Multivector.blade(slot, math.nan)
    assert math.isnan(x.max_abs_coeff())
    assert math.isnan(x.max_abs_diff(ZERO))
    assert math.isnan(ZERO.max_abs_diff(x))


# --- grade audit ------------------------------------------------------------

def test_grade_audit_examples():
    x = Multivector((-0.5, 0, 0, 0, 0.3, 0, 0, 0))
    assert grade_audit(x, 1e-12).present == frozenset({0, 2})
    assert grade_audit(ZERO, 1e-12).present == frozenset()
    tiny = Multivector.blade(1, 1e-15)
    assert grade_audit(tiny, 1e-12).present == frozenset()


def test_grade_audit_records_magnitudes():
    support = grade_audit(Multivector((2.0, 3.0, 4.0, 0, 0, 0, 0, 0)), 1e-12)
    assert support.max_magnitude[0] == 2.0
    assert support.max_magnitude[1] == 5.0


@given(st.tuples(*[st.floats()] * 8).map(Multivector))
@example(Multivector((5e-324, 1e200, -1e200, 0.0, math.nan, 3.0, -0.0, -math.inf)))
@example(Multivector((-0.0, 1.5e-323, -2.5e-323, 5e-324, 1e154, 1e154, 1e154, 1e-170)))
def test_grade_audit_magnitudes_bitwise_equal_grade_norm(x):
    support = grade_audit(x, TOL)
    assert [m.hex() for m in support.max_magnitude] == [x.grade_norm(k).hex() for k in range(4)]
    assert support.present == {k for k in range(4) if x.grade_norm(k) > TOL}


def test_grade_audit_rejects_nonpositive_tolerance():
    with pytest.raises(ValueError):
        grade_audit(ONE, 0.0)
    with pytest.raises(ValueError):
        grade_audit(ONE, -1e-9)


def test_grade_support_union():
    a = GradeSupport(frozenset({0}), (1.0, 0.0, 0.0, 0.0))
    b = GradeSupport(frozenset({2}), (0.5, 0.0, 2.0, 0.0))
    u = a.union(b)
    assert u.present == frozenset({0, 2})
    assert u.max_magnitude == (1.0, 0.0, 2.0, 0.0)
    assert u.grades() == (0, 2)


def test_grade_support_union_keeps_a_nan_magnitude_from_either_side():
    finite = GradeSupport(frozenset({0}), (1.0, 0.0, 2.0, 0.0))
    with_nan = GradeSupport(frozenset(), (0.5, math.nan, 0.0, 3.0))
    for u in (finite.union(with_nan), with_nan.union(finite)):
        assert [m.hex() for m in u.max_magnitude] == [m.hex() for m in (1.0, math.nan, 2.0, 3.0)]
        assert u.present == frozenset({0})


def _nan_aware_max(magnitudes):
    return math.nan if any(map(math.isnan, magnitudes)) else max(magnitudes)


# Magnitudes: >= 0, infinite or NaN.
magnitudes = st.one_of(st.floats(min_value=0.0), st.just(math.nan))


@given(st.lists(magnitudes, min_size=1))
@example([1e308, 1e308, 0.5])  # the sum overflows, with no NaN
@example([math.inf, 1.0, math.inf])
@example([2.0, math.nan])
def test_max_magnitude_is_nan_aware_max(ms):
    assert _max_magnitude(ms).hex() == _nan_aware_max(ms).hex()


@given(st.tuples(*[magnitudes] * 8))
@example((0.0, math.nan, math.inf, 2.0, math.nan, 0.0, 1.0, math.inf))
def test_grade_support_union_is_max_magnitude_per_grade(ms):
    a, b = GradeSupport(frozenset(), ms[:4]), GradeSupport(frozenset(), ms[4:])
    assert [m.hex() for m in a.union(b).max_magnitude] == \
        [_nan_aware_max([x, y]).hex() for x, y in zip(ms[:4], ms[4:])]


# --- vectors and validation -------------------------------------------------

def test_ensure_unit_accepts_within_tolerance():
    v = Vector3(1.0, 1e-10, 0.0)
    assert ensure_unit(v) is v


def test_ensure_unit_rejects_non_unit():
    with pytest.raises(NonUnitVectorError):
        ensure_unit(Vector3(1.0, 1.0, 0.0))
    with pytest.raises(NonUnitVectorError):
        ensure_unit(Vector3(0.0, 0.0, 0.0))


@pytest.mark.parametrize("bad", [
    Vector3(float("nan"), 0.0, 0.0),
    Vector3(0.0, float("nan"), 1.0),
    Vector3(float("inf"), 0.0, 0.0),
])
def test_ensure_unit_rejects_non_finite(bad):
    with pytest.raises(NonUnitVectorError):
        ensure_unit(bad)


components = st.one_of(st.floats(), st.sampled_from([5e-324, -2.225e-308, 1e200, -1e308]))


@given(st.one_of(unit_vectors(), st.tuples(components, components, components).map(
    lambda xyz: Vector3(*xyz))))
@example(Vector3(5e-324, 0.0, -5e-324))
@example(Vector3(1e200, -1e200, 0.0))
@example(Vector3(1e154, 0.0, 0.0))
@example(Vector3(0.0, math.nan, 1.0))
@example(Vector3(math.inf, 0.0, 0.0))
@example(Vector3(math.inf, math.nan, 0.0))
@example(Vector3(0.6, 0.8, 0.0))
def test_ensure_unit_checks_the_bits_of_norm(v):
    # The norm is written out in ensure_unit; it must be v.norm(), bit for bit.
    n = v.norm()
    if abs(n - 1.0) <= UNIT_TOLERANCE:
        assert ensure_unit(v) is v
        return
    with pytest.raises(NonUnitVectorError) as raised:
        ensure_unit(v)
    message = str(raised.value)
    assert message == f"expected a unit vector, got norm {n!r}"
    assert float(message.rpartition(" ")[2]).hex() == n.hex()


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _doubles(patterns: range) -> tuple[float, ...]:
    return struct.unpack(f"<{len(patterns)}d", struct.pack(f"<{len(patterns)}q", *patterns))


def _outcome(rule, v):
    """Whether ``rule(v)`` returned v, or the type and message it raised."""
    try:
        return rule(v) is v
    except Exception as exc:
        return type(exc), str(exc)


def _square_root_rule_ends() -> tuple[float, float]:
    """The least and the greatest squared norm that the square-root rule
    accepts, by bisection over the bit patterns of the doubles from 0.25 to 4."""
    def accepted(s: float) -> bool:
        return abs(math.sqrt(s) - 1.0) <= UNIT_TOLERANCE

    def end(rejected: int, inside: int) -> float:
        while abs(inside - rejected) > 1:
            mid = (inside + rejected) // 2
            if accepted(_double(mid)):
                inside = mid
            else:
                rejected = mid
        return _double(inside)

    assert accepted(1.0) and not accepted(0.25) and not accepted(4.0)
    return end(_bits(0.25), _bits(1.0)), end(_bits(4.0), _bits(1.0))


def test_unit_interval_ends_are_the_square_root_rules():
    low, high = _square_root_rule_ends()
    assert (ga._UNIT_NORM2_MIN.hex(), ga._UNIT_NORM2_MAX.hex()) == (low.hex(), high.hex())


@pytest.mark.parametrize("end", ["_UNIT_NORM2_MIN", "_UNIT_NORM2_MAX"])
def test_ensure_unit_is_the_square_root_rule_near_each_end(end):
    # Every double within 10**5 ulp of the end, as a vector's squared norm.
    at = _bits(getattr(ga, end))
    outcomes = set()
    for s in _doubles(range(at - 10 ** 5, at + 10 ** 5 + 1)):
        v = vector_of_squared_norm(s)
        outcome = _outcome(ensure_unit, v)
        assert outcome == _outcome(reference_ensure_unit, v), s.hex()
        outcomes.add(outcome is True)
    assert outcomes == {True, False}


# Signed zeros, subnormals, squares that overflow or that lie past the largest
# float as ints, non-finite floats, and ints.
_EDGE_COMPONENTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1e200, -1e200,
                    1.7976931348623157e308, math.inf, -math.inf, math.nan, 0, 1, -1, 2, 10 ** 200,
                    0.6, 0.8, 1.0, -1.0, math.sqrt(0.5)]


def test_ensure_unit_is_the_square_root_rule_at_edge_components():
    seen = set()
    for xyz in itertools.product(_EDGE_COMPONENTS, repeat=3):
        v = Vector3(*xyz)
        outcome = _outcome(ensure_unit, v)
        assert outcome == _outcome(reference_ensure_unit, v), xyz
        seen.add(outcome if outcome is True else outcome[0])
    # An int square past the largest float raises OverflowError under both rules.
    assert seen == {True, NonUnitVectorError, OverflowError}


def test_normalized_zero_vector_raises():
    with pytest.raises(ValueError):
        Vector3(0.0, 0.0, 0.0).normalized()


def test_multivector_str():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Multivector((1.0, 0, 0, 0, -2.5, 0, 0, 0))) == "1 - 2.5*e12"
    assert str(-I) == "-e123"
