import math

import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

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
    Vector3,
    ZERO,
    cross,
    dot,
    ensure_unit,
    gp,
    grade_audit,
    grade_project,
    wedge,
)

from _oracle import oracle_gp, oracle_table

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


# --- grade projection -------------------------------------------------------

def test_grade_project_examples():
    x = Multivector((3.0, 2.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0))
    assert grade_project(x, 0) == Multivector.scalar(3.0)
    assert grade_project(x, 2) == Multivector.blade(4, -1.0)
    assert grade_project(I, 1) == ZERO


@pytest.mark.parametrize("bad", [-1, 4, 17])
def test_grade_project_rejects_bad_grade(bad):
    with pytest.raises(ValueError):
        grade_project(ONE, bad)


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


def test_normalized_zero_vector_raises():
    with pytest.raises(ValueError):
        Vector3(0.0, 0.0, 0.0).normalized()


def test_multivector_str():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Multivector((1.0, 0, 0, 0, -2.5, 0, 0, 0))) == "1 - 2.5*e12"
    assert str(-I) == "-e123"
