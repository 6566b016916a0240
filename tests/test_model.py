import copy
import dataclasses
import inspect
import math
import pickle
import re

import pytest
from hypothesis import given, assume
from hypothesis import strategies as st

from g3bell.ga import (
    E12,
    E23,
    I,
    Multivector,
    NonUnitVectorError,
    Vector3,
    ZERO,
    _shown,
    cross,
    dot,
    gp,
    grade_audit,
    grade_project,
)
import g3bell.model
from g3bell.model import (
    ORIENTATIONS,
    HiddenVariable,
    OrientationDistribution,
    observable,
    product_identity,
    product_raw,
)

TOL = 1e-12

E1V = Vector3(1, 0, 0)
E2V = Vector3(0, 1, 0)
E3V = Vector3(0, 0, 1)

PLUS, MINUS = ORIENTATIONS

coords = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def unit_vectors():
    def build(xyz):
        v = Vector3(*xyz)
        assume(v.norm() > 1e-3)
        return v.normalized()
    return st.tuples(coords, coords, coords).map(build)


# --- value types --------------------------------------------------------------

@pytest.mark.parametrize("value, field", [
    (E1V, "x"),
    (E12, "coeffs"),
    (grade_audit(E12), "present"),
    (PLUS, "orientation"),
])
def test_value_types_are_frozen_and_slotted(value, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))
    assert not hasattr(value, "__dict__")
    assert type(value).__slots__ == tuple(f.name for f in dataclasses.fields(value))


# The two types the Monte Carlo builds in every trial write their own __init__;
# each keeps the contract of the one @dataclass would generate.
@pytest.mark.parametrize("cls, args, signature, defaults, last", [
    (Vector3, (0.6, -0.0, 0.8), "(x: float, y: float, z: float) -> None",
     {"x": dataclasses.MISSING, "y": dataclasses.MISSING, "z": dataclasses.MISSING}, 0.0),
    (Multivector, ((0.5, 1.0, -2.0, 0.0, 0.25, -0.0, 3.0, -1.5),),
     "(coeffs: tuple[float, float, float, float, float, float, float, float]"
     " = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)) -> None",
     {"coeffs": (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)}, E12.coeffs),
])
def test_value_type_constructors_keep_the_generated_contract(cls, args, signature, defaults, last):
    names = tuple(defaults)
    # Under postponed annotations the string forms differ only in how `None` is
    # spelled, so the signature is compared with its annotations evaluated.
    assert str(inspect.signature(cls, eval_str=True)) == signature
    assert {f.name: f.default for f in dataclasses.fields(cls)} == defaults
    value = cls(*args)
    assert tuple(getattr(value, name) for name in names) == args
    assert cls(**dict(zip(names, args))) == value
    twin = cls(*args)
    assert twin is not value and hash(twin) == hash(value) and repr(twin) == repr(value)
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={arg!r}" for name, arg in zip(names, args)) + ")"
    copies = [dataclasses.replace(value), copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls and other == value and repr(other) == repr(value)
    assert dataclasses.replace(value, **{names[-1]: last}) == cls(*args[:-1], last)


def test_multivector_default_is_the_field_default():
    assert Multivector() == ZERO
    assert Multivector().coeffs is dataclasses.fields(Multivector)[0].default


# --- hidden variable and distribution ----------------------------------------

def test_hidden_variable_is_unit_trivector():
    for hv in ORIENTATIONS:
        support = grade_audit(hv.mu, TOL)
        assert support.present == frozenset({3})
        assert hv.mu.grade_norm(3) == 1.0
    assert ORIENTATIONS[0].mu == I
    assert ORIENTATIONS[1].mu == -I


# A bool or a float equal to 1 is not an orientation.
@pytest.mark.parametrize("bad", [0, 2, -2, True, 1.0])
def test_hidden_variable_rejects_bad_orientation(bad):
    with pytest.raises(ValueError, match=re.escape(_shown(bad))):
        HiddenVariable(bad)


def test_distribution_weights():
    dist = OrientationDistribution(0.3)
    assert dist.p_minus == 0.7


# A bool and a numeric string are not weights.
@pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0, True, "0.5"])
def test_distribution_rejects_out_of_range(bad):
    with pytest.raises(ValueError, match=re.escape(_shown(bad))):
        OrientationDistribution(bad)


# --- observables --------------------------------------------------------------

def test_observable_examples():
    assert observable(E1V, PLUS) == E23
    assert observable(E1V, MINUS) == -E23
    assert observable(E3V, PLUS) == E12


def test_observable_rejects_non_unit():
    with pytest.raises(NonUnitVectorError):
        observable(Vector3(1, 1, 0), PLUS)


@given(unit_vectors(), st.sampled_from(ORIENTATIONS))
def test_observable_is_the_class_built_multivector(a, hv):
    # observable stores its coefficients through the slot setter, skipping __init__.
    mv = observable(a, hv)
    built = Multivector(mv.coeffs)
    assert type(mv) is Multivector and not hasattr(mv, "__dict__")
    assert mv == built and hash(mv) == hash(built) and repr(mv) == repr(built)
    assert [c.hex() for c in mv.coeffs] == [c.hex() for c in gp(hv.mu, a.as_multivector()).coeffs]


def test_observable_checks_its_setting_through_the_module_hook(monkeypatch):
    # The exact proofs replace g3bell.model.ensure_unit; observable must call it.
    calls = []
    monkeypatch.setattr(g3bell.model, "ensure_unit", calls.append)
    for n, hv in enumerate(ORIENTATIONS * 2, start=1):
        observable(E1V, hv)
        assert calls == [E1V] * n


@given(unit_vectors(), st.sampled_from(ORIENTATIONS))
def test_observable_is_unit_bivector(a, hv):
    mv = observable(a, hv)
    assert mv.grade_norm(0) <= TOL
    assert mv.grade_norm(1) <= TOL
    assert mv.grade_norm(3) <= TOL
    assert abs(mv.grade_norm(2) - 1.0) <= TOL


# --- product forms --------------------------------------------------------------

def test_product_identity_examples():
    assert product_identity(E1V, E2V, PLUS) == -E12
    assert product_identity(E1V, E2V, MINUS) == E12
    assert product_identity(E1V, E1V, PLUS) == Multivector.scalar(-1.0)


def test_product_raw_examples():
    assert product_raw(E1V, E2V, PLUS) == -E12
    assert product_raw(E1V, E2V, MINUS) == -E12
    assert product_raw(E1V, E1V, PLUS) == Multivector.scalar(-1.0)


@pytest.mark.parametrize("fn", [product_identity, product_raw])
def test_product_forms_reject_non_unit(fn):
    with pytest.raises(NonUnitVectorError):
        fn(Vector3(2, 0, 0), E2V, PLUS)
    with pytest.raises(NonUnitVectorError):
        fn(E1V, Vector3(0.5, 0, 0), PLUS)


@given(unit_vectors(), unit_vectors(), st.sampled_from(ORIENTATIONS))
def test_both_forms_have_scalar_part_minus_dot(a, b, hv):
    d = dot(a, b)
    assert abs(product_identity(a, b, hv).coeffs[0] + d) <= TOL
    assert abs(product_raw(a, b, hv).coeffs[0] + d) <= TOL


@given(unit_vectors(), unit_vectors(), st.sampled_from(ORIENTATIONS))
def test_both_forms_have_bivector_magnitude_cross(a, b, hv):
    c = cross(a, b).norm()
    assert abs(product_identity(a, b, hv).grade_norm(2) - c) <= TOL
    assert abs(product_raw(a, b, hv).grade_norm(2) - c) <= TOL


@given(unit_vectors(), unit_vectors())
def test_raw_product_is_orientation_independent(a, b):
    assert product_raw(a, b, PLUS) == product_raw(a, b, MINUS)


@given(unit_vectors(), unit_vectors())
def test_identity_bivector_flips_with_orientation(a, b):
    plus = grade_project(product_identity(a, b, PLUS), 2)
    minus = grade_project(product_identity(a, b, MINUS), 2)
    assert plus == -minus


@given(unit_vectors(), unit_vectors())
def test_identity_orientation_sum_is_pure_scalar(a, b):
    total = product_identity(a, b, PLUS) + product_identity(a, b, MINUS)
    expected = Multivector.scalar(-2.0 * dot(a, b))
    assert total.max_abs_diff(expected) <= TOL
    assert grade_audit(total, TOL).present <= frozenset({0})


@given(unit_vectors())
def test_orthogonal_pair_cancels_to_zero_bivector(a):
    # Build b orthogonal to a: the cancelling terms are bivectors, and their
    # equal-weight sum is the zero multivector, not merely a zero scalar.
    helper = Vector3(0, 0, 1) if abs(a.z) < 0.9 else Vector3(1, 0, 0)
    b = cross(a, helper).normalized()
    total = (product_identity(a, b, PLUS).scale(0.5)
             + product_identity(a, b, MINUS).scale(0.5))
    assert total.max_abs_coeff() <= TOL
    for hv in ORIENTATIONS:
        term = product_identity(a, b, hv).scale(0.5)
        assert grade_audit(term, TOL).present == frozenset({2})


# --- closed-form observable against the geometric product ---------------------------------

AXES = [Vector3(*v) for v in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                               (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0),
                               (-0.0, 1.0, -0.0), (0.6, -0.0, -0.8))]


def _bits(coeffs):
    return [(c, math.copysign(1.0, c)) for c in coeffs]


@given(st.one_of(st.sampled_from(AXES), unit_vectors()), st.sampled_from(ORIENTATIONS))
def test_observable_closed_form_bitwise_equals_gp(a, hv):
    assert _bits(observable(a, hv).coeffs) == _bits(gp(hv.mu, a.as_multivector()).coeffs)
