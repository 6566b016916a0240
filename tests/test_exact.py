"""The model's product identities and its p-dependent claims, proved exactly.

Each component of the settings a and b, and the weight p of the + orientation,
is a polynomial variable, and the package's own ``product_raw`` (with its
``observable``), ``product_identity``, ``measure_total``, ``gp``, ``cross``,
``dot`` and ``wedge``, and the expectation's atom sum, run unmodified on the
polynomial coefficients (see ``_exact``).  Each equality below is therefore an
identity of polynomials: it holds for every setting pair and every p, not only
for sampled ones.
"""

from types import SimpleNamespace

import pytest

import g3bell.model
from g3bell.ga import I, ONE, Multivector, Vector3, cross, dot, wedge
from g3bell.measure import _atom_sums, MeasureKind, measure_total
from g3bell.model import ORIENTATIONS, product_identity, product_raw

from _exact import Poly

A = Vector3(Poly.var("a1"), Poly.var("a2"), Poly.var("a3"))
B = Vector3(Poly.var("b1"), Poly.var("b2"), Poly.var("b3"))
PLUS, MINUS = ORIENTATIONS
MINUS_DOT = Multivector.scalar(-dot(A, B))


@pytest.fixture(autouse=True)
def _unchecked_norms(monkeypatch):
    # ensure_unit compares the squared norm with float bounds, which a polynomial
    # cannot be compared with, and none of these identities needs |a| = |b| = 1.
    monkeypatch.setattr(g3bell.model, "ensure_unit", lambda v: v)


@pytest.mark.parametrize("hv", ORIENTATIONS, ids=["plus", "minus"])
def test_raw_product_is_minus_dot_minus_wedge_at_either_orientation(hv):
    # So the raw product has no grade-1 or grade-3 part.
    assert product_raw(A, B, hv) == MINUS_DOT - wedge(A, B)


def test_identity_product_flips_its_bivector_term_with_the_orientation():
    assert product_identity(A, B, PLUS) == product_raw(A, B, PLUS)
    assert product_identity(A, B, MINUS) == MINUS_DOT + wedge(A, B)


@pytest.mark.parametrize("form", [product_identity, product_raw])
@pytest.mark.parametrize("hv", ORIENTATIONS, ids=["plus", "minus"])
def test_bivector_magnitude_squared_is_cross_norm_squared(form, hv):
    c = form(A, B, hv).coeffs
    n = cross(A, B)
    assert c[4] * c[4] + c[5] * c[5] + c[6] * c[6] == dot(n, n)


# --- the p-dependent claims -----------------------------------------------------------

P = Poly.var("p")
SCALAR = MeasureKind.SCALAR_WEIGHTS
DIRECTED = MeasureKind.DIRECTED_TRIVECTOR


def _expectation(form, kind):
    # The atom sum that expectation and sweep run, at the one point (p, 1 - p);
    # OrientationDistribution rejects a polynomial p in its range check.
    [columns] = _atom_sums(form, A, B, (kind,), [(P, 1 - P)])
    return Multivector(tuple(column[0] for column in columns))


def _closed_form(kind, s):
    # Written without gp, so a sign flip in the kernel cannot cancel on both sides.
    if kind is SCALAR:
        return MINUS_DOT - wedge(A, B).scale(s)
    return cross(A, B).as_multivector().scale(s) - I.scale(dot(A, B))


def test_measure_totals_are_one_and_the_pseudoscalar_for_every_p():
    dist = SimpleNamespace(p_plus=P, p_minus=1 - P)
    assert measure_total(dist, SCALAR) == ONE
    assert measure_total(dist, DIRECTED) == I


# The identity form's cross term carries the factor 2p - 1, which vanishes at the
# isotropic p = 1/2 only; the raw form's cross term does not depend on p.
@pytest.mark.parametrize("form, s", [(product_identity, 2 * P - 1), (product_raw, 1)],
                         ids=["identity", "raw"])
@pytest.mark.parametrize("kind", [SCALAR, DIRECTED], ids=["scalar", "directed"])
def test_expectation_is_its_closed_form(form, s, kind):
    # Scalar weights: -a.b - s(a^b), grades {0, 2}.  Directed: s(a x b) - (a.b)I,
    # grades {1, 3}, so its scalar part is identically zero.
    assert _expectation(form, kind) == _closed_form(kind, s)


@pytest.mark.parametrize("kind", [SCALAR, DIRECTED], ids=["scalar", "directed"])
def test_identity_form_leaks_the_cross_term_squared(kind):
    slots = (4, 5, 6) if kind is SCALAR else (1, 2, 3)
    c = _expectation(product_identity, kind).coeffs
    n = cross(A, B)
    assert sum(c[i] * c[i] for i in slots) == (2 * P - 1) * (2 * P - 1) * dot(n, n)


@pytest.mark.parametrize("form", [product_identity, product_raw], ids=["identity", "raw"])
def test_directed_scalar_part_is_zero(form):
    assert _expectation(form, DIRECTED).coeffs[0] == 0
