"""The model's p-independent product identities, proved exactly.

Each component of the settings a and b is a polynomial variable, and the
package's own ``product_raw`` (with its ``observable``), ``product_identity``,
``gp``, ``cross``, ``dot`` and ``wedge`` run unmodified on the polynomial
coefficients (see ``_exact``).  Each equality below is therefore an identity
of polynomials: it holds for every setting pair, not only for sampled ones.
"""

import pytest

import g3bell.model
from g3bell.ga import Multivector, Vector3, cross, dot, wedge
from g3bell.model import ORIENTATIONS, product_identity, product_raw

from _exact import Poly

A = Vector3(Poly.var("a1"), Poly.var("a2"), Poly.var("a3"))
B = Vector3(Poly.var("b1"), Poly.var("b2"), Poly.var("b3"))
PLUS, MINUS = ORIENTATIONS
MINUS_DOT = Multivector.scalar(-dot(A, B))


@pytest.fixture(autouse=True)
def _unchecked_norms(monkeypatch):
    # ensure_unit takes a square root, which a polynomial lacks, and none of
    # these identities needs |a| = |b| = 1.
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
