"""The disputed local model: a trivector-valued hidden variable mu = lambda*I
with orientation lambda in {+1, -1}, bivector spin observables mu*a, and the
two inequivalent forms of the observable product.

The closed-form identity form carries the orientation in its bivector term;
the literal geometric product of the two observables does not, because
(lambda*I)^2 = -1 for either orientation.  Both forms are first class here
and the audit layer reports them side by side without adjudicating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .ga import (
    I,
    Multivector,
    Vector3,
    _set_coeffs,
    cross,
    dot,
    ensure_unit,
    gp,
)


@dataclass(frozen=True, slots=True)
class HiddenVariable:
    """Complete state of the model: an orientation selecting mu = lambda*I.

    The grade-3 subspace of G3 is one-dimensional, so the two orientations
    exhaust the unit trivectors.
    """

    orientation: int

    def __post_init__(self):
        if self.orientation not in (+1, -1):
            raise ValueError(f"orientation must be +1 or -1, got {self.orientation!r}")

    @property
    def mu(self) -> Multivector:
        return _MU[self.orientation]


_MU = {lam: I.scale(float(lam)) for lam in (+1, -1)}  # built once: a Multivector is immutable
ORIENTATIONS = (HiddenVariable(+1), HiddenVariable(-1))


@dataclass(frozen=True)
class OrientationDistribution:
    """Probability weight over the two orientations; isotropic at 1/2."""

    p_plus: float

    def __post_init__(self):
        if not 0.0 <= self.p_plus <= 1.0:
            raise ValueError(f"p_plus must lie in [0, 1], got {self.p_plus!r}")

    @property
    def p_minus(self) -> float:
        return 1.0 - self.p_plus


ISOTROPIC = OrientationDistribution(0.5)


def observable(a: Vector3, hv: HiddenVariable) -> Multivector:
    """Spin observable for setting a: the bivector mu*a.

    Written out from I*e1 = e23, I*e2 = -e13, I*e3 = e12; each slot adds to
    +0.0 as ``gp`` does, so the coefficients match ``gp(hv.mu, a)`` bitwise.
    Built through the slot setter: a call of the class costs more than the store.
    """
    ensure_unit(a)
    lam = float(hv.orientation)
    mv = object.__new__(Multivector)
    _set_coeffs(mv, (
        0.0, 0.0, 0.0, 0.0,
        0.0 + lam * a.z,
        0.0 + (-lam) * a.y,
        0.0 + lam * a.x,
        0.0,
    ))
    return mv


def product_identity(a: Vector3, b: Vector3, hv: HiddenVariable) -> Multivector:
    """Observable product in its quoted closed form: -a.b - mu*(a x b).

    Grade support is contained in {0, 2}; the bivector term flips sign with
    the orientation.
    """
    ensure_unit(a)
    ensure_unit(b)
    scalar_part = Multivector.scalar(-dot(a, b))
    return scalar_part - gp(hv.mu, cross(a, b).as_multivector())


def product_raw(a: Vector3, b: Vector3, hv: HiddenVariable) -> Multivector:
    """Observable product taken literally: (mu*a)(mu*b).

    Equals -a.b - wedge(a, b) for either orientation, so unlike the
    identity form it is orientation-independent.
    """
    return gp(observable(a, hv), observable(b, hv))


# A correlation kernel: one of the product forms above, or any map with the
# same shape (two unit settings and a hidden variable in, multivector out).
ProductForm = Callable[[Vector3, Vector3, HiddenVariable], Multivector]

PRODUCT_FORMS: dict[str, ProductForm] = {
    "identity": product_identity,
    "raw": product_raw,
}
