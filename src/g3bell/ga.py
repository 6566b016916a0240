"""Arithmetic kernel for G3, the geometric algebra of 3-D Euclidean space.

A multivector is stored as 8 real coefficients over the fixed basis

    (1, e1, e2, e3, e12, e13, e23, e123)

with e_i e_i = +1, e_i e_j = -e_j e_i for i != j, and pseudoscalar
I = e123 (central, I*I = -1).  Note the bivector ordering uses e13,
not e31.  Every operation is a pure function on immutable values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

BLADE_NAMES = ("1", "e1", "e2", "e3", "e12", "e13", "e23", "e123")
GRADES = (0, 1, 2, 3)

# Slot indices of each grade in the coefficient tuple.
GRADE_SLOTS = {0: (0,), 1: (1, 2, 3), 2: (4, 5, 6), 3: (7,)}

DEFAULT_TOLERANCE = 1e-12
UNIT_TOLERANCE = 1e-9
# The squared norms s where abs(sqrt(s) - 1.0) <= UNIT_TOLERANCE form one interval (sqrt is
# monotone and correctly rounded, n - 1.0 exact on [0.5, 2]); bisection over the doubles finds it.
_UNIT_NORM2_MIN = float.fromhex("0x1.ffffffeed1f42p-1")
_UNIT_NORM2_MAX = float.fromhex("0x1.000000089705fp+0")

# Geometric product of basis blades: _CAYLEY[i][j] = (sign, slot) such that
# blade_i * blade_j = sign * blade_slot.  Written out explicitly; the test
# suite regenerates this table independently by sign-counting blade
# concatenations and compares all 64 entries.
_CAYLEY = (
    ((+1, 0), (+1, 1), (+1, 2), (+1, 3), (+1, 4), (+1, 5), (+1, 6), (+1, 7)),
    ((+1, 1), (+1, 0), (+1, 4), (+1, 5), (+1, 2), (+1, 3), (+1, 7), (+1, 6)),
    ((+1, 2), (-1, 4), (+1, 0), (+1, 6), (-1, 1), (-1, 7), (+1, 3), (-1, 5)),
    ((+1, 3), (-1, 5), (-1, 6), (+1, 0), (+1, 7), (-1, 1), (-1, 2), (+1, 4)),
    ((+1, 4), (-1, 2), (+1, 1), (+1, 7), (-1, 0), (-1, 6), (+1, 5), (-1, 3)),
    ((+1, 5), (-1, 3), (-1, 7), (+1, 1), (+1, 6), (-1, 0), (-1, 4), (+1, 2)),
    ((+1, 6), (+1, 7), (-1, 3), (+1, 2), (-1, 5), (+1, 4), (-1, 0), (-1, 1)),
    ((+1, 7), (+1, 6), (-1, 5), (+1, 4), (-1, 3), (+1, 2), (-1, 1), (-1, 0)),
)


class NonUnitVectorError(ValueError):
    """A direction argument was not a unit vector within tolerance."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    # Not math.isfinite(x), which raises OverflowError past the largest float.
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _shown(x) -> str:
    """repr(x), or its type (and bit length, for an int) when repr raises."""
    try:
        return repr(x)
    except ValueError:
        return f"<{type(x).__name__}{f' of {x.bit_length()} bits' if _is_int(x) else ''}>"


def _max_magnitude(magnitudes) -> float:
    # A NaN fails every `<= tol`, but the builtin max keeps its maximum past one.
    # Magnitudes are >= 0 or NaN, so their sum is NaN exactly when one is NaN.
    return math.nan if math.isnan(sum(magnitudes)) else max(magnitudes)


def _grade_norms(coeffs) -> tuple[float, float, float, float]:
    """Each grade's Euclidean magnitude: squares as products, not libm's pow,
    added left to right (the builtin sum compensates from Python 3.12), so a
    norm has the same bits on every interpreter and C library."""
    s, x1, x2, x3, b1, b2, b3, t = coeffs
    return (math.sqrt(s * s), math.sqrt(x1 * x1 + x2 * x2 + x3 * x3),
            math.sqrt(b1 * b1 + b2 * b2 + b3 * b3), math.sqrt(t * t))


@dataclass(frozen=True, slots=True, init=False)
class Vector3:
    """A vector of 3-D Euclidean space, components along e1, e2, e3."""

    x: float
    y: float
    z: float

    def __init__(self, x: float, y: float, z: float) -> None:
        # Set through the slot descriptors: cheaper than object.__setattr__ per field.
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def normalized(self) -> Vector3:
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Vector3(self.x / n, self.y / n, self.z / n)

    def as_multivector(self) -> Multivector:
        """Embed as the grade-1 element x*e1 + y*e2 + z*e3."""
        return Multivector((0.0, self.x, self.y, self.z, 0.0, 0.0, 0.0, 0.0))

    def components(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True, slots=True, init=False)
class Multivector:
    """An element of G3 as 8 coefficients in the fixed basis order."""

    coeffs: tuple[float, float, float, float, float, float, float, float] = (
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    )

    def __init__(self, coeffs: tuple[float, float, float, float,
                                     float, float, float, float] = coeffs) -> None:
        _set_coeffs(self, coeffs)  # as in Vector3; the default is the field's

    @classmethod
    def scalar(cls, value: float) -> Multivector:
        return cls((value, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    @classmethod
    def blade(cls, slot: int, value: float = 1.0) -> Multivector:
        c = [0.0] * 8
        c[slot] = float(value)
        return cls(tuple(c))

    def __add__(self, other: Multivector) -> Multivector:
        return Multivector(tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]))

    def __sub__(self, other: Multivector) -> Multivector:
        return Multivector(tuple([a - b for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self) -> Multivector:
        return Multivector(tuple([-a for a in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return gp(self, other)
        return NotImplemented

    def scale(self, factor: float) -> Multivector:
        return Multivector(tuple([factor * a for a in self.coeffs]))

    def grade_norm(self, k: int) -> float:
        """Euclidean magnitude of the grade-k component."""
        if not (_is_int(k) and k in GRADE_SLOTS):
            raise ValueError(f"grade index must be an int in 0..3, got {_shown(k)}")
        return _grade_norms(self.coeffs)[k]

    def max_abs_coeff(self) -> float:
        """Largest coefficient magnitude; NaN if any coefficient is NaN."""
        return _max_magnitude([abs(a) for a in self.coeffs])

    def max_abs_diff(self, other: Multivector) -> float:
        """Largest coefficient-wise difference; NaN if any difference is NaN."""
        return _max_magnitude([abs(a - b) for a, b in zip(self.coeffs, other.coeffs)])

    def __str__(self) -> str:
        terms = []
        for c, name in zip(self.coeffs, BLADE_NAMES):
            if c == 0.0:
                continue
            mag = f"{abs(c):.12g}"
            body = mag if name == "1" else (name if mag == "1" else f"{mag}*{name}")
            terms.append(("-" if c < 0 else "+", body))
        if not terms:
            return "0"
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


_set_x, _set_y, _set_z = Vector3.x.__set__, Vector3.y.__set__, Vector3.z.__set__
_set_coeffs = Multivector.coeffs.__set__
ZERO = Multivector()
ONE = Multivector.blade(0)
E1 = Multivector.blade(1)
E2 = Multivector.blade(2)
E3 = Multivector.blade(3)
E12 = Multivector.blade(4)
E13 = Multivector.blade(5)
E23 = Multivector.blade(6)
I = Multivector.blade(7)

BASIS = (ONE, E1, E2, E3, E12, E13, E23, I)


@dataclass(frozen=True, slots=True)
class GradeSupport:
    """Which grades a value (or a family of values) occupies.

    ``present`` holds the grades whose observed magnitude exceeded the audit
    tolerance; ``max_magnitude`` records the largest magnitude seen per grade,
    so a support merged over a family sweep remembers how big each grade got.
    """

    present: frozenset[int]
    max_magnitude: tuple[float, float, float, float]

    def union(self, other: GradeSupport) -> GradeSupport:
        # _max_magnitude([a, b]) per grade, without its list: a NaN on either side is kept.
        return GradeSupport(self.present | other.present, tuple([
            b if b > a or b != b else a for a, b in zip(self.max_magnitude, other.max_magnitude)]))

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted(self.present))


def gp(x: Multivector, y: Multivector) -> Multivector:
    """Geometric product, expanded through the basis Cayley table."""
    out = [0.0] * 8
    # A NaN is kept, since NaN != 0.0.
    ys = [(j, yj) for j, yj in enumerate(y.coeffs) if yj != 0.0]
    for i, xi in enumerate(x.coeffs):
        if xi == 0.0:
            continue
        row = _CAYLEY[i]
        for j, yj in ys:
            sign, slot = row[j]
            out[slot] += sign * xi * yj
    return Multivector(tuple(out))


def grade_project(x: Multivector, k: int) -> Multivector:
    """Component of x in the grade-k subspace."""
    if not (_is_int(k) and k in GRADE_SLOTS):
        raise ValueError(f"grade index must be an int in 0..3, got {_shown(k)}")
    slots = GRADE_SLOTS[k]
    return Multivector(tuple(c if i in slots else 0.0 for i, c in enumerate(x.coeffs)))


def dot(a: Vector3, b: Vector3) -> float:
    return a.x * b.x + a.y * b.y + a.z * b.z


def cross(a: Vector3, b: Vector3) -> Vector3:
    """Right-handed cross product; satisfies I*(a x b) = wedge(a, b)."""
    return Vector3(
        a.y * b.z - a.z * b.y,
        a.z * b.x - a.x * b.z,
        a.x * b.y - a.y * b.x,
    )


def wedge(a: Vector3, b: Vector3) -> Multivector:
    """Outer product a ^ b: the grade-2 part of the geometric product."""
    return Multivector((
        0.0, 0.0, 0.0, 0.0,
        a.x * b.y - a.y * b.x,
        a.x * b.z - a.z * b.x,
        a.y * b.z - a.z * b.y,
        0.0,
    ))


def grade_audit(x: Multivector, tol: float = DEFAULT_TOLERANCE) -> GradeSupport:
    """Grade support of a single multivector at the given tolerance."""
    if tol <= 0.0:
        raise ValueError("audit tolerance must be positive")
    mags = _grade_norms(x.coeffs)
    return GradeSupport(frozenset([k for k in GRADES if mags[k] > tol]), mags)


def ensure_unit(v: Vector3) -> Vector3:
    """Validate that v is a unit vector within UNIT_TOLERANCE; returns v unchanged.

    Compares the squared norm with the ends of the interval where the norm is
    within tolerance, which for float and int components (``Vector3``'s types)
    accepts and raises as the norm's own test does; NaN and overflow fail it.
    """
    s = v.x * v.x + v.y * v.y + v.z * v.z
    if not (_UNIT_NORM2_MIN <= s <= _UNIT_NORM2_MAX):
        n = math.sqrt(s)  # v.norm(), without its call
        raise NonUnitVectorError(f"expected a unit vector, got norm {n!r}")
    return v
