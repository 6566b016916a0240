"""G3 in its Pauli representation, and the singlet state the model claims to
reproduce, written in plain complex arithmetic.

``M`` sends e_k to the Pauli matrix sigma_k, e12 to i*sigma_3, e13 to
-i*sigma_2, e23 to i*sigma_1 and e123 to i times the identity; it is an
isomorphism of real algebras from G3 onto the complex 2 x 2 matrices.  So the
package's Cayley table, observables and product forms are checked here
against matrix products that share no code with them.  The singlet
correlation <psi-|(sigma.a) x (sigma.b)|psi-> is computed from explicit
Kronecker products in C^4, which derives the -a.b that
``bell.quantum_target`` returns and ``projection_reproduces_violation``
compares with.
"""

import math

from hypothesis import given, assume
from hypothesis import strategies as st

from g3bell.ga import Multivector, Vector3, cross, dot, gp, wedge
from g3bell.bell import DEFAULT_ANGLES_DEG, ChshScenario, chsh, quantum_target
from g3bell.model import ORIENTATIONS, observable, product_identity, product_raw

IDENTITY = ((1 + 0j, 0j), (0j, 1 + 0j))
SIGMA = (
    ((0j, 1 + 0j), (1 + 0j, 0j)),
    ((0j, -1j), (1j, 0j)),
    ((1 + 0j, 0j), (0j, -1 + 0j)),
)


def scaled(c, m):
    return tuple(tuple(c * x for x in row) for row in m)


def added(*ms):
    return tuple(tuple(sum(xs) for xs in zip(*rows)) for rows in zip(*ms))


def matmul(m, n):
    return tuple(tuple(sum(m[i][k] * n[k][j] for k in range(len(n))) for j in range(len(n[0])))
                 for i in range(len(m)))


def kron(m, n):
    return tuple(tuple(m[i][j] * n[k][l] for j in range(len(m[0])) for l in range(len(n[0])))
                 for i in range(len(m)) for k in range(len(n)))


# The image of each basis blade, in the slot order (1, e1, e2, e3, e12, e13, e23, e123).
BLADE_MATRICES = (
    IDENTITY, SIGMA[0], SIGMA[1], SIGMA[2],
    scaled(1j, SIGMA[2]), scaled(-1j, SIGMA[1]), scaled(1j, SIGMA[0]), scaled(1j, IDENTITY),
)


def pauli(x: Multivector):
    return added(*[scaled(c, m) for c, m in zip(x.coeffs, BLADE_MATRICES)])


def sigma_dot(a: Vector3):
    return added(scaled(a.x, SIGMA[0]), scaled(a.y, SIGMA[1]), scaled(a.z, SIGMA[2]))


def gap(m, n) -> float:
    """Largest difference of a real or imaginary part between two matrices."""
    return max(max(abs(d.real), abs(d.imag))
               for rm, rn in zip(m, n) for d in (x - y for x, y in zip(rm, rn)))


coeffs = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
multivectors = st.tuples(*[coeffs] * 8).map(Multivector)
coords = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def unit_vectors():
    def build(xyz):
        v = Vector3(*xyz)
        assume(v.norm() > 1e-3)
        return v.normalized()
    return st.tuples(coords, coords, coords).map(build)


# Each matrix entry below is a short sum of rounded products; over 20,000
# random draws none differed by more than 2 ulp of 1, or of the coefficient
# scale for the geometric product.
ULPS = 4


# --- the representation ---------------------------------------------------------

def test_basis_images_obey_the_algebra():
    # e_k e_k = 1, e1 e2 e3 = e123, and e123 squares to -1.
    for m in SIGMA:
        assert matmul(m, m) == IDENTITY
    assert matmul(matmul(SIGMA[0], SIGMA[1]), SIGMA[2]) == BLADE_MATRICES[7]
    assert matmul(BLADE_MATRICES[7], BLADE_MATRICES[7]) == scaled(-1, IDENTITY)


@given(multivectors, multivectors)
def test_geometric_product_is_the_matrix_product(x, y):
    scale = sum(map(abs, x.coeffs)) * sum(map(abs, y.coeffs))
    assert gap(pauli(gp(x, y)), matmul(pauli(x), pauli(y))) <= ULPS * math.ulp(scale)


@given(unit_vectors())
def test_observable_is_the_orientation_times_i_sigma_dot_a(a):
    for hv in ORIENTATIONS:
        expected = scaled(hv.orientation * 1j, sigma_dot(a))
        assert gap(pauli(observable(a, hv)), expected) <= ULPS * math.ulp(1.0)


@given(unit_vectors(), unit_vectors())
def test_product_forms_against_the_pauli_product(a, b):
    # (sigma.a)(sigma.b) = (a.b) 1 + i sigma.(a x b), and its image: a b = a.b + a ^ b.
    ab = matmul(sigma_dot(a), sigma_dot(b))
    assert gap(ab, added(scaled(dot(a, b), IDENTITY), scaled(1j, sigma_dot(cross(a, b))))) \
        <= ULPS * math.ulp(1.0)
    assert gap(pauli(wedge(a, b)), scaled(1j, sigma_dot(cross(a, b)))) <= ULPS * math.ulp(1.0)
    ba = matmul(sigma_dot(b), sigma_dot(a))
    plus, minus = ORIENTATIONS
    # The raw product (mu a)(mu b) is -(sigma.a)(sigma.b) at either orientation;
    # the identity form is that at +1 only, and -(sigma.b)(sigma.a) at -1.
    for hv in ORIENTATIONS:
        assert gap(pauli(product_raw(a, b, hv)), scaled(-1, ab)) <= ULPS * math.ulp(1.0)
    assert gap(pauli(product_identity(a, b, plus)), scaled(-1, ab)) <= ULPS * math.ulp(1.0)
    assert gap(pauli(product_identity(a, b, minus)), scaled(-1, ba)) <= ULPS * math.ulp(1.0)


# --- the singlet ------------------------------------------------------------------

SINGLET = (0j, complex(1 / math.sqrt(2)), complex(-1 / math.sqrt(2)), 0j)  # (|01> - |10>)/sqrt 2


def singlet_correlation(a: Vector3, b: Vector3) -> float:
    """<psi-|(sigma.a) x (sigma.b)|psi->, a real number up to rounding."""
    op = kron(sigma_dot(a), sigma_dot(b))
    value = sum(SINGLET[i].conjugate() * op[i][j] * SINGLET[j] for i in range(4) for j in range(4))
    assert abs(value.imag) <= 4 * math.ulp(1.0)
    return value.real


@given(unit_vectors(), unit_vectors())
def test_singlet_correlation_is_the_quantum_target(a, b):
    assert abs(singlet_correlation(a, b) - quantum_target(a, b)) <= 4 * math.ulp(1.0)


def test_singlet_chsh_at_the_default_angles_is_cirelsons_bound():
    s = chsh(singlet_correlation, ChshScenario.from_angles(DEFAULT_ANGLES_DEG))
    assert abs(s + 2 * math.sqrt(2)) <= 4 * math.ulp(2 * math.sqrt(2))
