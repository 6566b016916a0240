"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them on success).  Tolerances are pinned
here and nowhere else."""

import json
import math
import random
import time

from g3bell.ga import BASIS, I, Multivector, Vector3, cross, dot
from g3bell.model import ORIENTATIONS, OrientationDistribution, product_identity, product_raw
from g3bell.measure import (
    DEFAULT_P_GRID,
    MeasureKind,
    codomain_support,
    expectation,
    measure_total,
)
from g3bell.bell import (
    ChshScenario,
    DEFAULT_ANGLES_DEG,
    chsh,
    default_scalarizers,
    lhv_bruteforce_bound,
    quantum_target,
)
from g3bell.audit import AuditConfig, DEFAULT_PAIRS, emit, run_audit

from _oracle import oracle_table

TOL = 1e-12

SCALAR = MeasureKind.SCALAR_WEIGHTS
DIRECTED = MeasureKind.DIRECTED_TRIVECTOR

GENERIC_PAIR = (Vector3(1.0, 0.0, 0.0),
                Vector3(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0))
ORTHOGONAL_PAIR = (Vector3(1.0, 0.0, 0.0), Vector3(0.0, 1.0, 0.0))


def _verdict(name: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    return ok


def _random_unit_pairs(count: int, seed: int = 2024):
    rng = random.Random(seed)

    def one():
        while True:
            v = Vector3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
            if v.norm() > 1e-6:
                return v.normalized()

    return [(one(), one()) for _ in range(count)]


def test_product_identity_grade_parts_on_1000_random_pairs():
    pairs = _random_unit_pairs(1000)
    started = time.perf_counter()
    worst = 0.0
    for a, b in pairs:
        d, c = dot(a, b), cross(a, b).norm()
        for hv in ORIENTATIONS:
            mv = product_identity(a, b, hv)
            worst = max(worst, abs(mv.coeffs[0] + d), abs(mv.grade_norm(2) - c))
    elapsed = time.perf_counter() - started
    ok = worst <= TOL and elapsed < 1.0
    assert _verdict(
        f"identity form: grade-0 = -a.b and grade-2 magnitude = |a x b| on 1000 "
        f"random pairs, both orientations (max err {worst:.2e}, {elapsed:.2f}s)", ok)


def test_geometric_product_matches_independent_cayley_table():
    table = oracle_table()
    ok = True
    for i in range(8):
        for j in range(8):
            sign, slot = table[i][j]
            if (BASIS[i] * BASIS[j]) != Multivector.blade(slot, float(sign)):
                ok = False
    assert _verdict("geometric product agrees exactly with the independently "
                    "generated 8x8 basis table on all 64 pairs", ok)


def test_codomain_supports_scalar_and_directed():
    a, b = GENERIC_PAIR
    ok = (codomain_support(product_identity, a, b, SCALAR, DEFAULT_P_GRID, TOL).present
          == frozenset({0, 2}))
    ok &= (codomain_support(product_identity, a, b, DIRECTED, DEFAULT_P_GRID, TOL).present
           == frozenset({1, 3}))
    oa, ob = ORTHOGONAL_PAIR
    ok &= (codomain_support(product_identity, oa, ob, SCALAR, DEFAULT_P_GRID, TOL).present
           == frozenset({2}))
    ok &= (codomain_support(product_identity, oa, ob, DIRECTED, DEFAULT_P_GRID, TOL).present
           == frozenset({1}))
    assert _verdict("codomain sweep: generic pair gives {0,2} / {1,3}, orthogonal "
                    "pair drops to {2} / {1}", ok)


def test_directed_measure_never_normalizes_to_scalar_unity():
    one = Multivector.scalar(1.0)
    ok = True
    for p in DEFAULT_P_GRID:
        dist = OrientationDistribution(p)
        directed = measure_total(dist, DIRECTED)
        scalar = measure_total(dist, SCALAR)
        ok &= directed == I
        ok &= expectation(product_identity, *GENERIC_PAIR, dist,
                          DIRECTED, TOL).valid_probability_measure is False
        ok &= scalar == one
        ok &= expectation(product_identity, *GENERIC_PAIR, dist,
                          SCALAR, TOL).valid_probability_measure is True
    assert _verdict("normalization: directed total is exactly e123 with the valid "
                    "flag false for every p; scalar total is exactly 1 with the "
                    "flag true", ok)


def test_leak_magnitude_quantified_across_grid():
    a, b = GENERIC_PAIR
    c = cross(a, b).norm()
    worst = 0.0
    for p in DEFAULT_P_GRID:
        result = expectation(product_identity, a, b, OrientationDistribution(p), SCALAR, TOL)
        worst = max(worst, abs(result.value.grade_norm(2) - abs(2.0 * p - 1.0) * c))
    iso = expectation(product_identity, a, b, OrientationDistribution(0.5), SCALAR, TOL)
    ok = worst <= TOL and iso.value.grade_norm(2) == 0.0
    assert _verdict(f"scalar-weight grade-2 leak equals |2p-1|*|a x b| across the "
                    f"grid (max err {worst:.2e}) and is exactly zero at p = 1/2", ok)


def test_directed_functional_attains_no_scalar_value():
    worst = 0.0
    pairs = list(DEFAULT_PAIRS) + [GENERIC_PAIR]
    for a, b in pairs:
        for form in (product_identity, product_raw):
            for p in DEFAULT_P_GRID:
                result = expectation(form, a, b, OrientationDistribution(p), DIRECTED, TOL)
                worst = max(worst, abs(result.value.coeffs[0]))
    ok = worst <= TOL
    assert _verdict(f"directed functional: grade-0 component is zero at every grid "
                    f"point for every audited pair (max {worst:.2e})", ok)


def test_bell_bounds():
    started = time.perf_counter()
    ok = lhv_bruteforce_bound() == 2.0
    from g3bell.bell import scalarizer_audit
    for s in default_scalarizers():
        ok &= scalarizer_audit(s, trials=10000, seed=42) <= 2.0 + TOL
    scenario = ChshScenario.from_angles(DEFAULT_ANGLES_DEG)
    s_value = chsh(quantum_target, scenario)
    ok &= abs(s_value + 2.0 * math.sqrt(2.0)) <= TOL
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    assert _verdict(f"bell bounds: enumeration gives exactly 2, three scalarizer "
                    f"audits stay within 2 + 1e-12 over 10000 seeded trials, and the "
                    f"quantum target reaches -2*sqrt(2) ({elapsed:.1f}s)", ok)


def test_identical_configs_give_byte_identical_json_reports():
    config = AuditConfig(output_format="json")
    first = emit(run_audit(config))
    second = emit(run_audit(config))
    ok = first == second and json.loads(first) == json.loads(second)
    assert _verdict("determinism: two runs with identical config emit "
                    "byte-identical json reports", ok)
