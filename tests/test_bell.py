import inspect
import math
import os
import random
import threading

import pytest
from hypothesis import given, assume
from hypothesis import strategies as st

from g3bell.ga import NonUnitVectorError, Vector3, dot
from g3bell import bell
from g3bell.audit import AuditConfig, run_audit
from g3bell.model import ORIENTATIONS, OrientationDistribution
from g3bell.bell import (
    DEFAULT_ANGLES_DEG,
    ChshScenario,
    _unit_vectors,
    chsh,
    default_scalarizers,
    lhv_bruteforce_bound,
    make_scalarizer,
    quantum_target,
    random_unit_vector,
    scalarizer_audit,
    scalarizer_maxima,
)

from _oracle import reference_scalarizer_maxima, reference_unit_vector, scalar_correlation

TOL = 1e-12

E1V = Vector3(1, 0, 0)
E2V = Vector3(0, 1, 0)
E3V = Vector3(0, 0, 1)

DEFAULT_SCENARIO = ChshScenario.from_angles(DEFAULT_ANGLES_DEG)

GRADE0, ORIENT_SIGN, COMPONENT_SIGN = default_scalarizers()

coords = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def unit_vectors():
    def build(xyz):
        v = Vector3(*xyz)
        assume(v.norm() > 1e-3)
        return v.normalized()
    return st.tuples(coords, coords, coords).map(build)


# --- scenario -------------------------------------------------------------------

def test_from_angles_gives_unit_settings():
    sc = DEFAULT_SCENARIO
    for v in (sc.a, sc.a_prime, sc.b, sc.b_prime):
        assert abs(v.norm() - 1.0) <= TOL
    assert sc.a == Vector3(1.0, 0.0, 0.0)


def test_scenario_rejects_non_unit():
    with pytest.raises(NonUnitVectorError):
        ChshScenario(E1V, E2V, E3V, Vector3(1, 1, 0))


# --- scalar correlations -----------------------------------------------------------

def test_orientation_sign_correlation_is_one():
    value = scalar_correlation(ORIENT_SIGN, E1V, E2V, OrientationDistribution(0.5))
    assert value == 1.0


def test_grade0_correlation_is_zero():
    for pair in ((E1V, E2V), (E1V, E3V), (E2V, E3V)):
        assert scalar_correlation(GRADE0, *pair, OrientationDistribution(0.5)) == 0.0


def test_component_sign_antipodal_correlation():
    value = scalar_correlation(COMPONENT_SIGN, E3V, Vector3(0, 0, -1),
                               OrientationDistribution(0.5))
    assert value == -1.0


def _component_sign_by_definition(a, hv):
    return float(hv.orientation) * (1.0 if dot(a, E3V) >= 0.0 else -1.0)


@given(unit_vectors())
def test_component_sign_is_the_sign_of_the_e3_component(a):
    for hv in ORIENTATIONS:
        assert COMPONENT_SIGN.fn(a, hv) == _component_sign_by_definition(a, hv)


@pytest.mark.parametrize("a", [Vector3(1.0, 0.0, 0.0), Vector3(1.0, 0.0, -0.0)])
def test_component_sign_resolves_a_zero_component_to_plus(a):
    for hv in ORIENTATIONS:
        assert COMPONENT_SIGN.fn(a, hv) == _component_sign_by_definition(a, hv) == hv.orientation


@given(unit_vectors(), unit_vectors(),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.sampled_from(default_scalarizers()))
def test_scalar_correlation_bounded_by_one(a, b, p, s):
    value = scalar_correlation(s, a, b, OrientationDistribution(p))
    assert abs(value) <= 1.0 + TOL


def test_scalar_correlation_rejects_non_unit():
    with pytest.raises(NonUnitVectorError):
        scalar_correlation(ORIENT_SIGN, Vector3(1, 1, 0), E2V, OrientationDistribution(0.5))


# --- chsh combination ---------------------------------------------------------------

def test_chsh_constant_correlations():
    assert chsh(lambda a, b: 1.0, DEFAULT_SCENARIO) == 2.0
    assert chsh(lambda a, b: 0.0, DEFAULT_SCENARIO) == 0.0


def test_chsh_quantum_target_at_default_angles():
    s = chsh(quantum_target, DEFAULT_SCENARIO)
    assert abs(s + 2.0 * math.sqrt(2.0)) <= TOL


@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_chsh_linear_in_correlation_scale(c):
    base = chsh(quantum_target, DEFAULT_SCENARIO)
    scaled = chsh(lambda a, b: c * quantum_target(a, b), DEFAULT_SCENARIO)
    assert abs(scaled - c * base) <= 1e-9


# --- deterministic strategies ---------------------------------------------------------

def test_lhv_bruteforce_bound_is_exactly_two():
    assert lhv_bruteforce_bound() == 2.0


# --- quantum target --------------------------------------------------------------------

def test_quantum_target_examples():
    assert quantum_target(E1V, E1V) == -1.0
    assert quantum_target(E1V, E2V) == 0.0
    s2 = 1.0 / math.sqrt(2.0)
    assert abs(quantum_target(E1V, Vector3(s2, s2, 0)) + s2) <= TOL


def test_quantum_target_rejects_non_unit():
    with pytest.raises(NonUnitVectorError):
        quantum_target(Vector3(0.5, 0, 0), E1V)


# --- scalarizer registration --------------------------------------------------------------

def test_joint_scalarizer_rejected():
    with pytest.raises(ValueError, match="joint"):
        make_scalarizer("joint", lambda a, b, hv: 1.0)


def test_out_of_range_scalarizer_rejected():
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        make_scalarizer("big", lambda a, hv: 2.0)


def test_non_real_scalarizer_rejected():
    with pytest.raises(ValueError, match="non-real"):
        make_scalarizer("nan", lambda a, hv: float("nan"))
    # A bool is an int to isinstance, but not a real value.
    with pytest.raises(ValueError, match="non-real"):
        make_scalarizer("bool", lambda a, hv: hv.orientation > 0)


def test_registered_names():
    names = [s.name for s in default_scalarizers()]
    assert names == ["grade0_projection", "orientation_sign", "component_sign"]


def test_default_scalarizers_are_registered_once(monkeypatch):
    assert default_scalarizers() is default_scalarizers()

    def refuse(*args, **kwargs):
        raise AssertionError("a scalarizer was registered during an audit")

    # Registration runs make_scalarizer, which reads each map's signature.
    monkeypatch.setattr(bell, "make_scalarizer", refuse)
    monkeypatch.setattr(inspect, "signature", refuse)
    report = run_audit(AuditConfig(p_step=0.5, trials=20))
    assert report.all_confirmed()
    assert list(report.document["chsh"]["scalarizer_maxima"]) == \
        [s.name for s in default_scalarizers()]


# --- scalarizer audit ------------------------------------------------------------------------

def test_orientation_sign_audit_saturates_classical_bound():
    assert scalarizer_audit(ORIENT_SIGN, trials=200, seed=7) == 2.0


def test_grade0_audit_is_zero():
    assert scalarizer_audit(GRADE0, trials=50, seed=7) == 0.0


def test_component_sign_audit_obeys_classical_bound():
    assert scalarizer_audit(COMPONENT_SIGN, trials=2000, seed=11) <= 2.0 + TOL


def test_scalarizer_audit_deterministic_per_seed():
    first = scalarizer_audit(COMPONENT_SIGN, trials=300, seed=123)
    second = scalarizer_audit(COMPONENT_SIGN, trials=300, seed=123)
    assert first == second


def test_scalarizer_audit_rejects_bad_trials(monkeypatch):
    with pytest.raises(ValueError):
        scalarizer_audit(ORIENT_SIGN, trials=0, seed=1)
    # Rejected before any draw or fork, like AuditConfig's trials.
    monkeypatch.setattr(bell, "_unit_vectors", None)
    monkeypatch.setattr(os, "fork", None, raising=False)
    for trials in (True, False, 2.5, 2000.0, "10"):
        with pytest.raises(ValueError, match="trials"):
            scalarizer_audit(ORIENT_SIGN, trials=trials, seed=1)
        with pytest.raises(ValueError, match="trials"):
            scalarizer_maxima(default_scalarizers(), trials=trials, seed=1)


# --- streamed Monte Carlo against the per-scalarizer reference loop ----------------------------

# Continuous scalarizers whose maxima are not round numbers, so a change in
# the association order of the CHSH sum would show in the last bits.
CONTINUOUS = (
    make_scalarizer("orientation_times_z", lambda a, hv: hv.orientation * a.z),
    make_scalarizer("tilted", lambda a, hv: 0.5 * (a.x + hv.orientation * a.y)),
)


@pytest.mark.parametrize("seed", [1, 42, 2024])
def test_scalarizer_maxima_bitwise_equal_to_reference_loop(seed):
    scalarizers = default_scalarizers() + CONTINUOUS
    fast = scalarizer_maxima(scalarizers, trials=300, seed=seed)
    assert fast == reference_scalarizer_maxima(scalarizers, trials=300, seed=seed)
    for value in fast[3:]:
        assert value not in (0.0, 1.0, 2.0)


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_sampler_matches_reference_vectors_and_rng_state(seed):
    fast_rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(500):
        assert random_unit_vector(fast_rng) == reference_unit_vector(ref_rng)
    assert fast_rng.getstate() == ref_rng.getstate()


class _ZeroedDraws(random.Random):
    """A ``random.Random`` whose ``random()`` returns 0.0 at the given draw
    indices, counted from 0, and counts its draws.  A zero second uniform of a
    Box-Muller step makes both of its normals zero."""

    def __init__(self, seed, zeros):
        super().__init__(seed)
        self.zeros = frozenset(zeros)
        self.draws = 0

    def random(self):
        u = super().random()
        self.draws += 1
        return 0.0 if self.draws - 1 in self.zeros else u


@pytest.mark.parametrize("seed", [0, 1, 42, 2024, 99])
@pytest.mark.parametrize("zeros, extra_draws", [
    ((), 0),
    ({1, 3}, 4),  # rejects the first triple of a step pair
    ({3, 5}, 4),  # rejects the second triple
    ({5, 7}, 0),  # zeroes normals of two triples, rejecting neither
    ({1, 3, 5}, 6),  # rejects both triples in a row
    ({27, 29}, 4),  # rejects the first triple of the third trial, after two weights
], ids=["none", "first", "second", "straddling", "both", "third_trial"])
def test_unit_vectors_are_reference_unit_vectors(seed, zeros, extra_draws):
    # A weight draw follows every fourth vector, as in the Monte Carlo; after a
    # rejected triple it falls while a normal is pending.
    fast, ref = _ZeroedDraws(seed, zeros), _ZeroedDraws(seed, zeros)
    vector = _unit_vectors(fast).__next__
    for i in range(40):
        assert ([c.hex() for c in vector().components()]
                == [c.hex() for c in reference_unit_vector(ref).components()])
        if i % 4 == 3:
            assert fast.random() == ref.random()
    assert fast.draws == ref.draws == 13 * 10 + extra_draws
    # The reference keeps a pending normal in gauss_next, the generator in its frame.
    assert fast.getstate()[1] == ref.getstate()[1]


@pytest.mark.parametrize("seed", [0, 5, 77])
def test_unit_vectors_are_class_built_vectors(seed):
    # Each vector is stored through the slot setters, skipping __init__.
    vector = _unit_vectors(random.Random(seed)).__next__
    for _ in range(200):
        v = vector()
        built = Vector3(v.x, v.y, v.z)
        assert type(v) is Vector3 and not hasattr(v, "__dict__")
        assert v == built and hash(v) == hash(built) and repr(v) == repr(built)


class _ScriptedGauss:
    """Stands in for random.Random, replaying fixed gauss draws."""

    def __init__(self, values):
        self.values = list(values)

    def gauss(self, mu, sigma):
        return self.values.pop(0)


def test_sampler_rejects_tiny_triples_like_reference():
    draws = [1e-7, 0.0, 0.0, 0.0, -0.0, 0.0, 3.0, -4.0, 12.0, 9.0]
    fast, ref = _ScriptedGauss(draws), _ScriptedGauss(draws)
    assert random_unit_vector(fast) == reference_unit_vector(ref) == Vector3(3 / 13, -4 / 13, 12 / 13)
    assert fast.values == ref.values == [9.0]


# --- the Monte Carlo split between this process and one forked child ----------------------------

HEAD_TRIALS = 1001  # of SPLIT_TRIALS; the child folds the other 1000
SPLIT_TRIALS = 2001


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked by this process while the test runs."""
    pids = []
    real_fork = os.fork

    def counted():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted, raising=False)
    return pids


def _require_split(trials):
    if not bell._splits(trials):
        pytest.skip("this process cannot fork a worker on a second CPU")


def _in_process(monkeypatch):
    monkeypatch.setattr(bell, "_splits", lambda trials: False)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("trials", [2000, 4001])
@pytest.mark.parametrize("seed", [1, 42, 2024])
def test_split_maxima_bitwise_equal_to_reference_loop(trials, seed, forks):
    _require_split(trials)
    fast = scalarizer_maxima(CONTINUOUS, trials, seed)
    assert fast == reference_scalarizer_maxima(CONTINUOUS, trials, seed)
    assert len(forks) == 1
    _assert_no_child_left()


def test_split_takes_the_tail_from_the_child(forks):
    # A call made in the child is invisible here: only the head's calls count.
    calls = []

    def counted(a, hv):
        calls.append(a)
        return hv.orientation * a.z

    s = make_scalarizer("counted", counted)
    _require_split(SPLIT_TRIALS)
    calls.clear()
    maxima = scalarizer_maxima((s,), SPLIT_TRIALS, 3)
    assert len(forks) == 1
    assert len(calls) == 8 * HEAD_TRIALS
    assert maxima == reference_scalarizer_maxima((s,), SPLIT_TRIALS, 3)


def _reject_one_triple(monkeypatch, index):
    """Have the first unit-vector generator made from now on drop its vector
    ``index``, whose triple is then drawn and unused as a rejected one is, so
    that trial draws more than 13 uniforms.  A child forked afterwards makes
    its own generator and keeps the plain stream."""
    real = bell._unit_vectors
    made = []

    def dropped(stream):
        for i, v in enumerate(stream):
            if i != index:
                yield v

    def vectors(rng):
        stream = real(rng)
        if made:
            return stream
        made.append(rng)
        return dropped(stream)

    monkeypatch.setattr(bell, "_unit_vectors", vectors)


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_split_falls_back_when_the_head_rejects_a_triple(seed, monkeypatch, forks):
    _require_split(SPLIT_TRIALS)
    index = 4 * 500  # the first vector of trial 500, in the head
    with monkeypatch.context() as m:
        _in_process(m)
        _reject_one_triple(m, index)
        expected = scalarizer_maxima(CONTINUOUS, SPLIT_TRIALS, seed)
        _reject_one_triple(m, index)
        head_only = scalarizer_maxima(CONTINUOUS, HEAD_TRIALS, seed)
    # The tail sets a maximum, so a tail folded from the wrong place would show.
    assert expected != head_only
    _reject_one_triple(monkeypatch, index)
    assert scalarizer_maxima(CONTINUOUS, SPLIT_TRIALS, seed) == expected
    assert len(forks) == 1
    _assert_no_child_left()


def _first_setting_of_trial(seed, trial):
    """Setting a of the given trial of the Monte Carlo stream for ``seed``."""
    rng = random.Random(seed)
    for _ in range(trial):
        for _ in range(4):
            reference_unit_vector(rng)
        rng.random()
    return reference_unit_vector(rng)


@pytest.mark.parametrize("trial", [500, HEAD_TRIALS + 300])
def test_split_raises_what_the_sequential_fold_raises(trial, monkeypatch, forks):
    _require_split(SPLIT_TRIALS)
    seed = 8
    target = _first_setting_of_trial(seed, trial)

    def fragile(a, hv):
        if a == target:
            raise ArithmeticError(f"no value at {a}")
        return hv.orientation * a.z

    scalarizers = (CONTINUOUS[1], make_scalarizer("fragile", fragile))
    with monkeypatch.context() as m:
        _in_process(m)
        with pytest.raises(ArithmeticError) as sequential:
            scalarizer_maxima(scalarizers, SPLIT_TRIALS, seed)
    with pytest.raises(ArithmeticError) as split:
        scalarizer_maxima(scalarizers, SPLIT_TRIALS, seed)
    assert str(split.value) == str(sequential.value) == f"no value at {target}"
    assert len(forks) == 1
    _assert_no_child_left()


def _no_process():
    raise BlockingIOError("fork: resource temporarily unavailable")


def test_no_split_below_the_threshold_or_without_a_second_cpu_or_process(monkeypatch, forks):
    expected = reference_scalarizer_maxima(CONTINUOUS, 2000, 9)
    assert scalarizer_maxima(CONTINUOUS, 1999, 9) == \
        reference_scalarizer_maxima(CONTINUOUS, 1999, 9)
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        m.setattr(os, "cpu_count", lambda: 1)
        assert scalarizer_maxima(CONTINUOUS, 2000, 9) == expected
    with monkeypatch.context() as m:
        m.delattr(os, "sched_getaffinity", raising=False)
        m.setattr(os, "cpu_count", lambda: None)
        assert scalarizer_maxima(CONTINUOUS, 2000, 9) == expected
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    try:
        assert scalarizer_maxima(CONTINUOUS, 2000, 9) == expected
    finally:
        release.set()
        worker.join()
    assert forks == []
    with monkeypatch.context() as m:
        m.setattr(os, "fork", _no_process)
        assert scalarizer_maxima(CONTINUOUS, 2000, 9) == expected
    monkeypatch.delattr(os, "fork", raising=False)
    assert scalarizer_maxima(CONTINUOUS, 2000, 9) == expected
