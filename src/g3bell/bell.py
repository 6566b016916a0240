"""CHSH machinery: scalarization maps with genuinely real codomain, the
correlation they induce, the brute-force deterministic bound of 2, and the
grade-0 projection target that reproduces the quantum curve -a.b.

A scalarizer sees one local setting and the hidden variable only.  That
factorization is enforced at registration, because a map acting jointly on
both settings would not be the kind of function the classical bound
constrains.
"""

from __future__ import annotations

import inspect
import itertools
import math
import os
import random
import struct
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .ga import Vector3, _is_int, _is_real, _set_x, _set_y, _set_z, _shown, dot, ensure_unit
from .model import ORIENTATIONS, HiddenVariable, observable

CorrelationFn = Callable[[Vector3, Vector3], float]
ScalarizerFn = Callable[[Vector3, HiddenVariable], float]

# Deterministic probe settings used to vet scalarizers at registration.
_PROBE_SETTINGS = (
    Vector3(1.0, 0.0, 0.0),
    Vector3(0.0, 0.0, 1.0),
    Vector3(0.6, 0.8, 0.0),
    Vector3(0.0, -0.6, 0.8),
)


@dataclass(frozen=True)
class ChshScenario:
    """Four unit measurement settings entering the CHSH combination."""

    a: Vector3
    a_prime: Vector3
    b: Vector3
    b_prime: Vector3

    def __post_init__(self):
        for v in (self.a, self.a_prime, self.b, self.b_prime):
            ensure_unit(v)

    @classmethod
    def from_angles(cls, angles_deg: tuple[float, float, float, float]) -> ChshScenario:
        """Coplanar settings in the e1-e2 plane at the given angles."""
        return cls(*[Vector3(math.cos(r), math.sin(r), 0.0) for r in map(math.radians, angles_deg)])


DEFAULT_ANGLES_DEG = (0.0, 90.0, 45.0, 135.0)


@dataclass(frozen=True)
class Scalarizer:
    """A named map (setting, hidden variable) -> real in [-1, 1]."""

    name: str
    fn: ScalarizerFn


def make_scalarizer(name: str, fn: ScalarizerFn) -> Scalarizer:
    """Register a scalarizer, rejecting joint (nonfactorizing) maps and maps
    whose probed outputs leave [-1, 1]."""
    params = [
        p for p in inspect.signature(fn).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    if len(params) != 2:
        raise ValueError(
            f"scalarizer {name!r} must take exactly (setting, hidden_variable); "
            "joint maps over both settings are not admissible"
        )
    for setting in _PROBE_SETTINGS:
        for hv in ORIENTATIONS:
            value = fn(setting, hv)
            if not _is_real(value):
                raise ValueError(f"scalarizer {name!r} returned a non-real value: {_shown(value)}")
            if abs(value) > 1.0 + 1e-12:
                raise ValueError(f"scalarizer {name!r} left [-1, 1]: {value!r}")
    return Scalarizer(name, fn)


def _grade0_projection(a: Vector3, hv: HiddenVariable) -> float:
    return observable(a, hv).coeffs[0]


def _orientation_sign(a: Vector3, hv: HiddenVariable) -> float:
    return float(hv.orientation)


def _component_sign(a: Vector3, hv: HiddenVariable) -> float:
    # a.z is a's component along the reference axis e3; ties at zero resolve to +1.
    return float(hv.orientation) * (1.0 if a.z >= 0.0 else -1.0)


_DEFAULT_SCALARIZERS = (
    make_scalarizer("grade0_projection", _grade0_projection),
    make_scalarizer("orientation_sign", _orientation_sign),
    make_scalarizer("component_sign", _component_sign),
)


def default_scalarizers() -> tuple[Scalarizer, ...]:
    """The three registered scalarizations, one tuple registered at import.

    Qualitatively different choices, all factorizing: the grade-0 projection
    of the observable (identically zero, since observables are bivectors),
    the bare orientation sign, and the orientation sign keyed to the
    setting's component along a reference axis.
    """
    return _DEFAULT_SCALARIZERS


def chsh(corr: CorrelationFn, sc: ChshScenario) -> float:
    """CHSH combination S = E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    return (
        corr(sc.a, sc.b)
        - corr(sc.a, sc.b_prime)
        + corr(sc.a_prime, sc.b)
        + corr(sc.a_prime, sc.b_prime)
    )


def lhv_bruteforce_bound() -> float:
    """Max |S| over the 16 local deterministic strategies, each a fixed sign
    per setting (a, a', b, b'); scenario-independent."""
    return float(max(abs(a * b - a * b2 + a2 * b + a2 * b2)
                     for a, a2, b, b2 in itertools.product((+1, -1), repeat=4)))


def quantum_target(a: Vector3, b: Vector3) -> float:
    """The grade-0 projection of the model's expectation: -a.b."""
    ensure_unit(a)
    ensure_unit(b)
    return -dot(a, b)


def _unit_vectors(rng: random.Random) -> Iterator[Vector3]:
    """Uniform directions, each a normalized triple of the values of three
    successive ``rng.gauss(0.0, 1.0)`` calls, draw for draw; a triple of norm
    at most 1e-6 is skipped.

    Each step is ``Random.gauss``'s Box-Muller step, its ``mu + z * sigma``
    included, and three steps make two triples.  The third step is drawn only
    once the first triple is taken, as ``gauss`` holds its pending second value
    in ``gauss_next``, so ``rng.random()`` may be drawn between vectors.
    Each vector is built through its slot setters, cheaper than a class call.
    """
    uniform = rng.random
    cos, sin, log, sqrt, tau = math.cos, math.sin, math.log, math.sqrt, math.tau
    new, set_x, set_y, set_z = object.__new__, _set_x, _set_y, _set_z
    while True:
        x2pi = uniform() * tau
        g2rad = sqrt(-2.0 * log(1.0 - uniform()))
        x, y = 0.0 + cos(x2pi) * g2rad, 0.0 + sin(x2pi) * g2rad
        x2pi = uniform() * tau
        g2rad = sqrt(-2.0 * log(1.0 - uniform()))
        z, x2 = 0.0 + cos(x2pi) * g2rad, 0.0 + sin(x2pi) * g2rad
        n = sqrt(x * x + y * y + z * z)
        if n > 1e-6:
            v = new(Vector3)
            set_x(v, x / n)
            set_y(v, y / n)
            set_z(v, z / n)
            yield v
        x2pi = uniform() * tau
        g2rad = sqrt(-2.0 * log(1.0 - uniform()))
        y, z = 0.0 + cos(x2pi) * g2rad, 0.0 + sin(x2pi) * g2rad
        n = sqrt(x2 * x2 + y * y + z * z)
        if n > 1e-6:
            v = new(Vector3)
            set_x(v, x2 / n)
            set_y(v, y / n)
            set_z(v, z / n)
            yield v


def random_unit_vector(rng: random.Random) -> Vector3:
    """Uniform direction via a normalized Gaussian triple drawn through
    ``rng.gauss``; a triple of norm at most 1e-6 is redrawn."""
    while True:
        x, y, z = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        n = math.sqrt(x * x + y * y + z * z)
        if n > 1e-6:
            return Vector3(x / n, y / n, z / n)


# A split run folds each half, at least 1,000 trials or about 28 ms of a
# default audit, in its own process; a fork round trip takes about 3 ms.
_SPLIT_MIN_TRIALS = 2000
# Uniform draws per trial when no triple is rejected: six Box-Muller pairs for
# the four normal triples, and the weight.  No normal is then pending between
# trials.
_DRAWS_PER_TRIAL = 13


def _fold(fns: Sequence[ScalarizerFn], rng: random.Random, vector: Callable[[], Vector3],
          trials: int, worst: list[float]) -> None:
    """Fold ``trials`` trials into ``worst``: Max |S| per scalarizer, raised
    only by a strictly larger value, so a NaN is never stored."""
    plus, minus = ORIENTATIONS
    for _ in range(trials):
        # Drawn unit and in [0, 1), in ChshScenario's order, so left unchecked.
        a, a2, b, b2 = vector(), vector(), vector(), vector()
        wp = rng.random()
        wm = 1.0 - wp
        for k, fn in enumerate(fns):
            ap, am = fn(a, plus), fn(a, minus)
            a2p, a2m = fn(a2, plus), fn(a2, minus)
            bp, bm = fn(b, plus), fn(b, minus)
            b2p, b2m = fn(b2, plus), fn(b2, minus)
            value = abs(
                (0.0 + wp * ap * bp + wm * am * bm)
                - (0.0 + wp * ap * b2p + wm * am * b2m)
                + (0.0 + wp * a2p * bp + wm * a2m * bm)
                + (0.0 + wp * a2p * b2p + wm * a2m * b2m)
            )
            if value > worst[k]:
                worst[k] = value


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _splits(trials: int) -> bool:
    """Whether ``scalarizer_maxima`` folds the last half of its trials in a
    forked child.  A process with a second thread is never forked: the child
    would inherit any lock that thread holds, with no thread to release it."""
    return (trials >= _SPLIT_MIN_TRIALS and hasattr(os, "fork")
            and threading.active_count() == 1 and _usable_cpus() >= 2)


def _advanced(seed: int, draws: int) -> random.Random:
    """``random.Random(seed)`` after ``draws`` calls of ``random()``, each of
    which takes two 32-bit words, as ``getrandbits(64)`` does; advanced in
    bounded chunks."""
    rng = random.Random(seed)
    while draws:
        chunk = min(draws, 1024)
        rng.getrandbits(64 * chunk)
        draws -= chunk
    return rng


def _fork_fold(fns: Sequence[ScalarizerFn], rng: random.Random,
               trials: int) -> tuple[int, int] | None:
    """Fork a child that folds ``trials`` trials from ``rng`` with a fresh
    unit-vector generator and writes its maxima to a pipe as ``<d`` doubles;
    return the child's pid and the pipe's read end, or None when no pipe or
    process can be had.  The child writes nothing else and always ends in
    ``os._exit``: 0 once its maxima are written, 1 on any exception."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        worst = [0.0] * len(fns)
        _fold(fns, rng, _unit_vectors(rng).__next__, trials, worst)
        with open(write_fd, "wb") as pipe:
            pipe.write(struct.pack(f"<{len(worst)}d", *worst))
        status = 0
    finally:
        os._exit(status)


def scalarizer_maxima(scalarizers: Sequence[Scalarizer], trials: int,
                      seed: int) -> tuple[float, ...]:
    """Max |S| per scalarizer over one seeded stream of random scenarios and
    distribution weights, shared by every scalarizer.

    Each trial evaluates each scalarizer once per (setting, orientation) and
    combines the 8 values in the association order of the definitional loop
    ``tests/_oracle.py::reference_scalarizer_maxima``, so the maxima are
    bit-identical to that definition.

    From 2,000 trials on, with a second usable CPU and no second thread, a
    forked child folds the last ``trials // 2`` trials while this process
    folds the rest.  The child starts from the stream advanced by 13 draws per
    head trial, which is where the head ends exactly when it rejects no
    triple; its maxima are used only then, and only if it exited with status
    0 after writing them all.  Otherwise this process folds the tail itself,
    continuing its own stream.  So for pure scalarizers only, the maxima and
    any exception one raises are those of one sequential fold.
    """
    if not (_is_int(trials) and trials >= 1):
        raise ValueError(f"trials must be an int >= 1, got {_shown(trials)}")
    fns = [s.fn for s in scalarizers]
    rng = random.Random(seed)
    vector = _unit_vectors(rng).__next__
    worst = [0.0] * len(fns)
    child = None
    if _splits(trials):
        tail = trials // 2
        ahead = _advanced(seed, _DRAWS_PER_TRIAL * (trials - tail))
        child = _fork_fold(fns, ahead, tail)
    if child is None:
        _fold(fns, rng, vector, trials, worst)
        return tuple(worst)
    pid, read_fd = child
    with open(read_fd, "rb") as pipe:
        try:
            _fold(fns, rng, vector, trials - tail, worst)
            data = pipe.read()
        except BaseException:
            import signal  # imported here only, to keep it off the start-up path
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if status == 0 and len(data) == 8 * len(fns) and rng.getstate() == ahead.getstate():
        tail_worst = struct.unpack(f"<{len(fns)}d", data)
        return tuple(t if t > h else h for h, t in zip(worst, tail_worst))
    _fold(fns, rng, vector, tail, worst)
    return tuple(worst)


def scalarizer_audit(s: Scalarizer, trials: int, seed: int) -> float:
    """Max |S| for the scalarized correlation over seeded random scenarios
    and random distribution weights."""
    return scalarizer_maxima((s,), trials, seed)[0]
