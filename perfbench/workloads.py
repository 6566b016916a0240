"""The three audit workloads: seeded inputs, one audit call each, and the
checks every audit's output must pass.

Each workload drives g3bell only through its public entry points:
``g3bell.cli.main`` for ``chsh_default``, and ``run_audit`` followed by
``emit(..., "json")`` for the two library workloads.  A workload's inputs
come from the workload seed alone, and no per-audit seed or setting pair
repeats within a run, so memoizing results across audits earns nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

import g3bell
from g3bell import cli

QUANTUM_TARGET_S = -2.0 * math.sqrt(2.0)
CLAIM_COUNT = 10
EXACT_TOL = 1e-12


class AuditInput(NamedTuple):
    """Inputs of one audit: the scenario-sampler seed and the extra pairs."""

    seed: int
    pairs: tuple


class Outcome(NamedTuple):
    """What one audit returned: its exit code and the emitted document."""

    code: int
    document: str


@dataclass(frozen=True)
class Workload:
    name: str
    # Library config (None: the CLI defaults); trials also sizes the bell counts.
    p_step: float | None
    trials: int
    extra_pairs: int
    run: Callable[["Workload", AuditInput], Outcome]
    check: Callable[["Workload", AuditInput, Outcome], list]


def _cli_audit(wl: Workload, inp: AuditInput) -> Outcome:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--seed", str(inp.seed)])
    return Outcome(code, out.getvalue())


def _library_audit(wl: Workload, inp: AuditInput) -> Outcome:
    config = g3bell.AuditConfig(p_step=wl.p_step, trials=wl.trials, seed=inp.seed,
                                output_format="json", extra_pairs=inp.pairs)
    report = g3bell.run_audit(config)
    document = g3bell.emit(report, "json")
    return Outcome(0 if report.all_confirmed() else 1, document)


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def check_json(wl: Workload, inp: AuditInput, out: Outcome) -> list:
    """Problems found in a JSON report; an empty list means it passed."""
    problems = []
    if out.code != 0:
        problems.append(f"exit code {out.code}")
    try:
        doc = json.loads(out.document, parse_constant=_reject_constant)
    except ValueError as exc:
        return problems + [f"invalid JSON: {exc}"]
    try:
        claims = doc["claims"]
        if len(claims) != CLAIM_COUNT or any(c["verdict"] != "confirmed" for c in claims):
            problems.append("not all ten verdicts are confirmed")
        chsh = doc["chsh"]
        problems += _check_chsh(chsh["scalarizer_maxima"], chsh["quantum_target_s"])
        if doc["config"]["seed"] != inp.seed:
            problems.append("report seed differs from the input seed")
        pairs = g3bell.DEFAULT_PAIRS + inp.pairs
        keys = doc["config"]["pairs"]
        if len(keys) != len(pairs):
            problems.append(f"{len(keys)} pairs reported, {len(pairs)} audited")
        for key, (a, b) in zip(keys, pairs):
            probe = doc["functional_range"][key]["identity"]["probe"]
            worst = _probe_error(probe, a, b)
            if not worst <= EXACT_TOL:
                problems.append(f"pair {key}: directed probe off its closed form by {worst!r}")
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def _check_chsh(maxima: dict, target_s: float) -> list:
    problems = []
    if maxima["grade0_projection"] != 0.0:
        problems.append(f"grade0_projection maximum {maxima['grade0_projection']!r} != 0")
    if maxima["orientation_sign"] != 2.0:
        problems.append(f"orientation_sign maximum {maxima['orientation_sign']!r} != 2")
    if not maxima["component_sign"] <= 2.0 + EXACT_TOL:
        problems.append(f"component_sign maximum {maxima['component_sign']!r} > 2")
    if not abs(target_s - QUANTUM_TARGET_S) <= EXACT_TOL:
        problems.append(f"quantum target S {target_s!r} != -2*sqrt(2)")
    return problems


def _probe_error(probe: list, a, b) -> float:
    """Largest coefficient error of the directed identity-form expectation
    against its closed form (2p-1)*(a x b) - (a.b)*e123."""
    c = g3bell.cross(a, b)
    d = g3bell.dot(a, b)
    worst = 0.0
    for entry in probe:
        s = 2.0 * entry["p"] - 1.0
        want = (0.0, s * c.x, s * c.y, s * c.z, 0.0, 0.0, 0.0, -d)
        got = entry["value"]
        for k, w in zip(("scalar", "e1", "e2", "e3", "e12", "e13", "e23", "e123"), want):
            err = abs(got[k] - w)
            if not err <= worst:
                worst = err
    return worst


def check_text(wl: Workload, inp: AuditInput, out: Outcome) -> list:
    """Problems found in a text report; an empty list means it passed.

    The text report prints numbers to 12 significant digits, so the quantum
    target is compared at that precision."""
    problems = []
    if out.code != 0:
        problems.append(f"exit code {out.code}")
    lines = out.document.splitlines()
    try:
        verdicts = lines[lines.index("verdicts") + 2:]
        verdicts = verdicts[:verdicts.index("")]
        if len(verdicts) != CLAIM_COUNT or not all(v.endswith(": confirmed") for v in verdicts):
            problems.append("not all ten verdicts are confirmed")
        maxima = {}
        target = None
        for line in lines[lines.index("chsh"):]:
            name, sep, value = line.strip().partition(": ")
            if name in ("grade0_projection", "orientation_sign", "component_sign") and sep:
                maxima[name] = float(value.split()[0])
            if name == "quantum-target S":
                target = value.split()[0]
        problems += _check_chsh(maxima, QUANTUM_TARGET_S)
        if target != f"{QUANTUM_TARGET_S:.12g}":
            problems.append(f"quantum target S {target!r} != -2*sqrt(2)")
        if not lines[2].endswith(f"| seed={inp.seed}"):
            problems.append("report seed differs from the input seed")
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


WORKLOADS = {
    wl.name: wl for wl in (
        # The default CLI run every user makes; bell is about 99% of it.
        Workload(
            "chsh_default", p_step=None, trials=10000, extra_pairs=0, run=_cli_audit, check=check_text),
        # 501 grid points over 19 pairs: measure.expectation and the JSON emit dominate.
        Workload(
            "sweep_fine", p_step=0.002, trials=100, extra_pairs=16, run=_library_audit, check=check_json),
        # Many short audits where no layer dominates, so per-audit set-up shows.
        Workload(
            "batch_small", p_step=0.1, trials=50, extra_pairs=1, run=_library_audit, check=check_json),
    )
}


class InputStream:
    """Per-audit inputs drawn from the workload seed; no seed or pair repeats."""

    def __init__(self, wl: Workload, seed: int):
        self._wl = wl
        self._rng = random.Random(f"{wl.name}:{seed}")
        self._seeds: set = set()
        self._pairs: set = set()

    def next(self) -> AuditInput:
        seed = self._rng.randrange(2**31)
        while seed in self._seeds:
            seed = self._rng.randrange(2**31)
        self._seeds.add(seed)
        pairs = []
        while len(pairs) < self._wl.extra_pairs:
            pair = (self._unit(), self._unit())
            if pair not in self._pairs:
                self._pairs.add(pair)
                pairs.append(pair)
        return AuditInput(seed, tuple(pairs))

    def _unit(self):
        while True:
            v = g3bell.Vector3(*(self._rng.gauss(0.0, 1.0) for _ in range(3)))
            if v.norm() > 1e-3:
                return v.normalized()


def corruption_self_check(wl: Workload, inp: AuditInput, out: Outcome) -> list:
    """Corrupt a passing report in several ways; return the corruptions the
    workload's check failed to flag (an empty list means the check works)."""
    if wl.check is check_text:
        doc = out.document
        target = f"quantum-target S: {QUANTUM_TARGET_S:.12g}"
        corrupted = {
            "exit code 1": out._replace(code=1),
            "refuted verdict": out._replace(document=_replace_last(doc, ": confirmed", ": refuted")),
            "orientation_sign maximum": out._replace(
                document=doc.replace("  orientation_sign: 2", "  orientation_sign: 2.5")),
            "quantum target": out._replace(
                document=doc.replace(target, "quantum-target S: -2.82842712474")),
            "truncated": out._replace(document=doc[: len(doc) // 2]),
        }
    else:
        def mutate(edit) -> Outcome:
            doc = json.loads(out.document)
            edit(doc)
            return out._replace(document=json.dumps(doc, indent=2) + "\n")

        def bump_probe(doc):
            key = doc["config"]["pairs"][0]
            doc["functional_range"][key]["identity"]["probe"][1]["value"]["e1"] += 1e-9

        corrupted = {
            "exit code 1": out._replace(code=1),
            "refuted verdict": mutate(lambda d: d["claims"][-1].update(verdict="refuted")),
            "orientation_sign maximum": mutate(
                lambda d: d["chsh"]["scalarizer_maxima"].update(orientation_sign=2.5)),
            "quantum target": mutate(
                lambda d: d["chsh"].update(quantum_target_s=QUANTUM_TARGET_S + 1e-9)),
            "NaN token": mutate(lambda d: d["chsh"].update(quantum_target_s=math.nan)),
            "directed probe": mutate(bump_probe),
            "truncated": out._replace(document=out.document[: len(out.document) // 2]),
        }
    return [name for name, bad in corrupted.items() if not wl.check(wl, inp, bad)]


def _replace_last(text: str, old: str, new: str) -> str:
    head, sep, tail = text.rpartition(old)
    return head + new + tail if sep else text
