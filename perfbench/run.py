"""Benchmark of g3bell's audit, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {chsh_default,sweep_fine,batch_small,all}
                             [--seed N] [--seconds S] [--trace {0,1}]

The load is a single-threaded closed loop: one caller starts the next audit
only after the previous one returned, and each workload runs in a fresh
process of its own (``all`` starts one child process per workload, one after
another).  The program is imported from ``src/`` of the same checkout.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics:
audits per second, median audit time, set-up time (a fresh interpreter
importing ``g3bell.cli``) and peak RSS; it also prints the tail latency, when
the run has enough audits for one, and the failed fraction.  Times are in
reference seconds, which cancel the shared host's speed drift (see
``refclock.py``); the raw wall times are printed beside them.  ``--trace 1``
runs each audit twice, untraced and then under the span tracer of
``spans.py``, requires byte-identical reports from the two, reports the
per-layer metrics per audit, writes the spans to ``perfbench/out/``, and
prints per-call times of single layers next to the ROADMAP Baseline.

Every audit's output is checked (see ``workloads.py``); an audit that
raises, exits non-zero or fails a check counts as failed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from refclock import RefClock
from spans import ROOT, SCALARIZER_FN, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 21
# Entry spans of the audit layer: a layer's share counts its calls made from these.
AUDIT_SPANS = frozenset({ROOT, "cli.main", "audit.run_audit", "audit.emit"})


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import g3bell from it."""
    if not (SRC / "g3bell" / "__init__.py").is_file():
        sys.exit(f"perfbench: g3bell sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import g3bell

    if Path(g3bell.__file__).resolve().parent != (SRC / "g3bell").resolve():
        sys.exit(f"perfbench: imported g3bell from {g3bell.__file__}, not from {SRC}")


def _emit(line: str = "") -> None:
    print(line, flush=True)


def _problem(attempt: int, lines) -> None:
    print(f"perfbench: audit {attempt} failed:", *lines, sep="\n  ", file=sys.stderr)


def measure_setup() -> tuple:
    """Median (wall s, reference s) of a fresh interpreter importing g3bell.cli.

    One untimed import first compiles the bytecode cache, which a user pays
    once per install, not once per run."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import g3bell.cli"
    cmd = [sys.executable, "-I", "-c", code]
    subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
    clock = RefClock()
    clock.sample()
    for _ in range(SETUP_REPEATS):
        done, _ = clock.call(subprocess.run, cmd, check=True, stdin=subprocess.DEVNULL)
        if isinstance(done, Exception):
            raise done
        clock.sample()
    walls, refs = zip(*clock.times())
    return statistics.median(walls), statistics.median(refs)


def tail(samples: list) -> tuple | None:
    """(percentile, value) for the highest integer percentile >= 90 that
    leaves at least ten samples above it (nearest rank), or None."""
    n = len(samples)
    if n < 100:
        return None
    pct = 100 * (n - 10) // n
    rank = math.ceil(pct * n / 100)
    return pct, sorted(samples)[rank - 1]


def timed_run(wl, seed: int, seconds: float) -> dict:
    from workloads import InputStream, corruption_self_check

    setup_wall, setup_s = measure_setup()
    stream = InputStream(wl, seed)
    clock = RefClock()
    elapsed, ok = [], []
    unflagged = None
    deadline = time.perf_counter() + seconds
    clock.start_timer()
    try:
        while not elapsed or time.perf_counter() + statistics.median(elapsed) <= deadline:
            inp = stream.next()
            out, dt = clock.call(wl.run, wl, inp)
            elapsed.append(dt)
            if isinstance(out, Exception):
                _problem(len(elapsed), traceback.format_exception(out))
                ok.append(False)
                continue
            problems = wl.check(wl, inp, out)
            if problems:
                _problem(len(elapsed), problems)
            elif unflagged is None:
                unflagged = corruption_self_check(wl, inp, out)
            ok.append(not problems)
            del out  # so the next audit's peak RSS does not include this report
    finally:
        clock.stop_timer()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    times = clock.times()
    walls = [w for w, _ in times]
    refs = [r for _, r in times]
    passed = [r for r, good in zip(refs, ok) if good]
    attempted, failed = len(times), ok.count(False)
    self_check_ok = unflagged == []
    if unflagged:
        print(f"perfbench: corrupted reports not flagged: {unflagged}", file=sys.stderr)
    metrics = {
        "audits_per_s": (len(passed) / sum(refs), "1/s"),
        "audit_p50_s": (statistics.median(passed or refs), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    _emit("times in reference seconds (perfbench/refclock.py); raw wall in brackets")
    _emit(f"audits_per_s = {metrics['audits_per_s'][0]:.6g} 1/s  "
          f"[{len(passed) / sum(walls):.6g}]  ({len(passed)} passing audits, "
          "time inside audit calls only)")
    _emit(f"audit_p50_s = {metrics['audit_p50_s'][0]:.6g} s  "
          f"[{statistics.median(walls):.6g}]  (n={len(passed) or attempted})")
    t = tail(passed)
    if t is not None:
        _emit(f"audit_tail_s = {t[1]:.6g} s  (p{t[0]}, n={len(passed)}, "
              f"{len(passed) - math.ceil(t[0] * len(passed) / 100)} samples above)")
    _emit(f"setup_s = {setup_s:.6g} s  [{setup_wall:.6g}]  (median of {SETUP_REPEATS} "
          "fresh interpreters importing g3bell.cli)")
    _emit(f"peak_rss_mb = {peak_rss_mb:.6g} MB  (getrusage RUSAGE_SELF)")
    _emit(f"fail_frac = {failed / attempted:.6g}  ({failed} of {attempted} audits)")
    verdict = "not run: no audit passed" if unflagged is None else (
        "ok" if self_check_ok else "FAILED")
    _emit(f"corruption self-check: {verdict}")
    return {
        "correct": failed == 0 and self_check_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(wl, seed: int, seconds: float) -> dict:
    from workloads import InputStream

    tracer = Tracer()
    patched = tracer.patch()
    tracer.unpatch()
    stream = InputStream(wl, seed)
    attempted = failed = 0
    overheads, sizes, counts, pairs_s = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not pairs_s or time.perf_counter() + statistics.median(pairs_s) <= deadline:
        inp = stream.next()
        attempted += 1
        before = tracer.counts()
        t0 = time.perf_counter()
        try:
            plain = wl.run(wl, inp)
            plain_s = time.perf_counter() - t0
            traced, traced_s = tracer.audit(wl.run, wl, inp)
        except Exception:
            failed += 1
            _problem(attempted, [traceback.format_exc()])
            continue
        finally:
            pairs_s.append(time.perf_counter() - t0)
        after = tracer.counts()
        counts.append({k: v - before.get(k, 0) for k, v in after.items()})
        problems = wl.check(wl, inp, plain)
        if traced != plain:
            problems.append("traced and untraced reports differ")
        if problems:
            failed += 1
            _problem(attempted, problems)
        overheads.append(traced_s - plain_s)
        sizes.append(len(plain.document.encode()))

    n = tracer.audits
    if not overheads:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    tot = tracer.totals
    gp, obs = tot("ga.gp"), tot("model.observable")
    p_id, p_raw = tot("model.product_identity"), tot("model.product_raw")
    ex, sa = tot("measure.expectation"), tot("bell.scalarizer_audit")
    rv, fn = tot("bell.random_unit_vector"), tot(SCALARIZER_FN + ":")
    ds, ra, em, cm = (tot("bell.default_scalarizers"), tot("audit.run_audit"),
                      tot("audit.emit"), tot("cli.main"))
    scalarizers = len({k for k in counts[0] if k.startswith(SCALARIZER_FN)})
    trials = n * wl.trials * scalarizers
    metrics = {
        "ga.gp.calls": (gp[0] / n, "count"),
        "ga.gp.self_s": (gp[2] / n, "s"),
        "model.observable.calls": (obs[0] / n, "count"),
        "model.observable.s": (obs[1] / n, "s"),
        "model.product_identity.calls": (p_id[0] / n, "count"),
        "model.product_identity.s": (p_id[1] / n, "s"),
        "model.product_raw.calls": (p_raw[0] / n, "count"),
        "model.product_raw.s": (p_raw[1] / n, "s"),
        "measure.expectation.calls": (ex[0] / n, "count"),
        "measure.expectation.s": (ex[1] / n, "s"),
        "measure.expectation.us_per_call": (ex[1] / ex[0] * 1e6, "us"),
        "bell.scalarizer_audit.s": (sa[1] / n, "s"),
        "bell.trial_us": (sa[1] / trials * 1e6, "us"),
        "bell.random_unit_vector.calls": (rv[0] / n, "count"),
        "bell.sampling.s": (rv[1] / n, "s"),
        "bell.draws_per_scenario": (rv[0] / (4 * n * wl.trials), "draws/scenario"),
        "bell.scalarizer_fn.calls_per_trial": (fn[0] / trials, "calls/trial"),
        "bell.default_scalarizers.s": (ds[1] / n, "s"),
        "audit.run_audit.self_s": (ra[2] / n, "s"),
        "audit.emit.s": (em[1] / n, "s"),
        "audit.emit.bytes": (statistics.mean(sizes), "bytes"),
        "trace.overhead_s": (statistics.median(overheads), "s"),
    }
    for name, (value, unit) in metrics.items():
        _emit(f"{name} = {value:.6g} {unit}")
    if cm[0]:
        _emit(f"cli.main.self_s = {cm[2] / n:.6g} s")
    _emit(f"tracing overhead: median {statistics.median(overheads):.4g} s per audit "
          f"(traced wall minus untraced wall, {len(overheads)} audits)")
    repeat = all(c == counts[0] for c in counts)
    _emit(f"call counts repeat exactly across {len(counts)} audits: {'yes' if repeat else 'NO'}")
    _print_shares(tracer, wl)
    _emit(f"namespaces patched: {', '.join(patched)}")
    baseline_cross_check()

    path = OUT / f"trace-{wl.name}-seed{seed}.json"
    tracer.write(path, {"workload": wl.name, "seed": seed, "root": ROOT,
                        "python": platform.python_version(), "patched": patched})
    _emit(f"spans written to {path.relative_to(HERE.parent)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _print_shares(tracer, wl) -> None:
    """Share of traced audit wall time per layer, counting each layer's calls
    made from the audit layer (so bell includes the model/ga work it calls)."""
    tot = tracer.totals
    total = tot(ROOT)[1]
    run_audit = tot("audit.run_audit")[1]

    def entry(prefix: str) -> float:
        return sum(rec[1] for (name, parent), rec in tracer.calls.items()
                   if name.startswith(prefix) and parent in AUDIT_SPANS)

    shares = {
        "cli": tot("cli.main")[2],
        "audit": tot("audit.run_audit")[2] + tot("audit.emit")[1],
        "bell": entry("bell."),
        "measure": entry("measure."),
        "model": entry("model."),
        "ga": entry("ga."),
    }
    _emit("layer shares of traced audit wall: " + ", ".join(
        f"{k} {v / total:.1%}" for k, v in shares.items()))
    checks = {
        "chsh_default": ("bell >= 90% of run_audit", shares["bell"] >= 0.9 * run_audit),
        "sweep_fine": ("measure.expectation >= 75% of run_audit",
                       shares["measure"] >= 0.75 * run_audit),
        "batch_small": ("no layer above 60%", max(shares.values()) <= 0.6 * total),
    }
    if wl.name in checks:
        text, ok = checks[wl.name]
        _emit(f"workload design check ({text}): {'met' if ok else 'NOT met'}")


# ROADMAP Baseline per-call times in microseconds (Python 3.11.7, shared
# 2-vCPU host, about +-15% noise).  None: the Baseline gives no figure.
BASELINE_US = {
    "ga.gp (mu*a)": 3.3,
    "model.product_identity": 14.0,
    "model.product_raw": 18.0,
    "measure.expectation": 77.0,
    "measure.codomain_support (21 points)": 2000.0,
    "bell trial grade0_projection": 145.0,
    "bell trial orientation_sign": 47.0,
    "bell sampling (one random_unit_vector)": None,
    "audit.emit json": 5700.0,
    "audit.emit text": 170.0,
}


def baseline_cross_check() -> None:
    """Untraced per-call times of single layers, next to the ROADMAP Baseline."""
    import g3bell
    from g3bell import bell

    a = g3bell.Vector3(0.6, 0.8, 0.0)
    b = g3bell.Vector3(0.0, 0.6, 0.8)
    hv = g3bell.ORIENTATIONS[0]
    mu, a_mv = hv.mu, a.as_multivector()
    dist = g3bell.OrientationDistribution(0.3)
    kind = g3bell.MeasureKind.SCALAR_WEIGHTS
    scal = {s.name: s for s in g3bell.default_scalarizers()}
    report = g3bell.run_audit(g3bell.AuditConfig(trials=100))
    rng = random.Random(0)
    trials = 200
    cases = {
        "ga.gp (mu*a)": (20000, 1, lambda: g3bell.gp(mu, a_mv)),
        "model.product_identity": (5000, 1, lambda: g3bell.product_identity(a, b, hv)),
        "model.product_raw": (5000, 1, lambda: g3bell.product_raw(a, b, hv)),
        "measure.expectation": (
            1000, 1, lambda: g3bell.expectation(g3bell.product_identity, a, b, dist, kind)),
        "measure.codomain_support (21 points)": (
            40, 1, lambda: g3bell.codomain_support(g3bell.product_identity, a, b, kind)),
        "bell trial grade0_projection": (
            1, trials, lambda: g3bell.scalarizer_audit(scal["grade0_projection"], trials, 1)),
        "bell trial orientation_sign": (
            3, trials, lambda: g3bell.scalarizer_audit(scal["orientation_sign"], trials, 1)),
        "bell sampling (one random_unit_vector)": (
            5000, 1, lambda: bell.random_unit_vector(rng)),
        "audit.emit json": (20, 1, lambda: g3bell.emit(report, "json")),
        "audit.emit text": (200, 1, lambda: g3bell.emit(report, "text")),
    }

    def repeat(fn, number):
        for _ in range(number):
            fn()

    clock = RefClock()
    clock.sample()
    for number, _, fn in cases.values():
        for _ in range(5):
            clock.call(repeat, fn, number)
            clock.sample()
    times = iter(clock.times())
    _emit("per-call times, untraced, median of 5 repeats: wall us [reference us] "
          "vs ROADMAP Baseline wall us (+-15%):")
    for name, (number, per, _) in cases.items():
        walls, refs = zip(*(next(times) for _ in range(5)))
        us = statistics.median(walls) / (number * per) * 1e6
        ref_us = statistics.median(refs) / (number * per) * 1e6
        base = BASELINE_US[name]
        if base is None:
            _emit(f"  {name}: {us:.4g} [{ref_us:.4g}]  (no Baseline figure)")
        else:
            flag = "within" if abs(us / base - 1.0) <= 0.15 else "OUTSIDE"
            _emit(f"  {name}: {us:.4g} [{ref_us:.4g}]  (Baseline {base:g}, "
                  f"ratio {us / base:.2f}, {flag} +-15%)")


def run_all(args, names) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        _emit(f"== {name}")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              stdin=subprocess.DEVNULL)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            _emit(line)
        results[name] = json.loads(lines[-1])
    _emit(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    _import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))

    wl = WORKLOADS[args.workload]
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    _emit(f"workload {wl.name}")
    _emit(f"seed {args.seed} | seconds {args.seconds:g} | trace {args.trace} | "
          f"closed loop, 1 client | python {platform.python_version()} "
          f"({platform.python_implementation()}) | nproc {os.cpu_count()} "
          f"(usable {affinity}) | {platform.machine()}")
    run = traced_run if args.trace else timed_run
    _emit(json.dumps(run(wl, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
