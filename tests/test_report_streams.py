"""The benchmark's sampled report streams, pinned by sha256.

The goldens pin fixed argvs only.  This test draws the first audits of each
``perfbench`` workload from the same inputs the benchmark draws (generic
random pairs, a 0.002 grid, non-default seeds with a split Monte Carlo) and
compares two digests per (workload, seed) with ``data/report_streams.json``:

- ``report``: the emitted documents, text for ``chsh_default`` and JSON for
  the library workloads, as the benchmark emits them;
- ``floats``: the ``repr`` of every float in each ``report.document``, in
  document order, a probe ``Sweep`` read as its JSON rows, so a one-ulp
  change that 15-digit JSON rounds away still shows.

The inputs follow ``perfbench/workloads.py``'s ``InputStream`` recipe, and
each workload's shape (grid step, trials, extra pairs, entry point) is read
from that file's source, which is parsed and not imported.  A change that
moves report bytes on purpose recaptures the manifest with
``PYTHONPATH=src python tests/test_report_streams.py`` and says why.
"""

from __future__ import annotations

import ast
import hashlib
import json
import random
from pathlib import Path

import pytest

import g3bell
from g3bell import cli
from g3bell.measure import Sweep

from _oracle import reference_sweep_rows

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_SOURCE = ROOT / "perfbench" / "workloads.py"
MANIFEST = Path(__file__).parent / "data" / "report_streams.json"

SEEDS = (1, 2)
# Audits hashed per (workload, seed): the short batch audits are many.
AUDITS = {"chsh_default": 1, "sweep_fine": 1, "batch_small": 20}


def workload_shapes() -> dict:
    """Each ``Workload(...)`` in perfbench's source: its grid step, trials,
    extra pairs and entry point (``_cli_audit`` or ``_library_audit``)."""
    shapes = {}
    for node in ast.walk(ast.parse(WORKLOADS_SOURCE.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload":
            fields = {kw.arg: kw.value for kw in node.keywords}
            shapes[ast.literal_eval(node.args[0])] = {
                "p_step": ast.literal_eval(fields["p_step"]),
                "trials": ast.literal_eval(fields["trials"]),
                "extra_pairs": ast.literal_eval(fields["extra_pairs"]),
                "run": fields["run"].id,
            }
    return shapes


def audit_inputs(name: str, extra_pairs: int, seed: int, count: int):
    """The first ``count`` (seed, pairs) inputs of ``InputStream``: one
    ``Random`` seeded with ``"<workload>:<seed>"``, no seed or pair repeated."""
    rng = random.Random(f"{name}:{seed}")
    seeds: set = set()
    seen: set = set()
    for _ in range(count):
        audit_seed = rng.randrange(2**31)
        while audit_seed in seeds:
            audit_seed = rng.randrange(2**31)
        seeds.add(audit_seed)
        pairs = []
        while len(pairs) < extra_pairs:
            pair = (_unit(rng), _unit(rng))
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
        yield audit_seed, tuple(pairs)


def _unit(rng: random.Random) -> g3bell.Vector3:
    while True:
        v = g3bell.Vector3(*(rng.gauss(0.0, 1.0) for _ in range(3)))
        if v.norm() > 1e-3:
            return v.normalized()


def _float_reprs(obj, out: list) -> None:
    if type(obj) is float:
        out.append(repr(obj))
    elif isinstance(obj, Sweep):
        # The probe's floats in the order of its JSON rows: p, then the 8 slots.
        _float_reprs(reference_sweep_rows(obj), out)
    elif isinstance(obj, dict):
        for value in obj.values():
            _float_reprs(value, out)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _float_reprs(value, out)


def stream_digests(name: str, shape: dict, seed: int, count: int) -> dict:
    """sha256 of the first ``count`` emitted reports and of their floats."""
    reports, floats = hashlib.sha256(), hashlib.sha256()
    for audit_seed, pairs in audit_inputs(name, shape["extra_pairs"], seed, count):
        if shape["run"] == "_cli_audit":
            # cli.main's path, short of writing to stdout.
            config = cli.config_from_args(cli.build_parser().parse_args(["--seed", str(audit_seed)]))
        else:
            config = g3bell.AuditConfig(p_step=shape["p_step"], trials=shape["trials"],
                                        seed=audit_seed, output_format="json", extra_pairs=pairs)
        report = g3bell.run_audit(config)
        reports.update(g3bell.emit(report).encode())
        out: list = []
        _float_reprs(report.document, out)
        floats.update("\n".join(out).encode() + b"\n")
    return {"report": reports.hexdigest(), "floats": floats.hexdigest()}


def capture() -> dict:
    shapes = workload_shapes()
    return {name: {"shape": shapes[name], "audits": count,
                   "seeds": {str(seed): stream_digests(name, shapes[name], seed, count)
                             for seed in SEEDS}}
            for name, count in AUDITS.items()}


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def test_manifest_covers_each_workload_at_its_benchmarked_shape():
    manifest = _manifest()
    shapes = workload_shapes()
    assert set(manifest) == set(shapes) == set(AUDITS)
    for name, entry in manifest.items():
        assert entry["shape"] == shapes[name], f"{name}: recapture the manifest"
        assert entry["audits"] == AUDITS[name]
        assert set(entry["seeds"]) == {str(seed) for seed in SEEDS}


@pytest.mark.parametrize("name", list(AUDITS))
@pytest.mark.parametrize("seed", SEEDS)
def test_report_stream_matches_manifest(name, seed):
    entry = _manifest()[name]
    assert stream_digests(name, entry["shape"], seed, entry["audits"]) == entry["seeds"][str(seed)]


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(capture(), indent=2) + "\n")
