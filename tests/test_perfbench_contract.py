"""What the benchmark harness under ``perfbench/`` reads of the program.

The harness wraps public functions by name and calls others directly, so
removing or renaming one breaks a traced benchmark run without failing any
other test.  These tests read the harness sources and never import or edit
them.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import g3bell
import g3bell.cli  # noqa: F401  (a span target; the package does not import it)
from g3bell import AuditConfig, run_audit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _span_targets() -> list[tuple[str, str]]:
    """(module, attribute) of every function ``spans.py`` wraps."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    values = {node.targets[0].id: ast.literal_eval(node.value)
              for node in tree.body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("TARGETS", "DEFAULT_SCALARIZERS")}
    return [(module, attr) for module, attr, _ in (*values["TARGETS"],
                                                   values["DEFAULT_SCALARIZERS"])]


def _resolve(dotted: str):
    obj = g3bell
    for name in dotted.split(".")[1:]:
        obj = getattr(obj, name)
    return obj


@pytest.mark.parametrize("module, attr", _span_targets())
def test_every_span_target_resolves(module, attr):
    assert callable(getattr(_resolve(module), attr))


def test_every_referenced_program_name_exists():
    names = set()
    for path in SOURCES:
        text = path.read_text()
        names |= set(re.findall(r"\bg3bell(?:\.[A-Za-z_]\w*)+", text))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("g3bell"):
                names |= {f"{node.module}.{alias.name}" for alias in node.names}
    assert "g3bell.scalarizer_audit" in names
    for dotted in sorted(names):
        _resolve(dotted)


def test_audit_calls_the_traced_expectation_and_scalarizers(monkeypatch):
    # Wrap each function in every g3bell namespace that holds it, as the
    # harness does: its traced figures divide by these calls.
    calls = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    for module, attr in [("g3bell.measure", "expectation"), ("g3bell.bell", "default_scalarizers")]:
        assert (module, attr) in _span_targets()
        original = getattr(_resolve(module), attr)
        for name, mod in list(sys.modules.items()):
            if name == "g3bell" or name.startswith("g3bell."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counting(attr, original))
    run_audit(AuditConfig(p_step=0.5, trials=2))
    assert calls.get("expectation", 0) >= 1
    assert calls.get("default_scalarizers", 0) >= 1
