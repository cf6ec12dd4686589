"""The benchmark's tracer (``perfbench/spans.py``) binds every function it
lists by name, so a traced function that is renamed or removed breaks every
traced benchmark run. This test installs and uninstalls the tracer on the
loaded trilink modules, so such a change also fails here."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import trilink.cli  # noqa: F401  (loads every trilink module the tracer wraps)


def load_spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_wraps_every_traced_function_and_restores_every_binding():
    spans = load_spans()
    modules = {name: m for name, m in sys.modules.items()
               if m is not None and (name == "trilink" or name.startswith("trilink."))}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    undo = spans.Tracer().install()
    try:
        for home, name, *_ in (*spans.TRACED, spans.GENERATOR):
            mod = f"trilink.{home}"
            assert getattr(modules[mod], name) is not before[mod][name], f"{mod}.{name} is not wrapped"
    finally:
        spans.Tracer.uninstall(undo)
    assert undo
    for name, mod in modules.items():
        now = vars(mod)
        assert [attr for attr, val in before[name].items() if now[attr] is not val] == [], name
