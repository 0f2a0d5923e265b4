"""The benchmark's span tracer still finds every library name it wraps.

`perfbench/tracing.py` patches functions by name; a name that the library
no longer has makes its per-layer metric read None, which otherwise only
the minute-long harness smoke test would notice.
"""

import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
