"""The benchmark's tracer patches names of the package: every one resolves.

perfbench/tracing.py wraps functions where they are looked up.  A name
deleted or renamed in src/ would crash the traced benchmark run; this test
fails first.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    missing = [(name, getattr(owner, "__name__", owner), attr)
               for name, sites, _, _ in _tracing().patch_table()
               for owner, attr in sites
               if not callable(getattr(owner, attr, None))]
    assert missing == []
