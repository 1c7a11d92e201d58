"""Every function that the benchmark's span tracer wraps still exists.

`bench/spans.py` looks each (module, attribute) of its TARGETS up with
getattr when a traced run starts, so renaming or deleting one of them breaks
only that run.  This test loads the file by path, leaving `bench/` as it is.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    missing = [f"pelltrib.{module}.{attr}" for _, module, attr in targets
               if not callable(getattr(importlib.import_module(f"pelltrib.{module}"), attr, None))]
    assert not missing, missing
