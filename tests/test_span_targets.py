"""The names the benchmark's span tracer wraps exist in the library.

``bench/spans.py`` wraps each ``sl3building.<module>.<qualname>`` of its
``TARGETS`` table, methods in their class's own ``__dict__``.  A rename in the
library breaks the traced benchmark run; this test catches it in tier 1.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    missing = []
    for mod_name, quals in _targets().items():
        module = importlib.import_module(f"sl3building.{mod_name}")
        for qual in quals:
            if "." in qual:
                cls_name, meth = qual.split(".")
                found = meth in vars(getattr(module, cls_name, object))
            else:
                found = callable(getattr(module, qual, None))
            if not found:
                missing.append(f"{mod_name}.{qual}")
    assert not missing, f"span targets missing from sl3building: {missing}"
