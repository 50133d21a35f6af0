"""The benchmark's span tracer (perfbench/tracer.py) wraps library functions
by name, looking each up in its owner's __dict__. A rename in the library
would only surface when someone runs the benchmark with --trace 1; this test
resolves every target of the unmodified tracer module instead."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = ("_kernels", "netcore", "router", "train", "sample", "datagen", "metrics", "cli")


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    mods = {name: importlib.import_module(f"diffrouter.{name}") for name in MODULES}
    targets = tracer.targets(mods)
    assert targets
    missing = [f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
               for span, owner, attr, _ in targets
               if not callable(owner.__dict__.get(attr))]
    assert not missing, missing
