"""The benchmark's span tracer (perfbench/tracer.py) wraps library functions
by name, looking each up in its owner's __dict__, and its driver
(perfbench/run.py) calls library functions directly. A rename in the library
would only surface when someone runs the benchmark; these tests resolve every
tracer target and every library attribute the driver reads instead."""

import ast
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
RUN = TRACER.with_name("run.py")
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


# the names run.py gives the library modules it reads from
DRIVER_NAMES = ("cli", "sample", "datagen", "metrics")


def _library_reads(tree) -> set[tuple[str, str]]:
    """(module, attribute) of each attribute read in the driver on one of
    DRIVER_NAMES or on mods["<module>"]."""
    reads = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in DRIVER_NAMES:
            reads.add((owner.id, node.attr))
        elif (isinstance(owner, ast.Subscript) and isinstance(owner.value, ast.Name)
              and owner.value.id == "mods" and isinstance(owner.slice, ast.Constant)):
            reads.add((owner.slice.value, node.attr))
    return reads


def test_every_library_attribute_the_driver_reads_resolves():
    reads = _library_reads(ast.parse(RUN.read_text(encoding="utf-8")))
    assert ("cli", "main") in reads  # the scan finds the driver's stage calls
    missing = sorted(f"{module}.{attr}" for module, attr in reads
                     if not hasattr(importlib.import_module(f"diffrouter.{module}"), attr))
    assert not missing, missing
