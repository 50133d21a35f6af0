"""The benchmark's span tracer (perfbench/tracer.py) wraps library functions
by name, looking each up in its owner's __dict__, and its driver
(perfbench/run.py) calls library functions directly. A rename in the library
would only surface when someone runs the benchmark; these tests resolve every
tracer target and every library attribute the driver reads instead. Some
names stay in the library only because the benchmark reads them; a test
checks that no library module comes to depend on them again. A refactor that
routes around a traced function would read 0 in that span's per-layer
metrics; a tiny traced pipeline checks that every span is reached."""

import ast
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
RUN = TRACER.with_name("run.py")
SRC = TRACER.parent.parent / "src" / "diffrouter"
MODULES = ("_kernels", "netcore", "router", "train", "sample", "datagen", "metrics", "cli")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    mods = {name: importlib.import_module(f"diffrouter.{name}") for name in MODULES}
    return tracer, mods


def test_every_trace_target_resolves():
    tracer, mods = _load_tracer()
    targets = tracer.targets(mods)
    assert targets
    missing = [f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
               for span, owner, attr, _ in targets
               if not callable(owner.__dict__.get(attr))]
    assert not missing, missing


# the benchmark's six stages, on a run small enough to take well under a second
PIPELINE = (["gen-data"], ["train-paired"], ["finetune-direct"], ["train-scratch"],
            ["eval", "--mode", "indirect", "--directions", "all"],
            ["eval", "--mode", "direct", "--directions", "nonedges"])
TINY_RUN = ("instance.n_train=300", "instance.n_eval_tuples=300", "schedule.t=5",
            "train.steps=5", "train.finetune_steps=5", "train.scratch_steps=5",
            "network.hidden=8", "eval.n_eval=100")


def test_every_traced_span_is_reached(tmp_path, monkeypatch):
    tracer_mod, mods = _load_tracer()
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(tmp_path / "runs"))
    flags = [a for ov in TINY_RUN for a in ("--override", ov)]
    mods["router"].time_table.cache_clear()  # else a cached table skips time_features
    tracer = tracer_mod.Tracer()
    tracer.install(mods)
    try:
        for argv in PIPELINE:
            assert mods["cli"].main([*argv, *flags]) == 0, argv
    finally:
        tracer.uninstall()
    spans = {span for span, *_ in tracer_mod.targets(mods)}
    unreached = sorted(s for s in spans if not tracer.counters[f"{s}.calls"])
    assert unreached == ["router.grads"]  # the gradient shims have no caller


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


# defined only for perfbench/tracer.py and perfbench/run.py, which name them
BENCHMARK_ONLY = {"zeros_like_grads", "RouterGrads", "USING_NUMBA", "all_directions",
                  "nonedge_directions"}


def _uses_outside_definitions(node, names):
    """Reads of `names` in the tree of `node`, not counting the bodies of the
    functions and classes that define them."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names:
        return []
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
        return [(node.lineno, node.id)]
    if isinstance(node, ast.Attribute) and node.attr in names:
        return [(node.lineno, node.attr)]
    if isinstance(node, ast.alias) and node.name in names:  # from .router import RouterGrads
        return [(node.lineno, node.name)]
    return [use for child in ast.iter_child_nodes(node)
            for use in _uses_outside_definitions(child, names)]


def test_library_does_not_use_names_kept_for_the_benchmark():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    uses = [f"{path.name}:{line}: {name}" for path in modules
            for line, name in _uses_outside_definitions(
                ast.parse(path.read_text(encoding="utf-8")), BENCHMARK_ONLY)]
    assert not uses, uses


def test_each_training_step_is_one_backward_pass(tmp_path, monkeypatch):
    """A paired and a combined step each run one backward pass, so a second
    pass per combined step cannot creep back in unnoticed."""
    tracer_mod, mods = _load_tracer()
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(tmp_path / "runs"))
    flags = [a for ov in TINY_RUN for a in ("--override", ov)]
    tracer = tracer_mod.Tracer()
    tracer.install(mods)
    try:
        for argv in PIPELINE[:4]:  # gen-data and the three trainings
            assert mods["cli"].main([*argv, *flags]) == 0, argv
    finally:
        tracer.uninstall()
    settings = dict(ov.split("=") for ov in TINY_RUN)
    steps = sum(int(settings[f"train.{key}"])
                for key in ("steps", "finetune_steps", "scratch_steps"))
    assert tracer.counters["netcore.backward.calls"] == steps
