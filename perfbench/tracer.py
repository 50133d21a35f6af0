"""In-memory span tracer for the diffrouter library, driven from outside.

`Tracer.install()` replaces public library functions with thin wrappers that
record one span per call: name, start, end, parent span and run id (the index
of the CLI stage that caused it). A wrapper goes into the namespace the caller
looks the function up in at call time: a name imported with
`from module import f` is a separate binding, which patching only the
defining module would miss. `uninstall()` restores the originals.

Spans are kept in flat arrays while tracing and written out once, by
`write()`. The self time of a span is its duration minus the durations of its
direct children, so the self times of all spans under a stage add up to the
stage's wall time.

Work counters (rows, flops, bytes, iterations) are accumulated at the same
boundaries, so per-layer ratios are measured where the work happens.
"""

import os
import time
from array import array
from collections import defaultdict

import numpy as np

STAGE = "cli.stage"


def _rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) > 1 else 1


def _affine_work(args, kwargs, result):
    h, w = args[0], args[1]
    return {"gflop": 2.0 * _rows(h) * w.shape[0] * w.shape[1] / 1e9}


def _second_arg_rows(stat):
    def count(args, kwargs, result):
        return {stat: _rows(args[1])}
    return count


def _refine_iters(args, kwargs, result):
    return {"iters": int(args[6] if len(args) > 6 else kwargs["n"])}


def _build_rows(args, kwargs, result):
    _topo, datasets, tuples, _inst = result
    return {"rows": sum(len(ds) for ds in datasets) + len(tuples)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def targets(dr):
    """(span name, owner, attribute, work counter) for every wrapped function.
    `dr` maps module names to the imported diffrouter modules."""
    k, nc, rt, tr = dr["_kernels"], dr["netcore"], dr["router"], dr["train"]
    sm, dg, mt, cl = dr["sample"], dr["datagen"], dr["metrics"], dr["cli"]
    return [
        ("netcore.affine", k, "affine", _affine_work),
        ("netcore.silu", k, "silu", None),
        ("netcore.silu_grad", k, "silu_grad", None),
        ("netcore.adamw", k, "adamw_update", None),
        ("netcore.forward_cached", nc, "forward_cached", None),
        ("netcore.backward", nc, "backward", None),
        ("netcore.optimizer_step", tr, "optimizer_step", None),
        ("netcore.checkpoint_io", nc, "save_params", _file_bytes),
        ("netcore.checkpoint_io", nc, "load_params", _file_bytes),
        ("router.backbone_input", rt, "backbone_input", _second_arg_rows("rows")),
        ("router.time_features", rt, "time_features", None),
        ("router.predict_noise", rt, "predict_noise", _second_arg_rows("rows")),
        ("router.forward_cached", rt, "forward_cached", None),
        ("router.backward", rt, "backward", None),
        ("router.grads", rt, "zeros_like_grads", None),
        ("router.grads", rt.RouterGrads, "add_", None),
        ("router.grads", rt.RouterGrads, "scale_", None),
        ("router.freeze", tr, "freeze", None),
        ("train.loop", cl, "train", None),
        ("train.paired_loss_step", tr, "paired_loss_step", None),
        ("train.unpaired_loss_step", tr, "unpaired_loss_step", None),
        ("train.final_loss_step", tr, "final_loss_step", None),
        ("train.tweedie_refine", tr, "tweedie_refine", _refine_iters),
        ("sample.translate", mt, "translate", None),
        ("sample.chain", sm, "sample_chain_diffusion", None),
        ("sample.reverse_step", sm, "reverse_step_diffusion",
         _second_arg_rows("row_steps")),
        ("schedules.reverse_variance", sm, "reverse_variance", None),
        ("datagen.build", dg, "make_star_instance", _build_rows),
        ("datagen.build", dg, "make_chain_instance", _build_rows),
        ("datagen.io", dg, "save_paired_dataset", _file_bytes),
        ("datagen.io", dg, "save_eval_tuples", _file_bytes),
        ("datagen.io", dg, "load_paired_dataset", _file_bytes),
        ("datagen.io", dg, "load_eval_tuples", _file_bytes),
        ("datagen.sample_conditional", dg, "sample_conditional", None),
        ("metrics.sliced_wasserstein", mt, "sliced_wasserstein", None),
        ("metrics.mmd_rbf", mt, "mmd_rbf", None),
        ("metrics.evaluate_checkpoint", mt, "evaluate_checkpoint", None),
        ("cli.load_config", cl, "load_config", None),
    ]


class Tracer:
    """Records the spans of one traced pass. Not thread-safe; the library
    runs single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.run_labels: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(len(self.run_labels) - 1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def stage(self, label: str, fn, *args):
        """Call fn(*args) as the root span of a new run id."""
        self.run_labels.append(label)
        idx = self._open(self._nid(STAGE))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, work):
        nid = self._nid(name)
        counters = self.counters
        calls = name + ".calls"

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            counters[calls] += 1
            if work is not None:
                for stat, val in work(args, kwargs, result).items():
                    counters[f"{name}.{stat}"] += val
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, dr) -> None:
        for name, owner, attr, work in targets(dr):
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, work))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _arrays(self):
        return (np.frombuffer(self.name, dtype=np.uint16),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.run, dtype=np.int64))

    def self_ns(self) -> np.ndarray:
        _, start, end, parent, _ = self._arrays()
        dur = end - start
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        return own

    def self_ms(self) -> dict[str, dict[str, float]]:
        """{stage label: {span name: total self ms}}."""
        names, *_, runs = self._arrays()
        own = self.self_ns()
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        totals = np.zeros((len(self.run_labels), len(self.names)))
        np.add.at(totals, (runs, names), own / 1e6)
        for rid, label in enumerate(self.run_labels):
            for nid, name in enumerate(self.names):
                if totals[rid, nid]:
                    out[label][name] += float(totals[rid, nid])
        return {k: dict(v) for k, v in out.items()}

    def durations_us(self, name: str) -> np.ndarray:
        names, start, end, _, _ = self._arrays()
        if name not in self._ids:
            return np.zeros(0)
        mask = names == self._ids[name]
        return (end[mask] - start[mask]) / 1e3

    def write(self, path) -> None:
        """Compressed npz: `names` and `run_labels` as string arrays, and one
        row per span in `name` (index into names), `start_ns`, `end_ns`,
        `parent` (span index, -1 for a stage root) and `run` (index into
        run_labels)."""
        names, start, end, parent, run = self._arrays()
        np.savez_compressed(path, names=np.array(self.names),
                            run_labels=np.array(self.run_labels), name=names,
                            start_ns=start, end_ns=end, parent=parent, run=run)
