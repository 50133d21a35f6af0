"""Benchmark of the diffrouter CLI pipeline.

Runs the six CLI stages a user runs (gen-data, train-paired, finetune-direct,
train-scratch, eval indirect over all directions, eval direct over the
non-edge directions) in-process through `diffrouter.cli.main(argv)`, timing
each stage from outside. Every stage of a pass gets the same `--override` set,
with the workload seed as `run.seed`, and a fresh DIFFROUTER_OUTPUT_ROOT.

    python3 perfbench/run.py --workload star-train --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 38

With --trace 0 the pipeline is repeated while --seconds allows (at least
once) and the end-to-end metrics are medians over the passes. With --trace 1
one untraced pass is followed by one traced pass, which gives the per-layer
metrics and the tracing overhead. Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The full result, with the environment block, per-pass
numbers and eval-report digests, goes to <out>/result-<workload>-seed<seed>-
trace<trace>.json, and the spans of a traced pass to
<out>/trace-<workload>-seed<seed>.npz. See perfbench/NOTES.md.
"""

import os

# Fixed before numpy is imported, here and in the import-timing children,
# which inherit this environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import csv
import ctypes
import gc
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_OUT = ROOT / ".perfbench-out"
BENCH_SPEC = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 5

# The shared host's throughput drifts by up to ~25% over tens of seconds, and
# a fixed dense-layer kernel (reference_s) drifts with the pipeline. The
# kernel is timed between stages; each stage time is divided by the mean of
# the two readings around it over REF_NOMINAL_S, the kernel's time in a fast
# stretch on the machine the bounds were set on (2-vCPU Xeon VM). The raw
# times stay in the result file.
REF_NOMINAL_S = 0.025
IMPORT_PROBE = ("import time; t = time.perf_counter(); import diffrouter.cli; "
                "print(time.perf_counter() - t)")


@dataclass(frozen=True)
class Workload:
    why: str
    overrides: dict[str, str]
    # worst indirect sliced-W2 / oracle self-distance allowed; None: no gate
    sw2_ceiling: float | None = None


WORKLOADS = {
    "star-train": Workload(
        why="K=3 gaussian star trained to near the oracle noise floor: training "
            "is ~80% of the pipeline and carries the quality anchor",
        overrides={"instance.family": "gaussian-affine", "instance.topology": "star",
                   "instance.k": "3", "instance.d": "2", "instance.n_train": "20000",
                   "instance.n_eval_tuples": "2000", "schedule.t": "100",
                   "network.hidden": "128,128,128", "train.batch_size": "128",
                   "train.steps": "2000", "train.lr": "3e-4",
                   "train.warmup_steps": "300", "train.finetune_steps": "250",
                   "train.scratch_steps": "250", "train.n_refine": "5",
                   "train.log_window": "100", "eval.n_eval": "500"},
        sw2_ceiling=6.0),
    "chain-eval": Workload(
        why="K=5 gaussian chain, short training, 1000-row evals over 20+12 "
            "directions: forward-only sampling is ~2/3 of the pipeline",
        overrides={"instance.family": "gaussian-affine", "instance.topology": "chain",
                   "instance.k": "5", "instance.d": "2", "instance.n_train": "5000",
                   "instance.n_eval_tuples": "2000", "schedule.t": "25",
                   "network.hidden": "128,128,128", "train.batch_size": "128",
                   "train.steps": "300", "train.finetune_steps": "100",
                   "train.scratch_steps": "100", "train.n_refine": "5",
                   "train.warmup_steps": "100", "train.log_window": "100",
                   "eval.n_eval": "1000"}),
    "glyphs-star": Workload(
        why="K=3 glyph star, d=64 (layer-0 input 160 wide): per-row ndimage "
            "datagen is ~15% of the pipeline and memory is highest",
        overrides={"instance.family": "glyphs", "instance.topology": "star",
                   "instance.k": "3", "instance.d": "64", "instance.n_train": "5000",
                   "instance.n_eval_tuples": "1500", "schedule.t": "25",
                   "network.hidden": "128,128,128", "train.batch_size": "128",
                   "train.steps": "300", "train.finetune_steps": "100",
                   "train.scratch_steps": "100", "train.n_refine": "5",
                   "train.warmup_steps": "100", "train.log_window": "100",
                   "eval.n_eval": "400"}),
}


# Overrides for the untimed warm-up pass: few steps and short chains, but the
# workload's own layer widths, batch and eval rows, so that lazy imports,
# first calls and the allocator's growth to full-size arrays happen before
# timing. The smoke test runs at these sizes too.
TINY = {"instance.n_train": "1000", "schedule.t": "4", "train.steps": "20",
        "train.finetune_steps": "20", "train.scratch_steps": "20",
        "train.warmup_steps": "5", "train.log_window": "10"}


def tiny(workload: Workload) -> Workload:
    return Workload(why=workload.why, overrides={**workload.overrides, **TINY})


@dataclass(frozen=True)
class Stage:
    label: str
    argv: tuple[str, ...]
    deps: tuple[str, ...] = ()
    steps_key: str | None = None   # config field holding the step count
    report: str | None = None      # eval report written under reports/


STAGES = (
    Stage("gen-data", ("gen-data",)),
    Stage("train-paired", ("train-paired",), ("gen-data",), "steps"),
    Stage("finetune-direct", ("finetune-direct",), ("train-paired",), "finetune_steps"),
    Stage("train-scratch", ("train-scratch",), ("gen-data",), "scratch_steps"),
    Stage("eval-indirect", ("eval", "--mode", "indirect", "--directions", "all"),
          ("train-paired",), report="eval-indirect-all.csv"),
    Stage("eval-direct", ("eval", "--mode", "direct", "--directions", "nonedges"),
          ("finetune-direct",), report="eval-direct-nonedges.csv"),
)
TRAIN_STAGES = ("train-paired", "finetune-direct", "train-scratch")
EVAL_STAGES = ("eval-indirect", "eval-direct")
# spans doing forward-only sampling work; their self time under the eval
# stages is the share chain-eval is chosen for
EVAL_FORWARD_SPANS = ("sample.translate", "sample.chain", "sample.reverse_step",
                      "schedules.reverse_variance", "router.predict_noise",
                      "router.backbone_input", "router.time_features",
                      "netcore.forward_cached", "netcore.affine", "netcore.silu")


class SetupError(RuntimeError):
    """The checkout does not hold the program to benchmark."""


def load_library():
    """Import diffrouter from this checkout's src/, never from elsewhere."""
    if not (SRC / "diffrouter" / "cli.py").is_file():
        raise SetupError(f"no diffrouter sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"diffrouter.{name}")
            for name in ("_kernels", "netcore", "router", "train", "sample",
                         "datagen", "metrics", "cli")}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"diffrouter imported from {origin}, not from {SRC}")
    return mods


# ---------------------------------------------------------------------------
# environment block

def _openblas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS loaded into this process."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                out[Path(path).name] = int(getattr(lib, fn)())
                break
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(mods) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own BLAS, if it has one
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": _cpu_model(),
        "using_numba": bool(mods["_kernels"].USING_NUMBA),
    }


def reference_s() -> float:
    """Seconds for 100 SiLU dense layers of width 128 on 256 rows, the best
    of three tries, so that one preemption does not spoil a reading."""
    import numpy as np
    rng = np.random.default_rng(0)
    w = rng.standard_normal((128, 128)) / np.sqrt(128)
    b = rng.standard_normal(128)
    x0 = rng.standard_normal((256, 128))
    best = math.inf
    for _ in range(3):
        x = x0
        t0 = time.perf_counter()
        for _ in range(100):
            z = x @ w.T + b
            x = z / (1.0 + np.exp(-z))
        best = min(best, time.perf_counter() - t0)
    return best


def measure_setup(n: int = SETUP_SAMPLES) -> list[tuple[float, float]]:
    """(seconds, slowdown) of n imports of diffrouter.cli, numpy and scipy
    included, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    ref = reference_s()
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        ref_after = reference_s()
        samples.append((float(proc.stdout.split()[-1]),
                        (ref + ref_after) / 2.0 / REF_NOMINAL_S))
        ref = ref_after
    return samples


# ---------------------------------------------------------------------------
# one pass of the pipeline

def _call_stage(cli, argv, tracer, label):
    """Run one CLI invocation; returns (exit code, captured stderr). A raised
    exception is a failed stage, not a failed benchmark."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = (tracer.stage(label, cli.main, argv) if tracer is not None
                  else cli.main(argv))
        except SystemExit as exc:   # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001  the benchmark must keep running
            rc = 1
            err.write(traceback.format_exc())
    return rc, err.getvalue()


def _read_report(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_report(rows, stage, cfg, topo, mods) -> list[str]:
    """Correctness gates on an eval report; returns the violations."""
    cli, sample = mods["cli"], mods["sample"]
    if stage.label == "eval-indirect":
        directions = cli.all_directions(topo)
    else:
        directions = cli.nonedge_directions(topo)
    problems = []
    got = [(int(r["src"]), int(r["tgt"])) for r in rows]
    if got != directions:
        problems.append(f"{stage.label}: directions {got} != {directions}")
    for r in rows:
        for key in ("sliced_w2", "mmd", "rmse"):
            if not math.isfinite(float(r[key])):
                problems.append(f"{stage.label}: {key} not finite for {r['src']}->{r['tgt']}")
        src, tgt = int(r["src"]), int(r["tgt"])
        hops = len(sample.route_path(topo, src, tgt)) - 1
        want = hops * cfg.T if stage.label == "eval-indirect" else cfg.T
        if int(r["steps"]) != want:
            problems.append(f"{stage.label}: {src}->{tgt} steps {r['steps']} != {want}")
    return problems


def sw2_ratio(rows, run: Path, cfg, seed: int, mods) -> float:
    """Worst over the indirect report rows of sliced-W2 / noise floor. The
    floor is the median of five oracle self-distances when the family has an
    analytic conditional, else the sliced-W2 between two disjoint held-out
    target sets of the report's size."""
    import numpy as np
    datagen, metrics = mods["datagen"], mods["metrics"]
    tuples = datagen.load_eval_tuples(run / "datasets/eval.bin")
    inst_path = run / "datasets/instance.json"
    inst = (datagen.instance_from_dict(json.loads(inst_path.read_text()))
            if inst_path.exists() else None)
    worst = 0.0
    for r in rows:
        src, tgt, n = int(r["src"]), int(r["tgt"]), int(r["n_samples"])
        if inst is not None:
            xs = tuples.domain(src)[:n]
            floor = statistics.median(
                metrics.oracle_self_distance(inst, src, tgt, xs,
                                             np.random.default_rng([seed, src, tgt, k]),
                                             projections=cfg.projections)
                for k in range(5))
        else:
            held = tuples.domain(tgt)
            if len(held) < 3 * n:
                return float("nan")
            floor = metrics.sliced_wasserstein(held[2 * n:3 * n], held[n:2 * n],
                                               projections=cfg.projections,
                                               rng=np.random.default_rng(seed))
        worst = max(worst, float(r["sliced_w2"]) / floor)
    return worst


def run_pass(mods, workload: Workload, seed: int, out_dir: Path, *,
             stages=STAGES, tracer=None) -> dict:
    """One fresh run of `stages`, traced when a tracer is given. A stage is
    skipped, and counted failed, when one of its dependencies failed earlier
    in the pass."""
    cli = mods["cli"]
    overrides = [f"{k}={v}" for k, v in workload.overrides.items()] + [f"run.seed={seed}"]
    cfg = cli.load_config(None, overrides)
    topo = cli.build_instance_topology(cfg)
    run = out_dir / cli.config_hash(cfg)
    flags = [a for ov in overrides for a in ("--override", ov)]
    os.environ["DIFFROUTER_OUTPUT_ROOT"] = str(out_dir)

    status, seconds, slowdown, errors = {}, {}, {}, {}
    if tracer is not None:
        tracer.install(mods)
    ref = reference_s()
    for st in stages:
        if any(status.get(d) in ("failed", "skipped") for d in st.deps):
            status[st.label] = "skipped"
            errors[st.label] = "a dependency failed"
            continue
        gc.collect()  # each CLI call is a fresh process with an empty heap
        t0 = time.perf_counter()
        rc, err = _call_stage(cli, [*st.argv, *flags], tracer, st.label)
        seconds[st.label] = time.perf_counter() - t0
        ref_after = reference_s()
        slowdown[st.label] = (ref + ref_after) / 2.0 / REF_NOMINAL_S
        ref = ref_after
        status[st.label] = "ok" if rc == 0 else "failed"
        if rc != 0:
            errors[st.label] = err.strip().splitlines()[-1] if err.strip() else f"exit {rc}"
    if tracer is not None:
        tracer.uninstall()

    # gates, outside the timed region
    stray = sorted(p.name for p in out_dir.iterdir() if p != run) if out_dir.exists() else []
    digests, row_steps, ratio = {}, {}, None
    for st in stages:
        if st.report is None or status[st.label] != "ok":
            continue
        path = run / "reports" / st.report
        rows = _read_report(path)
        digests[st.label] = hashlib.sha256(path.read_bytes()).hexdigest()
        row_steps[st.label] = sum(int(r["steps"]) * int(r["n_samples"]) for r in rows)
        problems = _check_report(rows, st, cfg, topo, mods)
        if st.label == "eval-indirect":
            ratio = sw2_ratio(rows, run, cfg, seed, mods)
            if workload.sw2_ceiling is not None and not ratio <= workload.sw2_ceiling:
                problems.append(f"sw2_ratio {ratio:.3g} above ceiling {workload.sw2_ceiling}")
        if problems:
            status[st.label] = "failed"
            errors[st.label] = "; ".join(problems)
    if stray:
        for st in stages:
            status[st.label] = "failed"
            errors.setdefault(st.label, f"stages wrote to other run directories {stray}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"status": status, "seconds": seconds, "slowdown": slowdown, "errors": errors,
            "wall_s": sum(seconds.values()),
            "pipeline_s": sum(seconds[k] / slowdown[k] for k in seconds),
            "digests": digests, "row_steps": row_steps, "sw2_ratio": ratio,
            "steps": {st.label: getattr(cfg, st.steps_key) for st in stages if st.steps_key},
            "attempted": len(stages),
            "failed": sum(1 for s in status.values() if s != "ok")}


def pass_metrics(p: dict) -> dict[str, float]:
    """End-to-end metrics of one pass, from stage times normalised to the
    nominal machine speed."""
    s = {k: v / p["slowdown"][k] for k, v in p["seconds"].items()}
    out = {"pipeline_s": p["pipeline_s"], "gen_data_s": s.get("gen-data", math.nan)}
    for label, name in (("train-paired", "paired_steps_per_s"),
                        ("finetune-direct", "finetune_steps_per_s"),
                        ("train-scratch", "scratch_steps_per_s")):
        ok = p["status"].get(label) == "ok"
        out[name] = p["steps"][label] / s[label] if ok else math.nan
    for label, name in (("eval-indirect", "eval_indirect_ms_per_kstep"),
                        ("eval-direct", "eval_direct_ms_per_kstep")):
        rs = p["row_steps"].get(label)
        out[name] = 1e3 * s[label] / (rs / 1e3) if rs else math.nan
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass

def layer_metrics(tracer, traced: dict, untraced: dict) -> dict[str, float]:
    """Every per-layer number a traced pass gives: "<span>.self_ms" and
    "<span>.calls" for each span, the work counters, reverse-step latency
    percentiles, and the quality and tracing figures."""
    import numpy as np
    out = {f"{name}.self_ms": 0.0 for name in tracer.names}
    for spans in tracer.self_ms().values():
        for name, ms in spans.items():
            out[f"{name}.self_ms"] += ms
    accounted_ms = sum(out.values())
    out.update({f"{name}.calls": 0.0 for name in tracer.names})
    out.update(tracer.counters)
    steps_us = tracer.durations_us("sample.reverse_step")
    if len(steps_us):
        out["sample.reverse_step.p50_us"] = float(np.percentile(steps_us, 50))
        out["sample.reverse_step.p99_us"] = float(np.percentile(steps_us, 99))
    out["sample.chains"] = out["sample.chain.calls"]
    out["metrics.sw2_ratio"] = untraced["sw2_ratio"]
    out["trace.pipeline_s"] = traced["wall_s"]
    out["trace.overhead_ratio"] = traced["pipeline_s"] / untraced["pipeline_s"]
    out["trace.accounted_share"] = accounted_ms / 1e3 / traced["wall_s"]
    out["trace.spans"] = float(len(tracer.start))
    return out


def split(tracer, traced: dict, untraced: dict) -> dict[str, float]:
    """Shares of pipeline_s each workload is chosen for."""
    s, wall = untraced["seconds"], untraced["wall_s"]
    by_stage = tracer.self_ms()
    fwd = sum(by_stage.get(label, {}).get(name, 0.0)
              for label in EVAL_STAGES for name in EVAL_FORWARD_SPANS)
    return {
        "train_stages_share": sum(s.get(label, 0.0) for label in TRAIN_STAGES) / wall,
        "eval_stages_share": sum(s.get(label, 0.0) for label in EVAL_STAGES) / wall,
        "gen_data_share": s.get("gen-data", 0.0) / wall,
        "eval_forward_self_share": fwd / 1e3 / traced["wall_s"],
        "datagen_self_share": sum(v.get("datagen.build", 0.0)
                                  for v in by_stage.values()) / 1e3 / traced["wall_s"],
    }


# ---------------------------------------------------------------------------
# a whole run

def run_workload(mods, name: str, workload: Workload, seed: int, seconds: float,
                 trace: bool, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    setup = measure_setup()
    passes: list[dict] = []
    extra: dict = {}
    work = out / f"runs-{os.getpid()}"
    try:
        run_pass(mods, tiny(workload), seed, work / "warm-up")
        t0 = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            passes.append(run_pass(mods, workload, seed, work / f"pass{len(passes)}"))
            now = time.perf_counter()
            if trace or now - t0 + (now - t_pass) > seconds:
                break
        if trace:
            tracer = Tracer()
            passes.append(run_pass(mods, workload, seed, work / "traced", tracer=tracer))
            trace_path = out / f"trace-{name}-seed{seed}.npz"
            tracer.write(trace_path)
            extra = {"layers": layer_metrics(tracer, passes[1], passes[0]),
                     "split": split(tracer, passes[1], passes[0]),
                     "self_ms_by_stage": tracer.self_ms(),
                     "trace_file": str(trace_path)}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a rerun with the same code and seed must give byte-identical reports
    for p in passes[1:]:
        for label, digest in p["digests"].items():
            if digest != passes[0]["digests"].get(label) and p["status"][label] == "ok":
                p["status"][label] = "failed"
                p["errors"][label] = "eval report digest differs from the first pass"
                p["failed"] += 1

    per_pass = [pass_metrics(p) for p in passes if not trace or p is passes[0]]
    e2e = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    e2e["setup_s"] = statistics.median(t / slowdown for t, slowdown in setup)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {"workload": name, "why": workload.why, "seed": seed, "trace": int(trace),
            "seconds": seconds, "environment": environment(mods),
            "overrides": workload.overrides, "sw2_ceiling": workload.sw2_ceiling,
            "setup_samples": setup, "passes": passes, "end_to_end": e2e,
            "failed_ops_ratio": failed / attempted, "attempted": attempted,
            "failed": failed, "sw2_ratio": passes[0]["sw2_ratio"], **extra}


def _num(v):
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


def summary_line(result: dict, spec: dict, prefix: str = "") -> dict:
    """The result line: end-to-end metrics of BENCHMARK.json untraced, its
    per-layer metrics traced."""
    values = result["layers"] if result["trace"] else result["end_to_end"]
    wanted = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    metrics = {prefix + m["name"]: {"value": _num(values.get(m["name"])), "unit": m["unit"]}
               for m in wanted}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_human(result: dict, spec: dict) -> None:
    env = result["environment"]
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"passes={len(result['passes'])}")
    print(f"   environment: python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, {env['blas']} ({env['blas_config']}), blas threads "
          f"{env['blas_threads'] or env['blas_threads_env']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']}, numba {env['using_numba']}")
    for i, p in enumerate(result["passes"]):
        stages = " ".join(f"{k}={v:.3f}s/{p['slowdown'][k]:.2f}"
                          for k, v in p["seconds"].items())
        print(f"   pass {i} (raw stage time/machine slowdown): {stages}")
        for label, msg in p["errors"].items():
            print(f"   pass {i}: FAILED {label}: {msg}")
    for name, m in summary_line(result, spec)["metrics"].items():
        value = m["value"] if m["value"] is not None else math.nan
        print(f"   {name:40s} {value:14.6g} {m['unit']}")
    for k, v in result.get("split", {}).items():
        print(f"   {'split.' + k:40s} {v:14.4f} ratio")
    if not result["trace"]:
        print(f"   {'gen_data_s':40s} {result['end_to_end']['gen_data_s']:14.6g} s "
              "(not bounded: ~20 ms on the gaussian workloads)")
    ratio = result["sw2_ratio"]
    ceiling = result["sw2_ceiling"]
    print(f"   {'sw2_ratio':40s} {ratio if ratio is not None else math.nan:14.6g} ratio"
          + (f" (gate: <= {ceiling})" if ceiling is not None else " (no gate)"))
    print(f"   {'failed_ops_ratio':40s} {result['failed_ops_ratio']:14.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} stage invocations)")
    for label, digest in result["passes"][0]["digests"].items():
        print(f"   sha256 {label}: {digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for result and trace files")
    args = parser.parse_args(argv)
    try:
        spec = json.loads(BENCH_SPEC.read_text(encoding="utf-8"))
        mods = load_library()
    except (OSError, ValueError, SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        result = run_workload(mods, name, WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace), args.out)
        path = args.out / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1, default=float) + "\n", encoding="utf-8")
        print_human(result, spec)
        lines.append(summary_line(result, spec, f"{name}." if len(names) > 1 else ""))
    final = {"correct": all(x["correct"] for x in lines),
             "attempted": sum(x["attempted"] for x in lines),
             "failed": sum(x["failed"] for x in lines),
             "metrics": {k: v for x in lines for k, v in x["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
