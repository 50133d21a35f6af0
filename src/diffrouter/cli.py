"""Command-line front end: config parsing, subcommand dispatch, ablation
sweeps, artifact layout, and deterministic SVG plots.

Every run resolves an INI config, hashes it, and owns
<outdir>/<config-hash>/{datasets,checkpoints,logs,reports,plots}. Only gen-data
creates that directory; the later stages refuse a config it never ran. Re-running a
subcommand with the same config and seed reproduces byte-identical CSV and SVG
outputs. The output root can be overridden with DIFFROUTER_OUTPUT_ROOT.

The library returns data (loss log rows, metric records); this module writes
every text artifact, and decides the CSV format and the SVG frame.
"""

import argparse
import configparser
import csv
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import astuple, dataclass, field, fields, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from . import __version__, _blockfile, datagen, metrics
from . import router as router_mod
from .datagen import FAMILIES
from .netcore import ACTIVATIONS, DivergenceError
from .sample import TranslationRequest, translate
from .schedules import PROFILES, VARIANTS, Schedule, build_bridge_schedule, build_diffusion_schedule
from .train import TrainConfig, train

SUBDIRS = ("datasets", "checkpoints", "logs", "reports", "plots")

REFINE_SWEEP = (0, 1, 3, 5)
LAMBDA2_SWEEP = (0.0, 0.3, 1.0, 3.0)

LOG_COLUMNS = ["step", "direction", "loss", "lr"]
REPORT_COLUMNS = ["src", "tgt", "mode", "sliced_w2", "mmd", "rmse", "steps",
                  "n_samples", "seed", "config_hash"]


class CliError(RuntimeError):
    """User-facing configuration or input error."""


def _key(section: str, key: str, default):
    """A config field stored as `key` under `[section]` of the INI file."""
    return field(default=default, metadata={"ini": (section, key)})


@dataclass(frozen=True)
class ExperimentConfig:
    """The run configuration, declared once: each field is one INI key with
    its default, and its annotation decides how a given value is parsed. The
    field order is the order of the keys in a run's config.ini."""

    family: str = _key("instance", "family", "gaussian-affine")
    topology: str = _key("instance", "topology", "star")
    K: int = _key("instance", "k", 3)
    d: int = _key("instance", "d", 2)
    n_train: int = _key("instance", "n_train", 20000)
    n_eval_tuples: int = _key("instance", "n_eval_tuples", 5000)
    central: int = _key("instance", "central", 0)
    edge_shift: float = _key("instance", "edge_shift", 0.0)
    T: int = _key("schedule", "t", 100)
    profile: str = _key("schedule", "profile", "linear")
    eta: float = _key("schedule", "eta", 0.0)
    variant: str = _key("schedule", "variant", "diffusion")
    bridge_scale: float = _key("schedule", "bridge_scale", 1.0)
    hidden: tuple[int, ...] = _key("network", "hidden", (128, 128, 128))
    time_dim: int = _key("network", "time_dim", 16)
    emb_dim: int = _key("network", "emb_dim", 8)
    activation: str = _key("network", "activation", "silu")
    steps: int = _key("train", "steps", 20000)
    finetune_steps: int = _key("train", "finetune_steps", 6000)
    scratch_steps: int = _key("train", "scratch_steps", 6000)
    batch_size: int = _key("train", "batch_size", 128)
    lr: float = _key("train", "lr", 1e-4)
    finetune_lr: float = _key("train", "finetune_lr", 5e-5)
    warmup_steps: int = _key("train", "warmup_steps", 3000)
    lambda1: float = _key("train", "lambda1", 1.0)
    lambda2: float = _key("train", "lambda2", 1.0)
    n_refine: int = _key("train", "n_refine", 5)
    log_window: int = _key("train", "log_window", 100)
    curriculum: bool = _key("train", "curriculum", True)
    n_eval: int = _key("eval", "n_eval", 500)
    eval_steps: int = _key("eval", "steps", 0)
    projections: int = _key("eval", "projections", 128)
    outdir: str = _key("output", "dir", "runs")
    seed: int = _key("run", "seed", 0)


# field name -> (section, key)
_INI_KEY = {f.name: f.metadata["ini"] for f in fields(ExperimentConfig)}

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

# annotation -> (parser of the INI text, what a bad value should have been)
_PARSERS = {
    str: (str, "a string"),
    int: (int, "an integer"),
    float: (float, "a number"),
    bool: (lambda text: _BOOLS[text.lower()], "one of 1/0/true/false/yes/no"),
    tuple[int, ...]: (lambda text: tuple(int(w) for w in text.split(",")),
                      "comma-separated integers"),
}


def _key_name(name: str) -> str:
    """`section.key` of the ExperimentConfig field `name`."""
    return ".".join(_INI_KEY[name])


def _ini_text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def load_config(path: str | None, overrides: list[str] | None = None) -> ExperimentConfig:
    # values are taken literally, so a '%' reads back as written to config.ini
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        if not Path(path).exists():
            raise CliError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise CliError(f"malformed config file {path}: {exc}") from None
    for ov in overrides or []:
        key, sep, val = ov.partition("=")
        if not sep or "." not in key:
            raise CliError(f"override must look like section.key=value, got {ov!r}")
        section, _, name = key.partition(".")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, name, val)
    # reject unknown keys early so typos do not silently fall back to defaults
    if parser.defaults():  # [DEFAULT] keys belong to no section; refuse, not drop, them
        raise CliError(f"unknown config section [{parser.default_section}]")
    known = set(_INI_KEY.values())
    for section in parser.sections():
        if section not in {s for s, _ in _INI_KEY.values()}:
            raise CliError(f"unknown config section [{section}]")
        for key in parser[section]:
            if (section, key) not in known:
                raise CliError(f"unknown config key {section}.{key}")
    given = {}
    for f in fields(ExperimentConfig):
        text = parser.get(*_INI_KEY[f.name], fallback=None)
        if text is None:
            continue
        parse, expected = _PARSERS[f.type]
        try:
            given[f.name] = parse(text)
        except (KeyError, ValueError):
            raise CliError(f"{_key_name(f.name)}: expected {expected}, "
                           f"got {text!r}") from None
    cfg = ExperimentConfig(**given)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.family not in FAMILIES:
        raise CliError(f"unknown instance family {cfg.family!r}")
    if cfg.topology not in ("star", "chain"):
        raise CliError(f"unknown topology {cfg.topology!r}")
    try:
        build_instance_topology(cfg)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if not 0 <= cfg.central < cfg.K:  # a chain ignores the key, but it must still be valid
        raise CliError(f"central domain {cfg.central} out of range")
    if not np.isfinite(cfg.edge_shift):
        raise CliError(f"instance.edge_shift must be finite, got {cfg.edge_shift}")
    if cfg.edge_shift != 0.0 and (cfg.family, cfg.topology) != ("gaussian-affine", "star"):
        raise CliError(f"instance.edge_shift={cfg.edge_shift} applies only to a "
                       f"gaussian-affine star, not a {cfg.family} {cfg.topology}")
    if cfg.profile not in PROFILES:
        raise CliError(f"unknown schedule profile {cfg.profile!r}")
    if cfg.variant not in VARIANTS:
        raise CliError(f"unknown schedule variant {cfg.variant!r}")
    if cfg.activation not in ACTIVATIONS:
        raise CliError(f"unknown network.activation {cfg.activation!r}; "
                       f"expected one of {', '.join(ACTIVATIONS)}")
    for name in ("n_train", "n_eval_tuples", "T", "steps", "finetune_steps",
                 "scratch_steps", "batch_size", "log_window", "time_dim", "emb_dim",
                 "d", "n_eval", "projections", "lr", "finetune_lr"):
        value = getattr(cfg, name)
        if not value > 0:  # also refuses a nan rate
            raise CliError(f"{_key_name(name)} must be positive, got {value}")
    if not all(w > 0 for w in cfg.hidden):
        raise CliError(f"network.hidden widths must be positive, got {_ini_text(cfg.hidden)}")
    if cfg.time_dim % 2:
        raise CliError(f"network.time_dim must be even (sin and cos halves), "
                       f"got {cfg.time_dim}")
    if cfg.n_refine < 0 or cfg.lambda1 < 0 or cfg.lambda2 < 0:
        raise CliError("n_refine and loss coefficients must be nonnegative")
    if cfg.lambda1 == 0 and cfg.lambda2 == 0:  # the combined loss would be empty
        raise CliError("train.lambda1 and train.lambda2 are both 0; "
                       "at least one loss coefficient must be positive")
    if cfg.eval_steps < 0:
        raise CliError(f"eval.steps must be >= 0 (0: the full schedule), got {cfg.eval_steps}")
    _check_eta("schedule.eta", cfg.eta)
    # a diffusion run ignores the key, but it must still be valid
    if not (np.isfinite(cfg.bridge_scale) and cfg.bridge_scale > 0.0):
        raise CliError(f"schedule.bridge_scale must be finite and positive, "
                       f"got {cfg.bridge_scale}")


def _check_eta(name: str, eta: float) -> None:
    """The schedules refuse such an eta too; this names the key or flag."""
    if not (np.isfinite(eta) and eta >= 0.0):
        raise CliError(f"{name} must be finite and nonnegative, got {eta}")


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable under key reordering; ignores the output directory so a run can
    be relocated without changing its identity."""
    parts = [f"{k}={v}" for k, v in sorted(vars(cfg).items()) if k != "outdir"]
    return hashlib.sha1("\n".join(parts).encode()).hexdigest()[:12]


def run_path(cfg: ExperimentConfig) -> Path:
    """The run directory of `cfg`, without creating it."""
    return Path(os.environ.get("DIFFROUTER_OUTPUT_ROOT", cfg.outdir)) / config_hash(cfg)


def run_dir(cfg: ExperimentConfig) -> Path:
    """The run directory of `cfg`, created with its subdirectories and
    config.ini when missing."""
    run = run_path(cfg)
    for sub in SUBDIRS:
        (run / sub).mkdir(parents=True, exist_ok=True)
    cfg_copy = run / "config.ini"
    if not cfg_copy.exists():
        blocks = []
        for section, group in groupby(_INI_KEY.items(), key=lambda item: item[1][0]):
            blocks.append("\n".join([f"[{section}]"] + [
                f"{key} = {_ini_text(getattr(cfg, name))}" for name, (_, key) in group]))
        _blockfile.write_atomic(cfg_copy, ["\n\n".join(blocks) + "\n"])
    return run


def child_seed(master: int, component: str) -> int:
    digest = hashlib.sha256(f"{master}/{component}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _read_json(path: Path, parse):
    """parse(the JSON in `path`); a damaged file fails as one ValueError naming it."""
    try:
        return parse(json.loads(path.read_text(encoding="utf-8")))
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"{path}: damaged file: {type(exc).__name__}: {exc}") from None


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A CSV file of `header` and `rows`, float cells written as `.6g`."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([f"{v:.6g}" if isinstance(v, float) else v for v in row] for row in rows)
    _blockfile.write_atomic(path, [buf.getvalue()])


def update_manifest(run: Path, cfg: ExperimentConfig, artifacts: dict[str, str],
                    settings: dict[str, dict]) -> None:
    """Record `artifacts` (name -> path in the run) and, under "settings", what
    made those artifacts that command-line arguments can change (name -> values).
    The read, merge and write hold an advisory lock on the run directory, so
    two stages updating one run keep each other's entries."""
    import fcntl

    path = run / "manifest.json"
    for rel in artifacts.values():
        if not (run / rel).exists():
            raise CliError(f"manifest artifact missing on disk: {rel}")
    fd = os.open(path=run, flags=os.O_RDONLY)  # the lock's; nothing is written through it
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        manifest = {"config_hash": config_hash(cfg), "tool_version": __version__,
                    "created": time.strftime("%Y-%m-%dT%H:%M:%S"), "artifacts": {}}
        if path.exists():
            manifest = _read_json(path, _parse_manifest)
        manifest["artifacts"].update(artifacts)
        if settings:
            manifest.setdefault("settings", {}).update(settings)
        manifest["updated"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        _blockfile.write_atomic(path, [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])
    finally:
        os.close(fd)  # releases the lock


def _parse_manifest(manifest) -> dict:
    """The manifest's JSON, refused unless it is an object whose "artifacts"
    maps names to paths and whose "settings", when present, maps names to
    objects."""
    if not isinstance(manifest, dict):
        raise TypeError("not a JSON object")
    for key, kind in (("artifacts", str), ("settings", dict)):
        value = manifest[key] if key == "artifacts" else manifest.get(key, {})
        if not isinstance(value, dict) or not all(isinstance(v, kind) for v in value.values()):
            raise TypeError(f"{key!r} is not a JSON object of {kind.__name__} values")
    return manifest


# ---------------------------------------------------------------------------
# instance / schedule plumbing

def build_instance(cfg: ExperimentConfig):
    seed = child_seed(cfg.seed, "datagen")
    if cfg.topology == "star":
        return datagen.make_star_instance(cfg.K, cfg.d, cfg.n_train, seed,
                                          family=cfg.family, M=cfg.n_eval_tuples,
                                          central=cfg.central,
                                          edge_shift=cfg.edge_shift)
    return datagen.make_chain_instance(cfg.K, cfg.d, cfg.n_train, seed,
                                       M=cfg.n_eval_tuples, family=cfg.family)


def build_schedule(cfg: ExperimentConfig) -> Schedule:
    if cfg.variant == "bridge":
        return build_bridge_schedule(cfg.T, scale=cfg.bridge_scale, eta=cfg.eta)
    return build_diffusion_schedule(cfg.T, profile=cfg.profile, eta=cfg.eta)


def _edge_file(a: int, b: int) -> str:
    return f"datasets/edge_{a}-{b}.bin"


def _check_match(path: Path, what: str, checks) -> None:
    """Raise a CliError naming `path` at the first (key, have, want) of
    `checks` where the file's value is not this run's."""
    for key, have, want in checks:
        if have != want:
            raise CliError(f"{path}: {what} {key}={have} does not match this run's {want}")


def load_run_data(cfg: ExperimentConfig, run: Path, *, edges: bool = False,
                  eval_tuples: bool = False):
    """(topology, datasets, eval tuples, instance) of the run, as gen-data
    wrote them, in two steps. First one header pass over every dataset file,
    the edge files then eval.bin: each must exist and be made for this run's
    edge, K, d and config hash, and a file this call does not load must be as
    long as its header says. Then the arrays of the files the stage reads:
    the edge datasets if `edges`, the eval tuples if `eval_tuples`; the other
    comes back None. Last, the gaussian-affine family's instance.json, which
    must exist and match K and d. Raises a one-line error naming the first
    file refused.
    The reading stages call this before they write anything into `run`."""
    want = config_hash(cfg)
    topo = build_instance_topology(cfg)
    edge_paths = [run / _edge_file(a, b) for a, b in topo.edges]
    for (a, b), path in zip(topo.edges, edge_paths):
        if not path.exists():
            raise CliError(f"missing dataset {path}; run gen-data first")
        header, edge, d = datagen.read_paired_header(path, check_size=not edges)
        _check_match(path, "dataset", (("edge", "{}-{}".format(*edge), f"{a}-{b}"),
                                       ("d", d, cfg.d),
                                       ("config_hash", header.get("config_hash"), want)))
    eval_path = run / "datasets/eval.bin"
    header, K, d = datagen.read_eval_header(eval_path, check_size=not eval_tuples)
    _check_match(eval_path, "eval tuples", (("K", K, cfg.K), ("d", d, cfg.d),
                                            ("config_hash", header.get("config_hash"), want)))
    datasets = [datagen.load_paired_dataset(path) for path in edge_paths] if edges else None
    tuples = datagen.load_eval_tuples(eval_path) if eval_tuples else None
    path = run / "datasets/instance.json"
    inst = None
    if path.exists():
        inst = _read_json(path, datagen.instance_from_dict)
        _check_match(path, "instance", (("K", inst.K, cfg.K),
                                        ("data_dim", inst.data_dim, cfg.d)))
    elif cfg.family == "gaussian-affine":  # the one family gen-data writes it for
        raise CliError(f"missing {path}; run gen-data first")
    return topo, datasets, tuples, inst


def build_instance_topology(cfg: ExperimentConfig) -> datagen.Topology:
    if cfg.topology == "star":
        return datagen.Topology.star(cfg.K, cfg.central)
    return datagen.Topology.chain(cfg.K)


# perfbench/run.py calls these two; they go with its next revision
def all_directions(topo: datagen.Topology) -> list[tuple[int, int]]:
    return topo.directions("all")


def nonedge_directions(topo: datagen.Topology) -> list[tuple[int, int]]:
    return topo.directions("nonedges")


# ---------------------------------------------------------------------------
# deterministic SVG plots

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg(W: int, H: int, pad: int, title: str, body: list[str], footer: str) -> str:
    """One plot: the canvas, the axis box, the title, then `body` and the footer."""
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
           f'height="{H}" viewBox="0 0 {W} {H}">',
           f'<rect width="{W}" height="{H}" fill="white"/>',
           f'<rect x="{pad}" y="{pad}" width="{W - 2 * pad}" '
           f'height="{H - 2 * pad}" fill="none" stroke="#888"/>']
    if title:
        out.append(f'<text x="{W // 2}" y="20" text-anchor="middle" '
                   f'font-size="13">{title}</text>')
    out += body
    out.append(f'<text x="{pad}" y="{H - 8}" font-size="10">{footer}</text>')
    return "\n".join(out + ["</svg>"]) + "\n"


def _fit(vals, lo_pix, hi_pix):
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    if vmax - vmin < 1e-12:
        vmin, vmax = vmin - 1.0, vmax + 1.0
    span = vmax - vmin

    def to_pix(v):
        return lo_pix + (np.asarray(v, dtype=np.float64) - vmin) / span * (hi_pix - lo_pix)

    return to_pix, vmin, vmax


def scatter_svg(groups: list[tuple[str, np.ndarray]], title: str = "") -> str:
    """groups: (label, (n, >=2) points); only the first two coordinates are
    drawn. Deterministic output, no timestamps."""
    if not groups or all(len(g[1]) == 0 for g in groups):
        raise CliError("empty plot input")
    W, H, pad = 480, 480, 45
    pts = np.concatenate([np.atleast_2d(g[1])[:, :2] for g in groups])
    fx, xmin, xmax = _fit(pts[:, 0], pad, W - pad)
    fy, ymin, ymax = _fit(pts[:, 1], H - pad, pad)
    body = []
    for gi, (label, arr) in enumerate(groups):
        color = _PALETTE[gi % len(_PALETTE)]
        arr = np.atleast_2d(arr)[:, :2]
        for x, y in zip(fx(arr[:, 0]), fy(arr[:, 1])):
            body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="{color}" '
                        f'fill-opacity="0.55"/>')
        body.append(f'<text x="{pad + 4}" y="{pad + 14 + 14 * gi}" font-size="11" '
                    f'fill="{color}">{label}</text>')
    return _svg(W, H, pad, title, body,
                f"[{xmin:.3g}, {xmax:.3g}] x [{ymin:.3g}, {ymax:.3g}]")


def line_svg(series: list[tuple[str, np.ndarray, np.ndarray]],
             title: str = "", log_y: bool = False) -> str:
    """series: (label, xs, ys) line plots sharing one axis box."""
    series = [(lbl, np.asarray(xs, float), np.asarray(ys, float))
              for lbl, xs, ys in series if len(xs)]
    if not series:
        raise CliError("empty plot input")
    W, H, pad = 520, 360, 45
    all_x = np.concatenate([xs for _, xs, _ in series])
    all_y = np.concatenate([ys for _, _, ys in series])
    if log_y:
        all_y = np.log10(np.maximum(all_y, 1e-12))
    fx, xmin, xmax = _fit(all_x, pad, W - pad)
    fy, ymin, ymax = _fit(all_y, H - pad, pad)
    body = []
    for si, (label, xs, ys) in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        if log_y:
            ys = np.log10(np.maximum(ys, 1e-12))
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(fx(xs), fy(ys)))
        body.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"/>')
        body.append(f'<text x="{W - pad - 4}" y="{pad + 14 + 14 * si}" font-size="11" '
                    f'text-anchor="end" fill="{color}">{label}</text>')
    axis = "log10(y)" if log_y else "y"
    return _svg(W, H, pad, title, body, f"x in [{xmin:.3g}, {xmax:.3g}], "
                f"{axis} in [{ymin:.3g}, {ymax:.3g}]")


def loss_svg(log_rows, title: str) -> str:
    by_dir: dict[str, tuple[list, list]] = {}
    for step, direction, loss, _lr in log_rows:
        xs, ys = by_dir.setdefault(direction, ([], []))
        xs.append(step)
        ys.append(loss)
    series = [(d, np.array(xs), np.array(ys)) for d, (xs, ys) in sorted(by_dir.items())]
    return line_svg(series, title=title, log_y=True)


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args) -> int:
    cfg = load_config(args.config, args.override)
    run = run_dir(cfg)
    topo, datasets, tuples, inst = build_instance(cfg)
    meta = {"family": cfg.family, "seed": cfg.seed, "config_hash": config_hash(cfg)}
    artifacts = {}
    for ds in datasets:
        rel = _edge_file(*ds.edge)
        datagen.save_paired_dataset(run / rel, ds, meta)
        artifacts[f"dataset-{ds.edge[0]}-{ds.edge[1]}"] = rel
    datagen.save_eval_tuples(run / "datasets/eval.bin", tuples, meta)
    artifacts["eval-tuples"] = "datasets/eval.bin"
    if inst is not None:
        _blockfile.write_atomic(run / "datasets/instance.json", [
            json.dumps(datagen.instance_to_dict(inst), sort_keys=True) + "\n"])
        artifacts["instance"] = "datasets/instance.json"
    update_manifest(run, cfg, artifacts, {})
    print(f"gen-data: wrote {len(datasets)} edge datasets + eval tuples to {run}")
    return 0


# the TrainConfig fields that take the experiment's value of the same name
_TRAIN_FIELDS = tuple(f.name for f in fields(TrainConfig) if f.name in _INI_KEY)


def _train_config(cfg: ExperimentConfig, regime: str, steps: int, seed_key: str,
                  **changes) -> TrainConfig:
    """The TrainConfig of one `regime` run of this experiment, seeded from
    `seed_key`; `changes` replace single fields (the ablation cells)."""
    shared = {name: getattr(cfg, name) for name in _TRAIN_FIELDS}
    return TrainConfig(**{**shared, "regime": regime, "steps": steps,
                          "seed": child_seed(cfg.seed, seed_key), **changes})


def _train_common(args, regime: str, ckpt_name: str, steps_field: str) -> int:
    cfg = load_config(args.config, args.override)
    run = run_path(cfg)
    topo, datasets, _tuples, _inst = load_run_data(cfg, run, edges=True)
    sch = build_schedule(cfg)
    init_params = None
    if regime == "finetune":
        init_params = _load_predictor(run, cfg, args.init_checkpoint, "paired.ckpt")
    tcfg = _train_config(cfg, regime, getattr(cfg, steps_field), seed_key=regime)
    result = train(tcfg, topo, datasets, sch, init_params=init_params)
    log_rel = f"logs/{regime}.csv"
    _write_csv(run / log_rel, LOG_COLUMNS, result.log_rows)
    ckpt_rel = f"checkpoints/{ckpt_name}"
    router_mod.save_checkpoint(run / ckpt_rel, result.params,
                               extra_header={"config_hash": config_hash(cfg),
                                             "topology": router_mod.topology_hash(topo.edges)})
    plot_rel = f"plots/{regime}-loss.svg"
    _blockfile.write_atomic(run / plot_rel, [loss_svg(result.log_rows, f"{regime} loss")])
    update_manifest(run, cfg, {f"checkpoint-{regime}": ckpt_rel,
                               f"log-{regime}": log_rel,
                               f"plot-{regime}": plot_rel}, {})
    final = result.log_rows[-1][2] if result.log_rows else float("nan")
    print(f"{regime}: {tcfg.steps} steps, final windowed loss {final:.4g}, "
          f"checkpoint {run / ckpt_rel}")
    return 0


def cmd_train_paired(args) -> int:
    return _train_common(args, "paired-only", "paired.ckpt", "steps")


def cmd_finetune_direct(args) -> int:
    return _train_common(args, "finetune", "direct.ckpt", "finetune_steps")


def cmd_train_scratch(args) -> int:
    return _train_common(args, "from-scratch", "scratch.ckpt", "scratch_steps")


def _load_predictor(run: Path, cfg: ExperimentConfig, checkpoint: str | None,
                    default: str) -> router_mod.RouterParams:
    """The parameters at `checkpoint`, else the run's `default` one; raises CliError
    unless that exists and its T, domain count, data dimension and domain tree
    (the header's `topology` hash of the edges) are the run's."""
    path = Path(checkpoint) if checkpoint else run / "checkpoints" / default
    if not path.exists():
        if checkpoint:  # a file the user named, which no stage of the run makes
            raise CliError(f"checkpoint not found: {path}")
        stage = {"paired.ckpt": "train-paired", "direct.ckpt": "finetune-direct"}[default]
        raise CliError(f"checkpoint not found: {path}; run {stage} first")
    params, header = router_mod.load_checkpoint(path)
    tree = router_mod.topology_hash(build_instance_topology(cfg).edges)
    _check_match(path, "checkpoint", (("n_timesteps", params.n_timesteps, cfg.T),
                                      ("n_domains", params.n_domains, cfg.K),
                                      ("data_dim", params.data_dim, cfg.d),
                                      ("topology", header.get("topology"), tree)))
    return params


def _mode_checkpoint(mode: str) -> str:
    """The run's checkpoint that `eval` and `translate` load under `mode`
    unless --checkpoint names another."""
    return "direct.ckpt" if mode == "direct" else "paired.ckpt"


def cmd_translate(args) -> int:
    cfg = load_config(args.config, args.override)
    run = run_path(cfg)
    topo, _datasets, tuples, inst = load_run_data(cfg, run, eval_tuples=True)
    if args.n < 0:
        raise CliError(f"--n must be >= 0 (0: eval.n_eval), got {args.n}")
    eta = cfg.eta if args.eta is None else args.eta
    _check_eta("--eta", eta)
    n = args.n or cfg.n_eval
    datagen.check_labels(topo.K, args.src, args.tgt)
    x_src = tuples.domain(args.src)[:n]
    default_ckpt = _mode_checkpoint(args.mode)
    params = _load_predictor(run, cfg, args.checkpoint, default_ckpt)
    sch = replace(build_schedule(cfg), eta=eta)
    req = TranslationRequest(x_src=x_src, src=args.src, tgt=args.tgt,
                             mode=args.mode, steps=args.steps, seed=args.seed)
    result = translate(params, req, topo, sch)
    rel = f"reports/translate-{args.src}-{args.tgt}-{args.mode}.csv"
    _write_csv(run / rel, [f"x{k}" for k in range(x_src.shape[1])],
               np.atleast_2d(result.x_tgt))
    artifacts = {f"translate-{args.src}-{args.tgt}-{args.mode}": rel}
    if args.plot:
        groups = [("source", x_src), ("output", np.atleast_2d(result.x_tgt))]
        if inst is not None:
            ref = datagen.sample_conditional(inst, args.src, args.tgt, x_src,
                                             np.random.default_rng(args.seed))
            groups.append(("target-conditional", ref))
        else:
            groups.append(("target-aligned", tuples.domain(args.tgt)[:n]))
        plot_rel = f"plots/translate-{args.src}-{args.tgt}-{args.mode}.svg"
        _blockfile.write_atomic(run / plot_rel, [
            scatter_svg(groups, title=f"{args.src}->{args.tgt} ({args.mode})")])
        artifacts[f"plot-translate-{args.src}-{args.tgt}"] = plot_rel
    # a later call with other arguments replaces these files under the same names
    made_by = {"checkpoint": args.checkpoint or f"checkpoints/{default_ckpt}",
               "eta": eta, "n": len(x_src), "seed": args.seed, "steps": args.steps}
    update_manifest(run, cfg, artifacts, {name: made_by for name in artifacts})
    print(f"translate: {args.src}->{args.tgt} mode={args.mode} "
          f"steps={result.total_steps} wrote {run / rel}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config, args.override)
    run = run_path(cfg)
    topo, _datasets, tuples, inst = load_run_data(cfg, run, eval_tuples=True)
    params = _load_predictor(run, cfg, args.checkpoint, _mode_checkpoint(args.mode))
    sch = build_schedule(cfg)
    records = metrics.evaluate_checkpoint(
        params, tuples, topo, topo.directions(args.directions), args.mode, sch, inst=inst,
        n_eval=cfg.n_eval, seed=child_seed(cfg.seed, "eval"),
        steps=cfg.eval_steps, projections=cfg.projections)
    rel = f"reports/eval-{args.mode}-{args.directions}.csv"
    _write_csv(run / rel, REPORT_COLUMNS,
               [(*astuple(rec), config_hash(cfg)) for rec in records])
    update_manifest(run, cfg, {f"eval-{args.mode}-{args.directions}": rel}, {})
    for rec in records:
        print(f"eval: {rec.src}->{rec.tgt} mode={rec.mode} "
              f"sliced_w2={rec.sliced_w2:.4g} mmd={rec.mmd:.4g} "
              f"rmse={rec.rmse:.4g} steps={rec.steps}")
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args.config, args.override)
    run = run_path(cfg)
    topo, datasets, tuples, inst = load_run_data(cfg, run, edges=True, eval_tuples=True)
    sch = build_schedule(cfg)
    init_params = _load_predictor(run, cfg, None, "paired.ckpt")

    if args.sweep == "refine-steps":
        cells = [("n_refine", n, cfg.lambda2, n) for n in REFINE_SWEEP]
        directions = topo.directions("nonedges")
    else:
        cells = [("lambda2", lam, lam, 0) for lam in LAMBDA2_SWEEP]
        directions = topo.directions("edges")

    rows = []
    for name, value, lam2, n_ref in cells:
        try:
            tcfg = _train_config(cfg, "finetune", cfg.finetune_steps,
                                 seed_key=f"ablate-{name}-{value}",
                                 lambda2=lam2, n_refine=n_ref)
            result = train(tcfg, topo, datasets, sch, init_params=init_params)
            records = metrics.evaluate_checkpoint(
                result.params, tuples, topo, directions, "direct", sch,
                inst=inst, n_eval=cfg.n_eval, seed=child_seed(cfg.seed, "eval"),
                steps=cfg.eval_steps, projections=cfg.projections)
            sw = float(np.mean([r.sliced_w2 for r in records]))
            rows.append((name, str(value), f"{sw:.6g}", "ok"))  # str: as the sweep lists it
        except (CliError, DivergenceError, ValueError) as exc:
            rows.append((name, str(value), "", f"failed: {exc}"))
    rel = f"reports/ablate-{args.sweep}.csv"
    _write_csv(run / rel, ["sweep", "value", "mean_sliced_w2", "status"], rows)
    ok = [(float(v), float(sw)) for _, v, sw, st in rows if st == "ok"]
    artifacts = {f"ablate-{args.sweep}": rel}
    if ok:
        xs = np.array([x for x, _ in ok])
        ys = np.array([y for _, y in ok])
        plot_rel = f"plots/ablate-{args.sweep}.svg"
        _blockfile.write_atomic(run / plot_rel, [
            line_svg([(args.sweep, xs, ys)], title=f"sliced W2 vs {args.sweep}")])
        artifacts[f"plot-ablate-{args.sweep}"] = plot_rel
    update_manifest(run, cfg, artifacts, {})
    for row in rows:
        print(f"ablate: {row[0]}={row[1]} sliced_w2={row[2] or 'n/a'} [{row[3]}]")
    return 0


def cmd_verify_oracle(args) -> int:
    rng = np.random.default_rng(args.seed)
    # a 1-D instance with a near-deterministic central domain, where the
    # conditional-independence assumption behind the decomposition is tightest
    inst = datagen._make_gaussian_instance(3, 1, rng, central=0,
                                           central_noise=1e-3)
    nested, direct = metrics.nested_vs_direct_kl(inst, central=0, src=1, tgt=2)
    diff = abs(nested - direct)
    ok_a = diff < 1e-3
    print(f"decomposition-check nested={nested:.6f} direct={direct:.6f} "
          f"diff={diff:.2e} {'PASS' if ok_a else 'FAIL'}")

    trial_rng = np.random.default_rng(args.seed + 1)
    holds = 0
    for _ in range(100):
        step_sum, endpoint, se = metrics.pathwise_kl_bound_trial(trial_rng)
        if step_sum >= endpoint - 2.0 * se:
            holds += 1
    ok_b = holds >= 95
    print(f"pathwise-bound-check holds in {holds}/100 trials "
          f"{'PASS' if ok_b else 'FAIL'}")
    return 0 if (ok_a and ok_b) else 1


# ---------------------------------------------------------------------------
# dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diffrouter",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    def add_cfg(p):
        p.add_argument("--config", default=None, help="INI config path")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")

    p = add("gen-data", cmd_gen_data, help="generate edge datasets and eval tuples")
    add_cfg(p)

    for name, fn in (("train-paired", cmd_train_paired),
                     ("finetune-direct", cmd_finetune_direct),
                     ("train-scratch", cmd_train_scratch)):
        p = add(name, fn, help=f"run the {name} training regime")
        add_cfg(p)
        if fn is cmd_finetune_direct:
            p.add_argument("--init-checkpoint", default=None,
                           help="pretrained checkpoint (default: the run's paired.ckpt)")

    p = add("translate", cmd_translate, help="translate eval sources")
    add_cfg(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--src", type=int, required=True)
    p.add_argument("--tgt", type=int, required=True)
    p.add_argument("--mode", choices=("indirect", "direct"), default="indirect")
    p.add_argument("--steps", type=int, default=0, help="0 uses the full schedule")
    p.add_argument("--eta", type=float, default=None, help="replaces schedule.eta")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=0, help="number of sources (0: eval.n_eval)")
    p.add_argument("--plot", action="store_true")

    p = add("eval", cmd_eval, help="metric report over translation directions")
    add_cfg(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--mode", choices=("indirect", "direct"), default="indirect")
    p.add_argument("--directions", choices=("all", "edges", "nonedges"),
                   default="all")

    p = add("ablate", cmd_ablate, help="finetune sweep grids")
    add_cfg(p)
    p.add_argument("sweep", choices=("refine-steps", "lambda2"))

    p = add("verify-oracle", cmd_verify_oracle,
            help="numerical decomposition and pathwise-bound checks")
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, DivergenceError, ValueError, OSError) as exc:
        msg = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
