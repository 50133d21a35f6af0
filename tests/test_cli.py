import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from diffrouter import cli, router
from diffrouter.cli import (CliError, ExperimentConfig, child_seed, config_hash,
                            load_config, main, run_dir)
from diffrouter.train import TrainConfig

TINY = """\
[instance]
k = 3
d = 2
n_train = 500
n_eval_tuples = 300

[schedule]
t = 10

[network]
hidden = 32,32

[train]
steps = 200
finetune_steps = 120
scratch_steps = 120
batch_size = 32
warmup_steps = 50
log_window = 50
n_refine = 1

[eval]
n_eval = 50
"""


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(tmp_path / "runs"))
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY)
    return tmp_path, str(cfg_path)


def _run(run_root, cfg):
    return run_root / "runs" / config_hash(cfg)


# ---------------------------------------------------------------------------
# config handling

def test_defaults_without_config():
    cfg = load_config(None)
    assert cfg.K == 3 and cfg.T == 100 and cfg.hidden == (128, 128, 128)


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[train]\nstepz = 5\n")
    with pytest.raises(CliError, match="unknown config key"):
        load_config(str(p))
    for text in ("[nonsense]\nx = 1\n", "[DEFAULT]\nseed = 5\n"):
        p.write_text(text)
        with pytest.raises(CliError, match="unknown config section"):
            load_config(str(p))
    for text in ("k = 3\n", "[train]\nsteps = 5\nsteps = 6\n", "[train]\n[train]\n"):
        p.write_text(text)
        with pytest.raises(CliError, match="malformed config file"):
            load_config(str(p))
    # a '%' is a plain character, as run_dir writes it to config.ini
    p.write_text("[output]\ndir = runs%x\n")
    assert load_config(str(p)).outdir == "runs%x"


def test_override_parsing():
    cfg = load_config(None, ["schedule.t=25", "run.seed=9"])
    assert cfg.T == 25 and cfg.seed == 9
    with pytest.raises(CliError):
        load_config(None, ["notdotted"])
    for text, want in (("1", True), ("TRUE", True), ("yes", True),
                       ("0", False), ("false", False), ("No", False)):
        assert load_config(None, [f"train.curriculum={text}"]).curriculum is want
    for text in ("", "on", "2"):
        with pytest.raises(CliError, match="train.curriculum: expected"):
            load_config(None, [f"train.curriculum={text}"])


# each value fails as one error line naming its key, before any run directory
# is made
BAD_VALUES = [
    ("schedule.t=abc", "schedule.t: expected an integer, got 'abc'"),
    ("network.hidden=16,,16", "network.hidden: expected comma-separated integers"),
    ("instance.edge_shift=far", "instance.edge_shift: expected a number, got 'far'"),
    ("train.curriculum=maybe", "train.curriculum: expected one of 1/0/true/false/yes/no"),
    ("network.hidden=0", "network.hidden widths must be positive, got 0"),
    ("network.hidden=64,-1", "network.hidden widths must be positive, got 64,-1"),
    ("network.time_dim=15", "network.time_dim must be even"),
    ("train.lr=-1", "train.lr must be positive, got -1.0"),
    ("train.finetune_lr=0", "train.finetune_lr must be positive, got 0.0"),
    ("train.lr=nan", "train.lr must be positive, got nan"),
    ("network.activation=tanh", "unknown network.activation 'tanh'"),
    ("schedule.eta=-1", "schedule.eta must be finite and nonnegative, got -1.0"),
    ("schedule.eta=inf", "schedule.eta must be finite and nonnegative, got inf"),
    ("schedule.eta=nan", "schedule.eta must be finite and nonnegative, got nan"),
    ("schedule.variant=ode", "unknown schedule variant 'ode'"),
    ("schedule.bridge_scale=0", "schedule.bridge_scale must be finite and positive, got 0.0"),
    ("schedule.bridge_scale=-1", "schedule.bridge_scale must be finite and positive, got -1.0"),
    ("schedule.bridge_scale=nan", "schedule.bridge_scale must be finite and positive, got nan"),
    ("eval.steps=-3", "eval.steps must be >= 0 (0: the full schedule), got -3"),
]


def test_validation_errors(tmp_path, monkeypatch, capsys):
    with pytest.raises(CliError):
        load_config(None, ["instance.topology=ring"])
    with pytest.raises(CliError):
        load_config(None, ["instance.k=1"])
    with pytest.raises(CliError):
        load_config(None, ["schedule.profile=weird"])
    for key in ("train.finetune_steps", "train.scratch_steps", "train.log_window",
                "eval.n_eval", "eval.projections", "schedule.t"):
        with pytest.raises(CliError, match=f"{key} must be positive"):
            load_config(None, [f"{key}=0"])
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(tmp_path / "runs"))
    for override, expect in BAD_VALUES:
        for stage in ("gen-data", "train-paired"):
            assert main([stage, "--override", override]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: CliError: ") and err.count("\n") == 1, err
            assert expect in err, err
    assert not (tmp_path / "runs").exists()


def test_config_hash_properties(tmp_path, monkeypatch):
    a = load_config(None, ["schedule.t=25", "run.seed=9"])
    b = load_config(None, ["run.seed=9", "schedule.t=25"])
    assert config_hash(a) == config_hash(b)
    # the output directory does not change a run's identity
    c = load_config(None, ["schedule.t=25", "run.seed=9", "output.dir=elsewhere"])
    assert config_hash(a) == config_hash(c)
    d = load_config(None, ["schedule.t=26", "run.seed=9"])
    assert config_hash(a) != config_hash(d)
    # the hash and the resolved config.ini of the defaults are those of
    # earlier versions: checkpoints, datasets and reports carry the hash
    default = load_config(None)
    assert default == cli.ExperimentConfig()
    assert config_hash(default) == "d4d55fdf1bcf"
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(tmp_path / "runs"))
    ini = (run_dir(default) / "config.ini").read_bytes()
    assert len(ini) == 589
    assert hashlib.sha256(ini).hexdigest() == (
        "9d6e7e8187c7406782d56d42a0b476e0da55cd3becad2ca545f581e2fa82e1f6")


def test_cli_import_does_not_load_scipy():
    """Only the glyph family needs scipy.ndimage; starting the CLI must not
    pay for its import."""
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, diffrouter.cli; print('scipy.ndimage' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"


def test_child_seed_stable_and_distinct():
    assert child_seed(0, "datagen") == child_seed(0, "datagen")
    assert child_seed(0, "datagen") != child_seed(0, "eval")
    assert child_seed(0, "datagen") != child_seed(1, "datagen")


def test_run_dir_writes_resolved_config(workspace):
    root, cfg_path = workspace
    cfg = load_config(cfg_path)
    run = run_dir(cfg)
    for sub in cli.SUBDIRS:
        assert (run / sub).is_dir()
    resolved = load_config(str(run / "config.ini"))
    assert config_hash(resolved) == config_hash(cfg)


# ---------------------------------------------------------------------------
# subcommand pipeline

def test_pipeline_end_to_end(workspace, capsys):
    root, cfg_path = workspace
    cfg = load_config(cfg_path)
    run = _run(root, cfg)

    # training before gen-data is refused
    assert main(["train-paired", "--config", cfg_path]) == 1
    assert "run gen-data first" in capsys.readouterr().err

    assert main(["gen-data", "--config", cfg_path]) == 0
    for rel in ("datasets/edge_1-0.bin", "datasets/edge_2-0.bin",
                "datasets/eval.bin", "datasets/instance.json", "manifest.json"):
        assert (run / rel).exists(), rel
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(cfg)
    assert "eval-tuples" in manifest["artifacts"]

    # gen-data is deterministic: byte-identical datasets on re-run
    before = (run / "datasets/edge_1-0.bin").read_bytes()
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert (run / "datasets/edge_1-0.bin").read_bytes() == before

    assert main(["train-paired", "--config", cfg_path]) == 0
    assert (run / "checkpoints/paired.ckpt").exists()
    assert (run / "logs/paired-only.csv").exists()
    svg = (run / "plots/paired-only-loss.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg

    # direct mode requires a finetuned checkpoint
    assert main(["eval", "--config", cfg_path, "--mode", "direct"]) == 1
    assert "checkpoint not found" in capsys.readouterr().err
    # a paired-only checkpoint refuses direct translation requests
    assert main(["translate", "--config", cfg_path, "--src", "1", "--tgt", "2",
                 "--mode", "direct"]) == 1
    assert "paired-only" in capsys.readouterr().err

    assert main(["translate", "--config", cfg_path, "--src", "1", "--tgt", "2",
                 "--plot"]) == 0
    out_csv = run / "reports/translate-1-2-indirect.csv"
    first = out_csv.read_bytes()
    assert (run / "plots/translate-1-2-indirect.svg").exists()
    assert main(["translate", "--config", cfg_path, "--src", "1", "--tgt", "2",
                 "--plot"]) == 0
    assert out_csv.read_bytes() == first  # reproducible output

    assert main(["eval", "--config", cfg_path, "--directions", "edges"]) == 0
    report = run / "reports/eval-indirect-edges.csv"
    lines = report.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "src"
    assert len(lines) == 1 + 4  # four edge directions on the K=3 star
    first_report = report.read_bytes()
    assert main(["eval", "--config", cfg_path, "--directions", "edges"]) == 0
    assert report.read_bytes() == first_report

    assert main(["finetune-direct", "--config", cfg_path]) == 0
    assert (run / "checkpoints/direct.ckpt").exists()
    assert main(["eval", "--config", cfg_path, "--mode", "direct",
                 "--directions", "nonedges"]) == 0
    assert (run / "reports/eval-direct-nonedges.csv").exists()

    assert main(["train-scratch", "--config", cfg_path]) == 0
    assert (run / "checkpoints/scratch.ckpt").exists()


READING_STAGES = [["train-paired"], ["finetune-direct"], ["train-scratch"],
                  ["translate", "--src", "1", "--tgt", "2"], ["eval"],
                  ["ablate", "lambda2"]]


@pytest.mark.parametrize("stage", READING_STAGES, ids=lambda argv: argv[0])
def test_reading_stage_creates_no_run_directory(workspace, capsys, stage):
    """Only gen-data creates a run directory: a later stage under a config
    gen-data never ran fails as one line and leaves nothing behind."""
    root, cfg_path = workspace
    assert main(["gen-data", "--config", cfg_path]) == 0
    capsys.readouterr()
    before = sorted((root / "runs").iterdir())
    assert main([*stage, "--config", cfg_path, "--override", "eval.n_eval=40"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CliError: missing dataset") and err.count("\n") == 1, err
    assert "run gen-data first" in err
    assert sorted((root / "runs").iterdir()) == before


def test_training_shorter_than_log_window(workspace):
    """A stage of fewer steps than one log window still logs and plots."""
    root, cfg_path = workspace
    ov = ["train.finetune_steps=60", "train.log_window=100"]
    run = _run(root, load_config(cfg_path, ov))
    args = ["--config", cfg_path]
    for o in ov:
        args += ["--override", o]
    for stage in ("gen-data", "train-paired", "finetune-direct"):
        assert main([stage] + args) == 0, stage
    assert (run / "checkpoints/direct.ckpt").exists()
    rows = (run / "logs/finetune.csv").read_text().strip().splitlines()
    assert len(rows) > 1 and all(r.startswith("60,") for r in rows[1:])
    assert "polyline" in (run / "plots/finetune-loss.svg").read_text()


def test_ablate_sweeps(workspace):
    root, cfg_path = workspace
    cfg = load_config(cfg_path)
    run = _run(root, cfg)
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train-paired", "--config", cfg_path]) == 0
    assert main(["ablate", "refine-steps", "--config", cfg_path]) == 0
    lines = (run / "reports/ablate-refine-steps.csv").read_text().strip().splitlines()
    assert lines[0] == "sweep,value,mean_sliced_w2,status"
    assert len(lines) == 1 + len(cli.REFINE_SWEEP)
    assert all(line.endswith(",ok") for line in lines[1:])
    assert (run / "plots/ablate-refine-steps.svg").exists()
    assert main(["ablate", "lambda2", "--config", cfg_path]) == 0
    lines = (run / "reports/ablate-lambda2.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + len(cli.LAMBDA2_SWEEP)
    # a lambda1 = lambda2 = 0 cell is recorded as failed, not fatal
    ov = ["--override", "train.lambda1=0"]
    run0 = _run(root, load_config(cfg_path, ["train.lambda1=0"]))
    assert main(["gen-data", "--config", cfg_path] + ov) == 0
    assert main(["train-paired", "--config", cfg_path] + ov) == 0
    assert main(["ablate", "lambda2", "--config", cfg_path] + ov) == 0
    lines = (run0 / "reports/ablate-lambda2.csv").read_text().strip().splitlines()
    statuses = [line.split(",", 3)[3] for line in lines[1:]]
    assert any(s.startswith("failed:") for s in statuses)
    assert any(s == "ok" for s in statuses)


def test_ablate_requires_pretrained(workspace, capsys):
    root, cfg_path = workspace
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["ablate", "refine-steps", "--config", cfg_path]) == 1
    assert "train-paired first" in capsys.readouterr().err


def test_verify_oracle(capsys):
    assert main(["verify-oracle"]) == 0
    out = capsys.readouterr().out
    assert "decomposition-check" in out and "PASS" in out
    assert "pathwise-bound-check" in out
    assert "FAIL" not in out


def test_error_reporting_single_line(workspace, capsys):
    root, cfg_path = workspace
    assert main(["gen-data", "--config", "/nonexistent.ini"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CliError:") and err.count("\n") == 1


def test_bridge_run_variant(workspace):
    """The bridge variant trains paired, refuses finetuning, and translates at
    the --eta it is given."""
    root, cfg_path = workspace
    ov = ["--override", "schedule.variant=bridge"]
    assert main(["gen-data", "--config", cfg_path] + ov) == 0
    assert main(["train-paired", "--config", cfg_path] + ov) == 0
    assert main(["finetune-direct", "--config", cfg_path] + ov) == 1
    report = (_run(root, load_config(cfg_path, ov[1::2]))
              / "reports/translate-1-2-indirect.csv")
    outputs = []
    for eta in ("0", "1"):
        argv = ["translate", "--config", cfg_path, "--src", "1", "--tgt", "2"]
        assert main(argv + ov + ["--eta", eta]) == 0
        outputs.append(report.read_bytes())
    assert outputs[0] != outputs[1]


# ---------------------------------------------------------------------------
# damaged artifacts: one error line naming the file, never a traceback

@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A run directory with datasets and a paired checkpoint, made once."""
    root = tmp_path_factory.mktemp("trained")
    cfg_path = root / "tiny.ini"
    cfg_path.write_text(TINY)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("DIFFROUTER_OUTPUT_ROOT", str(root / "runs"))
        assert main(["gen-data", "--config", str(cfg_path)]) == 0
        assert main(["train-paired", "--config", str(cfg_path)]) == 0
    return root, str(cfg_path)


def _one_line_error(capsys, path) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and err.count("\n") == 1, err
    assert str(path) in err, err
    return err


@pytest.mark.parametrize("argv, expect", [
    (["--src", "7"], "ValueError: domain label 7 out of range [0, 3)"),
    (["--src", "-1"], "ValueError: domain label -1 out of range [0, 3)"),  # no wrap-around
    (["--src", "1", "--n", "-5"], "CliError: --n must be >= 0 (0: eval.n_eval), got -5"),
    (["--src", "1", "--eta", "-0.5"], "CliError: --eta must be finite and nonnegative, got -0.5"),
    (["--src", "1", "--eta", "nan"], "CliError: --eta must be finite and nonnegative, got nan"),
    # the label is checked before the direct mode's checkpoint-kind check
    (["--src", "1", "--tgt", "7", "--mode", "direct"],
     "ValueError: domain label 7 out of range [0, 3)"),
])
def test_translate_refuses_bad_arguments(trained_run, monkeypatch, capsys, argv, expect):
    root, cfg_path = trained_run
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(root / "runs"))
    assert main(["translate", "--config", cfg_path, "--tgt", "2", *argv]) == 1
    assert capsys.readouterr().err == f"error: {expect}\n"
    reports = root / "runs" / config_hash(load_config(cfg_path)) / "reports"
    assert not list(reports.glob("translate-*"))


def test_manifest_says_what_made_a_translate_report(trained_run, tmp_path, monkeypatch):
    """A second translate with other arguments replaces the report under the
    same name; the manifest holds the arguments that made the file on disk."""
    _, cfg_path = trained_run
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(tmp_path / "runs"))
    assert main(["gen-data", "--config", cfg_path]) == 0
    ckpt = (trained_run[0] / "runs" / config_hash(load_config(cfg_path))
            / "checkpoints/paired.ckpt")
    run = _run(tmp_path, load_config(cfg_path))
    for eta, seed in (("0", "0"), ("0.7", "4")):
        assert main(["translate", "--config", cfg_path, "--src", "1", "--tgt", "2",
                     "--checkpoint", str(ckpt), "--eta", eta, "--seed", seed,
                     "--n", "20", "--steps", "5"]) == 0
    assert (run / "reports/translate-1-2-indirect.csv").exists()
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["artifacts"]["translate-1-2-indirect"] == (
        "reports/translate-1-2-indirect.csv")
    assert manifest["settings"] == {"translate-1-2-indirect": {
        "checkpoint": str(ckpt), "eta": 0.7, "n": 20, "seed": 4, "steps": 5}}


def test_translate_defaults_to_the_schedule_eta(trained_run, tmp_path, monkeypatch):
    """Without --eta, translate samples at the run's schedule.eta."""
    _, cfg_path = trained_run
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(tmp_path / "runs"))
    ov = ["--override", "schedule.eta=0.5"]
    assert main(["gen-data", "--config", cfg_path] + ov) == 0
    # the paired checkpoint does not depend on eta: reuse the trained run's
    ckpt = (trained_run[0] / "runs" / config_hash(load_config(cfg_path))
            / "checkpoints/paired.ckpt")
    report = (_run(tmp_path, load_config(cfg_path, ov[1::2]))
              / "reports/translate-1-2-indirect.csv")
    outputs = []
    for eta in ([], ["--eta", "0.5"], ["--eta", "0"]):
        argv = ["translate", "--config", cfg_path, "--src", "1", "--tgt", "2",
                "--checkpoint", str(ckpt)]
        assert main(argv + ov + eta) == 0
        outputs.append(report.read_bytes())
    assert outputs[0] == outputs[1] != outputs[2]


# every key TrainConfig shares with ExperimentConfig, at a non-default value
SHARED_TRAIN_KEYS = {
    "network.hidden": (8, 4), "network.time_dim": 4, "network.emb_dim": 2,
    "network.activation": "identity", "train.steps": 11,
    "train.batch_size": 16, "train.lr": 2e-3, "train.finetune_lr": 1e-3,
    "train.warmup_steps": 7, "train.lambda1": 0.5, "train.lambda2": 2.0,
    "train.n_refine": 2, "train.log_window": 3, "train.curriculum": False,
    "run.seed": 5,
}


def test_train_config_takes_every_shared_key(workspace, monkeypatch):
    """Each training stage and each ablate cell trains with the run's value of
    every key TrainConfig shares with the experiment config."""
    root, cfg_path = workspace
    shared = ({f.name for f in fields(TrainConfig)}
              & {f.name for f in fields(ExperimentConfig)})
    assert {cli._key_name(name) for name in shared} == set(SHARED_TRAIN_KEYS)
    flags = ["--config", cfg_path]
    for key, value in SHARED_TRAIN_KEYS.items():
        flags += ["--override", f"{key}={cli._ini_text(value)}"]
    cfg = load_config(cfg_path, flags[3::2])
    for name in shared:
        assert getattr(cfg, name) == SHARED_TRAIN_KEYS[cli._key_name(name)]
        assert getattr(cfg, name) != getattr(ExperimentConfig(), name), name

    built = []

    def capture(tcfg, *args, **kwargs):
        built.append(tcfg)
        raise ValueError("not trained")

    monkeypatch.setattr(cli, "train", capture)
    assert main(["gen-data", *flags]) == 0
    params = router.init_router(cfg.d, cfg.K, cfg.T, [8], np.random.default_rng(0))
    router.save_checkpoint(_run(root, cfg) / "checkpoints/paired.ckpt", params)
    for stage in ("train-paired", "finetune-direct", "train-scratch"):
        assert main([stage, *flags]) == 1
    assert main(["ablate", "lambda2", *flags]) == 0  # the failed cells are reported
    expect = [("paired-only", cfg.steps, "paired-only", {}),
              ("finetune", cfg.finetune_steps, "finetune", {}),
              ("from-scratch", cfg.scratch_steps, "from-scratch", {})]
    expect += [("finetune", cfg.finetune_steps, f"ablate-lambda2-{lam}",
                {"lambda2": lam, "n_refine": 0}) for lam in cli.LAMBDA2_SWEEP]
    assert len(built) == len(expect)
    for tcfg, (regime, steps, seed_key, cell) in zip(built, expect):
        assert (tcfg.regime, tcfg.steps) == (regime, steps)
        assert tcfg.seed == child_seed(cfg.seed, seed_key)
        for name in shared - {"steps", "seed"}:
            assert getattr(tcfg, name) == cell.get(name, getattr(cfg, name)), name


@pytest.mark.parametrize("damage, expect", [
    ("mid-block", "runs past the end"),
    ("block-boundary", "block sizes"),
    ("version-99", "version 99"),
    ("dataset-file", "not a diffrouter-checkpoint file"),
    ("activation-tanh", "unsupported activation 'tanh'"),
])
def test_damaged_checkpoint_is_one_line_error(trained_run, tmp_path, monkeypatch,
                                              capsys, damage, expect):
    root, cfg_path = trained_run
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(root / "runs"))
    cfg = load_config(cfg_path)
    run = root / "runs" / config_hash(cfg)
    blob = (run / "checkpoints/paired.ckpt").read_bytes()
    damaged = {
        "mid-block": lambda: blob[:-6],
        # drops the last block, the domain embedding table
        "block-boundary": lambda: blob[:-(4 + 4 * cfg.K * cfg.emb_dim)],
        "version-99": lambda: blob.replace(b"\nversion=1\n", b"\nversion=99\n", 1),
        "dataset-file": lambda: (run / "datasets/eval.bin").read_bytes(),
        "activation-tanh": lambda: blob.replace(b"\nactivation=silu\n",
                                                b"\nactivation=tanh\n", 1),
    }[damage]()
    assert damaged != blob
    path = tmp_path / "damaged.ckpt"
    path.write_bytes(damaged)
    assert main(["translate", "--config", cfg_path, "--src", "1", "--tgt", "2",
                 "--checkpoint", str(path)]) == 1
    assert expect in _one_line_error(capsys, path)


@pytest.mark.parametrize("override, have, want", [
    ("schedule.t=20", "n_timesteps=10", "20"),
    ("instance.k=4", "n_domains=3", "4"),
    ("instance.d=3", "data_dim=2", "3"),
])
def test_checkpoint_of_another_run_is_one_line_error(trained_run, tmp_path, monkeypatch,
                                                    capsys, override, have, want):
    """A checkpoint trained with other T, K or d is refused, not silently run."""
    root, cfg_path = trained_run
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(tmp_path / "runs"))
    ckpt = root / "runs" / config_hash(load_config(cfg_path)) / "checkpoints/paired.ckpt"
    flags = ["--config", cfg_path, "--override", override]
    assert main(["gen-data", *flags]) == 0
    capsys.readouterr()
    stages = [["translate", "--src", "1", "--tgt", "2", "--checkpoint", str(ckpt)],
              ["eval", "--checkpoint", str(ckpt)],
              ["finetune-direct", "--init-checkpoint", str(ckpt)]]
    for argv in stages:
        assert main([*argv, *flags]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: CliError: {ckpt}: checkpoint {have} does not match "
                       f"this run's {want}\n")
    # ablate finds the run's own paired.ckpt
    run = tmp_path / "runs" / config_hash(load_config(cfg_path, [override]))
    (run / "checkpoints/paired.ckpt").write_bytes(ckpt.read_bytes())
    assert main(["ablate", "lambda2", *flags]) == 1
    assert f"checkpoint {have} does not match" in capsys.readouterr().err


@pytest.mark.parametrize("override, key, have, want", [
    ("instance.k=4", "K", 3, 4),
    ("instance.d=3", "data_dim", 2, 3),
])
def test_instance_of_another_run_is_one_line_error(workspace, capsys, override, key,
                                                   have, want):
    """An instance.json made for another K or d is refused, not run into an
    IndexError inside the oracle."""
    root, cfg_path = workspace
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["gen-data", "--config", cfg_path, "--override", override]) == 0
    capsys.readouterr()
    other = _run(root, load_config(cfg_path, [override])) / "datasets/instance.json"
    other.write_bytes((_run(root, load_config(cfg_path)) / "datasets/instance.json")
                      .read_bytes())
    assert main(["eval", "--config", cfg_path, "--override", override]) == 1
    assert capsys.readouterr().err == (f"error: CliError: {other}: instance {key}={have} "
                                       f"does not match this run's {want}\n")


def test_truncated_eval_tuples_is_one_line_error(workspace, capsys):
    root, cfg_path = workspace
    run = _run(root, load_config(cfg_path))
    assert main(["gen-data", "--config", cfg_path]) == 0
    capsys.readouterr()
    path = run / "datasets/eval.bin"
    path.write_bytes(path.read_bytes()[:-10])
    assert main(["eval", "--config", cfg_path]) == 1
    assert "runs past the end" in _one_line_error(capsys, path)


@pytest.mark.parametrize("stage", ["train-paired", "train-scratch"])
def test_only_finetune_takes_init_checkpoint(stage, capsys):
    """The other trainings never read --init-checkpoint, so they refuse it
    rather than silently ignore it."""
    with pytest.raises(SystemExit) as exc:
        main([stage, "--init-checkpoint", "pretrained.ckpt"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --init-checkpoint" in capsys.readouterr().err


def _truncate(text: str) -> str:
    return text[:len(text) // 2]


def _drop(key: str):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


@pytest.mark.parametrize("rel, damage, stage", [
    ("datasets/instance.json", _truncate, "eval"),
    ("datasets/instance.json", _drop("maps"), "eval"),
    ("manifest.json", _truncate, "gen-data"),
    ("manifest.json", _drop("artifacts"), "gen-data"),
], ids=["instance-truncated", "instance-no-maps", "manifest-truncated",
        "manifest-no-artifacts"])
def test_damaged_json_is_one_line_error(workspace, capsys, rel, damage, stage):
    """A damaged JSON file of the run fails as one ValueError line naming it."""
    root, cfg_path = workspace
    assert main(["gen-data", "--config", cfg_path]) == 0
    capsys.readouterr()
    path = _run(root, load_config(cfg_path)) / rel
    path.write_text(damage(path.read_text()))
    assert main([stage, "--config", cfg_path]) == 1
    assert "damaged file" in _one_line_error(capsys, path)
