import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from diffrouter import cli, datagen, router
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


@pytest.mark.parametrize("overrides, expect", [
    (["instance.edge_shift=nan"], "instance.edge_shift must be finite, got nan"),
    (["instance.edge_shift=-inf"], "instance.edge_shift must be finite, got -inf"),
    (["instance.edge_shift=0.5", "instance.topology=chain"],
     "instance.edge_shift=0.5 applies only to a gaussian-affine star, not a "
     "gaussian-affine chain"),
    (["instance.edge_shift=0.5", "instance.family=moons-warp"],
     "instance.edge_shift=0.5 applies only to a gaussian-affine star, not a moons-warp star"),
    (["instance.edge_shift=-1", "instance.family=glyphs", "instance.d=64"],
     "instance.edge_shift=-1.0 applies only to a gaussian-affine star, not a glyphs star"),
], ids=["nan", "-inf", "chain", "moons-warp", "glyphs"])
def test_unusable_edge_shift_is_refused_at_load(tmp_path, monkeypatch, capsys,
                                                overrides, expect):
    """An edge shift the instance would ignore, or one that makes every
    dataset NaN, is refused as one line before any run directory is made."""
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(tmp_path / "runs"))
    flags = [a for ov in overrides for a in ("--override", ov)]
    for stage in ("gen-data", "train-paired"):
        assert main([stage, *flags]) == 1
        assert capsys.readouterr().err == f"error: CliError: {expect}\n"
    assert not (tmp_path / "runs").exists()
    assert load_config(None, ["instance.edge_shift=0.5"]).edge_shift == 0.5


def test_both_loss_coefficients_zero_is_refused_at_load(tmp_path, monkeypatch, capsys):
    """lambda1 = lambda2 = 0 leaves finetuning no loss; the config is refused
    as one line naming both keys, before any stage makes a run directory."""
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(tmp_path / "runs"))
    flags = ["--override", "train.lambda1=0", "--override", "train.lambda2=0"]
    for stage in ("gen-data", "train-paired", "finetune-direct", "train-scratch"):
        assert main([stage, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CliError: ") and err.count("\n") == 1, err
        assert "train.lambda1 and train.lambda2 are both 0" in err, err
    assert not (tmp_path / "runs").exists()
    for one_term in ("train.lambda1=0", "train.lambda2=0"):
        load_config(None, [one_term])


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


def test_cli_import_does_not_load_deferred_modules():
    """The library never imports scipy, and only an eval needs the thread
    pool of `metrics.evaluate_checkpoint`; starting the CLI must not pay for
    their imports."""
    src = str(Path(cli.__file__).parents[1])
    deferred = ["scipy", "concurrent.futures", "multiprocessing"]
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, diffrouter.cli; print([m for m in {deferred} if m in sys.modules])"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "[]\n"


def test_glyph_gen_data_does_not_load_scipy(tmp_path):
    """The glyph views are numpy kernels: a glyph gen-data, which renders all
    of them, leaves no scipy module loaded."""
    src = str(Path(cli.__file__).parents[1])
    flags = ["instance.family=glyphs", "instance.d=64", "instance.k=4",
             "instance.n_train=40", "instance.n_eval_tuples=20"]
    argv = ["gen-data"] + [a for flag in flags for a in ("--override", flag)]
    script = ("import sys; from diffrouter.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src,
                                          "DIFFROUTER_OUTPUT_ROOT": str(tmp_path)})
    assert out.stdout.splitlines()[-1] == "[]"
    (run,) = tmp_path.iterdir()
    assert (run / "datasets/edge_3-0.bin").exists()


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
    log = (run / "logs/paired-only.csv").read_text().splitlines()
    assert log[0] == "step,direction,loss,lr" and len(log) > 1
    svg = (run / "plots/paired-only-loss.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg

    # direct mode requires a finetuned checkpoint
    assert main(["eval", "--config", cfg_path, "--mode", "direct"]) == 1
    assert "checkpoint not found" in capsys.readouterr().err
    # direct translation loads the finetuned checkpoint, which is not there yet
    assert main(["translate", "--config", cfg_path, "--src", "1", "--tgt", "2",
                 "--mode", "direct"]) == 1
    assert "run finetune-direct first" in capsys.readouterr().err
    # a paired-only checkpoint refuses direct translation requests
    assert main(["translate", "--config", cfg_path, "--src", "1", "--tgt", "2",
                 "--mode", "direct", "--checkpoint", str(run / "checkpoints/paired.ckpt")]) == 1
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
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["src", "tgt", "mode", "sliced_w2", "mmd", "rmse", "steps",
                       "n_samples", "seed", "config_hash"]
    assert len(rows) == 1 + 4  # four edge directions on the K=3 star
    assert all(row[-1] == config_hash(cfg) for row in rows[1:])
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


# a K=5 chain: the curriculum's phases hold 6, 4 and 2 non-edge directions
# (hop counts 2, 3 and 4)
CHAIN5 = ("instance.topology=chain", "instance.k=5", "instance.n_train=300",
          "instance.n_eval_tuples=100", "schedule.t=5", "network.hidden=8",
          "train.steps=5")
CURRICULUM_STAGES = [("finetune-direct", "finetune_steps", "finetune"),
                     ("train-scratch", "scratch_steps", "from-scratch")]


def _chain5_args(cfg_path, key, steps):
    args = ["--config", cfg_path]
    for ov in (*CHAIN5, f"train.{key}={steps}"):
        args += ["--override", ov]
    return args


@pytest.mark.parametrize("stage, key, regime", CURRICULUM_STAGES)
def test_curriculum_phase_with_fewer_steps_than_directions_is_refused(
        workspace, capsys, stage, key, regime):
    """17 steps give the phases 5, 5 and 7 steps, so the first would leave a
    distance-2 direction untrained: the run is refused as one line before it
    trains, and writes no checkpoint or log."""
    root, cfg_path = workspace
    args = _chain5_args(cfg_path, key, 17)
    for pre in ("gen-data", "train-paired"):
        assert main([pre, *args]) == 0, pre
    capsys.readouterr()
    assert main([stage, *args]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert ("17 steps give phase 1 of 3 only 5 steps for its 6 non-edge directions"
            in err), err
    run = _run(root, load_config(cfg_path, [*CHAIN5, f"train.{key}=17"]))
    assert not (run / f"logs/{regime}.csv").exists()


@pytest.mark.parametrize("stage, key, regime", CURRICULUM_STAGES)
def test_curriculum_with_a_step_per_direction_trains_every_direction(
        workspace, stage, key, regime):
    """18 steps give each phase 6 steps, enough for all of its directions:
    the loss log holds every one of the chain's 12 non-edge directions."""
    root, cfg_path = workspace
    args = _chain5_args(cfg_path, key, 18)
    for st in ("gen-data", "train-paired", stage):
        assert main([st, *args]) == 0, st
    run = _run(root, load_config(cfg_path, [*CHAIN5, f"train.{key}=18"]))
    with open(run / f"logs/{regime}.csv", newline="") as fh:
        logged = {row["direction"] for row in csv.DictReader(fh)}
    topo = datagen.Topology.chain(5)
    assert {d for d in logged if d.startswith("unpaired:")} == {
        f"unpaired:{i}->{j}" for i, j in topo.directions("nonedges")}


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


def test_translate_direct_loads_the_direct_checkpoint(workspace, capsys):
    """translate and eval share one default: under --mode direct both load the
    run's direct.ckpt, and the manifest names the file translate loaded."""
    root, cfg_path = workspace
    args = ["--config", cfg_path, "--override", "train.steps=20",
            "--override", "train.finetune_steps=10"]
    run = _run(root, load_config(cfg_path, ["train.steps=20", "train.finetune_steps=10"]))
    for stage in ("gen-data", "train-paired"):
        assert main([stage, *args]) == 0, stage
    capsys.readouterr()
    direct = ["translate", "--src", "2", "--tgt", "1", "--mode", "direct", *args]
    assert main(direct) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "run finetune-direct first" in err, err
    assert main(["finetune-direct", *args]) == 0
    assert main(direct) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["settings"]["translate-2-1-direct"]["checkpoint"] == (
        "checkpoints/direct.ckpt")
    assert (run / "reports/translate-2-1-direct.csv").exists()


def test_eval_binds_once_per_hop_and_builds_no_full_input(trained_run, tmp_path,
                                                         monkeypatch):
    """An indirect eval over all six directions of the K=3 star routes over
    eight hops, of which six are distinct (src, hop target) pairs; each runs
    once, conditioning the router once and then making T calls, and no call
    assembles the full backbone input, which only training needs."""
    root, cfg_path = trained_run
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(root / "runs"))
    conds, calls, built = [], [], []
    predict, build = router.predict_noise, router.backbone_input

    def spy_predict(bound, x_t, t):
        if not any(b is bound for b in conds):
            conds.append(bound)
        calls.append(t)
        return predict(bound, x_t, t)

    def spy_build(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(router, "predict_noise", spy_predict)
    monkeypatch.setattr(router, "backbone_input", spy_build)
    assert main(["eval", "--config", cfg_path, "--directions", "all"]) == 0
    T = load_config(cfg_path).T
    assert len(conds) == 6 and len(calls) == 6 * T and not built


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
    tree = router.topology_hash(cli.build_instance_topology(cfg).edges)
    router.save_checkpoint(_run(root, cfg) / "checkpoints/paired.ckpt", params,
                           extra_header={"topology": tree})
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
    ("data_dim-3", "header data_dim=3 does not match the arrays' 2"),
    ("time_dim-14", "header time_dim=14 does not match the arrays' 16"),
    ("kind-abc", "unknown checkpoint kind 'abc'"),
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
        # a header shape the arrays do not have
        "data_dim-3": lambda: blob.replace(b"\ndata_dim=2\n", b"\ndata_dim=3\n", 1),
        "time_dim-14": lambda: blob.replace(b"\ntime_dim=16\n", b"\ntime_dim=14\n", 1),
        "kind-abc": lambda: blob.replace(b"\nkind=paired-only\n", b"\nkind=abc\n", 1),
    }[damage]()
    assert damaged != blob
    path = tmp_path / "damaged.ckpt"
    path.write_bytes(damaged)
    assert main(["translate", "--config", cfg_path, "--src", "1", "--tgt", "2",
                 "--checkpoint", str(path)]) == 1
    assert expect in _one_line_error(capsys, path)


STAR_3 = router.topology_hash(datagen.Topology.star(3, 0).edges)
CHAIN_3 = router.topology_hash(datagen.Topology.chain(3).edges)


@pytest.mark.parametrize("override, have, want", [
    ("schedule.t=20", "n_timesteps=10", "20"),
    ("instance.k=4", "n_domains=3", "4"),
    ("instance.d=3", "data_dim=2", "3"),
    # the same T, K and d on another tree: the header's edge hash tells them apart
    ("instance.topology=chain", f"topology={STAR_3}", CHAIN_3),
])
def test_checkpoint_of_another_run_is_one_line_error(trained_run, tmp_path, monkeypatch,
                                                    capsys, override, have, want):
    """A checkpoint trained with other T, K, d or domain tree is refused, not
    silently run."""
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


@pytest.mark.parametrize("argv", [
    ["eval", "--checkpoint"],
    ["translate", "--src", "1", "--tgt", "2", "--checkpoint"],
    ["finetune-direct", "--init-checkpoint"],
], ids=lambda argv: argv[0])
def test_missing_named_checkpoint_is_refused_without_a_stage_hint(
        trained_run, tmp_path, monkeypatch, capsys, argv):
    """A checkpoint path the user named is not one a stage of the run makes,
    so the error names the path and no stage to run first."""
    root, cfg_path = trained_run
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(root / "runs"))
    path = tmp_path / "nope.ckpt"
    assert main([*argv, str(path), "--config", cfg_path]) == 1
    assert capsys.readouterr().err == f"error: CliError: checkpoint not found: {path}\n"


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


@pytest.mark.parametrize("override, rel, target, expect", [
    # another run's files under this run's names
    ("instance.d=3", "datasets/edge_1-0.bin", "datasets/edge_1-0.bin",
     "dataset d=3 does not match this run's 2"),
    (None, "datasets/edge_2-0.bin", "datasets/edge_1-0.bin",
     "dataset edge=2-0 does not match this run's 1-0"),
    ("instance.k=4", "datasets/eval.bin", "datasets/eval.bin",
     "eval tuples K=4 does not match this run's 3"),
    ("instance.d=3", "datasets/eval.bin", "datasets/eval.bin",
     "eval tuples d=3 does not match this run's 2"),
], ids=["edge-d", "edge-of-another-file", "eval-K", "eval-d"])
def test_dataset_of_another_run_is_one_line_error(workspace, capsys, override, rel,
                                                  target, expect):
    """An edge file holding another edge or d, or an eval file of another K or
    d, is refused as one line naming it, not trained on."""
    root, cfg_path = workspace
    assert main(["gen-data", "--config", cfg_path]) == 0
    run = _run(root, load_config(cfg_path))
    source = run
    if override is not None:
        assert main(["gen-data", "--config", cfg_path, "--override", override]) == 0
        source = _run(root, load_config(cfg_path, [override]))
    capsys.readouterr()
    (run / target).write_bytes((source / rel).read_bytes())
    assert main(["train-paired", "--config", cfg_path]) == 1
    assert capsys.readouterr().err == f"error: CliError: {run / target}: {expect}\n"
    assert not (run / "checkpoints/paired.ckpt").exists()


@pytest.mark.parametrize("files", [
    ("datasets/edge_1-0.bin", "datasets/edge_2-0.bin", "datasets/eval.bin"),
    ("datasets/eval.bin",),
], ids=["edges-and-eval", "eval-only"])
def test_datasets_of_a_run_with_another_config_are_refused(workspace, capsys, files):
    """Files of the same K, d and edges written by a run of another seed and
    size are refused by their header's config hash, as one line naming the
    first such file, before anything is trained or scored on them."""
    root, cfg_path = workspace
    overrides = (["instance.n_train=300"], ["run.seed=5", "instance.n_train=500"])
    cfgs = [load_config(cfg_path, ov) for ov in overrides]
    flags = [["--config", cfg_path, *(a for o in ov for a in ("--override", o))]
             for ov in overrides]
    for argv in flags:
        assert main(["gen-data", *argv]) == 0
    run, source = (_run(root, cfg) for cfg in cfgs)
    for rel in files:
        (run / rel).write_bytes((source / rel).read_bytes())
    capsys.readouterr()
    what = "eval tuples" if files[0].endswith("eval.bin") else "dataset"
    for stage in (["train-paired"], ["train-scratch"], ["eval"],
                  ["translate", "--src", "1", "--tgt", "2"]):
        assert main([*stage, *flags[0]]) == 1, stage
        assert capsys.readouterr().err == (
            f"error: CliError: {run / files[0]}: {what} config_hash={config_hash(cfgs[1])} "
            f"does not match this run's {config_hash(cfgs[0])}\n")
    assert not (run / "checkpoints/paired.ckpt").exists()
    assert not any((run / "reports").glob("*"))


def test_finetune_without_the_unpaired_term_never_calls_the_teacher(workspace, monkeypatch):
    """With train.lambda1=0 the finetune stage makes no teacher query and its
    log holds no unpaired rows, only the terms it computed."""
    root, cfg_path = workspace
    flags = ["--config", cfg_path, "--override", "train.lambda1=0"]
    for stage in ("gen-data", "train-paired"):
        assert main([stage, *flags]) == 0, stage
    teacher_calls, predict = [], router.predict_noise

    def spy(*args):
        teacher_calls.append(args)
        return predict(*args)

    monkeypatch.setattr(router, "predict_noise", spy)
    assert main(["finetune-direct", *flags]) == 0
    assert teacher_calls == []
    run = _run(root, load_config(cfg_path, ["train.lambda1=0"]))
    with open(run / "logs/finetune.csv", newline="") as fh:
        directions = {row["direction"] for row in csv.DictReader(fh)}
    assert directions and not any(d.startswith("unpaired:") for d in directions)
    assert "total" in directions and any(d.startswith("paired:") for d in directions)


def test_truncated_eval_tuples_is_one_line_error(workspace, capsys):
    root, cfg_path = workspace
    run = _run(root, load_config(cfg_path))
    assert main(["gen-data", "--config", cfg_path]) == 0
    capsys.readouterr()
    path = run / "datasets/eval.bin"
    path.write_bytes(path.read_bytes()[:-10])
    assert main(["eval", "--config", cfg_path]) == 1
    assert "runs past the end" in _one_line_error(capsys, path)


@pytest.mark.parametrize("stage, expect", [
    ("eval", "bytes where the header's blocks"),  # the header pass's size check
    ("train-paired", "runs past the end"),  # the block read of the file it loads
], ids=["eval", "train-paired"])
def test_truncated_edge_file_is_one_line_error(workspace, capsys, stage, expect):
    """A cut-short edge file is refused as one line naming it, by a stage that
    loads its arrays and by one that only checks its header."""
    root, cfg_path = workspace
    assert main(["gen-data", "--config", cfg_path]) == 0
    capsys.readouterr()
    path = _run(root, load_config(cfg_path)) / "datasets/edge_2-0.bin"
    path.write_bytes(path.read_bytes()[:-10])
    assert main([stage, "--config", cfg_path]) == 1
    assert expect in _one_line_error(capsys, path)


# what each stage loads the arrays of, in order
STAGE_LOADS = [
    (["train-paired"], ["edge_1-0.bin", "edge_2-0.bin"]),
    (["finetune-direct"], ["edge_1-0.bin", "edge_2-0.bin"]),
    (["train-scratch"], ["edge_1-0.bin", "edge_2-0.bin"]),
    (["translate", "--src", "1", "--tgt", "2"], ["eval.bin"]),
    (["eval"], ["eval.bin"]),
    (["eval", "--mode", "direct"], ["eval.bin"]),
    (["ablate", "lambda2"], ["edge_1-0.bin", "edge_2-0.bin", "eval.bin"]),
]


def test_each_stage_loads_only_the_dataset_arrays_it_reads(workspace, monkeypatch):
    """Training loads the K-1 edge files and not eval.bin; eval and translate
    load eval.bin and no edge file; ablate, which trains and scores, loads
    both."""
    root, cfg_path = workspace
    flags = ["--config", cfg_path]
    for ov in ("train.steps=20", "train.finetune_steps=10", "train.scratch_steps=10",
               "eval.n_eval=20"):
        flags += ["--override", ov]
    assert main(["gen-data", *flags]) == 0
    loaded = []
    for name in ("load_paired_dataset", "load_eval_tuples"):
        def spy(path, load=getattr(datagen, name)):
            loaded.append(Path(path).name)
            return load(path)
        monkeypatch.setattr(datagen, name, spy)
    for argv, expect in STAGE_LOADS:
        loaded.clear()
        assert main([*argv, *flags]) == 0, argv
        assert loaded == expect, argv


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


def _edit_json(**changes):
    """Replace keys of a JSON object file; a key `name__i` replaces entry i
    of the list under name."""
    def damage(text: str) -> str:
        data = json.loads(text)
        for key, value in changes.items():
            name, _, index = key.partition("__")
            if index:
                data[name][int(index)] = value
            else:
                data[name] = value
        return json.dumps(data)
    return damage


@pytest.mark.parametrize("damage", [
    _edit_json(maps=[]),
    _edit_json(maps=[[[1.0, 0.0], [0.0, 1.0]]]),
    _edit_json(maps__1=[[1.0, 0.0]]),
    _edit_json(maps__2=[[1.0], [0.0]]),
    _edit_json(maps__1=[[1.0, 0.0], [0.0, float("nan")]]),
    _edit_json(offsets="x"),
    _edit_json(offsets__1=[0.0, 0.0, 0.0]),
    _edit_json(offsets=[[0.0, 0.0], [0.0, 0.0]]),
    _edit_json(noise__1=-0.1),
    _edit_json(noise__1=float("nan")),
    _edit_json(noise__2=float("inf")),
    _edit_json(latent_dim=-1),
    _edit_json(latent_dim=0),
    _edit_json(latent_dim=1e308),
    _edit_json(latent_dim=2.0),
    _edit_json(latent_dim=True),
    _edit_json(latent_dim=3),
], ids=["no-maps", "one-map", "map-rows", "map-cols", "map-nan", "offsets-str",
        "offset-length", "offsets-too-few", "noise-negative", "noise-nan", "noise-inf",
        "latent-negative", "latent-zero", "latent-huge", "latent-float", "latent-bool",
        "latent-not-map-width"])
def test_invalid_instance_is_one_line_error(workspace, capsys, damage):
    """An instance.json that parses but cannot be a gaussian instance is
    refused as one ValueError line naming it, never a traceback or a run."""
    root, cfg_path = workspace
    assert main(["gen-data", "--config", cfg_path]) == 0
    capsys.readouterr()
    path = _run(root, load_config(cfg_path)) / "datasets/instance.json"
    path.write_text(damage(path.read_text()))
    assert main(["eval", "--config", cfg_path]) == 1
    assert "damaged file: ValueError" in _one_line_error(capsys, path)


@pytest.mark.parametrize("rel, damage, stage", [
    ("datasets/instance.json", _truncate, "eval"),
    ("datasets/instance.json", _drop("maps"), "eval"),
    ("manifest.json", _truncate, "gen-data"),
    ("manifest.json", _drop("artifacts"), "gen-data"),
    ("manifest.json", _edit_json(settings=[]), "gen-data"),
], ids=["instance-truncated", "instance-no-maps", "manifest-truncated",
        "manifest-no-artifacts", "manifest-settings-list"])
def test_damaged_json_is_one_line_error(workspace, capsys, rel, damage, stage):
    """A damaged JSON file of the run fails as one ValueError line naming it."""
    root, cfg_path = workspace
    assert main(["gen-data", "--config", cfg_path]) == 0
    capsys.readouterr()
    path = _run(root, load_config(cfg_path)) / rel
    path.write_text(damage(path.read_text()))
    assert main([stage, "--config", cfg_path]) == 1
    assert "damaged file" in _one_line_error(capsys, path)


def test_missing_instance_is_one_line_error(trained_run, tmp_path, monkeypatch, capsys):
    """A gaussian-affine run whose instance.json is gone is refused as one
    line, not scored against held-out targets in place of the oracle."""
    root, cfg_path = trained_run
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(tmp_path / "runs"))
    assert main(["gen-data", "--config", cfg_path]) == 0
    run = _run(tmp_path, load_config(cfg_path))
    path = run / "datasets/instance.json"
    path.unlink()
    capsys.readouterr()
    ckpt = _run(root, load_config(cfg_path)) / "checkpoints/paired.ckpt"
    assert main(["eval", "--config", cfg_path, "--checkpoint", str(ckpt)]) == 1
    assert capsys.readouterr().err == f"error: CliError: missing {path}; run gen-data first\n"
    assert not any((run / "reports").iterdir())


_MANIFEST_WRITER = """
import os, sys, time
from pathlib import Path
from diffrouter import cli
run, go, tag = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
cfg = cli.load_config(None)
while not os.path.exists(go):
    time.sleep(0.001)
for i in range(300):
    cli.update_manifest(run, cfg, {f"{tag}-{i}": f"reports/{tag}-{i}.csv"}, {tag: {"i": i}})
"""


def test_two_stages_keep_each_others_manifest_entries(tmp_path):
    """Two processes update one run's manifest at once, each with its own
    artifact entries: every entry of both survives, and no call fails."""
    run, go = tmp_path / "run", tmp_path / "go"
    (run / "reports").mkdir(parents=True)
    for tag in ("a", "b"):
        for i in range(300):
            (run / f"reports/{tag}-{i}.csv").touch()
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    writers = [subprocess.Popen([sys.executable, "-c", _MANIFEST_WRITER, str(run), str(go),
                                 tag], env=env, stderr=subprocess.PIPE, text=True)
               for tag in ("a", "b")]
    try:
        go.touch()
        deadline = time.monotonic() + 60.0
        while any(w.poll() is None for w in writers) and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        for w in writers:
            if w.poll() is None:
                w.kill()
        errors = [w.communicate(timeout=10)[1] for w in writers]
    assert [w.returncode for w in writers] == [0, 0], errors
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["artifacts"] == {f"{tag}-{i}": f"reports/{tag}-{i}.csv"
                                     for tag in ("a", "b") for i in range(300)}
    assert manifest["settings"] == {"a": {"i": 299}, "b": {"i": 299}}


# the damage sweep: a run's files, each damaged in turn and read by a stage
SWEEP_FLAGS = ["--override", "train.steps=6", "--override", "eval.n_eval=10"]


@pytest.fixture(scope="module")
def swept_run(tmp_path_factory):
    """The root, run directory and stage flags of a tiny run of gen-data and
    train-paired."""
    root = tmp_path_factory.mktemp("sweep")
    cfg_path = root / "tiny.ini"
    cfg_path.write_text(TINY)
    flags = ["--config", str(cfg_path), *SWEEP_FLAGS]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("DIFFROUTER_OUTPUT_ROOT", str(root / "runs"))
        for stage in ("gen-data", "train-paired"):
            assert main([stage, *flags]) == 0, stage
    return root, _run(root, load_config(str(cfg_path), SWEEP_FLAGS[1::2])), flags


def _header_damages(blob: bytes):
    """(key, bytes) of a block file with each header value set to a bad one in
    turn, then (None, bytes) of the file cut short at a few offsets."""
    sep = blob.index(b"\n---\n")
    lines = blob[:sep].split(b"\n")
    for i, line in enumerate(lines[1:], start=1):
        key = line.partition(b"=")[0]
        for bad in (b"", b"abc", b"-1", b"9" * 30):
            yield key.decode(), b"\n".join([*lines[:i], key + b"=" + bad, *lines[i + 1:]]) \
                + blob[sep:]
    for cut in (0, 5, sep, sep + 7, len(blob) // 2, len(blob) - 1):
        yield None, blob[:cut]


def _json_damages(text: bytes):
    """(key, bytes) of a JSON object with each top-level key, and "settings",
    set to a bad value in turn, then (None, bytes) of the file cut short."""
    data = json.loads(text)
    for key in sorted({*data, "settings"}):
        for bad in (None, [], "abc", -1, 10**30, 1e308, {"x": 1}):
            yield key, json.dumps({**data, key: bad}).encode()
    for cut in (0, 1, len(text) // 2):
        yield None, text[:cut]


@pytest.mark.parametrize("rel, stage, unread", [
    ("checkpoints/paired.ckpt", "eval", {"config_hash"}),
    ("datasets/edge_1-0.bin", "train-paired", {"seed", "family"}),
    ("datasets/eval.bin", "eval", {"seed", "family"}),
    ("manifest.json", "eval", {"created", "updated", "tool_version", "config_hash"}),
], ids=["checkpoint", "edge", "eval-tuples", "manifest"])
def test_every_damage_of_a_run_file_is_one_line_error(swept_run, monkeypatch, capsys,
                                                      rel, stage, unread):
    """Each damage of a file is refused by the stage that reads it as exit 1
    and one error line naming the file, never a traceback. Only a value
    nothing reads (`unread`) may pass with exit 0."""
    root, run, flags = swept_run
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(root / "runs"))
    path = run / rel
    good = path.read_bytes()
    damages = _json_damages(good) if rel.endswith(".json") else _header_damages(good)
    wrong = []
    capsys.readouterr()
    try:
        for key, bad in damages:
            path.write_bytes(bad)
            code, err = main([stage, *flags]), capsys.readouterr().err
            refused = (code == 1 and err.startswith("error: ") and err.count("\n") == 1
                       and str(path) in err)
            if not (refused or key in unread and code == 0 and not err):
                wrong.append((key, bad[-60:], code, err))
    finally:
        path.write_bytes(good)
    assert not wrong
