import json

import numpy as np
import pytest

from diffrouter import cli
from diffrouter.cli import (CliError, child_seed, config_hash, load_config,
                            main, run_dir)

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
    p.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(CliError, match="unknown config section"):
        load_config(str(p))


def test_override_parsing():
    cfg = load_config(None, ["schedule.t=25", "run.seed=9"])
    assert cfg.T == 25 and cfg.seed == 9
    with pytest.raises(CliError):
        load_config(None, ["notdotted"])


def test_validation_errors():
    with pytest.raises(CliError):
        load_config(None, ["instance.topology=ring"])
    with pytest.raises(CliError):
        load_config(None, ["instance.k=1"])
    with pytest.raises(CliError):
        load_config(None, ["schedule.profile=weird"])
    for key in ("train.finetune_steps", "train.scratch_steps", "train.log_window",
                "eval.n_eval", "eval.projections"):
        with pytest.raises(CliError, match="must be positive"):
            load_config(None, [f"{key}=0"])


def test_config_hash_properties(tmp_path):
    a = load_config(None, ["schedule.t=25", "run.seed=9"])
    b = load_config(None, ["run.seed=9", "schedule.t=25"])
    assert config_hash(a) == config_hash(b)
    # the output directory does not change a run's identity
    c = load_config(None, ["schedule.t=25", "run.seed=9", "output.dir=elsewhere"])
    assert config_hash(a) == config_hash(c)
    d = load_config(None, ["schedule.t=26", "run.seed=9"])
    assert config_hash(a) != config_hash(d)


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
    """The bridge variant trains paired and refuses finetuning."""
    root, cfg_path = workspace
    ov = ["--override", "schedule.variant=bridge"]
    assert main(["gen-data", "--config", cfg_path] + ov) == 0
    assert main(["train-paired", "--config", cfg_path] + ov) == 0
    assert main(["finetune-direct", "--config", cfg_path] + ov) == 1


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


@pytest.mark.parametrize("damage, expect", [
    ("mid-block", "runs past the end"),
    ("block-boundary", "block sizes"),
    ("version-99", "version 99"),
    ("dataset-file", "not a diffrouter-checkpoint file"),
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
    }[damage]()
    assert damaged != blob
    path = tmp_path / "damaged.ckpt"
    path.write_bytes(damaged)
    assert main(["translate", "--config", cfg_path, "--src", "1", "--tgt", "2",
                 "--checkpoint", str(path)]) == 1
    assert expect in _one_line_error(capsys, path)


def test_truncated_eval_tuples_is_one_line_error(workspace, capsys):
    root, cfg_path = workspace
    run = _run(root, load_config(cfg_path))
    assert main(["gen-data", "--config", cfg_path]) == 0
    capsys.readouterr()
    path = run / "datasets/eval.bin"
    path.write_bytes(path.read_bytes()[:-10])
    assert main(["eval", "--config", cfg_path]) == 1
    assert "runs past the end" in _one_line_error(capsys, path)
