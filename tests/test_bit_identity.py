"""Bit-identity guards for code that is restructured without meaning to change
the numerics: the flat parameter vector with its one AdamW update, the batched
glyph views and the time-feature table.

The dataset pins were produced by the per-row implementation the batched
glyph views replaced. The checkpoint and loss-log pins come from training in
float32 over the float64 master vector, with each paired step one pass over
both directions; both changed the trained weights on purpose, and two fresh
runs gave the same bytes before they were pinned. All were
made on x86-64 with numpy 2.4 and its bundled OpenBLAS. Another BLAS build may
round the dense layers differently; there, regenerate the pins from a checkout
of the pinning code before trusting a difference.
"""

import hashlib

import numpy as np
import pytest
from scipy import ndimage

from diffrouter import datagen, router
from diffrouter.cli import main
from diffrouter.datagen import GLYPH_DIM, GLYPH_SIDE
from diffrouter.router import freeze
from diffrouter.train import TrainConfig, train

STAGES = (["gen-data"], ["train-paired"], ["finetune-direct"], ["train-scratch"])

COMMON = {"instance.topology": "star", "instance.k": "3", "schedule.t": "10",
          "network.hidden": "32,32", "train.batch_size": "32", "train.steps": "60",
          "train.finetune_steps": "40", "train.scratch_steps": "40",
          "train.warmup_steps": "10", "train.log_window": "20",
          "train.n_refine": "2", "run.seed": "3"}
RUNS = {
    "gaussian-star": {**COMMON, "instance.family": "gaussian-affine", "instance.d": "2",
                      "instance.n_train": "400", "instance.n_eval_tuples": "100"},
    # 2 x 600 + 100 glyph rows: the edge views cross one GLYPH_CHUNK boundary
    "glyph-star": {**COMMON, "instance.family": "glyphs", "instance.d": "64",
                   "instance.n_train": "600", "instance.n_eval_tuples": "100"},
}

PINS = {
    "gaussian-star": {
        "checkpoints/direct.ckpt":
            "1b9191feb6a0c691e030d595f1bbadfbce381693420044ecb679e1804b4e5958",
        "checkpoints/paired.ckpt":
            "900693770e3e072a9ccceef9bd0f8aab24ccc2873851dfb0c1363ebe3f9fc835",
        "checkpoints/scratch.ckpt":
            "0cba139f304843f5351c96a5345c31598aacb1cdc6575adb7236bcb69a9ae058",
        "datasets/edge_1-0.bin":
            "9909778e0630eb33a429dc6a2ab72904f77d37d581db2d6bd81c57cb7ed443d7",
        "datasets/edge_2-0.bin":
            "f241ec3c0100e808debd14e09f84ea68b84b507c55fdcb450c04303a9ea17262",
        "datasets/eval.bin":
            "f8a957d3c1b7a1c77ce16a7525474393fa62595d8a5185681c121465753573db",
        "logs/finetune.csv":
            "f7a4214f91b777039648b3a7b5526b3b08115313662fee5030021b0b65f5311b",
        "logs/from-scratch.csv":
            "60497ca959b6235be6cc07566a6bee88c30f4c49b05d804e7643c9e51a70ced0",
        "logs/paired-only.csv":
            "87cf1d84c94f37a432b4d9fe512a7c2b5e6cd62060f7f7fd5772f1f0ae8cc867",
    },
    "glyph-star": {
        "checkpoints/direct.ckpt":
            "b203a41ffa4763fcdc21fcb65e1e1a2676d189841390a6cbdb58d4b0cb4ce18d",
        "checkpoints/paired.ckpt":
            "552480b8847b7b1deac918cc06729346e4e9c49faf9978cdcb778d74806eaccb",
        "checkpoints/scratch.ckpt":
            "4e07d0aa8ffb49f1c4c2f0e5f4de1ef3c2c383750790d05c99adf2484d488ec5",
        "datasets/edge_1-0.bin":
            "4922318caaf612e283163772907bbbc2b24a398a7ffbf08788d468d589fbceab",
        "datasets/edge_2-0.bin":
            "176b49d4ebae40d9eee90e56443255fff3dd45de14b0bdcefabfde76fe3508d3",
        "datasets/eval.bin":
            "10099570ab893c872c6958088a8483d9e9696187c3b17f34b40c72f82e413fbd",
        "logs/finetune.csv":
            "36a08f9775de4d510ee6712bb2359c7f6e9cb21729f41dea7f76794efafe2cd0",
        "logs/from-scratch.csv":
            "c784b4af70d45fddc9e6fed842e0df2081223cd20673e91feafdc93f7e28bcfb",
        "logs/paired-only.csv":
            "3e4b00307a6531579de811069cc5b3134e1525649ae7d440269319cfd4f13c5f",
    },
}


def tiny_run_digests(name: str, root) -> dict[str, str]:
    """sha256 of every dataset, checkpoint and log of a tiny run under root."""
    flags = [a for k, v in RUNS[name].items() for a in ("--override", f"{k}={v}")]
    for stage in STAGES:
        assert main(stage + flags) == 0
    (run,) = root.iterdir()
    return {p.relative_to(run).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run.rglob("*")) if p.suffix in (".bin", ".ckpt", ".csv")}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_tiny_pipeline_artifacts_match_pins(name, tmp_path, monkeypatch):
    monkeypatch.setenv("DIFFROUTER_OUTPUT_ROOT", str(tmp_path))
    assert tiny_run_digests(name, tmp_path) == PINS[name]


# ---------------------------------------------------------------------------
# batched glyph views against the per-row construction

def _rotate_shrink_one(img, angle_deg):
    ang = np.deg2rad(angle_deg)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]]) / 0.8
    center = (GLYPH_SIDE - 1) / 2.0
    offset = center - rot @ np.array([center, center])
    return ndimage.affine_transform(img, rot, offset=offset, order=1, mode="constant")


def _glyph_domains_per_row(z, protos, K, rng):
    """One image at a time, with ndimage.sobel and a 2-D affine_transform."""
    out = np.empty((z.shape[0], K, GLYPH_DIM))
    for i in range(z.shape[0]):
        proto = protos[int(z[i, 0])]
        img = np.roll(np.roll(proto, int(z[i, 1]), axis=0), int(z[i, 2]), axis=1)
        img = img * z[i, 3]
        gx = ndimage.sobel(img, axis=0, mode="constant")
        gy = ndimage.sobel(img, axis=1, mode="constant")
        views = [img, np.hypot(gx, gy) / 4.0, _rotate_shrink_one(img, 20.0)]
        for k in range(K):
            base = views[k] if k < 3 else _rotate_shrink_one(img, -20.0)
            out[i, k, :] = base.reshape(-1) + rng.normal(0.0, 0.02, size=GLYPH_DIM)
    return out


@pytest.mark.parametrize("K", [3, 5])
@pytest.mark.parametrize("n", [1, datagen.GLYPH_CHUNK + 177])
def test_glyph_domains_match_per_row_reference(K, n):
    protos = datagen._glyph_prototypes()
    z = datagen._glyph_latent(n, np.random.default_rng(n))
    rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
    batched = datagen._glyph_domains(z, protos, K, rng_a)
    assert batched.tobytes() == _glyph_domains_per_row(z, protos, K, rng_b).tobytes()
    assert rng_a.random() == rng_b.random()  # the same number of draws


# ---------------------------------------------------------------------------
# the flat parameter vector

def test_trained_params_are_views_of_one_vector(small_star, sch100):
    topo, datasets, _, _ = small_star
    cfg = TrainConfig(steps=5, batch_size=16, hidden=(8, 8), warmup_steps=2, log_window=5)
    params = train(cfg, topo, datasets, sch100).params
    arrays = params.param_list()
    assert params.flat.dtype == np.float64
    assert params.flat.size == sum(a.size for a in arrays)
    assert all(np.shares_memory(a, params.flat) for a in arrays)
    frozen = freeze(params)
    assert not np.shares_memory(frozen.flat, params.flat)
    assert all(np.shares_memory(a, frozen.flat) for a in frozen.param_list())
    before = frozen.flat.copy()
    params.flat += 1.0
    assert np.array_equal(frozen.flat, before)


def test_time_table_matches_time_features_bitwise():
    for T, width in ((10, 16), (100, 16), (1000, 8)):
        table = router.time_table(T, width)
        assert table.shape == (T + 1, width) and not table.flags.writeable
        for t in range(T + 1):
            assert np.array_equal(table[t], router.time_features(t, T, width))
        ts = np.random.default_rng(T).integers(0, T + 1, size=64)
        assert np.array_equal(table[ts], router.time_features(ts, T, width))


@pytest.mark.parametrize("t", [-1, 101, np.array([3, -1]), np.array([100, 101]), 2.0])
def test_backbone_input_rejects_steps_outside_schedule(rng, t):
    params = router.init_router(2, 3, 100, [8], rng)
    x = rng.standard_normal((2, 2))
    with pytest.raises(ValueError, match="time steps"):
        router.backbone_input(params, x, t, x, 1, 0)
