"""The header-plus-blocks file format: its frame errors, atomic writes, and
byte-for-byte stability of the checkpoint and dataset files it carries."""

import hashlib

import numpy as np
import pytest

from diffrouter import _blockfile, datagen, router
from diffrouter.netcore import DenseNet

MAGIC = "test-blocks"


def _fixed_checkpoint(path):
    """A tiny router checkpoint with hand-set (RNG- and BLAS-free) values."""
    widths = [12, 3, 2]  # d=2, time_dim=4, emb_dim=2
    weights = [np.arange(n_out * n_in).reshape(n_out, n_in) / 7.0 - 1.0
               for n_in, n_out in zip(widths[:-1], widths[1:])]
    biases = [np.arange(n_out) / 3.0 for n_out in widths[1:]]
    params = router.RouterParams(backbone=DenseNet(weights=weights, biases=biases),
                                 domain_emb=np.arange(6.0).reshape(3, 2) / 11.0,
                                 data_dim=2, n_domains=3, n_timesteps=10, time_dim=4)
    router.save_checkpoint(path, params, extra_header={"config_hash": "0123abcd"})


def _fixed_datasets(directory):
    meta = {"family": "gaussian-affine", "seed": 3, "config_hash": "0123abcd"}
    ds = datagen.PairedDataset(edge=(1, 0), x_a=np.arange(10.0).reshape(5, 2) / 3.0,
                               x_b=-np.arange(10.0).reshape(5, 2) / 9.0,
                               latent_indices=np.arange(5) + 100)
    datagen.save_paired_dataset(directory / "edge_1-0.bin", ds, meta)
    tuples = datagen.EvalTuples(samples=np.arange(24.0).reshape(4, 3, 2) / 13.0,
                                latent_indices=np.arange(4) + 500)
    datagen.save_eval_tuples(directory / "eval.bin", tuples, meta)


# sha256 of the files the separate checkpoint and dataset writers wrote for
# these inputs before the two were merged into one
FIXED_SHA256 = {
    "x.ckpt": "64117b96736b22f4aec8c1744ab8526ee80bf1ccbfdf13c7144dc37ef19cf62f",
    "edge_1-0.bin": "edf25b89e35fbd42928328efd56a4ec4796029d2ebd9c7ab5a693ff2863818ef",
    "eval.bin": "894fc83808fbe87022f230e581032d9863cee98bf2c8f5a805a16fa56b1fc7dc",
}


def test_files_are_byte_identical_to_earlier_writers(tmp_path):
    _fixed_checkpoint(tmp_path / "x.ckpt")
    _fixed_datasets(tmp_path)
    for name, digest in FIXED_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_write_blocks_layout_and_order(tmp_path):
    path = tmp_path / "f.bin"
    _blockfile.write_blocks(path, MAGIC, {"b": 2, "a": "x"}, [np.array([1.5, -2.0])])
    blob = path.read_bytes()
    assert blob.startswith(b"test-blocks\nb=2\na=x\n---\n\x02\x00\x00\x00")
    assert blob.endswith(np.array([1.5, -2.0], dtype="<f4").tobytes())
    header, arrays = _blockfile.read_blocks(path, MAGIC)
    assert header == {"b": "2", "a": "x"}
    assert arrays[0].dtype == np.dtype("<f4") and arrays[0].tolist() == [1.5, -2.0]


def test_write_blocks_replaces_atomically(tmp_path):
    path = tmp_path / "f.bin"
    _blockfile.write_blocks(path, MAGIC, {}, [np.zeros(3)])
    _blockfile.write_blocks(path, MAGIC, {}, [np.ones(2)])
    assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]
    assert _blockfile.read_blocks(path, MAGIC)[1][0].tolist() == [1.0, 1.0]
    with pytest.raises(TypeError):
        _blockfile.write_blocks(path, MAGIC, {}, [np.zeros(2), object()])
    assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]
    assert _blockfile.read_blocks(path, MAGIC)[1][0].tolist() == [1.0, 1.0]


@pytest.mark.parametrize("cut, expect", [
    (lambda b: b"other-magic" + b[len(MAGIC):], "not a test-blocks file"),
    (lambda b: b[:len(MAGIC) + 5], "no header separator"),
    (lambda b: b[:-1], "runs past the end"),
    (lambda b: b + b"\x00\x00", "2 trailing bytes"),
])
def test_read_blocks_frame_errors(tmp_path, cut, expect):
    path = tmp_path / "f.bin"
    _blockfile.write_blocks(path, MAGIC, {"k": 1}, [np.zeros(3), np.ones(2)])
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValueError, match=expect) as info:
        _blockfile.read_blocks(path, MAGIC)
    msg = str(info.value)
    assert str(path) in msg and "\n" not in msg


def test_loaders_check_blocks_against_header(tmp_path):
    _fixed_datasets(tmp_path)
    path = tmp_path / "edge_1-0.bin"
    header, arrays = _blockfile.read_blocks(path, datagen.DATASET_MAGIC)
    _blockfile.write_blocks(path, datagen.DATASET_MAGIC, header, arrays[:2])
    with pytest.raises(ValueError, match="block sizes"):
        datagen.load_paired_dataset(path)
    with pytest.raises(ValueError, match="malformed header field 'm'"):
        datagen.load_eval_tuples(path)
