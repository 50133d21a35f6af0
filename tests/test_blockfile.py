"""The header-plus-blocks file format: its frame errors, atomic writes, and
byte-for-byte stability of the checkpoint and dataset files it carries; and
the one atomic writer that every file of a run goes through."""

import ast
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

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
                                 n_timesteps=10)
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


def _first_then_fail(first):
    yield first
    raise RuntimeError("the writer died after its first part")


@pytest.mark.parametrize("fail", ["parts", "replace"])
def test_failed_write_keeps_the_old_bytes(tmp_path, monkeypatch, fail):
    """A write whose parts raise after the first one, or whose os.replace
    fails, leaves an existing manifest and block file as they were, and no
    temp file behind."""
    manifest, blocks = tmp_path / "manifest.json", tmp_path / "f.bin"
    _blockfile.write_atomic(manifest, ['{"artifacts": {}}', "\n"])
    _blockfile.write_blocks(blocks, MAGIC, {"k": 1}, [np.arange(3.0), np.ones(2)])
    before = {path: path.read_bytes() for path in (manifest, blocks)}
    assert before[manifest] == b'{"artifacts": {}}\n'
    if fail == "parts":
        with pytest.raises(RuntimeError, match="first part"):
            _blockfile.write_atomic(manifest, _first_then_fail('{"artifacts": {"x"'))
        with pytest.raises(RuntimeError, match="first part"):
            _blockfile.write_blocks(blocks, MAGIC, {"k": 2}, _first_then_fail(np.zeros(5)))
    else:
        def refuse(src, dst):
            raise OSError("os.replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="refused"):
            _blockfile.write_atomic(manifest, ['{"artifacts": {"x": "y"}}\n'])
        with pytest.raises(OSError, match="refused"):
            _blockfile.write_blocks(blocks, MAGIC, {"k": 2}, [np.zeros(5)])
    assert {path: path.read_bytes() for path in (manifest, blocks)} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin", "manifest.json"]


_WRITER = """
import os, sys, time
from diffrouter import _blockfile
path, go, fill = sys.argv[1], sys.argv[2], sys.argv[3].encode()
while not os.path.exists(go):
    time.sleep(0.001)
for _ in range(200):
    _blockfile.write_atomic(path, [fill * 4096] * 64)
"""


def test_two_writers_never_tear_a_file(tmp_path):
    """Two processes rewrite one path at once while a third reads it: every
    read sees one writer's 256 KB whole, no call fails, and no temp file is
    left behind."""
    path, go = tmp_path / "f.bin", tmp_path / "go"
    _blockfile.write_atomic(path, [b"A" * 262144])
    env = {**os.environ, "PYTHONPATH": str(Path(_blockfile.__file__).parents[1])}
    writers = [subprocess.Popen([sys.executable, "-c", _WRITER, str(path), str(go), fill],
                                env=env, stderr=subprocess.PIPE, text=True)
               for fill in ("A", "B")]
    whole = {b"A" * 262144, b"B" * 262144}
    reads = torn = 0
    try:
        go.touch()
        deadline = time.monotonic() + 60.0
        while any(w.poll() is None for w in writers) and time.monotonic() < deadline:
            reads += 1
            torn += path.read_bytes() not in whole
    finally:
        for w in writers:
            if w.poll() is None:
                w.kill()
        errors = [w.communicate(timeout=10)[1] for w in writers]
    assert [w.returncode for w in writers] == [0, 0], errors
    assert reads and not torn
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin", "go"]


def _file_writes(tree) -> list[int]:
    """Lines of the calls in `tree` that write a file, outside the body of
    `write_atomic`: write_text, write_bytes, open (builtin, or a path's .open)
    with a mode that is not a read-only constant, and os.open with flags,
    by position or keyword, other than exactly os.O_RDONLY."""
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "write_atomic"
              for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open" and ast.unparse(node.func) == "os.open":
            flags = [kw.value for kw in node.keywords if kw.arg == "flags"] or node.args[1:2]
            if not (flags and ast.unparse(flags[0]) == "os.O_RDONLY"):
                lines.append(node.lineno)
        elif name == "open":
            at = 1 if isinstance(node.func, ast.Name) else 0  # open(path, mode), path.open(mode)
            mode = ([kw.value for kw in node.keywords if kw.arg == "mode"]
                    or node.args[at:at + 1] or [ast.Constant("r")])[0]
            if not (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")):
                lines.append(node.lineno)
    return lines


def test_only_write_atomic_writes_files():
    """Every file the library writes goes through `_blockfile.write_atomic`."""
    modules = sorted(Path(_blockfile.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    probe = ("open(p, 'wb'); p.open('a'); open(p, mode=m)\n"
             "p.write_text(s); open(p); p.open(); open(p, 'rb')\n"
             "os.open(p, os.O_RDONLY); os.open(path=p, flags=os.O_RDONLY)\n"
             "os.open(p, os.O_WRONLY); os.open(path=p, flags=os.O_WRONLY | os.O_CREAT)")
    assert _file_writes(ast.parse(probe)) == [1, 1, 1, 2, 4, 4]  # the scan finds each kind
    writes = [f"{path.name}:{line}" for path in modules
              for line in _file_writes(ast.parse(path.read_text(encoding="utf-8")))]
    assert not writes, writes


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


@pytest.mark.parametrize("cut", [lambda b: b[:-1], lambda b: b + b"\x00\x00"],
                         ids=["cut-short", "trailing-bytes"])
def test_header_readers_check_the_file_length_by_stat(tmp_path, cut):
    """The header readers return what the run checks without reading a block;
    a file of another length than its header implies is refused only with
    the size check, as one line naming it."""
    _fixed_datasets(tmp_path)
    edge, evals = tmp_path / "edge_1-0.bin", tmp_path / "eval.bin"
    header, pair, d = datagen.read_paired_header(edge)
    assert (header["config_hash"], pair, d) == ("0123abcd", (1, 0), 2)
    header, K, d = datagen.read_eval_header(evals)
    assert (header["config_hash"], K, d) == ("0123abcd", 3, 2)
    for path, read in ((edge, datagen.read_paired_header), (evals, datagen.read_eval_header)):
        path.write_bytes(cut(path.read_bytes()))
        assert read(path, check_size=False)[0]["config_hash"] == "0123abcd"
        with pytest.raises(ValueError, match="the file is cut short or corrupt") as info:
            read(path)
        assert str(path) in str(info.value) and "\n" not in str(info.value)
