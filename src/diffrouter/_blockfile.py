"""The one atomic file writer, and the block file format of checkpoints and
datasets. Every file a run leaves behind reaches disk through `write_atomic`,
so a crash mid-write leaves the old file, never a truncated one.

A block file is a magic line, one "key=value" line per header entry, a "---"
line, then per array a little-endian uint32 element count followed by the
values as little-endian float32. What the header keys mean and how many
blocks follow is up to each file kind; this module only writes and reads the
frame.
"""

import os
import struct
from contextlib import contextmanager

import numpy as np

_SEP = b"\n---\n"


def write_atomic(path, parts) -> None:
    """Write the str (as UTF-8) and bytes-like `parts`, in order, to a temp
    file of this call's own, `<path>.<pid>-<random hex>.tmp`, then os.replace
    it over `path`. Two writers of one path never share a temp file, so a
    reader sees one writer's bytes whole. If a part, the write or the rename
    fails, the temp file is removed and `path` keeps its old bytes."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}-{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")  # "x": never another call's file; the mode follows the umask
    try:
        with fh:
            for part in parts:
                fh.write(part.encode("utf-8") if isinstance(part, str) else part)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_blocks(path, magic: str, header: dict, arrays) -> None:
    """Write a block file with `write_atomic`. Header lines keep the dict's order."""
    write_atomic(path, _frame(magic, header, arrays))


def _frame(magic: str, header: dict, arrays):
    yield "\n".join([magic] + [f"{k}={v}" for k, v in header.items()] + ["---"]) + "\n"
    for arr in arrays:
        flat = np.ascontiguousarray(arr, dtype="<f4").reshape(-1)
        yield struct.pack("<I", flat.size)
        yield flat  # its buffer, not a tobytes() copy


def read_blocks(path, magic: str) -> tuple[dict, list[np.ndarray]]:
    """(header of str values, arrays) of a file written by write_blocks.

    The arrays are read-only little-endian float32 views of the file's bytes;
    a caller that needs another dtype casts them. Raises a one-line
    ValueError naming `path` if the magic is wrong, the separator is missing,
    a block runs past the end of the file, or bytes too few for a block count
    trail the last block."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header, offset = _parse_header(path, magic, blob)
    arrays = []
    while offset < len(blob):
        if len(blob) - offset < 4:
            raise ValueError(f"{path}: {len(blob) - offset} trailing bytes "
                             f"after block {len(arrays)}")
        (count,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if offset + 4 * count > len(blob):
            raise ValueError(f"{path}: block {len(arrays)} of {count} values runs "
                             f"past the end of the file")
        arrays.append(np.frombuffer(blob, dtype="<f4", count=count, offset=offset))
        offset += 4 * count
    return header, arrays


def read_header(path, magic: str) -> tuple[dict, int]:
    """(header, offset of the first block) of a block file, read without its
    blocks; raises like read_blocks."""
    with open(path, "rb") as fh:
        head = b""
        while _SEP not in head and (chunk := fh.read(4096)):
            head += chunk
    return _parse_header(path, magic, head)


def _parse_header(path, magic: str, blob: bytes) -> tuple[dict, int]:
    """(header, offset of the first block) of the bytes that open a block file."""
    if not blob.startswith(magic.encode("utf-8") + b"\n"):
        raise ValueError(f"{path} is not a {magic} file")
    sep = blob.find(_SEP)
    if sep < 0:
        raise ValueError(f"{path}: no header separator; the file is cut short")
    lines = blob[:sep].decode("utf-8", errors="replace").split("\n")[1:]
    return dict(line.partition("=")[::2] for line in lines), sep + len(_SEP)


def check_sizes(path, arrays, sizes) -> None:
    """Raise a one-line ValueError naming `path` unless the blocks hold
    exactly `sizes` values, in order."""
    got = [a.size for a in arrays]
    if got != list(sizes):
        raise ValueError(f"{path}: block sizes {got} do not match the header's "
                         f"{list(sizes)}; the file is cut short or corrupt")


def check_file_size(path, offset: int, sizes) -> None:
    """Raise a one-line ValueError naming `path` unless the file is exactly as
    long as a header of `offset` bytes followed by blocks of `sizes` values:
    one stat, so a file can be refused as cut short without reading it."""
    want = offset + sum(4 + 4 * size for size in sizes)
    have = os.stat(path).st_size
    if have != want:
        raise ValueError(f"{path}: {have} bytes where the header's blocks {list(sizes)} "
                         f"take {want}; the file is cut short or corrupt")


@contextmanager
def header_fields(path):
    """Turn a missing or non-numeric header field, met while parsing the
    header inside this block, into a one-line ValueError naming `path`."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header field {exc}") from None
