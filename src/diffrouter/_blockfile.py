"""The header-plus-blocks file format shared by checkpoints and datasets.

A file is a magic line, one "key=value" line per header entry, a "---" line,
then per array a little-endian uint32 element count followed by the values
as little-endian float32. What the header keys mean and how many blocks
follow is up to each file kind; this module only writes and reads the frame.
"""

import os
import struct
from contextlib import contextmanager

import numpy as np

_SEP = b"\n---\n"


def write_blocks(path, magic: str, header: dict, arrays) -> None:
    """Write atomically: to a temp file beside `path`, then os.replace.
    Header lines keep the dict's order."""
    path = os.fspath(path)
    lines = [magic] + [f"{k}={v}" for k, v in header.items()] + ["---"]
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))
            for arr in arrays:
                flat = np.ascontiguousarray(arr, dtype="<f4").reshape(-1)
                fh.write(struct.pack("<I", flat.size))
                fh.write(flat.tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed before the rename
            os.remove(tmp)


def read_blocks(path, magic: str) -> tuple[dict, list[np.ndarray]]:
    """(header of str values, arrays) of a file written by write_blocks.

    The arrays are read-only little-endian float32 views of the file's bytes;
    callers cast them. Raises a one-line ValueError naming `path` if the
    magic is wrong, the separator is missing, a block runs past the end of
    the file, or bytes too few for a block count trail the last block."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(magic.encode("utf-8") + b"\n"):
        raise ValueError(f"{path} is not a {magic} file")
    sep = blob.find(_SEP)
    if sep < 0:
        raise ValueError(f"{path}: no header separator; the file is cut short")
    header = {}
    for line in blob[:sep].decode("utf-8", errors="replace").split("\n")[1:]:
        key, _, val = line.partition("=")
        header[key] = val
    offset = sep + len(_SEP)
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


def check_sizes(path, arrays, sizes) -> None:
    """Raise a one-line ValueError naming `path` unless the blocks hold
    exactly `sizes` values, in order."""
    got = [a.size for a in arrays]
    if got != list(sizes):
        raise ValueError(f"{path}: block sizes {got} do not match the header's "
                         f"{list(sizes)}; the file is cut short or corrupt")


@contextmanager
def header_fields(path):
    """Turn a missing or non-numeric header field, met while parsing the
    header inside this block, into a one-line ValueError naming `path`."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header field {exc}") from None
