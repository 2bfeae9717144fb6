"""The package's one artifact I/O layer: atomic file replacement, CSV
writing and the binary containers' header.

Every artifact is written to a temporary sibling and moved onto its path
only when the write completed, so a stage that fails or is interrupted
leaves the previous file or none, never a prefix. There is no fsync: the
guarded failure is a killed or failing stage, not a power loss.

Containers start with a 4-byte magic, a u16 format version and a u16 kind
or flags field. All multi-byte fields are little-endian. Readers track
their byte offset so format errors can name the exact position that
failed.
"""

from __future__ import annotations

import csv
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import FormatError


@contextmanager
def artifact_file(path, mode: str = "w"):
    """Open a temporary sibling of path for writing ("w" text, "wb"
    binary) and move it onto path when the block exits cleanly; on any
    exception it is removed and path is left as it was. Text is written
    with newline="", so line endings are exactly what the caller wrote."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header: list[str], rows: Iterable) -> None:
    """One CSV artifact: the header, then each row as it is drawn from
    rows, so a generator is never held as a whole."""
    with artifact_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_container(path, magic: bytes, version: int) -> tuple["ByteReader", int]:
    """A whole container file with its header checked: the reader,
    positioned after the header, and the kind or flags field."""
    reader = ByteReader(Path(path).read_bytes())
    reader.expect_magic(magic)
    at = reader.offset
    found = reader.read_u16("version")
    if found != version:
        raise FormatError(f"unsupported format version {found}, expected {version}", offset=at)
    return reader, reader.read_u16("kind or flags")


class ByteReader:
    """Sequential reader over an in-memory buffer with offset tracking."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def read_bytes(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise FormatError(f"truncated while reading {what}", offset=self.offset)
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def read_u16(self, what: str) -> int:
        return struct.unpack("<H", self.read_bytes(2, what))[0]

    def read_u32(self, what: str) -> int:
        return struct.unpack("<I", self.read_bytes(4, what))[0]

    def read_f64_array(self, count: int, what: str) -> np.ndarray:
        raw = self.read_bytes(8 * count, what)
        return np.frombuffer(raw, dtype="<f8", count=count).astype(np.float64)

    def read_u32_array(self, count: int, what: str) -> np.ndarray:
        raw = self.read_bytes(4 * count, what)
        return np.frombuffer(raw, dtype="<u4", count=count).astype(np.int64)

    def expect_magic(self, magic: bytes) -> None:
        at = self.offset
        got = self.read_bytes(len(magic), "magic")
        if got != magic:
            raise FormatError(f"bad magic {got!r}, expected {magic!r}", offset=at)

    def expect_end(self) -> None:
        if self.offset != len(self.data):
            raise FormatError(
                f"{len(self.data) - self.offset} unexpected trailing bytes",
                offset=self.offset,
            )


class ByteWriter:
    """Accumulates a container, header first, as little-endian fields."""

    def __init__(self, magic: bytes, version: int, tag: int):
        self._parts: list[bytes] = [magic, struct.pack("<HH", version, tag)]

    def write_u16(self, value: int) -> None:
        self._parts.append(struct.pack("<H", value))

    def write_u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def write_f64_array(self, array: np.ndarray) -> None:
        self._parts.append(np.ascontiguousarray(array, dtype="<f8").tobytes())

    def write_u32_array(self, array: np.ndarray) -> None:
        self._parts.append(np.ascontiguousarray(array, dtype="<u4").tobytes())

    def save(self, path) -> None:
        with artifact_file(path, "wb") as fh:
            fh.writelines(self._parts)
