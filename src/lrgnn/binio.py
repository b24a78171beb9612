"""Little-endian binary reading shared by the dataset and model formats."""

from __future__ import annotations

import struct

import numpy as np


class FormatError(RuntimeError):
    """A binary file does not match its declared layout."""


class ByteReader:
    """Cursor over a byte buffer that fails loudly on truncation and on
    non-finite floats."""

    def __init__(self, buf: bytes, path, error_cls: type[FormatError]):
        self.buf = buf
        self.off = 0
        self.path = path
        self.error_cls = error_cls

    def take(self, nbytes: int, what: str) -> bytes:
        if self.off + nbytes > len(self.buf):
            raise self.error_cls(f"{self.path}: truncated while reading {what}")
        chunk = self.buf[self.off : self.off + nbytes]
        self.off += nbytes
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def f32(self, count: int, what: str) -> np.ndarray:
        raw = self.take(4 * count, what)
        with np.errstate(invalid="ignore"):  # a signaling NaN warns on the cast
            values = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(values)):
            raise self.error_cls(f"{self.path}: non-finite value in {what}")
        return values

    def done(self) -> None:
        if self.off != len(self.buf):
            raise self.error_cls(f"{self.path}: {len(self.buf) - self.off} trailing bytes")


def open_reader(path, magic: bytes, version: int, error_cls: type[FormatError]) -> ByteReader:
    """A ByteReader over the file at `path`, positioned after its magic
    and version; any other magic or version raises error_cls."""
    with open(path, "rb") as f:
        r = ByteReader(f.read(), path, error_cls)
    got = r.take(len(magic), "magic")
    if got != magic:
        raise error_cls(f"{path}: bad magic {got!r}, expected {magic!r}")
    got = r.u32("version")
    if got != version:
        raise error_cls(f"{path}: unsupported version {got}, expected {version}")
    return r
