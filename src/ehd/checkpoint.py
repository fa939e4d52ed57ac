"""Bit-exact binary checkpoints.

Layout: magic "EHDS", then a payload of
    u32 LE  format version (currently 1)
    u32 LE  n (samples per dimension)
    f64 LE  t
    u64 LE  step_index
    5 * n^3 f64 LE sample arrays (ux, uy, uz, v, w), x-fastest order,
followed by the CRC32 of the payload as u32 LE.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .spectral import Grid, RealField, VectorField

MAGIC = b"EHDS"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<IIdQ")  # version, n, t, step_index


class CheckpointError(ValueError):
    """Malformed, truncated, or corrupted checkpoint file."""


def _payload_blocks(state):
    """The payload as buffers: the header, then each field x-fastest (a view if F-ordered)."""
    yield _HEADER.pack(FORMAT_VERSION, state.grid.n, state.t, state.step_index)
    for f in (state.u.x, state.u.y, state.u.z, state.v, state.w):
        yield np.ascontiguousarray(f.samples.T, dtype="<f8")


def state_checksum(state) -> str:
    """CRC32 of the checkpoint payload, as 8 hex digits."""
    crc = 0
    for block in _payload_blocks(state):
        crc = zlib.crc32(block, crc)
        del block  # one field's copy alive at a time, not two
    return format(crc & 0xFFFFFFFF, "08x")


def write_atomically(path, blocks) -> None:
    """Write the buffers of blocks to path through a temporary file beside it.

    The file at path is either the old one or the complete new one, never a
    partial write, even if the process dies mid-write.  There is no fsync,
    so a power loss can still lose or truncate the new file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(blocks)  # drops each block before asking for the next
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_checkpoint(path, state) -> None:
    """Write state to path atomically, streaming its payload with a running CRC32."""
    def blocks():
        yield MAGIC
        crc = 0
        for block in _payload_blocks(state):
            crc = zlib.crc32(block, crc)
            yield block
            del block  # as in state_checksum
        yield struct.pack("<I", crc & 0xFFFFFFFF)
    write_atomically(path, blocks())


def _read_header(path, head) -> tuple:
    """(n, t, step_index) from the leading bytes of a checkpoint, whose
    magic and format version are checked here."""
    if len(head) < len(MAGIC) + _HEADER.size:
        raise CheckpointError(f"checkpoint {path} is truncated: no complete header")
    if head[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"checkpoint {path} has bad magic {bytes(head[: len(MAGIC)])!r}")
    version, n, t, step_index = _HEADER.unpack_from(head, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"checkpoint {path} has unsupported format version {version}")
    return n, t, step_index


def checkpoint_grid_size(path) -> int:
    """The grid size n of the checkpoint at path, from its header alone."""
    with open(path, "rb") as fh:
        return _read_header(path, fh.read(len(MAGIC) + _HEADER.size))[0]


def read_checkpoint(path):
    """Read a checkpoint back into a State (CRC-verified, bit-exact)."""
    from .solver import State

    raw = memoryview(Path(path).read_bytes())
    n, t, step_index = _read_header(path, raw[:-4])  # the last 4 bytes are the CRC
    payload, (stored_crc,) = raw[len(MAGIC) : -4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"checkpoint {path} failed CRC verification")
    expected = _HEADER.size + 5 * n**3 * 8
    if len(payload) != expected:
        raise CheckpointError(
            f"checkpoint {path} payload is {len(payload)} bytes, expected {expected}"
        )

    grid = Grid(n)
    fields = np.frombuffer(payload, dtype="<f8", offset=_HEADER.size).reshape((5, n**3))
    ux, uy, uz, v, w = (
        RealField(grid, f.reshape((n, n, n), order="F").astype(np.float64)) for f in fields
    )
    return State(u=VectorField(ux, uy, uz), v=v, w=w, t=t, step_index=step_index)
