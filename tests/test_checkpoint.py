"""Binary checkpoint format: bit-exact round trips and corruption detection."""

import itertools
import os
import pathlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

import ehd
from ehd import CheckpointError, StepControl, checkpoint


@pytest.fixture
def state(grid16):
    s = ehd.random_smooth(grid16, seed=42, energy=2.0, peak_wavenumber=3.0)
    s.t = 0.375
    s.step_index = 123
    return s


class TestRoundTrip:
    def test_bit_exact(self, tmp_path, state):
        path = tmp_path / "state.ehds"
        ehd.write_checkpoint(path, state)
        back = ehd.read_checkpoint(path)
        assert back.t == state.t
        assert back.step_index == state.step_index
        assert back.grid.n == state.grid.n
        for a, b in zip(
            (*state.u.components, state.v, state.w),
            (*back.u.components, back.v, back.w),
        ):
            assert np.array_equal(a.samples, b.samples)  # bitwise, no tolerance

    def test_checksum_matches_written_crc(self, tmp_path, state):
        path = tmp_path / "state.ehds"
        ehd.write_checkpoint(path, state)
        raw = path.read_bytes()
        (crc,) = struct.unpack("<I", raw[-4:])
        assert format(crc, "08x") == ehd.state_checksum(state)
        assert zlib.crc32(raw[4:-4]) & 0xFFFFFFFF == crc

    def test_layout_is_x_fastest(self, tmp_path, state):
        path = tmp_path / "state.ehds"
        ehd.write_checkpoint(path, state)
        raw = path.read_bytes()
        header = struct.Struct("<IIdQ")
        version, n, t, step_index = header.unpack_from(raw, 4)
        assert (version, n) == (1, 16)
        assert (t, step_index) == (state.t, state.step_index)
        base = 4 + header.size
        # sample (i, j, k) sits at flat index i + j*n + k*n^2 of its array
        (first_ux,) = struct.unpack_from("<d", raw, base)
        assert first_ux == state.u.x.samples[0, 0, 0]
        (second,) = struct.unpack_from("<d", raw, base + 8)
        assert second == state.u.x.samples[1, 0, 0]
        (row_jump,) = struct.unpack_from("<d", raw, base + 8 * n)
        assert row_jump == state.u.x.samples[0, 1, 0]


class TestAtomicWrite:
    def test_failed_write_keeps_old_file_and_leaves_no_temporary(
        self, tmp_path, state, monkeypatch
    ):
        path = tmp_path / "state_00000001.ehds"
        ehd.write_checkpoint(path, state)
        old = path.read_bytes()

        payload_blocks = checkpoint._payload_blocks

        def first_field_then_fail(state):
            yield from itertools.islice(payload_blocks(state), 2)  # header, ux
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint, "_payload_blocks", first_field_then_fail)
        state.t = 1.5
        with pytest.raises(OSError, match="disk full"):
            ehd.write_checkpoint(path, state)
        monkeypatch.undo()

        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_temporary_name_does_not_match_step_checkpoints(self, tmp_path, state, monkeypatch):
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append(pathlib.Path(src))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        ehd.write_checkpoint(tmp_path / "state_00000002.ehds", state)
        assert len(seen) == 1 and seen[0].parent == tmp_path
        assert not seen[0].match("state_*.ehds")
        assert [p.name for p in tmp_path.glob("state_*.ehds")] == ["state_00000002.ehds"]


class TestCorruption:
    def test_bad_magic(self, tmp_path, state):
        path = tmp_path / "state.ehds"
        ehd.write_checkpoint(path, state)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            ehd.read_checkpoint(path)

    def test_flipped_payload_byte_fails_crc(self, tmp_path, state):
        path = tmp_path / "state.ehds"
        ehd.write_checkpoint(path, state)
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            ehd.read_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "stub.ehds"
        path.write_bytes(b"EHDS\x01\x00")
        with pytest.raises(CheckpointError, match="truncated"):
            ehd.read_checkpoint(path)

    def test_unsupported_version(self, tmp_path, state):
        path = tmp_path / "state.ehds"
        ehd.write_checkpoint(path, state)
        raw = bytearray(path.read_bytes())
        payload = bytearray(raw[4:-4])
        struct.pack_into("<I", payload, 0, 99)
        crc = zlib.crc32(bytes(payload)) & 0xFFFFFFFF
        path.write_bytes(b"EHDS" + bytes(payload) + struct.pack("<I", crc))
        with pytest.raises(CheckpointError, match="version"):
            ehd.read_checkpoint(path)

    @pytest.mark.parametrize("reader", [ehd.read_checkpoint, checkpoint.checkpoint_grid_size])
    @pytest.mark.parametrize("head, message", [
        (b"EHDS\x01\x00", "truncated"),
        (b"XHDS" + checkpoint._HEADER.pack(1, 16, 0.0, 0) + b"\x00" * 4, "magic"),
        (b"EHDS" + checkpoint._HEADER.pack(99, 16, 0.0, 0) + b"\x00" * 4, "version"),
    ], ids=["truncated", "magic", "version"])
    def test_both_readers_check_the_header(self, tmp_path, reader, head, message):
        path = tmp_path / "head.ehds"
        path.write_bytes(head)
        with pytest.raises(CheckpointError, match=message):
            reader(path)

    def test_wrong_payload_size(self, tmp_path, state):
        path = tmp_path / "state.ehds"
        ehd.write_checkpoint(path, state)
        raw = path.read_bytes()
        payload = raw[4:-4] + b"\x00" * 8
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        path.write_bytes(b"EHDS" + payload + struct.pack("<I", crc))
        with pytest.raises(CheckpointError, match="payload"):
            ehd.read_checkpoint(path)


def joined_payload(state) -> bytes:
    """The payload as one buffer, built the way the writer built it before it
    streamed: the reference the streamed file and checksum must equal."""
    n = state.grid.n
    parts = [struct.pack("<IIdQ", 1, n, state.t, state.step_index)]
    for f in (state.u.x, state.u.y, state.u.z, state.v, state.w):
        parts.append(np.ascontiguousarray(f.samples, dtype="<f8").ravel(order="F").tobytes())
    return b"".join(parts)


def preset_state(grid, _):
    s = ehd.random_smooth(grid, seed=7, energy=1.0, peak_wavenumber=2.0)
    assert s.u.x.samples.flags.c_contiguous and not s.u.x.samples.flags.f_contiguous
    return s


def restarted_state(grid, tmp_path):
    ehd.write_checkpoint(tmp_path / "initial.ehds", preset_state(grid, tmp_path))
    s = ehd.read_checkpoint(tmp_path / "initial.ehds")
    assert s.u.x.samples.flags.f_contiguous and not s.u.x.samples.flags.c_contiguous
    return s


def uncharged_snapshot(grid, _):
    s = ehd.step(ehd.taylor_green(grid), StepControl(dt=1e-3, t_end=1e-3))
    assert s.v.samples is s.w.samples and not s.v.samples.flags.writeable
    return s


def special_values_state(grid, _):
    rng = np.random.default_rng(grid.n)
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.25e-300])
    fields = [rng.choice(values, size=(grid.n,) * 3) for _ in range(5)]
    s = ehd.State(
        u=ehd.VectorField(*(ehd.RealField(grid, a) for a in fields[:3])),
        v=ehd.RealField(grid, fields[3]),
        w=ehd.RealField(grid, fields[4]),
        t=-0.0078125,
        step_index=2**40 + 3,
    )
    assert np.signbit(s.u.x.samples[s.u.x.samples == 0.0]).any()
    return s


class TestStreamedPayload:
    """The streamed file and checksum are the bytes of the joined payload."""

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize(
        "make", [preset_state, restarted_state, uncharged_snapshot, special_values_state]
    )
    def test_file_and_checksum_equal_the_joined_payload(self, tmp_path, n, make):
        state = make(ehd.Grid(n), tmp_path)
        payload = joined_payload(state)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        path = tmp_path / "state.ehds"
        ehd.write_checkpoint(path, state)
        assert path.read_bytes() == b"EHDS" + payload + struct.pack("<I", crc)
        assert ehd.state_checksum(state) == format(crc, "08x")


class TestAllocation:
    """Writing and checksumming hold at most one field's copy, not the file."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda path, state: ehd.write_checkpoint(path, state),
            lambda path, state: ehd.state_checksum(state),
        ],
        ids=["write_checkpoint", "state_checksum"],
    )
    def test_peak_below_two_fields(self, tmp_path, grid32, call):
        state = preset_state(grid32, tmp_path)
        path = tmp_path / "state.ehds"
        call(path, state)  # first call outside the trace: lazy imports and caches
        tracemalloc.start()
        try:
            call(path, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * grid32.n**3 * 8
