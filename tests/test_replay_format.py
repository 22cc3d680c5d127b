"""Trace container format: round-trips, damage detection, determinism."""

import struct

import pytest

from repro.errors import TraceFormatError
from repro.perfbench import build_backend
from repro.replay import (TRACE_MAGIC, TRACE_VERSION, Trace,
                          load_trace, load_trace_bytes, record)
from repro.replay import format as fmt
from repro.sim.rng import DeterministicRng


def _sample_trace():
    """A small hand-built trace covering every payload situation."""
    kinds = [fmt.LOAD, fmt.STORE, fmt.SFENCE, fmt.WAL_APPEND, fmt.MARK]
    aux = [0, 1, 0, 2 * 7 + 1, fmt.MARK_TIMED]
    addrs = [64, 128, 0, 4096, 0]
    sizes = [8, 4, 0, 3, 5]
    payload = b"\xde\xad\xbe\xef" + b"log" + b"timed"
    footer = {"backend": "pax", "sim_ns_end": 123.5, "meta": {"seed": 7}}
    return Trace(kinds, aux, addrs, sizes, payload, footer)


def _recorded_bytes(seed=3):
    backend = build_backend("pax")

    def drive(live, recorder):
        rng = DeterministicRng(seed)
        for i in range(16):
            live.put(i, i * 3)
        recorder.mark(fmt.MARK_TIMED)
        for i in range(64):
            key = rng.randint(0, 15)
            if i & 1:
                live.put(key, i)
            else:
                live.get(key)

    return record(backend, drive, meta={"seed": seed}).to_bytes()


class TestRoundTrip:
    def test_to_bytes_load_bytes_round_trip(self):
        trace = _sample_trace()
        back = load_trace_bytes(trace.to_bytes())
        assert list(back.kinds) == trace.kinds
        assert list(back.aux) == trace.aux
        assert list(back.addrs) == trace.addrs
        assert list(back.sizes) == trace.sizes
        assert back.payload == trace.payload
        assert back.footer == trace.footer

    def test_save_load_round_trip(self, tmp_path):
        trace = _sample_trace()
        path = str(tmp_path / "t.trace")
        size = trace.save(path)
        assert size == len(trace.to_bytes())
        back = load_trace(path)
        assert list(back.kinds) == trace.kinds
        assert back.footer == trace.footer

    def test_payload_slices_align_with_kinds(self):
        trace = _sample_trace()
        slices = trace.payload_slices()
        assert slices == [None, b"\xde\xad\xbe\xef", None, b"log",
                          b"timed"]

    def test_events_iteration(self):
        trace = _sample_trace()
        events = list(trace.events())
        assert len(events) == len(trace)
        kind, aux, addr, size, payload = events[1]
        assert (kind, aux, addr, size) == (fmt.STORE, 1, 128, 4)
        assert payload == b"\xde\xad\xbe\xef"


class TestDamage:
    def test_short_blob_rejected(self):
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace_bytes(b"RPXT")

    def test_truncated_body_rejected(self):
        blob = _sample_trace().to_bytes()
        with pytest.raises(TraceFormatError, match="truncated or padded"):
            load_trace_bytes(blob[:-8])

    def test_padded_body_rejected(self):
        blob = _sample_trace().to_bytes()
        with pytest.raises(TraceFormatError, match="truncated or padded"):
            load_trace_bytes(blob + b"\x00" * 4)

    def test_foreign_magic_rejected(self):
        blob = bytearray(_sample_trace().to_bytes())
        blob[:8] = b"NOTTRACE"
        with pytest.raises(TraceFormatError, match="magic"):
            load_trace_bytes(bytes(blob))

    def test_unknown_version_rejected(self):
        blob = bytearray(_sample_trace().to_bytes())
        # Version is the u16 right after the 8-byte magic; CRC must be
        # recomputed or the checksum check would fire first.
        struct.pack_into("<H", blob, 8, TRACE_VERSION + 1)
        import zlib
        struct.pack_into("<I", blob, len(blob) - 4,
                         zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
        with pytest.raises(TraceFormatError, match="version"):
            load_trace_bytes(bytes(blob))

    def test_bitflip_detected_by_checksum(self):
        blob = bytearray(_sample_trace().to_bytes())
        blob[fmt._HEADER.size + 1] ^= 0x40
        with pytest.raises(TraceFormatError, match="checksum"):
            load_trace_bytes(bytes(blob))

    def test_unreadable_path_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cannot read"):
            load_trace(str(tmp_path / "missing.trace"))

    def test_magic_and_version_exported(self):
        assert TRACE_MAGIC == b"RPXTRACE"
        assert TRACE_VERSION == 1


class TestDeterminism:
    def test_recording_is_deterministic(self):
        # Two recordings of the same seeded drive on fresh backends must
        # serialize byte-identically — the property that makes committed
        # traces and trace caching sound.
        assert _recorded_bytes() == _recorded_bytes()

    def test_different_seed_changes_bytes(self):
        assert _recorded_bytes(seed=3) != _recorded_bytes(seed=4)


class TestNumpyFallback:
    def test_column_codec_round_trip(self):
        values = [0, 1, 255, 2 ** 32 - 1, 2 ** 63]
        blob = fmt.encode_column("Q", values)
        assert fmt.decode_column("Q", blob) == values
