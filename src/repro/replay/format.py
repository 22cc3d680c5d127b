"""Versioned columnar trace container.

A trace is an event stream captured from a live backend (see
:mod:`repro.replay.recorder`) stored as four parallel columns plus a
payload heap — a struct-of-arrays layout that replay zips into events
without per-event object construction:

========  ======  =====================================================
column    dtype   meaning
========  ======  =====================================================
kinds     u8      event kind (:data:`KIND_NAMES`)
aux       u64     kind-specific scalar (core id; ``tx_id*2 + fence``)
addrs     u64     physical / heap-relative address
sizes     u32     access length or payload length
payload   bytes   concatenated store/append payloads, in event order
========  ======  =====================================================

On disk: a fixed little-endian header (magic, version, flags, counts),
the four columns, the payload heap, a sorted-JSON footer (backend name,
config, final ``sim_ns``, structure-layer counter deltas), and a CRC32
over everything that precedes it. Any structural damage — short file,
foreign magic, unknown version, checksum mismatch — raises
:class:`~repro.errors.TraceFormatError` at load time, never at replay
time.
"""

import json
import struct
import sys
import zlib
from array import array

from repro.errors import TraceFormatError

#: File magic (8 bytes) and current format version.
TRACE_MAGIC = b"RPXTRACE"
TRACE_VERSION = 1

# magic, version u16, flags u16, count u64, payload_len u64, footer_len u32
_HEADER = struct.Struct("<8sHHQQI")
_CRC = struct.Struct("<I")

# Event kinds. Stable numbering: appending new kinds is compatible,
# renumbering bumps TRACE_VERSION.
LOAD = 1          # aux=core_id, addr, size
STORE = 2         # aux=core_id, addr, size, payload
RAW_READ = 3      # addr, size               (machine.space.read)
RAW_WRITE = 4     # addr, size, payload      (machine.space.write)
CLWB = 5          # addr, size               (flush.clwb)
SFENCE = 6        #                          (flush.sfence)
WBL = 7           # addr                     (hierarchy.writeback_line)
PERSIST = 8       #                          (machine.persist)
WAL_APPEND = 9    # aux=tx_id*2+fence, addr, size, payload
WAL_RESET = 10    #                          (wal.reset)
MARK = 11         # aux=mark code, payload=label

#: Kind id -> name, for tooling and error messages.
KIND_NAMES = {
    LOAD: "load", STORE: "store", RAW_READ: "raw_read",
    RAW_WRITE: "raw_write", CLWB: "clwb", SFENCE: "sfence",
    WBL: "writeback_line", PERSIST: "persist", WAL_APPEND: "wal_append",
    WAL_RESET: "wal_reset", MARK: "mark",
}

#: Kinds that carry bytes in the payload heap (in column order).
PAYLOAD_KINDS = frozenset((STORE, RAW_WRITE, WAL_APPEND, MARK))

#: Mark code emitted by perfbench between preload and the timed phase.
MARK_TIMED = 1

#: True on little-endian hosts; the on-disk format is always little-endian.
_LITTLE = sys.byteorder == "little"


def encode_column(typecode, values):
    """Encode ints as a little-endian column; ``typecode`` is an
    ``array`` typecode ('B', 'I', or 'Q')."""
    out = array(typecode, values)
    if not _LITTLE:
        out.byteswap()
    return out.tobytes()


def decode_column(typecode, buf):
    """Decode a little-endian column into a list of Python ints."""
    out = array(typecode)
    out.frombytes(bytes(buf))
    if not _LITTLE:
        out.byteswap()
    return out.tolist()


class Trace:
    """A decoded trace: four int columns, a payload heap, and a footer."""

    __slots__ = ("kinds", "aux", "addrs", "sizes", "payload", "footer")

    def __init__(self, kinds, aux, addrs, sizes, payload, footer):
        self.kinds = kinds
        self.aux = aux
        self.addrs = addrs
        self.sizes = sizes
        self.payload = bytes(payload)
        self.footer = footer

    def __len__(self):
        return len(self.kinds)

    def payload_slices(self):
        """Per-event payload bytes (None for kinds that carry none)."""
        out = []
        cursor = 0
        payload = self.payload
        for kind, size in zip(self.kinds, self.sizes):
            if kind in PAYLOAD_KINDS:
                out.append(payload[cursor:cursor + size])
                cursor += size
            else:
                out.append(None)
        return out

    def events(self):
        """Iterate ``(kind, aux, addr, size, payload_or_None)`` tuples."""
        return zip(self.kinds, self.aux, self.addrs, self.sizes,
                   self.payload_slices())

    def kind_counts(self):
        """Event count per kind *name* (kinds absent from the trace are
        omitted); unknown kind ids key by their decimal string."""
        counts = {}
        for kind in self.kinds:
            counts[kind] = counts.get(kind, 0) + 1
        return {KIND_NAMES.get(kind, str(kind)): count
                for kind, count in counts.items()}

    def to_bytes(self):
        """Serialize; the inverse of :func:`load_trace_bytes`."""
        count = len(self.kinds)
        footer_blob = json.dumps(self.footer, sort_keys=True,
                                 separators=(",", ":")).encode("utf-8")
        parts = [
            _HEADER.pack(TRACE_MAGIC, TRACE_VERSION, 0, count,
                         len(self.payload), len(footer_blob)),
            encode_column("B", self.kinds),
            encode_column("Q", self.aux),
            encode_column("Q", self.addrs),
            encode_column("I", self.sizes),
            self.payload,
            footer_blob,
        ]
        body = b"".join(parts)
        return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)

    def save(self, path):
        """Write the serialized trace to ``path``."""
        blob = self.to_bytes()
        with open(path, "wb") as handle:
            handle.write(blob)
        return len(blob)


def load_trace_bytes(blob):
    """Decode a serialized trace; raises :class:`TraceFormatError`."""
    if len(blob) < _HEADER.size + _CRC.size:
        raise TraceFormatError(
            "trace truncated: %d bytes is shorter than the %d-byte header"
            % (len(blob), _HEADER.size + _CRC.size))
    magic, version, _flags, count, payload_len, footer_len = \
        _HEADER.unpack_from(blob, 0)
    if magic != TRACE_MAGIC:
        raise TraceFormatError("not a trace file (magic %r)" % magic)
    if version != TRACE_VERSION:
        raise TraceFormatError(
            "unsupported trace version %d (this build reads %d)"
            % (version, TRACE_VERSION))
    expect = (_HEADER.size + count * (1 + 8 + 8 + 4)
              + payload_len + footer_len + _CRC.size)
    if len(blob) != expect:
        raise TraceFormatError(
            "trace truncated or padded: %d bytes, header promises %d"
            % (len(blob), expect))
    (crc,) = _CRC.unpack_from(blob, len(blob) - _CRC.size)
    actual = zlib.crc32(blob[:-_CRC.size]) & 0xFFFFFFFF
    if crc != actual:
        raise TraceFormatError(
            "trace checksum mismatch (stored %08x, computed %08x)"
            % (crc, actual))
    cursor = _HEADER.size
    kinds = decode_column("B", blob[cursor:cursor + count])
    cursor += count
    aux = decode_column("Q", blob[cursor:cursor + 8 * count])
    cursor += 8 * count
    addrs = decode_column("Q", blob[cursor:cursor + 8 * count])
    cursor += 8 * count
    sizes = decode_column("I", blob[cursor:cursor + 4 * count])
    cursor += 4 * count
    payload = blob[cursor:cursor + payload_len]
    cursor += payload_len
    try:
        footer = json.loads(blob[cursor:cursor + footer_len].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise TraceFormatError("trace footer is not valid JSON: %s" % exc)
    return Trace(kinds, aux, addrs, sizes, payload, footer)


def load_trace(path):
    """Read and decode the trace at ``path``."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise TraceFormatError("cannot read trace %s: %s" % (path, exc))
    return load_trace_bytes(blob)
