"""CXL.cache message vocabulary.

The subset of CXL 2.0 semantics PAX needs (paper §3-4), as typed message
objects. Directions follow the paper's usage:

Host-to-device (the device is the home of all vPM addresses):

* :class:`RdShared` — a load missed the host LLC; the host wants an
  S-state copy.
* :class:`RdOwn` — the host will modify a line. ``need_data`` is False for
  an S->M permission upgrade where the host already holds the bytes. This
  is the message that gives the device its chance to undo-log (§3.1).
* :class:`DirtyEvict` — the host LLC evicts a modified vPM line; the data
  travels to the device, which buffers it until its undo entry is durable.
* :class:`CleanEvict` — address-only notification of a clean eviction.

Device-to-host:

* :class:`DataResponse` — completion carrying line data plus the granted
  MESI state (``GO-S`` / ``GO-M`` in CXL terms, folded into one message).
* :class:`Go` — data-less completion (upgrade acks, evict acks).
* :class:`SnpData` — the device wants the current value and a downgrade
  to S in all host caches; issued per logged line during ``persist()``
  (§3.3, CXL 2.0 §3.2.4.3).
* :class:`SnpInv` — the device wants the line invalidated everywhere.

Every message is line-granular: ``addr`` must be 64-byte aligned.
"""

from repro.errors import ProtocolError
from repro.util.constants import CACHE_LINE_SIZE

#: Bytes on the wire for an address-only message (header + addr + CRC).
HEADER_BYTES = 16
#: Bytes on the wire for a message carrying one line of data.
DATA_BYTES = HEADER_BYTES + CACHE_LINE_SIZE

#: Offset-within-line mask: an address is line-aligned iff ``addr &
#: _LINE_MASK`` is zero.
_LINE_MASK = CACHE_LINE_SIZE - 1


def _misaligned(addr):
    return ProtocolError("CXL messages are line-granular; 0x%x is not "
                         "64-byte aligned" % addr)


class Message:
    """Base class; ``wire_bytes`` sizes the link-bandwidth charge.

    Messages are ``__slots__`` classes built once per CXL transaction, so
    each constructor checks its fields inline. ``_fields`` names the
    fields ``==`` compares and ``repr`` shows, in order: two messages are
    equal when they have the same class and equal fields.
    """

    __slots__ = ()
    wire_bytes = HEADER_BYTES
    _fields = ()

    @property
    def name(self):
        """The message's protocol name (its class name)."""
        return type(self).__name__

    def _values(self):
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (field, getattr(self, field))
            for field in self._fields))


class _AddrMessage(Message):
    """A message carrying a line address only."""

    __slots__ = ("addr",)
    _fields = __slots__

    def __init__(self, addr):
        if addr & _LINE_MASK:
            raise _misaligned(addr)
        self.addr = addr


class _LineMessage(Message):
    """A message carrying a line address and exactly one line of data."""

    __slots__ = ("addr", "data")
    _fields = __slots__
    wire_bytes = DATA_BYTES

    def __init__(self, addr, data):
        if addr & _LINE_MASK:
            raise _misaligned(addr)
        data = bytes(data)
        if len(data) != CACHE_LINE_SIZE:
            raise ProtocolError("%s carries exactly one line"
                                % type(self).__name__)
        self.addr = addr
        self.data = data


# -- host-to-device ---------------------------------------------------------

class RdShared(_AddrMessage):
    """Host load miss: request an S copy of ``addr``."""

    __slots__ = ()


class RdOwn(Message):
    """Host store: request M on ``addr``; ``need_data`` False = upgrade."""

    __slots__ = ("addr", "need_data")
    _fields = __slots__

    def __init__(self, addr, need_data=True):
        if addr & _LINE_MASK:
            raise _misaligned(addr)
        self.addr = addr
        self.need_data = need_data


class DirtyEvict(_LineMessage):
    """Host LLC eviction of a modified line; carries the data."""

    __slots__ = ()


class CleanEvict(_AddrMessage):
    """Host LLC eviction of a clean line (address-only hint)."""

    __slots__ = ()


class MemRd(_AddrMessage):
    """CXL.mem read: the device is plain memory; no coherence state.

    Used by the CXL.mem-mode PAX (paper §6): the host memory controller
    treats device memory like local DRAM, so the device never learns who
    caches what.
    """

    __slots__ = ()


class MemWr(_LineMessage):
    """CXL.mem write: a dirty line (or CLWB) arriving at the device."""

    __slots__ = ()


# -- device-to-host ---------------------------------------------------------

class DataResponse(Message):
    """Completion with data and a granted state ('S' or 'M')."""

    __slots__ = ("addr", "data", "state")
    _fields = __slots__
    wire_bytes = DATA_BYTES

    def __init__(self, addr, data, state):
        if addr & _LINE_MASK:
            raise _misaligned(addr)
        data = bytes(data)
        if len(data) != CACHE_LINE_SIZE:
            raise ProtocolError("DataResponse carries exactly one line")
        if state not in ("S", "M"):
            raise ProtocolError("granted state must be S or M")
        self.addr = addr
        self.data = data
        self.state = state


class Go(Message):
    """Data-less completion; ``state`` is the granted state ('M') or None."""

    __slots__ = ("addr", "state")
    _fields = __slots__

    def __init__(self, addr, state=None):
        if addr & _LINE_MASK:
            raise _misaligned(addr)
        self.addr = addr
        self.state = state


class SnpData(_AddrMessage):
    """Device-to-host: downgrade to S and forward the current value."""

    __slots__ = ()


class SnpInv(_AddrMessage):
    """Device-to-host: invalidate every cached copy."""

    __slots__ = ()


class SnpResponse(Message):
    """Host reply to a snoop; ``data`` is None when no copy was dirty."""

    __slots__ = ("addr", "data", "wire_bytes")
    _fields = ("addr", "data")

    def __init__(self, addr, data=None):
        if addr & _LINE_MASK:
            raise _misaligned(addr)
        wire_bytes = HEADER_BYTES
        if data is not None:
            data = bytes(data)
            if len(data) != CACHE_LINE_SIZE:
                raise ProtocolError("SnpResponse data must be one line")
            wire_bytes = DATA_BYTES
        self.addr = addr
        self.data = data
        self.wire_bytes = wire_bytes

    @property
    def was_dirty(self):
        """True if the host surrendered modified data."""
        return self.data is not None


HOST_TO_DEVICE = (RdShared, RdOwn, DirtyEvict, CleanEvict)
DEVICE_TO_HOST = (DataResponse, Go, SnpData, SnpInv)
