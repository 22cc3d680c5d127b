"""CXL message vocabulary: validation and wire sizes."""

import pytest

from repro.cxl import messages as msg
from repro.errors import ProtocolError


class TestValidation:
    def test_unaligned_addr_rejected(self):
        with pytest.raises(ProtocolError):
            msg.RdShared(0x41)
        with pytest.raises(ProtocolError):
            msg.SnpData(100)

    def test_aligned_ok(self):
        assert msg.RdShared(0x40).addr == 0x40

    def test_dirty_evict_needs_full_line(self):
        with pytest.raises(ProtocolError):
            msg.DirtyEvict(0x40, b"short")
        assert msg.DirtyEvict(0x40, b"\x00" * 64).wire_bytes == msg.DATA_BYTES

    def test_data_response_state_checked(self):
        with pytest.raises(ProtocolError):
            msg.DataResponse(0x40, b"\x00" * 64, "E")
        assert msg.DataResponse(0x40, b"\x00" * 64, "S").state == "S"

    def test_snp_response_sizes(self):
        empty = msg.SnpResponse(0x40)
        full = msg.SnpResponse(0x40, b"\x00" * 64)
        assert empty.wire_bytes == msg.HEADER_BYTES
        assert full.wire_bytes == msg.DATA_BYTES
        assert not empty.was_dirty
        assert full.was_dirty

    def test_snp_response_partial_data_rejected(self):
        with pytest.raises(ProtocolError):
            msg.SnpResponse(0x40, b"half")


class TestWireSizes:
    def test_address_only_smaller_than_data(self):
        assert msg.RdShared(0x40).wire_bytes < msg.DirtyEvict(
            0x40, b"\x00" * 64).wire_bytes

    def test_rd_own_is_address_only(self):
        assert msg.RdOwn(0x40).wire_bytes == msg.HEADER_BYTES

    def test_names(self):
        assert msg.RdShared(0x40).name == "RdShared"
        assert msg.Go(0x40).name == "Go"


# -- every message class ----------------------------------------------------

LINE = bytes(range(64))

#: (class, constructor args, repr, wire bytes) for one well-formed
#: instance of every message class. The reprs are the ones the classes
#: had as dataclasses; the constructor checks must not change them.
EVERY_MESSAGE = [
    (msg.RdShared, (0x40,), "RdShared(addr=64)", msg.HEADER_BYTES),
    (msg.RdOwn, (0x40,), "RdOwn(addr=64, need_data=True)", msg.HEADER_BYTES),
    (msg.DirtyEvict, (0x40, LINE), "DirtyEvict(addr=64, data=%r)" % LINE,
     msg.DATA_BYTES),
    (msg.CleanEvict, (0x40,), "CleanEvict(addr=64)", msg.HEADER_BYTES),
    (msg.MemRd, (0x40,), "MemRd(addr=64)", msg.HEADER_BYTES),
    (msg.MemWr, (0x40, LINE), "MemWr(addr=64, data=%r)" % LINE,
     msg.DATA_BYTES),
    (msg.DataResponse, (0x40, LINE, "M"),
     "DataResponse(addr=64, data=%r, state='M')" % LINE, msg.DATA_BYTES),
    (msg.Go, (0x40,), "Go(addr=64, state=None)", msg.HEADER_BYTES),
    (msg.SnpData, (0x40,), "SnpData(addr=64)", msg.HEADER_BYTES),
    (msg.SnpInv, (0x40,), "SnpInv(addr=64)", msg.HEADER_BYTES),
    (msg.SnpResponse, (0x40, LINE), "SnpResponse(addr=64, data=%r)" % LINE,
     msg.DATA_BYTES),
]

#: Classes carrying one line of data, with the error each raises for a
#: payload of the wrong length.
DATA_ERRORS = {
    msg.DirtyEvict: "DirtyEvict carries exactly one line",
    msg.MemWr: "MemWr carries exactly one line",
    msg.DataResponse: "DataResponse carries exactly one line",
    msg.SnpResponse: "SnpResponse data must be one line",
}


DATA_MESSAGES = [row for row in EVERY_MESSAGE if row[0] in DATA_ERRORS]


def _ids(table):
    return [row[0].__name__ for row in table]


def test_table_covers_every_message_class():
    public = {obj for name, obj in vars(msg).items()
              if isinstance(obj, type) and issubclass(obj, msg.Message)
              and obj is not msg.Message and not name.startswith("_")}
    assert {cls for cls, *_rest in EVERY_MESSAGE} == public


@pytest.mark.parametrize("cls, args, text, wire", EVERY_MESSAGE,
                         ids=_ids(EVERY_MESSAGE))
class TestEveryMessage:
    def test_name_and_wire_bytes(self, cls, args, text, wire):
        message = cls(*args)
        assert message.name == cls.__name__
        assert message.wire_bytes == wire
        assert message.addr == 0x40

    def test_repr(self, cls, args, text, wire):
        assert repr(cls(*args)) == text

    def test_equality_is_by_class_and_fields(self, cls, args, text, wire):
        assert cls(*args) == cls(*args)
        assert not cls(*args) != cls(*args)
        assert cls(*args) != cls(0x80, *args[1:])
        for other, other_args, _text, _wire in EVERY_MESSAGE:
            if other is not cls:
                assert cls(*args) != other(*other_args)
        assert cls(*args) != (0x40,) + args[1:]

    def test_unhashable_like_a_dataclass(self, cls, args, text, wire):
        with pytest.raises(TypeError):
            hash(cls(*args))

    @pytest.mark.parametrize("addr", [0x41, 0x7F, 100, 1, -1])
    def test_misaligned_address_rejected(self, cls, args, text, wire, addr):
        with pytest.raises(ProtocolError) as info:
            cls(addr, *args[1:])
        assert str(info.value) == ("CXL messages are line-granular; 0x%x "
                                   "is not 64-byte aligned" % addr)


@pytest.mark.parametrize("cls, args, text, wire", DATA_MESSAGES,
                         ids=_ids(DATA_MESSAGES))
class TestDataMessages:
    def test_misaligned_address_checked_before_data(self, cls, args, text,
                                                    wire):
        with pytest.raises(ProtocolError, match="not 64-byte aligned"):
            cls(0x41, b"short", *args[2:])

    @pytest.mark.parametrize("size", [0, 1, 63, 65, 128])
    def test_wrong_data_length_rejected(self, cls, args, text, wire, size):
        with pytest.raises(ProtocolError) as info:
            cls(0x40, bytes(size), *args[2:])
        assert str(info.value) == DATA_ERRORS[cls]

    def test_data_is_copied_to_bytes(self, cls, args, text, wire):
        message = cls(0x40, bytearray(LINE), *args[2:])
        assert type(message.data) is bytes
        assert message == cls(*args)


@pytest.mark.parametrize("state", ["E", "I", None, "s", ""])
def test_data_response_bad_state_rejected(state):
    with pytest.raises(ProtocolError, match="granted state must be S or M"):
        msg.DataResponse(0x40, LINE, state)


def test_keyword_arguments_keep_their_names():
    assert msg.RdOwn(addr=0x40, need_data=False).need_data is False
    assert msg.Go(addr=0x40, state="M").state == "M"
    assert msg.SnpResponse(addr=0x40, data=None).wire_bytes \
        == msg.HEADER_BYTES
    assert msg.DataResponse(addr=0x40, data=LINE, state="S").state == "S"
