"""Adapter translation rules, protocol checking, and the link model."""

import pytest

from repro.cxl import messages as msg
from repro.cxl.adapter import BusOp, CxlAdapter
from repro.cxl.link import CxlLink
from repro.errors import ConfigError, ProtocolError
from repro.sim.clock import SimClock
from repro.sim.latency import default_model


class TestAdapterTranslation:
    def test_read_miss(self):
        out = CxlAdapter().to_cxl(BusOp.READ_MISS, 0x40)
        assert isinstance(out, msg.RdShared)

    def test_write_miss(self):
        out = CxlAdapter().to_cxl(BusOp.WRITE_MISS, 0x40)
        assert isinstance(out, msg.RdOwn) and out.need_data

    def test_write_upgrade(self):
        out = CxlAdapter().to_cxl(BusOp.WRITE_UPGRADE, 0x40)
        assert isinstance(out, msg.RdOwn) and not out.need_data

    def test_evict_dirty_requires_data(self):
        adapter = CxlAdapter()
        with pytest.raises(ProtocolError):
            adapter.to_cxl(BusOp.EVICT_DIRTY, 0x40)
        out = adapter.to_cxl(BusOp.EVICT_DIRTY, 0x40, b"\x00" * 64)
        assert isinstance(out, msg.DirtyEvict)

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError):
            CxlAdapter().to_cxl("flush_all", 0x40)

    def test_translation_counted(self):
        adapter = CxlAdapter()
        adapter.to_cxl(BusOp.READ_MISS, 0x40)
        assert adapter.stats.get("translated.read_miss") == 1


class TestResponseChecking:
    def test_correct_response_passes(self):
        adapter = CxlAdapter()
        request = msg.RdShared(0x40)
        response = msg.DataResponse(0x40, b"\x00" * 64, "S")
        assert adapter.check_response(request, response) is response

    def test_wrong_type_rejected(self):
        adapter = CxlAdapter()
        with pytest.raises(ProtocolError):
            adapter.check_response(msg.RdShared(0x40), msg.Go(0x40))

    def test_wrong_addr_rejected(self):
        adapter = CxlAdapter()
        with pytest.raises(ProtocolError):
            adapter.check_response(
                msg.RdShared(0x40),
                msg.DataResponse(0x80, b"\x00" * 64, "S"))

    def test_rd_shared_must_grant_S(self):
        adapter = CxlAdapter()
        with pytest.raises(ProtocolError):
            adapter.check_response(
                msg.RdShared(0x40),
                msg.DataResponse(0x40, b"\x00" * 64, "M"))

    def test_rd_own_must_grant_M(self):
        adapter = CxlAdapter()
        with pytest.raises(ProtocolError):
            adapter.check_response(
                msg.RdOwn(0x40, need_data=True),
                msg.DataResponse(0x40, b"\x00" * 64, "S"))

    def test_upgrade_expects_go(self):
        adapter = CxlAdapter()
        assert adapter.expected_response(msg.RdOwn(0x40, need_data=False)) \
            is msg.Go


LINE = bytes(64)
REQUESTS = [
    msg.RdShared(0x40), msg.RdOwn(0x40, need_data=True),
    msg.RdOwn(0x40, need_data=False), msg.DirtyEvict(0x40, LINE),
    msg.CleanEvict(0x40), msg.MemRd(0x40), msg.MemWr(0x40, LINE),
]
RESPONSES = [
    msg.DataResponse(0x40, LINE, "S"), msg.DataResponse(0x40, LINE, "M"),
    msg.DataResponse(0x80, LINE, "S"), msg.DataResponse(0x80, LINE, "M"),
    msg.Go(0x40), msg.Go(0x40, "M"), msg.Go(0x80), msg.Go(0x80, "M"),
    msg.SnpResponse(0x40), msg.SnpData(0x40), msg.RdShared(0x40),
]
#: (request index, response index) pairs the protocol accepts; every
#: other pair must raise ProtocolError.
WELL_FORMED = {(0, 0), (1, 1), (2, 4), (2, 5), (3, 4), (3, 5), (4, 4),
               (4, 5)}


@pytest.mark.parametrize("req", range(len(REQUESTS)))
@pytest.mark.parametrize("resp", range(len(RESPONSES)))
def test_check_response_accepts_exactly_the_well_formed_answers(req, resp):
    adapter = CxlAdapter()
    request, response = REQUESTS[req], RESPONSES[resp]
    if (req, resp) in WELL_FORMED:
        assert adapter.check_response(request, response) is response
    else:
        with pytest.raises(ProtocolError):
            adapter.check_response(request, response)


class TestLink:
    def test_presets(self):
        clock = SimClock()
        model = default_model()
        cxl = CxlLink.from_model("cxl", clock, model)
        enzian = CxlLink.from_model("enzian", clock, model)
        assert cxl.one_way_ns < enzian.one_way_ns

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            CxlLink.from_model("nvlink", SimClock(), default_model())

    @pytest.mark.parametrize("one_way_ns", [float("nan"), float("inf"),
                                            float("-inf")])
    def test_non_finite_latency_rejected(self, one_way_ns):
        with pytest.raises(ConfigError, match="must be finite"):
            CxlLink("t", SimClock(), one_way_ns, 63e9)

    def test_hop_latency(self):
        link = CxlLink("t", SimClock(), 50, 1e12)
        assert link.send_h2d(msg.RdShared(0x40)) == pytest.approx(50)

    def test_round_trip(self):
        link = CxlLink("t", SimClock(), 50, 1e12)
        total = link.round_trip(msg.RdShared(0x40),
                                msg.DataResponse(0x40, b"\x00" * 64, "S"))
        assert total == pytest.approx(100)

    def test_bandwidth_queueing_slows_bursts(self):
        link = CxlLink("t", SimClock(), 10, 1e9)    # slow link
        first = link.send_h2d(msg.DirtyEvict(0x40, b"\x00" * 64))
        second = link.send_h2d(msg.DirtyEvict(0x80, b"\x00" * 64))
        assert second > first

    def test_message_accounting(self):
        link = CxlLink("t", SimClock(), 10, 1e12)
        link.send_h2d(msg.RdShared(0x40))
        link.send_d2h(msg.Go(0x40))
        assert link.stats.get("h2d_messages") == 1
        assert link.stats.get("d2h_messages") == 1
