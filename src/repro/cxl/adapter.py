"""The coherence-bus-to-CXL adapter layer.

Paper §4: the Enzian prototype sees ThunderX-1 ECI messages, which are
lower-level and microarchitecture-specific; PAX therefore runs behind an
"adapter" that filters and rewrites them into CXL-shaped messages, so the
device logic ports unchanged to commodity CXL hardware. The software
prototype (Pin-based) uses the same layer.

We reproduce that structure: the cache hierarchy's device home emits
*raw bus operations* (:class:`BusOp`), and :class:`CxlAdapter` maps them
onto the typed message set in :mod:`repro.cxl.messages`. The device only
ever consumes CXL messages — the test suite asserts the device never sees
a raw bus op, which is exactly the portability property the paper wants.
"""

from repro.cxl import messages as msg
from repro.errors import ProtocolError
from repro.util.stats import StatGroup


class BusOp:
    """Raw host coherence-bus operations (microarchitecture-flavoured)."""

    READ_MISS = "read_miss"          # LLC read miss into device-homed range
    WRITE_MISS = "write_miss"        # store miss needing data + ownership
    WRITE_UPGRADE = "write_upgrade"  # S->M upgrade, data already cached
    EVICT_DIRTY = "evict_dirty"      # modified victim leaving the LLC
    EVICT_CLEAN = "evict_clean"      # clean victim notification

    ALL = (READ_MISS, WRITE_MISS, WRITE_UPGRADE, EVICT_DIRTY, EVICT_CLEAN)


class CxlAdapter:
    """Stateless translation between bus ops and CXL.cache messages."""

    def __init__(self):
        self.stats = StatGroup("cxl_adapter")
        # Per-miss translation counters, keyed by op and bound once
        # (hot-path-stat-lookup rule): the op set is closed, so the
        # "translated." + op key concatenation can happen here instead of
        # on every miss.
        self._c_translated = {
            op: self.stats.counter("translated." + op) for op in BusOp.ALL}

    def to_cxl(self, op, addr, data=None):
        """Translate a host bus operation into the CXL request to send."""
        counter = self._c_translated.get(op)
        if counter is not None:
            counter.value += 1
        if op == BusOp.READ_MISS:
            return msg.RdShared(addr)
        if op == BusOp.WRITE_MISS:
            return msg.RdOwn(addr, need_data=True)
        if op == BusOp.WRITE_UPGRADE:
            return msg.RdOwn(addr, need_data=False)
        if op == BusOp.EVICT_DIRTY:
            if data is None:
                raise ProtocolError("dirty eviction needs line data")
            return msg.DirtyEvict(addr, data)
        if op == BusOp.EVICT_CLEAN:
            return msg.CleanEvict(addr)
        raise ProtocolError("unknown bus operation %r" % (op,))

    def expected_response(self, request):
        """The response type the protocol requires for ``request``."""
        if isinstance(request, msg.RdShared):
            return msg.DataResponse
        if isinstance(request, msg.RdOwn):
            return msg.DataResponse if request.need_data else msg.Go
        if isinstance(request, (msg.DirtyEvict, msg.CleanEvict)):
            return msg.Go
        raise ProtocolError("unknown request %r" % (request,))

    def check_response(self, request, response):
        """Raise :class:`ProtocolError` if ``response`` is malformed."""
        # Accept the well-formed answer by exact type first (the message
        # classes are final); anything else takes the generic checks
        # below, which stay the specification and name what is wrong.
        kind = type(request)
        answer = type(response)
        if answer is msg.DataResponse:
            if response.addr == request.addr and (
                    kind is msg.RdShared and response.state == "S"
                    or kind is msg.RdOwn and request.need_data
                    and response.state == "M"):
                return response
        elif answer is msg.Go:
            if response.addr == request.addr and (
                    kind is msg.DirtyEvict or kind is msg.CleanEvict
                    or kind is msg.RdOwn and not request.need_data):
                return response
        expected = self.expected_response(request)
        if not isinstance(response, expected):
            raise ProtocolError(
                "%s answered with %s, protocol requires %s"
                % (request.name, response.name, expected.__name__))
        if response.addr != request.addr:
            raise ProtocolError(
                "response address 0x%x does not match request 0x%x"
                % (response.addr, request.addr))
        if isinstance(request, msg.RdShared) and response.state != "S":
            raise ProtocolError("RdShared must be granted S, got %s"
                                % response.state)
        if (isinstance(request, msg.RdOwn) and request.need_data
                and response.state != "M"):
            raise ProtocolError("RdOwn must be granted M, got %s"
                                % response.state)
        return response
