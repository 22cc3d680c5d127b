"""Host-side and device-side protocol ports.

:class:`DevicePort` is what the host cache hierarchy talks to: it owns the
link and the adapter, converts bus ops into CXL requests, delivers them to
the device's message handler, validates the response against the protocol,
and returns ``(payload, total_latency_ns)``.

:class:`HostSnoopPort` is the reverse direction: the device uses it during
``persist()`` to issue SnpData/SnpInv to the host and receive the host's
snoop response, with link latency charged both ways.
"""

from repro.cxl import messages as msg
from repro.cxl.adapter import BusOp, CxlAdapter
from repro.util.stats import StatGroup


class DevicePort:
    """Host -> device request path."""

    def __init__(self, link, device):
        self.link = link
        self.device = device
        self.adapter = CxlAdapter()
        self.stats = StatGroup("device_port")
        # Per-transaction counter bound once (hot-path-stat-lookup rule).
        self._c_transactions = self.stats.counter("transactions")

    def _transact(self, op, addr, data=None):
        request = self.adapter.to_cxl(op, addr, data)
        latency = self.link.send_h2d(request)
        response, service_ns = self.device.handle_message(request)
        self.adapter.check_response(request, response)
        latency += service_ns
        latency += self.link.send_d2h(response)
        self._c_transactions.value += 1
        return response, latency

    def read_shared(self, addr):
        """Load miss; returns ``(line_data, latency_ns)``."""
        response, latency = self._transact(BusOp.READ_MISS, addr)
        return response.data, latency

    def read_own(self, addr, need_data):
        """Store miss or upgrade; returns ``(line_data_or_None, latency_ns)``."""
        op = BusOp.WRITE_MISS if need_data else BusOp.WRITE_UPGRADE
        response, latency = self._transact(op, addr)
        payload = response.data if isinstance(response, msg.DataResponse) else None
        return payload, latency

    def evict_dirty(self, addr, data):
        """Dirty LLC victim travels to the device; returns latency_ns."""
        _response, latency = self._transact(BusOp.EVICT_DIRTY, addr, data)
        return latency

    def evict_clean(self, addr):
        """Clean-eviction hint; returns latency_ns."""
        _response, latency = self._transact(BusOp.EVICT_CLEAN, addr)
        return latency


class MemDevicePort:
    """Host -> device path for a CXL.mem device (paper §6).

    No coherence vocabulary: just line reads and line writes. The device
    cannot snoop back — there is no device-to-host request channel in
    CXL.mem — which is exactly the visibility gap §6 discusses.
    """

    def __init__(self, link, device):
        self.link = link
        self.device = device
        self.stats = StatGroup("mem_device_port")
        # Per-access counters bound once (hot-path-stat-lookup rule).
        self._c_mem_reads = self.stats.counter("mem_reads")
        self._c_mem_writes = self.stats.counter("mem_writes")

    def read_line(self, addr):
        """MemRd; returns ``(line_data, latency_ns)``."""
        request = msg.MemRd(addr)
        latency = self.link.send_h2d(request)
        response, service_ns = self.device.handle_message(request)
        latency += service_ns + self.link.send_d2h(response)
        self._c_mem_reads.value += 1
        return response.data, latency

    def write_line(self, addr, data):
        """MemWr; returns latency_ns."""
        request = msg.MemWr(addr, data)
        latency = self.link.send_h2d(request)
        response, service_ns = self.device.handle_message(request)
        latency += service_ns + self.link.send_d2h(response)
        self._c_mem_writes.value += 1
        return latency


class HostSnoopPort:
    """Device -> host snoop path (used by ``persist()``)."""

    def __init__(self, link, hierarchy):
        self.link = link
        self.hierarchy = hierarchy
        self.stats = StatGroup("host_snoop_port")
        # Per-snoop counters bound once (hot-path-stat-lookup rule).
        self._c_snp_data = self.stats.counter("snp_data")
        self._c_dirty_pulls = self.stats.counter("dirty_pulls")
        self._c_snp_inv = self.stats.counter("snp_inv")

    def snoop_shared(self, addr):
        """Issue SnpData; returns ``(data_or_None, latency_ns)``.

        ``data`` is the host's modified copy if any cache held the line
        dirty, else None (the device's own copy is current).
        """
        request = msg.SnpData(addr)
        latency = self.link.send_d2h(request)
        fresh = self.hierarchy.snoop_shared(addr)
        response = msg.SnpResponse(addr, fresh)
        latency += self.link.send_h2d(response)
        self._c_snp_data.value += 1
        if fresh is not None:
            self._c_dirty_pulls.value += 1
        return fresh, latency

    def snoop_invalidate(self, addr):
        """Issue SnpInv; returns ``(data_or_None, latency_ns)``."""
        request = msg.SnpInv(addr)
        latency = self.link.send_d2h(request)
        fresh = self.hierarchy.snoop_invalidate(addr)
        response = msg.SnpResponse(addr, fresh)
        latency += self.link.send_h2d(response)
        self._c_snp_inv.value += 1
        return fresh, latency
