"""The cache-coherent interconnect between host and device.

Charges a fixed one-way hop latency per message plus a fluid-model
bandwidth queueing delay (:class:`~repro.sim.bandwidth.BandwidthLimiter`).
Two presets mirror the paper's two targets: ``cxl`` (the forthcoming
CXL 2.0 FPGA) and ``enzian`` (the ThunderX-1/ECI prototype whose hop
latency the paper estimates costs ~2x the CXL version end to end).
"""

import math

from repro.errors import ConfigError
from repro.sim.bandwidth import BandwidthLimiter
from repro.util.stats import StatGroup


class CxlLink:
    """A bidirectional host<->device link with latency and bandwidth."""

    def __init__(self, name, clock, one_way_ns, bytes_per_second):
        if not math.isfinite(one_way_ns):
            raise ConfigError("link latency must be finite, got %r"
                              % (one_way_ns,))
        if one_way_ns < 0:
            raise ConfigError("link latency cannot be negative")
        self.name = name
        self.one_way_ns = one_way_ns
        self._clock = clock
        self._h2d = BandwidthLimiter(name + ".h2d", clock, bytes_per_second)
        self._d2h = BandwidthLimiter(name + ".d2h", clock, bytes_per_second)
        #: Optional :class:`~repro.sanitizer.base.Tracer`: each hop emits
        #: a "link" span (queueing delay included) when one is attached.
        self.tracer = None
        self.stats = StatGroup(name)
        # Per-message counters bound once (hot-path-stat-lookup rule).
        self._c_h2d_messages = self.stats.counter("h2d_messages")
        self._c_h2d_bytes = self.stats.counter("h2d_bytes")
        self._c_d2h_messages = self.stats.counter("d2h_messages")
        self._c_d2h_bytes = self.stats.counter("d2h_bytes")

    @classmethod
    def from_model(cls, name, clock, latency_model):
        """Build a link from a named preset in the latency model."""
        one_way = latency_model.link_one_way_ns(name)
        bandwidth = {
            "cxl": latency_model.bandwidth.cxl_bps,
            "enzian": latency_model.bandwidth.enzian_bps,
            "smp": latency_model.bandwidth.dram_bps,
        }.get(name)
        if bandwidth is None:
            raise ConfigError("no bandwidth preset for link %r" % (name,))
        return cls(name, clock, one_way, bandwidth)

    def send_h2d(self, message):
        """Host-to-device hop; returns latency_ns."""
        wire_bytes = message.wire_bytes
        self._c_h2d_messages.value += 1
        self._c_h2d_bytes.value += wire_bytes
        latency = self.one_way_ns + self._h2d.submit(wire_bytes)
        tracer = self.tracer
        if tracer is not None:
            tracer.on_span("link", "h2d", self._clock.now_ns, latency,
                           {"type": type(message).__name__,
                            "bytes": wire_bytes})
        return latency

    def send_d2h(self, message):
        """Device-to-host hop; returns latency_ns."""
        wire_bytes = message.wire_bytes
        self._c_d2h_messages.value += 1
        self._c_d2h_bytes.value += wire_bytes
        latency = self.one_way_ns + self._d2h.submit(wire_bytes)
        tracer = self.tracer
        if tracer is not None:
            tracer.on_span("link", "d2h", self._clock.now_ns, latency,
                           {"type": type(message).__name__,
                            "bytes": wire_bytes})
        return latency

    def round_trip(self, request, response):
        """Latency of a request/response pair."""
        return self.send_h2d(request) + self.send_d2h(response)

    def __repr__(self):
        return "CxlLink(%s, %.0f ns one-way)" % (self.name, self.one_way_ns)
