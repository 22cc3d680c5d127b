"""Latency and bandwidth constants for every medium and interconnect.

The numbers reproduce the sources the paper cites for its Figure 2a AMAT
analysis:

* CPU cache levels — typical Skylake-SP (Cloudlab c6420) latencies.
* Optane DC PMEM — Yang et al., "An Empirical Guide to the Behavior and
  Use of Scalable Persistent Memory" (FAST '20): ~305 ns random read,
  ~94 ns sequential read-ish, write ~ADR buffered; read BW ~40 GB/s/socket,
  write BW ~14 GB/s (paper §5.1 quotes exactly these).
* CXL — expected round-trip add-on for a CXL.cache device (~70 ns each
  direction over PCIe 5 PHY; the paper's 25%-AMAT-overhead estimate implies
  a device hop in the low hundreds of ns).
* Enzian — measured ECI coherence latency is several times higher than the
  CXL projection; the paper estimates an Enzian PAX at ~2x the CXL PAX.

Absolute fidelity is impossible without the testbed; these defaults are
chosen from the public numbers so the *ratios* in Fig 2a reproduce. All of
them are plain dataclass fields, so ablation benchmarks can sweep them.
"""

import math
from dataclasses import dataclass, field, fields

from repro.errors import ConfigError


def _check_finite(model):
    """Raise :class:`ConfigError` naming the first NaN or infinite field.

    NaN compares false against every bound, so the range checks below
    would let it through; one NaN latency turns the simulated clock into
    NaN on the first access that charges it.
    """
    for item in fields(model):
        value = getattr(model, item.name)
        if not math.isfinite(value):
            raise ConfigError("%s.%s must be finite, got %r"
                              % (type(model).__name__, item.name, value))


@dataclass
class CacheLatency:
    """Load-to-use latencies for the CPU cache hierarchy (nanoseconds)."""

    l1_ns: float = 1.2        # ~4 cycles @ 3.3 GHz
    l2_ns: float = 4.2        # ~14 cycles
    llc_ns: float = 19.5      # ~64 cycles, Skylake-SP mesh
    cross_core_ns: float = 42.0  # dirty-line transfer between cores

    def validate(self):
        """Raise :class:`ConfigError` on invalid cache latencies."""
        _check_finite(self)
        if not (0 < self.l1_ns <= self.l2_ns <= self.llc_ns):
            raise ConfigError("cache latencies must be positive and ordered")
        if self.cross_core_ns < 0:
            raise ConfigError("cross-core latency cannot be negative")


@dataclass
class MediaLatency:
    """Latencies of the memory media behind the LLC (nanoseconds)."""

    dram_ns: float = 81.0          # local DDR4 on c6420
    pm_read_ns: float = 305.0      # Optane random read (FAST '20)
    pm_write_ns: float = 94.0      # store reaching ADR write-pending queue
    hbm_ns: float = 106.0          # on-device HBM access

    def validate(self):
        """Raise :class:`ConfigError` on invalid media latencies."""
        _check_finite(self)
        if min(self.dram_ns, self.pm_read_ns, self.pm_write_ns, self.hbm_ns) <= 0:
            raise ConfigError("media latencies must be positive")


@dataclass
class LinkLatency:
    """One-way interconnect hop latencies (nanoseconds)."""

    cxl_ns: float = 35.0          # one-way CXL.cache hop (70 ns round trip)
    enzian_ns: float = 80.0       # one-way ECI hop; sized so the Enzian
                                  # PAX's AMAT overhead is ~2x the CXL
                                  # PAX's, the paper's own §5 estimate
    smp_ns: float = 0.0           # host-local access, no device hop

    def validate(self):
        """Raise :class:`ConfigError` on invalid link latencies."""
        _check_finite(self)
        if self.cxl_ns < 0 or self.enzian_ns < 0 or self.smp_ns < 0:
            raise ConfigError("link latencies cannot be negative")


@dataclass
class Bandwidth:
    """Peak sustainable bandwidths in bytes per second."""

    dram_bps: float = 100e9          # ~100 GB/s per socket DDR4
    pm_read_bps: float = 40e9        # Optane socket read peak (paper §5.1)
    pm_write_bps: float = 14e9       # Optane socket write peak (paper §5.1)
    cxl_bps: float = 63e9            # CXL/PCIe5 x16 full duplex (paper §5.1)
    enzian_bps: float = 30e9         # 24 x 10 Gb/s lanes

    def validate(self):
        """Raise :class:`ConfigError` on invalid bandwidths."""
        _check_finite(self)
        values = (self.dram_bps, self.pm_read_bps, self.pm_write_bps,
                  self.cxl_bps, self.enzian_bps)
        if min(values) <= 0:
            raise ConfigError("bandwidths must be positive")


@dataclass
class SoftwareCosts:
    """Costs of software events the baselines model (nanoseconds)."""

    page_fault_ns: float = 1200.0   # write-protect trap (paper: >1 us)
    sfence_ns: float = 35.0         # drain store buffer / ordering stall
    clwb_ns: float = 25.0           # issue cost of one CLWB
    log_append_cpu_ns: float = 18.0  # CPU instructions to build a WAL entry
    syscall_ns: float = 500.0       # kernel boundary crossing

    def validate(self):
        """Raise :class:`ConfigError` on invalid software costs."""
        _check_finite(self)
        if min(self.page_fault_ns, self.sfence_ns, self.clwb_ns,
               self.log_append_cpu_ns, self.syscall_ns) < 0:
            raise ConfigError("software costs cannot be negative")


@dataclass
class LatencyModel:
    """The full latency/bandwidth configuration for one simulated machine."""

    cache: CacheLatency = field(default_factory=CacheLatency)
    media: MediaLatency = field(default_factory=MediaLatency)
    link: LinkLatency = field(default_factory=LinkLatency)
    bandwidth: Bandwidth = field(default_factory=Bandwidth)
    software: SoftwareCosts = field(default_factory=SoftwareCosts)

    def validate(self):
        """Raise :class:`ConfigError` if any sub-model is inconsistent."""
        self.cache.validate()
        self.media.validate()
        self.link.validate()
        self.bandwidth.validate()
        self.software.validate()
        return self

    def device_round_trip_ns(self, link_name):
        """Round-trip host<->device latency for ``link_name``.

        ``link_name`` is one of ``"cxl"``, ``"enzian"``, ``"smp"``.
        """
        one_way = self.link_one_way_ns(link_name)
        return 2.0 * one_way

    def link_one_way_ns(self, link_name):
        """One-way hop latency for a named interconnect."""
        try:
            return {
                "cxl": self.link.cxl_ns,
                "enzian": self.link.enzian_ns,
                "smp": self.link.smp_ns,
            }[link_name]
        except KeyError:
            raise ConfigError("unknown link %r" % (link_name,)) from None


def default_model():
    """Return a validated :class:`LatencyModel` with the paper's defaults."""
    return LatencyModel().validate()
