"""Persistence primitives: CLWB / SFENCE cost modelling.

Hand-crafted PM code (the PMDK-style baseline) must explicitly write dirty
lines back (`CLWB`) and order those write-backs against subsequent stores
(`SFENCE`). The paper's core argument (§2) is that these ordering stalls,
incurred several times per logical operation, are what PAX eliminates.

:class:`FlushModel` charges those costs to a simulated clock and counts
them, so benchmarks can report both time and flush counts.
"""

from repro.errors import AddressError
from repro.util.constants import CACHE_LINE_SIZE
from repro.util.stats import StatGroup

#: log2(line size): ``addr >> _LINE_SHIFT`` is the line number of ``addr``.
_LINE_SHIFT = CACHE_LINE_SIZE.bit_length() - 1


class FlushModel:
    """Charges CLWB/SFENCE costs against a :class:`~repro.sim.clock.SimClock`."""

    def __init__(self, clock, latency_model):
        self._clock = clock
        self._lat = latency_model
        #: Optional tracer told about flushes and fences (WalSan).
        self.tracer = None
        self.stats = StatGroup("flush")
        # Per-flush counters bound once (hot-path-stat-lookup rule).
        self._c_clwb_lines = self.stats.counter("clwb_lines")
        self._c_sfences = self.stats.counter("sfences")

    def clwb(self, addr, length):
        """Write back every cache line covering ``[addr, addr+length)``.

        Charges the issue cost per line plus the PM write latency for the
        final line (CLWBs pipeline; the trailing SFENCE pays the rest).
        """
        if length <= 0:
            if length < 0:
                raise AddressError("size must be non-negative, got %d"
                                   % length)
            return 0.0
        # The number of lines repro.util.bitops.lines_covering would
        # list, counted without building the list.
        lines = (((addr + length - 1) >> _LINE_SHIFT)
                 - (addr >> _LINE_SHIFT) + 1)
        cost = lines * self._lat.software.clwb_ns
        self._c_clwb_lines.value += lines
        if self.tracer is not None:
            self.tracer.on_clwb(addr, lines)
        self._clock.advance(cost)
        return cost

    def sfence(self):
        """Order prior write-backs; stall until they reach the ADR domain."""
        cost = self._lat.software.sfence_ns + self._lat.media.pm_write_ns
        self._c_sfences.value += 1
        if self.tracer is not None:
            self.tracer.on_fence()
        self._clock.advance(cost)
        return cost

    def persist_range(self, addr, length):
        """The canonical CLWB-all-lines-then-SFENCE sequence."""
        total = self.clwb(addr, length)
        total += self.sfence()
        return total

    @property
    def sfence_count(self):
        """Number of ordering stalls charged so far."""
        return self.stats.get("sfences")
