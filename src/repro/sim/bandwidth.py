"""Bandwidth accounting.

Latency tells you how long one access takes in isolation; bandwidth caps
how many can complete per second under load. The throughput model for
Figure 2b needs both: per-thread latency sets the un-contended rate, and
media bandwidth ceilings flatten the scaling curves (PM write bandwidth is
what bends the PM-direct and PMDK curves in the paper).

:class:`BandwidthMeter` tracks bytes moved against simulated time and
reports achieved rates. :class:`BandwidthLimiter` additionally computes the
queueing delay a transfer must absorb when the medium is saturated, using a
simple fluid model: the medium drains at ``bytes_per_second``; a transfer
arriving while backlog exists waits for its share of the backlog to drain.
"""

import math

from repro.errors import ConfigError, SimulationError
from repro.util.stats import StatGroup


class BandwidthMeter:
    """Counts bytes transferred; reports achieved bytes/second."""

    def __init__(self, name, clock):
        self.name = name
        self._clock = clock
        self._start_ns = clock.now_ns
        self.stats = StatGroup(name)
        # Per-transfer counters bound once (hot-path-stat-lookup rule).
        self._c_bytes = self.stats.counter("bytes")
        self._c_transfers = self.stats.counter("transfers")

    def record(self, num_bytes):
        """Account ``num_bytes`` moved at the current simulated time."""
        if num_bytes < 0:
            raise SimulationError("cannot transfer negative bytes")
        self._c_bytes.value += num_bytes
        self._c_transfers.value += 1

    @property
    def bytes_moved(self):
        """Total bytes recorded so far."""
        return self._c_bytes.value

    def achieved_bps(self):
        """Achieved bytes/second since construction (0 if no time passed)."""
        elapsed_ns = self._clock.now_ns - self._start_ns
        if elapsed_ns <= 0:
            return 0.0
        return self.bytes_moved * 1e9 / elapsed_ns


class BandwidthLimiter:
    """A fluid-model link/medium with a fixed drain rate.

    ``submit(num_bytes)`` returns the extra queueing delay (ns) the caller
    should charge on top of its base latency. The internal backlog drains
    continuously at ``bytes_per_second`` as simulated time advances.
    """

    def __init__(self, name, clock, bytes_per_second):
        if not math.isfinite(bytes_per_second):
            raise ConfigError("bandwidth must be finite for %s, got %r"
                              % (name, bytes_per_second))
        if bytes_per_second <= 0:
            raise ConfigError("bandwidth must be positive for %s" % name)
        self.name = name
        self._clock = clock
        self._rate = bytes_per_second
        self._backlog_bytes = 0.0
        self._last_ns = clock.now_ns
        self.stats = StatGroup(name)
        # Per-transfer counters bound once (hot-path-stat-lookup rule).
        self._c_bytes = self.stats.counter("bytes")
        self._c_transfers = self.stats.counter("transfers")
        self._c_stalled = self.stats.counter("stalled_transfers")
        self._h_queue_delay = self.stats.histogram("queue_delay_ns")

    def submit(self, num_bytes):
        """Queue a transfer; return queueing delay in nanoseconds.

        First drains the backlog for the simulated time elapsed since
        the last drain, reading the clock once.
        """
        if num_bytes < 0:
            raise SimulationError("cannot transfer negative bytes")
        backlog = self._backlog_bytes
        now = self._clock.now_ns
        elapsed_ns = now - self._last_ns
        if elapsed_ns > 0:
            backlog -= self._rate * elapsed_ns / 1e9
            if not backlog > 0.0:
                backlog = 0.0
            self._last_ns = now
        delay_ns = backlog * 1e9 / self._rate
        self._backlog_bytes = backlog + num_bytes
        self._c_bytes.value += num_bytes
        self._c_transfers.value += 1
        if delay_ns > 0:
            self._c_stalled.value += 1
            self._h_queue_delay.record(delay_ns)
        return delay_ns

    @property
    def backlog_bytes(self):
        """Current un-drained backlog (after accounting elapsed time).

        The drain :meth:`submit` would apply now, computed without
        storing it: reading the backlog between transfers cannot change
        the rounding of later delays.
        """
        backlog = self._backlog_bytes
        elapsed_ns = self._clock.now_ns - self._last_ns
        if elapsed_ns > 0:
            backlog -= self._rate * elapsed_ns / 1e9
            if not backlog > 0.0:
                backlog = 0.0
        return backlog

    def service_time_ns(self, num_bytes):
        """Pure transfer time of ``num_bytes`` at the drain rate."""
        return num_bytes * 1e9 / self._rate
