"""Bandwidth meter and fluid-model limiter."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.sim.bandwidth import BandwidthLimiter, BandwidthMeter
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng


class TestMeter:
    def test_counts_bytes(self):
        meter = BandwidthMeter("m", SimClock())
        meter.record(100)
        meter.record(28)
        assert meter.bytes_moved == 128

    def test_achieved_rate(self):
        clock = SimClock()
        meter = BandwidthMeter("m", clock)
        meter.record(1000)
        clock.advance(1000)          # 1000 B in 1000 ns = 1 GB/s
        assert meter.achieved_bps() == pytest.approx(1e9)

    def test_no_time_no_rate(self):
        meter = BandwidthMeter("m", SimClock())
        meter.record(100)
        assert meter.achieved_bps() == 0.0

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            BandwidthMeter("m", SimClock()).record(-1)


class TestLimiter:
    def test_zero_rate_rejected(self):
        with pytest.raises(ConfigError):
            BandwidthLimiter("l", SimClock(), 0)

    def test_unloaded_transfer_has_no_delay(self):
        limiter = BandwidthLimiter("l", SimClock(), 1e9)
        assert limiter.submit(64) == 0.0

    def test_backlog_builds_queue_delay(self):
        limiter = BandwidthLimiter("l", SimClock(), 1e9)  # 1 B/ns
        limiter.submit(1000)
        delay = limiter.submit(64)
        assert delay == pytest.approx(1000.0)   # wait for 1000 B backlog

    def test_backlog_drains_with_time(self):
        clock = SimClock()
        limiter = BandwidthLimiter("l", clock, 1e9)
        limiter.submit(1000)
        clock.advance(600)
        assert limiter.backlog_bytes == pytest.approx(400.0)
        clock.advance(10_000)
        assert limiter.backlog_bytes == 0.0

    def test_service_time(self):
        limiter = BandwidthLimiter("l", SimClock(), 2e9)
        assert limiter.service_time_ns(128) == pytest.approx(64.0)

    def test_stall_statistics(self):
        limiter = BandwidthLimiter("l", SimClock(), 1e9)
        limiter.submit(100)
        limiter.submit(100)
        assert limiter.stats.get("stalled_transfers") == 1


def _delays(rate, seed, read_backlog):
    """Submit a seeded random burst pattern; return every delay's bits.

    Simulated time advances twice between transfers; with
    ``read_backlog`` the backlog is read in between.
    """
    rng = DeterministicRng(seed)
    clock = SimClock()
    limiter = BandwidthLimiter("l", clock, rate)
    delays = []
    for _step in range(40):
        clock.advance(rng.random() * 40.0)
        if read_backlog:
            limiter.backlog_bytes
        clock.advance(rng.random() * 40.0)
        delays.append(limiter.submit(rng.choice((16, 64, 80, 96))).hex())
    return delays


class TestBacklogIsAPureRead:
    @pytest.mark.parametrize("rate", [1e9, 16e9])
    def test_interleaved_reads_leave_every_delay_bit_identical(self, rate):
        for seed in range(300):
            assert _delays(rate, seed, True) == _delays(rate, seed, False), \
                "seed %d" % seed

    def test_reading_twice_agrees(self):
        clock = SimClock()
        limiter = BandwidthLimiter("l", clock, 1e9)
        limiter.submit(1000)
        clock.advance(333.3)
        first = limiter.backlog_bytes
        assert limiter.backlog_bytes == first == pytest.approx(666.7)

    def test_backlog_matches_the_next_submit(self):
        clock = SimClock()
        limiter = BandwidthLimiter("l", clock, 1e9)
        limiter.submit(1000)
        clock.advance(250.5)
        backlog = limiter.backlog_bytes
        assert limiter.submit(0) == backlog * 1e9 / 1e9


@pytest.mark.parametrize("rate", [float("nan"), float("inf"),
                                  float("-inf")])
def test_non_finite_rate_rejected(rate):
    with pytest.raises(ConfigError, match="must be finite"):
        BandwidthLimiter("l", SimClock(), rate)
