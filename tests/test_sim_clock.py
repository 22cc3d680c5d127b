"""Simulated clock: monotonicity, callbacks, stopwatch."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.sim.clock import SimClock, StopWatch


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0

    def test_custom_start(self):
        assert SimClock(start_ns=100).now_ns == 100

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigError):
            SimClock(start_ns=-1)

    def test_advance(self):
        clock = SimClock()
        clock.advance(10)
        clock.advance(5.5)
        assert clock.now_ns == pytest.approx(15.5)

    def test_backwards_rejected(self):
        with pytest.raises(SimulationError):
            SimClock().advance(-1)

    def test_zero_advance_is_noop(self):
        clock = SimClock()
        seen = []
        clock.on_advance(lambda prev, now: seen.append((prev, now)))
        clock.advance(0)
        assert seen == []

    def test_callbacks_receive_interval(self):
        clock = SimClock()
        seen = []
        clock.on_advance(lambda prev, now: seen.append((prev, now)))
        clock.advance(10)
        clock.advance(5)
        assert seen == [(0, 10), (10, 15)]

    def test_callback_removal(self):
        clock = SimClock()
        seen = []
        callback = lambda prev, now: seen.append(now)
        clock.on_advance(callback)
        clock.advance(1)
        clock.remove_callback(callback)
        clock.advance(1)
        assert seen == [1]

    def test_registered_callbacks_count_as_busy(self):
        clock = SimClock()
        assert clock.busy == 0
        clock.on_advance(lambda prev, now: None)
        clock.on_advance(lambda prev, now: None)
        assert clock.busy == 2

    def test_idle_clock_runs_no_callbacks(self):
        clock = SimClock()
        seen = []
        clock.on_advance(lambda prev, now: seen.append((prev, now)))
        clock.busy -= 1                 # the callback went idle
        clock.advance(10)
        assert seen == []
        assert clock.now_ns == 10
        clock.busy += 1                 # work arrived
        clock.advance(5)
        assert seen == [(10, 15)]

    def test_busy_clock_runs_idle_callbacks_too(self):
        clock = SimClock()
        seen = []
        clock.on_advance(lambda prev, now: seen.append("idle"))
        clock.on_advance(lambda prev, now: seen.append("busy"))
        clock.busy -= 1                 # the first one went idle
        clock.advance(1)
        assert seen == ["idle", "busy"]

    def test_removal_uncounts_the_callback(self):
        clock = SimClock()
        first = lambda prev, now: None
        second = lambda prev, now: None
        clock.on_advance(first)
        clock.on_advance(second)
        clock.remove_callback(first)
        assert clock.busy == 1
        clock.remove_callback(first)    # absent: no-op
        assert clock.busy == 1
        clock.remove_callback(second)
        assert clock.busy == 0

    def test_reentrant_advance_inside_callback_does_not_recurse(self):
        clock = SimClock()
        calls = []

        def callback(prev, now):
            calls.append(now)
            # Background work advancing time must not re-trigger callbacks.
            clock.advance(1)

        clock.on_advance(callback)
        clock.advance(10)
        assert calls == [10]
        assert clock.now_ns == 11


class TestStopWatch:
    def test_measures_elapsed(self):
        clock = SimClock()
        watch = StopWatch(clock).start()
        clock.advance(42)
        assert watch.stop() == 42

    def test_context_manager(self):
        clock = SimClock()
        with StopWatch(clock) as watch:
            clock.advance(7)
        assert watch.elapsed_ns == 7

    def test_stop_without_start(self):
        with pytest.raises(SimulationError):
            StopWatch(SimClock()).stop()
