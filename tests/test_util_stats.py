"""Counters, histograms, and stat groups."""

import pytest

from repro.errors import StatsError
from repro.sim.rng import DeterministicRng
from repro.util.stats import Counter, Histogram, StatGroup, ratio


class TestCounter:
    def test_add_and_value(self):
        counter = Counter("x")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_negative_rejected(self):
        with pytest.raises(StatsError):
            Counter("x").add(-1)

    def test_reset(self):
        counter = Counter("x")
        counter.add(3)
        counter.reset()
        assert counter.value == 0


class TestHistogram:
    def test_mean_min_max(self):
        hist = Histogram("lat")
        for value in (1.0, 2.0, 3.0):
            hist.record(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(2.0)
        assert hist.min == 1.0
        assert hist.max == 3.0

    def test_stddev(self):
        hist = Histogram("lat")
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            hist.record(value)
        assert hist.stddev == pytest.approx(2.0)

    def test_percentile(self):
        hist = Histogram("lat")
        for value in range(1, 101):
            hist.record(float(value))
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 100.0

    def test_empty_histogram(self):
        hist = Histogram("lat")
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0

    def test_reservoir_bounded(self):
        hist = Histogram("lat")
        for value in range(10000):
            hist.record(float(value))
        assert len(hist._reservoir) <= Histogram.RESERVOIR_SIZE
        assert hist.count == 10000

    def test_reset_restores_pristine_state(self):
        hist = Histogram("lat")
        for value in (1.0, 5.0, 9.0):
            hist.record(value)
        hist.percentile(50)            # populate the sorted cache too
        hist.reset()
        assert hist.count == 0
        assert hist.total == 0.0
        assert hist.mean == 0.0
        assert hist.stddev == 0.0
        assert hist.percentile(50) == 0.0
        # A reset histogram must behave exactly like a fresh one.
        hist.record(3.0)
        assert (hist.count, hist.mean, hist.min, hist.max) == (1, 3.0, 3.0, 3.0)
        assert hist.percentile(50) == 3.0

    def test_percentile_cache_invalidated_by_new_samples(self):
        hist = Histogram("lat")
        for value in (10.0, 20.0, 30.0):
            hist.record(value)
        assert hist.percentile(50) == 20.0
        assert hist.percentile(100) == 30.0   # served from the cache
        hist.record(100.0)
        # New sample must invalidate the cached sort.
        assert hist.percentile(100) == 100.0
        assert hist.percentile(0) == 10.0


def _assert_identical(lazy, eager):
    """Every accumulator and derived read, compared bit for bit."""
    assert lazy.state() == eager.state()
    assert (lazy.count, lazy.total, lazy.min, lazy.max) \
        == (eager.count, eager.total, eager.min, eager.max)
    assert lazy._sum_sq == eager._sum_sq
    assert lazy._reservoir == eager._reservoir
    assert (lazy.mean, lazy.stddev) == (eager.mean, eager.stddev)
    for p in (0, 1, 50, 99, 99.9, 100):
        assert lazy.percentile(p) == eager.percentile(p)


class TestPendingRun:
    """A bumped run folds in exactly as the same ``record`` calls would."""

    RUN_VALUE = 1.2          # inexact in binary: order-sensitive sums

    @pytest.mark.parametrize("seed", range(4))
    def test_interleavings_match_eager_recording(self, seed):
        rng = DeterministicRng(seed)
        lazy = Histogram("lazy")
        lazy.run_value = self.RUN_VALUE
        eager = Histogram("eager")
        wrapped = 0
        for _step in range(400):
            action = rng.randint(0, 99)
            if action < 60:
                # Mostly short runs; now and then one longer than the
                # whole reservoir, or one that ends past its wrap.
                burst = rng.choice((1, 3, 17, 250, 4000, 4096, 9000))
                lazy.run += burst
                for _sample in range(burst):
                    eager.record(self.RUN_VALUE)
            elif action < 85:
                value = rng.choice((0.1, 3.7, 12.5, self.RUN_VALUE, 700.0))
                lazy.record(value)
                eager.record(value)
            elif action < 99:
                _assert_identical(lazy, eager)
            else:
                lazy.reset()
                eager.reset()
            wrapped = max(wrapped, eager.count // Histogram.RESERVOIR_SIZE)
        _assert_identical(lazy, eager)
        assert wrapped >= 2          # the ring was overwritten, twice

    @pytest.mark.parametrize("pending", (1, 2, 3, 4095, 4096, 4097, 8193))
    def test_run_into_an_empty_histogram(self, pending):
        # Small sums show a one-ulp slip that long ones round away.
        lazy = Histogram("lazy")
        lazy.run_value = self.RUN_VALUE
        lazy.run += pending
        eager = Histogram("eager")
        for _sample in range(pending):
            eager.record(self.RUN_VALUE)
        _assert_identical(lazy, eager)

    def test_reset_drops_the_run_and_keeps_its_value(self):
        hist = Histogram("h")
        hist.run_value = 2.5
        hist.run += 7
        hist.reset()
        assert (hist.count, hist.run, hist.run_value) == (0, 0, 2.5)
        hist.run += 2
        assert (hist.count, hist.total, hist.min, hist.max) \
            == (2, 5.0, 2.5, 2.5)

    def test_run_folds_before_a_later_sample(self):
        hist = Histogram("h")
        hist.run_value = 1.0
        hist.run += Histogram.RESERVOIR_SIZE
        hist.record(9.0)             # sample 4097: ring slot 1
        assert hist._reservoir[1] == 9.0
        assert hist._reservoir.count(1.0) == Histogram.RESERVOIR_SIZE - 1


class TestStatGroup:
    def test_counter_creation_and_get(self):
        group = StatGroup("owner")
        group.counter("hits").add(2)
        assert group.get("hits") == 2
        assert group.get("absent") == 0

    def test_counters_dict(self):
        group = StatGroup("owner")
        group.counter("a").add(1)
        group.counter("b").add(2)
        assert group.counters() == {"a": 1, "b": 2}

    def test_reset_all(self):
        group = StatGroup("owner")
        group.counter("a").add(1)
        group.histogram("h").record(5)
        group.reset()
        assert group.get("a") == 0
        assert group.histogram("h").count == 0

    def test_snapshot_includes_histograms(self):
        group = StatGroup("owner")
        group.histogram("h").record(4)
        snap = group.snapshot()
        assert snap["h.count"] == 1
        assert snap["h.mean"] == 4


def test_ratio():
    assert ratio(1, 2) == 0.5
    assert ratio(1, 0) == 0.0
