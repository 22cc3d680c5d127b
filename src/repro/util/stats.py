"""Lightweight statistics primitives used by every simulated component.

Components expose a :class:`StatGroup` of named counters and histograms
instead of ad-hoc integer attributes, so benchmarks and tests can inspect
behaviour (hit rates, log bytes written, snoops issued) through one
interface.
"""

import math

from repro.errors import StatsError


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def add(self, amount=1):
        """Increment by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise StatsError("counter %s cannot decrease" % self.name)
        self.value += amount

    def reset(self):
        """Reset to zero."""
        self.value = 0

    def __repr__(self):
        return "Counter(%s=%d)" % (self.name, self.value)


class Histogram:
    """A streaming histogram tracking count/sum/min/max and moments.

    Good enough for latency summaries without storing every sample; also
    records a small reservoir for percentile estimates in reports.

    :meth:`record` sits on the simulator's per-access critical path, so
    it does strictly O(1) arithmetic: all percentile work — sorting the
    reservoir — is deferred to :meth:`percentile` and cached there until
    new samples arrive. The very hottest sample, an L1 hit, costs no
    call at all: the owner bumps :attr:`run`, a count of not-yet-folded
    samples of the fixed value :attr:`run_value`, and :meth:`record`,
    :meth:`reset` and every reader fold that run in first — sample by
    sample, with :meth:`record`'s float operations in its order, so the
    accumulators end up bit-identical to eager recording.
    """

    RESERVOIR_SIZE = 4096

    __slots__ = ("name", "run", "run_value", "_count", "_total", "_min",
                 "_max", "_sum_sq", "_reservoir", "_sorted", "_sorted_at")

    def __init__(self, name):
        self.name = name
        #: Pending samples of :attr:`run_value`, recorded after every
        #: folded one (a plain attribute: the owner bumps it inline).
        self.run = 0
        #: The value every pending-run sample has; set once, before the
        #: first bump.
        self.run_value = 0.0
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._sum_sq = 0.0
        self._reservoir = []
        #: Sorted copy of the reservoir, valid only while ``_sorted_at``
        #: equals ``_count`` (lazily rebuilt by :meth:`percentile`).
        self._sorted = None
        self._sorted_at = -1

    def record(self, value):
        """Record one sample."""
        if self.run:
            self._fold()
        count = self._count = self._count + 1
        self._total += value
        self._sum_sq += value * value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        reservoir = self._reservoir
        if len(reservoir) < self.RESERVOIR_SIZE:
            reservoir.append(value)
        else:
            # Deterministic decimation: overwrite a rotating slot. This is
            # not statistically unbiased reservoir sampling, but it is
            # deterministic (no RNG) and fine for report percentiles.
            reservoir[count % self.RESERVOIR_SIZE] = value

    def _fold(self):
        """Record the pending run: :meth:`record` of :attr:`run_value`,
        :attr:`run` times, without the per-sample call.

        Allocates nothing the garbage collector tracks, so folding
        leaves collection timing (and so peak memory) as eager
        recording would.
        """
        pending = self.run
        self.run = 0
        value = self.run_value
        square = value * value
        total = self._total
        sum_sq = self._sum_sq
        for _ in range(pending):
            total += value
            sum_sq += square
        self._total = total
        self._sum_sq = sum_sq
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        count = self._count
        self._count = count + pending
        size = self.RESERVOIR_SIZE
        reservoir = self._reservoir
        while pending and len(reservoir) < size:
            reservoir.append(value)
            count += 1
            pending -= 1
        # Once the reservoir is full, sample number n lands in slot
        # n % size; only the run's last ``size`` samples can show.
        first = count + 1
        if pending > size:
            first += pending - size
        for n in range(first, count + 1 + pending):
            reservoir[n % size] = value

    @property
    def count(self):
        """Number of recorded samples."""
        if self.run:
            self._fold()
        return self._count

    @property
    def total(self):
        """Sum of all recorded samples."""
        if self.run:
            self._fold()
        return self._total

    @property
    def min(self):
        """Smallest recorded sample (``inf`` if empty)."""
        if self.run:
            self._fold()
        return self._min

    @property
    def max(self):
        """Largest recorded sample (``-inf`` if empty)."""
        if self.run:
            self._fold()
        return self._max

    @property
    def mean(self):
        """Arithmetic mean of all recorded samples (0 if empty)."""
        count = self.count
        if count == 0:
            return 0.0
        return self._total / count

    @property
    def stddev(self):
        """Population standard deviation of recorded samples."""
        count = self.count
        if count == 0:
            return 0.0
        mean = self._total / count
        variance = max(0.0, self._sum_sq / count - mean * mean)
        return math.sqrt(variance)

    def state(self):
        """The raw accumulators, run folded in: ``(count, total, sum of
        squares, min, max, reservoir tuple)`` — what equivalence
        fingerprints compare, so one reassociated float add shows up."""
        count = self.count
        return (count, self._total, self._sum_sq, self._min, self._max,
                tuple(self._reservoir))

    def percentile(self, p):
        """Estimate the ``p``-th percentile (0..100) from the reservoir.

        The sorted reservoir is cached, so report code querying several
        percentiles in a row (p50/p99/p999) sorts at most once between
        samples.
        """
        count = self.count
        if not self._reservoir:
            return 0.0
        if self._sorted_at != count:
            self._sorted = sorted(self._reservoir)
            self._sorted_at = count
        ordered = self._sorted
        if p <= 0:
            return ordered[0]
        if p >= 100:
            return ordered[-1]
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def reset(self):
        """Forget all samples, the pending run's included.

        Fields are reset explicitly rather than by re-calling
        ``__init__`` so subclasses with richer constructors can reuse it
        safely. :attr:`run_value` is configuration and survives.
        """
        self.run = 0
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._sum_sq = 0.0
        self._reservoir = []
        self._sorted = None
        self._sorted_at = -1

    def __repr__(self):
        return "Histogram(%s: n=%d mean=%.1f)" % (self.name, self.count, self.mean)


class StatGroup:
    """A named bag of counters and histograms owned by one component.

    ``counter(name)`` / ``histogram(name)`` are get-or-create by string
    key. Hot-path code must not pay that dict lookup per event: bind the
    returned object to an attribute at construction time and call
    ``add``/``record`` on the binding (see docs/performance.md and the
    ``hot-path-stat-lookup`` lint rule). The bound object is the same one
    the group reports, so snapshots are unaffected.
    """

    def __init__(self, owner):
        self.owner = owner
        self._counters = {}
        self._histograms = {}

    def counter(self, name):
        """Get or create the counter called ``name``."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name):
        """Get or create the histogram called ``name``."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def get(self, name):
        """Return the current value of counter ``name`` (0 if absent)."""
        if name in self._counters:
            return self._counters[name].value
        return 0

    def counters(self):
        """Return a dict of counter name -> value."""
        return {name: c.value for name, c in self._counters.items()}

    def histograms(self):
        """Return a dict of histogram name -> :class:`Histogram` object.

        The objects themselves (not copies): exporters like
        ``repro.obs.metrics`` read count/total/percentiles off them
        without another layer of indirection.
        """
        return dict(self._histograms)

    def reset(self):
        """Reset every counter and histogram in the group."""
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    def snapshot(self):
        """Return a flat dict snapshot for reporting."""
        out = dict(self.counters())
        for name, histogram in self._histograms.items():
            out[name + ".count"] = histogram.count
            out[name + ".mean"] = histogram.mean
        return out

    def __repr__(self):
        return "StatGroup(%s, %d counters)" % (self.owner, len(self._counters))


def ratio(numerator, denominator):
    """Safe division for hit-rate style metrics; 0.0 when denominator is 0."""
    if denominator == 0:
        return 0.0
    return numerator / denominator
