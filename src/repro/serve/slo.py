"""SLO accounting for the serving harness.

One :class:`SloTracker` owns every serving-level series — request
latency by kind (in simulated ns), group-commit batch sizes, recovery
times, admission-control verdicts, the error budget — as a single
:class:`~repro.util.stats.StatGroup` so the existing
:class:`~repro.obs.metrics.MetricsRegistry` machinery exports it
unchanged (Prometheus text, sim-stamped snapshots, p50/p99/p999
quantiles).

Every value is simulated time or a deterministic count: two drills at
the same seed produce byte-identical exports.
"""

from repro.util.stats import StatGroup, ratio

#: Request kinds the harness serves (and buckets latency by).
REQUEST_KINDS = ("get", "put", "remove", "persist")


class SloTracker:
    """Latency/error-budget bookkeeping for one serving drill."""

    def __init__(self):
        self.stats = StatGroup("serve")
        stats = self.stats
        # Bound once; the harness bumps these on its per-request path.
        self.admitted = stats.counter("admitted")
        self.completed = stats.counter("completed")
        self.rejected_overload = stats.counter("rejected_overload")
        self.timeouts = stats.counter("timeouts")
        self.read_only_rejects = stats.counter("read_only_rejects")
        self.crash_failures = stats.counter("crash_failures")
        self.retries = stats.counter("retries")
        self.gave_up = stats.counter("gave_up")
        self.replayed = stats.counter("replayed")
        self.crashes = stats.counter("crashes")
        self.recoveries = stats.counter("recoveries")
        self.recovery_deadline_breaches = stats.counter(
            "recovery_deadline_breaches")
        self.lost_acked_writes = stats.counter("lost_acked_writes")
        self.batches = stats.counter("batches")
        self.batched_persists = stats.counter("batched_persists")
        self.storms_entered = stats.counter("storms_entered")
        self.degraded_entered = stats.counter("degraded_entered")
        self.request_ns = stats.histogram("request_ns")
        self.queue_depth = stats.histogram("queue_depth")
        self.batch_size = stats.histogram("batch_size")
        self.recovery_ns = stats.histogram("recovery_ns")
        self._by_kind = {kind: stats.histogram(kind + "_ns")
                         for kind in REQUEST_KINDS}

    # -- recording ---------------------------------------------------------

    def record_completion(self, kind, latency_ns):
        """A request finished successfully after ``latency_ns`` sim-ns."""
        self.completed.add(1)
        self.request_ns.record(latency_ns)
        histogram = self._by_kind.get(kind)
        if histogram is not None:
            histogram.record(latency_ns)

    def record_recovery(self, report, deadline_ns=None):
        """A crash/recover cycle finished; ``report`` is its RecoveryReport."""
        self.recoveries.add(1)
        self.recovery_ns.record(report.elapsed_ns)
        if deadline_ns is not None and report.elapsed_ns > deadline_ns:
            self.recovery_deadline_breaches.add(1)

    # -- verdicts ----------------------------------------------------------

    @property
    def error_budget_spent(self):
        """Fraction of admitted requests that ultimately failed."""
        return ratio(self.gave_up.value, self.admitted.value)

    def latency_percentiles(self, kind=None):
        """``(p50, p99, p999)`` of request latency in sim-ns."""
        histogram = (self.request_ns if kind is None
                     else self._by_kind[kind])
        return (histogram.percentile(50.0), histogram.percentile(99.0),
                histogram.percentile(99.9))

    def summary_lines(self):
        """Human-readable drill summary (the CLI prints these)."""
        p50, p99, p999 = self.latency_percentiles()
        lines = [
            "serve: %d admitted, %d completed, %d retries, %d gave up "
            "(error budget %.4f)"
            % (self.admitted.value, self.completed.value,
               self.retries.value, self.gave_up.value,
               self.error_budget_spent),
            "       rejected: %d overload, %d timeout, %d read-only, "
            "%d crash-failed; %d replayed after recovery"
            % (self.rejected_overload.value, self.timeouts.value,
               self.read_only_rejects.value, self.crash_failures.value,
               self.replayed.value),
            "       latency p50/p99/p999: %.0f / %.0f / %.0f sim-ns "
            "(%d samples)"
            % (p50, p99, p999, self.request_ns.count),
            "       group commit: %d batches covering %d persists "
            "(mean batch %.2f)"
            % (self.batches.value, self.batched_persists.value,
               self.batch_size.mean),
            "       chaos: %d crashes, %d recoveries (mean %.0f sim-ns, "
            "max %.0f), %d deadline breaches, %d lost acked writes"
            % (self.crashes.value, self.recoveries.value,
               self.recovery_ns.mean,
               self.recovery_ns.max if self.recovery_ns.count else 0.0,
               self.recovery_deadline_breaches.value,
               self.lost_acked_writes.value),
        ]
        return lines
