"""Simulated time.

Everything in this package charges time to a :class:`SimClock` in
nanoseconds instead of reading the wall clock, which makes every benchmark
deterministic and lets the crash injector cut execution at an exact
simulated instant. The clock only moves forward.
"""

from repro.errors import ConfigError, SimulationError


class SimClock:
    """A monotonically advancing nanosecond clock.

    Components call :meth:`advance` to charge latency as work happens.
    Asynchronous components (the PAX undo logger, write-back coordinator)
    register tick callbacks via :meth:`on_advance`; each callback receives
    ``(previous_ns, now_ns)`` and performs whatever background work fits in
    that interval. That is how "the device logs asynchronously while the
    CPU keeps running" is modelled without real threads.
    """

    def __init__(self, start_ns=0):
        if start_ns < 0:
            raise ConfigError("clock cannot start before time zero")
        #: Current simulated time in nanoseconds. A plain attribute, so
        #: per-event readers (bandwidth limiters, tracers) pay no call;
        #: only :meth:`advance` writes it.
        self.now_ns = start_ns
        self._callbacks = []
        self._in_callback = False

    def advance(self, delta_ns):
        """Move time forward by ``delta_ns`` and run background callbacks."""
        if delta_ns < 0:
            raise SimulationError(
                "time cannot move backwards (delta=%r)" % (delta_ns,))
        if delta_ns == 0:
            return self.now_ns
        previous = self.now_ns
        self.now_ns = previous + delta_ns
        if self._callbacks and not self._in_callback:
            # Guard against re-entrant advancement from inside a callback;
            # background work observes time but must not create more of it
            # recursively.
            self._in_callback = True
            try:
                for callback in self._callbacks:
                    callback(previous, self.now_ns)
            finally:
                self._in_callback = False
        return self.now_ns

    def on_advance(self, callback):
        """Register ``callback(prev_ns, now_ns)`` to run on every advance."""
        self._callbacks.append(callback)

    def remove_callback(self, callback):
        """Unregister a previously registered callback (no-op if absent)."""
        if callback in self._callbacks:
            self._callbacks.remove(callback)

    def __repr__(self):
        return "SimClock(now=%d ns)" % self.now_ns


class StopWatch:
    """Measures elapsed simulated time between :meth:`start` and :meth:`stop`."""

    def __init__(self, clock):
        self._clock = clock
        self._start_ns = None
        self.elapsed_ns = 0

    def start(self):
        """Begin timing."""
        self._start_ns = self._clock.now_ns
        return self

    def stop(self):
        """Stop timing and return the elapsed nanoseconds."""
        if self._start_ns is None:
            raise SimulationError("stopwatch was never started")
        self.elapsed_ns = self._clock.now_ns - self._start_ns
        self._start_ns = None
        return self.elapsed_ns

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False
