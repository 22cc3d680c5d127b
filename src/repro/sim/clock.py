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

    :attr:`busy` counts the registered callbacks that currently want
    ticks. A callback whose ticks would change nothing (an idle PAX
    device with no banked credit) decrements it, and increments it again,
    inline, when work arrives or before it is removed. While it is 0 an
    advance runs no callback, so a caller may add to :attr:`now_ns`
    itself, which is the same float add :meth:`advance` does.
    """

    def __init__(self, start_ns=0):
        if start_ns < 0:
            raise ConfigError("clock cannot start before time zero")
        #: Current simulated time in nanoseconds. A plain attribute, so
        #: per-event readers (bandwidth limiters, tracers) pay no call;
        #: only :meth:`advance` and idle-clock callers (above) write it.
        self.now_ns = start_ns
        #: Registered callbacks that currently want ticks.
        self.busy = 0
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
        if self.busy and not self._in_callback:
            # Guard against re-entrant advancement from inside a callback;
            # background work observes time but must not create more of it
            # recursively. Every callback runs, idle ones included: an
            # idle callback's tick is a no-op by the contract above.
            self._in_callback = True
            try:
                for callback in self._callbacks:
                    callback(previous, self.now_ns)
            finally:
                self._in_callback = False
        return self.now_ns

    def on_advance(self, callback):
        """Register ``callback(prev_ns, now_ns)``, counted as busy."""
        self._callbacks.append(callback)
        self.busy += 1

    def remove_callback(self, callback):
        """Unregister a previously registered, busy-counted callback
        (no-op if absent)."""
        if callback in self._callbacks:
            self._callbacks.remove(callback)
            self.busy -= 1

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
