"""Memory homes below the last-level cache.

A *home* services LLC misses and receives dirty write-backs for the
physical range it owns. Host-homed media (DRAM, PM behind the host memory
controller) answer directly with media latency. The PAX device is also a
home — for the vPM range — but lives in :mod:`repro.libpax.machine`
because it answers over a CXL link; it implements this same interface.

The ``grants_exclusive`` flag is the load-path policy hook the PAX design
needs: host-homed lines may be granted E on a sole-reader load (normal
MESI), but a device home must answer loads with S so that the *first store
to every line is observable* — otherwise a silent E->M upgrade would skip
undo logging (paper §3.2).
"""

from repro.util.stats import StatGroup


class Home:
    """Interface between the cache hierarchy and a memory home."""

    #: May a sole-reader load be granted the E state?
    grants_exclusive = True

    def acquire(self, line_addr, exclusive, need_data):
        """Service a line request from the LLC miss path.

        ``exclusive`` is True for stores (RdOwn) and False for loads
        (RdShared). ``need_data`` is False when the host already holds the
        bytes and only needs permission (an S->M upgrade). Returns
        ``(data_or_None, latency_ns)``.
        """
        raise NotImplementedError

    def writeback(self, line_addr, data):
        """Accept a dirty line evicted from the LLC. Returns latency_ns."""
        raise NotImplementedError


class HostHome(Home):
    """DRAM or PM attached to the host memory controller.

    Reads and writes go straight to the backing device through the system
    address space; latency comes from the media model. This is the home
    used by the DRAM and PM-direct configurations in Figure 2.
    """

    grants_exclusive = True

    def __init__(self, name, space, read_ns, write_ns, clock=None,
                 read_limiter=None, write_limiter=None):
        self.name = name
        self._space = space
        self._read_ns = read_ns
        self._write_ns = write_ns
        self._read_limiter = read_limiter
        self._write_limiter = write_limiter
        self.stats = StatGroup(name)
        # Per-miss counters bound once (hot-path-stat-lookup rule).
        self._c_acquires = self.stats.counter("acquires")
        self._c_line_reads = self.stats.counter("line_reads")
        self._c_line_writebacks = self.stats.counter("line_writebacks")

    def acquire(self, line_addr, exclusive, need_data):
        self._c_acquires.value += 1
        if not need_data:
            # Host-internal permission upgrade: the directory handles it;
            # no media access happens.
            return None, 0.0
        data = self._space.read(line_addr, 64)
        latency = self._read_ns
        if self._read_limiter is not None:
            latency += self._read_limiter.submit(64)
        self._c_line_reads.value += 1
        return data, latency

    def writeback(self, line_addr, data):
        self._space.write(line_addr, data)
        latency = self._write_ns
        if self._write_limiter is not None:
            latency += self._write_limiter.submit(len(data))
        self._c_line_writebacks.value += 1
        return latency

    def __repr__(self):
        return "HostHome(%s)" % self.name
