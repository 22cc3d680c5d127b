"""Consistency checkers: what must hold after any crash + recovery.

For snapshot schemes (PAX, mprotect) the contract is *exact*: the
recovered state equals the last persisted snapshot — not merely "some
consistent state". :class:`SnapshotTracker` records the expected dict at
every persist and verifies it after recovery. For per-op-durable schemes
(PMDK, redo, compiler) the contract is prefix-atomicity: the recovered
state equals the state after some *prefix* of completed operations, with
no torn operation visible.
"""

from repro.errors import ReproError


class SnapshotTracker:
    """Tracks the expected contents of a key-value backend across persists."""

    def __init__(self):
        self.pending = {}            # mutations since the last persist
        self.snapshot = {}           # state as of the last persist
        self.history = [{}]          # every persisted snapshot, in order
        self._tombstone = object()

    # -- mirroring the workload ------------------------------------------------

    def put(self, key, value):
        """Mirror a put()."""
        self.pending[key] = value

    def remove(self, key):
        """Mirror a remove()."""
        self.pending[key] = self._tombstone

    def persist(self):
        """Mirror a persist(): pending mutations become the snapshot."""
        for key, value in self.pending.items():
            if value is self._tombstone:
                self.snapshot.pop(key, None)
            else:
                self.snapshot[key] = value
        self.pending.clear()
        self.history.append(dict(self.snapshot))

    # -- verdicts ------------------------------------------------------------------

    def check_snapshot(self, recovered):
        """Snapshot contract: recovered == the last persisted state."""
        if recovered != self.snapshot:
            raise ReproError(
                "recovered state diverges from the last snapshot: "
                "%d recovered pairs vs %d expected; e.g. %r"
                % (len(recovered), len(self.snapshot),
                   _first_difference(recovered, self.snapshot)))
        return True


def _first_difference(got, want):
    for key in set(got) | set(want):
        if got.get(key) != want.get(key):
            return (key, got.get(key), want.get(key))
    return None


def check_prefix_atomic(recovered, operations, base_state=None,
                        min_prefix=0):
    """Per-op durability contract: recovered == state after some op prefix.

    ``operations`` is the ordered list of ``(kind, key, value)`` mutations
    issued after ``base_state``; the first ``min_prefix`` of them are
    known durable (their commit reached PM), so no shorter prefix counts.
    Returns the matching prefix length, or raises :class:`ReproError` if
    no prefix matches (a torn or a lost operation is visible).
    """
    state = dict(base_state or {})
    if recovered == state and min_prefix == 0:
        return 0
    for index, (kind, key, value) in enumerate(operations):
        if kind == "put":
            state[key] = value
        elif kind == "remove":
            state.pop(key, None)
        else:
            raise ReproError("unknown mutation kind %r" % (kind,))
        if recovered == state and index + 1 >= min_prefix:
            return index + 1
    raise ReproError(
        "recovered state matches no operation prefix of at least %d "
        "(%d pairs recovered)" % (min_prefix, len(recovered)))


def verify_map_integrity(table):
    """Structural integrity of a hash map: iteration terminates, count
    matches, and every key found by iteration is found by get()."""
    pairs = {}
    for key, value in table.items():
        if key in pairs:
            raise ReproError("duplicate key %d during iteration" % key)
        pairs[key] = value
    if len(pairs) != len(table):
        raise ReproError("count %d != iterated pairs %d"
                         % (len(table), len(pairs)))
    for key, value in pairs.items():
        if table.get(key) != value:
            raise ReproError("get(%d) disagrees with iteration" % key)
    return pairs
