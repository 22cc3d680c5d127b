"""The coherence directory (host cache home agent's snoop filter).

Tracks, for every line that any core's private caches hold, which cores
hold it and in which MESI state. Invariants enforced:

* at most one core holds M or E, and then no other core holds the line;
* device-homed lines are never granted E (the PAX device must observe the
  first store to every line, so silent E->M upgrades are forbidden for
  vPM — see DESIGN.md and paper §3.2/§4).

The directory is *precise*: private-cache evictions always notify it.
"""

from repro.cache.line import MesiState
from repro.errors import ProtocolError
from repro.util.stats import StatGroup

_WRITABLE = MesiState.WRITABLE


class DirectoryEntry:
    """Sharer/owner bookkeeping for one line."""

    __slots__ = ("states",)

    def __init__(self):
        self.states = {}

    def sharers(self):
        """Cores holding the line in any valid state."""
        return list(self.states)


class Directory:
    """Maps line address -> :class:`DirectoryEntry`."""

    def __init__(self):
        self._entries = {}
        self.stats = StatGroup("directory")

    def state(self, line_addr, core):
        """MESI state of ``core`` for ``line_addr`` (I if untracked)."""
        entry = self._entries.get(line_addr)
        if entry is None:
            return MesiState.INVALID
        return entry.states.get(core, MesiState.INVALID)

    def entry(self, line_addr):
        """Return the entry, or None if no core holds the line."""
        return self._entries.get(line_addr)

    def set_state(self, line_addr, core, state):
        """Record ``core`` holding ``line_addr`` in ``state``."""
        if state == MesiState.INVALID:
            self.drop(line_addr, core)
            return
        entry = self._entries.get(line_addr)
        if entry is None:
            entry = self._entries[line_addr] = DirectoryEntry()
        states = entry.states
        if state in _WRITABLE:
            # Some other core holds the line iff ``states`` has a key
            # besides ``core``.
            if len(states) > (core in states):
                others = [c for c in states if c != core]
                raise ProtocolError(
                    "grant of %s on 0x%x while cores %r still hold it"
                    % (state, line_addr, others))
        else:
            # Only the owner (the first core holding M or E) conflicts.
            for holder, held in states.items():
                if held in _WRITABLE:
                    if holder != core:
                        raise ProtocolError(
                            "grant of S on 0x%x while core %d holds %s"
                            % (line_addr, holder, held))
                    break
        states[core] = state

    def drop(self, line_addr, core):
        """Remove ``core`` from the sharer set (private-cache eviction)."""
        entry = self._entries.get(line_addr)
        if entry is None:
            return
        entry.states.pop(core, None)
        if not entry.states:
            del self._entries[line_addr]

    def owner(self, line_addr):
        """Core holding M/E, or None."""
        entry = self._entries.get(line_addr)
        if entry is not None:
            for core, state in entry.states.items():
                if state in _WRITABLE:
                    return core
        return None

    def sharers(self, line_addr):
        """All cores holding the line."""
        entry = self._entries.get(line_addr)
        return entry.sharers() if entry is not None else []

    def lines_held(self):
        """All tracked line addresses."""
        return list(self._entries)

    def clear(self):
        """Forget everything (crash)."""
        self._entries.clear()

    def __len__(self):
        return len(self._entries)
