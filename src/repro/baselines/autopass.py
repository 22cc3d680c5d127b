"""The auto-instrumented undo-WAL backend (staticcheck ``--fix`` output).

Where :mod:`repro.baselines.pmdk` hand-instruments the hash table with
per-operation transactions, this backend binds the *generated* module
:mod:`repro.baselines._autopass_gen`: the volatile structure source
with ``begin()``/``end()`` gates inserted by the staticcheck
persist-order auto-fix pass (``python -m repro.staticcheck.autogen``).
No hand-written gate site exists on the data path — the structure code
carries the fixer's gates, and the PMDK baseline's undo accessor gives
them its semantics: first touch of a line logs its old value (TX_ADD),
commit CLWBs every dirtied line, fences, publishes the transaction id
with one store, and fences again.

Two departures from the hand-written baseline, both consequences of
auto-placement rather than choices:

* Gates nest. A gated region in ``put`` calls the allocator, whose own
  metadata stores arrive while the gate is open; the accessor commits
  only when the outermost gate closes, so allocator state rolls back
  with the operation that allocated.
* Stores *between* gated regions (the fixer only gates regions its
  must-analysis found uncovered inside one function — e.g. the
  trailing ``free`` after ``_grow``) hit the accessor at depth zero.
  Each such store runs as its own minimal transaction, so it is
  individually atomic and recovery stays sound: a crash inside one rolls
  it back, and the worst a crash between two mini-transactions can do
  is leak a free block.
"""

from repro.baselines._autopass_gen import HashMap as AutoHashMap
from repro.baselines.pmdk import UndoTxAccessor
from repro.baselines.wal import WalBackend


class AutopassAccessor(UndoTxAccessor):
    """The undo accessor behind fixer-inserted ``begin()``/``end()`` gates.

    Depth-zero stores run as a one-store mini-transaction, a safety net
    for stores the fixer left between gated regions.
    """

    def write(self, addr, data):
        if self._depth:
            super().write(addr, data)
        else:
            self.run(super().write, addr, data)

    def commit_initial(self):
        """Nothing to commit: every store of the structure's creation
        already ran as its own mini-transaction."""


class AutopassBackend(WalBackend):
    """Auto-instrumented undo-WAL hash table on PM."""

    name = "autopass"
    accessor_class = AutopassAccessor

    # The generated module, not repro.structures.hashmap: same code,
    # plus the fixer's gates, so put/remove run unwrapped.

    def _bind_structure(self, mem, allocator, capacity=1024):
        self._map = AutoHashMap.create(mem, allocator, capacity=capacity)

    def _reattach_structure(self, mem, allocator, root):
        self._map = AutoHashMap.attach(mem, allocator, root)

    @property
    def gate_count(self):
        """Committed gate transactions (auto-placed-gate accounting)."""
        return self._tx.gate_commits
