"""The compiler-instrumented baseline (Atlas / iDO style; paper §1-2).

A compiler pass that transforms volatile code for PM cannot see logical
operation boundaries the way a hand-crafted PMDK transaction does, so it
conservatively orders *every* store: log the old value, SFENCE, store,
CLWB, SFENCE. The paper calls this out verbatim: "Without nuanced,
structure-specific changes to code, stalls are incurred multiple times
during a single logical operation."

Implementation: same WAL machinery as the PMDK backend, but the accessor
eagerly persists every store instead of batching the flush at commit
(lines it has flushed leave the dirty set, so commit only publishes the
transaction id). Failure atomicity of whole operations still comes from an
outer per-operation region (as Atlas derives from lock scopes), so
recovery semantics match PMDK; only the hot-path cost differs.
"""

from repro.baselines.pmdk import PmdkBackend, UndoTxAccessor
from repro.util.bitops import split_lines


class PerStoreTxAccessor(UndoTxAccessor):
    """Undo logging with per-store flush+fence (no commit-time batching)."""

    def write(self, addr, data):
        data = bytes(data)
        super().write(addr, data)
        if self._depth:
            # The pass cannot prove the store is covered by a later flush,
            # so it eagerly persists it: CLWB the line(s), SFENCE. The
            # lines are durable now, so commit need not revisit them.
            lines = [line for line, _off, _len
                     in split_lines(addr, len(data))]
            self._write_back(lines)
            self._dirty.difference_update(lines)
            self._flush.sfence()


class CompilerPassBackend(PmdkBackend):
    """Per-store instrumented undo-WAL hash table on PM."""

    name = "compiler"
    accessor_class = PerStoreTxAccessor

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # The instrumented program reopens the committed heap once; the
        # loads of that re-attach are part of the construction time
        # tests/test_cache_mechanisms.py pins.
        self._reattach()
