"""Dynamic persistency sanitizers (PaxSan / WalSan).

Runtime complement to static analysis (:mod:`repro.staticcheck`), which
catches bug *patterns* in the source; the sanitizers catch persist-order
violations as they *happen* in a simulation, by shadowing every PM cache
line with a persist-state machine (clean → dirty-in-cache → logged →
durable) fed from tracer hooks in the coherence, logging, and commit
paths. See docs/analysis-tools.md for the rule catalogue and wiring.

Quick start::

    from repro.sanitizer import PaxSanitizer
    pool = PaxPool.map_pool(...)
    san = PaxSanitizer().attach(pool.machine)
    ... workload ...            # raises SanitizerError on a violation
    assert san.ok

The crash fuzzer runs with PaxSan attached under ``--sanitize``
(``make fuzz SANITIZE=1``).
"""

from repro.errors import SanitizerError
from repro.sanitizer.base import (
    ALL_RULES,
    RULE_FENCE_INVERSION,
    RULE_MISSING_UNDO,
    RULE_PREMATURE_COMMIT,
    RULE_UNDO_GATE,
    SanitizerBase,
    Tracer,
)
from repro.sanitizer.paxsan import PaxSanitizer
from repro.sanitizer.walsan import WalSanitizer

__all__ = [
    "ALL_RULES",
    "PaxSanitizer",
    "RULE_FENCE_INVERSION",
    "RULE_MISSING_UNDO",
    "RULE_PREMATURE_COMMIT",
    "RULE_UNDO_GATE",
    "SanitizerBase",
    "SanitizerError",
    "Tracer",
    "WalSanitizer",
]
