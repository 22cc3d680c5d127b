"""Crash injection and post-recovery consistency checking."""

from repro.crashtest.checker import (
    SnapshotTracker,
    check_prefix_atomic,
    verify_map_integrity,
)
from repro.crashtest.injector import CrashInjector, CrashSignal, count_stores

#: Fuzzer exports resolve lazily (PEP 562) so ``python -m
#: repro.crashtest.fuzz`` does not import the module twice.
_FUZZ_EXPORTS = ("FuzzFailure", "FuzzStats", "run_fuzz", "run_iteration")


def __getattr__(name):
    if name in _FUZZ_EXPORTS:
        from repro.crashtest import fuzz
        return getattr(fuzz, name)
    # PEP 562 requires AttributeError here for getattr()/hasattr().
    raise AttributeError(  # lint: ignore[typed-errors]
        "module %r has no attribute %r" % (__name__, name))


__all__ = [
    "CrashInjector",
    "CrashSignal",
    "FuzzFailure",
    "FuzzStats",
    "SnapshotTracker",
    "check_prefix_atomic",
    "count_stores",
    "run_fuzz",
    "run_iteration",
    "verify_map_integrity",
]
