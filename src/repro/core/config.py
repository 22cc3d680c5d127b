"""PAX device configuration."""

import math
from dataclasses import dataclass

from repro.errors import ConfigError

#: The numeric knobs :meth:`PaxConfig.validate` requires to be finite.
_NUMERIC = ("hbm_lines", "writeback_buffer_lines", "log_drain_bps",
            "writeback_drain_bps", "device_processing_ns")


@dataclass
class PaxConfig:
    """Tunables of one PAX device instance.

    Defaults model the paper's target: an FPGA/ASIC device with a sizeable
    HBM cache of PM, a bounded SRAM write-back buffer, and asynchronous
    undo logging that drains at device speed. Every knob is swept by an
    ablation benchmark (DESIGN.md §4).
    """

    #: Capacity of the on-device HBM cache of PM, in cache lines.
    #: 0 disables the HBM cache entirely (ablation abl-hbm).
    hbm_lines: int = 16384

    #: Capacity of the modified-line buffer, in cache lines. Overflow
    #: forces evictions gated on undo-entry durability (paper §3.3).
    writeback_buffer_lines: int = 4096

    #: Rate at which the device drains buffered undo entries to the PM log
    #: region, bytes/second of log written.
    log_drain_bps: float = 2e9

    #: Rate of background write-back of buffered modified lines to PM.
    writeback_drain_bps: float = 2e9

    #: Log each line at most once per epoch. Safe (rollback only needs the
    #: epoch-start value) and what the paper implies; ablatable.
    dedup_log_entries: bool = True

    #: Prefer evicting buffered lines whose undo entries are already
    #: durable, avoiding a forced synchronous log pump (paper §3.3).
    prefer_durable_eviction: bool = True

    #: Fixed device pipeline cost charged per message (FPGA/ASIC service).
    device_processing_ns: float = 15.0

    #: Miss-path mechanism spec for the device's PM read path (e.g.
    #: ``"victim:32"``, ``"stream:4x4+nextline:16"``); None/"none"
    #: disables the zoo — see :mod:`repro.cache.mechanisms`.
    mechanisms: str = None

    #: Replacement policy inside the mechanisms that have one.
    mechanism_policy: str = "lru"

    def validate(self):
        """Raise :class:`ConfigError` on inconsistent settings."""
        from repro.cache.mechanisms import make_mechanisms
        make_mechanisms(self.mechanisms, self.mechanism_policy)
        for name in _NUMERIC:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError("PaxConfig.%s must be finite, got %r"
                                  % (name, value))
        if self.hbm_lines < 0:
            raise ConfigError("hbm_lines cannot be negative")
        if self.writeback_buffer_lines <= 0:
            raise ConfigError("write-back buffer needs at least one line")
        if self.log_drain_bps <= 0 or self.writeback_drain_bps <= 0:
            raise ConfigError("drain rates must be positive")
        if self.device_processing_ns < 0:
            raise ConfigError("processing cost cannot be negative")
        return self
