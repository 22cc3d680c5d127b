"""Derived cache statistics: per-level hit/miss rates and AMAT inputs.

The Figure 2a analysis (:mod:`repro.analysis.amat`) combines the miss
rates measured here with the latency model, exactly as the paper combines
measured c6420 miss rates with published media latencies.
"""

from dataclasses import dataclass

from repro.util.stats import ratio


@dataclass
class MissRates:
    """Fraction of accesses that miss at each level, plus raw counts."""

    accesses: int
    l1_hits: int
    l2_hits: int
    llc_hits: int
    memory_fetches: int
    cross_core: int = 0

    @classmethod
    def from_hierarchy(cls, hierarchy):
        """Extract miss rates from a :class:`CacheHierarchy`'s counters.

        An "access" here is one per-line coherence walk; multi-line loads
        count once per line.
        """
        stats = hierarchy.stats
        l1 = stats.get("l1_hits")
        l2 = stats.get("l2_hits")
        llc = stats.get("llc_hits")
        mem = stats.get("memory_fetches")
        cross = stats.get("cross_core_transfers")
        return cls(accesses=l1 + l2 + llc + mem + cross,
                   l1_hits=l1, l2_hits=l2, llc_hits=llc,
                   memory_fetches=mem, cross_core=cross)

    @property
    def l1_miss_rate(self):
        """Fraction of all accesses that missed L1."""
        return ratio(self.accesses - self.l1_hits, self.accesses)

    @property
    def l2_miss_rate(self):
        """Of accesses that missed L1, fraction that also missed L2."""
        missed_l1 = self.accesses - self.l1_hits
        return ratio(missed_l1 - self.l2_hits, missed_l1)

    @property
    def llc_miss_rate(self):
        """Of accesses that missed L2, fraction that also missed the LLC."""
        missed_l2 = self.accesses - self.l1_hits - self.l2_hits
        return ratio(missed_l2 - self.llc_hits - self.cross_core, missed_l2)

    @property
    def memory_access_fraction(self):
        """Fraction of all accesses serviced by a home (memory/device)."""
        return ratio(self.memory_fetches, self.accesses)
