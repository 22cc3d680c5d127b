"""A run holds only the memory it touches.

Every simulated medium is a zero-fill private mapping, so a 64 MiB PM
pool or DRAM heap costs resident memory only for the pages a run
writes. Each case builds a default-size machine, works it, and demands
that resident memory grew by less than a quarter of its medium. A
full-size buffer grows it by the whole medium at construction. A shared
mapping grows it by the whole medium at the fingerprint's full read,
where private pages that were never written all map the kernel's zero
page.
"""

import gc
import os

import pytest

from repro.baselines.pax import PaxBackend
from repro.libpax.machine import HostMachine
from repro.replay.equivalence import fingerprint

STATM = "/proc/self/statm"

pytestmark = pytest.mark.skipif(not os.path.exists(STATM),
                                reason="needs /proc/self/statm")


def _resident_bytes():
    with open(STATM) as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _baseline():
    """Resident bytes once earlier garbage is gone, so a late free
    cannot hide growth."""
    gc.collect()
    return _resident_bytes()


def test_default_pax_backend_holds_what_it_touches():
    before = _baseline()
    backend = PaxBackend()
    for key in range(50):
        backend.put(key, key * 7)
    backend.persist()
    assert fingerprint(backend)["sim_ns"] > 0
    grown = _resident_bytes() - before
    medium = backend.machine.pm.size
    assert medium == 64 * 1024 * 1024
    assert grown < medium // 4, "grew %.1f MiB" % (grown / 2.0 ** 20)


@pytest.mark.parametrize("media", HostMachine.MEDIA)
def test_default_host_machine_holds_what_it_touches(media):
    before = _baseline()
    machine = HostMachine(media=media)
    # A DRAM crash wipes the medium by taking a fresh mapping.
    machine.crash()
    machine.restart()
    grown = _resident_bytes() - before
    medium = machine.memory.size
    assert medium == 64 * 1024 * 1024
    assert grown < medium // 4, "grew %.1f MiB" % (grown / 2.0 ** 20)
