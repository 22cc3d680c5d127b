"""A dropped backend frees by reference counting alone.

Every simulated machine is a tree: no component holds a bound method of
its owner, and back-references are weak proxies. So when the last
reference to a backend goes, its machine, hierarchy, PM device (and, on
PAX, the device) go with it, without waiting for a garbage collection.
A sweep builds one backend per cell; a cycle anywhere would keep every
finished cell, 8 MiB of PM included, alive until the collector ran.

Each case runs with the collector disabled, drives puts, gets and
persist, crashes and restarts where the backend declares a durability
contract, records and replays where it is recordable, drops the backend
and checks the weak references died. Observers are leaves too: the
machine holds its sanitizer or tracer, which holds only a weak proxy
back (PaxSan its machine, ``ObsTracer`` its clock).
"""

import gc
import weakref

import pytest

from repro.baselines import make_backend
from repro.baselines.pax import backend_classes
from repro.core.config import PaxConfig
from repro.faults import FaultyPmDevice, LinkFaultSpec
from repro.obs import ObsTracer
from repro.replay import record, replay_trace
from repro.sanitizer import PaxSanitizer, WalSanitizer
from tests.conftest import small_cache_kwargs

POOL = 1024 * 1024
LOG = 64 * 1024


def _kwargs(name, **extra):
    if name in ("pax", "hybrid"):
        kwargs = dict(pool_size=POOL, log_size=LOG, capacity=16)
    else:
        kwargs = dict(heap_size=POOL, capacity=16)
    kwargs.update(small_cache_kwargs())
    kwargs.update(extra)
    return kwargs


#: (case id, backend name, keyword arguments factory). The PAX shapes
#: are those the sweep and the crash fuzzer build: mechanisms at both
#: sites, CXL.mem, the Enzian link, two cores, and a lossy link over
#: faulty PM.
CASES = [(name, name, lambda name=name: _kwargs(name))
         for name in sorted(backend_classes())] + [
    ("pax-mechanisms", "pax", lambda: _kwargs(
        "pax", mechanisms="victim:32",
        pax_config=PaxConfig(mechanisms="stream:4x4", hbm_lines=64))),
    ("pax-cxl.mem", "pax", lambda: _kwargs("pax", protocol="cxl.mem")),
    ("pax-enzian", "pax", lambda: _kwargs("pax", link="enzian")),
    ("pax-2-cores", "pax", lambda: _kwargs("pax", num_cores=2)),
    ("pax-lossy", "pax", lambda: _kwargs(
        "pax", link_faults=LinkFaultSpec(drop_rate=0.05, seed=3),
        pm_device=FaultyPmDevice("pm0", POOL))),
]


#: (case id, backend name, attach an observer to the backend).
OBSERVED = [
    ("pax-paxsan", "pax",
     lambda backend: PaxSanitizer().attach(backend.machine)),
    ("hybrid-paxsan", "hybrid",
     lambda backend: PaxSanitizer().attach(backend.machine)),
    ("pax-obstracer", "pax", lambda backend: ObsTracer().attach(backend)),
    ("pmdk-walsan", "pmdk", lambda backend: WalSanitizer().attach(backend)),
    ("pmdk-obstracer", "pmdk", lambda backend: ObsTracer().attach(backend)),
]


def _drive(backend):
    for key in range(40):
        backend.put(key, key * 3)
    for key in range(0, 40, 3):
        backend.get(key)
    backend.persist()
    for key in range(10):
        backend.put(key, key + 1)


def _graph(backend):
    """Weak references to the machine and its big parts."""
    machine = backend.machine
    parts = [machine, machine.hierarchy,
             getattr(machine, "pm", None) or machine.memory]
    device = getattr(machine, "device", None)
    if device is not None:
        parts.append(device)
    return [weakref.ref(part) for part in parts]


@pytest.fixture
def no_gc():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_dropped_backend_frees_without_a_collection(case, no_gc):
    _case_id, name, kwargs = case
    backend = make_backend(name, **kwargs())
    refs = []
    if backend.recordable and backend.machine.hierarchy.num_cores == 1:
        trace = record(backend, lambda live, _recorder: _drive(live))
        replayed = make_backend(name, **kwargs())
        replay_trace(trace, replayed)
        refs += _graph(replayed)
        del replayed
    else:
        _drive(backend)
    backend.persist()
    if backend.durability != "none":
        # A restart replaces the hierarchy (and a PAX device); the
        # replaced parts must go too.
        refs += _graph(backend)
        backend.machine.crash()
        backend.restart()
        for key in range(5):
            assert backend.get(key) is not None
        backend.persist()
    refs += _graph(backend)
    del backend
    _assert_dead(refs)


@pytest.mark.parametrize("case", OBSERVED, ids=[case[0] for case in OBSERVED])
def test_observed_backend_frees_without_a_collection(case, no_gc):
    _case_id, name, attach = case
    backend = make_backend(name, **_kwargs(name))
    observer = attach(backend)
    _drive(backend)
    backend.persist()
    refs = _graph(backend)
    backend.machine.crash()
    backend.restart()
    backend.persist()
    refs += _graph(backend)
    del backend
    _assert_dead(refs)
    # The observer outlives its machine and keeps what it gathered.
    if isinstance(observer, ObsTracer):
        assert observer.events()
    else:
        assert observer.ok


def _assert_dead(refs):
    alive = [ref() for ref in refs if ref() is not None]
    assert not alive, "still alive after del: %r" % (alive,)
