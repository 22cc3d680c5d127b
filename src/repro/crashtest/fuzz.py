"""Crash-consistency fuzzing: crash point x fault plan x structure.

Each iteration builds a small PAX machine on a
:class:`~repro.faults.FaultyPmDevice`, runs a random mutation/persist
workload mirrored into a :class:`SnapshotTracker`, crashes it at a random
store count under a random :class:`~repro.faults.FaultPlan` (torn
in-flight write, metadata bit flips, lossy link), and then recovers.

Exactly two outcomes are acceptable:

``exact``
    Recovery succeeds and the structure's contents equal the last
    persisted snapshot, bit for bit, with structural integrity intact.
``detected``
    Recovery raises :class:`~repro.errors.RecoveryError` carrying a
    populated :class:`~repro.core.recovery.RecoveryReport` — the fault
    was damage the undo-log scheme cannot repair (e.g. a flipped bit in
    an interior log entry) and it was *reported*, not silently absorbed.

(A third, vanishingly rare ``link_exhausted`` outcome covers a lossy
link giving up loudly after ``max_retries`` — bounded retries working as
specified.) Everything else — a content mismatch, an untyped exception,
a ``struct.error`` escaping the recovery path — is a failure, recorded
with the iteration's seed and plan so it replays exactly.

The other targets (``--target pmdk``, ``redo``, ``compiler`` or
``autopass``: every backend that declares ``durability = "per-op"``)
fuzz a WAL *backend* instead of the PAX pool: the backend runs a random
put/remove workload mirrored into a plain dict, is cut by a
:class:`~repro.crashtest.injector.CrashInjector` at a random store
count (including mid-``put``, mid-``remove``, and mid-resize), and must
recover to the completed-op state plus at most an atomic prefix of the
in-flight operation (:func:`~repro.crashtest.checker.
check_prefix_atomic`). Under ``--sanitize`` a backend target runs with
WalSan attached, so a missing-undo or fence-inversion during the
workload is a failure even if recovery happens to get lucky.

Run from the command line::

    python -m repro.crashtest.fuzz --iterations 500 --seed 1234
    python -m repro.crashtest.fuzz --target autopass --sanitize
"""

import argparse
import sys

from repro.baselines.pax import backend_classes, make_backend
from repro.cache.cache import CacheConfig
from repro.crashtest.checker import (
    SnapshotTracker,
    check_prefix_atomic,
    verify_map_integrity,
)
from repro.errors import LinkError, RecoveryError, ReproError, SanitizerError
from repro.faults.device import FaultyPmDevice
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.libpax.pool import PaxPool
from repro.sanitizer import PaxSanitizer
from repro.sim.rng import DeterministicRng
from repro.structures.btree import BTree
from repro.structures.hashmap import HashMap

#: Structures the fuzzer alternates between (both are ordered maps from
#: the fuzzer's point of view: put/remove/get/items).
STRUCTURES = (("hashmap", HashMap), ("btree", BTree))

#: Small pool + small caches: evictions and write-backs happen within a
#: few dozen operations, so crash points land on interesting states.
POOL_SIZE = 2 * 1024 * 1024
LOG_SIZE = 64 * 1024
KEY_SPACE = 16
MAX_STORES_UNTIL_CRASH = 300

#: Backend targets ``--target`` accepts besides the default PAX pool:
#: every backend whose declared crash contract is per-op durability.
#: Tiny capacity so the workload's key space forces a mid-run resize.
BACKEND_TARGETS = tuple(name for name, cls in backend_classes().items()
                        if cls.durability == "per-op")
BACKEND_WAL_SIZE = 128 * 1024
BACKEND_CAPACITY = 4


def _small_caches():
    return dict(
        l1_config=CacheConfig(size_bytes=4 * 1024, ways=4),
        l2_config=CacheConfig(size_bytes=16 * 1024, ways=8),
        llc_config=CacheConfig(size_bytes=64 * 1024, ways=8),
    )


class FuzzFailure(ReproError):
    """One iteration violated the crash-consistency contract."""


class FuzzStats:
    """Aggregate outcome counts plus per-failure replay info."""

    def __init__(self):
        self.iterations = 0
        self.outcomes = {"exact": 0, "detected": 0, "link_exhausted": 0}
        self.crashed_in_flight = 0     # crash fired mid-operation
        self.plans_torn = 0
        self.plans_flipped = 0
        self.plans_lossy = 0
        self.failures = []             # (iteration, seed, plan, message)

    def record_plan(self, plan):
        """Tally which fault types one iteration's plan exercises."""
        self.plans_torn += bool(plan.torn_write)
        self.plans_flipped += bool(plan.bitflips)
        self.plans_lossy += plan.link is not None

    @property
    def ok(self):
        """True if every iteration held the crash-consistency contract."""
        return not self.failures

    def summary(self):
        """Multi-line human-readable report (printed by the CLI)."""
        lines = ["fuzz: %d iterations — %d exact, %d detected, "
                 "%d link-exhausted, %d FAILED"
                 % (self.iterations, self.outcomes["exact"],
                    self.outcomes["detected"],
                    self.outcomes["link_exhausted"], len(self.failures)),
                 "      plans: %d torn-write, %d bit-flip, %d lossy-link; "
                 "%d crashes cut an operation mid-flight"
                 % (self.plans_torn, self.plans_flipped, self.plans_lossy,
                    self.crashed_in_flight)]
        for iteration, seed, plan, message in self.failures[:10]:
            lines.append("  FAIL iter=%d seed=%d [%s]: %s"
                         % (iteration, seed, plan.describe(), message))
        return "\n".join(lines)


def run_iteration(seed, allow_link=True, sanitize=False, tracer=None):
    """One fuzz iteration.

    Returns ``(outcome, crashed_in_flight)`` where outcome is ``exact``,
    ``detected``, or ``link_exhausted``; raises :class:`FuzzFailure` on a
    contract violation. With ``sanitize``, PaxSan shadows the iteration
    and any persist-order violation it reports is a failure too. With
    ``tracer`` (a ``repro.obs`` :class:`~repro.obs.tracer.ObsTracer`),
    the iteration's events accumulate into its ring; combined with
    ``sanitize`` the machine's single tracer slot is shared through a
    :class:`~repro.obs.tracer.TeeTracer`.
    """
    rng = DeterministicRng(seed)
    plan = FaultPlan.random(rng.fork("plan"), allow_link=allow_link)
    _name, structure_cls = STRUCTURES[rng.randint(0, len(STRUCTURES) - 1)]

    device = FaultyPmDevice("pm0", POOL_SIZE)
    pool = PaxPool.map_pool(pm_device=device, pool_size=POOL_SIZE,
                            log_size=LOG_SIZE, link_faults=plan.link,
                            **_small_caches())
    if sanitize:
        PaxSanitizer().attach(pool.machine)
    if tracer is not None:
        sanitizer = pool.machine.tracer        # set above when sanitizing
        tracer.attach(pool.machine)
        if sanitizer is not None:
            from repro.obs.tracer import TeeTracer
            pool.machine.attach_tracer(TeeTracer([sanitizer, tracer]))
        tracer.instant("recovery", "fuzz-iteration", {"seed": seed})
    structure = pool.persistent(structure_cls)
    tracker = SnapshotTracker()

    injector = FaultInjector(pool.machine, plan, rng=rng.fork("faults"))
    injector.arm(rng.randint(0, MAX_STORES_UNTIL_CRASH))

    op_rng = rng.fork("ops")

    def workload():
        for _ in range(op_rng.randint(10, 60)):
            roll = op_rng.random()
            key = op_rng.randint(0, KEY_SPACE - 1)
            if roll < 0.55:
                value = op_rng.randint(0, 2**32)
                structure.put(key, value)
                tracker.put(key, value)
            elif roll < 0.80:
                structure.remove(key)
                tracker.remove(key)
            else:
                # persist() issues no CPU stores, so the armed crash can
                # never cut a snapshot commit in half from the host side;
                # torn *device* writes are the FaultPlan's job.
                pool.persist()
                tracker.persist()

    try:
        crashed = injector.run(workload)
    except SanitizerError as exc:
        raise FuzzFailure("sanitizer violation during workload: %s" % exc)
    except LinkError:
        # The lossy link exhausted its retransmit budget: a loud, typed,
        # bounded failure. Astronomically rare at the drop rates
        # FaultPlan.random draws, but a legitimate outcome.
        return "link_exhausted", False
    if not crashed:
        # The workload outran the crash point; cut the power now so every
        # iteration exercises recovery.
        injector.crash()

    # A double fault can destroy every durable trace of the newest
    # commit: the tear reverts the log reset (re-arming the old epoch's
    # entries) while the bit flip kills the new epoch slot. The durable
    # bytes are then indistinguishable from "crashed before that commit",
    # and recovery lands — correctly — one snapshot back. Dual-slot
    # redundancy bounds the loss to exactly one snapshot per crash.
    acceptable = [tracker.snapshot]
    if plan.torn_write \
            and any(s.region == "epoch" for s in plan.bitflips) \
            and len(tracker.history) >= 2:
        acceptable.append(tracker.history[-2])

    try:
        pool.restart()
        recovered = pool.reattach_root(structure_cls)
        pairs = verify_map_integrity(recovered)
        if pairs not in acceptable:
            tracker.check_snapshot(pairs)   # raises with the diff
    except RecoveryError as exc:
        if exc.report is None:
            raise FuzzFailure(
                "RecoveryError without a RecoveryReport: %s" % exc)
        return "detected", crashed
    except ReproError as exc:
        raise FuzzFailure("post-recovery check failed: %s" % exc)
    except Exception as exc:   # struct.error etc. — the bugs fuzzing hunts
        raise FuzzFailure("unhandled %s escaped recovery: %s"
                          % (type(exc).__name__, exc))
    return "exact", crashed


class _BackendPlan:
    """Stand-in for :class:`FaultPlan` in backend-target records.

    Backend mode injects only crash points (no device fault plans), but
    :class:`FuzzStats` failure entries carry a ``describe()``-able plan
    for replay lines; this keeps the summary format uniform.
    """

    torn_write = None
    bitflips = ()
    link = None

    def __init__(self, name):
        self._name = name

    def describe(self):
        return "backend=%s crash-point-only" % self._name


def run_backend_iteration(seed, backend_name="autopass", sanitize=False):
    """One backend-mode fuzz iteration (``--target <backend>``).

    Builds the named per-op-durable WAL backend on a small PM heap
    (capacity 4, so the 16-key workload forces at least one resize),
    runs a random put/remove workload mirrored into a plain dict, cuts
    it at a random CPU-store count, recovers, and checks per-op
    durability: the recovered contents must equal the completed-op
    state plus at most an atomic prefix of the in-flight operation.
    With ``sanitize``, WalSan shadows the run and any persist-order
    violation is a failure. Returns ``(outcome, crashed_in_flight)``
    like :func:`run_iteration`.
    """
    from repro.crashtest.injector import CrashInjector
    from repro.sanitizer import WalSanitizer

    rng = DeterministicRng(seed)
    backend = make_backend(backend_name, heap_size=POOL_SIZE,
                           wal_size=BACKEND_WAL_SIZE,
                           capacity=BACKEND_CAPACITY, **_small_caches())
    if sanitize:
        WalSanitizer().attach(backend)
    state = backend.to_dict()
    inflight = []

    injector = CrashInjector(backend.machine)
    injector.arm(rng.randint(1, MAX_STORES_UNTIL_CRASH))
    op_rng = rng.fork("ops")

    def workload():
        for _ in range(op_rng.randint(10, 60)):
            roll = op_rng.random()
            key = op_rng.randint(0, KEY_SPACE - 1)
            # The mirror updates only after the backend op returns, so a
            # crash mid-op leaves ``state`` at the completed prefix and
            # ``inflight`` naming the cut operation.
            if roll < 0.65:
                value = op_rng.randint(0, 2**32)
                inflight.append(("put", key, value))
                backend.put(key, value)
                state[key] = value
            else:
                inflight.append(("remove", key, None))
                backend.remove(key)
                state.pop(key, None)
            del inflight[:]

    try:
        crashed = injector.run(workload)
    except SanitizerError as exc:
        raise FuzzFailure("sanitizer violation during workload: %s" % exc)
    if not crashed:
        # The workload outran the crash point; cut the power now so
        # every iteration exercises recovery.
        backend.crash()

    try:
        backend.restart()
        recovered = verify_map_integrity(backend)
        check_prefix_atomic(recovered, inflight, base_state=state)
        # Liveness: the recovered backend must still take writes.
        backend.put(0, 0xC0FFEE)
        if backend.get(0) != 0xC0FFEE:
            raise ReproError("post-recovery put() not visible")
    except ReproError as exc:
        raise FuzzFailure("post-recovery check failed: %s" % exc)
    except Exception as exc:   # struct.error etc. — the bugs fuzzing hunts
        raise FuzzFailure("unhandled %s escaped recovery: %s"
                          % (type(exc).__name__, exc))
    return "exact", crashed


def run_fuzz(iterations=500, seed=1234, allow_link=True, progress=None,
             sanitize=False, tracer=None, target="pool"):
    """Run ``iterations`` seeded iterations; returns a :class:`FuzzStats`.

    One ``tracer`` spans the whole sweep — each iteration re-attaches it
    to that iteration's fresh machine, so the ring ends up holding the
    (newest) events across iterations, delimited by ``fuzz-iteration``
    instants. ``target`` selects what gets fuzzed: ``"pool"`` (the PAX
    pool, default) or a backend name from :data:`BACKEND_TARGETS`.
    """
    if target != "pool" and target not in BACKEND_TARGETS:
        raise ReproError("unknown fuzz target %r (have pool, %s)"
                         % (target, ", ".join(BACKEND_TARGETS)))
    stats = FuzzStats()
    master = DeterministicRng(seed)
    for iteration in range(iterations):
        iter_seed = master.randint(0, 2**62)
        if target == "pool":
            plan_preview = FaultPlan.random(
                DeterministicRng(iter_seed).fork("plan"),
                allow_link=allow_link)
            stats.record_plan(plan_preview)
        else:
            plan_preview = _BackendPlan(target)
        try:
            if target == "pool":
                outcome, in_flight = run_iteration(iter_seed,
                                                   allow_link=allow_link,
                                                   sanitize=sanitize,
                                                   tracer=tracer)
            else:
                outcome, in_flight = run_backend_iteration(
                    iter_seed, backend_name=target, sanitize=sanitize)
            stats.outcomes[outcome] += 1
            stats.crashed_in_flight += in_flight
        except FuzzFailure as exc:
            stats.failures.append((iteration, iter_seed, plan_preview,
                                   str(exc)))
        stats.iterations += 1
        if progress and (iteration + 1) % progress == 0:
            print("  ... %d/%d (%d exact, %d detected, %d failed)"
                  % (iteration + 1, iterations, stats.outcomes["exact"],
                     stats.outcomes["detected"], len(stats.failures)),
                  flush=True)
    return stats


def main(argv=None):
    """CLI entry point; returns the process exit code (1 on failures)."""
    parser = argparse.ArgumentParser(
        description="Crash-consistency fuzzer: random crash points x "
                    "fault plans x structures.")
    parser.add_argument("--iterations", type=int, default=500)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--no-link-faults", action="store_true",
                        help="disable lossy-link plans (faster)")
    parser.add_argument("--progress", type=int, default=100, metavar="N",
                        help="print a progress line every N iterations "
                             "(0 = quiet)")
    parser.add_argument("--sanitize", action="store_true",
                        help="attach PaxSan (pool) / WalSan (backend "
                             "targets) to every iteration; a persist-"
                             "order violation fails the run")
    parser.add_argument("--target", choices=("pool",) + BACKEND_TARGETS,
                        default="pool",
                        help="what to fuzz: the PAX pool (default) or a "
                             "per-op-durable backend by name")
    parser.add_argument("--trace", metavar="PATH",
                        help="trace every iteration into one repro.obs "
                             "ring and write it as a JSONL trace "
                             "(pool target only)")
    args = parser.parse_args(argv)
    if args.trace and args.target != "pool":
        parser.error("--trace only supports --target pool")
    tracer = None
    if args.trace:
        from repro.obs import ObsTracer
        tracer = ObsTracer()
    stats = run_fuzz(iterations=args.iterations, seed=args.seed,
                     allow_link=not args.no_link_faults,
                     progress=args.progress or None,
                     sanitize=args.sanitize, tracer=tracer,
                     target=args.target)
    if tracer is not None:
        from repro.obs.export import write_jsonl
        write_jsonl(tracer.events(), args.trace)
        print("wrote %s (%d events, %d dropped)"
              % (args.trace, len(tracer.ring), tracer.ring.dropped))
    print(stats.summary())
    return 0 if stats.ok else 1


if __name__ == "__main__":
    sys.exit(main())
