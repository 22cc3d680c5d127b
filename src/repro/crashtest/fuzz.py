"""Crash-consistency fuzzing: one loop over every crash-consistent target.

A target (:data:`TARGETS`) is the PAX pool (``pool``: a hash map or a
B-tree in a :class:`~repro.libpax.pool.PaxPool` on a
:class:`~repro.faults.FaultyPmDevice`) or any backend whose class
declares a ``durability`` other than ``"none"``. Each iteration builds
the target on tiny caches, runs a random put/remove/persist workload
mirrored into a :class:`SnapshotTracker`, crashes it at a random CPU
store count (mid-``put``, mid-``remove`` and mid-resize included) under
a :class:`~repro.faults.FaultPlan`, and then recovers. The pool draws a
random plan (torn in-flight write, metadata bit flips, lossy link); a
backend gets the benign ``FaultPlan()``, a clean crash.

The oracle is the target's durability contract:

``per-persist`` (pool, mprotect, pax, hybrid)
    The recovered contents equal the last persisted snapshot, bit for
    bit.
``per-op`` (pmdk, redo, compiler, autopass)
    The recovered contents equal the completed operations plus at most
    an atomic prefix of the one the crash cut
    (:func:`~repro.crashtest.checker.check_prefix_atomic`) — all of it
    when its commit reached PM before the crash.

Either way the structure must pass an integrity walk and then take one
more put and read it back. Exactly two outcomes are acceptable:

``exact``
    Recovery succeeds and the contract holds.
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

Under ``--sanitize`` the target family's sanitizer watches the run:
WalSan for the WAL backends, PaxSan for a machine with a PAX device
(pool, pax, hybrid). mprotect has no sanitizer and runs unsanitized.

Run from the command line (no ``--target`` fuzzes every target)::

    python -m repro.crashtest.fuzz --iterations 500 --seed 1234
    python -m repro.crashtest.fuzz --target pax --target autopass --sanitize
"""

import argparse
import sys

from repro.baselines.base import StructureBackend
from repro.baselines.pax import backend_classes, make_backend
from repro.baselines.wal import WalBackend
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
from repro.libpax.machine import PaxMachine
from repro.libpax.pool import PaxPool
from repro.sanitizer import PaxSanitizer, WalSanitizer
from repro.sim.rng import DeterministicRng
from repro.structures.btree import BTree
from repro.structures.hashmap import HashMap

#: Structures the pool target alternates between (both are ordered maps
#: from the fuzzer's point of view: put/remove/get/items).
STRUCTURES = (HashMap, BTree)

#: What ``--target`` accepts: the PAX pool, then every backend whose
#: class declares a crash contract.
TARGETS = ("pool",) + tuple(name for name, cls in backend_classes().items()
                            if cls.durability != "none")

POOL_SIZE = 2 * 1024 * 1024
LOG_SIZE = 64 * 1024
KEY_SPACE = 16
MAX_STORES_UNTIL_CRASH = 300
#: Tiny backend tables, so the workload's key space forces a resize.
BACKEND_CAPACITY = 4


def _small_caches():
    # Two L1 lines, four L2 lines and four LLC lines: the 16-key workload
    # evicts dirty lines to PM between persists, so a crash leaves
    # uncommitted data there and recovery has something to roll back.
    # Caches that hold the whole table let a recovery that skips its
    # rollback pass.
    return dict(
        l1_config=CacheConfig(size_bytes=128, ways=2),
        l2_config=CacheConfig(size_bytes=256, ways=2),
        llc_config=CacheConfig(size_bytes=256, ways=4),
    )


class FuzzFailure(ReproError):
    """One iteration violated the crash-consistency contract.

    ``crashed_in_flight`` says whether the iteration's crash cut an
    operation mid-flight. The crash point does not depend on recovery,
    so a failing iteration still counts its crash.
    """

    def __init__(self, message, crashed_in_flight=False):
        super().__init__(message)
        self.crashed_in_flight = crashed_in_flight


class FuzzStats:
    """Aggregate outcome counts plus per-failure replay info."""

    def __init__(self, target="pool"):
        self.target = target
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
        lines = ["fuzz %s: %d iterations — %d exact, %d detected, "
                 "%d link-exhausted, %d FAILED"
                 % (self.target, self.iterations, self.outcomes["exact"],
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


class _PoolTarget(StructureBackend):
    """The ``pool`` target: one structure in a PAX pool on faulty PM.

    The :class:`FaultyPmDevice` journals the write a torn-write plan
    tears, and the plan's lossy link carries every message. Alternating
    the :data:`STRUCTURES` gives BTree its only crash coverage under
    fault plans.
    """

    name = "pool"
    durability = "per-persist"

    def __init__(self, structure_cls, link_faults):
        super().__init__()
        self.pool = PaxPool.map_pool(
            pm_device=FaultyPmDevice("pm0", POOL_SIZE), pool_size=POOL_SIZE,
            log_size=LOG_SIZE, link_faults=link_faults, **_small_caches())
        self._structure_cls = structure_cls
        self._map = self.pool.persistent(structure_cls)

    @property
    def machine(self):
        return self.pool.machine

    def persist(self):
        return self.pool.persist()

    def restart(self):
        self.pool.restart()
        self._map = self.pool.reattach_root(self._structure_cls)


def _plan(seed, target, allow_link):
    """Iteration ``seed``'s fault plan: random for the pool, else benign."""
    if target != "pool":
        return FaultPlan()
    return FaultPlan.random(DeterministicRng(seed).fork("plan"),
                            allow_link=allow_link)


def _build(target, plan, rng):
    """``target`` at fuzz size; the pool draws its structure from ``rng``."""
    if target == "pool":
        structure_cls = STRUCTURES[rng.randint(0, len(STRUCTURES) - 1)]
        return _PoolTarget(structure_cls, plan.link)
    # PAX-device backends size a pool and its log; the others size a
    # heap and derive their log from it.
    if target in ("pax", "hybrid"):
        sizing = dict(pool_size=POOL_SIZE, log_size=LOG_SIZE)
    else:
        sizing = dict(heap_size=POOL_SIZE)
    return make_backend(target, capacity=BACKEND_CAPACITY, **sizing,
                        **_small_caches())


def _attach_sanitizer(kv):
    """Attach ``kv``'s family sanitizer and return it (None: mprotect)."""
    if isinstance(kv, WalBackend):
        return WalSanitizer().attach(kv)
    if isinstance(kv.machine, PaxMachine):
        return PaxSanitizer().attach(kv.machine)
    return None


def run_iteration(seed, target="pool", allow_link=True, sanitize=False,
                  tracer=None):
    """One fuzz iteration of ``target`` (one of :data:`TARGETS`).

    Returns ``(outcome, crashed_in_flight)`` where outcome is ``exact``,
    ``detected``, or ``link_exhausted``; raises :class:`FuzzFailure` on a
    contract violation. With ``sanitize``, the target family's sanitizer
    shadows the iteration and any persist-order violation it reports is
    a failure too. With ``tracer`` (a ``repro.obs``
    :class:`~repro.obs.tracer.ObsTracer`), the iteration's events
    accumulate into its ring; combined with a sanitizer the target's
    single tracer slot is shared through a
    :class:`~repro.obs.tracer.TeeTracer`.
    """
    rng = DeterministicRng(seed)
    plan = _plan(seed, target, allow_link)
    kv = _build(target, plan, rng)
    sanitizer = _attach_sanitizer(kv) if sanitize else None
    if tracer is not None:
        tracer.attach(kv)
        if sanitizer is not None:
            from repro.obs.tracer import TeeTracer
            attach = getattr(kv, "attach_tracer", kv.machine.attach_tracer)
            attach(TeeTracer([sanitizer, tracer]))
        tracer.instant("recovery", "fuzz-iteration",
                       {"seed": seed, "target": target})
    per_op = kv.durability == "per-op"
    tracker = SnapshotTracker()
    inflight = []
    commit_at_start = None    # a per-op target's commit cell at op start

    injector = FaultInjector(kv.machine, plan, rng=rng.fork("faults"))
    injector.arm(rng.randint(0, MAX_STORES_UNTIL_CRASH))
    op_rng = rng.fork("ops")

    def workload():
        nonlocal commit_at_start
        for _ in range(op_rng.randint(10, 60)):
            roll = op_rng.random()
            key = op_rng.randint(0, KEY_SPACE - 1)
            if per_op:
                commit_at_start = kv.committed_tx
            # The mirror updates only after the target's op returns, so a
            # crash mid-op leaves ``tracker`` at the completed prefix and
            # ``inflight`` naming the cut operation.
            if roll < 0.55:
                value = op_rng.randint(0, 2**32)
                inflight.append(("put", key, value))
                kv.put(key, value)
                tracker.put(key, value)
            elif roll < 0.80:
                inflight.append(("remove", key, None))
                kv.remove(key)
                tracker.remove(key)
            else:
                # persist() issues no CPU stores, so the armed crash can
                # never cut a snapshot commit in half from the host side;
                # torn *device* writes are the FaultPlan's job. A per-op
                # target's persist() does nothing.
                kv.persist()
                tracker.persist()
                continue
            if per_op:
                tracker.persist()          # a completed op is durable
            del inflight[:]

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
    # A cut operation whose commit reached PM before the crash is durable:
    # recovery must keep all of it, not merely some prefix.
    durable = 0
    if per_op and inflight and kv.committed_tx != commit_at_start:
        durable = len(inflight)

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
        kv.restart()
        pairs = verify_map_integrity(kv)
        if per_op:
            check_prefix_atomic(pairs, inflight, base_state=tracker.snapshot,
                                min_prefix=durable)
        elif pairs not in acceptable:
            tracker.check_snapshot(pairs)   # raises with the diff
        # Liveness: the recovered target must still take writes.
        kv.put(0, 0xC0FFEE)
        if kv.get(0) != 0xC0FFEE:
            raise ReproError("post-recovery put() not visible")
    except RecoveryError as exc:
        if exc.report is None:
            raise FuzzFailure(
                "RecoveryError without a RecoveryReport: %s" % exc, crashed)
        return "detected", crashed
    except ReproError as exc:
        raise FuzzFailure("post-recovery check failed: %s" % exc, crashed)
    except Exception as exc:   # struct.error etc. — the bugs fuzzing hunts
        raise FuzzFailure("unhandled %s escaped recovery: %s"
                          % (type(exc).__name__, exc), crashed)
    return "exact", crashed


def run_fuzz(iterations=500, seed=1234, allow_link=True, progress=None,
             sanitize=False, tracer=None, target="pool"):
    """Run ``iterations`` seeded iterations of ``target``; returns a
    :class:`FuzzStats`.

    ``target`` is one of :data:`TARGETS` (default: the PAX pool). One
    ``tracer`` spans the whole sweep — each iteration re-attaches it to
    that iteration's fresh machine, so the ring ends up holding the
    (newest) events across iterations, delimited by ``fuzz-iteration``
    instants.
    """
    if target not in TARGETS:
        raise ReproError("unknown fuzz target %r (have %s)"
                         % (target, ", ".join(TARGETS)))
    stats = FuzzStats(target)
    master = DeterministicRng(seed)
    for iteration in range(iterations):
        iter_seed = master.randint(0, 2**62)
        plan = _plan(iter_seed, target, allow_link)
        stats.record_plan(plan)
        try:
            outcome, in_flight = run_iteration(
                iter_seed, target=target, allow_link=allow_link,
                sanitize=sanitize, tracer=tracer)
            stats.outcomes[outcome] += 1
            stats.crashed_in_flight += in_flight
        except FuzzFailure as exc:
            stats.failures.append((iteration, iter_seed, plan, str(exc)))
            stats.crashed_in_flight += exc.crashed_in_flight
        stats.iterations += 1
        if progress and (iteration + 1) % progress == 0:
            print("  ... %s %d/%d (%d exact, %d detected, %d failed)"
                  % (target, iteration + 1, iterations,
                     stats.outcomes["exact"], stats.outcomes["detected"],
                     len(stats.failures)),
                  flush=True)
    return stats


def main(argv=None):
    """CLI entry point; returns the process exit code (1 on failures)."""
    parser = argparse.ArgumentParser(
        description="Crash-consistency fuzzer: random crash points x "
                    "fault plans over the PAX pool and every "
                    "crash-consistent backend.")
    parser.add_argument("--iterations", type=int, default=500)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--no-link-faults", action="store_true",
                        help="disable lossy-link plans (faster)")
    parser.add_argument("--progress", type=int, default=100, metavar="N",
                        help="print a progress line every N iterations "
                             "(0 = quiet)")
    parser.add_argument("--sanitize", action="store_true",
                        help="attach each target's sanitizer (PaxSan: "
                             "pool, pax, hybrid; WalSan: the WAL "
                             "backends; mprotect has none) to every "
                             "iteration; a persist-order violation fails "
                             "the run")
    parser.add_argument("--target", action="append", choices=TARGETS,
                        help="what to fuzz; repeatable (default: every "
                             "target, in this order)")
    parser.add_argument("--trace", metavar="PATH",
                        help="trace every iteration into one repro.obs "
                             "ring and write it as a JSONL trace")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        from repro.obs import ObsTracer
        tracer = ObsTracer()
    failed = False
    for target in args.target or TARGETS:
        stats = run_fuzz(iterations=args.iterations, seed=args.seed,
                         allow_link=not args.no_link_faults,
                         progress=args.progress or None,
                         sanitize=args.sanitize, tracer=tracer,
                         target=target)
        print(stats.summary(), flush=True)
        failed = failed or not stats.ok
    if tracer is not None:
        from repro.obs.export import write_jsonl
        write_jsonl(tracer.events(), args.trace)
        print("wrote %s (%d events, %d dropped)"
              % (args.trace, len(tracer.ring), tracer.ring.dropped))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
