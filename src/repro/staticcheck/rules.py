"""The syntactic rules: checkers that match single AST nodes.

Each rule is a generator registered with
:func:`repro.staticcheck.engine.checker` like the flow checkers, but it
ignores the CFG: it walks ``ctx.tree`` and yields ``(lineno, col,
message)`` for every violation. Location/module scoping lives here;
suppression handling lives in the engine.
"""

import ast

from repro.staticcheck.checkers import NONDET_MODULES, nondet_sanctioned
from repro.staticcheck.engine import checker

#: Builtins whose ``raise`` the project bans: callers must be able to
#: catch ``ReproError`` and know they have a simulator failure, not a
#: Python one. ``NotImplementedError`` (abstract methods) and
#: ``StopIteration`` (protocol) stay legal.
_BANNED_EXCEPTIONS = frozenset({
    "Exception", "BaseException", "ValueError", "TypeError", "KeyError",
    "RuntimeError", "IndexError", "IOError", "OSError", "ArithmeticError",
    "AttributeError", "AssertionError", "LookupError", "NameError",
    "ZeroDivisionError", "OverflowError", "BufferError",
})

#: Modules allowed to call ``*.write(...)`` on a PM device directly.
#: Everything else must go through the cache hierarchy or a transaction
#: accessor so write interposition (PaxSan, write-amp stats) sees it.
_PM_WRITE_SANCTIONED = (
    "pm/",
    "mem/",
    "faults/",
    "core/writeback.py",
    "core/recovery.py",
    "core/replication.py",
)

#: Receiver names that identify a PM device in a ``.write()`` call.
_DEVICE_NAMES = frozenset({"device", "pm", "media", "pm_device"})

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set)

#: Per-event methods on the simulator's critical path, by file suffix.
#: Inside these, ``stats.counter("...")`` / ``stats.histogram("...")``
#: is a string-keyed dict lookup paid on every simulated access; the
#: object must instead be bound to an attribute at construction time
#: (see docs/performance.md). Constructors are deliberately absent —
#: binding there is the fix.
_HOT_PATH_METHODS = {
    "cache/hierarchy.py": frozenset({
        "load", "store", "_access_line", "_hit_path", "_miss_path",
        "_charge", "_fill_l1", "_evict_from_l2", "_upgrade",
        "_invalidate_sharers", "_pull_from_core", "snoop_shared",
        "snoop_invalidate"}),
    "cache/cache.py": frozenset({"lookup", "peek", "insert", "remove"}),
    "cache/replacement.py": frozenset({
        "on_access", "on_insert", "on_remove", "victim"}),
    # Miss-path mechanisms sit on every LLC/HBM miss; their probe and
    # maintenance hooks run per simulated access.
    "cache/mechanisms.py": frozenset({
        "probe", "probe_and_extend", "on_demand_fill", "on_evict",
        "invalidate"}),
    "cache/homes.py": frozenset({"acquire", "writeback"}),
    "cache/coherence.py": frozenset({"set_state", "drop"}),
    # The L1-hit chain, end to end: read_u64/write_u64 ->
    # CpuAccessor.read/write -> CacheHierarchy.load/store.
    "mem/accessor.py": frozenset({"read_u64", "write_u64"}),
    "mem/physical.py": frozenset({"read", "write"}),
    "mem/address_space.py": frozenset({"read", "write"}),
    "mem/layout.py": frozenset({"get", "set"}),
    "pm/device.py": frozenset({"write"}),
    "pm/log.py": frozenset({"append"}),
    "pm/flush.py": frozenset({"clwb", "sfence"}),
    "sim/bandwidth.py": frozenset({"record", "submit"}),
    "sim/clock.py": frozenset({"advance"}),
    "cxl/link.py": frozenset({"send_h2d", "send_d2h"}),
    "cxl/adapter.py": frozenset({"to_cxl", "check_response"}),
    "cxl/port.py": frozenset({
        "_transact", "read_line", "write_line", "snoop_shared",
        "snoop_invalidate"}),
    "core/device.py": frozenset({
        "handle_message", "background_tick", "_rd_shared", "_rd_own",
        "_dirty_evict", "_clean_evict", "_mem_rd", "_mem_wr",
        "_lookup_line"}),
    "core/undo.py": frozenset({
        "note_modification", "drain_one", "drain_budget"}),
    "core/writeback.py": frozenset({
        "buffer_line", "_evict_one", "drain_budget", "_write_to_pm"}),
    "core/hbm.py": frozenset({"get", "put", "invalidate"}),
    "libpax/machine.py": frozenset({"acquire", "writeback", "read", "write"}),
    "structures/hashmap.py": frozenset({
        "put", "get", "remove", "_bucket_addr"}),
    "baselines/base.py": frozenset({"put", "get", "remove"}),
    "baselines/hybrid.py": frozenset({"read", "write"}),
    # WAL appends and resets run once per transaction of the pmdk, redo,
    # autopass and compiler backends.
    "baselines/wal.py": frozenset({"append", "reset"}),
    "replay/engine.py": frozenset({"_replay_generic", "_handlers"}),
    "replay/recorder.py": frozenset({"_emit"}),
    "util/stats.py": frozenset({"record"}),
}

#: Method names on a stats group whose call-per-event is the smell.
_STAT_FACTORIES = frozenset({"counter", "histogram"})

#: Attribute-name prefix of a counter bound at construction time
#: (``self._c_loads = self.stats.counter("loads")``).
_BOUND_COUNTER_PREFIX = "_c_"


def _hot_functions(ctx):
    """The functions of this file listed in :data:`_HOT_PATH_METHODS`."""
    for suffix, methods in _HOT_PATH_METHODS.items():
        if ctx.in_package(suffix):
            break
    else:
        return
    for func in ast.walk(ctx.tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and func.name in methods:
            yield func


def _exception_name(node):
    """Name of the exception a ``raise`` node raises, or None."""
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


@checker("typed-errors",
         "raise ReproError subclasses, not bare builtin exceptions")
def check_typed_errors(ctx):
    """Flag ``raise ValueError(...)``-style raises of banned builtins.

    Bare ``raise`` (re-raise) and exceptions outside the banned set —
    project errors, ``NotImplementedError`` — pass.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        name = _exception_name(node)
        if name in _BANNED_EXCEPTIONS:
            yield (node.lineno, node.col_offset,
                   "raise a repro.errors type instead of builtin %s" % name)


@checker("pm-direct-write",
         "only sanctioned modules may write the PM device directly")
def check_pm_direct_write(ctx):
    """Flag ``device.write(...)`` / ``self.pm.write(...)`` calls outside
    the sanctioned module list.

    A direct media write bypasses the cache hierarchy, so the coherence
    model, the write-amplification stats, and PaxSan all lose sight of
    it — exactly the interposition argument the paper builds on.
    ``pm-escape`` tracks device *aliases* but not writes, so this rule
    still catches a write through a device the module rightly owns.
    """
    if ctx.in_package(*_PM_WRITE_SANCTIONED):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "write":
            continue
        receiver = func.value
        if isinstance(receiver, ast.Attribute):
            receiver_name = receiver.attr
        elif isinstance(receiver, ast.Name):
            receiver_name = receiver.id
        else:
            continue
        if receiver_name in _DEVICE_NAMES:
            yield (node.lineno, node.col_offset,
                   "direct PM write via %r bypasses the hierarchy; go "
                   "through stores or an accessor" % receiver_name)


@checker("sim-determinism",
         "no wall-clock or ambient randomness outside sim.clock / sim.rng")
def check_sim_determinism(ctx):
    """Flag imports of the non-deterministic modules outside the
    sanctioned files.

    Results must replay bit-for-bit from a seed; ambient time or entropy
    anywhere else silently breaks that. ``det-taint`` only fires once a
    tainted value reaches a sink, so this rule still catches the import
    that has no sink yet.
    """
    if nondet_sanctioned(ctx.path):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in NONDET_MODULES:
                    yield (node.lineno, node.col_offset,
                           "import of %r breaks determinism; use sim.clock"
                           " / sim.rng" % alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            root = (node.module or "").split(".")[0]
            if root in NONDET_MODULES:
                yield (node.lineno, node.col_offset,
                       "import from %r breaks determinism; use sim.clock"
                       " / sim.rng" % node.module)


@checker("hot-path-stat-lookup",
         "no string-keyed stat lookups inside per-access hot paths")
def check_hot_path_stat_lookup(ctx):
    """Flag ``stats.counter("x")`` / ``stats.histogram("x")`` calls inside
    methods known to run once per simulated access.

    The get-or-create factories hash the name string on every call; on
    the per-access critical path that shows up directly in wall-clock
    throughput (measured by ``repro.perfbench``). The fix is to bind the
    returned object to an attribute in the constructor and bump that
    binding. Cold methods of the same classes (crash hooks, recovery
    scans, reports) may keep the readable string-keyed form.
    """
    for func in _hot_functions(ctx):
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if not isinstance(callee, ast.Attribute):
                continue
            if callee.attr not in _STAT_FACTORIES:
                continue
            receiver = callee.value
            receiver_name = None
            if isinstance(receiver, ast.Attribute):
                receiver_name = receiver.attr
            elif isinstance(receiver, ast.Name):
                receiver_name = receiver.id
            if receiver_name != "stats":
                continue
            yield (node.lineno, node.col_offset,
                   "stat lookup by name inside hot method %s(); bind the "
                   "%s at construction time" % (func.name, callee.attr))


@checker("hot-path-counter-call",
         "bump bound counters with .value += n inside per-access hot paths")
def check_hot_path_counter_call(ctx):
    """Flag ``self._c_x.add(1)``-style calls inside the hot methods.

    ``Counter.add`` only adds a guard against negative amounts, which is
    dead for a non-negative integer literal; the call itself is a Python
    frame paid on every simulated event. ``self._c_x.value += 1`` does
    the same bump inline (docs/performance.md, rule 1). Only attributes
    named ``_c_*`` count as bound counters, so ``set.add`` is never
    flagged, and computed amounts (which the guard does check) pass.
    """
    for func in _hot_functions(ctx):
        for node in ast.walk(func):
            if not isinstance(node, ast.Call) or len(node.args) != 1 \
                    or node.keywords:
                continue
            callee = node.func
            if not isinstance(callee, ast.Attribute) or callee.attr != "add":
                continue
            receiver = callee.value
            if not isinstance(receiver, ast.Attribute) \
                    or not receiver.attr.startswith(_BOUND_COUNTER_PREFIX):
                continue
            amount = node.args[0]
            if isinstance(amount, ast.Constant) \
                    and type(amount.value) is int and amount.value >= 0:
                yield (node.lineno, node.col_offset,
                       "%s.add(%d) inside hot method %s(); write "
                       "%s.value += %d" % (receiver.attr, amount.value,
                                           func.name, receiver.attr,
                                           amount.value))


@checker("mutable-default",
         "no mutable default arguments")
def check_mutable_default(ctx):
    """Flag list/dict/set literals (and their constructors) used as
    parameter defaults — they are shared across calls.

    Walks every function-like node (``ast.walk`` order), so lambdas and
    functions nested inside other functions or decorated methods are
    checked, not just module-level ``def`` bodies.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            bad = isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set"))
            if bad:
                yield (default.lineno, default.col_offset,
                       "mutable default argument is shared across calls; "
                       "default to None")
