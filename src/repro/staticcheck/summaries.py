"""Per-function persistency effect summaries.

The interprocedural layer (:mod:`repro.staticcheck.interproc`) reasons
about whole call chains; its unit of exchange is the
:class:`FunctionSummary` — what one function *does* to the persistency
state, abstracted over the PR4 CFG+dataflow lattice:

``opens_gate``
    On every path from entry to exit a tx/persist gate is open when the
    function returns (a *must* fact — callers may count a call to this
    function as a gate-open).
``closes_gate``
    Some path closes gates (``*.end()`` / ``*.commit()`` / ...).
``stores_gated`` / ``stores_entry_dep`` / ``stores_unprotected``
    PM stores through an accessor, classified by the gate fact at the
    store site: covered by a gate the function opened itself; covered
    only by a gate the *caller* may hold at the call site (the
    ``@entry`` token); or covered by nothing at all.
``calls``
    Every call site as ``(descriptor, gatedness)`` with gatedness one
    of ``"yes"`` (under a locally-opened gate), ``"entry"`` (gated iff
    the caller entered gated), ``"no"``.
``taint_return``
    The return value derives from wall-clock/entropy (det-taint).
``leaks_params``
    With every parameter treated as a raw PM device, the function leaks
    one (public return/yield, public attribute, or unsanctioned
    foreign-module call) — pm-escape's callee question.

All cross-function inputs arrive through the ``resolver`` callbacks of
:func:`summarize_gates`, so the SCC fixed-point loop in
``interproc.py`` owns the iteration order.
"""

import ast

from repro.staticcheck.cfg import build_cfg
from repro.staticcheck.checkers import (
    _bound_store_names,
    _GateAnalysis,
    _ModuleImportsShim,
    _TaintAnalysis,
    ENTRY_TOKEN,
)
from repro.staticcheck.dataflow import TOP


class FunctionSummary:
    """Persistency effects of one function."""

    __slots__ = ("module", "qualname", "opens_gate", "closes_gate",
                 "stores_gated", "stores_entry_dep", "stores_unprotected",
                 "calls", "taint_return", "leaks_params")

    def __init__(self, module, qualname):
        self.module = module
        self.qualname = qualname
        self.opens_gate = False
        self.closes_gate = False
        self.stores_gated = 0
        self.stores_entry_dep = 0
        self.stores_unprotected = 0
        #: ``[(descriptor tuple, "yes"|"entry"|"no"), ...]``
        self.calls = []
        self.taint_return = False
        self.leaks_params = False

    def __repr__(self):
        return "FunctionSummary(%s:%s%s%s)" % (
            self.module, self.qualname,
            " opens" if self.opens_gate else "",
            " leaks" if self.leaks_params else "")


def _gate_closes(func):
    """True if any call in ``func`` carries a gate-close verb."""
    from repro.staticcheck.checkers import _gate_delta
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and _gate_delta(node) == "close":
            return True
    return False


def summarize_gates(module, qualname, func, resolver=None):
    """The gate-side of a summary: opens/closes/stores/call gatedness.

    ``resolver`` (optional) supplies callee facts — ``opens(call)`` for
    calls to must-open functions and ``defers_store(call)`` for store
    verbs that resolve to a project function (whose own body is then the
    thing being judged, not the call site). Returns a partially filled
    :class:`FunctionSummary`.
    """
    summary = FunctionSummary(module.key, qualname)
    bound = _bound_store_names(func)
    cfg = build_cfg(func)
    solver = _GateAnalysis(bound, resolver=resolver, entry_gate=True)
    in_facts = solver.solve(cfg)

    walker = _GateAnalysis(bound, resolver=resolver, entry_gate=True)
    walker.call_sites = []
    walker.report = []
    seen = set()
    for block in cfg.blocks:
        fact = in_facts.get(block, TOP)
        if fact is TOP:
            continue
        walker.block_out(fact, block)
    for call, gated in walker.call_sites:
        location = (call.lineno, call.col_offset)
        if location in seen:
            continue
        seen.add(location)
        descriptor = module.call_descriptor(call.func)
        if descriptor is not None:
            summary.calls.append((descriptor, gated))
    reported = {id(call) for call in walker.report}
    entry_covered = walker.entry_covered
    store_sites = set()
    for call, gated in walker.call_sites:
        if id(call) not in reported:
            continue
        location = (call.lineno, call.col_offset)
        if location in store_sites:
            continue
        store_sites.add(location)
        if id(call) in entry_covered:
            summary.stores_entry_dep += 1
        else:
            summary.stores_unprotected += 1
    summary.stores_gated = max(
        0, len({(c.lineno, c.col_offset) for c, _g in walker.call_sites
                if id(c) in walker.store_calls}) - len(store_sites))

    exit_fact = in_facts.get(cfg.exit, TOP)
    summary.opens_gate = exit_fact is not TOP \
        and bool(exit_fact - frozenset({ENTRY_TOKEN}))
    summary.closes_gate = _gate_closes(func)
    return summary


def returns_value(func):
    """True if ``func`` has a value-carrying ``return``."""
    return any(isinstance(node, ast.Return) and node.value is not None
               for node in ast.walk(func))


def has_direct_taint_source(module, func):
    """True if ``func``'s body contains a direct non-determinism source."""
    analysis = _TaintAnalysis(_ModuleImportsShim(module), None)
    return any(isinstance(node, ast.Call) and analysis._is_source_call(node)
               for node in ast.walk(func))
