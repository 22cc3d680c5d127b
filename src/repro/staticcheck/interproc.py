"""Whole-program interprocedural persistency analysis.

The per-function checkers (PR4) stop at call boundaries; this layer
propagates :class:`~repro.staticcheck.summaries.FunctionSummary` facts
over the :class:`~repro.staticcheck.callgraph.ProjectIndex` so that
gates opened in a callee (or guaranteed by a mechanism class) discharge
findings in callers. The moving parts:

* **Class hierarchy + field types.** ``self.``-method calls resolve
  through the class's own methods and its base chain across modules;
  ``self._wal.append(...)`` resolves through a *field type* recorded
  from constructor-shaped assignments (``self._wal = Wal(...)``,
  ``self._map = HashMap.create(...)``, ``self.pool.persistent(HashMap,
  ...)``).
* **Summary fixed point.** Function summaries are computed bottom-up in
  Tarjan SCC order over the strict call graph; recursive SCCs iterate
  to a least fixed point (``opens_gate`` starts pessimistic-False and
  only monotonically flips to True), so mutual recursion converges and
  never *invents* a gate.
* **Discharge rules.** A persist-order candidate is discharged when
  - [mechanism] its enclosing class *is* the gate mechanism: it defines
    both an open verb (``begin``/...) and a close verb (``end``/
    ``commit``/...), or it is constructed into a mechanism-named field
    (``self._wal = Wal(...)``) somewhere in the program — ``Wal.append``
    cannot be expected to gate itself;
  - [lifecycle, baselines only] it sits in ``__init__``/``persist``/
    ``restart``/``recover``/``close`` of a backend class (or a helper
    called *only* from those): recovery and publish paths write PM
    outside the steady-state transaction protocol by design;
  - [gated-context] the store is protected iff the caller holds a gate
    (``@entry``-dependent) and *every* resolved caller provably calls
    in gated, with no unresolved aliases of the function's name.
  Everything else survives and gains a call-path trace.

Discharges only ever *remove* per-function findings (summaries add
must-open guarantees; close-effects are deliberately not applied at
call sites), so interprocedural mode reports a subset of per-function
mode — no new false positives by construction.
"""

import ast

from repro.staticcheck.callgraph import module_key
from repro.staticcheck.checkers import (
    _GATE_CLOSE_ATTRS,
    _GATE_OPEN_ATTRS,
    _EscapeAnalysis,
    _ModuleImportsShim,
    nondet_sanctioned,
)
from repro.staticcheck.cfg import build_cfg
from repro.staticcheck.dataflow import TOP
from repro.staticcheck.summaries import (
    has_direct_taint_source,
    returns_value,
    summarize_gates,
)

#: Backend lifecycle methods: allowed to write PM outside the tx protocol.
LIFECYCLE_NAMES = frozenset({
    "__init__", "persist", "restart", "recover", "close"})

#: Root classes whose (transitive) subclasses count as backends.
BACKEND_ROOT_NAMES = frozenset({"KvBackend", "StructureBackend"})

#: A class constructed into one of these fields *is* the log mechanism.
MECHANISM_FIELDS = frozenset({
    "wal", "_wal", "log", "_log", "undo", "_undo",
    "journal", "_journal", "cells", "_cells"})

_FACTORY_ATTRS = frozenset({"create", "attach"})


def _segments(text, sep):
    return text.split(sep)


class GateResolver:
    """Callee facts for one function's gate analysis.

    ``opens(call)`` — the callee is a project function whose summary
    guarantees a gate is open on return (treat the call as a gate-open).
    ``defers_store(call)`` — a store-verb call that resolves to a
    project function in checked territory; the callee body is then the
    thing being judged, not this call site.
    """

    __slots__ = ("_ip", "_module", "_owner")

    def __init__(self, ip, module, owner):
        self._ip = ip
        self._module = module
        self._owner = owner

    def _resolve(self, call):
        descriptor = self._module.call_descriptor(call.func)
        if descriptor is None:
            return None
        return self._ip.strict_resolve(self._module, self._owner,
                                       descriptor)

    def opens(self, call):
        """True if ``call`` resolves to a function that must-opens a
        gate on every path to its return."""
        target = self._resolve(call)
        if target is None:
            return False
        summary = self._ip.summaries.get((target.module, target.qualname))
        return summary is not None and summary.opens_gate

    def defers_store(self, call):
        """True if ``call`` resolves into a checked module — the store
        verb is analyzed in the callee's body, not at this call site."""
        target = self._resolve(call)
        if target is None:
            return False
        return self._ip.checked_module(target.module)


class _ResolvedTaintOracle:
    """Identity-keyed det-taint oracle for one module."""

    __slots__ = ("_ip", "_module")

    def __init__(self, ip, module):
        self._ip = ip
        self._module = module

    def tainted(self, callee):
        """True if the called name, resolved through its import as the
        call graph does, is a function whose summary returns taint."""
        resolved = self._ip.project.resolve(
            self._module, self._module.call_descriptor(callee))
        if resolved is None or resolved.module is None:
            return False
        summary = self._ip.summaries.get(
            (resolved.module, resolved.qualname))
        return summary is not None and summary.taint_return


class InterprocAnalysis:
    """Whole-program summary store, role tables, and discharge filter."""

    def __init__(self, project):
        self.project = project
        #: (module_key, qualname) -> FunctionSummary
        self.summaries = {}
        #: (path, lineno, col) -> (qualname, entry_dep) for candidates.
        self._meta = {}
        #: Discharged findings: [(path, lineno, col, rule)] after filter.
        self.discharged = []
        self._owner_by_func = {}
        self._field_types = {}
        self._mechanism_decls = set()
        self._backend_decls = set()
        self._noncall_names = set()   # names referenced outside call position
        self._build_class_facts()

    # -- class hierarchy ---------------------------------------------------

    def _resolve_class(self, module, name):
        """A class name in ``module`` -> ClassDecl (local or imported)."""
        decl = module.classes.get(name)
        if decl is not None:
            return decl
        source = module.imports.get(name)
        if source is None:
            return None
        target = self.project.modules.get(source)
        if target is None:
            return None
        return target.classes.get(module.import_orig.get(name, name))

    def _resolve_base(self, decl, descriptor):
        module = self.project.modules.get(decl.module)
        if module is None:
            return None
        if descriptor[0] == "local":
            return self._resolve_class(module, descriptor[1])
        target = self.project.modules.get(descriptor[1])
        if target is None:
            return None
        return target.classes.get(descriptor[2])

    def ancestors(self, decl):
        """``decl`` plus every resolvable base, depth-first, cycle-safe."""
        out = []
        seen = set()
        stack = [decl]
        while stack:
            current = stack.pop(0)
            if id(current) in seen:
                continue
            seen.add(id(current))
            out.append(current)
            for descriptor in current.bases:
                base = self._resolve_base(current, descriptor)
                if base is not None:
                    stack.append(base)
        return out

    def find_method(self, decl, name):
        """Resolve ``name`` through ``decl``'s hierarchy, or None."""
        for klass in self.ancestors(decl):
            info = klass.methods.get(name)
            if info is not None:
                return info
        return None

    def _base_names(self, decl):
        names = set()
        for klass in self.ancestors(decl):
            names.add(klass.name)
            for descriptor in klass.bases:
                names.add(descriptor[1] if descriptor[0] == "local"
                          else descriptor[2])
        return names

    # -- build-time role tables --------------------------------------------

    def _class_from_call(self, module, call):
        """The ClassDecl a constructor-shaped call produces, or None."""
        func = call.func
        if isinstance(func, ast.Name):
            decl = self._resolve_class(module, func.id)
            if decl is not None:
                return decl
        if isinstance(func, ast.Attribute) and func.attr in _FACTORY_ATTRS \
                and isinstance(func.value, ast.Name):
            decl = self._resolve_class(module, func.value.id)
            if decl is not None:
                return decl
        # ``self.pool.persistent(HashMap, ...)`` — a class passed as an
        # argument to any factory call names the constructed type.
        for arg in call.args:
            if isinstance(arg, ast.Name):
                decl = self._resolve_class(module, arg.id)
                if decl is not None:
                    return decl
        return None

    def _build_class_facts(self):
        mechanism_bound = set()    # ids of decls built into mechanism fields
        for module in self.project.modules.values():
            # Names referenced outside call position: a function whose
            # name lands here may be address-taken (callback), so the
            # caller-set rules must not trust its in-edges.
            call_funcs = set()
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call):
                    call_funcs.add(id(node.func))
            for node in ast.walk(module.tree):
                if id(node) in call_funcs:
                    continue
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Load):
                    self._noncall_names.add(node.id)
                elif isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    self._noncall_names.add(node.attr)

            for decl in module.classes.values():
                for info in decl.methods.values():
                    self._owner_by_func[id(info)] = decl
                # Field types from constructor-shaped self-assignments.
                for node in ast.walk(decl.node):
                    if not isinstance(node, ast.Assign) \
                            or len(node.targets) != 1:
                        continue
                    target = node.targets[0]
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    if not isinstance(node.value, ast.Call):
                        continue
                    built = self._class_from_call(module, node.value)
                    if built is None:
                        continue
                    self._field_types[(decl.module, decl.name,
                                       target.attr)] = built
                    if target.attr in MECHANISM_FIELDS:
                        mechanism_bound.add(id(built))

        for module in self.project.modules.values():
            for decl in module.classes.values():
                # Tx-accessor mechanism: the class itself defines both an
                # open verb and a close verb — its internals implement
                # the gate, they cannot also be guarded by it.
                methods = set(decl.methods)
                if methods & _GATE_OPEN_ATTRS \
                        and methods & _GATE_CLOSE_ATTRS:
                    self._mechanism_decls.add(id(decl))
                if id(decl) in mechanism_bound:
                    self._mechanism_decls.add(id(decl))
                if self._base_names(decl) & BACKEND_ROOT_NAMES:
                    self._backend_decls.add(id(decl))

    # -- strict resolution -------------------------------------------------

    def checked_module(self, key):
        """True if persist-order actually analyses ``key``'s functions."""
        parts = _segments(key, ".")
        return "structures" in parts or "baselines" in parts

    def owner_of(self, module, qualname):
        """The ClassDecl owning ``qualname`` ("Cls.meth..."), or None."""
        head = qualname.split(".")[0]
        return module.classes.get(head)

    def strict_resolve(self, module, owner, descriptor):
        """Resolve a call descriptor to a FunctionInfo — only through
        edges reliable enough to base a *discharge* on: direct local
        and import bindings, ``self.``-methods through the hierarchy,
        and accessor fields with a recorded constructor type. No
        bare-name fallback."""
        kind = descriptor[0]
        if kind == "local":
            info = module.functions.get(descriptor[1])
            # Only module-level functions: a bare name that happens to
            # collide with some method is not a real binding.
            if info is not None and "." not in info.qualname \
                    and info.qualname == descriptor[1]:
                return info
            return None
        if kind == "import":
            target = self.project.modules.get(descriptor[1])
            if target is None:
                return None
            info = target.functions.get(descriptor[2])
            if info is not None and info.qualname == descriptor[2]:
                return info
            return None
        attr, receiver = descriptor[1], descriptor[2]
        if receiver == "self":
            if owner is None:
                return None
            return self.find_method(owner, attr)
        if receiver is not None and owner is not None:
            built = self._field_types.get(
                (owner.module, owner.name, receiver))
            if built is not None:
                return self.find_method(built, attr)
        return None

    # -- summary computation -----------------------------------------------

    def _function_universe(self, module):
        """Unique ``(owner_decl, FunctionInfo)`` pairs, qualname order."""
        seen = set()
        out = []
        for qualname in sorted(module.functions):
            info = module.functions[qualname]
            if qualname != info.qualname or id(info) in seen:
                continue
            seen.add(id(info))
            out.append((self._owner_by_func.get(id(info)), info))
        return out

    def compute_summaries(self):
        """Summarize every function of every indexed module, bottom-up
        in SCC order."""
        entries = {}
        for mk in sorted(self.project.modules):
            module = self.project.modules[mk]
            for owner, info in self._function_universe(module):
                entries[(mk, info.qualname)] = (module, owner, info)

        def callees(key):
            # Strict-resolved intra-universe successors of one function.
            module, owner, info = entries[key]
            out = []
            for descriptor in info.calls:
                target = self.strict_resolve(module, owner, descriptor)
                if target is not None:
                    tkey = (target.module, target.qualname)
                    if tkey in entries:
                        out.append(tkey)
            return out

        for scc in _tarjan(sorted(entries), callees):
            # Least fixed point: opens_gate starts False (absent from
            # self.summaries) and can only flip to True, so |scc|+1
            # rounds suffice.
            for _round in range(len(scc) + 1):
                changed = False
                for key in sorted(scc):
                    module, owner, info = entries[key]
                    resolver = GateResolver(self, module, owner)
                    summary = summarize_gates(module, info.qualname,
                                              info.node, resolver=resolver)
                    old = self.summaries.get(key)
                    if old is None \
                            or old.opens_gate != summary.opens_gate \
                            or old.calls != summary.calls:
                        changed = True
                    self.summaries[key] = summary
                if not changed:
                    break
        self._compute_taint(entries)
        self._compute_escape(entries)

    def _compute_taint(self, entries):
        for key in sorted(entries):
            module, _owner, info = entries[key]
            summary = self.summaries[key]
            summary.taint_return = (
                not nondet_sanctioned(module.path)
                and returns_value(info.node)
                and has_direct_taint_source(module, info.node))
        for _round in range(10):
            changed = False
            for key in sorted(entries):
                module, _owner, info = entries[key]
                summary = self.summaries[key]
                if summary.taint_return \
                        or nondet_sanctioned(module.path) \
                        or not returns_value(info.node):
                    continue
                for descriptor in info.calls:
                    resolved = self.project.resolve(module, descriptor)
                    if resolved is None or resolved.module is None:
                        continue
                    callee = self.summaries.get(
                        (resolved.module, resolved.qualname))
                    if callee is not None and callee.taint_return:
                        summary.taint_return = True
                        changed = True
                        break
            if not changed:
                break

    def _compute_escape(self, entries):
        for key in sorted(entries):
            module, _owner, info = entries[key]
            summary = self.summaries[key]
            summary.leaks_params = self._leaks_params(module, info.node)

    def _leaks_params(self, module, func):
        """Would this function leak a parameter that is a raw device?"""
        args = func.args
        params = [a.arg for a in (args.posonlyargs + args.args
                                  + args.kwonlyargs) if a.arg != "self"]
        if args.vararg is not None:
            params.append(args.vararg.arg)
        if args.kwarg is not None:
            params.append(args.kwarg.arg)
        if not params:
            return False
        shim = _ModuleImportsShim(module)
        analysis = _EscapeAnalysis(shim, params=params)
        cfg = build_cfg(func)
        in_facts = analysis.solve(cfg)
        func_public = not func.name.startswith("_")
        for block in cfg.blocks:
            fact = in_facts.get(block, TOP)
            if fact is TOP:
                continue
            for kind, node in block.events:
                for _finding in analysis.escape_findings(
                        fact, kind, node, func_public):
                    return True
                fact = analysis.transfer(fact, kind, node)
        return False

    # -- checker integration -----------------------------------------------

    def gate_resolver(self, path, qualname, func):
        """The per-function :class:`GateResolver` for checkers (or
        None when ``path`` was not indexed)."""
        module = self.project.module_for(path)
        if module is None:
            return None
        return GateResolver(self, module, self.owner_of(module, qualname))

    def register_store(self, path, lineno, col, qualname, entry_dep):
        """Record one candidate finding's function and entry-gate
        dependence, keyed by location, for the discharge filter."""
        self._meta[(path, lineno, col)] = (qualname, bool(entry_dep))

    def taint_oracle(self, path):
        """Summary-backed det-taint oracle for one file (or None)."""
        module = self.project.module_for(path)
        if module is None:
            return None
        return _ResolvedTaintOracle(self, module)

    def escape_oracle(self, path):
        """A ``callee_safe(call)`` predicate for pm-escape: True when
        the call strict-resolves to a summarized function whose
        parameters provably do not escape (or None when ``path`` was
        not indexed)."""
        module = self.project.module_for(path)
        if module is None:
            return None

        def callee_safe(call):
            # Imported-callee calls only; attr/local stay foreign.
            descriptor = module.call_descriptor(call.func)
            if descriptor is None or descriptor[0] != "import":
                return False
            resolved = self.project.resolve(module, descriptor)
            if resolved is None or resolved.module is None:
                return False
            summary = self.summaries.get(
                (resolved.module, resolved.qualname))
            return summary is not None and not summary.leaks_params
        return callee_safe

    # -- discharge filter --------------------------------------------------

    def _build_edges(self):
        """In-edges over summaries: target -> [(caller, gatedness)]."""
        in_edges = {}
        unresolved = set()
        for key in sorted(self.summaries):
            module = self.project.modules.get(key[0])
            if module is None:
                continue
            owner = self.owner_of(module, key[1])
            for descriptor, gated in self.summaries[key].calls:
                target = self.strict_resolve(module, owner, descriptor)
                if target is None:
                    name = descriptor[2] if descriptor[0] == "import" \
                        else descriptor[1]
                    unresolved.add(name)
                    continue
                tkey = (target.module, target.qualname)
                in_edges.setdefault(tkey, []).append((key, gated))
        return in_edges, unresolved

    def _caller_trustworthy(self, key, in_edges, unresolved):
        bare = key[1].split(".")[-1]
        return bool(in_edges.get(key)) and bare not in unresolved \
            and bare not in self._noncall_names

    def _lifecycle_set(self, in_edges, unresolved):
        lifecycle = set()
        for module in self.project.modules.values():
            for decl in module.classes.values():
                if id(decl) not in self._backend_decls:
                    continue
                for name in decl.methods:
                    if name in LIFECYCLE_NAMES:
                        lifecycle.add((decl.module,
                                       "%s.%s" % (decl.name, name)))
        while True:
            changed = False
            for key in sorted(self.summaries):
                if key in lifecycle:
                    continue
                if not self._caller_trustworthy(key, in_edges, unresolved):
                    continue
                if all(caller in lifecycle
                       for caller, _g in in_edges[key]):
                    lifecycle.add(key)
                    changed = True
            if not changed:
                return lifecycle

    def _gated_set(self, in_edges, unresolved):
        gated = set()
        while True:
            changed = False
            for key in sorted(self.summaries):
                if key in gated:
                    continue
                if not self._caller_trustworthy(key, in_edges, unresolved):
                    continue
                if all(g == "yes" or (g == "entry" and caller in gated)
                       for caller, g in in_edges[key]):
                    gated.add(key)
                    changed = True
            if not changed:
                return gated

    def _call_path(self, key, in_edges, limit=5):
        """Deterministic caller chain ending at ``key``, or None."""
        path = [key]
        seen = {key}
        current = key
        for _depth in range(limit):
            callers = sorted({caller for caller, _g
                              in in_edges.get(current, ())}
                             - seen)
            if not callers:
                break
            current = callers[0]
            seen.add(current)
            path.append(current)
        if len(path) == 1:
            return None
        return " -> ".join("%s:%s" % (mod, qual)
                           for mod, qual in reversed(path))

    def filter_findings(self, findings):
        """Drop discharged persist-order candidates; annotate survivors
        that have resolved callers with their call path."""
        in_edges, unresolved = self._build_edges()
        lifecycle = self._lifecycle_set(in_edges, unresolved)
        gated = self._gated_set(in_edges, unresolved)
        kept = []
        self.discharged = []
        for finding in findings:
            if finding.rule_id != "persist-order":
                kept.append(finding)
                continue
            meta = self._meta.get(
                (finding.path, finding.lineno, finding.col))
            if meta is None:
                kept.append(finding)
                continue
            qualname, entry_dep = meta
            mkey = module_key(finding.path)
            module = self.project.modules.get(mkey)
            owner = self.owner_of(module, qualname) \
                if module is not None else None
            fkey = (mkey, qualname)
            in_baselines = "baselines" in \
                _segments(finding.path.replace("\\", "/"), "/")
            if owner is not None and id(owner) in self._mechanism_decls:
                reason = "mechanism"
            elif in_baselines and fkey in lifecycle:
                reason = "lifecycle"
            elif entry_dep and fkey in gated:
                reason = "gated-context"
            else:
                trace = self._call_path(fkey, in_edges)
                if trace is not None:
                    finding.message += " [call path: %s]" % trace
                kept.append(finding)
                continue
            self.discharged.append(
                (finding.path, finding.lineno, finding.col, reason))
        return kept


def _tarjan(nodes, successors):
    """Iterative Tarjan: SCCs in reverse topological order (sinks —
    i.e. callees — first), deterministic for sorted ``nodes``."""
    index_of = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in nodes:
        if root in index_of:
            continue
        work = [(root, iter(successors(root)))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs
