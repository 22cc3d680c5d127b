"""A module-level project index and best-effort call graph.

The flow checkers are mostly intraprocedural, but two questions need
cross-function facts:

* determinism taint: "does calling ``helper()`` return a value derived
  from wall-clock/entropy?" — so a call to a *locally defined or
  imported* tainted function is itself a taint source;
* PM escape: "is this callee defined in the current module, imported
  from a sanctioned owner, or foreign?"

:class:`ProjectIndex` parses every file once, records per-module
imports (local name → source module), top-level functions and methods,
class declarations (with base-class descriptors, so the interprocedural
layer can walk accessor→pool→device hierarchies across files), and
name-resolved call edges. Resolution is intentionally name-based and
conservative — Python's dynamism makes a sound call graph impossible,
and an over-approximate edge only ever makes the checkers *more*
suspicious, never silently blind.

Call descriptors come in three shapes:

``("local", name)``
    A bare-name call to a function defined (or assumed) in this module.
``("import", module, name)``
    A call through an imported name, aliased or not (``from a import b
    as c`` records ``("import", "a", "b")`` for ``c()``), or through a
    module alias (``import x.y as z; z.f()`` records
    ``("import", "x.y", "f")``).
``("attr", attr, receiver)``
    A method-style call ``recv.attr(...)``; ``receiver`` is the simple
    name of the receiver (``"self"``, ``"_wal"``, ...) or None when the
    receiver is a complex expression.

``functools.partial`` bindings are tracked as aliases: after
``g = functools.partial(f, x)`` a call ``g()`` records the descriptor
of ``f`` itself, and ``self._g = partial(self._f, x)`` routes
``self._g()`` to ``self._f``.
"""

import ast

from repro.staticcheck.baseline import path_key


def module_key(path):
    """A stable module key for ``path``.

    Files inside a ``repro`` package get their dotted module path
    (``repro.structures.hashmap``); anything else falls back to the
    dotted :func:`~repro.staticcheck.baseline.path_key`, which is unique
    enough for fixture trees.
    """
    relative = path_key(path)
    if relative.endswith(".py"):
        relative = relative[:-3]
    if relative.endswith("/__init__"):
        relative = relative[:-len("/__init__")]
    return relative.replace("/", ".")


def _name_of(expr):
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


class FunctionInfo:
    """One function or method: its AST node and resolved call targets."""

    __slots__ = ("qualname", "node", "calls", "module")

    def __init__(self, qualname, node, module=None):
        self.qualname = qualname
        self.node = node
        #: Owning module key (set by ModuleInfo; None for ad-hoc infos).
        self.module = module
        #: Callee descriptors (see the module docstring).
        self.calls = []

    def __repr__(self):
        return "FunctionInfo(%s, %d calls)" % (self.qualname,
                                               len(self.calls))


class ClassDecl:
    """One top-level class: base descriptors and its own methods."""

    __slots__ = ("name", "node", "module", "bases", "methods")

    def __init__(self, name, node, module):
        self.name = name
        self.node = node
        self.module = module
        #: Base-class descriptors: ``("local", name)`` or
        #: ``("import", module, name)``; unresolvable bases are omitted.
        self.bases = []
        #: method name -> FunctionInfo defined directly on this class.
        self.methods = {}

    def __repr__(self):
        return "ClassDecl(%s, %d methods)" % (self.name, len(self.methods))


class ModuleInfo:
    """Per-module facts: imports, functions, classes, call edges."""

    def __init__(self, key, path, tree):
        self.key = key
        self.path = path
        self.tree = tree
        #: local name -> source module (``import x.y`` binds ``x``;
        #: ``from a.b import c as d`` binds ``d`` -> ``a.b``;
        #: ``import x.y as z`` binds ``z`` -> ``x.y``).
        self.imports = {}
        #: local name -> original name in the source module (for
        #: ``from a import b as c`` this maps ``c`` -> ``b``).
        self.import_orig = {}
        #: qualname ("f" or "Cls.f") -> FunctionInfo.
        self.functions = {}
        #: class name -> ClassDecl (top-level classes only).
        self.classes = {}
        #: functools.partial aliases: bound name -> wrapped descriptor.
        self.partial_aliases = {}
        #: same, for ``self.<attr> = partial(...)`` bindings.
        self.partial_attr_aliases = {}
        self._collect()

    def _collect(self):
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = alias.name
                    self.import_orig[local] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = node.module
                    self.import_orig[local] = alias.name
        self._collect_partials()
        self._walk_scope(self.tree.body, prefix="", class_decl=None)

    # -- functools.partial aliases ---------------------------------------

    def _is_partial_call(self, value):
        if not isinstance(value, ast.Call) or not value.args:
            return False
        func = value.func
        if isinstance(func, ast.Name):
            return func.id == "partial" \
                and self.imports.get(func.id) == "functools"
        if isinstance(func, ast.Attribute) and func.attr == "partial":
            receiver = _name_of(func.value)
            return receiver == "functools" \
                or self.imports.get(receiver) == "functools"
        return False

    def _descriptor_for(self, expr):
        """The call descriptor naming ``expr`` as a callee, or None."""
        if isinstance(expr, ast.Name):
            if expr.id in self.imports:
                return ("import", self.imports[expr.id],
                        self.import_orig.get(expr.id, expr.id))
            return ("local", expr.id)
        if isinstance(expr, ast.Attribute):
            receiver = _name_of(expr.value)
            if receiver in self.imports:
                return ("import", self.imports[receiver], expr.attr)
            return ("attr", expr.attr, receiver)
        return None

    def _collect_partials(self):
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            if not self._is_partial_call(node.value):
                continue
            wrapped = self._descriptor_for(node.value.args[0])
            if wrapped is None:
                continue
            target = node.targets[0]
            if isinstance(target, ast.Name):
                self.partial_aliases[target.id] = wrapped
            elif isinstance(target, ast.Attribute) \
                    and _name_of(target.value) == "self":
                self.partial_attr_aliases[target.attr] = wrapped

    # -- functions and classes -------------------------------------------

    def _walk_scope(self, body, prefix, class_decl):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + node.name
                info = FunctionInfo(qualname, node, module=self.key)
                self._record_calls(node, info)
                self.functions[qualname] = info
                # Plain name too, so ``self.helper()``-style resolution
                # by bare name can find methods.
                self.functions.setdefault(node.name, info)
                if class_decl is not None:
                    class_decl.methods[node.name] = info
            elif isinstance(node, ast.ClassDef):
                decl = None
                if class_decl is None:   # top-level classes only
                    decl = ClassDecl(node.name, node, self.key)
                    for base in node.bases:
                        descriptor = self._descriptor_for(base)
                        if descriptor is not None \
                                and descriptor[0] != "attr":
                            decl.bases.append(descriptor)
                    self.classes[node.name] = decl
                self._walk_scope(node.body, prefix=node.name + ".",
                                 class_decl=decl)

    def call_descriptor(self, callee):
        """The descriptor for a call whose ``func`` expression is
        ``callee`` — partial aliases resolved, imports followed — or
        None for complex callees (``f()()``, subscripts, ...)."""
        if isinstance(callee, ast.Name):
            if callee.id in self.partial_aliases:
                return self.partial_aliases[callee.id]
            if callee.id in self.imports:
                return ("import", self.imports[callee.id],
                        self.import_orig.get(callee.id, callee.id))
            return ("local", callee.id)
        if isinstance(callee, ast.Attribute):
            receiver = _name_of(callee.value)
            if receiver == "self" \
                    and callee.attr in self.partial_attr_aliases:
                return self.partial_attr_aliases[callee.attr]
            if receiver in self.imports:
                # ``import x.y as z; z.f()`` — a module-alias call,
                # not a method on a local object.
                return ("import", self.imports[receiver], callee.attr)
            return ("attr", callee.attr, receiver)
        return None

    def _record_calls(self, func, info):
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            descriptor = self.call_descriptor(node.func)
            if descriptor is not None:
                info.calls.append(descriptor)


class ProjectIndex:
    """All modules of one run, keyed by :func:`module_key`."""

    def __init__(self):
        self.modules = {}

    @classmethod
    def build(cls, sources):
        """Index ``sources``: an iterable of ``(path, source)`` pairs.

        Unparseable files are skipped — the engine reports them as
        ``parse-error`` findings separately.
        """
        index = cls()
        for path, source in sources:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue
            info = ModuleInfo(module_key(path), path, tree)
            index.modules[info.key] = info
        return index

    def module_for(self, path):
        """The ModuleInfo for ``path`` (or None)."""
        return self.modules.get(module_key(path))

    def resolve(self, module, callee):
        """Resolve a callee descriptor to a FunctionInfo, or None.

        ``("local", f)`` looks in ``module``; ``("import", mod, f)``
        follows the import to another indexed module; ``("attr", a,
        recv)`` follows a module-alias receiver into the aliased module,
        otherwise resolves by bare method name within ``module`` only
        (methods on foreign objects are opaque).
        """
        kind = callee[0]
        if kind == "local":
            return module.functions.get(callee[1])
        if kind == "import":
            target = self.modules.get(callee[1])
            if target is not None:
                return target.functions.get(callee[2])
            return None
        if len(callee) >= 3 and callee[2] in module.imports:
            # Module-alias method call: resolve in the aliased module
            # (and nowhere else — falling back to a same-named local
            # function would fabricate an edge).
            target = self.modules.get(module.imports[callee[2]])
            if target is not None:
                return target.functions.get(callee[1])
            return None
        return module.functions.get(callee[1])
