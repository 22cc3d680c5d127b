"""Auto-fix for ``persist-order`` findings: gate insertion by rewrite.

:func:`fix_source` plans gate regions (:mod:`repro.staticcheck.
placement`), picks the backend idiom the surrounding code already uses,
and splices the gates in as token-preserving line edits
(:mod:`repro.staticcheck.rewriter`):

``tx`` style
    ``<receiver>.begin()`` above the region, ``<receiver>.end()`` after
    it and before every in-region ``return``.
``with`` style
    ``with <receiver>.transaction():`` above the region, region body
    re-indented under it.
``wal`` style
    ``<receiver>.append(<addr>, <value>)`` above each storing
    statement (a WAL append *opens* the gate; no close exists).

The receiver is resolved from what the function can actually reach, in
priority order: a ``tx``-named parameter, an accessor-named parameter,
a ``tx``/accessor attribute the function references, one assigned
anywhere in the enclosing class, then a WAL-named parameter/attribute.
Functions with none of these are reported unfixable rather than
guessed at.

Idempotence contract: the fixer only gates stores the checker reports
uncovered, and every insertion it makes covers its stores under the
same checker — so a second run sees no findings and makes no edits.
:func:`fix_source` enforces this internally by iterating to a
fixed point (later rounds fall back to per-store placement) and
re-checking the final source.
"""

import ast

from repro.errors import LintError
from repro.staticcheck import placement
from repro.staticcheck.checkers import _ACCESSOR_NAMES, _GATE_LOG_RECEIVERS
from repro.staticcheck.rewriter import (
    Indentation,
    Insertion,
    apply_edits,
    indent_of,
    unified_diff,
)

__all__ = ["FixReport", "fix_source", "fix_paths", "unified_diff"]

#: Receiver names tried first: an explicit transaction handle.
_TX_NAMES = ("tx", "_tx")

#: Styles the CLI accepts; "auto" picks per receiver kind.
FIX_STYLES = ("auto", "tx", "with", "wal")

#: Fixed-point bound; rounds 3+ use per-store placement, so two extra
#: rounds suffice for anything the region planner half-covers.
MAX_ROUNDS = 5


class FixReport:
    """What one :func:`fix_source` run did to one file."""

    __slots__ = ("path", "gates", "rounds", "unfixable", "changed")

    def __init__(self, path):
        self.path = path
        #: Open-gate sites inserted (begin / with / wal-append lines).
        self.gates = 0
        self.rounds = 0
        #: ``(lineno, col, reason)`` for stores no edit could cover.
        self.unfixable = []
        self.changed = False

    def __repr__(self):
        return "FixReport(%s, gates=%d, rounds=%d, unfixable=%d)" % (
            self.path, self.gates, self.rounds, len(self.unfixable))


# -- receiver resolution -----------------------------------------------------


def _functions_with_owner(tree):
    """Every function with its enclosing class (or None), mirroring
    ``CheckContext.functions`` traversal."""
    collected = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                collected.append((node, owner))
                visit(node.body, owner)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, node)
            else:
                nested = [child for child in ast.iter_child_nodes(node)
                          if isinstance(child, ast.stmt)]
                if nested:
                    visit(nested, owner)
    visit(tree.body, None)
    return collected


def _param_names(func):
    args = func.args
    params = [arg.arg for arg in
              getattr(args, "posonlyargs", []) + args.args + args.kwonlyargs]
    return [name for name in params if name not in ("self", "cls")]


def _self_attr_names(func):
    """Attributes of ``self`` referenced in ``func``, in walk order."""
    names = []
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self" \
                and node.attr not in names:
            names.append(node.attr)
    return names


def _class_attr_names(class_node):
    """Attributes assigned on ``self`` anywhere in the class, in order."""
    names = []
    if class_node is None:
        return names
    for node in ast.walk(class_node):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == "self" \
                    and target.attr not in names:
                names.append(target.attr)
    return names


def _pick(candidates, pool):
    for name in candidates:
        if name in pool:
            return name
    return None


def _resolve_receiver(func, class_node):
    """``(expression, kind)`` for the gate receiver, or ``(None, None)``.

    ``kind`` is "tx" (has begin/end) or "wal" (append-only log).
    """
    params = _param_names(func)
    local = _self_attr_names(func)
    inherited = _class_attr_names(class_node)

    name = _pick(params, _TX_NAMES)
    if name is None:
        name = _pick(params, _ACCESSOR_NAMES)
    if name is not None:
        return name, "tx"
    for scope in (local, inherited):
        name = _pick(scope, _TX_NAMES) or _pick(scope, _ACCESSOR_NAMES)
        if name is not None:
            return "self." + name, "tx"
    name = _pick(params, _GATE_LOG_RECEIVERS)
    if name is not None:
        return name, "wal"
    for scope in (local, inherited):
        name = _pick(scope, _GATE_LOG_RECEIVERS)
        if name is not None:
            return "self." + name, "wal"
    return None, None


# -- edit planning -----------------------------------------------------------


def _region_has_multiline_string(region):
    """True when re-indenting the region's lines could corrupt a
    multi-line string literal."""
    for stmt in region.statements:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and getattr(node, "end_lineno", node.lineno) != node.lineno:
                return True
    return False


def _tx_edits(region, cfg, receiver, lines):
    edits = []
    open_line = region.first.lineno
    indent = indent_of(lines[open_line - 1])
    edits.append(Insertion(open_line, [indent + receiver + ".begin()"]))
    if not placement.fallthrough_close_covers(cfg, region):
        for ret in region.returns():
            ret_indent = indent_of(lines[ret.lineno - 1])
            edits.append(Insertion(ret.lineno,
                                   [ret_indent + receiver + ".end()"]))
    if not isinstance(region.last, ast.Return):
        edits.append(Insertion(region.last.end_lineno + 1,
                               [indent + receiver + ".end()"]))
    return edits


def _with_edits(region, receiver, lines):
    open_line = region.first.lineno
    last_line = region.last.end_lineno
    indent = indent_of(lines[open_line - 1])
    return [
        Insertion(open_line, [indent + "with %s.transaction():" % receiver]),
        Indentation(open_line, last_line),
    ]


def _wal_edits(region, receiver, source, lines):
    """One append per store, above the storing statement."""
    edits = []
    stmt_line = region.first.lineno
    indent = indent_of(lines[stmt_line - 1])
    for order, call in enumerate(
            sorted(region.stores,
                   key=lambda c: (c.lineno, c.col_offset))):
        segments = []
        for arg in call.args[:2]:
            segment = ast.get_source_segment(source, arg)
            if segment is None or "\n" in segment:
                segment = "0"
            segments.append(segment)
        while len(segments) < 2:
            segments.append("0")
        edits.append(Insertion(
            stmt_line,
            ["%s%s.append(%s, %s)" % (indent, receiver,
                                      segments[0], segments[1])],
            order=order))
    return edits


def _plan_file_edits(tree, source, style, per_store):
    """``(edits, gates, unfixable)`` for one parsed source."""
    lines = source.splitlines()
    edits = []
    gates = 0
    unfixable = []
    for func, owner in _functions_with_owner(tree):
        receiver, kind = _resolve_receiver(func, owner)
        use_wal = kind == "wal" or style == "wal"
        regions, unplaced, cfg = placement.plan_function(
            func, per_store=per_store or use_wal)
        for call in unplaced:
            unfixable.append((call.lineno, call.col_offset,
                              "store outside any statement body"))
        if not regions:
            continue
        if receiver is None:
            for region in regions:
                unfixable.extend(
                    (call.lineno, call.col_offset,
                     "no tx/accessor/wal receiver reachable from %r"
                     % func.name)
                    for call in region.stores)
            continue
        for region in regions:
            if use_wal:
                if kind != "wal" and style == "wal":
                    # Forced WAL style but only a tx receiver: the
                    # receiver cannot append; fall back to tx gates.
                    edits.extend(_tx_edits(region, cfg, receiver, lines))
                else:
                    edits.extend(_wal_edits(region, receiver, source, lines))
            elif style == "with" \
                    and not _region_has_multiline_string(region):
                edits.extend(_with_edits(region, receiver, lines))
            else:
                edits.extend(_tx_edits(region, cfg, receiver, lines))
            gates += 1
    return edits, gates, unfixable


def fix_source(path, source, style="auto", max_rounds=MAX_ROUNDS):
    """Insert persist gates until the checker is clean; returns
    ``(new_source, FixReport)``.

    Raises :class:`LintError` on unparseable input (including a round
    whose own edits fail to parse, which would indicate a rewriter
    bug — edits are never kept in that case).
    """
    if style not in FIX_STYLES:
        raise LintError("unknown fix style %r (have %s)"
                        % (style, ", ".join(FIX_STYLES)))
    report = FixReport(path)
    current = source
    for round_index in range(max_rounds):
        try:
            tree = ast.parse(current, filename=path)
        except SyntaxError as exc:
            raise LintError("%s:%s: cannot fix unparseable source: %s"
                            % (path, exc.lineno or 1, exc.msg))
        per_store = round_index >= 2
        edits, gates, unfixable = _plan_file_edits(
            tree, current, style, per_store)
        if not edits:
            report.unfixable = unfixable
            break
        candidate = apply_edits(current, edits)
        try:
            ast.parse(candidate, filename=path)
        except SyntaxError as exc:
            raise LintError("%s: fixer produced unparseable output at "
                            "line %s: %s" % (path, exc.lineno, exc.msg))
        current = candidate
        report.rounds = round_index + 1
        report.gates += gates

    # Final re-check: anything still uncovered is unfixable by this
    # pass (and proves the fixed source is a fixed point).
    tree = ast.parse(current, filename=path)
    remaining = []
    for func, _owner in _functions_with_owner(tree):
        calls, _cfg = placement.uncovered_stores(func)
        remaining.extend(calls)
    if remaining:
        known = {(lineno, col) for lineno, col, _ in report.unfixable}
        for call in remaining:
            if (call.lineno, call.col_offset) not in known:
                report.unfixable.append(
                    (call.lineno, call.col_offset,
                     "store still uncovered after %d round(s)"
                     % max(report.rounds, 1)))
    report.unfixable.sort()
    report.changed = current != source
    return current, report


# -- CLI driver --------------------------------------------------------------


def fix_paths(paths, style="auto", diff_only=False, baseline=None,
              stream=None):
    """Fix every file under ``paths`` with new persist-order findings.

    Files are chosen from the whole-program findings that remain after
    the baseline: a store the whole-program pass discharges (mechanism
    or lifecycle code, a gated calling context) needs no gate of its
    own, and baseline-accepted findings record *intentionally* ungated
    code (volatile structures) that must not be instrumented in place.
    Returns the exit code: 0 all findings fixed (diffs printed or files
    rewritten), 1 some store was unfixable, honoring the shared lint
    exit contract.
    """
    import sys

    from repro.staticcheck.engine import run_interproc

    out = stream or sys.stdout
    findings, filenames, _discharged = run_interproc(
        paths, selected=["persist-order"])
    if baseline is not None:
        findings, _accepted = baseline.apply(findings)
    flagged = {finding.path for finding in findings}
    broken = {finding.path for finding in findings
              if finding.rule_id == "parse-error"}
    exit_code = 0
    fixed_files = 0
    for filename in filenames:
        if filename not in flagged:
            continue
        if filename in broken:
            print("staticcheck: %s: cannot fix, parse error" % filename,
                  file=sys.stderr)
            exit_code = 1
            continue
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        fixed, report = fix_source(filename, source, style=style)
        for lineno, col, reason in report.unfixable:
            print("%s:%d:%d: unfixable persist-order finding: %s"
                  % (filename, lineno, col, reason), file=sys.stderr)
            exit_code = 1
        if not report.changed:
            continue
        if diff_only:
            out.write(unified_diff(source, fixed, filename))
        else:
            with open(filename, "w", encoding="utf-8") as handle:
                handle.write(fixed)
            print("staticcheck: %s: inserted %d gate site(s) in %d "
                  "round(s)" % (filename, report.gates, report.rounds),
                  file=sys.stderr)
        fixed_files += 1
    if not diff_only and fixed_files == 0 and exit_code == 0:
        print("staticcheck: nothing to fix", file=sys.stderr)
    return exit_code
