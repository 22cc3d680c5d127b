"""The staticcheck engine: checker registry, context, baseline, CLI.

Mirrors :mod:`repro.lint.engine` deliberately — same finding type, same
``# lint: ignore[...]`` suppressions (one vocabulary for both tools),
same exit-code contract (0 clean / 1 findings / 2 usage-or-crash) — but
a checker gets a :class:`CheckContext` with *flow* machinery on top of
the parsed AST: per-function CFGs (built lazily, cached), the module's
import map, and the whole run's :class:`~repro.staticcheck.callgraph.
ProjectIndex` for cross-function questions.
"""

import argparse
import ast
import os
import re
import sys

from repro.errors import LintError
from repro.lint.engine import (
    LintContext,
    LintFinding,
    SuppressionIndex,
    iter_python_files,
    render_findings,
)
from repro.staticcheck.baseline import (
    Baseline,
    discover_baseline,
    path_key,
    write_baseline,
)
from repro.staticcheck.callgraph import ProjectIndex
from repro.staticcheck.cfg import build_cfg

_CHECKERS = {}


class Checker:
    """One registered flow checker: id, summary, callable."""

    __slots__ = ("checker_id", "summary", "check")

    def __init__(self, checker_id, summary, check):
        self.checker_id = checker_id
        self.summary = summary
        self.check = check


def checker(checker_id, summary):
    """Decorator registering a flow checker, mirroring ``lint.rule``.

    The wrapped function takes a :class:`CheckContext` and yields
    ``(lineno, col, message)`` findings.
    """
    if not re.fullmatch(r"[a-z][a-z0-9\-]*", checker_id):
        raise LintError("checker id %r must be kebab-case" % (checker_id,))

    def decorator(func):
        if checker_id in _CHECKERS:
            raise LintError("duplicate checker id %r" % (checker_id,))
        _CHECKERS[checker_id] = Checker(checker_id, summary, func)
        return func
    return decorator


def all_checkers():
    """The registered catalogue as ``{checker_id: Checker}`` (a copy)."""
    return dict(_CHECKERS)


class CheckContext(LintContext):
    """Everything a flow checker may inspect about one file."""

    def __init__(self, path, source, tree, project=None):
        LintContext.__init__(self, path, source, tree)
        #: ProjectIndex over the whole run (None for single-file calls).
        self.project = project
        #: InterprocAnalysis when running whole-program mode (else None);
        #: checkers consult it for callee summaries and register
        #: candidate metadata on it.
        self.interproc = None
        self._cfgs = {}
        self._functions = None
        self._imports = None

    # -- path scoping -----------------------------------------------------

    def has_segment(self, *names):
        """True if any path component equals one of ``names``.

        Unlike :meth:`in_package` this matches fixture trees too
        (``tests/fixtures/staticcheck/structures/bad.py`` has a
        ``structures`` segment), which is what keeps the seeded-violation
        fixtures honest: they run through exactly the production scoping.
        """
        parts = self.norm_path.split("/")
        return any(name in parts for name in names)

    # -- module facts -----------------------------------------------------

    @property
    def imports(self):
        """Local name -> source module, from top-level imports."""
        if self._imports is None:
            imports = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        local = alias.asname or alias.name.split(".")[0]
                        imports[local] = alias.name
                elif isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        imports[alias.asname or alias.name] = node.module
            self._imports = imports
        return self._imports

    def functions(self):
        """Every function in the file as ``(qualname, node)``, including
        nested functions and methods (lambdas are not CFG material)."""
        if self._functions is None:
            collected = []

            def visit(body, prefix):
                for node in body:
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        qualname = prefix + node.name
                        collected.append((qualname, node))
                        visit(node.body, qualname + ".")
                    elif isinstance(node, ast.ClassDef):
                        visit(node.body, prefix + node.name + ".")
                    else:
                        # Descend into compound statements (if/for/try/
                        # with bodies) so arbitrarily nested defs are
                        # found at the same qualname prefix.
                        nested = [child for child in ast.iter_child_nodes(node)
                                  if isinstance(child, ast.stmt)]
                        if nested:
                            visit(nested, prefix)
            visit(self.tree.body, "")
            self._functions = collected
        return self._functions

    def cfg(self, func):
        """The (cached) CFG for one function node."""
        if func not in self._cfgs:
            self._cfgs[func] = build_cfg(func)
        return self._cfgs[func]


def _select(selected):
    if selected is None:
        return list(_CHECKERS.values())
    chosen = []
    for checker_id in selected:
        if checker_id not in _CHECKERS:
            raise LintError("unknown checker %r (have %s)"
                            % (checker_id, ", ".join(sorted(_CHECKERS))))
        chosen.append(_CHECKERS[checker_id])
    return chosen


def check_source(path, source, project=None, selected=None, interproc=None):
    """Check one source string; returns a list of LintFinding.

    Same contract as ``lint_source``: syntax errors become a
    ``parse-error`` finding, suppressions are honoured per line (with
    multi-line statement awareness). ``interproc`` switches the
    checkers into whole-program mode (callee summaries resolve gates,
    candidates register their function metadata for the discharge
    filter).
    """
    checkers = _select(selected)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding(path, exc.lineno or 1, exc.offset or 0,
                            "parse-error", str(exc.msg))]
    ctx = CheckContext(path, source, tree, project=project)
    ctx.interproc = interproc
    suppressions = SuppressionIndex(ctx.lines, tree)
    findings = []
    for checker_obj in checkers:
        for lineno, col, message in checker_obj.check(ctx):
            if suppressions.suppressed(lineno, checker_obj.checker_id):
                continue
            findings.append(LintFinding(path, lineno, col,
                                        checker_obj.checker_id, message))
    findings.sort(key=lambda f: (f.lineno, f.col, f.rule_id))
    return findings


def _index(paths):
    """Read every Python file under ``paths`` and index the whole run
    (the call graph spans all of it). Returns ``(sources, project)``."""
    sources = []
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            sources.append((filename, handle.read()))
    return sources, ProjectIndex.build(sources)


def run_paths(paths, selected=None):
    """Per-function findings for every Python file under ``paths``.

    The reference that :func:`run_interproc` findings are always a
    subset of, and what :func:`~repro.staticcheck.fixer.fix_source`
    plans its edits from.
    """
    sources, project = _index(paths)
    findings = []
    for filename, source in sources:
        findings.extend(check_source(filename, source, project=project,
                                     selected=selected))
    return findings


def run_interproc(paths, selected=None):
    """Whole-program run over ``paths``: what the CLI and the fixer use.

    Builds the project index and the
    :class:`~repro.staticcheck.interproc.InterprocAnalysis`, computes
    every function summary, checks file by file with them, then applies
    the caller-direction discharge filter. Returns ``(findings,
    filenames, discharged)``: the filenames scope baseline dead/stale
    checks to what this run actually looked at, and ``discharged``
    lists ``(path, lineno, col, reason)`` per dropped finding.
    """
    # Imported lazily: interproc pulls in the checkers, which import
    # this module at load time.
    from repro.staticcheck.interproc import InterprocAnalysis

    sources, project = _index(paths)
    interproc = InterprocAnalysis(project)
    interproc.compute_summaries()
    findings = []
    for filename, source in sources:
        findings.extend(check_source(filename, source, project=project,
                                     selected=selected,
                                     interproc=interproc))
    findings = interproc.filter_findings(findings)
    return (findings, [filename for filename, _source in sources],
            interproc.discharged)


def main(argv=None):
    """CLI entry point; exit code 0 clean, 1 findings, 2 usage error."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="Flow-aware static analysis (CFG/dataflow) over the "
                    "repro sources; see docs/analysis-tools.md.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to check (default: src)")
    parser.add_argument("--select", action="append", metavar="CHECKER",
                        help="run only this checker id (repeatable)")
    parser.add_argument("--list-checkers", action="store_true",
                        help="print the checker catalogue and exit")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array on stdout "
                             "(same as --format json)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default=None,
                        help="output format (default text; sarif suits "
                             "CI annotation upload)")
    parser.add_argument("--fix", action="store_true",
                        help="auto-insert persist gates for fixable "
                             "persist-order findings (rewrites files)")
    parser.add_argument("--fix-diff", action="store_true",
                        help="like --fix but print a unified diff on "
                             "stdout instead of writing files")
    parser.add_argument("--fix-style",
                        choices=("auto", "tx", "with", "wal"),
                        default="auto",
                        help="gate idiom for --fix/--fix-diff (default: "
                             "auto — pick per receiver)")
    parser.add_argument("--witness-trace", action="append", metavar="FILE",
                        help="replay trace (repro.replay format) used to "
                             "ground surviving findings as 'confirmed' or "
                             "'static-only' (repeatable)")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="accepted-findings baseline (default: "
                             "discover staticcheck-baseline.txt)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline; report every finding")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept current findings into the --baseline "
                             "file (default staticcheck-baseline.txt) and "
                             "exit 0")
    args = parser.parse_args(argv)

    if args.list_checkers:
        for checker_id, checker_obj in sorted(all_checkers().items()):
            print("%-18s %s" % (checker_id, checker_obj.summary))
        return 0

    paths = args.paths or ["src"]

    if args.fix or args.fix_diff:
        # Imported lazily: the fixer pulls in the checker internals,
        # and checkers import this module at load time.
        from repro.staticcheck.fixer import fix_paths
        fix_baseline = None
        if not args.no_baseline:
            baseline_path = args.baseline or discover_baseline(paths)
            if baseline_path is not None:
                try:
                    fix_baseline = Baseline.load(baseline_path)
                except (LintError, OSError) as exc:
                    print("staticcheck: error: %s" % exc, file=sys.stderr)
                    return 2
        try:
            return fix_paths(paths, style=args.fix_style,
                             diff_only=args.fix_diff,
                             baseline=fix_baseline)
        except LintError as exc:
            print("staticcheck: error: %s" % exc, file=sys.stderr)
            return 2

    if args.write_baseline and args.select:
        print("staticcheck: error: --write-baseline records every "
              "checker's findings; drop --select", file=sys.stderr)
        return 2

    try:
        findings, checked_files, discharged = run_interproc(
            paths, selected=args.select)
        if discharged:
            print("staticcheck: interprocedural summaries discharged "
                  "%d finding(s)" % len(discharged), file=sys.stderr)
        if args.witness_trace:
            from repro.staticcheck.witness import apply_witnesses
            confirmed, static_only = apply_witnesses(
                findings, args.witness_trace)
            print("staticcheck: witness: %d confirmed, "
                  "%d static-only" % (confirmed, static_only),
                  file=sys.stderr)
    except LintError as exc:
        print("staticcheck: error: %s" % exc, file=sys.stderr)
        return 2

    if args.write_baseline:
        target = args.baseline or "staticcheck-baseline.txt"
        existing_notes = {}
        if os.path.isfile(target):
            existing_notes = Baseline.load(target).notes
        write_baseline(findings, target, notes=existing_notes)
        print("staticcheck: wrote %d finding(s) to %s"
              % (len(findings), target), file=sys.stderr)
        return 0

    accepted = []
    dead = []
    if not args.no_baseline:
        baseline_path = args.baseline or discover_baseline(paths)
        if baseline_path is not None:
            try:
                baseline = Baseline.load(baseline_path)
            except (LintError, OSError) as exc:
                print("staticcheck: error: %s" % exc, file=sys.stderr)
                return 2
            findings, accepted = baseline.apply(findings)
            dead, stale = baseline.unused_entries(
                accepted + findings,
                {path_key(name) for name in checked_files},
                set(args.select or all_checkers()))
            for dead_path, dead_rule in dead:
                print("staticcheck: error: baseline entry %s %s is dead "
                      "(that file/rule produces no finding any more); "
                      "remove it from %s"
                      % (dead_path, dead_rule, baseline_path),
                      file=sys.stderr)
            for stale_path, stale_rule, unused in stale:
                print("staticcheck: note: baseline entry %s %s has %d "
                      "unused slot(s)" % (stale_path, stale_rule, unused),
                      file=sys.stderr)

    fmt = args.format or ("json" if args.json else "text")
    rendered = render_findings(
        findings, fmt, "repro.staticcheck",
        rules={cid: c.summary for cid, c in all_checkers().items()})
    if rendered or fmt != "text":
        print(rendered)
    if dead and not findings:
        print("staticcheck: %d dead baseline entr%s" %
              (len(dead), "y" if len(dead) == 1 else "ies"),
              file=sys.stderr)
        return 1
    if findings:
        print("staticcheck: %d new finding(s)%s"
              % (len(findings),
                 " (%d baseline-accepted)" % len(accepted) if accepted
                 else ""),
              file=sys.stderr)
        return 1
    if accepted:
        print("staticcheck: clean (%d baseline-accepted finding(s))"
              % len(accepted), file=sys.stderr)
    return 0
