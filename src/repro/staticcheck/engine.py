"""The staticcheck engine: checker registry, context, findings, CLI.

A checker is a generator function taking a :class:`CheckContext` and
yielding ``(lineno, col, message)`` tuples; the :func:`checker`
decorator registers it under a stable id. Syntactic rules
(:mod:`repro.staticcheck.rules`) only walk ``ctx.tree``; flow checkers
(:mod:`repro.staticcheck.checkers`) also use the context's per-function
CFGs (built lazily, cached), the module's import map, and the whole
run's :class:`~repro.staticcheck.callgraph.ProjectIndex`. The engine
owns everything else: parsing, per-line ``# lint: ignore[...]``
suppressions, path walking, the baseline, the output formats, and the
exit-code contract (0 clean / 1 findings / 2 usage error).
"""

import argparse
import ast
import json
import os
import re
import sys

from repro.errors import LintError
from repro.staticcheck.baseline import (
    Baseline,
    discover_baseline,
    path_key,
    write_baseline,
)
from repro.staticcheck.callgraph import ProjectIndex
from repro.staticcheck.cfg import build_cfg

#: ``# lint: ignore`` at the end of a line, or ``# lint: ignore[rule-a,
#: rule-b]`` (optionally followed by a reason). Anything else after
#: ``ignore`` is malformed and suppresses nothing.
_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*ignore(?:\[(?P<rules>[a-z0-9\-_,\s]*)\]|\s*$)")

#: Compound statements: a marker inside their (possibly huge) body must
#: not suppress findings on the header line, so statement-extent lookup
#: only indexes the simple statements.
_COMPOUND_STMTS = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.If, ast.For,
    ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try,
)

_CHECKERS = {}


class Checker:
    """One registered checker: id, summary, callable."""

    __slots__ = ("checker_id", "summary", "check")

    def __init__(self, checker_id, summary, check):
        self.checker_id = checker_id
        self.summary = summary
        self.check = check


def checker(checker_id, summary):
    """Decorator registering ``func`` as the checker for ``checker_id``.

    ``func(ctx)`` receives a :class:`CheckContext` and yields
    ``(lineno, col, message)`` findings. Registering the same id twice is
    a programming error and raises :class:`~repro.errors.LintError`.
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


class LintFinding:
    """One located finding: file, position, rule id, message."""

    __slots__ = ("path", "lineno", "col", "rule_id", "message")

    def __init__(self, path, lineno, col, rule_id, message):
        self.path = path
        self.lineno = lineno
        self.col = col
        self.rule_id = rule_id
        self.message = message

    def render(self):
        """``path:line:col: rule-id message`` (editor-clickable)."""
        return "%s:%d:%d: %s %s" % (self.path, self.lineno, self.col,
                                    self.rule_id, self.message)

    def __repr__(self):
        return "LintFinding(%s)" % self.render()


class CheckContext:
    """Everything a checker may inspect about one file."""

    def __init__(self, path, source, tree, project=None):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: Path normalized to forward slashes, for module-scope predicates.
        self.norm_path = path.replace(os.sep, "/")
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

    def in_package(self, *suffixes):
        """True if this file lives at one of ``suffixes`` inside the
        ``repro`` package (e.g. ``"pm/"`` or ``"sim/rng.py"``)."""
        return path_key(self.path).startswith(
            tuple("repro/" + suffix for suffix in suffixes))

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


def _suppressed_rules(line):
    """Return None (no marker), "all", or a set of suppressed rule ids."""
    match = _SUPPRESS_RE.search(line)
    if match is None:
        return None
    listed = match.group("rules")
    if listed is None:
        return "all"
    return {item.strip() for item in listed.split(",") if item.strip()}


class SuppressionIndex:
    """Per-file ``# lint: ignore`` lookup, aware of multi-line statements.

    A finding is anchored to the line its AST node *starts* on, but the
    human editing the file naturally appends the marker to the line they
    are looking at — which for a wrapped call or a parenthesised
    expression may be the statement's *last* line. The index therefore
    honours a marker on the finding line itself, or on the first or last
    line of the smallest *simple* statement enclosing it. Compound
    statements (def/if/try/...) are excluded so a marker deep inside a
    body cannot blanket-suppress its header.
    """

    def __init__(self, lines, tree=None):
        self._lines = lines
        self._extents = []
        if tree is not None:
            for node in ast.walk(tree):
                if isinstance(node, ast.stmt) \
                        and not isinstance(node, _COMPOUND_STMTS):
                    end = getattr(node, "end_lineno", None) or node.lineno
                    if end > node.lineno:
                        self._extents.append((node.lineno, end))

    def _marker_lines(self, lineno):
        """Line numbers whose marker may suppress a finding at ``lineno``."""
        lines = {lineno}
        best = None
        for start, end in self._extents:
            if start <= lineno <= end:
                if best is None or (end - start) < (best[1] - best[0]):
                    best = (start, end)
        if best is not None:
            lines.update(best)
        return lines

    def suppressed(self, lineno, rule_id):
        """True if ``rule_id`` is suppressed for a finding at ``lineno``."""
        for line_no in self._marker_lines(lineno):
            if not 0 < line_no <= len(self._lines):
                continue
            marks = _suppressed_rules(self._lines[line_no - 1])
            if marks == "all" or (marks is not None and rule_id in marks):
                return True
        return False


#: Version of the ``--format json`` payload; bumped on incompatible shape
#: changes.
JSON_SCHEMA_VERSION = 1


def findings_to_json(findings):
    """Serialize findings as a schema-tagged JSON object.

    The payload is ``{"schema": 1, "findings": [...]}`` so consumers can
    detect shape changes instead of silently misparsing them.
    """
    entries = [{"path": finding.path, "line": finding.lineno,
                "col": finding.col, "rule": finding.rule_id,
                "message": finding.message}
               for finding in findings]
    return json.dumps(
        {"schema": JSON_SCHEMA_VERSION, "findings": entries},
        indent=2)


#: SARIF version emitted by ``--format sarif``: the minimal subset
#: GitHub code scanning ingests for inline annotations.
SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                 "master/Schemata/sarif-schema-2.1.0.json")


def findings_to_sarif(findings):
    """Serialize findings as a SARIF 2.1.0 log (one run).

    The rule catalogue is every registered checker with its summary;
    ids seen only in findings (``parse-error``) are added with none.
    Columns are 0-based internally but SARIF is 1-based, hence the +1.
    """
    catalogue = {checker_id: checker_obj.summary
                 for checker_id, checker_obj in _CHECKERS.items()}
    for finding in findings:
        catalogue.setdefault(finding.rule_id, "")
    results = [{
        "ruleId": finding.rule_id,
        "level": "warning",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path.replace(os.sep, "/"),
                },
                "region": {
                    "startLine": finding.lineno,
                    "startColumn": finding.col + 1,
                },
            },
        }],
    } for finding in findings]
    log = {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": "repro.staticcheck",
                "rules": [
                    {"id": rule_id,
                     "shortDescription": {"text": summary or rule_id}}
                    for rule_id, summary in sorted(catalogue.items())
                ],
            }},
            "results": results,
        }],
    }
    return json.dumps(log, indent=2)


def render_findings(findings, fmt):
    """One findings payload in ``fmt``: "text", "json", or "sarif"."""
    if fmt == "json":
        return findings_to_json(findings)
    if fmt == "sarif":
        return findings_to_sarif(findings)
    if fmt != "text":
        raise LintError("unknown output format %r" % (fmt,))
    return "\n".join(finding.render() for finding in findings)


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
    """Check one source string; returns a list of :class:`LintFinding`.

    ``selected`` restricts the run to an iterable of checker ids (all
    registered checkers when None); unknown ids raise
    :class:`~repro.errors.LintError`. Syntax errors are reported as a
    finding under the pseudo-rule ``parse-error`` rather than raised, so
    one broken file cannot hide the rest of the tree's findings.
    Suppressions are honoured per line (with multi-line statement
    awareness). ``interproc`` switches the flow checkers into
    whole-program mode (callee summaries resolve gates, candidates
    register their function metadata for the discharge filter).
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


def iter_python_files(paths):
    """Yield every ``.py`` file under ``paths`` (files or directories)."""
    for path in paths:
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames
                                     if d != "__pycache__")
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            raise LintError("no such file or directory: %r" % (path,))


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
        description="Static analysis (syntactic rules and CFG/dataflow "
                    "checkers) over the repro sources; see "
                    "docs/analysis-tools.md.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to check (default: src)")
    parser.add_argument("--select", action="append", metavar="CHECKER",
                        help="run only this checker id (repeatable)")
    parser.add_argument("--list-checkers", action="store_true",
                        help="print the checker catalogue and exit")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="output format: text (default), json (a "
                             "schema-tagged object on stdout) or sarif "
                             "(suits CI annotation upload)")
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
            print("%-21s %s" % (checker_id, checker_obj.summary))
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
    except LintError as exc:
        print("staticcheck: error: %s" % exc, file=sys.stderr)
        return 2
    if discharged:
        print("staticcheck: interprocedural summaries discharged "
              "%d finding(s)" % len(discharged), file=sys.stderr)

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

    rendered = render_findings(findings, args.format)
    if rendered or args.format != "text":
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
