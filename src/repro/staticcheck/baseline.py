"""The accepted-findings baseline for ``repro.staticcheck``.

Flow checkers are deliberately suspicious, and some of what they flag
is *accepted* behaviour — the volatile structures store without a gate
because durability is the PAX device's job, and ``pm_direct`` is the
intentionally crash-inconsistent baseline. Those findings are recorded
here once, with a justification, instead of being sprinkled through the
source as inline ignores; CI then fails only on findings *beyond* the
baseline, so new code cannot silently add violations.

File format (``staticcheck-baseline.txt``)::

    # justification for the entry below
    repro/structures/hashmap.py persist-order 14

Each entry line is ``<path-key> <rule-id> <count>``: up to ``count``
findings of ``rule-id`` in that file are accepted. The path key is the
``repro/``-relative path, so the baseline is stable no matter where the
tree is checked out or which prefix the CLI was given. Comments (and
the justification convention: comment lines directly above an entry)
belong to the entry that follows them. ``--write-baseline`` regenerates
entries and carries a placeholder justification for new ones.
"""

import os

from repro.errors import LintError

DEFAULT_BASELINE_NAME = "staticcheck-baseline.txt"


def path_key(path):
    """Canonical baseline key for ``path``: ``repro/``-relative when the
    file lives in a repro package, the normalized path otherwise."""
    norm = path.replace(os.sep, "/")
    marker = "/repro/"
    index = norm.rfind(marker)
    if index >= 0:
        return "repro/" + norm[index + len(marker):]
    if norm.startswith("repro/"):
        return norm
    return norm.lstrip("./")


class Baseline:
    """Accepted findings: ``{(path_key, rule_id): count}`` plus notes."""

    def __init__(self):
        self.entries = {}
        self.notes = {}

    @classmethod
    def load(cls, path):
        """Parse a baseline file; raises LintError on malformed lines.

        A justification comment must be followed by the entry it
        excuses: once the first entry has been seen, a comment block
        terminated by a blank line (or the end of the file) without an
        entry line is an *orphaned justification* — its entry was
        deleted but its prose stayed behind — and loading fails. The
        leading file header (comments before the first entry's block)
        is exempt.
        """
        baseline = cls()
        pending_note = []
        note_line = None
        seen_entry = False

        def orphaned(line_number):
            raise LintError(
                "%s:%d: orphaned justification comment — no baseline "
                "entry follows it; delete the comment along with the "
                "entry it excused" % (path, line_number))

        with open(path, "r", encoding="utf-8") as handle:
            for line_number, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line:
                    if pending_note and seen_entry:
                        orphaned(note_line)
                    pending_note = []
                    continue
                if line.startswith("#"):
                    if not pending_note:
                        note_line = line_number
                    pending_note.append(line.lstrip("# "))
                    continue
                parts = line.split()
                if len(parts) != 3 or not parts[2].isdigit():
                    raise LintError(
                        "%s:%d: baseline entries are '<path> <rule> "
                        "<count>', got %r" % (path, line_number, line))
                key = (parts[0], parts[1])
                baseline.entries[key] = int(parts[2])
                if pending_note:
                    baseline.notes[key] = " ".join(pending_note)
                pending_note = []
                seen_entry = True
        if pending_note and seen_entry:
            orphaned(note_line)
        return baseline

    def apply(self, findings):
        """Split ``findings`` into (new, accepted) against the baseline.

        Consumes up to ``count`` findings per ``(file, rule)`` entry in
        report order; anything beyond the recorded count is new.
        """
        remaining = dict(self.entries)
        new = []
        accepted = []
        for finding in findings:
            key = (path_key(finding.path), finding.rule_id)
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                accepted.append(finding)
            else:
                new.append(finding)
        return new, accepted

    def unused_entries(self, findings, checked_keys, rules):
        """``(dead, stale)``: entries ``findings`` leave unfilled.

        A *dead* entry's file/rule produces no finding at all any more:
        it justifies nothing (the code it excused was fixed or deleted),
        and accumulating them hides real regressions, so the CLI fails
        on these. A *stale* entry's count merely exceeds the current
        findings, a hint that the baseline can shrink. Only entries
        whose file was checked (``path_key`` in ``checked_keys``) and
        whose rule ran (in ``rules``) are considered, so partial-tree
        and ``--select`` runs cannot misjudge the rest. Returns
        ``([(path, rule), ...], [(path, rule, unused), ...])``, sorted.
        """
        counts = _counts(findings)
        dead = []
        stale = []
        for key, allowed in sorted(self.entries.items()):
            if key[0] not in checked_keys or key[1] not in rules:
                continue
            used = counts.get(key, 0)
            if used == 0:
                dead.append(key)
            elif used < allowed:
                stale.append((key[0], key[1], allowed - used))
        return dead, stale


def _counts(findings):
    """``{(path_key, rule_id): count}`` over ``findings``."""
    counts = {}
    for finding in findings:
        key = (path_key(finding.path), finding.rule_id)
        counts[key] = counts.get(key, 0) + 1
    return counts


def write_baseline(findings, path, notes=None):
    """Write a baseline accepting exactly ``findings``.

    ``notes`` maps ``(path_key, rule_id)`` to a justification; entries
    without one get a TODO marker so the review catches them.
    """
    counts = _counts(findings)
    notes = notes or {}
    lines = [
        "# repro.staticcheck accepted-findings baseline.",
        "# Format: '<repro-relative path> <rule-id> <count>'; the comment",
        "# above each entry is its justification. Regenerate with",
        "#   python -m repro.staticcheck --write-baseline <paths>",
        "# and justify anything new. See docs/analysis-tools.md.",
        "",
    ]
    for key in sorted(counts):
        note = notes.get(key, "TODO: justify this accepted finding")
        lines.append("# %s" % note)
        lines.append("%s %s %d" % (key[0], key[1], counts[key]))
        lines.append("")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def discover_baseline(paths):
    """Find the default baseline file: the current directory first, then
    upward from the first target path (so absolute-path invocations from
    elsewhere still find the repo's committed baseline)."""
    candidate = os.path.join(os.getcwd(), DEFAULT_BASELINE_NAME)
    if os.path.isfile(candidate):
        return candidate
    if paths:
        probe = os.path.abspath(paths[0])
        if os.path.isfile(probe):
            probe = os.path.dirname(probe)
        while True:
            candidate = os.path.join(probe, DEFAULT_BASELINE_NAME)
            if os.path.isfile(candidate):
                return candidate
            parent = os.path.dirname(probe)
            if parent == probe:
                return None
            probe = parent
    return None
