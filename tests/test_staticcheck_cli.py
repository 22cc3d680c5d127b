"""The staticcheck CLI: the 0/1/2 exit-code contract, JSON output,
the baseline workflow, and — the acceptance criterion — that the real
tree is clean under every checker against the committed baseline."""

import json
import os

from repro.staticcheck import all_checkers, main, path_key

import repro

SRC_REPRO = os.path.dirname(os.path.abspath(repro.__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, "staticcheck-baseline.txt")

UNGATED = (
    "class S:\n"
    "    def put(self, k, v):\n"
    "        self._mem.write_u64(k, v)\n"
)


def dirty_file(tmp_path):
    """An ungated store in a ``structures/`` package (in checker scope)."""
    pkg = tmp_path / "structures"
    pkg.mkdir(exist_ok=True)
    target = pkg / "bad.py"
    target.write_text(UNGATED)
    return target


def clean_file(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text("def f(x):\n    return x\n")
    return target


# -- exit codes -------------------------------------------------------------

def test_cli_exit_codes(tmp_path, capsys):
    clean = clean_file(tmp_path)
    dirty = dirty_file(tmp_path)

    assert main(["--no-baseline", str(clean)]) == 0
    assert main(["--no-baseline", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "bad.py:3:" in out and "persist-order" in out
    assert main(["--select", "no-such-checker", str(clean)]) == 2
    assert main(["--no-baseline", str(tmp_path / "missing.py")]) == 2


def test_cli_list_checkers(capsys):
    assert main(["--list-checkers"]) == 0
    out = capsys.readouterr().out
    assert "persist-order" in out
    assert "det-taint" in out
    assert "pm-escape" in out
    assert [line.split()[0] for line in out.splitlines()] \
        == sorted(all_checkers())
    assert len(all_checkers()) == 9


# -- JSON output ------------------------------------------------------------

def test_cli_json_findings(tmp_path, capsys):
    dirty = dirty_file(tmp_path)
    assert main(["--format", "json", "--no-baseline", str(dirty)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert len(payload["findings"]) == 1
    entry = payload["findings"][0]
    assert sorted(entry) == ["col", "line", "message", "path", "rule"]
    assert entry["rule"] == "persist-order"
    assert entry["line"] == 3


def test_cli_json_empty_findings_when_clean(tmp_path, capsys):
    clean = clean_file(tmp_path)
    assert main(["--format", "json", "--no-baseline", str(clean)]) == 0
    assert json.loads(capsys.readouterr().out) == {"schema": 1,
                                                   "findings": []}


# -- baseline workflow ------------------------------------------------------

def test_baseline_roundtrip_accepts_then_catches_regressions(tmp_path,
                                                             capsys):
    dirty = dirty_file(tmp_path)
    baseline = tmp_path / "baseline.txt"

    assert main(["--write-baseline", "--baseline", str(baseline),
                 str(dirty)]) == 0
    assert "TODO" in baseline.read_text()  # unjustified entries are marked

    assert main(["--baseline", str(baseline), str(dirty)]) == 0
    assert "baseline-accepted" in capsys.readouterr().err

    # A second violation goes beyond the accepted count: CI must fail.
    dirty.write_text(UNGATED + (
        "    def stamp(self, k):\n"
        "        self._mem.write_u64(0, k)\n"
    ))
    assert main(["--baseline", str(baseline), str(dirty)]) == 1
    capsys.readouterr()


def test_baseline_stale_entries_are_reported(tmp_path, capsys):
    dirty = dirty_file(tmp_path)
    baseline = tmp_path / "baseline.txt"
    key = path_key(str(dirty))
    baseline.write_text("# shrunk since\n%s persist-order 5\n" % key)
    assert main(["--baseline", str(baseline), str(dirty)]) == 0
    assert "unused slot" in capsys.readouterr().err


def test_no_baseline_flag_reports_everything(tmp_path, capsys):
    dirty = dirty_file(tmp_path)
    baseline = tmp_path / "baseline.txt"
    assert main(["--write-baseline", "--baseline", str(baseline),
                 str(dirty)]) == 0
    assert main(["--no-baseline", "--baseline", str(baseline),
                 str(dirty)]) == 1
    capsys.readouterr()


def _accepting_baseline(tmp_path, dirty, count):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("# volatile by design\n%s persist-order %d\n"
                        % (path_key(str(dirty)), count))
    return baseline


def test_select_keeps_entries_of_rules_that_did_not_run(tmp_path, capsys):
    """A --select run cannot judge entries for checkers it skipped."""
    dirty = dirty_file(tmp_path)
    baseline = _accepting_baseline(tmp_path, dirty, 2)
    assert main(["--baseline", str(baseline), str(dirty)]) == 0
    assert "unused slot" in capsys.readouterr().err
    assert main(["--baseline", str(baseline), "--select", "det-taint",
                 str(dirty)]) == 0
    err = capsys.readouterr().err
    assert "dead" not in err and "unused slot" not in err


def test_syntactic_rule_entries_are_baselined_like_any_other(tmp_path,
                                                             capsys):
    """A typed-errors entry accepts its findings, and is judged dead or
    stale exactly like a flow checker's entry."""
    source = tmp_path / "raiser.py"
    source.write_text("def f():\n    raise ValueError(1)\n")
    baseline = tmp_path / "baseline.txt"
    key = path_key(str(source))

    baseline.write_text("# legacy raise\n%s typed-errors 1\n" % key)
    assert main(["--baseline", str(baseline), str(source)]) == 0
    assert "clean (1 baseline-accepted" in capsys.readouterr().err

    baseline.write_text("# legacy raise\n%s typed-errors 3\n" % key)
    assert main(["--baseline", str(baseline), str(source)]) == 0
    assert "typed-errors has 2 unused slot(s)" in capsys.readouterr().err

    source.write_text("def f():\n    return 1\n")
    assert main(["--baseline", str(baseline), str(source)]) == 1
    assert "typed-errors is dead" in capsys.readouterr().err


def test_write_baseline_refuses_a_checker_selection(tmp_path, capsys):
    """Rewriting from a partial catalogue would drop the other
    checkers' justified entries, so it is a usage error."""
    dirty = dirty_file(tmp_path)
    baseline = _accepting_baseline(tmp_path, dirty, 1)
    before = baseline.read_text()
    assert main(["--select", "det-taint", "--write-baseline",
                 "--baseline", str(baseline), str(dirty)]) == 2
    assert "--select" in capsys.readouterr().err
    assert baseline.read_text() == before


# -- the tree itself --------------------------------------------------------

def test_real_tree_is_clean_against_committed_baseline(capsys):
    # No --baseline: the committed one is found by discovery.
    assert main([SRC_REPRO]) == 0
    assert "clean (" in capsys.readouterr().err


def test_fix_diff_on_real_tree_is_empty(capsys):
    """Every store the fixer could gate is discharged by the
    whole-program pass or accepted by the baseline."""
    assert main(["--fix-diff", SRC_REPRO]) == 0
    assert capsys.readouterr().out == ""


def test_committed_baseline_is_fully_justified():
    with open(BASELINE, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert "TODO" not in text
    # Every entry line has a justification comment directly above it.
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if line and not line.startswith("#"):
            assert index > 0 and lines[index - 1].startswith("#"), line
