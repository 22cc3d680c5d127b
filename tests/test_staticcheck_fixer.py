"""The persist-order auto-fix pass: gate placement, rewriting, the
--fix/--fix-diff CLI, its idempotence guarantee, SARIF output, dead
baseline entries, and the autogen'd autopass structure module."""

import ast
import json
import os
import shutil

import pytest

from repro.errors import LintError
from repro.staticcheck import all_checkers, main, run_paths
from repro.staticcheck.autogen import generate, main as autogen_main
from repro.staticcheck.autogen import target_path
from repro.staticcheck.baseline import path_key
from repro.staticcheck.fixer import fix_source
from repro.staticcheck.rewriter import (
    Indentation,
    Insertion,
    apply_edits,
    unified_diff,
)

import repro

SRC_REPRO = os.path.dirname(os.path.abspath(repro.__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures", "staticcheck")
BAD_FIXTURE = os.path.join(FIXTURES, "structures", "persist_bad.py")


def _findings(path):
    return [f for f in run_paths([str(path)], selected=["persist-order"])]


def _fix(source, style="auto"):
    return fix_source("structures/x.py", source, style=style)


# -- rewriter ---------------------------------------------------------------

def test_apply_edits_inserts_and_indents():
    source = "a = 1\nb = 2\nc = 3\n"
    out = apply_edits(source, [
        Insertion(2, ["begin()"]),
        Insertion(3, ["end()"], order=1),
        Indentation(2, 2),
    ])
    assert out == "a = 1\nbegin()\n    b = 2\nend()\nc = 3\n"


def test_insertions_at_same_anchor_respect_order():
    out = apply_edits("x = 1\n", [
        Insertion(1, ["second"], order=1),
        Insertion(1, ["first"], order=0),
    ])
    assert out == "first\nsecond\nx = 1\n"


def test_insertion_validates_anchor():
    with pytest.raises(LintError):
        Insertion(0, ["nope"])


def test_unified_diff_labels_and_empty_case():
    assert unified_diff("same\n", "same\n", "p.py") == ""
    diff = unified_diff("old\n", "new\n", "./p.py")
    assert diff.startswith("--- a/p.py")
    assert "+++ b/p.py" in diff and "+new" in diff


# -- fix_source placement ---------------------------------------------------

def test_fix_covers_fixture_and_is_idempotent():
    with open(BAD_FIXTURE) as handle:
        source = handle.read()
    fixed, report = fix_source(BAD_FIXTURE, source)
    assert report.changed and report.gates >= 4
    assert not report.unfixable
    # The fixed text passes the checker it was driven by...
    assert ast.parse(fixed)
    # ...and a second run is a no-op: the idempotence guarantee.
    again, second = fix_source(BAD_FIXTURE, fixed)
    assert again == fixed
    assert not second.changed and second.gates == 0


def test_end_inserted_before_in_region_returns():
    fixed, report = _fix(
        "class S:\n"
        "    def put(self, k, v):\n"
        "        node = self._mem.read_u64(k)\n"
        "        while node:\n"
        "            self._mem.write_u64(node, v)\n"
        "            return False\n"
        "        self._mem.write_u64(k, v)\n"
        "        return True\n")
    lines = fixed.splitlines()
    assert not report.unfixable
    ret = lines.index("            return False")
    assert lines[ret - 1].strip() == "self._mem.end()"
    # The trailing close lands after the last store, before the return.
    tail = lines.index("        return True")
    assert lines[tail - 1].strip() == "self._mem.end()"


def test_store_in_loop_hoists_gate_around_the_loop():
    fixed, report = _fix(
        "def fill(mem, n):\n"
        "    for i in range(n):\n"
        "        mem.write_u64(i, 0)\n")
    lines = fixed.splitlines()
    assert not report.unfixable
    head = lines.index("    for i in range(n):")
    assert lines[head - 1] == "    mem.begin()"
    assert lines[-1] == "    mem.end()"


def test_receiver_found_from_class_wide_attribute():
    fixed, report = _fix(
        "class S:\n"
        "    def __init__(self, mem):\n"
        "        self._mem = mem\n"
        "    def stamp(self, k):\n"
        "        self._mem.write_u64(k, 1)\n")
    assert not report.unfixable
    assert "self._mem.begin()" in fixed


def test_unfixable_when_no_receiver_reachable():
    source = (
        "def orphan(k):\n"
        "    mem.write_u64(k, 1)\n")
    # The store goes through a module-global accessor: flagged by the
    # checker, but no gate receiver is reachable from inside the
    # function, so the pass must report rather than guess.
    fixed, report = fix_source("structures/x.py", source)
    assert fixed == source
    assert report.unfixable
    assert "no tx/accessor/wal receiver" in report.unfixable[0][2]


def test_with_style_produces_a_transaction_block():
    fixed, report = _fix(
        "def put(tx, k, v):\n"
        "    tx.write_u64(k, v)\n", style="with")
    assert "with tx.transaction():" in fixed
    assert not report.unfixable
    assert not _fix(fixed, style="with")[1].changed


def test_wal_style_appends_per_store():
    # Only a WAL receiver is reachable (``self._write_u64`` stores give
    # the resolver no accessor to gate on), so the fix logs a pre-image
    # append above each store rather than wrapping a tx region.
    fixed, report = _fix(
        "class S:\n"
        "    def __init__(self, wal):\n"
        "        self._wal = wal\n"
        "    def put(self, k, v):\n"
        "        self._write_u64(k, v)\n"
        "        self._write_u64(k + 1, v)\n", style="wal")
    assert fixed.count("self._wal.append(k, v)") == 1
    assert fixed.count("self._wal.append(k + 1, v)") == 1
    assert not report.unfixable
    assert not _fix(fixed, style="wal")[1].changed


def test_fix_source_rejects_unparseable_input():
    with pytest.raises(LintError):
        fix_source("structures/x.py", "def broken(:\n")


# -- the CLI ----------------------------------------------------------------

def _bad_tree(tmp_path):
    pkg = tmp_path / "structures"
    pkg.mkdir()
    shutil.copy(BAD_FIXTURE, pkg / "persist_bad.py")
    return tmp_path


def test_fix_diff_prints_without_writing(tmp_path, capsys):
    tree = _bad_tree(tmp_path)
    target = tree / "structures" / "persist_bad.py"
    before = target.read_text()
    assert main(["--no-baseline", "--fix-diff", str(tree)]) == 0
    out = capsys.readouterr().out
    assert "persist_bad.py" in out and "+" in out
    assert target.read_text() == before


def test_fix_rewrites_to_checker_clean_and_idempotent(tmp_path, capsys):
    tree = _bad_tree(tmp_path)
    target = tree / "structures" / "persist_bad.py"
    assert main(["--no-baseline", "--fix", str(tree)]) == 0
    assert "inserted" in capsys.readouterr().err
    assert not _findings(target)
    fixed_once = target.read_text()
    # Second run: nothing to fix, file byte-identical.
    assert main(["--no-baseline", "--fix", str(tree)]) == 0
    assert "nothing to fix" in capsys.readouterr().err
    assert target.read_text() == fixed_once


def test_fix_skips_baseline_accepted_files(tmp_path, capsys):
    """--fix must not instrument intentionally-ungated (volatile) code."""
    tree = _bad_tree(tmp_path)
    target = tree / "structures" / "persist_bad.py"
    before = target.read_text()
    count = len(run_paths([str(target)], selected=["persist-order"]))
    baseline = tmp_path / "staticcheck-baseline.txt"
    baseline.write_text("# volatile by design\n"
                        "%s persist-order %d\n"
                        % (path_key(str(target)), count))
    assert main(["--baseline", str(baseline), "--fix", str(tree)]) == 0
    assert "nothing to fix" in capsys.readouterr().err
    assert target.read_text() == before


def test_fix_leaves_whole_program_discharged_files_alone(tmp_path,
                                                        capsys):
    """Files are chosen from whole-program findings: a mechanism class
    (it defines begin and commit itself) gets no gate of its own."""
    mechanism = tmp_path / "repro" / "baselines" / "b.py"
    mechanism.parent.mkdir(parents=True)
    mechanism.write_text(
        "class TxLog:\n"
        "    def begin(self):\n"
        "        self._open = True\n"
        "    def commit(self):\n"
        "        self._open = False\n"
        "    def apply(self, k, v):\n"
        "        self._mem.write_u64(k, v)\n")
    structure = tmp_path / "repro" / "structures" / "s.py"
    structure.parent.mkdir(parents=True)
    structure.write_text(
        "class S:\n"
        "    def put(self, k, v):\n"
        "        self._mem.write_u64(k, v)\n")
    before = mechanism.read_text()
    assert _findings(mechanism)            # per-function mode flags it
    assert main(["--no-baseline", "--fix", str(tmp_path)]) == 0
    capsys.readouterr()
    assert mechanism.read_text() == before
    assert "self._mem.begin()" in structure.read_text()
    assert not _findings(structure)


def test_fix_reports_parse_errors(tmp_path, capsys):
    tree = _bad_tree(tmp_path)
    (tree / "structures" / "broken.py").write_text("def broken(:\n")
    assert main(["--no-baseline", "--fix", str(tree)]) == 1
    assert "parse error" in capsys.readouterr().err


# -- SARIF output -----------------------------------------------------------

def _sarif_of(capsys, exit_code_expected, argv):
    assert main(argv) == exit_code_expected
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == "2.1.0"
    return report


def test_staticcheck_sarif_output(tmp_path, capsys):
    tree = _bad_tree(tmp_path)
    report = _sarif_of(capsys, 1,
                       ["--no-baseline", "--format", "sarif", str(tree)])
    run = report["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.staticcheck"
    rules = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    results = run["results"]
    assert results and all(r["ruleId"] in rules for r in results)
    location = results[0]["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("persist_bad.py")
    assert location["region"]["startLine"] >= 1
    assert location["region"]["startColumn"] >= 1


def test_lint_sarif_output_shares_the_format(tmp_path, capsys):
    """A clean file: an empty SARIF run that still lists every checker,
    syntactic rules and flow checkers alike."""
    clean = tmp_path / "clean.py"
    clean.write_text('"""Doc."""\n')
    report = _sarif_of(capsys, 0,
                       ["--no-baseline", "--format", "sarif", str(clean)])
    driver = report["runs"][0]["tool"]["driver"]
    assert driver["name"] == "repro.staticcheck"
    assert [rule["id"] for rule in driver["rules"]] == sorted(all_checkers())
    assert report["runs"][0]["results"] == []


# -- dead baseline entries --------------------------------------------------

def test_dead_baseline_entry_fails_the_run(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f(x):\n    return x\n")
    baseline = tmp_path / "staticcheck-baseline.txt"
    baseline.write_text("# excused long ago, code since fixed\n"
                        "%s persist-order 2\n" % path_key(str(clean)))
    assert main(["--baseline", str(baseline), str(clean)]) == 1
    err = capsys.readouterr().err
    assert "clean.py persist-order is dead" in err


def test_dead_check_ignores_unchecked_files(tmp_path, capsys):
    """Partial-tree runs must not flag entries for files they skipped."""
    clean = tmp_path / "clean.py"
    clean.write_text("def f(x):\n    return x\n")
    baseline = tmp_path / "staticcheck-baseline.txt"
    baseline.write_text("somewhere/else.py persist-order 2\n")
    assert main(["--baseline", str(baseline), str(clean)]) == 0
    assert "dead" not in capsys.readouterr().err


# -- the generated autopass module ------------------------------------------

def test_committed_autopass_gen_matches_regeneration():
    """The committed module is byte-identical to a fresh fixer run."""
    with open(target_path(), encoding="utf-8") as handle:
        committed = handle.read()
    assert committed == generate()


def test_autogen_check_mode_detects_drift(tmp_path, capsys, monkeypatch):
    assert autogen_main(["--check"]) == 0
    assert "matches" in capsys.readouterr().err
    drifted = tmp_path / "_autopass_gen.py"
    drifted.write_text(generate() + "# hand edit\n")
    monkeypatch.setattr("repro.staticcheck.autogen.target_path",
                        lambda: str(drifted))
    assert autogen_main(["--check"]) == 1
    captured = capsys.readouterr()
    assert "drifted" in captured.err and "hand edit" in captured.out


def test_generated_module_is_checker_clean():
    """The headline: auto-instrumented structure code has zero
    persist-order findings, with no baseline entry needed."""
    assert not _findings(target_path())


# -- serve triage (the auto-fix pass has nothing to do there) ---------------

def test_serve_package_is_staticcheck_clean():
    """src/repro/serve was triaged: no findings, no baseline entries.

    The serving layer holds no accessor stores of its own (it drives
    backends through their public put/get/persist API), so persist-order
    has nothing to gate and the taint/escape checkers stay quiet. This
    pins that state: new serve-layer code must stay clean rather than
    grow baseline entries.
    """
    serve = os.path.join(SRC_REPRO, "serve")
    assert run_paths([serve]) == []
