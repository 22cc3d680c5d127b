"""The seeded-violation fixture packages: each checker must fire on
exactly the planted lines of its ``*_bad.py`` fixture and stay silent
on the clean twin — zero false positives, zero false negatives."""

import os

from repro.staticcheck import run_paths

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "staticcheck")


def fixture_findings(subdir):
    findings = run_paths([os.path.join(FIXTURES, subdir)])
    return [(os.path.basename(f.path), f.rule_id, f.lineno)
            for f in findings]


def test_persist_order_fixture_fires_on_planted_lines():
    assert fixture_findings("structures") == [
        ("persist_bad.py", "persist-order", 20),   # gate on one branch
        ("persist_bad.py", "persist-order", 36),   # store after commit
        ("persist_bad.py", "persist-order", 48),   # ungated bound-store alias
        ("persist_bad.py", "persist-order", 60),   # gate opened after store
    ]


def test_det_taint_fixture_fires_on_planted_lines():
    assert fixture_findings("taint") == [
        ("taint_bad.py", "sim-determinism", 10),   # import time
        ("taint_bad.py", "det-taint", 21),   # wall clock -> clock.advance
        ("taint_bad.py", "det-taint", 26),   # os.urandom -> rng.seed
        ("taint_bad.py", "det-taint", 31),   # helper-return summary
        ("taint_bad.py", "det-taint", 37),   # set iteration order
    ]


def test_pm_escape_fixture_fires_on_planted_lines():
    assert fixture_findings("escape") == [
        ("escape_bad.py", "pm-escape", 16),   # public attribute
        ("escape_bad.py", "pm-escape", 17),   # public return
        ("escape_bad.py", "pm-escape", 23),   # aliased foreign call
    ]


def test_clean_twins_are_clean_under_every_checker():
    for subdir in ("structures", "taint", "escape"):
        for name, _rule, _line in fixture_findings(subdir):
            assert "clean" not in name, (subdir, name)


def test_interprocedural_taint_needs_the_project_index():
    """The helper-summary finding (line 31) exists only because run_paths
    builds a call graph; it rides through ``_entropy``'s return value."""
    found = fixture_findings("taint")
    assert ("taint_bad.py", "det-taint", 31) in found
