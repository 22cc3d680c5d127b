"""Whole-program interprocedural staticcheck: function summaries over
the call graph (SCC fixpoints), discharge of per-function findings that
callees/callers prove safe, the baseline orphan rule, and
trace-grounded witnesses."""

import json
import os
import textwrap

import pytest

from repro.errors import LintError
from repro.lint.engine import LintFinding, findings_to_json, findings_to_sarif
from repro.replay.format import (
    PERSIST,
    RAW_WRITE,
    STORE,
    WAL_APPEND,
    WAL_RESET,
    Trace,
)
from repro.staticcheck.baseline import Baseline
from repro.staticcheck.callgraph import ProjectIndex, module_key
from repro.staticcheck.engine import run_interproc, run_paths
from repro.staticcheck.witness import apply_witnesses, unsafe_store_count


def write_tree(tmp_path, files):
    """Materialize ``{relpath: source}`` under ``tmp_path``."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return str(tmp_path)


def interproc_run(tmp_path, files):
    """Write the tree and run the interprocedural pipeline over it."""
    return run_interproc([write_tree(tmp_path, files)])


def keys_of(findings):
    return sorted((module_key(f.path), f.lineno, f.rule_id)
                  for f in findings)


def build_index(tmp_path, files):
    root = write_tree(tmp_path, files)
    sources = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "r", encoding="utf-8") as handle:
                    sources.append((path, handle.read()))
    return ProjectIndex.build(sources)


# -- callgraph regressions: aliases and partial ------------------------------

def test_aliased_from_import_resolves_to_original_name(tmp_path):
    index = build_index(tmp_path, {
        "repro/structures/helpers.py": """
            def gate_all(x):
                return x
        """,
        "repro/structures/user.py": """
            from repro.structures.helpers import gate_all as g

            def run():
                return g(1)
        """,
    })
    user = index.modules["repro.structures.user"]
    (descriptor,) = user.functions["run"].calls
    assert descriptor == ("import", "repro.structures.helpers", "gate_all")
    resolved = index.resolve(user, descriptor)
    assert resolved is not None
    assert resolved.qualname == "gate_all"


def test_module_alias_attribute_call_resolves(tmp_path):
    index = build_index(tmp_path, {
        "repro/structures/gates.py": """
            def open_tx():
                return 1
        """,
        "repro/structures/user.py": """
            import repro.structures.gates as gz

            def run():
                return gz.open_tx()
        """,
    })
    user = index.modules["repro.structures.user"]
    (descriptor,) = user.functions["run"].calls
    assert descriptor == ("import", "repro.structures.gates", "open_tx")
    assert index.resolve(user, descriptor).qualname == "open_tx"


def test_functools_partial_name_alias_routes_to_wrapped(tmp_path):
    index = build_index(tmp_path, {
        "repro/structures/user.py": """
            from functools import partial

            def base(x, y):
                return x + y

            bound = partial(base, 1)

            def run():
                return bound(2)
        """,
    })
    user = index.modules["repro.structures.user"]
    (descriptor,) = user.functions["run"].calls
    assert descriptor == ("local", "base")
    assert index.resolve(user, descriptor).qualname == "base"


def test_functools_partial_self_attr_routes_to_method(tmp_path):
    index = build_index(tmp_path, {
        "repro/structures/user.py": """
            import functools

            class S:
                def __init__(self):
                    self._hook = functools.partial(self._impl, 1)

                def _impl(self, n, k):
                    return n + k

                def run(self, k):
                    return self._hook(k)
        """,
    })
    user = index.modules["repro.structures.user"]
    calls = user.functions["S.run"].calls
    assert ("attr", "_impl", "self") in calls


# -- SCC / fixpoint edge cases ----------------------------------------------

def test_mutual_recursion_converges_without_fabricated_gates(tmp_path):
    findings, _names, _discharged = interproc_run(tmp_path, {
        "repro/structures/rec.py": """
            class S:
                def alpha(self, n):
                    if n:
                        self.beta(n - 1)
                    self._mem.write_u64(n, n)

                def beta(self, n):
                    if n:
                        self.alpha(n - 1)
                    self._mem.write_u64(n, n)
        """,
    })
    # Neither accessor opens a gate; the cycle must not talk itself
    # into one. Both stores stay findings.
    assert len(findings) == 2


def test_summary_gains_gate_across_scc_iterations(tmp_path):
    # alpha's store is only provably gated once beta's must-open summary
    # exists — and alpha/beta sit in one SCC, so the first iteration
    # (alphabetical order) summarizes alpha before beta. Only the
    # fixpoint re-run discharges the store.
    findings, _names, _discharged = interproc_run(tmp_path, {
        "repro/structures/cycle.py": """
            class S:
                def alpha(self, n):
                    self.beta(n)
                    self._mem.write_u64(n, n)

                def beta(self, n):
                    self.wal.begin()
                    if n > 100:
                        self.alpha(n - 1)
        """,
    })
    assert findings == []


def test_recursive_cycle_through_except_edge_terminates(tmp_path):
    findings, _names, _discharged = interproc_run(tmp_path, {
        "repro/structures/exc.py": """
            class S:
                def flaky(self, n):
                    self.wal.begin()
                    try:
                        self._mem.write_u64(n, n)
                    except ValueError:
                        self.flaky(n - 1)
        """,
    })
    # The store is dominated by begin(); the handler's recursive call
    # runs with gates cleared but stores nothing. No findings, and the
    # except-edge cycle must not loop the fixpoint forever.
    assert findings == []


# -- discharge rules ---------------------------------------------------------

def test_store_verb_call_defers_to_checked_callee_body(tmp_path):
    files = {
        "repro/structures/defer.py": """
            class S:
                def put(self, k, v):
                    self._write(k, v)

                def _write(self, k, v):
                    self.wal.begin()
                    self._mem.write_u64(k, v)
        """,
    }
    per_function = run_paths([write_tree(tmp_path, files)])
    assert len(per_function) == 1          # the self._write(...) call
    findings, _names, _discharged = run_interproc([str(tmp_path)])
    assert findings == []                  # analyzed in the callee body


def test_callee_must_open_gate_covers_caller_store(tmp_path):
    files = {
        "repro/structures/opener.py": """
            class S:
                def put(self, k, v):
                    self._enter()
                    self._mem.write_u64(k, v)

                def _enter(self):
                    self.wal.begin()
        """,
    }
    per_function = run_paths([write_tree(tmp_path, files)])
    assert len(per_function) == 1
    findings, _names, _discharged = run_interproc([str(tmp_path)])
    assert findings == []


def test_mechanism_class_discharge(tmp_path):
    findings, _names, discharged = interproc_run(tmp_path, {
        "repro/structures/mech.py": """
            class TxLog:
                def begin(self):
                    self._open = True

                def commit(self):
                    self._open = False

                def apply(self, k, v):
                    self._mem.write_u64(k, v)
        """,
    })
    assert findings == []
    assert [reason for _p, _l, _c, reason in discharged] == ["mechanism"]


def test_lifecycle_discharge_is_limited_to_baselines(tmp_path):
    lifecycle = """
        class MyBackend(KvBackend):
            def restart(self):
                self._mem.write_u64(0, 0)
    """
    # In baselines/, restart() owns the medium during recovery.
    findings, _names, _discharged = interproc_run(tmp_path, {
        "repro/baselines/b.py": lifecycle,
    })
    assert findings == []
    # The identical code in structures/ keeps its finding: the
    # lifecycle argument is a backend-recovery property.
    findings2, _names2, _discharged2 = interproc_run(tmp_path / "other", {
        "repro/structures/b.py": lifecycle,
    })
    assert len(findings2) == 1


def test_gated_context_discharges_helper_stores(tmp_path):
    files = {
        "repro/structures/ctx.py": """
            class S:
                def put(self, k, v):
                    self.wal.begin()
                    self._update(k, v)

                def insert(self, k, v):
                    self.wal.begin()
                    self._update(k, v)

                def _update(self, k, v):
                    self._mem.write_u64(k, v)
        """,
    }
    per_function = run_paths([write_tree(tmp_path, files)])
    assert len(per_function) == 1          # _update's bare store
    findings, _names, _discharged = run_interproc([str(tmp_path)])
    assert findings == []


def test_unprotected_caller_keeps_helper_finding_with_call_path(tmp_path):
    findings, _names, _discharged = interproc_run(tmp_path, {
        "repro/structures/open_door.py": """
            class S:
                def put(self, k, v):
                    self._update(k, v)

                def _update(self, k, v):
                    self._mem.write_u64(k, v)
        """,
    })
    assert len(findings) == 1
    assert "[call path:" in findings[0].message
    assert "S.put" in findings[0].message


def test_interproc_findings_are_subset_of_per_function(tmp_path):
    files = {
        "repro/structures/mix.py": """
            class S:
                def good(self, k, v):
                    self._enter()
                    self._mem.write_u64(k, v)

                def bad(self, k, v):
                    self._mem.write_u64(k, v)

                def _enter(self):
                    self.wal.begin()
        """,
    }
    per_function = run_paths([write_tree(tmp_path, files)])
    findings, _names, _discharged = run_interproc([str(tmp_path)])
    assert set(keys_of(findings)) <= set(keys_of(per_function))
    assert len(findings) == 1              # only bad() survives


def test_seeded_fixtures_fire_in_both_modes():
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "staticcheck")
    per_function = run_paths([root])
    findings, _names, _discharged = run_interproc([root])
    # Zero new false negatives: whole-program mode keeps every seeded
    # violation (messages may gain call-path suffixes).
    assert keys_of(findings) == keys_of(per_function)
    assert findings


# -- baseline orphan rule ----------------------------------------------------

def _load_baseline(tmp_path, text):
    target = tmp_path / "baseline.txt"
    target.write_text(textwrap.dedent(text))
    return Baseline.load(str(target))


def test_baseline_header_comments_are_legal(tmp_path):
    baseline = _load_baseline(tmp_path, """
        # File header explaining the format.
        # Second header line.

        # justification
        repro/structures/a.py persist-order 2
    """)
    assert baseline.entries == {("repro/structures/a.py",
                                 "persist-order"): 2}


def test_baseline_orphaned_comment_mid_file_fails(tmp_path):
    with pytest.raises(LintError, match="orphaned justification"):
        _load_baseline(tmp_path, """
            # justification
            repro/structures/a.py persist-order 2

            # this excused an entry that was deleted

            # justification two
            repro/structures/b.py persist-order 1
        """)


def test_baseline_orphaned_comment_at_eof_fails(tmp_path):
    with pytest.raises(LintError, match="orphaned justification"):
        _load_baseline(tmp_path, """
            # justification
            repro/structures/a.py persist-order 2

            # trailing prose whose entry is gone
        """)


# -- witnesses ---------------------------------------------------------------

def make_trace(kinds, backend="paxish"):
    sizes = [0] * len(kinds)
    payload = b""
    return Trace(list(kinds), [0] * len(kinds), [0] * len(kinds),
                 sizes, payload, {"backend": backend})


def test_unsafe_store_count_semantics():
    # Persist retires everything pending.
    assert unsafe_store_count(make_trace([STORE, STORE, PERSIST])) == 0
    # Stores after the last persist are exposed.
    assert unsafe_store_count(
        make_trace([STORE, PERSIST, STORE, RAW_WRITE])) == 2
    # An open WAL window protects at issue time; reset closes it.
    assert unsafe_store_count(
        make_trace([WAL_APPEND, STORE, WAL_RESET, STORE])) == 1
    assert unsafe_store_count(make_trace([])) == 0


def test_coverage_report_matches_witness_walk():
    from repro.replay.coverage import coverage
    trace = make_trace([STORE, PERSIST, WAL_APPEND, STORE, WAL_RESET,
                        STORE])
    report = coverage(trace)
    assert report.stores == 3
    assert report.persist_retired == 1
    assert report.wal_protected == 1
    assert report.exposed == 1
    assert not report.safe
    assert unsafe_store_count(trace) == report.exposed


WITNESS_TREE = {
    "repro/baselines/paxish.py": """
        from repro.structures.maps import HashMapIsh

        class PaxishBackend:
            name = "paxish"
    """,
    "repro/structures/maps.py": """
        class HashMapIsh:
            def put(self, k, v):
                self._mem.write_u64(k, v)
    """,
    "repro/structures/orphan.py": """
        class Orphan:
            def put(self, k, v):
                self._mem.write_u64(k, v)
    """,
}


def test_witness_confirms_import_reachable_findings(tmp_path):
    root = write_tree(tmp_path, WITNESS_TREE)
    findings, _names, _discharged = run_interproc([root])
    assert len(findings) == 2
    trace_path = str(tmp_path / "unsafe.trace")
    make_trace([STORE, STORE]).save(trace_path)
    confirmed, static_only = apply_witnesses(findings, [trace_path],
                                             source_roots=[root])
    assert (confirmed, static_only) == (1, 1)
    verdicts = {module_key(f.path): f.properties["witness"]
                for f in findings}
    assert verdicts["repro.structures.maps"] == "confirmed"
    assert verdicts["repro.structures.orphan"] == "static-only"


def test_safe_trace_confirms_nothing(tmp_path):
    root = write_tree(tmp_path, WITNESS_TREE)
    findings, _names, _discharged = run_interproc([root])
    trace_path = str(tmp_path / "safe.trace")
    make_trace([STORE, STORE, PERSIST]).save(trace_path)
    confirmed, static_only = apply_witnesses(findings, [trace_path],
                                             source_roots=[root])
    assert confirmed == 0
    assert static_only == len(findings)


def test_malformed_witness_trace_is_a_lint_error(tmp_path):
    bogus = tmp_path / "bogus.trace"
    bogus.write_bytes(b"not a trace")
    finding = LintFinding("repro/structures/x.py", 1, 0,
                         "persist-order", "msg")
    with pytest.raises(LintError, match="witness trace"):
        apply_witnesses([finding], [str(bogus)],
                        source_roots=[str(tmp_path)])


def test_fuzz_witness_out_records_unsafe_pax_trace(tmp_path):
    from repro.crashtest.fuzz import record_witness_trace
    from repro.replay.format import load_trace
    target = str(tmp_path / "witness.trace")
    record_witness_trace(target, seed=7, ops=12)
    trace = load_trace(target)
    assert trace.footer["backend"] == "pax"
    assert unsafe_store_count(trace) > 0


# -- verdicts in output formats ----------------------------------------------

def test_witness_verdict_lands_in_sarif_properties():
    finding = LintFinding("repro/structures/x.py", 3, 0, "persist-order",
                          "msg", properties={"witness": "confirmed"})
    plain = LintFinding("repro/structures/y.py", 4, 0, "persist-order",
                        "msg")
    log = json.loads(findings_to_sarif([finding, plain], "repro.staticcheck"))
    results = log["runs"][0]["results"]
    assert results[0]["properties"] == {"witness": "confirmed"}
    assert "properties" not in results[1]
    # Minimal SARIF 2.1.0 shape invariants.
    assert log["version"] == "2.1.0"
    for result in results:
        assert result["locations"][0]["physicalLocation"]["region"][
            "startLine"] > 0


def test_witness_verdict_lands_in_json_only_when_present():
    finding = LintFinding("repro/structures/x.py", 3, 0, "persist-order",
                          "msg", properties={"witness": "static-only"})
    plain = LintFinding("repro/structures/y.py", 4, 0, "persist-order",
                        "msg")
    payload = json.loads(findings_to_json([finding, plain]))
    tagged, bare = payload["findings"]
    assert tagged["witness"] == "static-only"
    assert sorted(bare) == ["col", "line", "message", "path", "rule"]
