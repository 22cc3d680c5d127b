"""The syntactic rules: each rule's positive/negative fixtures, the
suppression syntax, module sanctioning, and the CLI. The real tree is
checked against the baseline in tests/test_staticcheck_cli.py."""

import json

import pytest

from repro.errors import LintError
from repro.staticcheck import all_checkers, check_source, main


def findings_for(source, path="fixture.py", selected=None):
    """Check a source string and return ``[(rule_id, lineno), ...]``."""
    return [(f.rule_id, f.lineno)
            for f in check_source(path, source, selected=selected)]


# -- typed-errors -----------------------------------------------------------

def test_typed_errors_flags_banned_builtins():
    source = (
        "def f():\n"
        "    raise ValueError('nope')\n"
        "def g():\n"
        "    raise RuntimeError\n"
    )
    found = findings_for(source, selected=["typed-errors"])
    assert found == [("typed-errors", 2), ("typed-errors", 4)]


def test_typed_errors_allows_project_and_protocol_exceptions():
    source = (
        "from repro.errors import LogError\n"
        "def f():\n"
        "    raise LogError('typed')\n"
        "def g():\n"
        "    raise NotImplementedError\n"
        "def h():\n"
        "    try:\n"
        "        f()\n"
        "    except Exception:\n"
        "        raise\n"
    )
    assert findings_for(source, selected=["typed-errors"]) == []


# -- pm-direct-write --------------------------------------------------------

def test_pm_direct_write_flags_device_writes():
    source = (
        "def f(device, self):\n"
        "    device.write(0, b'x')\n"
        "    self.pm.write(64, b'y')\n"
    )
    found = findings_for(source, path="src/repro/structures/bad.py",
                         selected=["pm-direct-write"])
    assert found == [("pm-direct-write", 2), ("pm-direct-write", 3)]


def test_pm_direct_write_sanctioned_modules_are_exempt():
    source = "def f(device):\n    device.write(0, b'x')\n"
    for sanctioned in ("src/repro/pm/device.py",
                       "src/repro/core/writeback.py",
                       "src/repro/faults/device.py"):
        assert findings_for(source, path=sanctioned,
                            selected=["pm-direct-write"]) == []


def test_pm_direct_write_ignores_other_receivers():
    source = "def f(handle):\n    handle.write(b'x')\n"
    assert findings_for(source, selected=["pm-direct-write"]) == []


# -- sim-determinism --------------------------------------------------------

def test_sim_determinism_flags_nondeterministic_imports():
    source = "import random\nfrom time import sleep\n"
    found = findings_for(source, path="src/repro/structures/bad.py",
                         selected=["sim-determinism"])
    assert found == [("sim-determinism", 1), ("sim-determinism", 2)]


def test_sim_determinism_sanctions_the_wrapper_modules():
    source = "import random\n"
    assert findings_for(source, path="src/repro/sim/rng.py",
                        selected=["sim-determinism"]) == []
    assert findings_for(source, path="src/repro/sim/clock.py",
                        selected=["sim-determinism"]) == []


def test_sim_determinism_sanctions_only_the_perfbench_package():
    source = "import time\nimport uuid\n"
    assert findings_for(source, path="src/repro/perfbench/__main__.py",
                        selected=["sim-determinism"]) == []
    assert findings_for(source, path="src/repro/workloads/perfbench_util.py",
                        selected=["sim-determinism"]) == [
        ("sim-determinism", 1), ("sim-determinism", 2)]


# -- hot-path-stat-lookup ---------------------------------------------------

def test_hot_path_stat_lookup_flags_hot_methods():
    source = (
        "class Hierarchy:\n"
        "    def load(self, addr):\n"
        "        self.stats.counter('loads').add(1)\n"
        "    def _charge(self, ns):\n"
        "        self.stats.histogram('access_ns').record(ns)\n"
    )
    found = findings_for(source, path="src/repro/cache/hierarchy.py",
                         selected=["hot-path-stat-lookup"])
    assert found == [("hot-path-stat-lookup", 3),
                     ("hot-path-stat-lookup", 5)]


def test_hot_path_stat_lookup_allows_init_and_cold_methods():
    source = (
        "class Hierarchy:\n"
        "    def __init__(self):\n"
        "        self._c_loads = self.stats.counter('loads')\n"
        "    def snapshot(self):\n"
        "        return self.stats.counter('loads').value\n"
    )
    assert findings_for(source, path="src/repro/cache/hierarchy.py",
                        selected=["hot-path-stat-lookup"]) == []


def test_hot_path_stat_lookup_scoped_to_hot_files():
    source = (
        "class Report:\n"
        "    def load(self, addr):\n"
        "        self.stats.counter('loads').add(1)\n"
    )
    assert findings_for(source, path="src/repro/report/tables.py",
                        selected=["hot-path-stat-lookup"]) == []


def test_hot_path_stat_lookup_honours_suppression():
    source = (
        "class Hierarchy:\n"
        "    def load(self, addr):\n"
        "        self.stats.counter('loads').add(1)"
        "  # lint: ignore[hot-path-stat-lookup]\n"
    )
    assert findings_for(source, path="src/repro/cache/hierarchy.py",
                        selected=["hot-path-stat-lookup"]) == []


# -- hot-path-counter-call --------------------------------------------------

def test_hot_path_counter_call_flags_literal_adds_on_bound_counters():
    source = (
        "class Hierarchy:\n"
        "    def load(self, addr):\n"
        "        self._c_loads.add(1)\n"
        "        l1._c_hits.add(0)\n"
        "        self._c_bytes.add(64)\n"
    )
    found = findings_for(source, path="src/repro/cache/hierarchy.py",
                         selected=["hot-path-counter-call"])
    assert found == [("hot-path-counter-call", 3),
                     ("hot-path-counter-call", 4),
                     ("hot-path-counter-call", 5)]


def test_hot_path_counter_call_allows_value_bumps_and_checked_amounts():
    source = (
        "class Hierarchy:\n"
        "    def load(self, addr, n):\n"
        "        self._c_loads.value += 1\n"
        "        self._c_bytes.add(n)\n"
        "        self._c_bytes.add(len(addr))\n"
        "        self._c_bytes.add(-1)\n"
        "        self._c_flag.add(True)\n"
        "        self._seen.add(1)\n"
        "        seen.add(1)\n"
        "        self.stats.counter('loads').add(1)\n"
    )
    assert findings_for(source, path="src/repro/cache/hierarchy.py",
                        selected=["hot-path-counter-call"]) == []


def test_hot_path_counter_call_scoped_to_hot_methods_and_files():
    cold_method = (
        "class Hierarchy:\n"
        "    def drop_all(self):\n"
        "        self._c_drops.add(1)\n"
    )
    assert findings_for(cold_method, path="src/repro/cache/hierarchy.py",
                        selected=["hot-path-counter-call"]) == []
    cold_file = (
        "class Report:\n"
        "    def load(self, addr):\n"
        "        self._c_loads.add(1)\n"
    )
    assert findings_for(cold_file, path="src/repro/report/tables.py",
                        selected=["hot-path-counter-call"]) == []


@pytest.mark.parametrize("path, method", [
    ("src/repro/mem/address_space.py", "read"),
    ("src/repro/mem/address_space.py", "write"),
    ("src/repro/cache/coherence.py", "set_state"),
    ("src/repro/cache/coherence.py", "drop"),
    ("src/repro/libpax/machine.py", "acquire"),
    ("src/repro/libpax/machine.py", "writeback"),
    # The L1-hit chain above the hierarchy.
    ("src/repro/mem/accessor.py", "read_u64"),
    ("src/repro/mem/accessor.py", "write_u64"),
    ("src/repro/libpax/machine.py", "read"),
    ("src/repro/libpax/machine.py", "write"),
    ("src/repro/util/stats.py", "record"),
    # The paging + PAX hybrid's per-page routing.
    ("src/repro/baselines/hybrid.py", "read"),
    ("src/repro/baselines/hybrid.py", "write"),
])
def test_hot_path_map_covers_the_miss_side_seams(path, method):
    source = (
        "class Seam:\n"
        "    def %s(self, *args):\n"
        "        self._c_calls.add(1)\n"
        "        self.stats.counter('calls').add(1)\n" % method
    )
    assert findings_for(source, path=path) == [
        ("hot-path-counter-call", 3), ("hot-path-stat-lookup", 4)]


def test_hot_path_map_names_only_defined_functions():
    # A stale entry (a renamed or deleted function) would silently check
    # nothing; every name must be a function, nested ones included, in
    # its file.
    import ast
    import os

    import repro
    from repro.staticcheck.rules import _HOT_PATH_METHODS

    root = os.path.dirname(os.path.abspath(repro.__file__))
    stale = []
    for suffix, methods in sorted(_HOT_PATH_METHODS.items()):
        with open(os.path.join(root, suffix)) as handle:
            tree = ast.parse(handle.read())
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))}
        stale.extend("%s:%s" % (suffix, name)
                     for name in sorted(methods - defined))
    assert stale == []


def test_hot_path_counter_call_honours_suppression():
    source = (
        "class Hierarchy:\n"
        "    def load(self, addr):\n"
        "        self._c_loads.add(1)"
        "  # lint: ignore[hot-path-counter-call]\n"
    )
    assert findings_for(source, path="src/repro/cache/hierarchy.py",
                        selected=["hot-path-counter-call"]) == []


# -- mutable-default --------------------------------------------------------

def test_mutable_default_flags_literals_and_constructors():
    source = (
        "def f(x=[]):\n"
        "    return x\n"
        "def g(*, y=dict()):\n"
        "    return y\n"
    )
    found = findings_for(source, selected=["mutable-default"])
    assert [rule_id for rule_id, _ in found] == ["mutable-default",
                                                 "mutable-default"]


def test_mutable_default_allows_none_and_immutables():
    source = "def f(x=None, y=0, z=()):\n    return x, y, z\n"
    assert findings_for(source, selected=["mutable-default"]) == []


def test_mutable_default_in_lambdas_and_nested_defs():
    source = (
        "def outer():\n"
        "    callback = lambda x=[]: x\n"
        "    def inner(y={}):\n"
        "        return y\n"
        "    return callback, inner\n"
    )
    found = findings_for(source, selected=["mutable-default"])
    assert [rule_id for rule_id, _ in found] == ["mutable-default",
                                                 "mutable-default"]


def test_mutable_default_in_decorated_methods():
    source = (
        "class C:\n"
        "    @staticmethod\n"
        "    def m(x=[]):\n"
        "        return x\n"
    )
    found = findings_for(source, selected=["mutable-default"])
    assert [rule_id for rule_id, _ in found] == ["mutable-default"]


# -- engine behaviour -------------------------------------------------------

def test_suppression_bare_and_per_rule():
    flagged = "def f():\n    raise ValueError('x')\n"
    bare = "def f():\n    raise ValueError('x')  # lint: ignore\n"
    scoped = "def f():\n    raise ValueError('x')  # lint: ignore[typed-errors]\n"
    multi = ("def f():\n"
             "    raise ValueError('x')  "
             "# lint: ignore[pm-direct-write, typed-errors]\n")
    reasoned = ("def f():\n"
                "    raise ValueError('x')  "
                "# lint: ignore[typed-errors] PEP 562 requires it\n")
    wrong = ("def f():\n"
             "    raise ValueError('x')  # lint: ignore[mutable-default]\n")
    assert findings_for(flagged) == [("typed-errors", 2)]
    assert findings_for(bare) == []
    assert findings_for(scoped) == []
    assert findings_for(multi) == []
    assert findings_for(reasoned) == []
    assert findings_for(wrong) == [("typed-errors", 2)]


@pytest.mark.parametrize("marker", [
    "# lint: ignore[Typed-Errors]",
    "# lint: ignore[typed-errors",
    "# lint: ignore [typed-errors]",
    "# lint: ignored",
    "# lint: ignore-me",
    "# lint: ignore[]",
], ids=["upper-case", "unclosed", "space-before-bracket", "ignored",
        "suffix", "empty-list"])
def test_malformed_suppression_suppresses_nothing(marker):
    source = "def f():\n    raise ValueError(1)  %s\n" % marker
    assert findings_for(source) == [("typed-errors", 2)]


def test_suppression_on_multiline_statements():
    # The finding is reported at the statement's first line; the marker
    # may sit on the first OR the last physical line of the statement.
    on_last = (
        "def f():\n"
        "    raise ValueError(\n"
        "        'x'\n"
        "    )  # lint: ignore[typed-errors]\n"
    )
    on_first = (
        "def f():\n"
        "    raise ValueError(  # lint: ignore[typed-errors]\n"
        "        'x'\n"
        "    )\n"
    )
    in_middle = (
        "def f():\n"
        "    raise ValueError(\n"
        "        'x'  # lint: ignore[typed-errors]\n"
        "    )\n"
    )
    assert findings_for(on_last) == []
    assert findings_for(on_first) == []
    assert findings_for(in_middle) == [("typed-errors", 2)]


def test_parse_error_is_a_finding_not_an_exception():
    found = findings_for("def f(:\n")
    assert len(found) == 1
    assert found[0][0] == "parse-error"


def test_unknown_selected_rule_raises_lint_error():
    with pytest.raises(LintError):
        check_source("x.py", "pass\n", selected=["no-such-rule"])


def test_rule_catalogue_is_registered():
    rules = all_checkers()
    assert {"typed-errors", "pm-direct-write", "sim-determinism",
            "mutable-default", "hot-path-stat-lookup",
            "hot-path-counter-call"} <= set(rules)
    for rule_obj in rules.values():
        assert rule_obj.summary


# -- CLI --------------------------------------------------------------------

def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f(x=None):\n    return x\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f():\n    raise ValueError('x')\n")

    assert main([str(clean)]) == 0
    assert main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "dirty.py:2:" in out and "typed-errors" in out
    assert main(["--select", "no-such-rule", str(clean)]) == 2
    assert main([str(tmp_path / "missing.py")]) == 2


def test_cli_json_output(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f():\n    raise ValueError('x')\n")
    assert main(["--format", "json", str(dirty)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert len(payload["findings"]) == 1
    entry = payload["findings"][0]
    assert sorted(entry) == ["col", "line", "message", "path", "rule"]
    assert entry["rule"] == "typed-errors"
    assert entry["line"] == 2

    clean = tmp_path / "clean.py"
    clean.write_text("def f(x=None):\n    return x\n")
    assert main(["--format", "json", str(clean)]) == 0
    assert json.loads(capsys.readouterr().out) == {"schema": 1,
                                                   "findings": []}


def test_cli_list_rules(capsys):
    assert main(["--list-checkers"]) == 0
    out = capsys.readouterr().out
    assert "typed-errors" in out and "pm-direct-write" in out
