"""Self-tests of the benchmark harness (not of the simulator).

    python3 -m pytest paxbench -q

The tier-1 suite does not collect these (its ``testpaths`` is
``tests``); they exercise the harness at tiny input sizes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads                                    # noqa: E402
from layers import END_TO_END, PER_LAYER             # noqa: E402
from tracing import SpanTracer, install, layer_targets   # noqa: E402


def _run(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    catalogue = PER_LAYER if trace else END_TO_END
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == catalogue
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "paxbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "hot-read", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=str(tmp_path / "paxbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_its_direct_children():
    clock = FakeClock()
    tracer = SpanTracer(clock)

    def leaf():
        clock.now += 2.0

    def mid():
        clock.now += 1.0
        traced_leaf()
        clock.now += 1.0
        traced_leaf()

    def top():
        clock.now += 3.0
        traced_mid()

    traced_leaf = tracer.span("pm.leaf", leaf)
    traced_mid = tracer.span("cache.mid", mid)
    traced_top = tracer.span("cache.top", top)
    tracer.phase = "timed"
    traced_top()
    assert tracer.calls("pm.leaf") == 2
    assert (tracer.self_s("pm.leaf"), tracer.total_s("pm.leaf")) == (4.0, 4.0)
    assert (tracer.self_s("cache.mid"), tracer.total_s("cache.mid")) \
        == (2.0, 6.0)
    assert (tracer.self_s("cache.top"), tracer.total_s("cache.top")) \
        == (3.0, 9.0)
    assert tracer.self_s("cache") == 5.0
    # Self times partition the outermost span.
    assert tracer.self_s("") == tracer.total_s("cache.top") == clock.now


def test_spans_record_only_inside_a_phase_and_close_on_error():
    clock = FakeClock()
    tracer = SpanTracer(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    traced = tracer.span("core.boom", boom)
    with pytest.raises(KeyError):
        traced()
    assert tracer.calls("core", ("timed", None)) == 0
    tracer.phase = "timed"
    with pytest.raises(KeyError):
        traced()
    assert tracer.calls("core") == 1 and tracer.total_s("core") == 1.0
    assert not tracer._stack


def test_install_and_uninstall_leave_classes_as_they_were():
    before = [(owner, attr, owner.__dict__.get(attr))
              for owner, attr, _name in layer_targets()]
    uninstall = install(SpanTracer())
    uninstall()
    assert [(owner, attr, owner.__dict__.get(attr))
            for owner, attr, _name in layer_targets()] == before


class WrongGets:
    """A backend whose every get answers the stored value plus one."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def get(self, key, default=None):
        return self._inner.get(key, default) + 1


class FailingPuts(WrongGets):
    """A backend whose updates raise after the load phase."""

    armed = False

    def get(self, key, default=None):
        return self._inner.get(key, default)

    def put(self, key, value):
        if self.armed:
            raise RuntimeError("injected put failure")
        return self._inner.put(key, value)

    def persist(self):
        self.armed = True
        return self._inner.persist()


def _tiny_hot_read(make_backend):
    from repro.perfbench import build_backend
    size = workloads.SIZES["tiny"]["hot-read"]
    _load, ops = workloads._ycsb("B", size, "zipfian", 9)
    result = workloads.hot_read(9, size, make_backend=lambda: make_backend(
        build_backend("pax")))
    return result, ops


def test_a_wrong_value_counts_as_a_failed_op():
    result, ops = _tiny_hot_read(WrongGets)
    gets = sum(1 for is_get, _key, _value in ops if is_get)
    assert gets > 0
    assert result["failed"] == gets
    assert result["attempted"] == len(ops) + 64   # + durability check
    assert result["errors"]


def test_a_raising_op_counts_as_failed_and_the_run_goes_on():
    result, ops = _tiny_hot_read(FailingPuts)
    puts = sum(1 for is_get, _key, _value in ops if not is_get)
    assert puts > 0
    # A failed put leaves the shadow alone, so the later gets and the
    # durability check still agree with the map: only the puts fail.
    assert result["failed"] == puts
    assert result["attempted"] == len(ops) + 64


@pytest.mark.parametrize("workload", ["hot-read", "cold-write"])
def test_tracing_leaves_the_simulation_unchanged(workload):
    plain = workloads.run_sample(workload, 4, traced=False, size="tiny")
    traced = workloads.run_sample(workload, 4, traced=True, size="tiny")
    assert traced["sim_ns"] == plain["sim_ns"]
    assert traced["digest"] == plain["digest"]
    assert plain["failed"] == traced["failed"] == 0
    layers = traced["layers"]
    assert 0 < layers["trace.self_share"] <= 1.0
    assert layers["cache.calls_per_op"] > 0
