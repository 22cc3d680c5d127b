# Developer entry points. Everything is pure Python; no build step.

PYTHON ?= python

.PHONY: install test bench examples quicktest lint \
	fuzz fuzz-smoke perfbench \
	obs-smoke obs-overhead chaos-smoke \
	sweep sweep-smoke clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

quicktest:
	$(PYTHON) -m pytest tests/ -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Static analysis: every checker over the simulator sources, whole-
# program, against the committed baseline -- the syntactic rules (typed
# errors, PM write discipline, determinism, hot-path counters) and the
# flow checkers (persist-order dominance, determinism taint, PM-escape);
# see docs/analysis-tools.md.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.staticcheck src/repro

# Crash-consistency fuzzing (crash point x fault plan x target); see
# docs/faults.md. One process fuzzes every target in the fuzzer's
# TARGETS: the PAX pool and every backend that declares a durability
# contract. `fuzz` is the full seeded sweep, `fuzz-smoke` a fast
# fixed-seed subset suitable for CI. SANITIZE=1 attaches each target's
# sanitizer (PaxSan for the pool, pax and hybrid; WalSan for the WAL
# backends; mprotect has none).
SANITIZE ?= 0
ifeq ($(SANITIZE),1)
FUZZ_FLAGS = --sanitize
else
FUZZ_FLAGS =
endif

fuzz:
	PYTHONPATH=src $(PYTHON) -m repro.crashtest.fuzz --iterations 500 --seed 1234 $(FUZZ_FLAGS)

fuzz-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.crashtest.fuzz --iterations 50 --seed 7 --progress 0 $(FUZZ_FLAGS)

# Wall-clock performance of the simulator itself (not simulated time);
# see docs/performance.md. `perfbench` runs the default matrix into
# perfbench.json and grades it against the committed baseline
# BENCH.json, recorded at the same configuration: it fails on a >70%
# throughput drop or any change to sim_ns or a counter in any cell.
# Re-record the baseline with `python -m repro.perfbench --out BENCH.json`.
perfbench:
	PYTHONPATH=src $(PYTHON) -m repro.perfbench --compare BENCH.json

# Observability (docs/observability.md): `obs-smoke` traces a fixed-seed
# perfbench microworkload, summarizes it, and schema-checks the Chrome
# trace export; `obs-overhead` asserts the tracing-off overhead budget
# and that tracing never moves simulated time.
obs-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.perfbench --ops 2000 --records 400 \
		--workloads store_heavy,mixed --backends pax,pmdk \
		--engine access --repeats 1 \
		--out /tmp/obs-smoke.json --trace /tmp/obs-trace.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.obs summarize /tmp/obs-trace.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.obs convert /tmp/obs-trace.jsonl --to chrome -o /tmp/obs-trace.json
	PYTHONPATH=src $(PYTHON) -m repro.obs validate /tmp/obs-trace.json

obs-overhead:
	PYTHONPATH=src $(PYTHON) -m repro.obs overhead

# Chaos drill (docs/serving.md): live YCSB traffic through the serving
# harness with 10 mid-traffic crash/recover cycles and a link storm,
# PaxSan attached and events traced. Fails on any lost acknowledged
# write, sanitizer finding, or recovery-deadline breach; the Prometheus
# exposition and JSON record land in /tmp for artifact upload.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.serve --clients 4 --ops 200 \
		--crashes 10 --storms 2 --seed 42 --deadline-ns 50000000 \
		--sanitize --trace /tmp/chaos-trace.jsonl \
		--metrics /tmp/chaos-metrics.prom --json /tmp/chaos-drill.json

# Experiment grids (docs/experiments.md): a declarative spec expands to
# a backend x workload x mechanism x LLC-size matrix, run record-once/
# replay-many with every replayed cell fingerprint-verified against the
# per-access engine. Both targets exit nonzero on any fingerprint
# mismatch. `sweep` reproduces the full paper grid into SWEEP.json;
# `sweep-smoke` is the reduced deterministic CI grid, whose report is
# byte-identical across same-seed reruns and must equal the committed
# golden specs/smoke-grid.golden.json: a simulated nanosecond moved
# anywhere in its 18 cells fails the `cmp`. Re-record the golden only
# on purpose, as docs/experiments.md says.
sweep:
	PYTHONPATH=src $(PYTHON) -m repro.sweep specs/full-grid.toml \
		--out SWEEP.json --markdown SWEEP.md

sweep-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.sweep specs/smoke-grid.toml \
		--out sweep-smoke.json --markdown sweep-smoke.md
	cmp sweep-smoke.json specs/smoke-grid.golden.json

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis examples/ht.pool
	find . -name __pycache__ -type d -exec rm -rf {} +
