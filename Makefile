# Convenience targets for the Bingo reproduction.

PYTHON ?= python

.PHONY: install test test-replacement bench bench-quick bench-report bench-vector bench-misspath experiments serve-smoke experiment-smoke cluster-smoke clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# The replacement-policy zoo: conformance + properties + loop identity
# + stress-generator suites (docs/replacement.md)
test-replacement:
	$(PYTHON) -m pytest tests/memsys/test_replacement_conformance.py \
		tests/memsys/test_replacement_properties.py \
		tests/memsys/test_replacement_identity.py \
		tests/workloads/test_stress_generators.py

# pytest-sized benches; the engine bench also refreshes BENCH_engine.json
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# the full engine-speed matrix -> BENCH_engine.json (docs/performance.md)
bench-report:
	$(PYTHON) benchmarks/bench_engine_speed.py --workers 4

# fast-loop focus: prove both engine loops agree, then run the
# pytest-sized matrix and print the fast-loop counters
bench-vector:
	$(PYTHON) -m pytest benchmarks/bench_engine_speed.py::test_compiled_path_matches_generator -q
	$(PYTHON) -m pytest benchmarks/bench_engine_speed.py::test_engine_speed --benchmark-only -s

# shared-miss-tail gate: two miss-dense points on both loops; fails if
# a point does not run the fast loop with no LLC policy interface, or
# any SimResult diverges
bench-misspath:
	$(PYTHON) benchmarks/bench_engine_speed.py --misspath

bench-quick:
	REPRO_QUICK=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s 2>&1 | tee bench_output.txt

# Black-box smoke of the bingo-sim serve daemon: start, submit over
# HTTP, compare against a direct run, SIGTERM, assert a clean drain
serve-smoke:
	PYTHONPATH=src $(PYTHON) tools/serve_smoke.py

# Black-box smoke of adaptive experiments: POST a 12-point space,
# assert two halving rounds promote screens to a full-length winner
experiment-smoke:
	PYTHONPATH=src $(PYTHON) tools/experiment_smoke.py

# Black-box smoke of the multi-node cluster: frontend-only daemon +
# two worker agents, saturate the queue (429 + Retry-After), SIGKILL
# one worker mid-run, assert the sweep completes bit-identical to
# in-process runs and both survivors drain cleanly
cluster-smoke:
	PYTHONPATH=src $(PYTHON) tools/cluster_smoke.py

# Regenerate a single paper figure, e.g. `make fig8`
table1 table2 fig2 fig3 fig4 fig6 fig7 fig8 fig9 fig10:
	$(PYTHON) -m repro.cli experiment $@

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
