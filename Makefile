# Developer entry points; CI (.github/workflows/ci.yml) runs the same steps.

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: check lint lint-rules typecheck metric-names golden examples test fast test-faults test-scenarios coverage bench-smoke bench bench-batch bench-pipeline bench-faults bench-scenarios bench-gps-denied perfbench coldstart profile benchtrack benchtrack-report

# Fast-lane coverage floor enforced in the CI PR lane (see ci.yml):
# ~94.5% line coverage over src/repro (94.6% with pytest-cov before the
# unreached modules were deleted; a settrace statement count puts that
# deletion at -0.05 points), floored at measured - 1.
COV_FLOOR := 93

check: lint lint-rules typecheck test bench-smoke

lint:
	@command -v ruff >/dev/null 2>&1 \
		&& ruff check src tests benchmarks \
		|| { echo "ruff not installed; falling back to a syntax/compile check"; \
		     python -m compileall -q src tests benchmarks; }

# Project-specific invariants (determinism, config serializability, stage
# and metric-name contracts) — pure stdlib, so no fallback path needed.
lint-rules:
	PYTHONPATH=src python -m repro.lint src/

# Strictness per the ratchet table in pyproject.toml; CI installs mypy,
# locally the target degrades to a notice when it is absent.
typecheck:
	@command -v mypy >/dev/null 2>&1 \
		&& mypy \
		|| echo "mypy not installed; the typing gate runs in CI (pip install mypy to run locally)"

# Regenerate src/repro/obs/metric_names.py from the emission sites; the
# lint-rules gate (RL004) and tests/lint/test_live_tree.py keep it fresh.
metric-names:
	PYTHONPATH=src python -m repro.lint --write-metric-names src/repro

# Regenerate the streaming and offline goldens (tests/core/*_golden.json)
# into a temporary directory and print the diff against the committed
# files; exits 1 on a difference unless FORCE=1, which overwrites them.
golden:
	@tmp=$$(mktemp -d); status=0; \
	for g in streaming offline; do \
		PYTHONPATH=src python tests/core/gen_$${g}_golden.py --out $$tmp/$${g}_golden.json \
			|| { rm -rf $$tmp; exit 1; }; \
		diff -u tests/core/$${g}_golden.json $$tmp/$${g}_golden.json || status=1; \
	done; \
	if [ $$status -eq 0 ]; then echo "goldens unchanged"; \
	elif [ "$(FORCE)" = 1 ]; then cp $$tmp/*_golden.json tests/core/; echo "goldens overwritten"; \
	else echo "goldens differ; rerun with FORCE=1 to overwrite them"; status=2; fi; \
	rm -rf $$tmp; [ $$status -ne 2 ]

# Run every script under examples/ end to end (~8 s in all); stops at the
# first one that raises. CI's test job runs it too.
examples:
	@for e in examples/*.py; do \
		echo "== $$e"; \
		PYTHONPATH=src python $$e > /dev/null || exit 1; \
	done

test:
	$(PYTEST) -x -q

fast:
	$(PYTEST) -q -m "not slow"

test-faults:
	$(PYTEST) tests/faults -q

test-scenarios:
	$(PYTEST) tests/scenarios -q

coverage:
	@python -c "import pytest_cov" 2>/dev/null \
		&& $(PYTEST) -q -m "not slow" --cov=repro --cov-fail-under=$(COV_FLOOR) \
		|| echo "pytest-cov not installed; the $(COV_FLOOR)% floor is enforced in CI"

bench-smoke:
	$(PYTEST) benchmarks/bench_obs_overhead.py -q -p no:cacheprovider
	@python -c "import json; d = json.load(open('benchmarks/bench_telemetry.json')); \
	assert d['schema'] == 'repro.bench_telemetry/v1' and d['benchmarks']; \
	print('bench_telemetry.json OK:', sorted(d['benchmarks']))"

bench:
	$(PYTEST) benchmarks/ --benchmark-only -s

# Kernel sweep on uniform traffic and on fleet-shaped mixed-rate traffic
# (the series that sets BATCH_MIN_TRACKS); appends to BENCH_batch.json.
bench-batch:
	$(PYTEST) benchmarks/bench_batch_vs_scalar.py -q -p no:cacheprovider
	PYTHONPATH=src python benchmarks/bench_batch_vs_scalar.py
	$(PYTEST) benchmarks/bench_extension_offline.py -k smoothed_track \
		--benchmark-only -q -p no:cacheprovider

bench-pipeline:
	$(PYTEST) benchmarks/bench_pipeline_batch.py -q -p no:cacheprovider
	PYTHONPATH=src python benchmarks/bench_pipeline_batch.py

bench-faults:
	$(PYTEST) benchmarks/bench_faults.py -q -p no:cacheprovider
	PYTHONPATH=src python benchmarks/bench_faults.py --reduced \
		--manifest benchmarks/bench_faults_manifest.json

bench-scenarios:
	$(PYTEST) benchmarks/bench_scenarios.py -q -p no:cacheprovider
	PYTHONPATH=src python benchmarks/bench_scenarios.py --reduced \
		--manifest benchmarks/bench_scenarios_manifest.json

bench-gps-denied:
	$(PYTEST) benchmarks/bench_gps_denied.py -q -p no:cacheprovider
	PYTHONPATH=src python benchmarks/bench_gps_denied.py --reduced \
		--manifest benchmarks/bench_gps_denied_manifest.json

# The repository benchmark declared in BENCHMARK.json: its self-tests, then
# all three workloads (trip_single, fleet_store, stream_outage), each in a
# fresh process; exits 1 when a correctness or mechanism check fails. Add
# --trace 1 to run.py for the per-layer numbers.
perfbench:
	$(PYTEST) perfbench -q -p no:cacheprovider
	python3 perfbench/run.py --workload all --seed 0 --seconds 20

# Cold start per workload: the setup.* per-layer lines (import, build, first
# call) of a short traced run of all three workloads, then the repro modules
# and source lines a fresh `import repro` and one `estimate` load.
coldstart:
	python3 perfbench/run.py --workload all --seed 0 --seconds 2 --trace 1 | grep -F ' setup.'
	PYTHONPATH=src python benchmarks/import_budget.py

profile:
	PYTHONPATH=src python -m repro.obs.profile --trips 3

benchtrack:
	PYTHONPATH=src python -m repro.obs.benchtrack check benchmarks/ --no-append

benchtrack-report:
	PYTHONPATH=src python -m repro.obs.benchtrack report benchmarks/
