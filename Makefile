# Convenience targets for the SDRaD reproduction.

.PHONY: install test bench bench-fast bench-obs bench-plans bench-fleet bench-backends bench-campaign campaign profile pairs tables tables-golden examples examples-golden pins lint lint-domains lint-fixtures all

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Wall-clock harness for the simulation itself (TLB fast path, access
# plans, re-entry cache, request batching, kvstore/memcached end-to-end,
# observability overhead, fleet scatter-gather scaling, isolation-backend
# substrates). Writes BENCH_PR10.json; fails on >25% drop in a within-file
# speedup ratio vs. the previous BENCH_*.json (ordered by schema, then PR
# number) — ratios, because each file is recorded on a different VM — and
# on a miss of the absolute targets (plans >= 10x, batched pipeline >= 3x
# baseline, obs overhead <= 1.05x, 8-shard multiget >= 3x single-shard,
# mpk backend >= 0.75x the default spelling).
bench-fast:
	PYTHONPATH=src python scripts/bench.py --out BENCH_PR10.json
	python scripts/check_bench_regression.py

# Just the observability-overhead bench plus the regression gate: proves
# the obs=None fast path keeps memcached_e2e throughput (the acceptance
# criterion for the obs subsystem) without re-running the full harness.
bench-obs:
	PYTHONPATH=src python scripts/bench.py --out BENCH_PR10.json \
		--only memcached_e2e,memcached_obs
	python scripts/check_bench_regression.py

# Just the access-plan tentpole benches: the compiled-plan speedup and the
# end-to-end pipeline it feeds, with the absolute targets enforced.
bench-plans:
	PYTHONPATH=src python scripts/bench.py --out BENCH_PR10.json \
		--only raw_access,access_plans,memcached_e2e
	python scripts/check_bench_regression.py

# The PR 7 tentpole bench: 1-vs-8-shard scatter-gather multiget scaling
# plus the seeded end-to-end fleet run (arrivals, failover, ledger), with
# the >= 3x absolute gate enforced.
bench-fleet:
	PYTHONPATH=src python scripts/bench.py --out BENCH_PR10.json \
		--only fleet
	python scripts/check_bench_regression.py

# The PR 8 tentpole bench: the memcached E1 serving mix on each isolation
# substrate (default/mpk/cheri/sfi), with the mpk-vs-default parity gate
# (>= 0.75x) enforced.
bench-backends:
	PYTHONPATH=src python scripts/bench.py --out BENCH_PR10.json \
		--only backends
	python scripts/check_bench_regression.py

# The PR 10 campaign bench: stratified sampling throughput plus one tiny
# seeded closed loop — informational (no absolute gate; correctness is
# pinned by the campaign-smoke golden fixture in CI).
bench-campaign:
	PYTHONPATH=src python scripts/bench.py --out BENCH_PR10.json \
		--only campaign
	python scripts/check_bench_regression.py

# The PR 10 closed loop at defaults: stratified Clopper–Pearson sampling
# over fault class x domain x phase x backend, factorial model fit,
# carbon-aware policy recommendation, and re-measured validation.
campaign:
	PYTHONPATH=src python -m repro campaign

# cProfile the hot request paths; prints the top-20 cumulative hotspots.
profile:
	PYTHONPATH=src python scripts/profile.py

# Paired runs of the repository benchmark (bench/): PAIRS suite runs of
# PARENT's committed tree, unpacked into a temporary directory, alternating
# with PAIRS runs of this working tree (odd pairs run the parent first, even
# pairs the change), then bench/compare.py's verdict per end-to-end metric
# and workload. ONLY picks the workloads (default: all). The runs are kept
# in PAIRS_OUT (parent.json, change.json).
PARENT ?= HEAD~1
ONLY ?= mc_pipeline,mc_per_request,mc_attack,fleet_zipf
PAIRS ?= 10
SEED ?= 2023
PAIRS_OUT ?= pairs.out
pairs:
	@set -e; parent=$$(mktemp -d); trap 'rm -rf "$$parent"' EXIT; \
	git archive $(PARENT) | tar -x -C "$$parent"; \
	mkdir -p $(PAIRS_OUT); rm -f $(PAIRS_OUT)/parent.json $(PAIRS_OUT)/change.json; \
	out=$$(cd $(PAIRS_OUT) && pwd); \
	for i in $$(seq $(PAIRS)); do \
		echo "pair $$i/$(PAIRS)"; \
		if [ $$((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi; \
		for side in $$order; do \
			if [ $$side = parent ]; then dir="$$parent"; else dir=.; fi; \
			(cd "$$dir" && python3 bench/run.py --only $(ONLY) --seed $(SEED) \
				--out "$$out/$$side.json" >/dev/null); \
		done; \
	done; \
	python3 bench/compare.py "$$out/parent.json" "$$out/change.json"

tables:
	pytest benchmarks/ -s --benchmark-disable

# Re-record every experiment's printed tables under benchmarks/golden/
# (compared by benchmarks/conftest.py's experiment_printer at the end of
# each test). Name the moved lines and the reason in CHANGES.md when a
# change re-records them.
tables-golden:
	rm -f benchmarks/golden/*.txt
	REPRO_RECORD_TABLES=1 PYTHONPATH=src python -m pytest benchmarks/ -q \
		--benchmark-disable -p no:cacheprovider
	@git diff --stat -- benchmarks/golden/

# Stops at the first failing script (a bare loop exits with the last
# script's status only).
examples:
	@set -e; for f in examples/*.py; do echo "== $$f =="; python $$f; done

# Re-record the stdout of every example under examples/golden/ (compared
# byte for byte by tests/test_examples_golden.py). Name the moved lines
# and the reason in CHANGES.md when a change re-records them.
examples-golden:
	@set -e; for f in examples/*.py; do \
		python $$f > examples/golden/$$(basename $$f .py).txt; done
	@git diff --stat -- examples/golden/

# Re-record every golden at once: the E-series tables, the examples'
# stdout, the obs exporter fixtures and the campaign fixture (with the
# command CI's campaign-smoke job checks it with), then show what moved.
# Tests only compare; nothing re-records unless asked to here.
pins:
	PYTHONPATH=src $(MAKE) --no-print-directory tables-golden examples-golden
	PYTHONPATH=src python -c "import sys; sys.path.insert(0, '.'); \
		from tests.test_obs_exporters import regenerate_golden_files; \
		regenerate_golden_files()"
	PYTHONPATH=src python -m repro campaign \
		--strata "kinds=stack-smash,heap-overflow;domains=1;phases=entry;backends=mpk,cheri" \
		--max-rounds 8 --json > tests/fixtures/campaign_golden.json
	@git diff --stat -- benchmarks/golden/ examples/golden/ tests/fixtures/obs/ \
		tests/fixtures/campaign_golden.json

# sdradlint: whole-program static verification of the SDRaD compartment
# invariants (R1 enter/exit pairing, R2 domain-heap escape, R3
# rewind-unsafe side effects, R4 unguarded WRPKRU gadgets, R5
# interprocedural heap escape, R6 MPK-only idioms outside capability
# guards, R7 FFI boundary contract). Exit 1 on any new finding. Uses the
# incremental summary cache (.sdradlint.cache.json); pass flags through
# scripts/lint_domains.py for --no-cache / --changed-only / --format sarif.
lint-domains:
	python scripts/lint_domains.py

# The linter's own test matrix: planted-violation and near-miss fixtures
# for every rule (exact rule+line markers), call-graph/SCC-summary unit
# tests, cache byte-identity tests, the SARIF golden file, and the pinned
# set of domain bodies the registry finds in src/repro/apps.
lint-fixtures:
	PYTHONPATH=src python -m pytest \
		tests/test_analysis_fixtures.py \
		tests/test_analysis_callgraph.py \
		tests/test_analysis_cache.py \
		tests/test_analysis_apps_coverage.py

# General hygiene (ruff + mypy, configured in pyproject.toml). Both are
# optional: the targets skip with a notice when the tool is not in the
# container, so `make lint` never fails on a missing dependency — only
# on actual diagnostics. sdradlint always runs.
lint: lint-domains
	@command -v ruff >/dev/null 2>&1 \
		&& ruff check src/repro scripts tests \
		|| echo "lint: ruff not installed, skipping"
	@command -v mypy >/dev/null 2>&1 \
		&& mypy src/repro \
		|| echo "lint: mypy not installed, skipping"

all: install test bench
