# Convenience targets for the common workflows.

.PHONY: install test chaos chaos-recover bench perf \
        validate experiments tune examples trace-demo check soak \
        serve-smoke perfbench-test clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Tier 2: the fault-injection sweep (every Table I algorithm x every
# chaos scenario on both backends). Excluded from plain `make test`.
chaos:
	pytest tests/ -m chaos

# Tier 2b: the same chaos sweep with self-healing on (every partial
# failure must recover), then the seeded recovery sweep writing the
# time-to-recovery-vs-radix report CI uploads as an artifact.
chaos-recover:
	repro-chaos --recover
	repro-recover --sweep -o recovery_report.json

bench:
	pytest benchmarks/ --benchmark-only

# The perf gates: nine timing ratios and budgets judged inside the run
# (DESIGN.md §18). Perf claims come from perfbench/, not from here.
perf:
	repro-bench-perf

# End-to-end observability demo: trace one 64-rank allreduce, writing
# trace.json (open at https://ui.perfetto.dev) plus trace-metrics.json
# and trace-metrics.prom next to it.
trace-demo:
	repro-trace allreduce recursive_multiplying --p 64 --k 4 \
		--nbytes 65536 -o trace.json

validate:
	repro-validate --max-p 24

# Static-analysis gate: deadlock, buffer-hazard, dataflow, and
# model-consistency lints over every registry pair across the
# acceptance grid (p in {2..17, 32, 64}, k in {2..8}) — no simulator.
check:
	repro-check --all --jobs -1

# Durability soak: seeded crash-storm over real repro-sweep subprocesses
# — kill -9, deterministic worker poison, random file damage (bit flips,
# truncated store entries, torn journal tails) between rounds, every
# round resumed and compared byte-for-byte against an undisturbed
# reference. Artifacts (journals, per-round results, soak_summary.json)
# land in soak-artifacts/; CI uploads them on every run.
soak:
	python -m repro.bench.soak --rounds 6 -o soak-artifacts

# Tuning-service smoke (DESIGN.md §17): boot a real repro-serve
# subprocess on an ephemeral port, probe every endpoint (served vs
# direct selection identity, schedule fingerprint round-trip, 8-way
# coalesced /tune, /metrics), SIGTERM it, and save the exported
# selection-config artifact CI uploads.
serve-smoke:
	python -m repro.server.smoke -o selection_config.json

# The benchmark's contract with src/: perfbench/ is frozen between
# baselines, so a refactor that renames something it imports (the list
# is in CONTRIBUTING.md) must fail here, not in the benchmark run.
# ~25 s; not part of `make test` (tier-1's testpaths exclude it).
perfbench-test:
	python -m pytest perfbench/tests -q

experiments:
	repro-bench all

tune:
	repro-tune --machine frontier --nodes 32 -o tuned-frontier32.json

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex =="; \
		python $$ex || exit 1; \
	done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
