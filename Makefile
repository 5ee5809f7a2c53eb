# Developer conveniences. Everything is plain pytest/python underneath.

PYTHON ?= python

.PHONY: install test test-fast bench artifacts-check reachability perf perf-pairs gc-share report examples clean

install:
	$(PYTHON) -m pip install -e .[dev] || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:  ## skip the slow end-to-end suites
	$(PYTHON) -m pytest tests/ \
		--ignore=tests/integration/test_repro_report.py \
		--ignore=tests/integration/test_example_scripts.py

bench:  ## regenerate every paper artifact (benchmarks/results/)
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The seconds-fast regenerators must leave their tracked artifacts
# byte-identical (CI jobs artifact-drift and, for fuzz, fuzz-smoke run
# the same commands).
ARTIFACTS = quality availability availability_chaos latency membership \
	ablation_loss ablation_replication fuzz theorem_rates \
	theorem3_counterexample theorem4_counterexample wire_sizes example4 \
	multicondition_demux multicondition_system multicondition_disjunction

artifacts-check:  ## regenerate the sweep artifacts; fail on any drift
	$(PYTHON) -m pytest benchmarks/bench_quality.py \
		benchmarks/bench_availability.py benchmarks/bench_latency.py \
		benchmarks/bench_membership.py \
		benchmarks/bench_ablation.py benchmarks/bench_fuzz.py \
		benchmarks/bench_theorems.py benchmarks/bench_wire.py \
		benchmarks/bench_multicondition.py \
		--benchmark-only -q
	git diff --exit-code -- $(ARTIFACTS:%=benchmarks/results/%.txt)

reachability:  ## unreached src/repro definitions, held to tools/reachability_allow.txt
	$(PYTHON) tools/reachability.py

# The repo benchmark (BENCHMARK.json): one workload, one seed, one JSON
# line of end-to-end metrics; TRACE=1 is the per-layer traced run.
WORKLOAD ?= table3-grid
SEED ?= 7
TRACE ?= 0

perf:  ## e.g. make perf WORKLOAD=chaos-churn-grid SEED=23 TRACE=1
	$(PYTHON) benchmarks/perf/run.py --workload $(WORKLOAD) --seed $(SEED) \
		--seconds 16 --trace $(TRACE)

# The house rule of CONTRIBUTING.md: N alternating parent/change pairs of
# one workload on one seed, each tree running its own benchmarks/perf.
N ?= 10

perf-pairs:  ## e.g. make perf-pairs BASE=HEAD~1 WORKLOAD=chaos-churn-grid SEED=7
	$(PYTHON) tools/perf_pairs.py --base $(BASE) --workload $(WORKLOAD) \
		--seed $(SEED) --pairs $(N)

gc-share:  ## what the cyclic collector costs on each in-process path
	$(PYTHON) tools/gc_share.py --seed $(SEED)

report:  ## one-shot reproduction verdict
	$(PYTHON) -m repro report --budget 0.3 --output reproduction-report.md

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f >/dev/null || exit 1; done

clean:  ## untracked outputs only: benchmarks/results/*.txt|json are tracked artifacts tests read
	rm -rf .pytest_cache .hypothesis .benchmarks benchmarks/results/traces \
		reproduction-report.md
	find . -name __pycache__ -type d -exec rm -rf {} +
