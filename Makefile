PYTHON ?= python
export PYTHONPATH := src
BENCH_DIR ?= bench-artifacts
PERFBENCH_WORKLOADS := sync_small batched_writes open_loop_reads transformed_app

.PHONY: check test quickstart-smoke bench-smoke bench-check perfbench-smoke docs-check lint lint-dist

test:
	$(PYTHON) -m pytest -x -q

quickstart-smoke:
	$(PYTHON) examples/quickstart.py

bench-smoke:
	mkdir -p $(BENCH_DIR)
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_batching.py
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_pipelining.py
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_replication.py
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_caching.py
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_load.py
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_middleware.py
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_partition.py
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_tracing.py

bench-check: bench-smoke
	$(PYTHON) benchmarks/check_regressions.py --dir $(BENCH_DIR)

# One short run per workload must report "correct": true, and a fixed seed
# must repeat every simulated metric bit for bit across processes.
perfbench-smoke:
	@for workload in $(PERFBENCH_WORKLOADS); do \
		result=$$($(PYTHON) perfbench/run.py --workload $$workload --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		case "$$result" in \
			*'"correct": true'*) echo "perfbench $$workload: correct" ;; \
			*) echo "perfbench $$workload: not correct: $$result" >&2; exit 1 ;; \
		esac; \
	done
	$(PYTHON) perfbench/check_seed.py --seed 7

docs-check:
	$(PYTHON) -m repro.tools.doccheck src/repro --level api --fail-under 100

lint: lint-dist
	ruff check .

lint-dist:
	$(PYTHON) -m repro lint src/repro examples tests/sample_app.py

check: test quickstart-smoke bench-check perfbench-smoke docs-check lint-dist
