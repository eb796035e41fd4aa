PYTHON ?= python
export PYTHONPATH := src

.PHONY: install test chaos fleet-chaos fleetd-chaos fleetd-smoke bench bench-pytest bench-tables examples docs lint all

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The CI seed sweeps: deterministic host fault storms under full
# invariant checking, each judged on determinism, query-neutrality and
# crash-equivalence (docs/RESILIENCE.md, "Chaos"). Seeds mirror
# tests/test_faults_chaos.py::CI_SEEDS. The second sweep runs Senpai
# supervised under controller crash/hang faults, so the kill and
# restore land while controllers die.
chaos:
	TMO_CHECK_INVARIANTS=1 $(PYTHON) -m repro chaos --seeds 1 2 3 4 5 --out chaos-host-verdict.json
	TMO_CHECK_INVARIANTS=1 $(PYTHON) -m repro chaos --seeds 1 2 3 --duration 600 --controller-faults 2 --out chaos-host-supervised-verdict.json

# Fleet-scale storms: parallel rollouts under seed-derived worker
# crash/hang/slowdown faults; the recovered fleet's merged digest must
# equal the fault-free control's (docs/RESILIENCE.md, "Chaos"). Seeds
# mirror the CI fleet-chaos job.
fleet-chaos:
	TMO_CHECK_INVARIANTS=1 $(PYTHON) -m repro chaos --fleet --seeds 1 2 3

# Control-plane storms: guarded rollouts under controller/worker
# faults through the fleetd engine — every host must end on a single
# policy, the kill switch must always win, and each seed's outcome
# digest must be deterministic and query-neutral (docs/RESILIENCE.md,
# "Chaos"). Seeds mirror the CI fleetd-smoke job.
fleetd-chaos:
	TMO_CHECK_INVARIANTS=1 $(PYTHON) -m repro chaos --fleetd --seeds 1 2 3

# Control-plane smoke: boot the fleetd daemon, register three hosts,
# run one passing rollout and one the health gate must trip and
# auto-roll-back, then shut down cleanly. Leaves the RolloutResult
# envelopes (fleetd-rollout-*.json) behind; CI uploads them.
fleetd-smoke:
	$(PYTHON) examples/fleetd_smoke.py

# ruff and mypy run only when installed (they are optional, see
# [project.optional-dependencies].lint); repro.lint always runs and
# is the gating check.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		echo "== ruff"; ruff check src benchmarks examples tests; \
	else \
		echo "== ruff not installed, skipping (pip install -e .[lint])"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		echo "== mypy"; mypy; \
	else \
		echo "== mypy not installed, skipping (pip install -e .[lint])"; \
	fi
	@echo "== repro.lint"
	$(PYTHON) -m repro.lint

# The perfbench throughput gate (docs/PERFORMANCE.md): run every
# workload for seeds 1-5 and fail on a >20% drop of the median
# calibrated host_ticks_per_s below the newest benchmarks/BENCH_<n>.json,
# or on any failed correctness check.
bench:
	$(PYTHON) benchmarks/perfbench_pairs.py --check

# The pytest-benchmark microbenches (figure tables + timings).
bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Print every figure/table the benches regenerate (no timing).
bench-tables:
	$(PYTHON) -m pytest benchmarks/ -q -s --benchmark-disable

examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex; done

docs:
	$(PYTHON) docs/gen_api.py

all: install test lint bench
