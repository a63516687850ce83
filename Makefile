# Convenience targets for the Flashmark reproduction.

PYTHON ?= python

.PHONY: install test bench bench-ab experiments examples calibrate telemetry-demo serve-demo clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Alternating end-to-end benchmark runs: BASE (a git revision) against
# the working tree, e.g. `make bench-ab BASE=main PAIRS=10 SEED=7`.
BASE ?= HEAD
PAIRS ?= 10
SEED ?= 1
bench-ab:
	$(PYTHON) tools/bench_ab.py --base $(BASE) --pairs $(PAIRS) --seed $(SEED)

experiments:
	$(PYTHON) tools/run_experiments.py results

examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

calibrate:
	$(PYTHON) tools/calibrate.py

telemetry-demo:
	$(PYTHON) -m repro telemetry --selftest

serve-demo:
	$(PYTHON) examples/verification_service.py

clean:
	rm -rf results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
