# Convenience targets for the repro project.

PYTHON ?= python

.PHONY: install test bench bench-medium examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	REPRO_SCALE=quick $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-medium:
	REPRO_SCALE=medium $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/surveillance_mission.py
	$(PYTHON) examples/fault_injection_campaign.py 60
	$(PYTHON) examples/sdc_quality_analysis.py 100
	$(PYTHON) examples/hot_function_study.py 120
	$(PYTHON) examples/event_summarization.py
	$(PYTHON) examples/protection_planning.py 100

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
