# ClassMiner reproduction — developer entry points.

SMOKES = ingest-smoke serve-smoke obs-smoke chaos-smoke storage-smoke net-smoke obs-net-smoke chaos-net-smoke ann-smoke

.PHONY: install test bench bench-kernels bench-quick line-ratchet examples report smoke $(SMOKES) all clean

install:
	pip install -e .

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-kernels:
	pytest benchmarks/bench_similarity_kernels.py --benchmark-only

# The layered benchmark, as a smoke: its own selftest, then one quick
# (1 x 1 s, never for numbers) verified run of the in-RAM scan workload.
bench-quick:
	python -m benchmarks.e2e selftest
	python -m benchmarks.e2e run --workload inram_scan --quick

# ROADMAP's "net line count in src/ should go down", enforced instead of
# re-measured: LINE_CEILINGS holds "<dir> <max lines of *.py>" per line.
# src fails the build when it grows past its ceiling (lower the ceiling
# when you delete; raise it only on purpose, in the PR that says why);
# tests and benchmarks are reported.
line-ratchet:
	@while read dir ceiling; do \
		lines=$$(find $$dir -name '*.py' | xargs cat | wc -l); \
		echo "$$dir: $$lines lines of python (ceiling $$ceiling)"; \
		if [ $$dir = src ] && [ $$lines -gt $$ceiling ]; then \
			echo "src/ grew past its ceiling in LINE_CEILINGS"; exit 1; \
		fi; \
	done < LINE_CEILINGS

# Every self-checking smoke run, in sequence (CI runs them as one matrix).
smoke: $(SMOKES)

ingest-smoke:
	python -m repro.ingest.smoke

serve-smoke:
	python -m repro.serving.smoke

obs-smoke:
	python -m repro.obs.smoke

chaos-smoke:
	python -m repro.resilience.smoke

storage-smoke:
	python -m repro.storage.smoke

net-smoke:
	python -m repro.net.smoke

obs-net-smoke:
	python -m repro.net.obs_smoke

chaos-net-smoke:
	python -m repro.net.chaos_smoke

ann-smoke:
	python -m repro.ann.smoke

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex"; python $$ex >/dev/null && echo OK || exit 1; \
	done

report:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

all: install test bench examples

clean:
	rm -rf .pytest_cache .benchmarks benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
