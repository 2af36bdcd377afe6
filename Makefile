# ClassMiner reproduction — developer entry points.

.PHONY: install test bench line-ratchet examples report smoke all clean

install:
	pip install -e .

test:
	pytest tests/

# The paper's figures and tables; timings are `python -m benchmarks.e2e`.
bench:
	pytest benchmarks/bench_*.py --benchmark-only

# ROADMAP's "net line count in src/ should go down", enforced instead of
# re-measured: LINE_CEILINGS holds "<dir> <max lines of *.py>" per line.
# Every entry under src (src itself, src/repro/net, src/repro/serving,
# src/repro/ingest, src/repro/storage) fails the build when it grows past its ceiling (lower the ceiling when
# you delete; raise it only on purpose, in the PR that says why); tests
# and benchmarks are reported.
line-ratchet:
	@while read dir ceiling; do \
		lines=$$(find $$dir -name '*.py' | xargs cat | wc -l); \
		echo "$$dir: $$lines lines of python (ceiling $$ceiling)"; \
		case $$dir in src*) if [ $$lines -gt $$ceiling ]; then \
			echo "$$dir grew past its ceiling in LINE_CEILINGS"; exit 1; \
		fi;; esac; \
	done < LINE_CEILINGS

# The one end-to-end run: the layered benchmark's selftest, then a quick
# (1 x 1 s, never for numbers) run of all seven workloads - real shard
# workers, `classminer serve --http`, a cold and a warm ingest - that
# exits 1 on any answer its oracle refuses.  Contracts live in tests/.
smoke:
	python -m benchmarks.e2e selftest
	python -m benchmarks.e2e run --workload all --quick

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex"; python $$ex >/dev/null && echo OK || exit 1; \
	done

report:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/bench_*.py --benchmark-only 2>&1 | tee bench_output.txt

all: install test bench examples

# Only what .gitignore lists: benchmarks/results/ is tracked (the paper
# tables PRs regenerate as their byte-identity proof).
clean:
	rm -rf .pytest_cache .benchmarks .hypothesis benchmarks/e2e/results
	find . -name __pycache__ -type d -exec rm -rf {} +
