"""The selftest as pytest cases: ``pytest benchmarks/e2e/test_selftest.py``."""

import pytest

from benchmarks.e2e import paths

paths.bootstrap()

from benchmarks.e2e import selftest  # noqa: E402 - needs the bootstrap above


@pytest.mark.parametrize("check", selftest.CHECKS, ids=lambda check: check.__name__)
def test_selftest(check):
    check()
