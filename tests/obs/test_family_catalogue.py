"""One list of metric families: the code's and OBSERVABILITY.md's."""

from __future__ import annotations

import ast
import re
from fnmatch import fnmatch
from pathlib import Path

from repro.obs.bridge import index_stats_collector, kernel_stats_collector
from repro.serving.cache import ResultCache

ROOT = Path(__file__).resolve().parents[2]


def _registered() -> set[str]:
    """Every literal name ``src/`` passes to ``.counter(`` / ``.gauge(`` / ``.histogram(``."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "gauge", "histogram")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                names.add(node.args[0].value)
    return names


def _documented() -> list[str]:
    """The names in the first column of "Metric families that ship", labels dropped."""
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    table = text.split("Metric families that ship:")[1].split("\n\n")[1]
    names = []
    for row in table.splitlines()[2:]:  # past the header and its rule
        cell = row.split("|")[1]
        names += [re.sub(r"\{.*", "", name) for name in re.findall(r"`([^`]+)`", cell)]
    return names


def test_the_table_lists_exactly_the_registered_families():
    concrete = {name for name in _documented() if "*" not in name}
    registered = _registered()
    assert sorted(registered - concrete) == [], "registered but not in the table"
    assert sorted(concrete - registered) == [], "in the table but never registered"


def test_prefix_rows_stand_for_collector_gauges():
    patterns = [name for name in _documented() if "*" in name]
    collected = {
        **kernel_stats_collector(),
        **index_stats_collector(),
        **ResultCache().metrics_snapshot(),
    }
    assert [name for name in collected if not any(fnmatch(name, p) for p in patterns)] == []
    assert [p for p in patterns if not any(fnmatch(name, p) for name in collected)] == []
