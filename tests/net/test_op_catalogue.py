"""One list of shard wire ops: the worker's, the senders' and the docs'."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.errors import ServingError
from repro.net.worker import ShardWorker

ROOT = Path(__file__).resolve().parents[2]


def _ops_sent(module: str) -> set[str]:
    """Every literal op a module puts in a request: ``{"op": X}`` or ``dict(.., op=X)``."""
    sent = set()
    for node in ast.walk(ast.parse((ROOT / "src/repro/net" / module).read_text())):
        if isinstance(node, ast.Dict):
            pairs = zip(node.keys, node.values)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            pairs = ((ast.Constant(kw.arg), kw.value) for kw in node.keywords)
        else:
            continue
        sent.update(
            value.value
            for key, value in pairs
            if isinstance(key, ast.Constant) and key.value == "op"
        )
    return sent


class TestCatalogue:
    def test_handlers_senders_and_docs_list_the_same_ops(self):
        handled = {name[4:] for name in vars(ShardWorker) if name.startswith("_op_")}
        sent = _ops_sent("coordinator.py") | _ops_sent("cluster.py")
        table = (ROOT / "docs" / "SHARDING.md").read_text().split("Worker ops:")[1]
        documented = re.findall(r"^\| `([a-z]+)` \|", table.split("\n\n")[1], re.MULTILINE)
        assert sent == handled
        assert sorted(documented) == sorted(handled)

    def test_unlisted_op_is_a_typed_error_on_a_usable_connection(self, make_harness):
        endpoint = make_harness(1).endpoints[0]
        with pytest.raises(ServingError, match="shard error: unknown op 'health'"):
            endpoint.call({"op": "health"})
        assert endpoint.call({"op": "ping"})["ok"] is True
