"""A probe that the coordinator splits across shards: each worker's request contract."""

from __future__ import annotations

import pytest

from repro.errors import ServingError
from repro.net.protocol import pack_array


@pytest.mark.parametrize("num_shards", (2, 3))
def test_a_probe_without_k_is_a_typed_error(make_harness, probes, num_shards):
    endpoint = make_harness(num_shards).endpoints[0]
    request = {"op": "probe", "features": pack_array(probes[0]), "leaves": []}
    with pytest.raises(ServingError, match="shard error: probe needs k"):
        endpoint.call(request)
    assert endpoint.call(dict(request, k=3))["ok"] is True
