"""Tests for the mining pipeline's progress logging."""

import logging

from repro.core.structure import mine_content_structure


class TestLogging:
    def test_mining_emits_progress_logs(self, demo_stream, caplog):
        with caplog.at_level(logging.INFO, logger="repro.core.structure"):
            mine_content_structure(demo_stream)
        messages = [record.getMessage() for record in caplog.records]
        assert any("shots detected" in message for message in messages)
        assert any("scenes kept" in message for message in messages)
