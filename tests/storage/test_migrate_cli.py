"""The `classminer migrate` and `classminer search` subcommands."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main
from repro.storage import build_synthetic_database, catalog_path
from tests.storage.conftest import write_legacy_json


@pytest.fixture(scope="module")
def legacy_dir(tmp_path_factory):
    """A JSON-era database directory (no SQL catalog yet)."""
    directory = tmp_path_factory.mktemp("cli-legacy")
    database = build_synthetic_database(videos=6, shots_per_video=4, seed=1)
    write_legacy_json(database, directory / "database.json")
    return directory


class TestMigrateCommand:
    def test_migrate_converts_json_dir(self, legacy_dir, capsys):
        assert main(["migrate", "--db-dir", str(legacy_dir)]) == 0
        out = capsys.readouterr().out
        assert catalog_path(legacy_dir).exists()
        assert (legacy_dir / "database.json").exists()  # kept without the flag
        assert "migrated" in out
        assert "6 videos" in out

    def test_remove_json_flag(self, tmp_path, capsys):
        database = build_synthetic_database(videos=3, shots_per_video=4, seed=2)
        write_legacy_json(database, tmp_path / "database.json")
        assert main(["migrate", "--db-dir", str(tmp_path), "--remove-json"]) == 0
        assert catalog_path(tmp_path).exists()
        assert not (tmp_path / "database.json").exists()

    def test_empty_dir_exits_nonzero(self, tmp_path, capsys):
        assert main(["migrate", "--db-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestSearchCommand:
    def test_search_finds_migrated_metadata(self, legacy_dir, capsys):
        assert main(["search", "synthetic", "--db-dir", str(legacy_dir)]) == 0
        out = capsys.readouterr().out
        assert "search" in out
        assert "synthetic" in out

    def test_search_respects_k(self, legacy_dir, capsys):
        assert main(["search", "synthetic", "--db-dir", str(legacy_dir), "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("synthetic_") <= 4  # 2 rows, title + body columns

    def test_no_matches_is_still_success(self, legacy_dir, capsys):
        assert main(["search", "xyzzy", "--db-dir", str(legacy_dir)]) == 0
        assert "no matches" in capsys.readouterr().out

    def test_missing_catalog_suggests_migrate(self, tmp_path, capsys):
        assert main(["search", "anything", "--db-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "classminer migrate" in err

    def test_flags_documented_in_help(self):
        parser = build_parser()
        sub = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert "--remove-json" in sub.choices["migrate"].format_help()
        assert "--db-dir" in sub.choices["search"].format_help()
