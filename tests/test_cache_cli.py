"""CLI surface of the packed cache: ``repro cache DIR --stats/--verify/
--prune`` golden output lines and exit codes."""

import pytest

from repro.analysis import ResultCache, RunSpec, run_single
from repro.analysis.cache import CACHE_SCHEMA_VERSION
from repro.cli import main


@pytest.fixture
def populated(tmp_path):
    """A cache directory holding two packed entries."""
    cache = ResultCache(tmp_path)
    cache.put_many(
        [
            (RunSpec(family="ring", n=8, seed=seed), run_single("ring", 8, seed=seed))
            for seed in range(2)
        ]
    )
    return tmp_path


class TestCacheStats:
    def test_golden_line(self, capsys, populated):
        assert main(["cache", str(populated), "--stats"]) == 0
        out = capsys.readouterr().out
        packed_bytes = ResultCache(populated).stats()["bytes"]
        assert out == (
            f"cache {populated}: 2 packed entr(ies) in 1 segment(s) "
            f"({packed_bytes} bytes), schema v{CACHE_SCHEMA_VERSION}\n"
        )

    def test_empty_directory(self, capsys, tmp_path):
        assert main(["cache", str(tmp_path), "--stats"]) == 0
        assert "0 packed entr(ies) in 0 segment(s) (0 bytes)" in (
            capsys.readouterr().out
        )


class TestCacheVerify:
    def test_healthy_store_passes(self, capsys, populated):
        assert main(["cache", str(populated), "--verify"]) == 0
        assert capsys.readouterr().out == "cache verify: OK (2 packed entr(ies))\n"

    def test_truncated_segment_fails_with_details(self, capsys, populated):
        (segment,) = (populated / "segments").glob("seg-*.pack")
        segment.write_bytes(segment.read_bytes()[:10])
        assert main(["cache", str(populated), "--verify"]) == 1
        out = capsys.readouterr().out
        assert "truncated segment" in out
        assert "cache verify: FAIL (2 problem(s))" in out


class TestCachePrune:
    def test_nothing_stale(self, capsys, populated):
        assert main(["cache", str(populated), "--prune"]) == 0
        assert capsys.readouterr().out == (
            "cache prune: dropped 0 stale-schema entr(ies)\n"
        )

    def test_drops_stale_entries(self, capsys, tmp_path, monkeypatch):
        from repro.analysis import cache as cache_mod

        stale = ResultCache(tmp_path)
        monkeypatch.setattr(
            cache_mod, "CACHE_SCHEMA_VERSION", cache_mod.CACHE_SCHEMA_VERSION - 1
        )
        stale.put(RunSpec(family="ring", n=8, seed=0), run_single("ring", 8, seed=0))
        monkeypatch.undo()
        assert main(["cache", str(tmp_path), "--prune"]) == 0
        assert capsys.readouterr().out == (
            "cache prune: dropped 1 stale-schema entr(ies)\n"
        )


class TestCacheArgs:
    def test_exactly_one_action_required(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "required" in capsys.readouterr().err

    def test_actions_are_mutually_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", str(tmp_path), "--stats", "--verify"])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


class TestCacheStatsJson:
    def test_golden_json_object(self, capsys, populated):
        import json

        assert main(["cache", str(populated), "--stats", "--json"]) == 0
        out = capsys.readouterr().out
        stats = ResultCache(populated).stats()
        assert out == json.dumps(stats, sort_keys=True) + "\n"
        data = json.loads(out)
        assert data["entries"] == 2
        assert data["schema"] == CACHE_SCHEMA_VERSION

    def test_json_requires_stats(self, capsys, populated):
        assert main(["cache", str(populated), "--verify", "--json"]) == 2
        assert "--json only applies to --stats" in capsys.readouterr().err
