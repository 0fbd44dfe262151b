"""Quota enforcement: graceful eviction, hard-breach refusal."""

from __future__ import annotations

import pytest

from repro.obs import Obs
from repro.spool.format import encode_frame
from repro.spool.importer import import_spool
from repro.spool.quota import (
    EvictionReport,
    SpoolQuotaExceeded,
    enforce_quota,
)
from repro.spool.segment import SegmentWriter, list_segments
from repro.spool.store import SpoolStore


def build_spool(root, per_shard):
    """``per_shard`` sealed single-record segments on two shards."""
    for shard in ("crawl00", "crawl01"):
        writer = SegmentWriter(root, shard, 1, segment_bytes=1)
        for index in range(per_shard):
            writer.append({"t": "site", "shard": shard, "n": index})
        writer.close()
    return list_segments(root)


class TestEnforceQuota:
    def test_zero_budget_disables_enforcement(self, tmp_path):
        build_spool(tmp_path, per_shard=2)
        report = enforce_quota(tmp_path, 0, 10**9, set())
        assert report == EvictionReport()

    def test_under_budget_is_a_no_op(self, tmp_path):
        infos = build_spool(tmp_path, per_shard=2)
        total = sum(info.size for info in infos)
        report = enforce_quota(tmp_path, total + 100, 50, set())
        assert report.evicted_segments == []

    def test_evicts_oldest_imported_first(self, tmp_path):
        infos = build_spool(tmp_path, per_shard=3)
        imported = {info.segment_id for info in infos}
        total = sum(info.size for info in infos)
        one = infos[0].size
        report = enforce_quota(tmp_path, total, one, imported)
        # Room for one incoming frame: the lowest-seq segments go
        # first, and nothing unimported is ever touched.
        assert report.evicted_segments
        assert report.evicted_segments == sorted(
            report.evicted_segments,
            key=lambda segment_id: segment_id.split("-")[-1],
        )
        remaining = {info.segment_id for info in list_segments(tmp_path)}
        assert remaining | set(report.evicted_segments) == imported

    def test_nothing_evictable_raises_hard_breach(self, tmp_path):
        infos = build_spool(tmp_path, per_shard=2)
        total = sum(info.size for info in infos)
        with pytest.raises(SpoolQuotaExceeded) as excinfo:
            enforce_quota(tmp_path, total, 1, set())
        assert excinfo.value.max_bytes == total
        assert excinfo.value.needed == total + 1
        # Degraded, never corrupted: every segment survives intact.
        assert {i.segment_id for i in list_segments(tmp_path)} == {
            info.segment_id for info in infos
        }

    def test_unimported_segments_are_never_evicted(self, tmp_path):
        infos = build_spool(tmp_path, per_shard=2)
        imported = {infos[0].segment_id}
        total = sum(info.size for info in infos)
        with pytest.raises(SpoolQuotaExceeded):
            # Evicting the single imported segment is not enough.
            enforce_quota(tmp_path, infos[0].size, total, imported)
        remaining = {info.segment_id for info in list_segments(tmp_path)}
        assert imported - remaining == imported  # the imported one went
        assert remaining == {i.segment_id for i in infos[1:]}


class TestStoreQuota:
    def test_append_past_quota_with_nothing_imported_raises(self, tmp_path):
        payload = {"t": "site", "n": 0}
        frame = len(encode_frame(payload))
        obs = Obs()
        store = SpoolStore.open(
            tmp_path, quota_bytes=4 * frame, segment_bytes=2 * frame,
            obs=obs,
        )
        with pytest.raises(SpoolQuotaExceeded):
            for index in range(50):
                store.append("crawl00", {"t": "site", "n": index})
        # The spool survives the refusal readable and recoverable:
        # every appended record is still there, in order.
        store.close()
        reopened = SpoolStore.open(tmp_path)
        from repro.spool.segment import read_segment

        replayed = [
            payload["n"]
            for info in reopened.segments()
            for payload in read_segment(info.path)
        ]
        assert replayed == list(range(len(replayed)))
        assert frame > 0


class TestImportedEviction:
    def test_relative_import_evicts_from_another_directory(
        self, spool_copy, tmp_path, monkeypatch
    ):
        # The journal must name its dataset so that a process running
        # anywhere finds it: read against another directory, a
        # relative name would make every imported segment look
        # unimported, and the over-quota append would raise.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        import_spool(spool_copy, "d.jsonl")
        monkeypatch.chdir(tmp_path)
        before = {info.segment_id for info in list_segments(spool_copy)}
        store = SpoolStore.open(
            spool_copy,
            quota_bytes=sum(info.size for info in list_segments(spool_copy)),
        )
        store.append("crawl00", {"t": "site", "n": 0})
        store.close()
        after = {info.segment_id for info in list_segments(spool_copy)}
        assert before - after
