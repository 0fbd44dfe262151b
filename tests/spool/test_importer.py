"""Importer contract: byte-identity, idempotence, crash healing."""

from __future__ import annotations

import pytest

from repro.crawler.dataset import StudyDataset
from repro.crawler.persistence import (
    dataset_fingerprint,
    file_fingerprint,
    open_dataset,
    save_dataset,
)
from repro.spool.importer import ImportState, import_spool


@pytest.fixture()
def imported(spool_copy, tmp_path):
    dataset = tmp_path / "dataset.jsonl"
    result = import_spool(spool_copy, dataset)
    return spool_copy, dataset, result


class TestImport:
    def test_import_reproduces_the_in_memory_dataset(
        self, spooled, imported
    ):
        _root, result = spooled
        _spool, dataset, import_result = imported
        # The keystone byte-identity: replaying the spool produces
        # exactly the dataset the uninterrupted study held in memory.
        assert file_fingerprint(dataset) == dataset_fingerprint(
            result.dataset
        )
        assert import_result.fingerprint == file_fingerprint(dataset)
        assert import_result.new_records == len(
            result.dataset.socket_records
        )

    def test_reimport_is_a_no_op(self, imported):
        spool, dataset, first = imported
        second = import_spool(spool, dataset)
        assert second.no_op
        assert second.imported_segments == []
        assert file_fingerprint(dataset) == first.fingerprint

    def test_one_dataset_per_spool(self, imported, tmp_path):
        spool, _dataset, _result = imported
        with pytest.raises(ValueError, match="one dataset per spool"):
            import_spool(spool, tmp_path / "other.jsonl")

    def test_slices_are_contiguous_and_content_addressed(self, imported):
        spool, dataset, result = imported
        state = ImportState.load(spool, dataset)
        reader = open_dataset(dataset)
        cursor = 0
        for entry in state.slices:
            assert entry.start == cursor
            count, sha = reader.record_range_sha(entry.start, entry.stop)
            assert count == entry.stop - entry.start
            # The journal's content address matches what the reader
            # recomputes from the file — the invariant incremental
            # analysis keys its state cache on.
            assert sha == entry.lines_sha
            cursor = entry.stop
        assert cursor == result.new_records

    def test_journal_crash_heals_by_deduped_replay(self, imported):
        # Simulate a crash between the dataset rename and the journal
        # write: the dataset has the records, the journal does not.
        spool, dataset, first = imported
        state = ImportState.load(spool, dataset)
        state.entries.pop()
        state.save()
        healed = import_spool(spool, dataset)
        assert not healed.no_op
        assert healed.imported_segments  # re-replayed, not skipped
        assert healed.new_records == 0  # every site deduped
        assert healed.deduped_sites > 0
        assert file_fingerprint(dataset) == first.fingerprint

    def test_stale_journal_entry_is_dropped_on_load(self, imported):
        # A dataset regenerated outside the importer invalidates the
        # trailing journal entries rather than poisoning eviction.
        spool, dataset, _first = imported
        dataset.write_text(dataset.read_text() + "\n")
        state = ImportState.load(spool, dataset)
        assert state.dropped > 0
        assert state.entries == []

    def test_partial_shard_overlap_is_refused(
        self, spooled, spool_copy, tmp_path
    ):
        # A dataset listing only part of a journaled shard's sites was
        # not written from this spool: merging the shard would count
        # those sites twice, skipping it would lose the rest.
        _root, result = spooled
        foreign = StudyDataset(engine=None)
        foreign.crawl_sites[0] = result.dataset.crawl_sites[0][:10]
        foreign.crawl_labels[0] = result.dataset.crawl_labels[0]
        dataset = tmp_path / "dataset.jsonl"
        save_dataset(dataset, foreign)
        before = dataset.read_bytes()
        with pytest.raises(ValueError, match="overlaps the dataset's sites"):
            import_spool(spool_copy, dataset)
        assert dataset.read_bytes() == before
