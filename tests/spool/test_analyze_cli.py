"""``repro analyze --incremental`` end to end, over the session spool."""

from __future__ import annotations

import re

from repro.cli import main
from repro.spool.importer import import_spool


def _analyze(capsys, *argv: str) -> tuple[str, str]:
    assert main(["analyze", *argv]) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_incremental_cli_folds_then_restores(spool_copy, tmp_path, capsys):
    dataset = tmp_path / "dataset.jsonl"
    import_spool(spool_copy, dataset)
    plain, _ = _analyze(capsys, str(dataset), "--no-cache")
    argv = (
        str(dataset), "--incremental", str(spool_copy),
        "--cache-dir", str(tmp_path / "state-cache"),
    )
    cold, cold_err = _analyze(capsys, *argv)
    warm, warm_err = _analyze(capsys, *argv)

    folded = re.search(r"segment folds: 0 cached, (\d+) folded", cold_err)
    assert folded is not None and int(folded.group(1)) > 0
    assert f"segment folds: {folded.group(1)} cached, 0 folded" in warm_err
    assert cold == plain
    assert warm == plain
