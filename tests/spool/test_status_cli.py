"""``repro spool status`` end to end, over the session spool."""

from __future__ import annotations

import re
from pathlib import Path

from repro.cli import main
from repro.spool.segment import list_segments

ROW = re.compile(r"^(\S+)\s+(open|sealed|imported)\s+\d+ bytes$")
IMPORTS = re.compile(r"^imports into (.+) \((\d+) segment\(s\) imported\)$")


def _status(capsys, spool: Path) -> str:
    assert main(["spool", "status", str(spool)]) == 0
    return capsys.readouterr().out


def _rows(out: str) -> dict[str, str]:
    return {
        match.group(1): match.group(2)
        for match in map(ROW.match, out.splitlines())
        if match
    }


def test_status_tracks_the_import_from_any_directory(
    spool_copy, tmp_path, capsys, monkeypatch
):
    segments = [info.segment_id for info in list_segments(spool_copy)]
    out = _status(capsys, spool_copy)
    assert _rows(out) == dict.fromkeys(segments, "sealed")
    assert f"({len(segments)} sealed awaiting import)" in out
    assert "imports into" not in out

    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["spool", "import", str(spool_copy), "d.jsonl"]) == 0
    capsys.readouterr()
    for cwd in (work, tmp_path):
        monkeypatch.chdir(cwd)
        out = _status(capsys, spool_copy)
        assert _rows(out) == dict.fromkeys(segments, "imported"), cwd
        assert "(0 sealed awaiting import)" in out
        [target] = [
            match for match in map(IMPORTS.match, out.splitlines())
            if match
        ]
        assert Path(target.group(1)).resolve() == work / "d.jsonl"
        assert int(target.group(2)) == len(segments)


def test_missing_spool_directory_is_exit_2(tmp_path, capsys):
    assert main(["spool", "status", str(tmp_path / "absent")]) == 2
    assert "no spool directory" in capsys.readouterr().err
