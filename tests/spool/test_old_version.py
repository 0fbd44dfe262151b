"""A spool written by an older format version is refused, loudly.

Version 3 journals one record per shard (a row per site and one
dataset fold); a version-2 spool holds one fold per site, and a
version-1 spool page observations. Both commands that open a spool
must exit 2 naming the version, never crash decoding an entry they
cannot read.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.spool.format import SPOOL_FORMAT, SPOOL_VERSION, encode_frame

#: A version-1 site entry's summary counts. It has no ``fold``, so this
#: build could not decode it even past the version check.
V1_SITE = {
    "crawl": 0, "domain": "pub.com", "rank": 1, "status": "ok",
    "pages": 0, "sockets": 0, "pages_failed": 0, "page_retries": 0,
    "sockets_partial": 0, "events_published": 0, "errors": {},
}
#: A version-2 site entry: the same counts and the site's own fold.
V2_SITE = {**V1_SITE, "fold": {"pages": [[0, 1]], "aggregates": [],
                               "chains": [], "records": []}}
MESSAGE = f"is spool version 1; this build reads version {SPOOL_VERSION}"
V2_MESSAGE = f"is spool version 2; this build reads version {SPOOL_VERSION}"


def _old_spool(root, version: int, entry: dict):
    root.mkdir()
    header = {"format": SPOOL_FORMAT, "version": version,
              "shard": "crawl00", "seq": 1}
    (root / "crawl00-000001.seg").write_bytes(
        encode_frame(header)
        + encode_frame({"t": "crawl", "index": 0, "label": "Apr 02-05"})
        + encode_frame({"t": "site", "entry": entry})
    )
    return root


@pytest.fixture()
def v1_spool(tmp_path):
    return _old_spool(tmp_path / "spool", 1, V1_SITE)


@pytest.fixture()
def v2_spool(tmp_path):
    return _old_spool(tmp_path / "spool", 2, V2_SITE)


def test_spool_import_refuses_v1(v1_spool, tmp_path, capsys):
    dataset = tmp_path / "dataset.jsonl"
    assert main(["spool", "import", str(v1_spool), str(dataset)]) == 2
    assert MESSAGE in capsys.readouterr().err
    assert not dataset.exists()


def test_study_refuses_v1_spool(v1_spool, capsys):
    argv = ["--quiet", "study", "--preset", "smoke",
            "--spool-dir", str(v1_spool)]
    assert main(argv) == 2
    assert MESSAGE in capsys.readouterr().err


def test_spool_import_refuses_v2(v2_spool, tmp_path, capsys):
    dataset = tmp_path / "dataset.jsonl"
    assert main(["spool", "import", str(v2_spool), str(dataset)]) == 2
    assert V2_MESSAGE in capsys.readouterr().err
    assert not dataset.exists()


def test_study_refuses_v2_spool(v2_spool, capsys):
    argv = ["--quiet", "study", "--preset", "smoke",
            "--spool-dir", str(v2_spool)]
    assert main(argv) == 2
    assert V2_MESSAGE in capsys.readouterr().err
