"""A spool written by an older format version is refused, loudly.

Version 2 journals each site's dataset fold; a version-1 spool holds
page observations instead. Both commands that open a spool must exit 2
naming the version, never crash decoding an entry they cannot read.
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
MESSAGE = f"is spool version 1; this build reads version {SPOOL_VERSION}"


@pytest.fixture()
def v1_spool(tmp_path):
    root = tmp_path / "spool"
    root.mkdir()
    header = {"format": SPOOL_FORMAT, "version": 1, "shard": "crawl00",
              "seq": 1}
    (root / "crawl00-000001.seg").write_bytes(
        encode_frame(header)
        + encode_frame({"t": "crawl", "index": 0, "label": "Apr 02-05"})
        + encode_frame({"t": "site", "entry": V1_SITE})
    )
    return root


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
