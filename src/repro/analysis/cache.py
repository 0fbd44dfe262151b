"""Content-addressed cache for stage artifacts and per-slice state.

Every artifact entry is addressed by a SHA-256 over

* the dataset fingerprint (hash of the canonical dataset byte stream —
  see :func:`repro.crawler.persistence.dataset_fingerprint`),
* the stage name and its code ``version``, and
* the stage's configuration token,

so editing the dataset, bumping a stage's version, or changing its
configuration each mint a fresh key and force a recompute, while an
unchanged ``repro analyze`` run is a pure cache hit. Entries are one
small JSON file each under the cache root (``results/cache/`` by
default), named ``<stage>-<key prefix>.json`` so the directory stays
human-scannable. The same :class:`StageCache` also holds incremental
analysis state (``kind="state"``): one stage's folded accumulator for
one dataset slice, addressed by :func:`state_key` over the slice's
line hash and the labeling environment instead of the dataset
fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.analysis.stage import AnalysisStage
from repro.util.atomicio import atomic_write

if TYPE_CHECKING:
    from repro.labeling.aa_labeler import AaLabeler
    from repro.labeling.resolver import DomainResolver

CACHE_FORMAT_VERSION = 1
DEFAULT_CACHE_DIR = Path("results/cache")


def stage_key(fingerprint: str, stage: AnalysisStage) -> str:
    """The content address of one stage's artifact for one dataset."""
    material = "\n".join((
        f"cache-format={CACHE_FORMAT_VERSION}",
        f"dataset={fingerprint}",
        f"stage={stage.name}",
        f"version={stage.version}",
        f"config={stage.config_token()}",
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class StageCache:
    """Load/store stage payloads by content address.

    ``kind="artifact"`` (the default) holds finalized artifacts under
    :func:`stage_key`; ``kind="state"`` holds per-slice *accumulator*
    state (:meth:`AnalysisStage.encode_state`) under :func:`state_key`
    — the unit incremental analysis merges — in ``state-``-prefixed
    files, so both kinds can share one directory.
    """

    def __init__(
        self, root: str | Path = DEFAULT_CACHE_DIR, kind: str = "artifact"
    ) -> None:
        if kind not in ("artifact", "state"):
            raise ValueError(f"unknown stage cache kind {kind!r}")
        self.root = Path(root)
        self.kind = kind
        self.hits = 0
        self.misses = 0

    def _path(self, stage_name: str, key: str) -> Path:
        prefix = "state-" if self.kind == "state" else ""
        return self.root / f"{prefix}{stage_name}-{key[:16]}.json"

    def load(self, stage_name: str, key: str) -> Any | None:
        """The encoded payload under ``key``, or ``None`` on a miss.

        A corrupt or key-mismatched file (e.g. a truncated write or a
        16-hex-prefix collision) counts as a miss and is recomputed
        over, never trusted.
        """
        path = self._path(stage_name, key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("key") != key
            or payload.get("cache_format") != CACHE_FORMAT_VERSION
        ):
            self.misses += 1
            return None
        self.hits += 1
        return payload[self.kind]

    def store(self, stage: AnalysisStage, key: str, encoded: Any) -> Path:
        """Persist one stage's encoded payload; returns its path."""
        path = self._path(stage.name, key)
        payload = {
            "cache_format": CACHE_FORMAT_VERSION,
            "key": key,
            "stage": stage.name,
            "version": stage.version,
            "config": stage.config_token(),
            self.kind: encoded,
        }
        atomic_write(
            path,
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n",
        )
        return path


# -- per-slice state keys (incremental analysis) ---------------------------


def labeler_fingerprint(
    labeler: "AaLabeler", resolver: "DomainResolver"
) -> str:
    """Content address of the derived labeling environment.

    Folding classifies views through the labeler and the Cloudfront
    resolver, so cached *state* is only reusable while both are
    unchanged; new imports shift the tag counts, the derived A&A set
    drifts, and every state key mints fresh — the safety property that
    makes incremental analysis exact rather than approximate.
    """
    hasher = hashlib.sha256()
    hasher.update(f"threshold={labeler.threshold}\n".encode("utf-8"))
    for domain in sorted(labeler.aa_domains):
        hasher.update(f"aa={domain}\n".encode("utf-8"))
    for host, target in sorted(resolver.cloudfront_mapping.items()):
        hasher.update(f"cf={host}->{target}\n".encode("utf-8"))
    return hasher.hexdigest()


def state_key(
    lines_sha: str, labeler_fp: str, stage: AnalysisStage
) -> str:
    """The content address of one stage's folded state for one slice."""
    material = "\n".join((
        f"state-format={CACHE_FORMAT_VERSION}",
        f"slice={lines_sha}",
        f"labeler={labeler_fp}",
        f"stage={stage.name}",
        f"version={stage.version}",
        f"config={stage.config_token()}",
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()
