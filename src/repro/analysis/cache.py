"""Content-addressed cache for per-slice analysis state.

Every entry is one stage's folded accumulator for one dataset slice,
addressed by a SHA-256 over

* the slice's line hash (a spool-imported record range, or the whole
  record region, whose hash is the dataset fingerprint — see
  :func:`repro.crawler.persistence.dataset_fingerprint`),
* the labeling environment (:func:`labeler_fingerprint`), and
* the stage name, its code ``version`` and its configuration token,

so editing the dataset, relabeling it, bumping a stage's version, or
changing its configuration each mint a fresh key and force a refold,
while an unchanged ``repro analyze`` run restores every state and
folds nothing. Finalized artifacts are never cached: ``finalize``
reads the run's filter engine (the §4.2 blocking analysis scores
chains against the lists), which no key covers, so every run
finalizes against its own lists. Entries are one small JSON file each
under the cache root (``results/cache/`` by default), named
``<stage>-<key prefix>.json`` so the directory stays human-scannable.
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


class StageCache:
    """Load/store per-slice stage state by :func:`state_key`.

    A payload is one stage's :meth:`AnalysisStage.encode_state` for
    one slice — the unit the engine merges.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, stage_name: str, key: str) -> Path:
        return self.root / f"{stage_name}-{key[:16]}.json"

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
        return payload["state"]

    def store(self, stage: AnalysisStage, key: str, encoded: Any) -> Path:
        """Persist one stage's encoded payload; returns its path."""
        path = self._path(stage.name, key)
        payload = {
            "cache_format": CACHE_FORMAT_VERSION,
            "key": key,
            "stage": stage.name,
            "version": stage.version,
            "config": stage.config_token(),
            "state": encoded,
        }
        atomic_write(
            path,
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n",
        )
        return path


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
