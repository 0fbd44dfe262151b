"""Loading filter lists from disk.

The bundled synthetic lists cover the synthetic ecosystem, but the
engine parses genuine ABP syntax — this loader builds an engine from
real EasyList/EasyPrivacy files for users who have them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.filters.compiled import CompiledFilterEngine
from repro.filters.parser import parse_filter_list
from repro.filters.rules import FilterList


def load_filter_file(path: str | Path, name: str | None = None) -> FilterList:
    """Parse one filter-list file (UTF-8; BOM tolerated)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig")
    return parse_filter_list(name or path.stem, text)


def load_filter_engine(paths: Iterable[str | Path]) -> CompiledFilterEngine:
    """Build an engine from one or more filter-list files."""
    lists = [load_filter_file(path) for path in paths]
    if not lists:
        raise ValueError("no filter lists given")
    return CompiledFilterEngine(lists)
