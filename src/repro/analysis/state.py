"""Type-tagged JSON codec for stage accumulator *state*.

Given a stage cache, :meth:`AnalysisEngine.run` caches what a stage
*accumulates* per dataset slice — domain sets, Counters keyed by
tuples or enums, nested dicts — so a slice folded once never has its
records re-read; what a stage :meth:`finalize`\\ s is never cached.

Accumulator state is richer than JSON: sets, ``Counter``\\ s, tuple and
enum keys. Each non-JSON value is wrapped in a single-key tag object
(``{"~set": [...]}`` …); containers encode recursively, and mapping
entries are emitted as sorted key/value *pairs* so equal states encode
to equal bytes regardless of insertion order. The round trip is exact:
``decode_value(encode_value(v)) == v`` with types preserved — the
property ``tests/spool`` pins over every registered stage.

Strings, numbers, booleans and ``None`` pass through untouched; a
plain dict is itself encoded as ``{"~map": ...}``, so tag keys can
never collide with data.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any

from repro.content.items import ReceivedClass, SentItem


def _sort_token(encoded: Any) -> str:
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def _encode_pairs(items) -> list:
    pairs = [
        [encode_value(key), encode_value(value)] for key, value in items
    ]
    pairs.sort(key=lambda pair: _sort_token(pair[0]))
    return pairs


def encode_value(value: Any) -> Any:
    """Encode one accumulator value as tagged, canonical JSON data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, SentItem):
        return {"~sent": value.value}
    if isinstance(value, ReceivedClass):
        return {"~recv": value.value}
    if isinstance(value, Counter):
        return {"~counter": _encode_pairs(value.items())}
    if isinstance(value, dict):
        return {"~map": _encode_pairs(value.items())}
    if isinstance(value, frozenset):
        return {"~frozenset": sorted(
            (encode_value(v) for v in value), key=_sort_token
        )}
    if isinstance(value, set):
        return {"~set": sorted(
            (encode_value(v) for v in value), key=_sort_token
        )}
    if isinstance(value, tuple):
        return {"~tuple": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"~list": [encode_value(v) for v in value]}
    raise TypeError(
        f"cannot encode stage state value of type {type(value).__name__}"
    )


def decode_value(payload: Any) -> Any:
    """Invert :func:`encode_value`, restoring the original types."""
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, dict):
        if len(payload) != 1:
            raise ValueError(f"malformed tagged value: {payload!r}")
        tag, body = next(iter(payload.items()))
        if tag == "~sent":
            return SentItem(body)
        if tag == "~recv":
            return ReceivedClass(body)
        if tag == "~counter":
            return Counter({
                decode_value(key): decode_value(value)
                for key, value in body
            })
        if tag == "~map":
            return {
                decode_value(key): decode_value(value)
                for key, value in body
            }
        if tag == "~frozenset":
            return frozenset(decode_value(v) for v in body)
        if tag == "~set":
            return {decode_value(v) for v in body}
        if tag == "~tuple":
            return tuple(decode_value(v) for v in body)
        if tag == "~list":
            return [decode_value(v) for v in body]
        raise ValueError(f"unknown state tag {tag!r}")
    raise ValueError(
        f"cannot decode stage state payload of type "
        f"{type(payload).__name__}"
    )
