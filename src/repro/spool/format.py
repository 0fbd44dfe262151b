"""The spool segment wire format: length-prefixed, checksummed frames.

A segment file is a sequence of *frames*, each::

    +----------------+----------------+------------------+
    | length (4B BE) | crc32  (4B BE) | payload (length) |
    +----------------+----------------+------------------+

where ``payload`` is one compact, sorted-key JSON object encoded as
UTF-8 and ``crc32`` is :func:`zlib.crc32` over those payload bytes.
The first frame of every segment is the header
(:func:`header_payload`); every later frame is one spool record.

The format is append-only and self-delimiting, which gives recovery
its central invariant: truncating the file at *any* byte offset leaves
a prefix of whole frames plus at most one incomplete tail — the tail
is detectable (the declared length runs past EOF, or the length field
itself is cut) and removable without touching any complete frame. A
checksum mismatch on a *complete* frame, by contrast, can never be
produced by truncation; it means bit corruption and is reported as
such (:class:`~repro.spool.recovery.SpoolCorruptionError`), never
silently dropped.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator

SPOOL_FORMAT = "repro.spool"
#: Version 3: one record per finished shard (a row per site, the
#: shard's one dataset fold and the stamp of the study that wrote it);
#: segments of versions 1 (page observations per site) and 2 (a fold
#: per site) are refused at recovery.
SPOOL_VERSION = 3

_PREFIX = struct.Struct(">II")
PREFIX_BYTES = _PREFIX.size

#: Sanity bound on one frame's payload. A declared length past this is
#: treated as corruption even when the bytes are present — a frame this
#: large can only be a misread length field.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(ValueError):
    """A frame could not be decoded.

    Attributes:
        offset: Byte offset of the frame's length prefix.
        kind: ``"torn"`` (frame incomplete at EOF — the truncation
            signature) or ``"corrupt"`` (a complete frame failed its
            checksum, declared an absurd length, or carried
            undecodable payload).
    """

    def __init__(self, offset: int, kind: str, reason: str) -> None:
        super().__init__(f"frame at byte {offset}: {reason}")
        self.offset = offset
        self.kind = kind


@dataclass(frozen=True)
class Frame:
    """One decoded frame and where it came from.

    Attributes:
        offset: Byte offset of the frame's length prefix.
        end: Byte offset one past the frame's last payload byte.
        payload: The decoded JSON object.
    """

    offset: int
    end: int
    payload: dict


def encode_frame(payload: dict) -> bytes:
    """Encode one JSON-able mapping as a framed record."""
    body = json.dumps(
        payload, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return _PREFIX.pack(len(body), zlib.crc32(body)) + body


def header_payload(shard: str, seq: int) -> dict:
    """The header frame payload identifying a segment."""
    return {
        "format": SPOOL_FORMAT,
        "version": SPOOL_VERSION,
        "shard": shard,
        "seq": seq,
    }


def scan_frames(data: bytes) -> Iterator[Frame]:
    """Decode frames from a segment's bytes, in order.

    Raises :class:`FrameError` at the first undecodable frame —
    ``kind="torn"`` when the frame is cut off by EOF (recovery
    truncates there), ``kind="corrupt"`` for everything else
    (recovery refuses the segment).
    """
    size = len(data)
    offset = 0
    while offset < size:
        if offset + PREFIX_BYTES > size:
            raise FrameError(
                offset, "torn",
                f"length prefix cut off at EOF ({size - offset} of "
                f"{PREFIX_BYTES} bytes)",
            )
        length, checksum = _PREFIX.unpack_from(data, offset)
        if length > MAX_FRAME_BYTES:
            raise FrameError(
                offset, "corrupt",
                f"declared payload of {length} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte frame bound",
            )
        start = offset + PREFIX_BYTES
        end = start + length
        if end > size:
            raise FrameError(
                offset, "torn",
                f"payload cut off at EOF ({size - start} of "
                f"{length} bytes)",
            )
        body = data[start:end]
        if zlib.crc32(body) != checksum:
            raise FrameError(
                offset, "corrupt",
                "checksum mismatch on a complete frame",
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise FrameError(
                offset, "corrupt", f"undecodable payload ({error})"
            ) from None
        if not isinstance(payload, dict):
            raise FrameError(
                offset, "corrupt",
                f"payload is {type(payload).__name__}, not an object",
            )
        yield Frame(offset=offset, end=end, payload=payload)
        offset = end


def check_header(payload: dict, path: str) -> None:
    """Validate a segment's header frame; raises ``ValueError``."""
    if payload.get("format") != SPOOL_FORMAT:
        raise ValueError(
            f"{path} is not a {SPOOL_FORMAT} segment "
            f"(header format={payload.get('format')!r})"
        )
    if payload.get("version") != SPOOL_VERSION:
        raise ValueError(
            f"{path} is spool version {payload.get('version')!r}; "
            f"this build reads version {SPOOL_VERSION}"
        )
