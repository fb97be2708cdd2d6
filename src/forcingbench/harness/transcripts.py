"""Transcript serialization with a canonical byte form.

The same run must hash to the same digest on every machine, so the JSON
form is fully canonical: sorted keys, no whitespace, plain integers.
`load_transcript` checks the digest and decodes the JSON, and
`forcing.base.Transcript.from_dict`, the one structural reader, the rest.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from ..forcing.base import (  # noqa: F401  (TranscriptFormatError)
    Transcript, TranscriptFormatError, canonical_json, digest)


def transcript_hash(t: Transcript) -> str:
    return digest(t.to_dict())


def emit_transcript(t: Transcript, destination: str) -> tuple:
    """Write a transcript and return (path, sha256 of the bytes written)."""
    payload = canonical_json(t.to_dict()).encode("ascii")
    parent = os.path.dirname(os.path.abspath(destination))
    os.makedirs(parent, exist_ok=True)
    with open(destination, "wb") as fh:
        fh.write(payload)
    return destination, hashlib.sha256(payload).hexdigest()


def load_transcript(path: str, expect_hash: Optional[str] = None) -> Transcript:
    with open(path, "rb") as fh:
        payload = fh.read()
    if expect_hash is not None:
        got = hashlib.sha256(payload).hexdigest()
        if got != expect_hash:
            raise TranscriptFormatError(
                f"digest mismatch: file hashes to {got}, expected {expect_hash}")
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise TranscriptFormatError(
            f"not valid JSON at offset {exc.pos}: {exc.msg}") from exc
    return Transcript.from_dict(doc)
