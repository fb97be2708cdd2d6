"""Transcript serialization with a canonical byte form.

The same run must hash to the same digest on every machine, so the JSON
form is fully canonical: sorted keys, no whitespace, plain integers.  Only
format version 2 is read (see `forcing.base.Transcript`).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from ..forcing.base import (TRANSCRIPT_VERSION, Transcript, canonical_json,
                            digest)


class TranscriptFormatError(ValueError):
    pass


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


_REQUIRED = ("kind", "instance_hash", "config", "stages", "extraction", "version")
_STAGE_KEYS = ("stage", "requirement", "branch", "condition", "certificates")


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
    if not isinstance(doc, dict):
        raise TranscriptFormatError("top level must be an object")
    missing = [k for k in _REQUIRED if k not in doc]
    if missing:
        raise TranscriptFormatError(f"missing fields: {', '.join(missing)}")
    if doc["version"] != TRANSCRIPT_VERSION:
        raise TranscriptFormatError(
            f"transcript format version {doc['version']!r} is not read here, "
            f"only version {TRANSCRIPT_VERSION}; tools/transcript_v1_to_v2.py "
            "converts a version 1 transcript")
    if not isinstance(doc["stages"], list):
        raise TranscriptFormatError("stages must be a list")
    for i, st in enumerate(doc["stages"]):
        if not isinstance(st, dict):
            raise TranscriptFormatError(f"stage {i} is not an object")
        for key in _STAGE_KEYS:
            if key not in st:
                raise TranscriptFormatError(f"stage {i} has no {key!r} field")
    return Transcript.from_dict(doc)
