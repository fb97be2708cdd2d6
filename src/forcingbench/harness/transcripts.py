"""The transcript writer, reader and hash, which live in
`forcingbench.transcript`, under their harness names."""

from ..transcript import (  # noqa: F401
    TranscriptFormatError, canonical_json, emit_transcript, load_transcript,
    transcript_hash)
