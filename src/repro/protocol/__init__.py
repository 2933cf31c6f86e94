"""Probe data-transfer protocols.

Section V describes "a new technique, avoiding acknowledge packets": the
probe streams a whole task of readings without per-packet ACKs; the base
station records which sequence numbers arrived broken or not at all and
later requests the missed readings individually — "unless there were so
many that it would be as efficient to request them all again".  Tasks are
only marked complete in the probe once the base holds every reading, so a
session cut short by the communication window resumes on subsequent days.

- :mod:`repro.protocol.framing` — readings, packets, sizes, and the
  columnar form a completed task is staged in;
- :mod:`repro.protocol.bulk` — the paper's NACK-free protocol;
- :mod:`repro.protocol.stopwait` — the classic stop-and-wait ACK baseline
  it replaced (for the E14 ablation).
"""

from repro.protocol.bulk import BulkFetcher, FetchResult, FetchStrategy
from repro.protocol.framing import (
    ACK_BYTES,
    DATA_HEADER_BYTES,
    READING_BYTES,
    REQUEST_BYTES,
    Reading,
    ReadingColumns,
    TaskSnapshot,
)
from repro.protocol.stopwait import StopWaitFetcher, StopWaitResult

__all__ = [
    "ACK_BYTES",
    "BulkFetcher",
    "DATA_HEADER_BYTES",
    "FetchResult",
    "FetchStrategy",
    "READING_BYTES",
    "REQUEST_BYTES",
    "Reading",
    "ReadingColumns",
    "StopWaitFetcher",
    "StopWaitResult",
    "TaskSnapshot",
]
