"""Wire framing for probe communications: readings, packet sizes, tasks."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

#: Encoded size of one sensor reading on the wire (id, seq, time, channels).
READING_BYTES = 24
#: Extra header on a DATA packet beyond the reading payload.
DATA_HEADER_BYTES = 6
#: Size of a selective-repeat REQUEST packet.
REQUEST_BYTES = 8
#: Size of an ACK / control packet (task query, summary, complete).
ACK_BYTES = 8


@dataclass(frozen=True, slots=True)
class Reading:
    """One buffered probe measurement.

    Attributes
    ----------
    probe_id:
        Originating probe.
    seq:
        Sequence number within the probe's task (dense, from 0).
    time:
        Probe-RTC timestamp of the measurement (simulated seconds).
    channels:
        Sensor channel name -> value.
    """

    probe_id: int
    seq: int
    time: float
    channels: Dict[str, float] = field(default_factory=dict)

    @property
    def wire_bytes(self) -> int:
        """Bytes this reading occupies in a DATA packet."""
        return READING_BYTES


@dataclass(frozen=True, slots=True)
class ReadingColumns:
    """A staged probe file's readings as columns.

    Row ``i`` of every column is one reading, in the order the base station
    received them.  One ``array`` per field replaces one
    ``{"seq", "time", "channels"}`` dict per reading, so a reading waiting
    out a backlog costs 8 bytes per field instead of a few hundred.

    Attributes
    ----------
    seqs:
        Sequence number of each reading within its task.
    times:
        Probe-RTC timestamp of each reading.
    channels:
        Sensor channel name -> that channel's value for each reading.
    """

    seqs: array
    times: array
    channels: Dict[str, array]

    @classmethod
    def of(cls, readings: Iterable[Reading]) -> "ReadingColumns":
        """Columns of ``readings`` (which all carry the same channels)."""
        readings = list(readings)
        names = list(readings[0].channels) if readings else []
        return cls(
            array("q", [reading.seq for reading in readings]),
            array("d", [reading.time for reading in readings]),
            {name: array("d", [reading.channels[name] for reading in readings])
             for name in names},
        )

    def __len__(self) -> int:
        return len(self.seqs)


@dataclass
class TaskSnapshot:
    """The probe's view of one outstanding data-collection task.

    A task is the unit of completion: the probe keeps its readings until the
    base station confirms it holds all of them ("the task was not marked as
    complete in the probes", Section V).
    """

    task_id: int
    readings: List[Reading]

    @property
    def total(self) -> int:
        """Number of readings in the task."""
        return len(self.readings)

    def by_seq(self, seq: int) -> Reading:
        """Look up one reading by its sequence number."""
        reading = self.readings[seq]
        if reading.seq != seq:  # defensive: readings must be seq-ordered
            raise ValueError(f"task {self.task_id}: readings not dense at {seq}")
        return reading
