"""The subglacial probe radio: a lossy, seasonal packet link.

The probes sit under ~70 m of ice; radio through wet summer ice is far
worse than through dry winter ice ("radio communication with the probes is
better in the winter due to the drier ice conditions", Section III).  The
link is packet-based and the loss probability tracks the melt season —
at the paper's summer anchor, roughly 400 of 3000 reading packets are lost
(Section V).

Packets can fail two ways, and Section V names both — the receiver
"records missing **or broken** data packets": a *lost* packet never
arrives; a *broken* one arrives but fails its CRC and is discarded.  The
protocol treats both as missing; the link's statistics keep them apart.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Sequence

from repro.sim.kernel import Simulation


#: ``loss_fn(times) -> probabilities``: one loss probability per instant.
LossFn = Callable[[Sequence[float]], List[float]]


class PacketOutcome(enum.Enum):
    """What happened to one transmitted packet."""

    DELIVERED = "delivered"
    LOST = "lost"  # never arrived (absorbed by wet ice)
    BROKEN = "broken"  # arrived but failed its CRC; discarded

    @property
    def ok(self) -> bool:
        """True only for a clean delivery."""
        return self is PacketOutcome.DELIVERED


class ProbeRadioLink:
    """Half-duplex packet link between the base station and one probe.

    Parameters
    ----------
    sim:
        Kernel.
    loss_fn:
        ``loss_fn(times) -> probabilities``, one per arrival instant
        (typically ``glacier.probe_radio_loss``).  A pure function of time:
        a burst asks for its whole column before rolling any packet, and a
        lone packet asks for a column of one.
    name:
        Link name; the loss RNG stream is ``f"{name}.loss"``.
    corruption_probability:
        Probability that an arriving packet fails its CRC.
    """

    #: Link rate (low-power sub-GHz radio), bits per second.
    RATE_BPS = 9600.0
    #: Per-packet framing overhead, bytes.
    OVERHEAD_BYTES = 8
    #: Half-duplex turnaround between packets, seconds.
    TURNAROUND_S = 0.05

    def __init__(
        self,
        sim: Simulation,
        loss_fn: LossFn,
        name: str = "probe_radio",
        corruption_probability: float = 0.0,
    ) -> None:
        self.sim = sim
        self.loss_fn = loss_fn
        self.name = name
        self.corruption_probability = corruption_probability
        self._rng = sim.rng.stream(f"{name}.loss")
        self.packets_sent = 0
        self.packets_lost = 0
        self.packets_broken = 0
        metrics = sim.obs.metrics
        self._m_lost = metrics.counter("probe_frames_total", result="lost")
        self._m_crc = metrics.counter("probe_frames_total", result="crc_fail")
        self._m_ok = metrics.counter("probe_frames_total", result="delivered")

    def packet_time_s(self, payload_bytes: int) -> float:
        """Airtime for one packet including framing and turnaround."""
        return (payload_bytes + self.OVERHEAD_BYTES) * 8.0 / self.RATE_BPS + self.TURNAROUND_S

    def current_loss(self) -> float:
        """The loss probability right now."""
        return self.loss_fn((self.sim.now,))[0]

    def transmit(self, payload_bytes: int):
        """Process: send one packet; returns True iff cleanly delivered.

        Kept boolean for protocol code (lost and broken packets are
        handled identically there); :meth:`transmit_detailed` exposes the
        full :class:`PacketOutcome`.
        """
        outcome = yield from self.transmit_detailed(payload_bytes)
        return outcome.ok

    def transmit_detailed(self, payload_bytes: int):
        """Process: send one packet; returns a :class:`PacketOutcome`."""
        yield self.sim.timeout(self.packet_time_s(payload_bytes))
        return self._draw_outcome(self.loss_fn((self.sim.now,))[0])

    def _draw_outcome(self, loss: float) -> PacketOutcome:
        """Roll one packet's fate against its loss probability ``loss``.

        Shared by :meth:`transmit_detailed` and the burst path, so both
        draw the *same* RNG rolls in the same order.
        """
        self.packets_sent += 1
        if self._rng.random() < loss:
            self.packets_lost += 1
            self._m_lost.inc()
            return PacketOutcome.LOST
        if self._rng.random() < self.corruption_probability:
            self.packets_broken += 1
            self._m_crc.inc()
            return PacketOutcome.BROKEN
        self._m_ok.inc()
        return PacketOutcome.DELIVERED

    def transmit_sequence(self, payload_bytes: int, count: int,
                          deadline: Optional[float] = None):
        """Process: send ``count`` equal-size packets back to back.

        Returns the list of :class:`PacketOutcome` for the packets
        actually attempted.  A packet is attempted only if its *start*
        instant is before ``deadline`` (the same per-packet check a
        caller looping over :meth:`transmit` would make), so a short list
        means the deadline cut the burst.

        The whole burst costs one kernel timeout and one ``loss_fn``
        column: packet ``i`` arrives at ``start + (i+1) * packet_time``,
        and its fate is rolled against the loss at that instant with the
        identical RNG draws a loop over :meth:`transmit_detailed` would
        make, so outcomes and link statistics are bitwise equal to that
        loop — only the event count differs (the protocol layer's
        3000-reading stream collapses from 3000 events to
        ``ceil(3000/burst)``).  The burst's completion instant can differ
        from the per-packet loop by float-rounding ulps (one summed
        timeout vs repeated additions).
        """
        packet_s = self.packet_time_s(payload_bytes)
        start = self.sim.now
        at_time = start
        arrivals = []
        for _ in range(count):
            if deadline is not None and at_time >= deadline:
                break
            # Accumulate exactly as the kernel clock would: each packet's
            # timeout lands at previous-now + packet_s.
            at_time = at_time + packet_s
            arrivals.append(at_time)
        outcomes = [self._draw_outcome(loss) for loss in self.loss_fn(arrivals)]
        if at_time > start:
            yield self.sim.timeout(at_time - start)
        return outcomes

    @property
    def observed_loss_rate(self) -> float:
        """Measured missing fraction (lost + broken) over the link's lifetime."""
        if self.packets_sent == 0:
            return 0.0
        return (self.packets_lost + self.packets_broken) / self.packets_sent
