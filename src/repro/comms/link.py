"""Common modem machinery: power, connection state, and drop-hazard transfers.

A modem is a power-switched load with a connect/transfer/disconnect
life-cycle.  The failure model is a piecewise-constant hazard sampled on a
``chunk_s`` grid, so a drop loses only the in-flight file, and transfer
time and energy automatically scale with the Table I rate and power
figures.

A chunk ``i`` (length ``step_i``, hazard ``h_i`` evaluated at the chunk's
end) survives with probability ``s_i = (1 - h_i)**step_i``.  Rather than
polling the hazard once per chunk, a single inverse-CDF draw picks the
drop chunk up front: one uniform ``u``, then a pure-math walk over the
chunk grid accumulating log-survival ``step * log1p(-hazard)`` until it
crosses ``log(u)``.  Exactly one timeout is scheduled, at
``min(drop_time, transfer_time)``, and the drop chunk follows
``P(drop at chunk i) = prod_{j<i} s_j - prod_{j<=i} s_j`` (the suite in
``tests/comms/test_exact_equivalence.py`` checks this law).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.energy.bus import PowerBus
from repro.energy.components import DeviceSpec
from repro.sim.kernel import Simulation


class LinkDown(Exception):
    """The link dropped (or never came up).  The in-flight transfer is lost."""


class Modem:
    """Base class for the GPRS and long-range radio modems.

    Parameters
    ----------
    sim, bus:
        Kernel and the station power bus; a load sized from ``spec`` is
        registered under ``name``.
    spec:
        Table I characteristics (rate and power).
    connect_s:
        Time from power-on to a usable session.
    chunk_s:
        Hazard-grid resolution: the hazard is evaluated at chunk
        boundaries without scheduling them.  Must be positive.
    """

    #: Subclasses whose :meth:`drop_hazard_per_s` ignores ``time`` set this
    #: True so the drop sampler can use the closed-form constant-hazard
    #: inversion instead of walking the chunk grid.
    hazard_constant = False

    def __init__(
        self,
        sim: Simulation,
        bus: PowerBus,
        name: str,
        spec: DeviceSpec,
        connect_s: float = 30.0,
        chunk_s: float = 30.0,
    ) -> None:
        if spec.transfer_rate_bps is None:
            raise ValueError(f"{spec.name} has no transfer rate; not a modem")
        if not chunk_s > 0.0:
            raise ValueError(
                f"{name}: chunk_s must be positive, got {chunk_s!r} "
                "(a non-positive chunk would stall or reverse the transfer loop)"
            )
        self.sim = sim
        self.bus = bus
        self.name = name
        self.spec = spec
        self.connect_s = connect_s
        self.chunk_s = chunk_s
        self.load = bus.add_load(name, spec.power_w)
        self.connected = False
        self.bytes_sent_total = 0
        self.connect_attempts = 0
        self.connect_failures = 0
        self.drops = 0
        self._drop_rng = sim.rng.stream(f"{name}.drops")
        metrics = sim.obs.metrics
        self._m_connect_ok = metrics.counter("modem_connects_total",
                                             modem=name, result="ok")
        self._m_connect_failed = metrics.counter("modem_connects_total",
                                                 modem=name, result="failed")
        self._m_drops = metrics.counter("modem_drops_total", modem=name)
        self._m_sent = metrics.counter("modem_sent_bytes_total", modem=name)
        self._m_exact_draws = metrics.counter("comms_exact_draws_total",
                                              modem=name)

    # ------------------------------------------------------------------
    # Failure model hooks (subclasses override)
    # ------------------------------------------------------------------
    def available(self, time: float) -> bool:
        """Whether the network/link can be established at all right now."""
        return True

    def drop_hazard_per_s(self, time: float) -> float:
        """Instantaneous probability-per-second of the session dropping."""
        return 0.0

    # ------------------------------------------------------------------
    # Session life-cycle
    # ------------------------------------------------------------------
    def connect(self):
        """Process: power up and establish a session.

        Raises :class:`LinkDown` if the link is unavailable; the modem is
        left powered (the caller decides whether to retry or power off).
        """
        self.connect_attempts += 1
        self.bus.loads.switch_on(self.name)
        yield self.sim.timeout(self.connect_s)
        if not self.available(self.sim.now):
            self.connect_failures += 1
            self._m_connect_failed.inc()
            self.sim.trace.emit(self.name, "connect_failed")
            raise LinkDown(f"{self.name}: network unavailable")
        self.connected = True
        self._m_connect_ok.inc()
        self.sim.trace.emit(self.name, "connected")

    def disconnect(self) -> None:
        """Tear down the session and power the modem off."""
        if self.connected:
            self.sim.trace.emit(self.name, "disconnected")
        self.connected = False
        self.bus.loads.switch_off(self.name)

    def transfer_time_s(self, nbytes: int) -> float:
        """Airtime to move ``nbytes`` at the link rate.

        ``transfer_rate_bps`` is validated non-None at construction, so
        this never divides by a missing rate.
        """
        return nbytes * 8.0 / self.spec.transfer_rate_bps

    # ------------------------------------------------------------------
    # Drop-time sampling
    # ------------------------------------------------------------------
    def _sample_drop_delay(self, total_s: float) -> Optional[float]:
        """One inverse-CDF draw of the drop instant, or None for survival.

        Chunk ``i`` (length ``step_i``, hazard evaluated at the chunk's
        *end* time) survives with probability ``s_i = (1 - h_i)**step_i``.
        Drawing a single uniform ``u`` and dropping at the end of the first
        chunk where the running survival product falls below ``u`` gives
        exactly that per-chunk law:
        ``P(drop at chunk i) = prod_{j<i} s_j - prod_{j<=i} s_j``.  The
        walk is pure float math in log space (``step * log1p(-h)``) — no
        kernel events, no extra RNG draws.

        For a constant hazard the log-survival is linear in elapsed time
        regardless of chunk boundaries, so subclasses with
        ``hazard_constant = True`` skip the walk: the crossing point is
        ``log(u) / log1p(-h)`` seconds, rounded up to the next chunk
        boundary (drops are *detected* at chunk boundaries).
        """
        self._m_exact_draws.inc()
        u = self._drop_rng.random()
        now = self.sim.now
        chunk = self.chunk_s
        if self.hazard_constant:
            hazard = self.drop_hazard_per_s(now)
            if hazard <= 0.0:
                return None
            if hazard >= 1.0 or u <= 0.0:
                return min(chunk, total_s)
            per_s = math.log1p(-hazard)  # log-survival per second, < 0
            crossing_s = math.log(u) / per_s
            if crossing_s >= total_s:
                return None
            boundary = chunk * (math.floor(crossing_s / chunk) + 1.0)
            return min(boundary, total_s)
        log_u = math.log(u) if u > 0.0 else -math.inf
        log_survival = 0.0
        elapsed = 0.0
        while elapsed < total_s:
            step = min(chunk, total_s - elapsed)
            elapsed += step
            hazard = self.drop_hazard_per_s(now + elapsed)
            if hazard <= 0.0:
                continue
            if hazard >= 1.0:
                return elapsed
            log_survival += step * math.log1p(-hazard)
            if log_survival < log_u:
                return elapsed
        return None

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def send(self, nbytes: int, label: str = ""):
        """Process: move ``nbytes`` over the connected session.

        A mid-transfer drop raises :class:`LinkDown` after the
        already-elapsed airtime (and energy) has been spent.  Progress
        within the payload is intentionally *not* reported — like the
        deployed system's scp, a dropped file must be resent in full.

        The whole transfer is one kernel timeout at ``min(drop_time,
        transfer_time)``.
        """
        if not self.connected:
            raise LinkDown(f"{self.name}: not connected")
        total_s = self.transfer_time_s(nbytes)
        drop_after = self._sample_drop_delay(total_s)
        if drop_after is not None:
            yield self.sim.timeout(drop_after)
            self._record_drop(label)
        if total_s > 0.0:
            yield self.sim.timeout(total_s)
        self.bytes_sent_total += nbytes
        self._m_sent.inc(nbytes)
        self.sim.trace.emit(self.name, "sent", nbytes=nbytes, label=label)

    def _record_drop(self, label: str):
        self.connected = False
        self.drops += 1
        self._m_drops.inc()
        self.sim.trace.emit(self.name, "link_drop", label=label)
        raise LinkDown(f"{self.name}: dropped during {label or 'transfer'}")
