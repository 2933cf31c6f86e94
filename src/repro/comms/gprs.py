"""The GPRS modem: the final architecture's independent uplink.

Each station gets its own GPRS modem (Section II): 5000 bps, 2640 mW, data
"paid for per megabyte".  Failures are dominated by day-scale coverage
outages (weather, cell congestion) — "communications fail ... frequently,
especially in the wetter summer environment" — plus a small mid-session
drop hazard.
"""

from __future__ import annotations

from repro.energy.bus import PowerBus
from repro.energy.components import GPRS_MODEM
from repro.environment.weather import _block_noise
from repro.comms.link import Modem
from repro.sim.kernel import Simulation
from repro.sim.simtime import DAY


class GprsModem(Modem):
    """GPRS modem with daily availability outages and per-MB billing.

    Parameters
    ----------
    outage_probability:
        Fraction of days on which the network is unreachable all day.
    summer_outage_probability:
        Outage fraction during the melt season (wetter — worse, per the
        paper's experience).
    cost_per_mb:
        Billing rate; accumulated in :attr:`cost_total`.
    melt_fraction_fn:
        Optional seasonal signal (``glacier.melt_fraction``) used to blend
        the two outage rates.
    """

    #: The mid-session drop hazard is time-independent (outages gate
    #: *connecting*, not in-flight sessions), so the drop sampler inverts
    #: the drop CDF in closed form instead of walking the chunk grid.
    hazard_constant = True

    def __init__(
        self,
        sim: Simulation,
        bus: PowerBus,
        name: str = "gprs",
        outage_probability: float = 0.08,
        summer_outage_probability: float = 0.18,
        drop_hazard: float = 2.0e-5,
        cost_per_mb: float = 5.0,
        melt_fraction_fn=None,
        seed: int = 0,
    ) -> None:
        super().__init__(sim, bus, name, GPRS_MODEM, connect_s=45.0)
        self.outage_probability = outage_probability
        self.summer_outage_probability = summer_outage_probability
        self._drop_hazard = drop_hazard
        self.cost_per_mb = cost_per_mb
        self.cost_total = 0.0
        self.melt_fraction_fn = melt_fraction_fn
        self.seed = seed
        station = name.split(".")[0]
        metrics = sim.obs.metrics
        self._m_upload_bytes = metrics.counter("gprs_upload_bytes_total",
                                               station=station)
        self._m_cost = metrics.counter("gprs_cost_total", station=station)

    def _outage_probability(self, time: float) -> float:
        if self.melt_fraction_fn is None:
            return self.outage_probability
        melt = self.melt_fraction_fn(time)
        return self.outage_probability + melt * (
            self.summer_outage_probability - self.outage_probability
        )

    def available(self, time: float) -> bool:
        day = int(time // DAY)
        return _block_noise(self.seed, f"{self.name}:outage", day) >= self._outage_probability(
            time
        )

    def drop_hazard_per_s(self, time: float) -> float:
        return self._drop_hazard

    def send(self, nbytes: int, label: str = ""):
        """Send with per-MB billing on delivered bytes."""
        yield from super().send(nbytes, label=label)
        self.cost_total += nbytes / 1_000_000.0 * self.cost_per_mb
        self._m_upload_bytes.inc(nbytes)
        self._m_cost.inc(nbytes / 1_000_000.0 * self.cost_per_mb)
