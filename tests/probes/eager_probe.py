"""One-event-per-sample reference probe for the deferred-sampling tests.

:class:`EagerProbe` samples the way a probe's firmware loop does: a
kernel timeout per sampling interval, the sensor suite read at the wake
and the reading stamped with the probe's believed time.  It is the
reference the deferred :class:`~repro.probes.probe.Probe` is checked
against, bitwise, in ``test_deferred_sampling.py``.
"""

from repro.probes.probe import Probe


class EagerProbe(Probe):
    """A :class:`Probe` whose samples are taken by a kernel process."""

    def __init__(self, sim, *args, **kwargs):
        super().__init__(sim, *args, **kwargs)
        sim.process(self._sampler(), name=f"probe.{self.probe_id}.sampler")

    def _materialise(self, up_to):
        """Nothing is pending: the sampler already took every due sample."""

    def _sampler(self):
        while True:
            yield self.sim.timeout(self._sampling_interval_s)
            if not self.is_alive:
                return
            channels = {sensor.name: sensor.sample(self.sim.now) for sensor in self.sensors}
            self._buffer.append((self.believed_time(), channels))
            self._readings_taken += 1
