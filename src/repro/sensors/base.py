"""Common sensor machinery: calibration, noise, quantisation."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.environment.weather import _smooth_noise_many


class Sensor:
    """A calibrated, noisy, quantised view of one environment signal.

    Parameters
    ----------
    name:
        Channel name recorded with every reading.
    signal:
        Ground-truth callable, ``signal(time) -> float``.  A sensor whose
        environment model has a columnar form overrides :meth:`signal_many`
        instead and passes none.
    noise_std:
        Standard-deviation-like amplitude of measurement noise (uniform
        noise of matching variance, deterministic in time and seed).
    resolution:
        ADC quantisation step; readings are rounded to multiples of this.
    gain, offset:
        Linear calibration applied to the true signal.
    clip:
        Optional ``(lo, hi)`` range of the transducer.
    """

    def __init__(
        self,
        name: str,
        signal: Optional[Callable[[float], float]] = None,
        noise_std: float = 0.0,
        resolution: float = 0.0,
        gain: float = 1.0,
        offset: float = 0.0,
        clip: Optional[tuple] = None,
        seed: int = 0,
    ) -> None:
        self.name = name
        self.signal = signal
        self.noise_std = noise_std
        self.resolution = resolution
        self.gain = gain
        self.offset = offset
        self.clip = clip
        self.seed = seed
        self._noise_stream = f"sensor:{name}"

    def signal_many(self, times: Sequence[float]) -> List[float]:
        """The ground-truth signal over a column of instants."""
        return list(map(self.signal, times))

    def sample_many(self, times: Sequence[float]) -> List[float]:
        """One measurement per instant in ``times`` (calibrated, noisy, quantised)."""
        gain = self.gain
        offset = self.offset
        truths = self.signal_many(times)
        noisy = self.noise_std > 0.0
        noise = _smooth_noise_many(self.seed, self._noise_stream, times) if noisy else truths
        # Uniform noise with std = noise_std: half-width = std * sqrt(3).
        half_width = self.noise_std * 1.7320508
        resolution = self.resolution
        quantised = resolution > 0.0
        clipped = self.clip is not None
        lo, hi = self.clip if clipped else (0.0, 0.0)
        # One pass, so a column of one costs little more than a scalar
        # evaluation would (``for x in [expr]`` compiles to an assignment).
        return [
            min(hi, max(lo, value)) if clipped else value
            for truth, u in zip(truths, noise)
            for raw in [gain * truth + offset + (2.0 * u - 1.0) * half_width if noisy
                        else gain * truth + offset]
            for value in [round(raw / resolution) * resolution if quantised else raw]
        ]

    def sample(self, time: float) -> float:
        """One measurement of the signal at ``time``."""
        return self.sample_many((time,))[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Sensor {self.name!r}>"
