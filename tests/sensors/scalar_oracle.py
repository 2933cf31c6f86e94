"""Scalar reference for the columnar probe-sampling path (test-only).

These are the one-instant-at-a-time bodies the probe sensors, the glacier
model and the weather noise had before they became columnar: every instant
looks its melt season up through :func:`day_of_year` and fetches its own
noise blocks.  :func:`sample` must agree bit for bit with
:meth:`Sensor.sample_many <repro.sensors.base.Sensor.sample_many>`.  The
oracle shares only the hashed block values with ``src``, never a body that
interpolates or hoists them.
"""

import math

from repro.environment.seasons import _melt_factor_for_doy
from repro.environment.weather import NOISE_BLOCK_S, _block_noise
from repro.sensors.probe_sensors import ConductivitySensor, PressureSensor, TiltSensor
from repro.sim.simtime import DAY, day_of_year, fraction_of_day


def _smooth_noise(seed, stream, time):
    position = time / NOISE_BLOCK_S - 0.5
    lower = math.floor(position)
    frac = position - lower
    a = _block_noise(seed, stream, lower)
    b = _block_noise(seed, stream, lower + 1)
    return a * (1.0 - frac) + b * frac


def melt_fraction(glacier, time):
    seasonal = _melt_factor_for_doy(day_of_year(time))
    if seasonal <= 0.0:
        return 0.0
    texture = 0.75 + 0.25 * _smooth_noise(glacier.seed, "melt", time)
    return min(1.0, seasonal * texture)


def conductivity_us(glacier, time, probe_id):
    cfg = glacier.config
    offset = 2.0 * _block_noise(glacier.seed, f"probe_gain:{probe_id}", 0) - 1.0
    gain = 1.0 + cfg.conductivity_probe_spread * offset
    melt = melt_fraction(glacier, time)
    noise = cfg.conductivity_noise_us * (
        2.0 * _smooth_noise(glacier.seed, f"cond:{probe_id}", time) - 1.0
    )
    value = cfg.conductivity_base_us + cfg.conductivity_melt_us * melt * gain
    return max(0.0, value + noise * (0.3 + 0.7 * melt))


def probe_radio_loss(glacier, time):
    cfg = glacier.config
    return cfg.radio_loss_winter + cfg.radio_loss_melt * melt_fraction(glacier, time)


def water_pressure_m(glacier, time):
    cfg = glacier.config
    melt = melt_fraction(glacier, time)
    diurnal = math.sin(2.0 * math.pi * (fraction_of_day(time) - 0.33))
    noise = 2.0 * _smooth_noise(glacier.seed, "pressure", time) - 1.0
    return (
        cfg.pressure_base_m
        + cfg.pressure_melt_m * melt
        + cfg.pressure_diurnal_m * melt * diurnal
        + 3.0 * noise
    )


def tilt_deg(sensor, time):
    day = max(0, int(time // DAY))
    rate = 0.01 + 0.02 * _smooth_noise(sensor.seed, f"tiltrate:{sensor.probe_id}", 0.0)
    tilt = 5.0 + rate * day
    return tilt + 0.4 * sensor._cumulative_jumps(day)


def truth(sensor, time):
    """The ground-truth signal a probe sensor measures at ``time``."""
    if isinstance(sensor, ConductivitySensor):
        return conductivity_us(sensor.glacier, time, sensor.probe_id)
    if isinstance(sensor, PressureSensor):
        return water_pressure_m(sensor.glacier, time)
    if isinstance(sensor, TiltSensor):
        return tilt_deg(sensor, time)
    raise TypeError(f"no oracle for {sensor!r}")


def sample(sensor, time):
    """One measurement of ``sensor`` at ``time``, computed the scalar way."""
    value = sensor.gain * truth(sensor, time) + sensor.offset
    if sensor.noise_std > 0.0:
        half_width = sensor.noise_std * 1.7320508
        noise = (2.0 * _smooth_noise(sensor.seed, sensor._noise_stream, time) - 1.0)
        value += noise * half_width
    if sensor.resolution > 0.0:
        value = round(value / sensor.resolution) * sensor.resolution
    if sensor.clip is not None:
        lo, hi = sensor.clip
        value = min(hi, max(lo, value))
    return value
