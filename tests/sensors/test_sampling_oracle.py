"""Columnar sampling is bitwise equal to the scalar oracle.

:meth:`Sensor.sample_many` hoists environment terms out of the per-instant
loop: the melt-season factor is looked up once per UTC day, the two noise
blocks once per 3-hour block, the tilt creep rate once per column.  The
scalar :meth:`GlacierModel.melt_fraction` keeps the last day's season
factor between calls.  The
drawn instants therefore concentrate where a hoisted term could go stale:
either side of 3-hour noise-block edges, within a microsecond of UTC
midnight (where :func:`day_of_year` rounds to whole microseconds), and at
negative times.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.environment.glacier import GlacierModel
from repro.environment.weather import NOISE_BLOCK_S
from repro.sensors.probe_sensors import make_probe_sensor_suite
from repro.sim.simtime import DAY
from tests.sensors import scalar_oracle

# Day indices from before the epoch to past the first full melt season.
DAYS = st.integers(min_value=-40, max_value=420)
# Offsets into a day: both sides of UTC midnight at 0.4 and 0.6 µs, and
# both sides of the 3-hour noise-block edges.  Noise interpolates between
# block midpoints, so the block pair changes at (k + 0.5) * NOISE_BLOCK_S.
EDGE_OFFSETS = [0.0, 0.4e-6, 0.6e-6, DAY - 0.6e-6, DAY - 0.4e-6]
for _edge in (0.5 * NOISE_BLOCK_S, NOISE_BLOCK_S, 3.5 * NOISE_BLOCK_S,
              7.5 * NOISE_BLOCK_S):
    EDGE_OFFSETS += [_edge - 1e-6, _edge, _edge + 1e-6]

# Several instants of one day, so a per-day or per-block value computed for
# one of them is reused (and must still be right) for the others.
same_day = st.builds(
    lambda day, offsets: [day * DAY + offset for offset in sorted(offsets)],
    DAYS, st.lists(st.sampled_from(EDGE_OFFSETS), min_size=1, max_size=6))
anywhere = st.floats(min_value=-40 * DAY, max_value=420 * DAY,
                     allow_nan=False, allow_infinity=False)
instant = st.one_of(same_day.map(lambda times: times[0]), anywhere)
columns = st.lists(st.one_of(same_day, anywhere.map(lambda t: [t])),
                   min_size=1, max_size=12).map(
                       lambda groups: [t for group in groups for t in group])

settings_ = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def bits(values):
    return [float(value).hex() for value in values]


def assert_matches_oracle(seed, probe_id, times):
    glacier = GlacierModel(seed=seed)
    for sensor in make_probe_sensor_suite(glacier, probe_id, seed=seed):
        expected = [scalar_oracle.sample(sensor, t) for t in times]
        assert bits(sensor.sample_many(times)) == bits(expected), sensor.name
        assert bits(sensor.sample(t) for t in times) == bits(expected), sensor.name
    # The scalar path keeps the last day's season factor between calls.
    assert bits(glacier.melt_fraction(t) for t in times) == bits(
        scalar_oracle.melt_fraction(glacier, t) for t in times)


@settings_
@given(seed=st.integers(0, 5), probe_id=st.sampled_from([20, 21, 24, 25]),
       times=columns)
def test_sample_many_is_bitwise_equal_to_the_scalar_oracle(seed, probe_id, times):
    assert_matches_oracle(seed, probe_id, times)
    assert_matches_oracle(seed, probe_id, sorted(times))


@settings_
@given(seed=st.integers(0, 5), start=instant,
       interval=st.sampled_from([0.3e-6, 1.0, 120.0, 1800.0, 5400.0, 10800.0]),
       count=st.integers(1, 200))
def test_fixed_cadence_columns_match_the_oracle(seed, start, interval, count):
    # The materialiser's columns: instants accumulated by repeated addition.
    times = []
    t = start
    for _ in range(count):
        times.append(t)
        t += interval
    assert_matches_oracle(seed, 21, times)


def test_midnight_guard_instants():
    glacier = GlacierModel(seed=2)
    times = [k * DAY + offset for k in (-3, 0, 1, 214, 215, 300)
             for offset in (-0.6e-6, -0.4e-6, 0.0, 0.4e-6, 0.6e-6)]
    assert bits(glacier.melt_fraction_many(times)) == bits(
        scalar_oracle.melt_fraction(glacier, t) for t in times)
    assert bits(glacier.water_pressure_many(times)) == bits(
        scalar_oracle.water_pressure_m(glacier, t) for t in times)
    assert_matches_oracle(2, 24, times)
