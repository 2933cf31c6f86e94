"""Columnar sampling and probe-radio loss are bitwise equal to the scalar oracle.

:meth:`Sensor.sample_many` and :meth:`GlacierModel.probe_radio_loss` hoist
environment terms out of the per-instant loop: the melt-season factor is
looked up once per UTC day, the two noise blocks once per 3-hour block, the
tilt creep rate once per column.  The drawn instants therefore concentrate
where a hoisted term could go stale: either side of 3-hour noise-block
edges, within a microsecond of UTC midnight (where :func:`day_of_year`
rounds to whole microseconds), and at negative times.
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
    assert bits(glacier.melt_fraction(t) for t in times) == bits(
        scalar_oracle.melt_fraction(glacier, t) for t in times)


def assert_loss_matches_oracle(seed, times):
    glacier = GlacierModel(seed=seed)
    expected = bits(scalar_oracle.probe_radio_loss(glacier, t) for t in times)
    assert bits(glacier.probe_radio_loss(times)) == expected
    # A lone packet asks for a column of one.
    assert bits(glacier.probe_radio_loss([t])[0] for t in times) == expected


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


# Airtimes of a 12-byte and a 120-byte packet, and one short enough that
# several arrivals fall inside the 1 µs midnight guard.
PACKET_TIMES = [0.4e-6, (12 + 8) * 8 / 9600.0 + 0.05, (120 + 8) * 8 / 9600.0 + 0.05]


@settings_
@given(seed=st.integers(0, 5), day=DAYS,
       edge=st.sampled_from([0.0, 0.5 * NOISE_BLOCK_S, 3.5 * NOISE_BLOCK_S]),
       packet_s=st.sampled_from(PACKET_TIMES), before=st.integers(0, 40),
       count=st.integers(1, 120))
def test_probe_radio_burst_columns_match_the_oracle(seed, day, edge, packet_s,
                                                    before, count):
    # A burst's arrival instants, starting ``before`` packets ahead of a UTC
    # midnight or a 3-hour noise-block edge.
    start = day * DAY + edge - before * packet_s
    assert_loss_matches_oracle(seed, [start + k * packet_s for k in range(count)])


def test_probe_radio_loss_straddles_midnight_and_block_edge():
    packet_s = PACKET_TIMES[0]
    for day in (-3, 0, 214, 215):
        for edge in (0.0, 0.5 * NOISE_BLOCK_S):
            start = day * DAY + edge - 5 * packet_s
            assert_loss_matches_oracle(2, [start + k * packet_s for k in range(11)])
    assert_loss_matches_oracle(2, [214 * DAY + 0.4e-6])
