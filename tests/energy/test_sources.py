"""Interval energy of the weather-driven sources against ``power_w``.

``SolarPanel.energy_j`` and ``WindTurbine.energy_j`` answer from per-day
cumulative tables (analytic insolation for the panel, a 900 s trapezoid
of the day's wind samples for the turbine).  Here each whole-day answer
is checked against a fine quadrature of the instantaneous ``power_w``,
and interval energies must add up across a UTC midnight, where the
tables of two days meet.
"""

import pytest

from repro.energy.sources import SolarPanel, WindTurbine
from repro.environment.weather import IcelandWeather, WeatherConfig
from repro.sim.simtime import DAY

SEED = 3
#: Day indices from the 1 September epoch (seed 3 weather).
SUMMER_DAY = 330        # late July: no snow, long daylight
PART_BURIED_DAY = 60    # 0.35 m of snow: the panel keeps 30%
BURIED_DAY = 200        # 2.7 m of snow: panel buried, turbine iced
DARK_DAY = 110          # the winter solstice, sampled with snowfall off

#: 10 s trapezoid steps over one day.
QUADRATURE_STEPS = 8640


def quadrature(source, t0: float, t1: float) -> float:
    """Trapezoid rule of ``power_w`` on a fine grid over ``[t0, t1)``.

    The last node sits just inside the interval: ``power_w`` at a UTC
    midnight already belongs to the next day's snow depth.
    """
    h = (t1 - t0) / QUADRATURE_STEPS
    inner = sum(source.power_w(t0 + k * h) for k in range(1, QUADRATURE_STEPS))
    ends = 0.5 * (source.power_w(t0) + source.power_w(t1 - 1e-6))
    return h * (inner + ends)


def snowy_weather() -> IcelandWeather:
    return IcelandWeather(seed=SEED)


def snowless_weather() -> IcelandWeather:
    return IcelandWeather(WeatherConfig(snowfall_m_per_day=0.0), seed=SEED)


DAYS = [
    pytest.param(snowy_weather, SUMMER_DAY, id="summer"),
    pytest.param(snowy_weather, PART_BURIED_DAY, id="part-buried"),
    pytest.param(snowy_weather, BURIED_DAY, id="buried"),
    pytest.param(snowless_weather, DARK_DAY, id="dark-winter"),
]


@pytest.mark.parametrize("weather,day", DAYS)
def test_solar_day_energy_matches_quadrature(weather, day):
    panel = SolarPanel(weather(), rated_w=10.0)
    table = panel.energy_j(day * DAY, (day + 1) * DAY)
    # The table integrates the diurnal arc in closed form, so only the
    # reference quadrature's own error separates the two.
    assert table == pytest.approx(quadrature(panel, day * DAY, (day + 1) * DAY),
                                  rel=1e-5, abs=1e-6)


@pytest.mark.parametrize("weather,day", DAYS)
def test_wind_day_energy_matches_quadrature(weather, day):
    turbine = WindTurbine(weather(), rated_w=50.0)
    table = turbine.energy_j(day * DAY, (day + 1) * DAY)
    # A 900 s trapezoid of a cubic power curve with 3-hour storm steps:
    # within 2% on these days, 5.2% on the worst day of the seed-3 year.
    assert table == pytest.approx(quadrature(turbine, day * DAY, (day + 1) * DAY),
                                  rel=0.03, abs=1e-6)


def test_buried_day_delivers_nothing():
    weather = snowy_weather()
    assert weather.snow_depth(BURIED_DAY * DAY) > 1.2
    for source in (SolarPanel(weather), WindTurbine(weather)):
        assert source.energy_j(BURIED_DAY * DAY, (BURIED_DAY + 1) * DAY) == 0.0


def test_summer_day_outshines_dark_day():
    summer = SolarPanel(snowy_weather()).energy_j(SUMMER_DAY * DAY,
                                                  (SUMMER_DAY + 1) * DAY)
    dark = SolarPanel(snowless_weather()).energy_j(DARK_DAY * DAY,
                                                   (DARK_DAY + 1) * DAY)
    assert 0.0 < dark < summer / 50.0


@pytest.mark.parametrize("source_cls", [SolarPanel, WindTurbine])
@pytest.mark.parametrize("day", [SUMMER_DAY, PART_BURIED_DAY, DARK_DAY])
@pytest.mark.parametrize("split_s", [0.0, 5400.0, -3700.0],
                         ids=["at-midnight", "after-midnight", "before-midnight"])
def test_energy_adds_up_across_midnight(source_cls, day, split_s):
    source = source_cls(snowless_weather() if day == DARK_DAY else snowy_weather())
    midnight = (day + 1) * DAY
    a, b, c = midnight - 10.0 * 3600.0, midnight + split_s, midnight + 14.0 * 3600.0
    whole = source.energy_j(a, c)
    assert whole > 0.0
    assert whole == pytest.approx(source.energy_j(a, b) + source.energy_j(b, c),
                                  rel=1e-12, abs=1e-9)
