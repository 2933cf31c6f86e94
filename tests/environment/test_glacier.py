"""Tests for glacier signals: melt, conductivity (Fig 6), motion, radio loss."""

import datetime as dt

import pytest

from repro.environment.glacier import GlacierConfig, GlacierModel
from repro.environment.seasons import (
    cafe_has_power,
    is_tourist_season,
    is_winter,
    melt_season_factor,
)
from repro.sim.simtime import DAY, from_datetime


def at(month, day, hour=12, year=2009):
    return from_datetime(dt.datetime(year, month, day, hour, tzinfo=dt.timezone.utc))


@pytest.fixture
def glacier():
    return GlacierModel(seed=7)


class TestSeasons:
    def test_tourist_season_bounds(self):
        assert not is_tourist_season(at(3, 31))
        assert is_tourist_season(at(4, 1))
        assert is_tourist_season(at(9, 30))
        assert not is_tourist_season(at(10, 1))

    def test_cafe_power_follows_tourist_season(self):
        assert cafe_has_power(at(6, 15))
        assert not cafe_has_power(at(12, 15))

    def test_winter_months(self):
        for month in (12, 1, 2, 3):
            assert is_winter(at(month, 15))
        for month in (4, 7, 10):
            assert not is_winter(at(month, 15))

    def test_melt_factor_zero_in_deep_winter(self):
        assert melt_season_factor(at(1, 15)) < 0.01

    def test_melt_factor_full_in_summer(self):
        assert melt_season_factor(at(7, 1)) > 0.95

    def test_melt_factor_ramps_through_april(self):
        march = melt_season_factor(at(3, 20))
        late_april = melt_season_factor(at(4, 25))
        assert march < 0.25 < late_april

    def test_melt_factor_falls_after_freeze_up(self):
        assert melt_season_factor(at(11, 1)) < 0.1


class TestConductivity:
    """The Fig 6 signal: flat winter baseline, steep end-of-winter rise."""

    def test_winter_baseline_low(self, glacier):
        values = [glacier.conductivity_us(at(2, d), probe_id=21) for d in range(1, 28)]
        assert max(values) < 3.0

    def test_rises_by_late_april(self, glacier):
        feb = glacier.conductivity_us(at(2, 10), probe_id=21)
        late_april = glacier.conductivity_us(at(4, 25), probe_id=21)
        assert late_april > feb + 4.0

    def test_summer_reaches_fig6_scale(self, glacier):
        # Fig 6 peaks around 6-15 uS depending on probe.
        values = [glacier.conductivity_us(at(6, d), probe_id=p) for d in range(1, 28) for p in (21, 24, 25)]
        assert 5.0 < max(values) < 20.0

    def test_probes_differ_but_share_trend(self, glacier):
        gains = {p: glacier.conductivity_us(at(6, 15), probe_id=p) for p in (21, 24, 25)}
        assert len({round(v, 3) for v in gains.values()}) == 3
        for p in (21, 24, 25):
            assert glacier.conductivity_us(at(6, 15), probe_id=p) > glacier.conductivity_us(
                at(2, 15), probe_id=p
            )

    def test_never_negative(self, glacier):
        assert all(
            glacier.conductivity_us(day * DAY, probe_id=24) >= 0.0 for day in range(0, 365, 5)
        )


class TestMotion:
    def test_position_monotone(self, glacier):
        positions = [glacier.surface_position_m(day * DAY) for day in range(0, 365, 7)]
        assert all(b >= a for a, b in zip(positions, positions[1:]))

    def test_annual_displacement_plausible(self, glacier):
        # ~0.08-0.18 m/day -> tens of metres per year.
        annual = glacier.surface_position_m(365 * DAY)
        assert 20.0 < annual < 80.0

    def test_summer_faster_than_winter(self, glacier):
        winter_v = glacier.velocity_m_per_day(at(1, 15))
        summer_v = glacier.velocity_m_per_day(at(7, 15))
        assert summer_v > winter_v

    def test_slip_events_exist_in_summer_only(self, glacier):
        def days_in(month_start, month_end):
            start = int(at(month_start, 1) // DAY)
            end = int(at(month_end, 28) // DAY)
            return range(start, end)

        winter_slips = sum(glacier.slip_occurred(d) for d in days_in(1, 2))
        summer_slips = sum(glacier.slip_occurred(d) for d in days_in(6, 8))
        assert winter_slips == 0
        assert summer_slips > 0

    def test_position_continuous_within_day(self, glacier):
        t = at(7, 10)
        step = glacier.surface_position_m(t + 3600) - glacier.surface_position_m(t)
        assert 0 <= step < 0.05


class TestRadioLoss:
    def test_winter_loss_is_floor(self, glacier):
        assert glacier.probe_radio_loss([at(1, 15)]) == pytest.approx(
            [glacier.config.radio_loss_winter], abs=0.005
        )

    def test_summer_loss_near_paper_anchor(self, glacier):
        """Section V: ~400 of 3000 readings missed in summer -> ~13% loss."""
        losses = glacier.probe_radio_loss([at(7, d) for d in range(1, 28)])
        mean = sum(losses) / len(losses)
        assert 0.10 < mean < 0.15

    def test_loss_is_probability(self, glacier):
        losses = glacier.probe_radio_loss([day * DAY for day in range(0, 720, 10)])
        assert all(0.0 <= loss <= 1.0 for loss in losses)


class TestWaterPressure:
    def test_summer_pressure_higher(self, glacier):
        winter = glacier.water_pressure_m(at(1, 15))
        summer = glacier.water_pressure_m(at(7, 15))
        assert summer > winter + 15.0

    def test_summer_has_diurnal_swing(self, glacier):
        day_values = [glacier.water_pressure_m(at(7, 15, hour=h)) for h in range(24)]
        assert max(day_values) - min(day_values) > 5.0
