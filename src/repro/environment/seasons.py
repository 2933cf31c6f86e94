"""Calendar predicates for the Iceland deployment.

The paper anchors several behaviours to the calendar:

- the café hosting the reference station only has mains power during the
  tourist season (April to September);
- winter (December to March) is when the stations must survive on minimal
  power with no field visits;
- melt-water ("summer water") appears in spring, raises basal conductivity
  (Fig 6) and degrades the probe radio link.
"""

from __future__ import annotations

import functools
import math
from typing import List, Sequence

from repro.sim.simtime import DAY, day_of_year, to_datetime

#: First month of the café tourist season (inclusive).
TOURIST_SEASON_FIRST_MONTH = 4
#: Last month of the café tourist season (inclusive).
TOURIST_SEASON_LAST_MONTH = 9
#: Months the paper calls winter ("surviving a long winter (Dec-March)").
WINTER_MONTHS = frozenset({12, 1, 2, 3})

#: Day of year around which melt onset is centred (early April — Fig 6
#: shows the conductivity ramp well underway by 21 April).
MELT_ONSET_DOY = 95
#: Width (days) of the spring melt ramp.
MELT_RAMP_DAYS = 25.0
#: Day of year at which freeze-up is centred (early October).
FREEZE_ONSET_DOY = 280


@functools.lru_cache(maxsize=4096)
def _month_of_day_index(day_index: int) -> int:
    return to_datetime(day_index * DAY).month


def _month(time: float) -> int:
    # The default epoch is a UTC midnight, so the calendar month is constant
    # across each whole simulated day — cache it per day index.
    return _month_of_day_index(int(time // DAY))


def is_tourist_season(time: float) -> bool:
    """True during April-September, when the café is staffed and powered."""
    return TOURIST_SEASON_FIRST_MONTH <= _month(time) <= TOURIST_SEASON_LAST_MONTH


def cafe_has_power(time: float) -> bool:
    """Mains availability at the reference station's café."""
    return is_tourist_season(time)


def is_winter(time: float) -> bool:
    """True during the December-March survival period."""
    return _month(time) in WINTER_MONTHS


@functools.lru_cache(maxsize=400)
def _melt_factor_for_doy(doy: int) -> float:
    onset = 1.0 / (1.0 + math.exp(-(doy - MELT_ONSET_DOY) / (MELT_RAMP_DAYS / 4.0)))
    freeze = 1.0 / (1.0 + math.exp(-(doy - FREEZE_ONSET_DOY) / (MELT_RAMP_DAYS / 4.0)))
    return max(0.0, onset - freeze)


@functools.lru_cache(maxsize=4096)
def _melt_factor_of_day_index(day_index: float) -> float:
    # Every instant of the UTC day away from its midnights has the same day
    # of year as its midday (the default epoch is a UTC midnight).
    return _melt_factor_for_doy(day_of_year((day_index + 0.5) * DAY))


def melt_season_factor(time: float) -> float:
    """Smooth 0-1 indicator of surface melt ("summer water").

    Zero through winter, rising over a few weeks around mid-April (the
    Fig 6 conductivity ramp), full through summer, and falling back to zero
    around early-October freeze-up.  Daily resolution (cached per
    day-of-year).
    """
    return _melt_factor_for_doy(day_of_year(time))


#: Distance from a UTC midnight inside which :func:`day_of_year`'s
#: whole-microsecond rounding may move an instant into the neighbouring day.
_MIDNIGHT_GUARD_S = 1e-6


def melt_season_factor_many(times: Sequence[float]) -> List[float]:
    """:func:`melt_season_factor` over a column of instants, bitwise equal.

    The factor is constant across each UTC day (the default epoch is a UTC
    midnight), so it is looked up once per run of same-day instants.  An
    instant within 1 µs of a midnight takes the exact per-instant path.
    """
    factors = []
    day = None
    factor = 0.0
    for time in times:
        index = time // DAY
        within = time - index * DAY
        if within < _MIDNIGHT_GUARD_S or DAY - within < _MIDNIGHT_GUARD_S:
            factors.append(_melt_factor_for_doy(day_of_year(time)))
            continue
        if index != day:
            day = index
            factor = _melt_factor_of_day_index(index)
        factors.append(factor)
    return factors
