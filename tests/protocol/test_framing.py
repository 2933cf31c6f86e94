"""Wire records: ``Reading`` is a frozen, slotted value that survives pickling."""

import copy
import pickle

import pytest

from repro.protocol.framing import Reading


def make_reading():
    return Reading(21, 7, 3600.25, {"conductivity_us": 6.5, "tilt_deg": 8.4})


def test_reading_has_no_instance_dict():
    assert not hasattr(make_reading(), "__dict__")


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_reading_round_trips_through_pickle(protocol):
    reading = make_reading()
    restored = pickle.loads(pickle.dumps(reading, protocol))
    assert restored == reading
    assert type(restored) is Reading


def test_reading_copies_and_stays_frozen():
    reading = make_reading()
    assert copy.copy(reading) == reading
    assert copy.deepcopy(reading) == reading
    with pytest.raises(AttributeError):
        reading.seq = 8
