import pytest

from densewire.errors import ConfigInvalid
from densewire.units import (
    parse_frequency,
    parse_length,
    parse_power,
    parse_resistance,
    parse_temperature,
)


@pytest.mark.parametrize("text,expected", [
    ("500um", 500e-6),
    ("500µm", 500e-6),
    ("18mm", 18e-3),
    ("0.2m", 0.2),
    ("250nm", 250e-9),
    ("2.5cm", 2.5e-2),
])
def test_lengths(text, expected):
    assert parse_length(text) == pytest.approx(expected, rel=1e-12)


def test_bare_numbers_are_si():
    assert parse_length(5e-4) == 5e-4
    assert parse_frequency(10e9) == 10e9


@pytest.mark.parametrize("fn,text,expected", [
    (parse_frequency, "10GHz", 10e9),
    (parse_frequency, "500MHz", 500e6),
    (parse_power, "1nW", 1e-9),
    (parse_power, "10uW", 10e-6),
    (parse_power, "1W", 1.0),
    (parse_temperature, "10mK", 0.01),
    (parse_temperature, "3K", 3.0),
    (parse_resistance, "50ohm", 50.0),
])
def test_other_dimensions(fn, text, expected):
    assert fn(text) == pytest.approx(expected, rel=1e-12)


def test_missing_suffix_rejected():
    with pytest.raises(ConfigInvalid):
        parse_length("500")


def test_wrong_dimension_rejected():
    with pytest.raises(ConfigInvalid) as err:
        parse_length("10GHz", field="layout.qubit_pitch")
    assert "layout.qubit_pitch" in str(err.value)


def test_garbage_rejected():
    with pytest.raises(ConfigInvalid):
        parse_length("tiny")
    with pytest.raises(ConfigInvalid):
        parse_length(None)
    with pytest.raises(ConfigInvalid):
        parse_length(True)
