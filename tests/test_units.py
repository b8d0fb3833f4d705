import dataclasses

import pytest

from densewire import layout, materials
from densewire.config import RfSettings
from densewire.errors import ConfigInvalid
from densewire.units import (
    parse_frequency,
    parse_length,
    parse_power,
    parse_resistance,
    parse_temperature,
    replace,
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


# Stdlib twins of two `frozen` value types, named as they are, so that
# `frozen` can be compared with `dataclass(frozen=True)` as its oracle.
@dataclasses.dataclass(frozen=True)
class LayoutConfig:
    qubit_pitch: float
    array_side_count: int
    pad_diameter: float
    hole_diameter: float
    channel_width: float
    channel_depth: float
    pin_length: float
    pad_thickness: float
    tip_tolerance: float
    ground_curb_width: float
    solder_ball_diameter: float = 50e-6


@dataclasses.dataclass(frozen=True)
class MaterialCatalog:
    entries: dict = dataclasses.field(default_factory=dict)
    aliases: dict = dataclasses.field(default_factory=dict)


_LAYOUT_ARGS = (500e-6, 3, 200e-6, 300e-6, 300e-6, 1e-3, 20e-3, 10e-6, 2e-6, 60e-6)
_NB = materials.Material("Nb", "conductor", superconducting_Tc=9.2)

# (package type, its twin, constructor arguments of two instances)
_PAIRS = {
    "layout-equal": (layout.LayoutConfig, LayoutConfig, (_LAYOUT_ARGS, {}), (_LAYOUT_ARGS, {})),
    "layout-default-given": (layout.LayoutConfig, LayoutConfig, (_LAYOUT_ARGS, {}),
                             (_LAYOUT_ARGS + (50e-6,), {})),
    "layout-unequal": (layout.LayoutConfig, LayoutConfig, (_LAYOUT_ARGS, {}),
                       (_LAYOUT_ARGS, {"solder_ball_diameter": 40e-6})),
    "catalog-equal": (materials.MaterialCatalog, MaterialCatalog, ((), {}), ((), {})),
    "catalog-unequal": (materials.MaterialCatalog, MaterialCatalog, ((), {}),
                        (({"Nb": _NB},), {"aliases": {"niobium": "Nb"}})),
}


def _outcome(call):
    """What `call()` returns, or the AttributeError or TypeError it raises
    as that class and its message (the stdlib raises FrozenInstanceError,
    an AttributeError)."""
    try:
        return call()
    except AttributeError as exc:
        return AttributeError, str(exc)
    except TypeError as exc:
        return TypeError, str(exc)


class TestFrozenAgainstDataclass:
    @pytest.mark.parametrize("case", list(_PAIRS))
    def test_repr_eq_hash_and_frozen_errors_match_the_stdlib(self, case):
        ours, twin, (args_a, kw_a), (args_b, kw_b) = _PAIRS[case]
        a, b = ours(*args_a, **kw_a), ours(*args_b, **kw_b)
        ta, tb = twin(*args_a, **kw_a), twin(*args_b, **kw_b)
        assert ours.__match_args__ == twin.__match_args__
        assert (repr(a), repr(b)) == (repr(ta), repr(tb))
        assert (a == b, a != b, a == a) == (ta == tb, ta != tb, ta == ta)
        assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(ta))
        assert _outcome(lambda: hash(b)) == _outcome(lambda: hash(tb))
        for name in (ours.__match_args__[0], "not_a_field"):
            assert _outcome(lambda: setattr(a, name, 1)) == _outcome(lambda: setattr(ta, name, 1))
            assert _outcome(lambda: delattr(a, name)) == _outcome(lambda: delattr(ta, name))
        assert repr(a) == repr(ta)  # unchanged by the failed assignments

    def test_replace_runs_post_init(self):
        rf = RfSettings()
        assert replace(rf, points=11) == RfSettings(points=11)
        with pytest.raises(ValueError, match="points must be >= 2"):
            replace(rf, points=1)

    def test_each_catalog_gets_its_own_dicts(self):
        a, b = materials.MaterialCatalog(), materials.MaterialCatalog()
        assert a == b
        assert a.entries is not b.entries and a.aliases is not b.aliases
        a.entries["Nb"] = _NB
        assert b.entries == {} and materials.MaterialCatalog().entries == {}

    def test_not_equal_to_the_tuple_of_its_fields(self):
        a = layout.LayoutConfig(*_LAYOUT_ARGS)
        fields = tuple(getattr(a, name) for name in a.__match_args__)
        assert a != fields and fields != a
        assert a.__eq__(fields) is NotImplemented
