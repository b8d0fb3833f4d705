"""Parsing of unit-suffixed quantities, and the field
kinds that read every JSON input of the toolkit.

Config files carry dimensional values as strings with explicit unit
suffixes ("500um", "10GHz", "1W").  Bare numbers are accepted and taken
as base SI units; suffixed strings are strongly preferred in configs to
avoid silent unit mistakes.

A field kind is a callable ``kind(value, where) -> parsed`` that raises
``ConfigInvalid(where)`` for any value it cannot accept; ``where`` is the
dotted path of the field.  The ``parse_<dimension>`` kinds are built by
``quantity``, and ``section`` nests kinds into a declarative schema of a
JSON object.
Container kinds carry ``child(key)``, the kind of one member or None.

``frozen`` makes a class a frozen value type of its annotated fields, the
kind every reader builds; ``replace`` copies one with some fields changed.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

from .errors import ConfigInvalid, DensewireError

_QUANTITY_RE = re.compile(r"^\s*([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*(.*?)\s*$")

LENGTH_UNITS = {
    "m": 1.0,
    "cm": 1e-2,
    "mm": 1e-3,
    "um": 1e-6,
    "µm": 1e-6,
    "nm": 1e-9,
}
AREA_UNITS = {"m2": 1.0, "mm2": 1e-6, "um2": 1e-12, "µm2": 1e-12}
FREQUENCY_UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}
POWER_UNITS = {
    "W": 1.0,
    "kW": 1e3,
    "mW": 1e-3,
    "uW": 1e-6,
    "µW": 1e-6,
    "nW": 1e-9,
    "pW": 1e-12,
}
TEMPERATURE_UNITS = {"K": 1.0, "mK": 1e-3}
RESISTANCE_UNITS = {"ohm": 1.0, "Ohm": 1.0, "kohm": 1e3, "mohm": 1e-3}
INDUCTANCE_UNITS = {"H": 1.0, "uH": 1e-6, "µH": 1e-6, "nH": 1e-9, "pH": 1e-12}


def parse_quantity(value, units: dict[str, float], field: str = "value") -> float:
    """Convert `value` to base SI units.

    Numbers pass through unchanged; strings must match "<number><unit>"
    with a unit from `units`.
    """
    if isinstance(value, bool):
        raise ConfigInvalid(field, "expected a quantity, got a boolean")
    if isinstance(value, (int, float)):
        return _finite(value, field)
    if not isinstance(value, str):
        raise ConfigInvalid(field, f"expected number or unit string, got {type(value).__name__}")
    m = _QUANTITY_RE.match(value)
    if not m:
        raise ConfigInvalid(field, f"cannot parse quantity {value!r}")
    number, suffix = m.groups()
    try:
        magnitude = float(number)
    except ValueError:
        raise ConfigInvalid(field, f"cannot parse number in {value!r}") from None
    if not math.isfinite(magnitude):
        raise ConfigInvalid(field, f"non-finite number in {value!r}")
    if not suffix:
        raise ConfigInvalid(field, f"missing unit suffix in {value!r} (e.g. {value}{next(iter(units))!r})")
    if suffix not in units:
        raise ConfigInvalid(
            field, f"unknown unit {suffix!r} in {value!r}; expected one of {sorted(units)}"
        )
    return magnitude * units[suffix]


def quantity(units: dict[str, float], name: str):
    """The kind ``parse_<name>``: a quantity in `units`, read by `parse_quantity`."""
    def read(value, field: str = name) -> float:
        return parse_quantity(value, units, field)
    read.__name__ = f"parse_{name}"  # what reprs and test ids show
    return read


parse_length = quantity(LENGTH_UNITS, "length")
parse_area = quantity(AREA_UNITS, "area")
parse_frequency = quantity(FREQUENCY_UNITS, "frequency")
parse_power = quantity(POWER_UNITS, "power")
parse_temperature = quantity(TEMPERATURE_UNITS, "temperature")
parse_resistance = quantity(RESISTANCE_UNITS, "resistance")
parse_inductance = quantity(INDUCTANCE_UNITS, "inductance")


def load_json(path) -> object:
    """The JSON document in the file at `path`, read by `read_json`."""
    return read_json(Path(path).read_bytes(), str(path))


def read_json(data: bytes, where: str) -> object:
    """The JSON document in `data`; malformed JSON or text that is not
    UTF-8 raises ConfigInvalid naming `where`."""
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise ConfigInvalid(where, f"not valid JSON: {exc}") from None


def _finite(value, where: str) -> float:
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigInvalid(where, f"expected a finite number, got {value!r}")
    return x


def number(value, where: str) -> float:
    """A finite JSON number (not a boolean), as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(where, f"expected a number, got {type(value).__name__}")
    return _finite(value, where)


def integer(minimum: int):
    """Kind for an integral JSON number >= `minimum`; 3.0 reads as 3, 2.5 is rejected."""
    def read(value, where: str) -> int:
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or (isinstance(value, float) and not value.is_integer())):
            raise ConfigInvalid(where, f"expected an integer, got {value!r}")
        if abs(value) > sys.float_info.max:  # every count must convert to float
            raise ConfigInvalid(where, f"magnitude exceeds the float range ({sys.float_info.max:g})")
        if value < minimum:
            raise ConfigInvalid(where, f"must be >= {minimum}, got {value!r}")
        return int(value)
    return read


def bounded(kind, low: float, strict: bool = False):
    """Kind for a `kind` value >= `low`, or > `low` when `strict`."""
    def read(value, where: str):
        x = kind(value, where)
        if x < low or (strict and x == low):
            raise ConfigInvalid(where, f"must be {'>' if strict else '>='} {low:g}, got {value!r}")
        return x
    return read


positive_length = bounded(parse_length, 0.0, strict=True)


def raw(value, where: str):
    """Any JSON value, unchecked here; its reader checks it later."""
    return value


def flag(value, where: str) -> bool:
    """JSON true or false."""
    if not isinstance(value, bool):
        raise ConfigInvalid(where, f"expected true or false, got {value!r}")
    return value


def string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigInvalid(where, f"expected a string, got {type(value).__name__}")
    return value


def listof(kind, unique: str | None = None):
    """Kind for a JSON list of `kind`, read into a tuple.

    With `unique`, the items are sections whose `unique` field must differ;
    a repeat is reported at the later item.
    """
    def read(value, where: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigInvalid(where, f"expected a list, got {type(value).__name__}")
        items = tuple(kind(v, f"{where}[{i}]") for i, v in enumerate(value))
        if unique is not None:
            seen = set()
            for i, item in enumerate(items):
                if item[unique] in seen:
                    raise ConfigInvalid(f"{where}[{i}].{unique}",
                                        f"duplicate {unique} {item[unique]!r}")
                seen.add(item[unique])
        return items
    read.child = lambda key: kind if key.isdecimal() else None
    return read


def pair(first, second):
    """Kind for a two-element JSON list [a, b], read into a tuple."""
    def read(value, where: str) -> tuple:
        if not (isinstance(value, list) and len(value) == 2):
            raise ConfigInvalid(where, f"expected a [a, b] pair, got {value!r}")
        return first(value[0], f"{where}[0]"), second(value[1], f"{where}[1]")
    read.child = {"0": first, "1": second}.get
    return read


_REQUIRED = object()
_ABSENT = object()


def optional(kind, default=_ABSENT):
    """Mark a section field optional.  A missing key reads `default` through
    `kind`, or, when no default is given, is left out of the result so that
    the value type's own default applies."""
    return kind, default


def section(**fields):
    """Kind for a JSON object with the given fields, read into a dict.

    Each field is a kind (required) or ``optional(kind, default)``.  Keys
    named "notes" or starting with "_" are annotations and ignored; any
    other unknown key is rejected.  With `names`, the reader reads only
    those fields (it still rejects unknown keys).
    """
    spec = {name: f if isinstance(f, tuple) else (f, _REQUIRED) for name, f in fields.items()}
    expected = sorted(spec)

    def read(value, where: str, names=None) -> dict:
        if not isinstance(value, dict):
            raise ConfigInvalid(where or "<root>",
                                f"expected an object, got {type(value).__name__}")
        prefix = f"{where}." if where else ""
        for key in value:
            if key not in spec and key != "notes" and not key.startswith("_"):
                raise ConfigInvalid(prefix + key, f"unknown field; expected one of {expected}")
        out = {}
        for name, (kind, default) in spec.items():
            if names is not None and name not in names:
                continue
            if name in value:
                out[name] = kind(value[name], prefix + name)
            elif default is _REQUIRED:
                raise ConfigInvalid(prefix + name, "missing required field")
            elif default is not _ABSENT:
                out[name] = kind(default, prefix + name)
        return out
    read.child = lambda key: spec[key][0] if key in spec else None
    return read


def build(cls, where: str, **fields):
    """``cls(**fields)``, with the value type's own validation errors
    reported as ``ConfigInvalid(where)``."""
    try:
        return cls(**fields)
    except ConfigInvalid:
        raise
    except (ValueError, DensewireError) as exc:
        raise ConfigInvalid(where, str(exc)) from None


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls):
    """Make `cls` a frozen value type of its annotated fields, in order.

    What ``@dataclass(frozen=True)`` gives, built with one `exec`:
    ``__init__`` takes the fields by position or keyword, with the class
    attributes as defaults (a dict, list or set default is copied for each
    instance), and calls ``__post_init__`` if the class has one; ``==``
    compares the tuples of fields of two instances of one class and returns
    NotImplemented for any other; ``hash`` hashes that tuple; ``repr`` is
    ``Name(field=value!r, ...)``; assigning or deleting any attribute raises
    AttributeError.  ``__match_args__`` holds the field names.  Instances
    keep a ``__dict__``, so ``functools.cached_property`` works on them.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    params = [f"{name}=_d_{name}" if name in defaults else name for name in names]
    body = [f"        _set(self, {name!r}, {name})" for name in names]
    for name, value in defaults.items():
        if type(value) in (dict, list, set):
            params[names.index(name)] = f"{name}=_fresh"
            body.insert(0, f"        if {name} is _fresh: {name} = _d_{name}.copy()")
    if "__post_init__" in cls.__dict__:
        body.append("        self.__post_init__()")
    mine = ", ".join(f"self.{name}" for name in names)
    theirs = ", ".join(f"other.{name}" for name in names)
    source = "\n".join([
        f"def make(_set, _fresh, {', '.join(f'_d_{name}' for name in defaults)}):",
        f"    def __init__(self, {', '.join(params)}):",
        *body,
        "    def __eq__(self, other):",
        "        if other.__class__ is self.__class__:",
        f"            return ({mine},) == ({theirs},)",
        "        return NotImplemented",
        "    def __hash__(self):",
        f"        return hash(({mine},))",
        "    return __init__, __eq__, __hash__",
    ])
    namespace = {}
    exec(source, {"__name__": cls.__module__}, namespace)
    methods = namespace["make"](object.__setattr__, object(),
                                **{f"_d_{name}": v for name, v in defaults.items()})
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__repr__, cls.__setattr__, cls.__delattr__ = _repr, _setattr, _delattr
    cls.__match_args__ = names
    return cls


def replace(obj, **changes):
    """A copy of the frozen value `obj` with `changes` to its fields, built
    (and checked) by its class's ``__init__``."""
    fields = {name: getattr(obj, name) for name in obj.__match_args__}
    fields.update(changes)
    return type(obj)(**fields)
