"""Exception types shared across the toolkit."""


class DensewireError(Exception):
    """Base class for all toolkit errors."""


class UnknownMaterial(DensewireError):
    def __init__(self, name: str):
        super().__init__(f"unknown material: {name!r}")
        self.name = name


class NotAConductor(DensewireError):
    def __init__(self, name: str):
        super().__init__(f"material {name!r} is not a conductor")
        self.name = name


class OutOfRange(DensewireError):
    """A value falls outside the tabulated or permitted range."""


class DegenerateGeometry(DensewireError):
    """Geometry does not define a valid transmission line."""


class PitchConditionViolated(DensewireError):
    """Wire pitch exceeds qubit pitch; dense vertical wiring impossible."""


class ConfigInvalid(DensewireError):
    """A configuration field failed validation; carries the field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


class UnsupportedFormat(DensewireError):
    def __init__(self, fmt: str):
        super().__init__(f"unsupported export format: {fmt!r}")
        self.format = fmt

