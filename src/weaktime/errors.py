"""Exception hierarchy shared by all weaktime modules."""


class WeaktimeError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(WeaktimeError):
    """Factor spaces or matrix shapes do not line up."""


class ParameterError(WeaktimeError):
    """A numerical parameter is outside its allowed range."""


class EmptyRegionError(WeaktimeError):
    """A spatial region resolves to no grid points."""


class DegeneratePostselectionError(WeaktimeError):
    """Postselection overlap below the floor; the conditional value diverges."""


class NumericalError(WeaktimeError):
    """A linear solve or stepping scheme failed."""


class ValidationError(WeaktimeError):
    """A scenario or configuration is physically or structurally inconsistent."""
