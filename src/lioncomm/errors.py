"""Exception types shared across the package, and the checks of integer,
real and boolean settings that raise one."""

from numbers import Integral, Real


class LionCommError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LionCommError):
    """Invalid configuration: bad hyperparameters, bitwidths, run configs."""


def check_int(name: str, value, least: int, most: int | None = None) -> int:
    """``value`` as an int if it is an integer in [least, most]; a bool or a
    fraction (2.5 clients, 8.5 bits) is a ``ConfigError``, not truncated."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or value < least or (most is not None and value > most)):
        bound = f">= {least}" if most is None else f"in {least}..{most}"
        raise ConfigError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def check_real(name: str, value) -> float:
    """``value`` as a float if it is a real number (inf included); a bool, a
    string or a NaN is a ``ConfigError``, not read as 1.0 or 0.0."""
    if isinstance(value, bool) or not isinstance(value, Real) or value != value:
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_bool(name: str, value) -> bool:
    """``value`` if it is a bool; "false", "no" or 0 is a ``ConfigError``."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


class CapacityError(ConfigError):
    """A summation would overflow the chosen integer lane.

    Raised before any communication happens so no rank is left hanging.
    """


class PackRangeError(LionCommError):
    """A value to be packed does not fit its field: a sign bit takes only
    -1 or +1, a b-bit integer field [-2^(b-1), 2^(b-1) - 1]."""

    def __init__(self, index: int, value, allowed: str = "a sign (-1 or +1)"):
        self.index = index
        self.value = value
        super().__init__(f"value {value} at index {index} is not {allowed}")


class PackFormatError(LionCommError):
    """A packed payload's length does not match its element count."""


class CollectiveError(LionCommError):
    """A collective failed: a peer never answered or the transport broke."""

    def __init__(self, message: str, rank: int | None = None,
                 generation: int | None = None, phase: str | None = None):
        self.rank = rank
        self.generation = generation
        self.phase = phase
        detail = []
        if rank is not None:
            detail.append(f"rank={rank}")
        if generation is not None:
            detail.append(f"generation={generation}")
        if phase is not None:
            detail.append(f"phase={phase}")
        if detail:
            message = f"{message} ({', '.join(detail)})"
        super().__init__(message)
