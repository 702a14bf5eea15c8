"""Exception types shared across the package, and the integer-setting check
that raises one."""

from numbers import Integral


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
