"""Exception types shared across the package."""


class LionCommError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LionCommError):
    """Invalid configuration: bad hyperparameters, bitwidths, run configs."""


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
