"""Exception hierarchy shared across the package."""


class CoalexError(Exception):
    """Base class for all package errors."""


class ConfigError(CoalexError, ValueError):
    """Invalid configuration: bad flag value, unknown method, conflicting options."""


class DataError(CoalexError):
    """Dataset cannot be loaded or fails validation."""


class ComplexityCapError(CoalexError):
    """An exact computation was refused because the attribute count exceeds the cap."""

    def __init__(self, n: int, cap: int):
        super().__init__(
            f"complete influence over {n} attributes requires 2^{n} subset models; "
            f"refusing because the cap is {cap} attributes"
        )
        self.n = n
        self.cap = cap
