"""Exception taxonomy shared by all modules."""

__all__ = [
    "RisOutageError", "DomainError", "NoConvergence", "OverflowGuard",
    "MomentMatchFailure", "FloorUndefined", "DegenerateJitter",
    "DegenerateParameters", "AsymptoteOutOfRegime", "ConfigError",
]


class RisOutageError(Exception):
    """Base class for every error raised by this package.  Its message
    joins all arguments, so context appended to args (such as the sweep
    point) reads as part of the message."""

    def __str__(self) -> str:
        return " ".join(str(a) for a in self.args)


class DomainError(RisOutageError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NoConvergence(RisOutageError, RuntimeError):
    """A series or quadrature failed to reach its accuracy target."""


class OverflowGuard(RisOutageError, OverflowError):
    """A parameter would push factorial/gamma growth past float range."""


class MomentMatchFailure(RisOutageError):
    """The matched moments admit no valid generalized-K surrogate."""


class FloorUndefined(RisOutageError):
    """The closed-form outage floor is invalid (gamma argument <= 0)."""


class DegenerateJitter(RisOutageError):
    """Position/orientation jitter is zero; the misalignment shape
    exponent is undefined and the aligned analysis path must be used."""


class DegenerateParameters(RisOutageError):
    """The high-SNR expansion is undefined for these shape parameters."""


class AsymptoteOutOfRegime(RisOutageError):
    """The truncated high-SNR expansion is non-positive or at least 1 at
    this point: the point lies outside the expansion's regime."""


class ConfigError(RisOutageError, ValueError):
    """Invalid simulation or scenario configuration."""
