"""Exception types shared across the package.

The CLI maps each class to a distinct exit code, so raising the right type
matters more than the message text.
"""


class BvqError(Exception):
    """Base class for all package errors."""


class ConfigError(BvqError):
    """Malformed or inconsistent experiment configuration."""


class RegimeError(BvqError):
    """A scale parameter left the regime where the discretization is valid.

    Raised when eps drops below kappa*h or one cell, reaches the domain
    diameter, or shifts off the grid.  An erosion that empties the working
    mask raises ``EmptyMaskError``; the CLI maps both to exit 3.
    """


class UnknownFieldError(BvqError):
    """Requested field kind is not in the catalog."""


class EmptyMaskError(BvqError):
    """A domain mask with no inside points was produced or supplied."""
