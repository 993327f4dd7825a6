"""Exception hierarchy and input checks shared across the package.

Each subclass corresponds to one failure mode of the public API and, through
the command line front end, to one process exit code.
"""


class PfkitError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(PfkitError):
    """Malformed parameters: bad modulus, length, residues, or label data."""


class UnsupportedCodeError(PfkitError):
    """The code is neither even (Case A) nor half-period (Case B)."""


class CapExceededError(PfkitError):
    """An enumeration would exceed its configured size cap."""


class VerificationError(PfkitError):
    """A cross-check between two independent computations disagreed."""


def check_level(k: int) -> None:
    """Reject a level (modulus, rank) that is not an integer >= 2."""
    if not isinstance(k, int) or k < 2:
        raise InvalidInputError(f"level must be an integer >= 2, got {k!r}")


def check_shape(k: int, ell: int) -> None:
    """Reject a bad level or a length that is not an integer >= 1."""
    check_level(k)
    if not isinstance(ell, int) or ell < 1:
        raise InvalidInputError(f"length must be an integer >= 1, got {ell!r}")
