"""Exception hierarchy and input checks shared across the package.

Each subclass corresponds to one failure mode of the public API and, through
the command line front end, to the process exit code in its `exit_code`.
"""

import sys


class PfkitError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class InvalidInputError(PfkitError):
    """Malformed parameters: bad modulus, length, residues, or label data."""


class UnsupportedCodeError(PfkitError):
    """The code is neither even (Case A) nor half-period (Case B)."""

    exit_code = 3


class CapExceededError(PfkitError):
    """An enumeration would exceed its configured size cap."""

    exit_code = 4


class VerificationError(PfkitError):
    """A cross-check between two independent computations disagreed."""

    exit_code = 5


def check_level(k: int) -> None:
    """Reject a level (modulus, rank) that is not an integer >= 2."""
    if not isinstance(k, int) or k < 2:
        raise InvalidInputError(f"level must be an integer >= 2, got {k!r}")


def check_shape(k: int, ell: int) -> None:
    """Reject a bad level or a length that is not an integer >= 1."""
    check_level(k)
    if not isinstance(ell, int) or ell < 1:
        raise InvalidInputError(f"length must be an integer >= 1, got {ell!r}")


def check_bits(k: int, bits) -> tuple[int, ...]:
    """Reject a bit vector that is not k entries of 0 or 1; return it as a tuple."""
    bits = tuple(bits)
    if len(bits) != k or any(b not in (0, 1) for b in bits):
        raise InvalidInputError(f"expected {k} bits of 0/1, got {bits}")
    return bits


def check_tail_bit(d: int) -> int:
    """Reject a tail bit that is not 0 or 1; return it."""
    if d not in (0, 1):
        raise InvalidInputError(f"tail bit must be 0 or 1, got {d}")
    return d


# the default cap on label spaces and table sizes (`--orbit-cap`)
DEFAULT_ORBIT_CAP = 10**7


def check_cap(what: str, value: int, cap: int) -> int:
    """Return value; CapExceededError when it passes the cap, or sys.maxsize,
    the most a list, set, bytearray or `random.sample` can index."""
    cap = min(cap, sys.maxsize)
    if value > cap:
        raise CapExceededError(f"{what} {value} exceeds the cap of {cap}")
    return value


def check_numerator(x, den: int) -> int:
    """x * den for a Fraction x; VerificationError unless it is an integer."""
    num, rem = divmod(x.numerator * den, x.denominator)
    if rem:
        raise VerificationError(f"{x} is not a multiple of 1/{den}")
    return num
