"""Exception hierarchy and input checks shared across the package.

Each subclass corresponds to one failure mode of the public API and, through
the command line front end, to the process exit code in its `exit_code`.
Every integer input of the public API goes through `check_int` or
`check_ints`: an int that is not a bool, in its range.
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


def check_int(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """Return value if it is an int, not a bool, in [low, high] (None leaves
    that end open); else InvalidInputError naming `what` and the value."""
    if not _fits(value, low, high):
        if high is None:
            rule = "an integer" if low is None else f"an integer >= {low}"
        else:
            rule = "0 or 1" if (low, high) == (0, 1) else f"an integer in [{low}, {high}]"
        raise InvalidInputError(f"{what} must be {rule}, got {value!r}")
    return value


def check_ints(values, what: str, modulus: int | None = None, length: int | None = None) -> tuple[int, ...]:
    """`values` as a tuple of ints, not bools, each a residue in [0, modulus)
    if a modulus is given, and `length` of them if a length is given; else
    InvalidInputError naming `what` and the first entry that fails."""
    values = tuple(values)
    if length is not None and len(values) != length:
        raise InvalidInputError(f"{what} {values} has length {len(values)}, expected {length}")
    # the common case, tested in C: every type is int, and min and max are residues
    if {int}.issuperset(map(type, values)) and (
        modulus is None or not values or 0 <= min(values) and max(values) < modulus
    ):
        return values
    low, high = (None, None) if modulus is None else (0, modulus - 1)
    for x in values:
        if not _fits(x, low, high):
            rule = "an integer" if modulus is None else f"a residue mod {modulus}"
            raise InvalidInputError(f"{what} entry {x!r} is not {rule}")
    return values


def _fits(value, low, high) -> bool:
    if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
        return False
    return (low is None or low <= value) and (high is None or value <= high)


# the default cap on label spaces and table sizes (`--orbit-cap`)
DEFAULT_ORBIT_CAP = 10**7


def check_cap(what: str, value: int, cap: int) -> int:
    """Return value; CapExceededError when it passes the cap, or sys.maxsize,
    the most a list, set, bytearray or `random.sample` can index.  A value of
    more than `_PRINTED_BITS` bits is named by its bit length B, as "at least
    2^(B-1)": `str` of an int of more than 4,300 digits raises ValueError."""
    cap = min(cap, sys.maxsize)
    if value > cap:
        bits = value.bit_length()
        size = value if bits <= _PRINTED_BITS else f"at least 2^{bits - 1}"
        raise CapExceededError(f"{what} {size} exceeds the cap of {cap}")
    return value


_PRINTED_BITS = 1024  # about 309 digits


def check_numerator(x, den: int) -> int:
    """x * den for a Fraction x; VerificationError unless it is an integer."""
    num, rem = divmod(x.numerator * den, x.denominator)
    if rem:
        raise VerificationError(f"{x} is not a multiple of 1/{den}")
    return num
