"""The shared size check behind every cap: the comparison, its bound by
the index range of a Python sequence, and the message form."""

import sys

import pytest

from pfkit.errors import CapExceededError, check_cap


def test_a_value_at_the_cap_passes_and_is_returned():
    assert check_cap("table of size", 12, 12) == 12
    assert check_cap("table of size", 0, 12) == 0


def test_a_value_above_the_cap_trips():
    with pytest.raises(CapExceededError, match="^table of size 13 exceeds the cap of 12$"):
        check_cap("table of size", 13, 12)


def test_the_cap_is_bounded_by_the_index_range():
    assert check_cap("table of size", sys.maxsize, 10**200) == sys.maxsize
    with pytest.raises(
        CapExceededError,
        match=f"^table of size {sys.maxsize + 1} exceeds the cap of {sys.maxsize}$",
    ):
        check_cap("table of size", sys.maxsize + 1, 10**200)
