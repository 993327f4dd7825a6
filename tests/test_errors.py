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


def test_the_default_orbit_cap_is_one_object():
    from pfkit import cli, modules, report
    from pfkit.errors import DEFAULT_ORBIT_CAP

    assert DEFAULT_ORBIT_CAP == 10**7
    assert modules.DEFAULT_ORBIT_CAP is DEFAULT_ORBIT_CAP
    assert report.DEFAULT_ORBIT_CAP is DEFAULT_ORBIT_CAP
    assert cli.build_parser().get_default("orbit_cap") is DEFAULT_ORBIT_CAP


def test_a_value_too_long_to_print_is_named_by_its_bit_length():
    # past 1,024 bits the value is written as a power of two below it; str
    # of an int of more than 4,300 digits would raise ValueError
    with pytest.raises(CapExceededError, match=f"^table of size {2**1024 - 1} exceeds the cap of 12$"):
        check_cap("table of size", 2**1024 - 1, 12)
    with pytest.raises(CapExceededError, match=r"^table of size at least 2\^1024 exceeds the cap of 12$"):
        check_cap("table of size", 2**1024, 12)
    with pytest.raises(CapExceededError, match=r"^table of size at least 2\^99999 exceeds the cap of 12$"):
        check_cap("table of size", 2**100000 - 1, 12)
