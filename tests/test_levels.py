"""Every public entry point that takes a level rejects a bad one.

The level check lives in one helper; these cases pin that each entry point
still calls it, including after a warm call with an equal integer level has
filled a cache keyed on the level.
"""

import pytest

from pfkit import cosets
from pfkit.branching import branch, branch_tail
from pfkit.errors import InvalidInputError
from pfkit.modules import all_irr_labels
from pfkit.parafermion import irr_count, pf_canonicalize, pf_weight

ENTRY_POINTS = {
    "pf_canonicalize": lambda k: pf_canonicalize(k, 1, 0),
    "pf_weight": lambda k: pf_weight(k, 1, 0),
    "irr_count": irr_count,
    "cosets.canonicalize": lambda k: cosets.canonicalize(k, 0, (1, 1, 1)),
    "cosets.all_labels": cosets.all_labels,
    "min_norm_data": lambda k: cosets.min_norm_data(k, 0, (1, 1, 1)),
    "branch": lambda k: branch(k, 0, (0, 0, 0)),
    "branch_tail": lambda k: branch_tail(k, 0, 0),
    "all_irr_labels": lambda k: all_irr_labels(k, 1),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_bad_level_rejected_cold_and_warm(name):
    call = ENTRY_POINTS[name]
    for bad in (1, 3.0):
        with pytest.raises(InvalidInputError):
            call(bad)
    call(3)
    with pytest.raises(InvalidInputError):
        call(3.0)
