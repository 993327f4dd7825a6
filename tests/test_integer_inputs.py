"""One integer-input rule: every level, length, residue, bit, shift, current,
label index and cap that the public API takes is an `int` that is not a
`bool`, in its range, checked by `errors.check_int` or `errors.check_ints`.

A malformed value raises InvalidInputError (exit 2 through the CLI) with a
message that names the argument and the value; before the rule, each call
in `MALFORMED` built a label or report from the value, returned a silent
answer, or failed deep inside with a TypeError or ZeroDivisionError.
"""

import ast
import re
from enum import IntEnum
from pathlib import Path

import pytest

from pfkit.branching import branch, branch_tail, component_count, locate_pf, vir_h
from pfkit.cosets import ProductCoset, canonicalize, min_norm_data
from pfkit.errors import InvalidInputError, check_int, check_ints
from pfkit.parafermion import PfLabel, pf_b, pf_canonicalize, pf_fixed, sc_fuse, sc_label, sc_weight
from pfkit.report import JobSpec, run
from pfkit.zkcodes import binary_reduce, inner, radical_data, word_add

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pfkit"

MALFORMED = [
    (lambda: pf_canonicalize(4, 1.5, 0), "first label index must be an integer in [0, 4], got 1.5"),
    (lambda: pf_canonicalize(4, 2, 0.5), "second label index must be an integer, got 0.5"),
    (lambda: sc_label(4, 0.5), "simple current must be an integer, got 0.5"),
    (lambda: sc_fuse(0.5, PfLabel(4, 2, 0)), "simple current must be an integer, got 0.5"),
    (lambda: canonicalize(2, 0, (1.0, 0)), "bit vector entry 1.0 is not a residue mod 2"),
    (lambda: min_norm_data(3, 0, (1.0, 0, 1)), "bit vector entry 1.0 is not a residue mod 2"),
    (lambda: component_count(3, (1.0, 0, 1)), "bit vector entry 1.0 is not a residue mod 2"),
    (lambda: ProductCoset.from_tail(4, (0,), (1.0,)), "tail bit must be 0 or 1, got 1.0"),
    (lambda: branch_tail(4, 0, 1.0), "tail bit must be 0 or 1, got 1.0"),
    (lambda: branch_tail(4, True, 0), "coset shift must be an integer, got True"),
    (lambda: branch(3, 0.5, (1, 1, 0)), "coset shift must be an integer, got 0.5"),
    (lambda: locate_pf(PfLabel(4, 2, 0), 1.0), "tail bit must be 0 or 1, got 1.0"),
    (lambda: vir_h(1, 1.5, 1), "row must be an integer in [1, 2], got 1.5"),
    (lambda: min_norm_data(4, 0.5, (1, 1, 0, 0)), "coset shift must be an integer, got 0.5"),
    (lambda: sc_weight(4, 1.5), "simple current must be an integer, got 1.5"),
    (lambda: pf_b(1.5, PfLabel(4, 2, 0)), "simple current must be an integer, got 1.5"),
    (lambda: pf_fixed(0.5, PfLabel(4, 2, 0)), "simple current must be an integer, got 0.5"),
    (lambda: radical_data([(0, 1), (1,)]), "binary word (1,) has length 1, expected 2"),
    (lambda: radical_data([(0, 1), (1, 2)]), "binary word entry 2 is not a residue mod 2"),
    (lambda: binary_reduce([(0, 0)], 0), "level must be an integer >= 2, got 0"),
    (lambda: binary_reduce([(0, 2.0)], 4), "word entry 2.0 is not a residue mod 4"),
    (
        lambda: binary_reduce([(0, 2), (0, 2)], 4),
        "word (0, 2) is repeated; binary reduction needs distinct words",
    ),
    (lambda: inner((1.5, True), (1, 1), 4), "codeword entry 1.5 is not a residue mod 4"),
    (lambda: inner((1, 1), (1, True), 4), "codeword entry True is not a residue mod 4"),
    (lambda: inner((1,), (1, 0), 3), "codeword (1, 0) has length 2, expected 1"),
    (lambda: inner((1, 1), (1, 1), 1), "level must be an integer >= 2, got 1"),
    (lambda: word_add((1.5, 0), (1, 0), 4), "codeword entry 1.5 is not a residue mod 4"),
    (lambda: word_add((1, 0), (1, 0, 0), 4), "codeword (1, 0, 0) has length 3, expected 2"),
    (lambda: word_add((1, 4), (1, 0), 4), "codeword entry 4 is not a residue mod 4"),
    (lambda: run(JobSpec(k=4, ell=1, orbit_cap="10")), "orbit cap must be an integer >= 1, got '10'"),
    (lambda: run(JobSpec(k=4, ell=1, orbit_cap=2.5)), "orbit cap must be an integer >= 1, got 2.5"),
    (lambda: run(JobSpec(k=4, ell=1, verify_max_k=8.0)), "verify max level must be an integer >= 2, got 8.0"),
    (lambda: run(JobSpec(k=4, ell=True)), "length must be an integer >= 1, got True"),
    (lambda: run(JobSpec(k=4, ell=2, generators=((True, 0),))), "codeword entry True is not a residue mod 4"),
]


@pytest.mark.parametrize("call, message", MALFORMED, ids=[m for _, m in MALFORMED])
def test_a_malformed_integer_input_is_invalid_input(call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


def test_valid_integers_pass_through_unchanged():
    class Small(IntEnum):
        TWO = 2

    assert check_int(5, "level", 2) == 5
    assert check_int(Small.TWO, "level", 2) is Small.TWO  # an int subclass other than bool
    assert check_int(-7, "coset shift") == -7
    assert check_ints(iter([0, 3, 1]), "codeword", 4, 3) == (0, 3, 1)
    assert check_ints((), "codeword", 4) == ()
    assert check_ints((-5, 10**30), "character") == (-5, 10**30)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_int(1, "level", 2), "level must be an integer >= 2, got 1"),
        (lambda: check_int(2, "tail bit", 0, 1), "tail bit must be 0 or 1, got 2"),
        (lambda: check_int(False, "tail bit", 0, 1), "tail bit must be 0 or 1, got False"),
        (lambda: check_int(0, "row", 1, 3), "row must be an integer in [1, 3], got 0"),
        (lambda: check_int("1", "coset shift"), "coset shift must be an integer, got '1'"),
        (lambda: check_ints((0, 1), "codeword", 4, 3), "codeword (0, 1) has length 2, expected 3"),
        (lambda: check_ints((0, 4), "codeword", 4), "codeword entry 4 is not a residue mod 4"),
        (lambda: check_ints((0, -1), "codeword", 4), "codeword entry -1 is not a residue mod 4"),
        (lambda: check_ints((1, False), "character"), "character entry False is not an integer"),
    ],
)
def test_the_messages_name_the_argument_and_the_value(call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


def hand_rolled_checks(path):
    """(line, text) of each `isinstance(..., int)` call and each `not in
    (0, x)` membership test in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(kind, "id", None) == "int" for kind in kinds):
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.Compare):
            for op, right in zip(node.ops, node.comparators):
                if isinstance(op, ast.NotIn) and isinstance(right, ast.Tuple) and len(right.elts) == 2:
                    first = right.elts[0]
                    if isinstance(first, ast.Constant) and first.value == 0:
                        yield node.lineno, ast.unparse(node)


def test_integer_inputs_are_checked_only_in_errors():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = {
        (path.name, line, text)
        for path in sources
        if path.name != "errors.py"
        for line, text in hand_rolled_checks(path)
    }
    assert not found
    assert list(hand_rolled_checks(PACKAGE / "errors.py"))  # the guard sees the rule itself
