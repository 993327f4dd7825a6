"""Additive codes over Z_k.

A code of length ell is an additive subgroup of (Z_k)^ell.  Everything here
is exact integer arithmetic: spans, the standard inner product, dual codes,
the even / half-period classification (Case A / Case B), reduction of
{0, k/2}-valued subgroups to binary codes, binary radical data, and the
integer row Hermite form that `cosets` and `modules` share, with the
smallest member of a coset read off such a basis and the basis of the dual
code's lattice built without enumerating it.

The classification drives everything downstream.  A code is Case A when
every word pairs to zero with itself, Case B when k is even, all pairings
land in {0, k/2}, and some word has self-pairing k/2; anything else is out
of scope for the lattice and module constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from math import isqrt

from .errors import InvalidInputError, check_cap, check_shape

Codeword = tuple[int, ...]
BinaryCode = tuple[tuple[int, ...], ...]

DEFAULT_ENUM_CAP = 10**6


class Case(Enum):
    """Classification of a code: even, half-period, or out of scope."""

    A = "CaseA"
    B = "CaseB"
    UNSUPPORTED = "Unsupported"


def check_word(word: Codeword, k: int, ell: int) -> Codeword:
    """Validate one codeword; returns it as a tuple of ints in [0, k)."""
    word = tuple(word)
    if len(word) != ell:
        raise InvalidInputError(f"codeword {word} has length {len(word)}, expected {ell}")
    for x in word:
        if not isinstance(x, int) or not 0 <= x < k:
            raise InvalidInputError(f"codeword entry {x!r} is not a residue mod {k}")
    return word


def word_add(xi: Codeword, eta: Codeword, k: int) -> Codeword:
    return tuple((x + y) % k for x, y in zip(xi, eta))


def inner(xi: Codeword, eta: Codeword, k: int) -> int:
    """Standard inner product sum(xi_r * eta_r), reduced mod k."""
    if len(xi) != len(eta):
        raise InvalidInputError("inner product needs words of equal length")
    return sum(x * y for x, y in zip(xi, eta)) % k


@dataclass(frozen=True)
class Code:
    """An additive subgroup of (Z_k)^ell with its classification.

    `words` is the full, lexicographically sorted member list; `even_part`
    and `odd_part` split it by self-pairing (0 vs k/2) and are populated for
    Case B codes only.
    """

    k: int
    ell: int
    generators: tuple[Codeword, ...]
    words: tuple[Codeword, ...]
    case: Case
    even_part: tuple[Codeword, ...] | None = None
    odd_part: tuple[Codeword, ...] | None = None

    @property
    def size(self) -> int:
        return len(self.words)


def _classify_words(words: tuple[Codeword, ...], k: int, generators: tuple[Codeword, ...]) -> tuple[Case, tuple[Codeword, ...] | None, tuple[Codeword, ...] | None]:
    """Classify a subgroup given its full word list and a generating set.

    The Case B pairing condition is checked on generator x word pairs only:
    the pairing is bilinear and {0, k/2} is a subgroup of Z_k, so if every
    generator pairs into {0, k/2} with every word, then so does every pair
    of words.
    """
    if all(inner(w, w, k) == 0 for w in words):
        return Case.A, None, None
    if k % 2 == 0:
        half = k // 2
        pairs_ok = all(
            inner(g, w, k) in (0, half) for g in generators for w in words
        )
        diag = [inner(w, w, k) for w in words]
        if pairs_ok and all(d in (0, half) for d in diag):
            d0 = tuple(w for w, d in zip(words, diag) if d == 0)
            d1 = tuple(w for w, d in zip(words, diag) if d == half)
            if len(d0) != len(d1):
                raise InvalidInputError(
                    "half-period classification failed: even part has "
                    f"{len(d0)} words, odd part {len(d1)}"
                )
            return Case.B, d0, d1
    return Case.UNSUPPORTED, None, None


def classify_code(code: Code) -> Case:
    """Recompute the classification of a code from its word list.

    Case A: every self-pairing vanishes.  Case B: k even, all pairings land
    in {0, k/2}, and some diagonal value is k/2.  Anything else is out of
    scope.  The result always agrees with ``code.case``; for Case B the
    diagonal split is available as ``code.even_part`` / ``code.odd_part``.
    """
    case, _, _ = _classify_words(code.words, code.k, code.generators)
    return case


def span(generators, k: int, ell: int, cap: int = DEFAULT_ENUM_CAP) -> Code:
    """Additive closure of the generators, classified.

    Grows the closure by one generator at a time (`_grow`); raises
    CapExceededError as soon as the subgroup would exceed `cap` members.
    """
    check_shape(k, ell)
    gens = tuple(check_word(g, k, ell) for g in generators)
    words = {(0,) * ell}
    for g in gens:
        words = _grow(words, g, k, cap)
    ordered = tuple(sorted(words))
    case, d0, d1 = _classify_words(ordered, k, gens)
    return Code(k, ell, gens, ordered, case, d0, d1)


def _grow(spanned: set, x: Codeword, k: int, cap: int) -> set:
    """The subgroup generated by the subgroup `spanned` and x: one coset of
    `spanned` per multiple of x until a multiple lands back in it.  Those
    cosets are disjoint, so each adds len(spanned) words; raises
    CapExceededError before one would take the total past `cap`."""
    grown = set(spanned)
    multiple = x
    while multiple not in spanned:
        check_cap("span of size at least", len(grown) + len(spanned), cap)
        grown.update(word_add(s, multiple, k) for s in spanned)
        multiple = word_add(multiple, x, k)
    return grown


def code_from_words(k: int, ell: int, words) -> Code:
    """Build a Code from an explicit member list (must be a subgroup).

    Generators are picked greedily in sorted order: each member not yet
    spanned becomes one, after every member plus it is checked to be a
    member.  The span stays inside the members, and a set holding 0 and
    closed under adding each generator is their span, so the list is closed
    exactly when no check fails.  Cost O(|C| * #generators).
    """
    check_shape(k, ell)
    member_set = {check_word(w, k, ell) for w in words}
    zero = (0,) * ell
    if zero not in member_set:
        raise InvalidInputError("a code must contain the zero word")
    members = tuple(sorted(member_set))
    spanned = {zero}
    gens: list[Codeword] = []
    for x in members:
        if x in spanned:
            continue
        for y in members:
            if word_add(x, y, k) not in member_set:
                raise InvalidInputError(
                    f"word list is not closed under addition: {x} + {y}"
                )
        gens.append(x)
        spanned = _grow(spanned, x, k, len(members))
    generators = tuple(gens)
    case, d0, d1 = _classify_words(members, k, generators)
    return Code(k, ell, generators, members, case, d0, d1)


def dual_code(code: Code, cap: int = DEFAULT_ENUM_CAP) -> Code:
    """All words pairing to zero with the whole code.

    Brute force over (Z_k)^ell, capped.  Checking against the generators is
    enough, by bilinearity.  The module census does not call it: it reduces
    modulo the dual code along `_dual_rows`, and this enumeration is the
    oracle the tests compare that reduction with.
    """
    check_cap("dual enumeration of size", code.k ** code.ell, cap)
    words = (
        w
        for w in product(range(code.k), repeat=code.ell)
        if all(inner(g, w, code.k) == 0 for g in code.generators)
    )
    return code_from_words(code.k, code.ell, words)


def binary_reduce(words, k: int) -> tuple[Codeword, ...]:
    """Map a {0, k/2}-valued word collection to binary words (k/2 -> 1).

    The map is a bijection onto its image; when k = 2 (mod 4) it also turns
    the Z_k pairing into the binary one via division by k/2.
    """
    if k % 2:
        raise InvalidInputError(f"binary reduction needs an even modulus, got {k}")
    half = k // 2
    out = []
    for w in words:
        w = tuple(w)
        for x in w:
            if x not in (0, half):
                raise InvalidInputError(
                    f"entry {x} is not in {{0, {half}}}; cannot reduce to binary"
                )
        out.append(tuple(0 if x == 0 else 1 for x in w))
    reduced = tuple(sorted(out))
    if len(set(reduced)) != len(out):
        raise InvalidInputError("binary reduction collapsed distinct words")
    return reduced


def radical_data(words) -> tuple[int, int]:
    """(radical order, sqrt of the radical index) for a binary code.

    The radical is the set of words pairing to zero mod 2 with the whole
    code.  The index [C : radical] must be a perfect square; its square
    root is the multiplicity that shows up in fixed-point decompositions.
    """
    members = tuple(tuple(w) for w in words)
    if not members:
        raise InvalidInputError("empty word list has no radical")
    for w in members:
        if any(x not in (0, 1) for x in w):
            raise InvalidInputError(f"word {w} is not binary")
    rad = [
        w
        for w in members
        if all(sum(a * b for a, b in zip(w, v)) % 2 == 0 for v in members)
    ]
    index = len(members) // len(rad)
    m = isqrt(index)
    if m * m != index:
        raise InvalidInputError(
            f"radical index {index} is not a perfect square"
        )
    return len(rad), m


def _hermite_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite form over the integers; returns the nonzero rows."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        # clear the column below pivot_row by gcd elimination
        while True:
            live = [
                r for r in range(pivot_row, len(rows)) if rows[r][col] != 0
            ]
            if not live:
                break
            r0 = min(live, key=lambda r: abs(rows[r][col]))
            rows[pivot_row], rows[r0] = rows[r0], rows[pivot_row]
            done = True
            for r in range(pivot_row + 1, len(rows)):
                if rows[r][col]:
                    q = rows[r][col] // rows[pivot_row][col]
                    rows[r] = [
                        a - q * b for a, b in zip(rows[r], rows[pivot_row])
                    ]
                    if rows[r][col]:
                        done = False
            if done:
                if rows[pivot_row][col] < 0:
                    rows[pivot_row] = [-a for a in rows[pivot_row]]
                pivot_row += 1
                break
        if pivot_row == len(rows):
            break
    return [r for r in rows if any(r)]


def _coset_minimum(rows, point) -> list[int]:
    """The lexicographically smallest member, among the vectors with entries
    in [0, k), of the coset point + L, for `rows` a row Hermite basis of a
    lattice L containing k Z^ell: row r holds its pivot d_r in column r.

    Left to right, each coordinate is taken mod its pivot by subtracting a
    multiple of its row; the rows below it are zero there, so later steps
    leave it alone, and it ends in [0, d_r).  The points of the coset that
    agree with the result before slot r are the result plus the span of
    rows r, r+1, ..., whose r-th entries are the multiples of d_r: so no
    member is smaller."""
    point = list(point)
    for r, row in enumerate(rows):
        q = point[r] // row[r]
        if q:
            point = [x - q * y for x, y in zip(point, row)]
    return point


def _dual_rows(code: Code) -> list[list[int]]:
    """The row Hermite basis of D^perp + k Z^ell, the integer vectors x with
    (g|x) = 0 mod k for every generator g: ell rows, row r with its pivot in
    column r, each pivot a divisor of k.

    With G the r x ell generator matrix, the rows of [G^T | I_ell] stacked
    over [k I_r | 0] span the vectors (G x + k y, x).  Their row Hermite form
    has r rows with pivots in the first r columns and ell rows that vanish
    there; those ell rows span the lattice vectors (0, x), and so their last
    ell entries are the basis.  Nothing is enumerated or inverted."""
    k, ell, gens = code.k, code.ell, code.generators
    r = len(gens)
    rows = [[g[c] for g in gens] + [int(c == s) for s in range(ell)] for c in range(ell)]
    rows += ([k * int(s == t) for t in range(r)] + [0] * ell for s in range(r))
    return [row[r:] for row in _hermite_rows(rows) if not any(row[:r])]
