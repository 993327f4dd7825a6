"""Exact coset arithmetic for the doubled A-type root lattice and its dual.

The ambient lattice is Z alpha_1 + ... + Z alpha_k with Gram matrix twice the
identity; the base lattice N is its zero-coordinate-sum sublattice, spanned
by beta_p = alpha_p - alpha_{p+1}, of rank k - 1.  The dual quotient of N is
an abelian group of order 2^(k-1) k whose elements carry canonical labels
(j, bits) with j an integer mod k, bits in {0,1}^k and 0 <= j < weight(bits):
the labeled coset is

    N + (1/2) sum_p bits_p alpha_p - j alpha_k + ((2j - weight)/2k) gamma,

gamma being the all-ones vector.  This module implements the label group
law, explicit representative vectors, minimal norms (closed form and an
independent exhaustive search), the fractional pairing between cosets, and
the positive definite lattices assembled from codes.

Inside the module representatives are 2k-scaled integers (`_scaled`); at
the API they have `fractions.Fraction` coordinates over the alpha basis.
No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd, prod

from .errors import (
    InvalidInputError,
    UnsupportedCodeError,
    VerificationError,
    check_cap,
    check_int,
    check_ints,
)
from .zkcodes import Case, Code, Codeword, _hermite_rows, inner

SEARCH_MAX_LEVEL = 12
_WINDOW = range(-2, 4)


@dataclass(frozen=True)
class LatticeVector:
    """A vector in alpha coordinates; k is the ambient rank."""

    k: int
    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != self.k:
            raise InvalidInputError(
                f"expected {self.k} coordinates, got {len(self.coords)}"
            )

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        _check_same_rank(self, other)
        return LatticeVector(
            self.k, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        _check_same_rank(self, other)
        return LatticeVector(
            self.k, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(self.k, tuple(-a for a in self.coords))

    def scale(self, c) -> "LatticeVector":
        c = Fraction(c)
        return LatticeVector(self.k, tuple(c * a for a in self.coords))

    def dot(self, other: "LatticeVector") -> Fraction:
        """Bilinear form; the alpha basis is orthogonal of norm 2."""
        _check_same_rank(self, other)
        return 2 * sum(
            (a * b for a, b in zip(self.coords, other.coords)), Fraction(0)
        )

    @property
    def norm(self) -> Fraction:
        return self.dot(self)


def _check_same_rank(u, v) -> None:
    if u.k != v.k:
        raise InvalidInputError(f"rank mismatch: {u.k} vs {v.k}")


def vector(k: int, coords) -> LatticeVector:
    """Coercing constructor: any rationals in, Fractions out."""
    return LatticeVector(k, tuple(Fraction(c) for c in coords))


@dataclass(frozen=True, order=True)
class CosetLabel:
    """Canonical coset label; construct via canonicalize."""

    k: int
    j: int
    bits: tuple[int, ...]

    @property
    def weight(self) -> int:
        return sum(self.bits)

    def __str__(self) -> str:
        return f"{self.j}:{''.join(str(b) for b in self.bits)}"


def canonicalize(k: int, j: int, bits) -> CosetLabel:
    """Canonical label: reduce j mod k, then flip to the complement when
    j >= weight(bits).  The two presentations (j, bits) and
    (j - weight, ~bits) name the same coset."""
    return _unpack(k, _add_packed(k, _pack(CosetLabel(k, j, bits)), 0))


def _pack(x: CosetLabel) -> int:
    """The checked label as j << k | mask, bits[0] the top bit: packed
    canonical labels sort as the labels do."""
    check_int(x.k, "level", 2)
    mask = 0
    for b in check_ints(x.bits, "bit vector", 2, x.k):
        mask = mask << 1 | b
    return check_int(x.j, "coset shift") << x.k | mask


def _unpack(k: int, x: int) -> CosetLabel:
    return CosetLabel(k, x >> k, tuple(x >> (k - 1 - p) & 1 for p in range(k)))


def _add_packed(k: int, x: int, y: int) -> int:
    """The group law on packed labels, canonical out: XOR of the masks, the
    shift less the popcount of their overlap, then the complement flip.
    Adding 0, the identity as (0, 0...0), canonicalizes."""
    full = (1 << k) - 1
    mask = (x ^ y) & full
    w = mask.bit_count()
    j = ((x >> k) + (y >> k) - (x & y & full).bit_count()) % k
    if j < w:
        return j << k | mask
    return (j - w) % k << k | mask ^ full


def identity_label(k: int) -> CosetLabel:
    """The base lattice itself: canonical form (0, all-ones)."""
    return canonicalize(k, 0, (1,) * k)


@lru_cache(maxsize=8)
def all_labels(k: int) -> tuple[CosetLabel, ...]:
    """All 2^(k-1) k canonical labels, sorted: `_all_packed(k)` unpacked."""
    check_int(k, "level", 2)
    bits = list(product((0, 1), repeat=k))  # bits[mask], bits[0] the top bit
    full = (1 << k) - 1
    return tuple(CosetLabel(k, x >> k, bits[x & full]) for x in _all_packed(k))


@lru_cache(maxsize=8)
def _all_packed(k: int) -> tuple[int, ...]:
    """All canonical labels of level k packed, sorted: j << k | mask for
    every j < popcount(mask)."""
    weights = [mask.bit_count() for mask in range(1 << k)]
    return tuple(j << k | mask for j in range(k) for mask, w in enumerate(weights) if j < w)


def coset_add(x: CosetLabel, y: CosetLabel) -> CosetLabel:
    """Group law on labels (`_add_packed`): bits combine by symmetric
    difference, the shift corrects by the support overlap."""
    _check_same_rank(x, y)
    return _unpack(x.k, _add_packed(x.k, _pack(x), _pack(y)))


def coset_neg(x: CosetLabel) -> CosetLabel:
    """Group inverse: (j, bits) -> (weight - j, bits), which is the coset
    (-j, ~bits): on packed labels, (1 << k) - 1 minus the label."""
    return _unpack(x.k, _add_packed(x.k, (1 << x.k) - 1 - _pack(x), 0))


def _scaled(x: CosetLabel) -> tuple[int, ...]:
    """2k times the distinguished representative of x: coordinate p is
    k b_p + 2j - w, less 2kj on the last coordinate."""
    k, j, bits = x.k, x.j, x.bits
    shift = 2 * j - sum(bits)
    out = [k * b + shift for b in bits]
    out[-1] -= 2 * k * j
    return tuple(out)


@lru_cache(maxsize=2**16)
def representative(x: CosetLabel) -> LatticeVector:
    """The distinguished coset representative in alpha coordinates."""
    den = 2 * x.k
    return LatticeVector(x.k, tuple(Fraction(c, den) for c in _scaled(x)))


@lru_cache(maxsize=8)
def _residue_table(k: int) -> dict:
    """Residues mod 2k of 2k-scaled representatives, one per label.

    The last coordinate's 2kj vanishes mod 2k.  Distinct labels have
    distinct residue tuples, which makes coset identification a lookup; a
    collision raises VerificationError.
    """
    m = 2 * k
    table = {tuple([c % m for c in _scaled(lab)]): lab for lab in all_labels(k)}
    if len(table) != len(all_labels(k)):
        raise VerificationError("representative residues collided")
    return table


def coset_of_vector(v: LatticeVector) -> CosetLabel:
    """Identify which coset of the base lattice a dual vector lies in.

    Raises InvalidInputError when v is not in the dual: the coordinate sum
    must vanish and v must pair integrally with every beta_p.
    """
    k = v.k
    check_int(k, "level", 2)
    if sum(v.coords) != 0:
        raise InvalidInputError("not a dual vector: coordinate sum is nonzero")
    scaled = []
    for c in v.coords:
        s = c * 2 * k
        if s.denominator != 1:
            raise InvalidInputError(
                f"not a dual vector: coordinate {c} has denominator "
                f"not dividing {2 * k}"
            )
        scaled.append(int(s))
    return _coset_of_scaled(k, scaled)


def _coset_of_scaled(k: int, scaled) -> CosetLabel:
    """The coset of a 2k-scaled vector with coordinate sum 0.  It pairs
    integrally with every beta_p when all coordinates agree mod k."""
    m = 2 * k
    key = tuple([s % m for s in scaled])
    r = key[0] % k
    if key.count(r) + key.count(r + k) != len(key):
        raise InvalidInputError(
            "not a dual vector: fractional pairing with a base generator"
        )
    try:
        return _residue_table(k)[key]
    except KeyError:  # unreachable once the dual checks pass
        raise VerificationError(f"no coset matches residue {key}") from None


def min_norm_data(k: int, j: int, bits) -> tuple[Fraction, int]:
    """Closed-form minimal norm and minimizer count of the coset (j, bits).

    Branches on the raw label with j reduced to [0, k): for j < weight the
    minimum is (k w - (w - 2j)^2)/2k attained C(w, j) times; for j >= weight
    it is (k(k - w) - (k + w - 2j)^2)/2k attained C(k - w, j - w) times.
    Both branches agree on the common coset under relabeling.
    """
    check_int(k, "level", 2)
    bits = check_ints(bits, "bit vector", 2, k)
    return _closed_norm(k, check_int(j, "coset shift") % k, sum(bits))


@lru_cache(maxsize=1024)
def _closed_norm(k: int, j: int, w: int) -> tuple[Fraction, int]:
    """`min_norm_data` of the label (j, bits) with j in [0, k) and w = weight(bits)."""
    if j < w:
        return Fraction(k * w - (w - 2 * j) ** 2, 2 * k), comb(w, j)
    return (
        Fraction(k * (k - w) - (k + w - 2 * j) ** 2, 2 * k),
        comb(k - w, j - w),
    )


def min_norm(x: CosetLabel) -> Fraction:
    return min_norm_data(x.k, x.j, x.bits)[0]


def minimizer_count(x: CosetLabel) -> int:
    return min_norm_data(x.k, x.j, x.bits)[1]


def check_search_level(k: int) -> None:
    """Reject a rank above the exhaustive norm search's cap."""
    check_cap("exhaustive norm search rank", k, SEARCH_MAX_LEVEL)


def min_norm_oracle(x: CosetLabel) -> tuple[Fraction, int]:
    """Minimal norm and count by exhaustive search, independent of the
    closed form.

    Every coset vector has the shape
        sum_{p in supp} (d + 1/2 - c_p) alpha_p + sum_{q notin supp} (d - c_q) alpha_q
    with d = (2j - w)/2k and integers c summing to j.  Scaled by 2k,
    coordinate p is u + k(b_p - 2c_p) with u = 2j - w, and when the c sum
    to j the squares add up to k^2 Q - k u^2, Q = sum_p (b_p - 2c_p)^2.  So
    the search does not depend on j: `_norm_search` minimizes Q over the
    window c_p in [-2, 3], and the norm is (k Q - u^2)/2k.  The window is
    asserted, not assumed: the best tuple touching the window boundary must
    be strictly worse than the optimum, otherwise a VerificationError
    reports the clipping.
    """
    k, j, bits = x.k, x.j, x.bits
    check_search_level(k)
    return _searched_norm(k, j, bits, _norm_search(bits, j, j))


def _norm_search(bits, lo: int, hi: int) -> dict[int, tuple[int, int, int | None]]:
    """For each final sum s in [lo, hi] that the window reaches: the least
    Q = sum_p (b_p - 2c_p)^2 over the tuples c in `_WINDOW` with sum s, the
    number of tuples attaining it, and the least Q over the tuples with an
    entry at an end of the window (None when there is none).

    Dynamic programming on partial sums, slot by slot in the order of
    `bits`.  A partial sum that cannot reach [lo, hi] in the m slots left,
    one outside [lo - 3m, hi + 2m] for the window [-2, 3], is dropped."""
    first, last = _WINDOW[0], _WINDOW[-1]
    states: dict[int, tuple[int, int, int | None]] = {0: (0, 1, None)}
    left = len(bits)
    for b in bits:
        left -= 1
        low, high = lo - last * left, hi - first * left
        moves = [(c, (b - 2 * c) ** 2, c in (first, last)) for c in _WINDOW]
        fresh: dict[int, tuple[int, int, int | None]] = {}
        for s, (best, count, edge) in states.items():
            for c, f, on_edge in moves:
                s2 = s + c
                if s2 < low or s2 > high:
                    continue
                cost = best + f
                e2 = cost if on_edge else (edge + f if edge is not None else None)
                if s2 not in fresh:
                    fresh[s2] = (cost, count, e2)
                    continue
                b2, n2, old_edge = fresh[s2]
                if cost < b2:
                    b2, n2 = cost, count
                elif cost == b2:
                    n2 += count
                if e2 is not None and (old_edge is None or e2 < old_edge):
                    old_edge = e2
                fresh[s2] = (b2, n2, old_edge)
        states = fresh
    return states


def _searched_norm(k: int, j: int, bits, states) -> tuple[Fraction, int]:
    """The minimal norm (k Q - u^2)/2k and count of the label (j, bits), u =
    2j - weight, from `_norm_search` states that cover the sum j; the
    clipping test compares Q with the least boundary-touching Q."""
    best, count, edge = states[j]
    if edge is not None and edge <= best:
        raise VerificationError(
            f"search window clipped a minimizer for rank {k}, label ({j}, {bits})"
        )
    u = 2 * j - sum(bits)
    return Fraction(k * best - u * u, 2 * k), count


@dataclass(frozen=True)
class ProductCoset:
    """A coset of the ell-fold product of base lattices: one label per factor."""

    k: int
    labels: tuple[CosetLabel, ...]

    @property
    def ell(self) -> int:
        return len(self.labels)

    @classmethod
    def from_word(cls, k: int, word: Codeword) -> "ProductCoset":
        """Pure form: factor r is the coset (word_r, zero bits)."""
        word = check_ints(word, "codeword", k)
        return cls(k, tuple(canonicalize(k, p, (0,) * k) for p in word))

    @classmethod
    def from_tail(cls, k: int, eta, delta) -> "ProductCoset":
        """Tail form: factor r is the coset (eta_r, (0,...,0,delta_r))."""
        eta, delta = tuple(eta), tuple(check_int(d, "tail bit", 0, 1) for d in delta)
        if len(eta) != len(delta):
            raise InvalidInputError("eta and delta must have equal length")
        return cls(
            k,
            tuple(
                canonicalize(k, e, (0,) * (k - 1) + (d,))
                for e, d in zip(eta, delta)
            ),
        )

    def __add__(self, other: "ProductCoset") -> "ProductCoset":
        _check_same_shape(self, other)
        return ProductCoset(
            self.k,
            tuple(coset_add(a, b) for a, b in zip(self.labels, other.labels)),
        )


def _check_same_shape(x: ProductCoset, y: ProductCoset) -> None:
    if x.k != y.k or x.ell != y.ell:
        raise InvalidInputError("product coset shape mismatch")


def pairing(x, y) -> Fraction:
    """Fractional pairing between two cosets, as a Fraction in [0, 1).

    Well defined because dual vectors pair integrally with the base lattice;
    computed from the 2k-scaled representatives over 2k^2.  Accepts two
    CosetLabels or two ProductCosets of matching shape.
    """
    if isinstance(x, CosetLabel) and isinstance(y, CosetLabel):
        _check_same_rank(x, y)
        pairs = ((x, y),)
    elif isinstance(x, ProductCoset) and isinstance(y, ProductCoset):
        _check_same_shape(x, y)
        pairs = zip(x.labels, y.labels)
    else:
        raise InvalidInputError(
            "pairing needs two CosetLabels or two ProductCosets"
        )
    den = 2 * x.k * x.k
    total = sum(a * b for u, v in pairs for a, b in zip(_scaled(u), _scaled(v)))
    return Fraction(total % den, den)


@dataclass(frozen=True)
class CodeLattice:
    """Summary of the lattice glued from a code: parity and discriminant."""

    code: Code
    parity: str  # "even" | "odd"
    discriminant_order: int
    invariant_factors: tuple[int, ...] | None = None


def _scaled_word(k: int, word: Codeword) -> list[int]:
    """The 2k-scaled representatives of the pure cosets of word, joined."""
    return [c for lab in ProductCoset.from_word(k, word).labels for c in _scaled(lab)]


def build_code_lattice(code: Code, verify: bool = False) -> CodeLattice:
    """Assemble the union-of-cosets lattice attached to a classified code.

    Case A gives an even lattice, Case B an odd one; anything else is not a
    lattice and raises UnsupportedCodeError.  The discriminant group has
    order (2^(k-1) k)^ell / |D|^2.  With verify=True an independent basis
    is computed (integer Hermite form of the scaled generators), its Gram
    matrix is put into Smith normal form, and the diagonal product is
    checked against the index formula; the nontrivial invariant factors are
    returned on the result.
    """
    if code.case is Case.UNSUPPORTED:
        raise UnsupportedCodeError(
            "the code is neither even nor half-period; no lattice is attached"
        )
    k, ell = code.k, code.ell
    group_order = (2 ** (k - 1) * k) ** ell
    if group_order % (code.size**2):
        raise VerificationError(
            "discriminant formula produced a non-integer"
        )
    disc = group_order // (code.size**2)
    parity = "even" if code.case is Case.A else "odd"

    den = 2 * k * k
    reps = {g: _scaled_word(k, g) for g in code.generators}
    for g, rep in reps.items():
        norm = Fraction(sum(a * a for a in rep), den)
        if norm.denominator != 1:
            raise VerificationError(f"generator {g} has fractional norm {norm}")
        want_odd = inner(g, g, k) != 0
        if int(norm) % 2 != (1 if want_odd else 0):
            raise VerificationError(
                f"norm parity of generator {g} contradicts its classification"
            )
    for g in code.generators:
        for h in code.generators:
            val = Fraction(sum(a * b for a, b in zip(reps[g], reps[h])), den)
            if val.denominator != 1:
                raise VerificationError(
                    f"generators {g}, {h} pair fractionally: {val}"
                )

    factors: tuple[int, ...] | None = None
    if verify:
        factors = _discriminant_by_smith_form(code, disc)
    return CodeLattice(code, parity, disc, factors)


def _discriminant_by_smith_form(code: Code, expected: int) -> tuple[int, ...]:
    """Independent discriminant computation from an explicit basis."""
    k, ell = code.k, code.ell
    scale = 2 * k
    rows: list[list[int]] = []
    for r in range(ell):
        for p in range(1, k):
            base = [0] * (ell * k)
            base[r * k + p - 1] = scale
            base[r * k + p] = -scale
            rows.append(base)
    rows.extend(_scaled_word(k, g) for g in code.generators)
    basis = _hermite_rows(rows)
    rank = ell * (k - 1)
    if len(basis) != rank:
        raise VerificationError(
            f"computed basis has rank {len(basis)}, expected {rank}"
        )
    gram: list[list[int]] = []
    for u in basis:
        line = []
        for v in basis:
            val = Fraction(2 * sum(a * b for a, b in zip(u, v)), scale**2)
            if val.denominator != 1:
                raise VerificationError("basis Gram matrix is not integral")
            line.append(int(val))
        gram.append(line)
    diag = _smith_diagonal(gram)
    order = prod(diag)
    if order != expected:
        raise VerificationError(
            f"Smith-form discriminant {order} != index formula {expected}"
        )
    return tuple(d for d in diag if d != 1)


def _smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix, zeros left
    out.  Row Hermite forms of the matrix and of its transpose, in turn,
    make it diagonal (Kannan and Bachem, SIAM J. Comput. 8, 1979): each
    pass leaves the rows already cleared alone and shrinks the first pivot
    that does not divide its row."""
    m = _hermite_rows(matrix)
    while any(v for r, row in enumerate(m) for c, v in enumerate(row) if r != c):
        m = _hermite_rows([list(col) for col in zip(*m)])
    diag = [abs(m[i][i]) for i in range(len(m))]
    # enforce the divisibility chain
    for a in range(len(diag)):
        for b in range(a + 1, len(diag)):
            x, y = diag[a], diag[b]
            if y % x:
                g = gcd(x, y)
                diag[a], diag[b] = g, x * y // g
    return diag


def dual_membership(eta, delta, code: Code) -> bool:
    """Whether the tail-form coset (eta, delta) pairs integrally with the
    whole code lattice; by bilinearity the generators decide."""
    tail = ProductCoset.from_tail(code.k, eta, delta)
    return all(
        pairing(ProductCoset.from_word(code.k, g), tail) == 0
        for g in code.generators
    )
