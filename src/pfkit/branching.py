"""Branching data: minimal-model weights and the splitting of coset modules.

A coset module of the rank-(k-1) base lattice decomposes over a chain of
k - 1 Virasoro minimal models times the parafermion algebra.  The m-th
minimal model has central charge c_m = 1 - 6/((m+2)(m+3)) and highest
weights

    h^m_{r,s} = ((r(m+3) - s(m+2))^2 - 1) / (4(m+2)(m+3)),

1 <= r <= m+1, 1 <= s <= m+2, with the Kac symmetry
(r, s) ~ (m+2-r, m+3-s).  The coset labeled (j, bits) splits into
components indexed by integer tuples (i_1, ..., i_k) with 0 <= i_s <= s and
i_s = b_s (mod 2), b_s the partial bit sum; the component carries Virasoro
weights h^s_{i_s+1, i_{s+1}+1} for s < k and the parafermion label
(i_k, j + (i_k - b_k)/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm, prod

from .errors import (
    InvalidInputError,
    VerificationError,
    check_bits,
    check_cap,
    check_level,
    check_numerator,
    check_tail_bit,
)
from .parafermion import PfLabel, pf_canonicalize, pf_weight, presentations

BRANCH_MAX_LEVEL = 10


@dataclass(frozen=True, order=True)
class VirasoroLabel:
    """Canonical Kac label 1 <= s <= r <= m+1; construct via vir_canonicalize."""

    m: int
    r: int
    s: int

    @property
    def weight(self) -> Fraction:
        return vir_h(self.m, self.r, self.s)


def _check_kac(m: int, r: int = 1, s: int = 1) -> None:
    """Reject a minimal-model index m < 1, or (r, s) outside its Kac table."""
    if not isinstance(m, int) or m < 1:
        raise InvalidInputError(f"minimal-model index must be >= 1, got {m!r}")
    if not 1 <= r <= m + 1:
        raise InvalidInputError(f"row must lie in [1, {m + 1}], got {r}")
    if not 1 <= s <= m + 2:
        raise InvalidInputError(f"column must lie in [1, {m + 2}], got {s}")


def vir_c(m: int) -> Fraction:
    """Central charge of the m-th unitary minimal model."""
    _check_kac(m)
    return 1 - Fraction(6, (m + 2) * (m + 3))


@lru_cache(maxsize=4096, typed=True)
def vir_h(m: int, r: int, s: int) -> Fraction:
    """Kac-table highest weight h^m_{r,s}; exact."""
    _check_kac(m, r, s)
    return Fraction((r * (m + 3) - s * (m + 2)) ** 2 - 1, 4 * (m + 2) * (m + 3))


def vir_canonicalize(m: int, r: int, s: int) -> VirasoroLabel:
    """Fold the Kac symmetry so that 1 <= s <= r <= m + 1."""
    _check_kac(m, r, s)
    if s <= r:
        return VirasoroLabel(m, r, s)
    return VirasoroLabel(m, m + 2 - r, m + 3 - s)


@dataclass(frozen=True)
class BranchComponent:
    """One summand of a coset-module decomposition.

    `indices` keeps the raw tuple (i_1, ..., i_k); `virasoro` holds the
    canonicalized Kac labels of the k - 1 minimal-model factors.
    """

    indices: tuple[int, ...]
    virasoro: tuple[VirasoroLabel, ...]
    pf: PfLabel
    weight: Fraction


def weight_den(k: int) -> int:
    """Common denominator of every branching weight at rank k: the lcm of the
    parafermion denominator 2k(k+2) and each 4(s+2)(s+3), 1 <= s < k."""
    return lcm(2 * k * (k + 2), *(4 * (s + 2) * (s + 3) for s in range(1, k)))


def _step_choices(bits: tuple[int, ...]) -> tuple[range, ...]:
    """Allowed values of i_1, ..., i_k: i_s = b_s (mod 2), 0 <= i_s <= s,
    b_s the partial bit sum."""
    return tuple(range(b % 2, s + 2, 2) for s, b in enumerate(accumulate(bits)))


def component_count(k: int, bits) -> int:
    """Number of components of any coset with these bits, without building
    them: the product of the allowed values per index."""
    check_level(k)
    return prod(len(c) for c in _step_choices(check_bits(k, bits)))


def _walk(k: int, j: int, bits, kac):
    """The components of the coset module (j, bits) as a function `rows`
    whose every call yields them afresh, as rows (indices, Kac entries,
    weight numerator over `weight_den(k)`, PfLabel), in lexicographic index
    order: each prefix (i_1, ..., i_s) is extended by the allowed i_{s+1} in
    increasing order.

    Every check runs before `_walk` returns: the level, the rank cap,
    `check_bits`, and `check_numerator` on each step and tail.  So do the
    calls `kac(s, i_s + 1, i_{s+1} + 1)`, which build each step's Kac entry
    once, and each tail, built once per i_k.  The rows share them.  The last
    step is merged with the tail, and a call of `rows` holds only the
    prefixes up to i_{k-1}: the rows themselves are yielded one at a time.
    Capped at rank 10; the count grows like prod(s/2).
    """
    check_level(k)
    check_cap("branching rank", k, BRANCH_MAX_LEVEL)
    bits = check_bits(k, bits)
    choices = _step_choices(bits)
    den = weight_den(k)
    # per step s, i_s -> [(i_{s+1}, Kac entry, h numerator)]
    steps = [
        {
            a: [(b, kac(s, a + 1, b + 1), check_numerator(vir_h(s, a + 1, b + 1), den)) for b in choices[s]]
            for a in choices[s - 1]
        }
        for s in range(1, k)
    ]
    w = sum(bits)
    tail = {}  # i_k -> (weight numerator, parafermion label)
    for i in choices[-1]:
        pf = pf_canonicalize(k, i, j + (i - w) // 2)
        tail[i] = (check_numerator(pf_weight(k, pf.i, pf.j), den), pf)
    # i_{k-1} -> [(i_k, Kac entry, step and tail numerator, parafermion label)]
    last = {
        a: [(b, lab, h + tail[b][0], tail[b][1]) for b, lab, h in entries]
        for a, entries in steps.pop().items()
    }

    def rows():
        walk = [((i,), (), 0) for i in choices[0]]
        for step in steps:
            walk = [
                (tup + (b,), vir + (lab,), hnum + h)
                for tup, vir, hnum in walk
                for b, lab, h in step[tup[-1]]
            ]
        for tup, vir, hnum in walk:
            for b, lab, h, pf in last[tup[-1]]:
                yield tup + (b,), vir + (lab,), hnum + h, pf

    return rows


def branch(k: int, j: int, bits) -> tuple[BranchComponent, ...]:
    """All components of the coset module labeled (j, bits), in `_walk`
    order; they share their Kac labels, pf labels and weight Fractions."""
    rows = tuple(_walk(k, j, bits, vir_canonicalize)())
    den = weight_den(k)
    weights = {num: Fraction(num, den) for num in {row[2] for row in rows}}
    return tuple(BranchComponent(tup, vir, pf, weights[num]) for tup, vir, num, pf in rows)


def branch_tail(k: int, j: int, d: int) -> tuple[tuple[VirasoroLabel, PfLabel], ...]:
    """Last-factor specialization: components of the coset (j, (0,...,0,d))
    visible as pairs (h^{k-1}_{1, i+1}, parafermion (i, j + (i-d)/2)) over
    i = d (mod 2), 0 <= i <= k.  No rank cap; the list has ~k/2 entries."""
    check_level(k)
    check_tail_bit(d)
    return tuple(
        (
            vir_canonicalize(k - 1, 1, i + 1),
            pf_canonicalize(k, i, j + (i - d) // 2),
        )
        for i in range(k + 1)
        if i % 2 == d
    )


def locate_pf(x: PfLabel, d: int) -> int:
    """The shift eta such that x occurs in the coset (eta, (0,...,0,d)).

    Uses the lexicographically smallest representative of the class of x
    whose first index matches the parity of d; when k is even and no
    representative matches, the parity obstruction is reported as an error.
    """
    check_tail_bit(d)
    k = x.k
    for i, j in sorted(presentations(x)):
        if i % 2 == d:
            eta = (j - (i - d) // 2) % k
            if not any(pf == x for _, pf in branch_tail(k, eta, d)):
                raise VerificationError(
                    f"{x} is missing from the tail coset ({eta}, (0,...,0,{d}))"
                )
            return eta
    raise InvalidInputError(
        f"no representative of {x} matches tail parity {d} at even rank {k}"
    )
