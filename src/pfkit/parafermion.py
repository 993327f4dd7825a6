"""Label data for the parafermion algebra of sl2 at level k.

Irreducible modules are labeled by pairs (i, j) with 0 <= i <= k and j taken
mod k, subject to the identification (i, j) ~ (k - i, j - i).  The canonical
label set {(i, j) : 0 <= j < i <= k} has k(k+1)/2 members; the vacuum is
(k, 0).  Simple currents are the classes of (0, p), they fuse cyclically by
p . (i, j) = (i, j + p), and the whole dictionary -- conformal weights, the
fractional monodromy of a simple current against a module, the reflection
involution (i, j) -> (i, i - j) -- is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import check_int

SimpleCurrent = int


@dataclass(frozen=True, order=True)
class PfLabel:
    """Canonical module label; construct via pf_canonicalize."""

    k: int
    i: int
    j: int

    @property
    def weight(self) -> Fraction:
        return pf_weight(self.k, self.i, self.j)

    def __str__(self) -> str:
        return f"({self.i},{self.j})"


def pf_canonicalize(k: int, i: int, j: int) -> PfLabel:
    """Canonical representative of the class of (i, j).

    Reduces j mod k, then applies (i, j) -> (k - i, j - i) when j >= i.
    The result always satisfies 0 <= j < i <= k.
    """
    check_int(k, "level", 2)
    check_int(i, "first label index", 0, k)
    j = check_int(j, "second label index") % k
    if j < i:
        return PfLabel(k, i, j)
    return PfLabel(k, k - i, j - i)


@lru_cache(maxsize=4096, typed=True)
def pf_weight(k: int, i: int, j: int) -> Fraction:
    """Conformal weight of the module labeled (i, j).

    On the canonical label (i, j), 0 <= j < i <= k, the numerator is
        P(i, j) = k(i - 2j) - (i - 2j)^2 + 2k(i - j + 1)j
    over 2k(k + 2).
    """
    x = pf_canonicalize(k, i, j)
    t = x.i - 2 * x.j
    num = k * t - t * t + 2 * k * (x.i - x.j + 1) * x.j
    return Fraction(num, 2 * k * (k + 2))


def sc_weight(k: int, p: int) -> Fraction:
    """Conformal weight p(k - p)/k of the simple current indexed by p mod k."""
    check_int(k, "level", 2)
    p = check_int(p, "simple current") % k
    return Fraction(p * (k - p), k)


def sc_label(k: int, p: int) -> PfLabel:
    """Canonical label of the simple current indexed by p mod k."""
    check_int(k, "level", 2)
    return pf_canonicalize(k, 0, check_int(p, "simple current"))


def vacuum(k: int) -> PfLabel:
    check_int(k, "level", 2)
    return PfLabel(k, k, 0)


def presentations(x: PfLabel) -> set[tuple[int, int]]:
    """The two raw pairs (i, j) and (k - i, j - i mod k) naming the class of x."""
    return {(x.i, x.j), (x.k - x.i, (x.j - x.i) % x.k)}


def sc_fuse(p: int, x: PfLabel) -> PfLabel:
    """Fusion of the simple current p with the module x: (i, j) -> (i, j + p)."""
    return pf_canonicalize(x.k, x.i, x.j + check_int(p, "simple current"))


def pf_b(p: int, x: PfLabel) -> Fraction:
    """Fractional monodromy of the simple current p against x, in [0, 1).

    Closed form p(i - 2j)/k mod 1; equals h(fusion) - h(current) - h(x)
    mod 1.
    """
    check_int(x.k, "level", 2)
    check_int(p, "simple current")
    return Fraction((p * (x.i - 2 * x.j)) % x.k, x.k)


def theta_act(x: PfLabel) -> PfLabel:
    """Involution (i, j) -> (i, i - j) induced by the -1 lattice isometry."""
    return pf_canonicalize(x.k, x.i, x.i - x.j)


def pf_fixed(p: int, x: PfLabel) -> bool:
    """Whether fusing with the simple current p leaves the class of x fixed.

    True exactly when p = 0 mod k, or k is even, p = k/2 mod k and i = k/2.
    """
    check_int(x.k, "level", 2)
    p = check_int(p, "simple current") % x.k
    if p == 0:
        return True
    return x.k % 2 == 0 and p == x.k // 2 and x.i == x.k // 2


def central_charge(k: int) -> Fraction:
    """Central charge 2(k - 1)/(k + 2) of one parafermion factor."""
    check_int(k, "level", 2)
    return Fraction(2 * (k - 1), k + 2)


def irr_count(k: int) -> int:
    """Number of irreducible modules: k(k + 1)/2."""
    check_int(k, "level", 2)
    return k * (k + 1) // 2


@lru_cache(maxsize=8)
def all_labels(k: int) -> tuple[PfLabel, ...]:
    """All canonical labels, sorted: (i, j) with 0 <= j < i <= k."""
    check_int(k, "level", 2)
    return tuple(
        PfLabel(k, i, j) for i in range(1, k + 1) for j in range(i)
    )
