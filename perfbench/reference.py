"""Fixed pure-Python work that the benchmark times between pfkit jobs.

It uses none of pfkit, so no change to pfkit moves its time: only the
machine's speed does.  Its mix is pfkit's: frozen dataclass labels, tuples
in a set, a sort and exact Fraction sums, in a fresh interpreter.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, order=True)
class Label:
    i: int
    j: int


def main() -> None:
    n = 15
    labels = [Label(i, j) for i in range(n) for j in range(i + 1)]
    triples = set()
    total = Fraction(0)
    for a in labels:
        for b in labels:
            c = Label((a.i + b.i) % n, (a.j + b.j) % (a.i + b.i + 1))
            triples.add((a, b, c))
            total += Fraction(c.j + 1, c.i + 2)
    print(len(sorted(triples)), total)


if __name__ == "__main__":
    main()
