"""Count the irreducible modules of one even extension.

Level 4 with the order-two code: the labels fall into fusion orbits, each
orbit carries a character of the code, and the induced module from an
orbit splits according to its stabilizer.  The totals here match the
rank-one lattice vertex algebra this extension happens to equal.
"""

from pfkit import irr_count, span
from pfkit.modules import (
    character_of,
    characters,
    count_twisted,
    induced_decomposition,
    orbits,
    realize,
)

code = span(((2,),), 4, 1)
print("code:", sorted(code.words), "->", code.case.value)

orbit_list = orbits(code)
print(f"{len(orbit_list)} fusion orbits of the {irr_count(4)} parafermion labels")
print()

for orbit in orbit_list:
    rep = orbit.representative
    members = ", ".join(f"({f.i},{f.j})" for x in orbit.members
                        for f in x.factors)
    report = induced_decomposition(orbit)
    print(f"orbit [{members}] size={orbit.size}"
          f" stab={len(orbit.stabilizer)}"
          f" char={'trivial' if orbit.character.trivial else 'signed'}"
          f" -> {report.num_irreducibles} irreducible(s),"
          f" multiplicity {report.multiplicity} ({report.regime.value})")

print()
for chi in characters(code):
    kind = "untwisted" if chi.trivial else "twisted"
    print(f"{kind} modules: {count_twisted(code, chi)}")

# realization: a label lives inside the lattice extension exactly when
# its character is trivial
print()
for orbit in orbit_list:
    rep = orbit.representative
    coset, member = realize(rep, code)
    assert member == character_of(rep, code).trivial
    f = rep.factors[0]
    print(f"({f.i},{f.j}) realized in the extension: {member}")
