"""Labelled polygons, admissible arcs, and the three generic decompositions.

This walks the worked six-gon example: plain, symplectic and orthogonal
modes differ exactly by the pairing substitutions at the two poles.
"""

from symquiv import (admissible_arcs, canonical_decomposition, families,
                     generic_decomposition, null_root, tau_orbits)

sq = families.a11(0, 6)
orbits = tau_orbits(sq)
poly = orbits.polygons[0]
h = null_root(sq.base)

d = h.scale(2)
for i, lab in {0: 2, 3: 2, 2: 3, 4: 3}.items():
    d = d + poly.dims[i].scale(lab)

dec = canonical_decomposition(sq, d)
print("p =", dec.p, " labels =", dec.labelled[0].labels)
print("arcs:")
for arc in admissible_arcs(dec.labelled[0]):
    print("  [%d..%d] length %d index %d multiplicity %d%s" %
          (arc.start, arc.end, arc.length, arc.ind, arc.q,
           " (symmetric)" if arc.symmetric else ""))

for mode in ("plain", "sp", "o"):
    print("\n%s decomposition:" % mode)
    for dim, mult in generic_decomposition(sq, d, mode):
        print("  %s x%d" % (dim, mult))
