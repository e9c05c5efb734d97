"""
Generic triples of chambers and their barycenters
=================================================

Three pairwise-opposite chambers span three apartments; the triple is generic
when those apartments share no ideal simplex at infinity.  The sum of
distances to the three apartments is then a proper convex function whose
vertex minimizers form a finite set, computed here with a certified search,
and the set transports exactly under the group.

The explicit one-parameter Borel family gives an uncountable supply of
generic triples with exactly two exceptional parameters.
"""

from sl3building import (
    ChamberTriple,
    apartment_infinity_intersection,
    barycenter,
)
from sl3building.boundary import apartment_from_opposite
from sl3building.dynamics import GroupElement
from sl3building.parabolics import (
    family_flag,
    generic_family_scan,
    lower_flag,
    pairwise_position_report,
    torus_family_member,
    upper_flag,
)
from sl3building.building import standard_vertex

p = 5

# scan the family: generic away from t in {0, -1}
scan = generic_family_scan([1, 2, 3, 5, -2, 7, 0, -1])
print("genericity by parameter:", scan)

# at t = 0 the plane contains e1, so the upper pair is not even opposite;
# at t = -1 all pairs are opposite yet the apartments share the vertex <e2>
for t in (0, -1):
    rep = pairwise_position_report(t)
    print(f"t = {t}: oppositions =",
          {pp.pair[0]: pp.opposite for pp in rep.pairs},
          " witnesses =", dict(rep.line_in_plane_witnesses))

# the apartments of (upper, lower) and (upper, family t=1) meet at infinity
# in exactly the upper chamber and its faces
base = apartment_from_opposite(upper_flag(), lower_flag())
fam = apartment_from_opposite(upper_flag(), family_flag(1))
inter = apartment_infinity_intersection(base, fam)
print("\ncommon ideal simplices with the base apartment:")
print("    lines:", set(inter.lines), " planes:", set(inter.planes),
      " chambers:", len(inter.chambers))

# the diagonalizable group between the upper Borel and the t=1 Borel
A = torus_family_member(2, 3)
print("\nA_(2,3) =", [[str(e) for e in row] for row in A])

# the barycenter of the t = 1 triple is the standard vertex, certified
T = ChamberTriple.of(upper_flag(), lower_flag(), family_flag(1))
res = barycenter(T, p)
print("\nbarycenter of the t=1 triple:")
print("    certified:", res.certified, " min value:", res.min_value)
print("    minimizing vertex =", next(iter(res.min_vertices)).matrix)
print("    equals the standard vertex:",
      res.min_vertices == frozenset({standard_vertex(p)}))

# equivariance: transporting the triple transports the minimizer set
g = GroupElement.from_matrix(((1, 2, 1), (0, 1, 3), (0, 0, 1)))
res_g = barycenter(T.apply(g.matrix), p)
moved = frozenset(v.apply(g.matrix) for v in res.min_vertices)
print("\ntransport by a unipotent is exact:", moved == res_g.min_vertices)
