"""An explicit one-parameter family of Borel subgroups of SL3 in generic position.

Fix the upper-triangular Borel P (flag <e1> < <e1,e2>), the lower-triangular
Borel P' (flag <e3> < <e2,e3>), and for a scalar t the Borel P^t stabilizing
the flag <v> < V_t with v = e1 + e2 + e3 and V_t the plane
-t*x + (1+t)*y - z = 0.  The triple of flags of (P, P', P^t) is in generic
position for every t outside {0, -1}; at t = 0 the plane V_0 contains e1 (so
P and P^0 are not transverse) and at t = -1 it contains e2 (so the three pair
apartments share the ideal vertex <e2>).

The diagonalizable subgroup P meet P^1 is the two-parameter matrix family
A_(a,e) below; (a, e) -> A_(a,e) is a group homomorphism and each member
stabilizes both defining flags.  Everything here is exact over Q; the
lower-triangular analogue and the exhaustive cross-checks over prime fields
F_q are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic_linalg import (
    adjugate3,
    dot,
    mat_vec,
    primitive_vector,
    transpose,
)
from .boundary import Flag, apartment_from_opposite, is_opposite
from .triples import (
    ChamberTriple,
    apartment_ideal_simplices,
    is_generic,
)


SPAN_VECTOR = (1, 1, 1)


def family_plane_normal(t):
    """Normal vector of V_t = {-t*x + (1+t)*y - z = 0}."""
    t = Fraction(t)
    return (-t, 1 + t, Fraction(-1))


def upper_flag():
    """The flag <e1> < <e1, e2> stabilized by the upper-triangular Borel."""
    return Flag.standard()


def lower_flag():
    """The flag <e3> < <e2, e3> stabilized by the lower-triangular Borel."""
    return Flag.reversed_standard()


def family_flag(t):
    """The flag <v> < V_t of the parameter-t Borel; degenerate t still gives
    a flag, since v lies on V_t and the normal of V_t is never zero."""
    return Flag(primitive_vector(SPAN_VECTOR),
                primitive_vector(family_plane_normal(t)))


def torus_family_member(a, e):
    """The matrix A_(a,e) of the diagonalizable group P meet P^1.

    Requires a*e != 0; the member has determinant 1 and stabilizes both the
    upper flag and the t = 1 family flag.  (a, e) -> A_(a,e) is a
    homomorphism from the multiplicative group of pairs.
    """
    a, e = Fraction(a), Fraction(e)
    if a * e == 0:
        raise ValueError("parameters must be nonzero")
    i = 1 / (a * e)
    return ((a, 2 * e - 2 * a, i - 2 * e + a),
            (0, e, i - e),
            (0, 0, i))


# ---------------------------------------------------------------------------
# stabilization predicates
# ---------------------------------------------------------------------------

def stabilizes_line(m, v):
    w = mat_vec(m, v)
    return all(w[i] * v[j] == w[j] * v[i] for i in range(3) for j in range(3))


def stabilizes_plane(m, normal):
    """Whether m maps the plane with this normal to itself.

    m must be invertible: normals move by the cofactor matrix
    transpose(adj(m)), a multiple of the inverse transpose, as in
    ``Flag.apply``.
    """
    return stabilizes_line(transpose(adjugate3(m)), normal)


def stabilizes_flag(m, flag):
    return stabilizes_line(m, flag.line) and stabilizes_plane(m, flag.plane_normal)


# ---------------------------------------------------------------------------
# position reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairPosition:
    pair: tuple
    opposite: bool
    # for opposite pairs: common ideal simplices of this pair's apartment
    # with the apartment of the base opposite pair
    intersection_with_base: object | None


@dataclass(frozen=True)
class PositionReport:
    t: object
    pairs: tuple
    line_in_plane_witnesses: tuple
    generic: bool


def pairwise_position_report(t):
    """Oppositions and apartment intersections for the parameter-t triple.

    The base pair is (upper, lower); for each pair involving the family flag
    the report includes the exact common ideal simplices of its apartment
    with the base apartment.  Degeneracies come with witnesses: e1 lies on
    V_0 and e2 lies on V_(-1).
    """
    t = Fraction(t)
    cu, cl, cf = upper_flag(), lower_flag(), family_flag(t)
    base_frame = apartment_from_opposite(cu, cl)
    base_simplices = apartment_ideal_simplices(base_frame)
    pairs = []
    for name, a, b in (("upper,lower", cu, cl),
                       ("upper,family", cu, cf),
                       ("lower,family", cl, cf)):
        opp = is_opposite(a, b)
        inter = None
        if opp and name != "upper,lower":
            frame = apartment_from_opposite(a, b)
            inter = apartment_ideal_simplices(frame).intersection(base_simplices)
        elif opp:
            inter = base_simplices
        pairs.append(PairPosition((name,), opp, inter))
    n = family_plane_normal(t)
    witnesses = (("e1_on_plane", dot(n, (1, 0, 0)) == 0),
                 ("e2_on_plane", dot(n, (0, 1, 0)) == 0),
                 ("e3_on_plane", dot(n, (0, 0, 1)) == 0))
    generic = False
    if all(pp.opposite for pp in pairs):
        generic = is_generic(ChamberTriple.of(cu, cl, cf))
    return PositionReport(t, tuple(pairs), witnesses, generic)


def generic_family_scan(t_values):
    """Genericity verdict of the flag triple for each parameter."""
    return {t: pairwise_position_report(t).generic for t in t_values}
