"""Vertices, apartments and residues of the affine building of SL3 over Q_p.

A vertex is a homothety class of rank-3 Z_(p)-lattices in Q^3, stored in the
canonical upper-triangular form of ``padic_linalg.lattice_canonical``.  A
frame (three independent lines) determines an apartment; its vertices are the
classes of the lattices spanned by p-power multiples of the frame vectors.
Vector distances live in the dominant cone and the CAT(0) metric is handled
through exact squared values: for a dominant triple (a1, a2, 0) the squared
distance is a1^2 - a1*a2 + a2^2, the Eisenstein norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .padic_linalg import (
    SingularMatrixError,
    adjugate3,
    columns,
    cross,
    det3,
    dot,
    flag_adapted_basis,
    from_columns,
    identity,
    integerize,
    mat_inv3,
    mat_mul,
    mat_vec,
    lattice_canonical,
    primitive_vector,
    require_prime,
    residue_germ_parts,
    smith_exponents,
    strip_p_content,
    transpose,
    valuation_int,
)


class IrregularSegmentError(ValueError):
    """Raised when a residue alcove is requested for a non-regular segment."""


# ---------------------------------------------------------------------------
# dominant vectors
# ---------------------------------------------------------------------------

def dominant(triple):
    """Dominance-sort and homothety-normalize an exponent triple."""
    a = sorted(triple, reverse=True)
    return (a[0] - a[2], a[1] - a[2], 0)


def is_regular(lam):
    """Strictly dominant: a1 > a2 > a3."""
    return lam[0] > lam[1] > lam[2]


def opposition_involution(lam):
    """The dominant representative of w0(-lam); for (a1, a2, 0) this is (a1, a1-a2, 0)."""
    return dominant(tuple(-a for a in lam))


def weyl_dist2(lam):
    """Exact squared CAT(0) length of a dominant vector, unit edge normalization."""
    s = sum(lam)
    return (3 * sum(a * a for a in lam) - s * s) // 2


def is_colinear_growth(lam):
    """True when lam = (2t, t, 0): the direction that meets every wall equally."""
    return lam[2] == 0 and lam[0] == 2 * lam[1]


# ---------------------------------------------------------------------------
# vertices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeVertex:
    """Homothety class of Z_(p)-lattices, canonical-form representative."""

    p: int
    matrix: tuple

    @classmethod
    def from_matrix(cls, p, m):
        require_prime(p)
        return cls(p, lattice_canonical(m, p))

    @classmethod
    def standard(cls, p):
        require_prime(p)
        return cls(p, identity())

    def apply(self, g):
        """Image of this vertex under a matrix acting on Q^3."""
        return LatticeVertex.from_matrix(self.p, mat_mul(g, self.matrix))

    @property
    def det_exponent(self):
        return valuation_int(det3(self.matrix), self.p)

    @property
    def vertex_type(self):
        return self.det_exponent % 3


def standard_vertex(p):
    return LatticeVertex.standard(p)


def relative_position_matrix(x, y):
    """Change-of-basis matrix from the lattice of x to the lattice of y."""
    return mat_mul(mat_inv3(x.matrix), y.matrix)


def vector_distance(x, y):
    """Dominant exponent triple theta(x, y) of the elementary divisors from x to y."""
    if x.matrix == y.matrix:
        return (0, 0, 0)
    return dominant(smith_exponents(relative_position_matrix(x, y), x.p))


def dist2(x, y):
    """Exact squared CAT(0) distance between two vertices."""
    return weyl_dist2(vector_distance(x, y))


# ---------------------------------------------------------------------------
# frames and apartments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """Unordered triple of independent lines in Q^3; determines an apartment."""

    lines: tuple

    @classmethod
    def from_lines(cls, vectors):
        prims = sorted(primitive_vector(v) for v in vectors)
        m = from_columns(prims)
        if det3(m) == 0:
            raise SingularMatrixError("frame lines must be independent")
        return cls(tuple(prims))

    def matrix(self, order=(0, 1, 2)):
        return from_columns(tuple(self.lines[i] for i in order))

    def apply(self, g):
        return Frame.from_lines(tuple(
            tuple(sum(row[k] * v[k] for k in range(3)) for row in g)
            for v in self.lines))


def frame_vertex(frame, p, exponents=(0, 0, 0)):
    """The apartment vertex spanned by p^(e_i) times the frame vectors."""
    cols = [tuple(e * Fraction(p) ** m for e in v)
            for v, m in zip(frame.lines, exponents)]
    return LatticeVertex.from_matrix(p, from_columns(cols))


class ApartmentDistance:
    """Exact evaluator for distances from one vertex to apartment vertices.

    Precomputes valuations of the minors of the relative position matrix so
    that the vector distance to the apartment vertex with exponents m costs a
    handful of integer operations.
    """

    _PAIRS = ((0, 1), (0, 2), (1, 2))

    def __init__(self, x, frame, order=(0, 1, 2)):
        self.p = x.p
        self.frame = frame
        self.order = order
        h = frame.matrix(order)
        n0, _ = integerize(mat_mul(mat_inv3(h), x.matrix))
        p = self.p
        self.row_min = tuple(
            min(valuation_int(e, p) for e in row if e != 0) for row in n0)
        pair_mins = []
        for (i, j) in self._PAIRS:
            best = None
            for (c1, c2) in self._PAIRS:
                m = n0[i][c1] * n0[j][c2] - n0[i][c2] * n0[j][c1]
                if m != 0:
                    v = valuation_int(m, p)
                    best = v if best is None else min(best, v)
            if best is None:
                raise SingularMatrixError("rank-deficient relative position")
            pair_mins.append(best)
        self.pair_min = tuple(pair_mins)
        self.det_val = valuation_int(det3(n0), p)

    def theta(self, m):
        """Dominant vector distance from x to the apartment vertex at exponents m."""
        e1 = min(self.row_min[i] - m[i] for i in range(3))
        e2 = min(self.pair_min[k] - m[i] - m[j]
                 for k, (i, j) in enumerate(self._PAIRS))
        e3 = self.det_val - sum(m)
        return dominant((e1, e2 - e1, e3 - e2))

    def dist2(self, m):
        return weyl_dist2(self.theta(m))

    def vertex(self, m):
        return frame_vertex(self.frame, self.p,
                            tuple(m[self.order.index(i)] for i in range(3)))


def _eisenstein_ball(bound2):
    """All (i, j) in Z^2 with i^2 - i*j + j^2 <= bound2."""
    if bound2 < 0:
        return
    r = isqrt(4 * bound2 // 3) + 2
    for i in range(-r, r + 1):
        for j in range(-r, r + 1):
            if i * i - i * j + j * j <= bound2:
                yield (i, j)


def distance_to_apartment(x, frame):
    """Minimum squared distance from x to the vertex set of the frame apartment.

    Certified bounded enumeration: starting from a greedily improved
    apartment vertex z0, every apartment vertex within CAT(0) radius
    2*d(x, z0) of z0 is inspected; by the triangle inequality the global
    minimizer lies in that ball.  Returns (squared distance, witness vertex).
    """
    ev = ApartmentDistance(x, frame)
    m = (0, 0, 0)
    best = ev.dist2(m)
    moves = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
             (0, 0, 1), (0, 0, -1))
    improved = True
    while improved and best > 0:
        improved = False
        for mv in moves:
            cand = tuple(a + b for a, b in zip(m, mv))
            q = ev.dist2(cand)
            if q < best:
                m, best, improved = cand, q, True
                break
    if best == 0:
        return 0, ev.vertex(m)
    best_m = m
    for (i, j) in _eisenstein_ball(4 * best):
        cand = (m[0] + i, m[1] + j, m[2])
        q = ev.dist2(cand)
        if q < best:
            best, best_m = q, cand
    return best, ev.vertex(best_m)


# ---------------------------------------------------------------------------
# residue building at a vertex: the flag complex of F_p^3
# ---------------------------------------------------------------------------

def canonical_modp_vector(v, p):
    red = tuple(e % p for e in v)
    if not any(red):
        raise ValueError("vector vanishes mod p")
    k = max(i for i, e in enumerate(red) if e)
    inv = pow(red[k], -1, p)
    return tuple((e * inv) % p for e in red)


@dataclass(frozen=True)
class ResidueChamber:
    """Alcove of the residue building at a vertex: a complete flag in F_p^3.

    Stored as a canonical projective line vector together with a canonical
    normal vector of the plane; incidence means the line lies on the plane.
    """

    p: int
    line: tuple
    plane_normal: tuple

    @classmethod
    def from_parts(cls, p, line, normal):
        line_c = canonical_modp_vector(line, p)
        normal_c = canonical_modp_vector(normal, p)
        if dot(line_c, normal_c) % p != 0:
            raise ValueError("line does not lie on the plane")
        return cls(p, line_c, normal_c)


def residue_lines(p):
    """Canonical representatives of all lines of F_p^3."""
    out = [(1, 0, 0)]
    out += [(a, 1, 0) for a in range(p)]
    out += [(a, b, 1) for a in range(p) for b in range(p)]
    return tuple(out)


def residue_chambers(p):
    """All alcoves of the residue building; there are (p^2+p+1)(p+1) of them."""
    out = []
    for line in residue_lines(p):
        for normal in residue_lines(p):
            if dot(line, normal) % p == 0:
                out.append(ResidueChamber(p, line, normal))
    return tuple(out)


def residue_opposite(c1, c2):
    """Opposition of alcoves in the residue building.

    Two flags of F_p^3 are opposite iff neither line lies on the other plane.
    """
    p = c1.p
    return dot(c1.line, c2.plane_normal) % p != 0 and \
        dot(c2.line, c1.plane_normal) % p != 0


def germ_face(o, z):
    """Germ at o of the segment [o, z] as a (line, plane normal) pair over F_p.

    Either component may be None when the segment direction lies in a wall;
    both are present exactly when theta(o, z) is regular.  z = o is rejected.
    """
    if o.matrix == z.matrix:
        raise ValueError("germ of a trivial segment")
    n = mat_mul(mat_inv3(o.matrix), z.matrix)
    n_int, _ = integerize(n)
    n_int, _ = strip_p_content(n_int, o.p)
    return residue_germ_parts(n_int, o.p)


def residue_projection(o, target):
    """Alcove of the residue building at o induced by a vertex or an ideal chamber.

    For a vertex y with regular theta(o, y) this is the germ of the segment
    [o, y], obtained from the canonical p-power filtration of the target
    lattice inside the lattice of o.  For a flag it is the germ of the sector
    from o toward the flag, read off an adapted basis.
    """
    if isinstance(target, LatticeVertex):
        line, normal = germ_face(o, target)
        if line is None or normal is None:
            raise IrregularSegmentError("segment [o, y] is not regular")
        return ResidueChamber.from_parts(o.p, line, normal)
    f1, f2, _ = columns(adapted_basis_at(o, target))
    normal = primitive_vector(cross(f1, f2))
    return ResidueChamber.from_parts(o.p, f1, normal)


def adapted_basis_at(x, flag):
    """``flag_adapted_basis`` of a flag in the coordinates of the lattice of x.

    The line moves to those coordinates by the adjugate of the basis matrix
    of x, the plane normal by its transpose; both are projective, so the
    determinant never needs dividing out.
    """
    m = x.matrix
    return flag_adapted_basis(mat_vec(adjugate3(m), flag.line),
                              mat_vec(transpose(m), flag.plane_normal), x.p)
