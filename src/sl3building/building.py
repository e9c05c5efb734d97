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
from functools import cached_property
from math import isqrt

from .padic_linalg import (
    SingularMatrixError,
    adjugate3,
    cross,
    det3,
    dot,
    flag_adapted_basis,
    flag_adapted_columns,
    from_columns,
    identity,
    mat_mul,
    mat_vec,
    lattice_canonical,
    minor_valuations,
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


def random_vertex(p, rng):
    """The vertex of a random nonsingular integer matrix with entries in [-p^2, p^2].

    det is a nonzero cubic in nine entries, each uniform on 2p^2 + 1 values,
    so a draw is singular with probability at most 3 / (2p^2 + 1) <= 1/3
    (Schwartz-Zippel); the loop ends with probability one.
    """
    while True:
        m = tuple(tuple(rng.randrange(-p * p, p * p + 1) for _ in range(3))
                  for _ in range(3))
        if det3(m) != 0:
            return LatticeVertex.from_matrix(p, m)


def vector_distance(x, y):
    """Dominant exponent triple theta(x, y) of the elementary divisors from x to y."""
    if x.matrix == y.matrix:
        return (0, 0, 0)
    return dominant(smith_exponents(mat_mul(adjugate3(x.matrix), y.matrix), x.p))


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

    @cached_property
    def plane_normals(self):
        """Normal k is the canonical normal of the other two lines' plane."""
        u, v, w = self.lines
        return tuple(primitive_vector(cross(a, b)) for a, b in ((v, w), (w, u), (u, v)))

    def apply(self, g):
        return Frame.from_lines(tuple(mat_vec(g, v) for v in self.lines))


def frame_vertex(frame, p, exponents=(0, 0, 0)):
    """The apartment vertex spanned by p^(e_i) times the frame vectors."""
    low = min(exponents)  # scaling by p^-low stays in the homothety class
    cols = [tuple(e * p ** (m - low) for e in v)
            for v, m in zip(frame.lines, exponents)]
    return LatticeVertex.from_matrix(p, from_columns(cols))


def _eisenstein_ball(bound2):
    """(i, j, i^2 - i*j + j^2) for all (i, j) in Z^2 with norm <= bound2.

    Raster order: i ascending, then j ascending; empty for bound2 < 0.
    """
    if bound2 < 0:
        return
    r = isqrt(4 * bound2 // 3) + 2
    for i in range(-r, r + 1):
        for j in range(-r, r + 1):
            n = i * i - i * j + j * j
            if n <= bound2:
                yield (i, j, n)


def _eisenstein_shell(radius):
    """(i, j) with (radius - 1)^2 < i^2 - i*j + j^2 <= radius^2, for radius >= 1.

    The points of ``_eisenstein_ball(radius^2)`` in the outer norm band, in
    its raster order.  For fixed i the norm is at most N exactly when
    (2j - i)^2 <= 4N - 3i^2, so the ball of norm radius^2 is one j-interval
    and the band is that interval less the one for (radius - 1)^2: two
    intervals, or one where the inner one is empty.
    """
    outer, inner = 4 * radius * radius, 4 * (radius - 1) ** 2
    r = isqrt(outer // 3)
    for i in range(-r, r + 1):
        s = isqrt(outer - 3 * i * i)
        lo, hi = -((s - i) // 2), (i + s) // 2
        d = inner - 3 * i * i
        if d < 0:
            yield from ((i, j) for j in range(lo, hi + 1))
            continue
        t = isqrt(d)
        yield from ((i, j) for j in range(lo, -((t - i) // 2)))
        yield from ((i, j) for j in range((i + t) // 2 + 1, hi + 1))


_MOVES = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
_ROW_PAIRS = ((0, 1), (0, 2), (1, 2))


def _pad3(terms):
    """The one to three terms padded to exactly three by repeating them."""
    return tuple((terms * 3)[:3])


class ApartmentPairDistance:
    """Exact distances from the vertices of one basis to a frame apartment.

    Built from the integer relative matrix K = adj(H_to) H_from of a source
    basis H_from and a target frame matrix H_to.  The vertex at exponents m
    over H_from and the apartment vertex at exponents t over H_to differ by
    diag(p^-t) K diag(p^m) up to a scalar, so every minor valuation of their
    relative position is a minor valuation of K shifted by the exponents of
    its rows and columns.  The kernel's output is stored once, grouped by
    row and by row pair, and each group is padded to exactly three terms by
    repeating its own terms: a repeated term leaves a minimum unchanged, and
    a nonsingular K has a nonzero entry in every row and a nonzero minor on
    every row pair, so no group is empty.  For a fixed source m the minima
    over columns are taken once (``_source_minima``, one three-way ``min``
    per row and per row pair): a_i per row, b per row pair and c for the
    determinant.  Each target t then costs three small minima,

        e1 = min_i(a_i - t_i),  e2 = min over pairs (b_i1i2 - t_i1 - t_i2),
        e3 = c - sum(t),

    and its vector distance is the dominant form of (e1, e2 - e1, e3 - e2).
    The nearest target vertex to a source vertex comes from descent over the
    six unit moves alone: a vertex no farther than its six neighbours is a
    nearest one (the lemma in ``nearest``).
    """

    def __init__(self, k_int, p):
        entries, minors, self.det_val = minor_valuations(k_int, p)
        self.rows = tuple(_pad3([(v, j) for v, i, j in entries if i == r])
                          for r in range(3))
        self.row_pairs = tuple(
            _pad3([(v, j1, j2) for v, i1, i2, j1, j2 in minors if (i1, i2) == rp])
            for rp in _ROW_PAIRS)

    def _source_minima(self, m):
        """Per-source minima (a0, a1, a2, b01, b02, b12, c) at exponents m.

        a_i = min_j(v_ij + m_j) over the entries of row i, b_i1i2 the same
        minimum over the 2x2 minors on rows (i1, i2) and c = det_val + sum(m).
        """
        (r0, r1, r2), (q01, q02, q12) = self.rows, self.row_pairs
        (x, i), (y, j), (z, k) = r0
        a0 = min(x + m[i], y + m[j], z + m[k])
        (x, i), (y, j), (z, k) = r1
        a1 = min(x + m[i], y + m[j], z + m[k])
        (x, i), (y, j), (z, k) = r2
        a2 = min(x + m[i], y + m[j], z + m[k])
        (x, i, u), (y, j, v), (z, k, w) = q01
        b01 = min(x + m[i] + m[u], y + m[j] + m[v], z + m[k] + m[w])
        (x, i, u), (y, j, v), (z, k, w) = q02
        b02 = min(x + m[i] + m[u], y + m[j] + m[v], z + m[k] + m[w])
        (x, i, u), (y, j, v), (z, k, w) = q12
        b12 = min(x + m[i] + m[u], y + m[j] + m[v], z + m[k] + m[w])
        return a0, a1, a2, b01, b02, b12, self.det_val + m[0] + m[1] + m[2]

    def theta(self, m, m_to):
        """Vector distance from the m_to vertex of the target to the m vertex."""
        a0, a1, a2, b01, b02, b12, c = self._source_minima(m)
        t0, t1, t2 = m_to
        e1 = min(a0 - t0, a1 - t1, a2 - t2)
        e2 = min(b01 - t0 - t1, b02 - t0 - t2, b12 - t1 - t2)
        e3 = c - t0 - t1 - t2
        return dominant((e1, e2 - e1, e3 - e2))

    def nearest(self, m):
        """Certified (min squared distance, exponents of a minimizer) in the target.

        Greedy descent over the six unit exponent moves from the origin: take
        the first move that strictly lowers the squared distance q from the
        vertex x at m, until none does.  q is a nonnegative integer, so the
        descent ends.  Squared distances come from the per-source minima with
        no sort: ``weyl_dist2`` does not change under permutations and a
        common shift, so for the triple (e1, e2 - e1, e3 - e2), whose sum is
        e3, q = (3(e1^2 + (e2 - e1)^2 + (e3 - e2)^2) - e3^2) / 2.

        Lemma: a vertex v of the target apartment A that is no farther from
        x than its six neighbours in A is a nearest vertex of A.  Proof: let
        s be any vertex of A and C a chamber of A at v whose closed cone at
        v holds s.  Then s - v = a*u1 + b*u2 with integers a, b >= 0, where
        u1, u2 are the unit edges of C at v and u1.u2 = 1/2.  Let y = rho(x)
        for the retraction rho onto A centred at C (Abramenko and Brown,
        Buildings, GTM 248).  rho is 1-Lipschitz, fixes A, and is an
        isometry on an apartment that holds C and x (the building axioms give
        one), so d(x, s) >= |y - s| and d(x, w) = |y - w| for each vertex w
        of C.  v + u1 and v + u2 are among the six neighbours, so
        |y - v - u_i|^2 >= |y - v|^2, that is 2(y - v).u_i <= 1.  Hence

            d(x, s)^2 - d(x, v)^2 >= |s - v|^2 - 2(y - v).(s - v)
                >= a^2 + ab + b^2 - a - b = a(a - 1) + b(b - 1) + ab >= 0.

        So the point where the descent ends is a global minimizer.
        """
        a0, a1, a2, b01, b02, b12, c = self._source_minima(m)
        t0 = t1 = t2 = 0
        e1, e2 = min(a0, a1, a2), min(b01, b02, b12)
        d2, d3 = e2 - e1, c - e2
        best = (3 * (e1 * e1 + d2 * d2 + d3 * d3) - c * c) // 2
        while best > 0:
            for s0, s1, s2 in _MOVES:
                u0, u1, u2 = t0 + s0, t1 + s1, t2 + s2
                # the q formula spelled out: this is the inner loop of the descent
                e1 = a0 - u0
                if a1 - u1 < e1:
                    e1 = a1 - u1
                if a2 - u2 < e1:
                    e1 = a2 - u2
                e2 = b01 - u0 - u1
                if b02 - u0 - u2 < e2:
                    e2 = b02 - u0 - u2
                if b12 - u1 - u2 < e2:
                    e2 = b12 - u1 - u2
                e3 = c - u0 - u1 - u2
                d2, d3 = e2 - e1, e3 - e2
                q = (3 * (e1 * e1 + d2 * d2 + d3 * d3) - e3 * e3) // 2
                if q < best:
                    t0, t1, t2, best = u0, u1, u2, q
                    break
            else:
                break
        return best, (t0, t1, t2)

    def dist2_to_apartment(self, m):
        """Certified min squared distance from the m-vertex to the target apartment."""
        return self.nearest(m)[0]


def distance_to_apartment(x, frame):
    """Minimum squared distance from x to the vertex set of the frame apartment.

    ``ApartmentPairDistance.nearest`` from the basis of x, at exponents 0,
    to the frame.  Returns (squared distance, witness vertex).
    """
    k_int = mat_mul(adjugate3(frame.matrix()), x.matrix)
    best, m = ApartmentPairDistance(k_int, x.p).nearest((0, 0, 0))
    return best, frame_vertex(frame, x.p, m)


# ---------------------------------------------------------------------------
# residue building at a vertex: the flag complex of F_p^3
# ---------------------------------------------------------------------------

def canonical_modp_vector(v, p):
    """The multiple of a 3-vector mod p whose last nonzero entry is 1."""
    a, b, c = v[0] % p, v[1] % p, v[2] % p
    last = c or b or a
    if not last:
        raise ValueError("vector vanishes mod p")
    inv = pow(last, -1, p)
    return a * inv % p, b * inv % p, c * inv % p


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


def germ_face(o, z):
    """Germ at o of the segment [o, z] as a (line, plane normal) pair over F_p.

    Either component may be None when the segment direction lies in a wall;
    both are present exactly when theta(o, z) is regular.  z = o is rejected.
    """
    if o.matrix == z.matrix:
        raise ValueError("germ of a trivial segment")
    n_int, _ = strip_p_content(mat_mul(adjugate3(o.matrix), z.matrix), o.p)
    _, line, normal = residue_germ_parts(n_int, o.p)
    return line, normal


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
    f1, _, w, _ = adapted_columns_at(o, target)
    return ResidueChamber.from_parts(o.p, f1, primitive_vector(w))


def flag_in_basis(m, flag):
    """The flag's line and plane normal in the coordinates of the columns of m.

    The line moves by the adjugate of m, the plane normal by its transpose;
    both are projective, so the determinant never needs dividing out, and
    both are made primitive.
    """
    return (primitive_vector(mat_vec(adjugate3(m), flag.line)),
            primitive_vector(mat_vec(transpose(m), flag.plane_normal)))


def adapted_basis_at(x, flag):
    """``flag_adapted_basis`` of a flag in the coordinates of the lattice of x."""
    return flag_adapted_basis(*flag_in_basis(x.matrix, flag), x.p)


def adapted_columns_at(x, flag):
    """``flag_adapted_columns`` of a flag in the coordinates of the lattice of x."""
    return flag_adapted_columns(*flag_in_basis(x.matrix, flag), x.p)
