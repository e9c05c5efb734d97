"""Chambers at infinity of the SL3 building: flags, sectors and retractions.

A chamber at infinity is a complete flag <f1> < <f1, f2> in Q^3, stored as
its pair (line, plane normal) of canonical primitive integer vectors, so
equality of flags is tuple equality; its column-echelon representative is
read off those integers by ``flag_echelon``.  The action of SL3(Q) moves the
line by g and the normal by the transposed adjugate of g.  Relative position
of two flags is an element of S3 read off four incidence tests (equal lines,
equal planes, and whether the line of each lies on the plane of the other);
opposite means the order-reversing permutation.  Sector membership, the basis
sets of the cone topology, and the retraction onto an apartment centered at
one of its ideal chambers are decided by ``minor_valuations`` of a relative
matrix: its least entry, 2x2 minor and determinant valuations are the
elementary divisors, and the same minima over its bottom rows are the
Iwasawa exponents.  A flag's place in a frame apartment is read off its
incidences with the frame lines, and the boundary retraction needs no
valuation at all: it keeps Weyl distance from its centre.  The common depth
of two flags at a vertex is one kernel, ``adapted_depth``, on three entries
of the relative matrix of their adapted bases, built from each flag's line,
second adapted column and their cross product; it does not depend on the
basis of the lattice the flags are written in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .padic_linalg import (
    adjugate3,
    columns,
    cross,
    det3,
    dot,
    from_columns,
    integerize,
    mat_mul,
    mat_vec,
    minor_valuations,
    primitive_vector,
    transpose,
    valuation_int,
)
from .building import (
    Frame,
    LatticeVertex,
    adapted_basis_at,
    adapted_columns_at,
    frame_vertex,
)


IDENTITY_PERM = (0, 1, 2)
LONGEST_PERM = (2, 1, 0)
ALL_PERMS = tuple(permutations(range(3)))


class NotOppositeError(ValueError):
    """Raised when an operation requires a pair of opposite chambers."""


class HorizonExceededError(RuntimeError):
    """Raised when an iterative limit fails to stabilize within its horizon."""


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

def _last_nonzero(v):
    return 2 if v[2] else (1 if v[1] else 0)


def flag_echelon(line, normal):
    """The column-echelon coset representative of a flag, in integers.

    Returns (l, a, u, b, r): the first echelon column is l / a and the
    second u / b, where a and b are their pivot entries (the last nonzero
    ones), and the third column is the unit vector e_r.  l is the line
    itself; u = normal x e_r1, with r1 the pivot row of the line, lies on
    the plane and vanishes in row r1, so its pivot row is another one, and
    r is the row left over.  Scaling line or normal scales l and a, or u
    and b, together, so the representative does not depend on their signs.
    """
    r1 = _last_nonzero(line)
    n0, n1, n2 = normal
    u = ((0, n2, -n1), (-n2, 0, n0), (n1, -n0, 0))[r1]
    r2 = _last_nonzero(u)
    return line, line[r1], u, u[r2], 3 - r1 - r2


@dataclass(frozen=True)
class Flag:
    """Complete flag <line> < plane in Q^3.

    Both fields are canonical primitive integer vectors (``primitive_vector``):
    the line spans the one-dimensional step, the plane normal is orthogonal to
    the two-dimensional step.
    """

    line: tuple
    plane_normal: tuple

    @classmethod
    def spanned(cls, u, v):
        """The flag <u> < <u, v>, for independent vectors u and v."""
        return cls(primitive_vector(u), primitive_vector(cross(u, v)))

    @classmethod
    def from_matrix(cls, m):
        """The flag of the first column and the first two columns of m."""
        if det3(m) == 0:
            raise ValueError("flag matrix must be invertible")
        c = columns(m)
        return cls.spanned(c[0], c[1])

    @classmethod
    def standard(cls):
        """<e1> < <e1, e2>."""
        return cls((1, 0, 0), (0, 0, 1))

    @classmethod
    def reversed_standard(cls):
        """<e3> < <e3, e2>."""
        return cls((0, 0, 1), (1, 0, 0))

    def apply(self, g):
        """Image under g: the line moves by g, the normal by g's cofactors."""
        g, _ = integerize(g)
        if det3(g) == 0:
            raise ValueError("acting matrix must be invertible")
        return Flag(primitive_vector(mat_vec(g, self.line)),
                    primitive_vector(mat_vec(transpose(adjugate3(g)),
                                             self.plane_normal)))


# ---------------------------------------------------------------------------
# relative position
# ---------------------------------------------------------------------------

def weyl_distance(c, d):
    """Relative position of two flags as a permutation w of {0, 1, 2}.

    Convention: dim(C_i meet D_j) = #{a <= i : w(a) <= j} (1-indexed).
    Identical flags give the identity, opposite flags the order reversal.
    The cell is decided by whether the lines agree, the planes agree, and
    each line lies on the other plane.
    """
    if c.line == d.line:
        return IDENTITY_PERM if c.plane_normal == d.plane_normal else (0, 2, 1)
    if c.plane_normal == d.plane_normal:
        return (1, 0, 2)
    if dot(c.line, d.plane_normal) == 0:
        return (1, 2, 0)
    if dot(d.line, c.plane_normal) == 0:
        return (2, 0, 1)
    return LONGEST_PERM


def is_opposite(c, d):
    """Transversality: the line of each flag avoids the plane of the other."""
    return dot(c.line, d.plane_normal) != 0 and dot(d.line, c.plane_normal) != 0


def apartment_from_opposite(c, d):
    """The frame of the unique apartment whose boundary contains both flags."""
    if not is_opposite(c, d):
        raise NotOppositeError("chambers are not opposite")
    middle = cross(c.plane_normal, d.plane_normal)
    return Frame.from_lines((c.line, middle, d.line))


def frame_chamber(frame, order):
    """The ideal chamber <v_i> < <v_i, v_j> of the frame apartment, where
    order = (i, j, k) orders the frame lines v: Flag.spanned(v_i, v_j), as
    ``Frame.from_lines`` stores each line as its ``primitive_vector`` and
    ``plane_normals[k]`` is ``primitive_vector(v_i x v_j)``, its sign fixed."""
    i, _, k = order
    return Flag(frame.lines[i], frame.plane_normals[k])


def apartment_chambers(frame):
    """The six ideal chambers of the apartment of a frame, in ``ALL_PERMS`` order."""
    return tuple(frame_chamber(frame, order) for order in ALL_PERMS)


def chamber_order_in_frame(frame, c):
    """The ordering (i, j, k) of the frame lines realizing the chamber c.

    It is the one with c.line = v_i and v_j on the plane of c: that plane
    is then <v_i, v_j>, and no plane holds all three frame lines.
    """
    v = frame.lines
    if c.line in v:
        i = v.index(c.line)
        for j in range(3):
            if j != i and dot(v[j], c.plane_normal) == 0:
                return i, j, 3 - i - j
    raise ValueError("chamber does not belong to the apartment at infinity")


def is_opposite_to_apartment(c, frame):
    """Whether c is opposite every ideal chamber of the frame apartment.

    The chamber <v_i> < <v_i, v_j> is opposite c iff v_i is off the plane of
    c and the line of c is off <v_i, v_j>.  Each frame line and each plane
    of two of them is in some chamber, so the test runs over those.
    """
    return (all(dot(x, c.plane_normal) != 0 for x in frame.lines)
            and all(dot(c.line, n) != 0 for n in frame.plane_normals))


# ---------------------------------------------------------------------------
# sectors and basis sets
# ---------------------------------------------------------------------------

def sector_membership(x, c, y):
    """Whether the vertex y lies in the (closed) sector from x toward c.

    Let H be a basis of the lattice of x adapted to c, B a basis of the
    lattice of y, and n = adj(X H) B, an integer matrix whose columns span
    the lattice L of y in the coordinates H (up to homothety).  y lies in
    the sector exactly when L = diag(p^f) Z_(p)^3 up to homothety with
    f0 <= f1 <= f2: p-power multiples of the basis vectors, with exponents
    increasing toward the back of the flag.

    Let e0, e0 + e1 and e0 + e1 + e2 be the least entry, least 2x2 minor and
    determinant valuations of n; e0 <= e1 <= e2 are its elementary-divisor
    exponents.  Then y lies in the sector iff every entry of row i of n has
    valuation at least e_i, that is iff diag(p^-e) n is integral.  If it is,
    L is contained in M = diag(p^e) Z_(p)^3, and both have index
    p^(e0 + e1 + e2) in Z_(p)^3, so L = M with e ascending.  Conversely, if
    L = p^k diag(p^f) Z_(p)^3 with f ascending, its elementary-divisor
    exponents are k + f, so e = k + f and the columns of n, which lie in L,
    have row i in p^(e_i) Z_(p).  Row 0 passes trivially, since e0 is the
    least entry valuation.
    """
    h = adapted_basis_at(x, c)
    n = mat_mul(adjugate3(mat_mul(x.matrix, h)), y.matrix)
    entries, minors, det_v = minor_valuations(n, x.p)
    e0 = min(v for v, *_ in entries)
    e01 = min(v for v, *_ in minors)
    e = (e0, e01 - e0, det_v - e01)
    return all(v >= e[i] for v, i, _ in entries)


def growth_ray_vertex(x, c, t):
    """The vertex at parameter t on the equal-growth ray of the sector from x toward c.

    Its vector distance from x is (2t, t, 0), the direction that advances
    through every wall of the sector at the same rate.
    """
    p = x.p
    h = adapted_basis_at(x, c)
    cols = columns(mat_mul(x.matrix, h))
    scaled = (cols[0], tuple(e * p ** t for e in cols[1]),
              tuple(e * p ** (2 * t) for e in cols[2]))
    return LatticeVertex.from_matrix(p, from_columns(scaled))


def adapted_depth(c, d, p, rmax):
    """``common_depth`` from the ``flag_adapted_columns`` (l, f2, w, j) of c and d.

    Let H_c and H_d be the adapted bases and K = adj(H_d) H_c, with v(0)
    infinite.  The growth-ray vertex at t is H_c diag(1, p^t, p^2t), and it
    lies in the sector toward d iff diag(1, p^-t, p^-2t) K diag(1, p^t, p^2t)
    is integral.  Only K[1][0], K[2][1] (scaled by p^-t) and K[2][0] (scaled
    by p^-2t) can fail, so the depth is min(rmax, v(K[1][0]), v(K[2][1]),
    floor(v(K[2][0]) / 2)); the conditions only tighten as t grows, so this
    is also the first t at which the ray leaves the sector, less one.  The
    rows of adj(H_d) are f2 x e_j, e_j x l and l x f2 = w (those of d), so
    K[1][0] = (l_d x l_c)[j_d], K[2][1] = w_d . f2_c and K[2][0] = w_d . l_c.
    Each is reduced mod p^(2 rmax) before its valuation: a residue 0 means a
    valuation of at least 2 rmax, which the cap absorbs, and otherwise the
    valuation is that of the entry.

    The test is unchanged by K -> B1 K B2 for upper-triangular B1, B2 in
    GL3(Z_(p)), since diag(1, p^-t, p^-2t) B diag(1, p^t, p^2t) is again
    such a matrix.  Two adapted bases of a flag differ by such a B on the
    right, and a change of basis of the lattice multiplies both H_c and H_d
    on the left by one U in GL3(Z_(p)), which cancels in K; so the depth
    does not depend on the basis of the lattice in which l and f2 are
    written.
    """
    lc, f2c, _, _ = c
    ld, _, (w0, w1, w2), j = d
    a, b = (j + 1) % 3, (j + 2) % 3
    q = p ** (2 * rmax)
    depth = rmax
    r = (ld[a] * lc[b] - ld[b] * lc[a]) % q
    if r:
        depth = min(depth, valuation_int(r, p))
    r = (w0 * f2c[0] + w1 * f2c[1] + w2 * f2c[2]) % q
    if r:
        depth = min(depth, valuation_int(r, p))
    r = (w0 * lc[0] + w1 * lc[1] + w2 * lc[2]) % q
    if r:
        depth = min(depth, valuation_int(r, p) // 2)
    return depth


def common_depth(c, d, o, rmax):
    """How far the sectors from o toward c and d agree along the growth ray.

    Returns the largest t <= rmax such that the vertex at parameter t on the
    growth ray of Q(o, c) lies in Q(o, d) as well; 0 when only the base point
    does.  This realizes the entourage scale of the cone-topology uniformity.
    It is ``adapted_depth`` of the two flags in the coordinates of o.
    """
    return adapted_depth(adapted_columns_at(o, c), adapted_columns_at(o, d),
                         o.p, rmax)


# ---------------------------------------------------------------------------
# retractions
# ---------------------------------------------------------------------------

def retraction(frame, c, x):
    """Retraction of the vertex x onto the frame apartment, centered at c.

    c must be an ideal chamber of the apartment.  The image is the apartment
    vertex whose exponents are the Iwasawa diagonal of the lattice of x with
    respect to the frame basis ordered by c; it fixes the apartment pointwise
    and does not increase distances.  The diagonal of the upper-triangular
    basis of the relative matrix n is read off ``minor_valuations``: with a2
    the least valuation in row 2 of n and a12 the least valuation of a 2x2
    minor on rows (1, 2), it is (det - a12, a12 - a2, a2), since both minima
    are invariant under column operations over Z_(p).  n is adj(F P) times
    the basis of x, F P the frame matrix with its columns in the order of
    c; its rows are the rows order[k] of ``frame.adjugate``, up to one
    global sign, which changes no valuation.
    """
    order = chamber_order_in_frame(frame, c)
    adj = frame.adjugate
    n = mat_mul(tuple(adj[i] for i in order), x.matrix)
    entries, minors, det_v = minor_valuations(n, x.p)
    a2 = min(v for v, i, _ in entries if i == 2)
    a12 = min(v for v, i1, i2, *_ in minors if (i1, i2) == (1, 2))
    exps = (det_v - a12, a12 - a2, a2)
    m = [0, 0, 0]
    for k in range(3):
        m[order[k]] = exps[k]
    return frame_vertex(frame, x.p, tuple(m))


def boundary_retraction(frame, c, d, p):
    """Boundary extension of the retraction centered at c, evaluated at d.

    It is the one chamber e of the frame apartment with
    weyl_distance(c, e) == weyl_distance(c, d).  Some apartment A' holds
    both c and d, and the retraction maps A' onto the frame apartment A by
    the isomorphism that fixes their common sector germ at c; that
    isomorphism keeps Weyl distance from c.  The boundary of A is a Coxeter
    complex, so exactly one of its chambers lies at each Weyl distance from
    c.  The prime p does not enter.

    With sigma the order of c and w = weyl_distance(c, d), e has the order
    tau = sigma w^-1: C_i meet E_j is spanned by the v_sigma(a) with a < i
    and tau^-1 sigma(a) < j, so the Weyl distance of c and e is tau^-1 sigma.
    """
    sigma, w = chamber_order_in_frame(frame, c), weyl_distance(c, d)
    tau = {w[a]: sigma[a] for a in range(3)}
    return frame_chamber(frame, (tau[0], tau[1], tau[2]))
