"""Exact linear algebra over Q with p-adic valuations.

Everything in this package is exact.  A matrix is a tuple of row tuples whose
entries are ints or ``fractions.Fraction``; a vector is a tuple.  Normal forms
(column Hermite form, Smith form) are taken over the local ring Z_(p), the
rationals with denominator coprime to p.
No floating point enters any predicate.

The workhorses are

* ``valuation_int``: the p-adic valuation of an integer by binary splitting
  (dividing off p^(2^k) rather than p, one unit at a time).  It is the single
  valuation loop of the package; every other valuation calls it, and the
  one-division-per-unit loop survives only as its oracle in the test suite.
* ``lattice_canonical``: the unique upper-triangular basis matrix of a
  Z_(p)-lattice, with p-power pivots and reduced off-diagonal entries,
  homothety-normalized so the smallest elementary divisor is p^0, read off
  two columns mod p^(D+1) in closed form.  It is the normal form of a
  vertex and decides no relative position.
* ``minor_valuations``: the valuations of the entries, the 2x2 minors and
  the determinant of an integer matrix.  It is the one kernel for the
  relative position of two lattices.  The least entry, least 2x2 minor and
  determinant valuations are the partial sums of the ascending elementary
  divisor exponents (``smith_exponents``, hence vector distances, and
  sector membership); the least valuations over the bottom row and the
  bottom two rows give the Iwasawa exponents (retractions, apartment
  distances).
* ``residue_germ_parts``: the germ of a segment from the standard lattice,
  read off one adjugate of its integer basis: the valuation e2 of the gcd
  of the nine 2x2 minors, the mod-p line of the basis and the mod-p line
  of the adjugate divided by p^e2.  The walk knows the determinant
  valuation D already, so this one call on the basis mod p^(floor(D/2)+1)
  gives it the vector distance (D - e2, e2, 0) as well as the germ;
  ``building.germ_face`` calls it too.
* ``smith_left_transform``: the adapted basis of a lattice span, in
  integers, off one pivot, one 2x2 minor through it and the determinant;
  the conditioned harmonic sampler and the walk's direction estimate.
* ``mul_strip`` and ``in_basis``: the one content-stripped product, and
  the one change of basis of a group element, adj(m) g m stripped; only
  the walk uses them.  Flags change basis by ``building.flag_in_basis`` (a
  certificate's ``frame_maps`` along a north-south iteration, whose depths
  are read off valuations by ``dynamics._valuation_readers``), and their
  depth is ``boundary.adapted_depth``.

The elimination form of ``smith_exponents``, the column elimination of
``lattice_canonical`` (``lattice_canonical_oracle``), the Fraction
elimination of ``smith_left_transform`` (``smith_left_transform_oracle``)
and the Hermite-form routes of sector membership and retraction are kept as
independent oracles in the test suite, and so are the walk's earlier route,
which took the valuation of each 2x2 minor one by one, and the tuple form of
``residue_germ_parts`` (``residue_germ_parts_oracle``).

Relative positions and group inverses are taken through integer adjugates;
the package has no rational inverse.  adj(A) = det(A) A^-1 differs from the
inverse by a scalar, which shifts every minor valuation uniformly and leaves
homothety classes unchanged.

Hot paths work on integer matrices reduced modulo p^A for a sufficiently
large A; this is sound because a finite-index sublattice L of Z^3 with
det-valuation D satisfies p^D Z^3 <= L, so L is determined mod p^(D+1).
"""

from __future__ import annotations

from math import gcd, lcm


class SingularMatrixError(ValueError):
    """Raised when an operation requires an invertible matrix."""


class ZeroValuationError(ValueError):
    """Raised when the p-adic valuation of zero is requested."""


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

# Sorenson and Webster (2015): strong probable primes to the first 13 prime
# bases are prime below this bound, so Miller-Rabin with them is exact there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p):
    """Exact primality for p below ``MR_EXACT_BOUND``; ValueError at or above it.

    Deterministic Miller-Rabin with the first 13 prime bases.
    """
    if p < 2:
        return False
    if p >= MR_EXACT_BOUND:
        raise ValueError(f"primality of {p} is not decided exactly at or above "
                         f"{MR_EXACT_BOUND}")
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p):
    if not is_prime(p):
        raise ValueError(f"p must be a prime >= 2, got {p}")


def valuation_int(n, p):
    """p-adic valuation of a nonzero integer, by binary splitting.

    Units return after one remainder and v = 1 after two, which keeps the
    many small residues of the normal forms cheap.  Otherwise n is tested for
    divisibility by p, p^2, p^4, ... up to the first power p^(2^K) that
    fails, so 2^(K-1) <= v < 2^K; the powers p^(2^(K-1)), ..., p are then
    divided off from the largest down wherever they divide.  A valuation v
    costs about 2 log2(v) big-integer remainders instead of v divisions.
    """
    if n == 0:
        raise ZeroValuationError("valuation of 0 is undefined")
    if n % p:
        return 0
    q = p * p
    if n % q:
        return 1
    powers = [p, q]
    q *= q
    while not n % q:
        powers.append(q)
        q *= q
    k = len(powers) - 1
    n //= powers[k]
    v = 1 << k
    for k in range(k - 1, -1, -1):
        if not n % powers[k]:
            n //= powers[k]
            v += 1 << k
    return v


# ---------------------------------------------------------------------------
# plain matrix helpers (rows of tuples, exact entries)
# ---------------------------------------------------------------------------

def identity(n=3):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(m, v):
    (a, b, c), (d, e, f), (g, h, i) = m
    x, y, z = v
    return a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z


def det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adjugate3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def columns(m):
    return tuple(zip(*m))


def from_columns(cols):
    return tuple(zip(*cols))


def primitive_vector(v):
    """Scale a nonzero rational vector to an integer vector with content 1.

    The sign is normalized so the last nonzero coordinate is positive, which
    makes the result a canonical representative of the line spanned by v.
    An all-int vector is divided by its gcd with no Fraction arithmetic.
    """
    den = 0  # stays 0 while every entry is an int
    for e in v:
        if type(e) is not int:
            den = lcm(den or 1, e.denominator)
    ints = [int(e * den) for e in v] if den else v
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    if next(e for e in reversed(ints) if e) < 0:
        g = -g
    return tuple(e // g for e in ints)


def mul_strip(m, n, seed):
    """The integer product m n divided by the gcd of its entries; (m n / g, g).

    seed is a multiple of that gcd, or 0 for the plain gcd.  With m of
    content 1, |det n| is such a multiple: m n adj(n) = det(n) m, so the gcd
    divides det(n) times the content of m.  A small seed makes the gcd of
    large entries cheap.
    """
    (a, b, c), (d, e, f), (g, h, i) = m
    (r, s, t), (u, v, w), (x, y, z) = n
    p00, p01, p02 = a * r + b * u + c * x, a * s + b * v + c * y, a * t + b * w + c * z
    p10, p11, p12 = d * r + e * u + f * x, d * s + e * v + f * y, d * t + e * w + f * z
    p20, p21, p22 = g * r + h * u + i * x, g * s + h * v + i * y, g * t + h * w + i * z
    k = gcd(seed, p00, p01, p02, p10, p11, p12, p20, p21, p22)
    if k != 1:
        p00, p01, p02 = p00 // k, p01 // k, p02 // k
        p10, p11, p12 = p10 // k, p11 // k, p12 // k
        p20, p21, p22 = p20 // k, p21 // k, p22 // k
    return ((p00, p01, p02), (p10, p11, p12), (p20, p21, p22)), k


def in_basis(m, g):
    """g in the basis of the columns of m: adj(m) g m, content stripped,
    which is proportional to m^-1 g m since m adj(m) = det(m) I."""
    return mul_strip(mat_mul(adjugate3(m), g), m, 0)[0]


def integerize(m):
    """Clear denominators of a rational matrix by a single positive scalar.

    Returns the integer matrix c*m together with the p-independent scalar c.
    Scaling a basis matrix by a scalar only moves the lattice inside its
    homothety class, so homothety-normalized constructions may ignore c.
    An all-int matrix comes back as it is, with c = 1.
    """
    den = 0  # stays 0 while every entry is an int
    for row in m:
        for e in row:
            if type(e) is not int:
                den = lcm(den or 1, e.denominator)
    if not den:
        return m, 1
    return tuple(tuple(int(e * den) for e in row) for row in m), den


def strip_p_content(m_int, p):
    """Divide an integer matrix by the largest possible power of p.

    Returns (matrix, k) with m_int = p^k * matrix and matrix not divisible
    by p entrywise.  k is the valuation of the gcd of the entries.
    """
    r0, r1, r2 = m_int
    g = gcd(*r0, *r1, *r2)
    if g == 0:
        raise ValueError("zero matrix")
    v = valuation_int(g, p)
    if v == 0:
        return m_int, 0
    q = p ** v
    return tuple(tuple(e // q for e in row) for row in m_int), v


# ---------------------------------------------------------------------------
# normal forms over Z_(p)
# ---------------------------------------------------------------------------

def lattice_canonical(m, p):
    """Canonical basis of the Z_(p)-lattice spanned by the columns of m.

    The result is the unique homothety-normalized upper-triangular integer
    matrix with pivots p^(a_i) and entries to the right of each pivot reduced
    to the canonical residue in [0, p^(a_i)).  Two rational matrices span
    homothetic lattices iff their canonical forms coincide.

    It is read off two columns mod q = p^(D+1), D the determinant valuation
    after stripping the p-content; the lattice holds p^D Z^3, so nothing is
    lost mod q.  The column x of least bottom valuation a2, x[2] = u p^a2,
    is the last column once divided by u.  Each other column c gives
    u c - (c[2] / p^a2) x with bottom entry 0; the one of least middle
    valuation a1, divided by its unit, is the middle column, and the first
    is p^(D - a1 - a2) e0.  Reducing x's middle entry mod p^a1 (which moves
    its top entry by the same multiple of the middle column) and both top
    entries mod p^a0 leaves the unique reduced form.
    """
    m_int, _ = integerize(m)
    det = det3(m_int)
    if det == 0:
        raise SingularMatrixError("columns do not span a lattice")
    m_int, k = strip_p_content(m_int, p)
    d = valuation_int(det, p) - 3 * k
    q = p ** (d + 1)
    cols = [tuple(e % q for e in col) for col in zip(*m_int)]
    a2, j = min((valuation_int(c[2], p), j) for j, c in enumerate(cols) if c[2])
    x = cols.pop(j)
    p2 = p ** a2
    u = x[2] // p2
    ys = ((u * c[0] - c[2] // p2 * x[0], (u * c[1] - c[2] // p2 * x[1]) % q)
          for c in cols)
    a1, y0, y1 = min(((valuation_int(y1, p), y0, y1) for y0, y1 in ys if y1),
                     key=lambda t: t[0])
    p1, p0 = p ** a1, p ** (d - a1 - a2)
    y0 = y0 * pow(y1 // p1, -1, q) % p0
    u_inv = pow(u, -1, q)
    x1 = x[1] * u_inv % q
    return ((p0, y0, (x[0] * u_inv - x1 // p1 * y0) % p0),
            (0, p1, x1 % p1),
            (0, 0, p2))


_PAIRS = ((0, 1), (0, 2), (1, 2))


def minor_valuations(m_int, p):
    """Valuations of the nonzero minors of a nonsingular integer 3x3 matrix.

    Returns (entries, minors, det_val): entries holds (v, i, j) for each
    nonzero entry m[i][j] of valuation v; minors holds (v, i1, i2, j1, j2)
    for each nonzero 2x2 minor on rows (i1, i2) and columns (j1, j2);
    det_val is the valuation of the determinant.  Every relative position
    of two lattices in this package is read off these three: scaling row i
    by p^r_i and column j by p^c_j shifts each minor's valuation by the sum
    of its row and column exponents.
    """
    d = det3(m_int)
    if d == 0:
        raise SingularMatrixError("minor valuations require det != 0")
    entries = tuple((valuation_int(e, p), i, j)
                    for i, row in enumerate(m_int) for j, e in enumerate(row) if e)
    minors = []
    for i1, i2 in _PAIRS:
        r1, r2 = m_int[i1], m_int[i2]
        for j1, j2 in _PAIRS:
            e = r1[j1] * r2[j2] - r1[j2] * r2[j1]
            if e:
                minors.append((valuation_int(e, p), i1, i2, j1, j2))
    return entries, tuple(minors), valuation_int(d, p)


def smith_exponents(m, p):
    """Elementary-divisor exponents of an invertible rational matrix over Z_(p).

    Returns the sorted triple (a1 >= a2 >= a3) with U m V = diag(p^a1, p^a2,
    p^a3) for suitable U, V invertible over Z_(p); the sum equals the
    valuation of det m.  Read off ``minor_valuations`` of the integer matrix
    c m, c the common denominator: its least entry, least 2x2 minor and
    determinant valuations are a3 + v(c), a3 + a2 + 2 v(c) and
    a3 + a2 + a1 + 3 v(c).  (An elimination version is the oracle in the
    test suite.)
    """
    m_int, den = integerize(m)
    entries, minors, d = minor_valuations(m_int, p)
    e1 = min(v for v, *_ in entries)
    e2 = min(v for v, *_ in minors)
    shift = valuation_int(den, p)
    return (d - e2 - shift, e2 - e1 - shift, e1 - shift)


def smith_left_transform(m, p):
    """Adapted basis for the column span of an invertible rational matrix.

    Returns (P, d) with P an integer matrix of content 1, invertible over
    Z_(p), and d ascending such that the lattice spanned by the columns of m
    equals the span of p^(d_i) * P_i, where P_i are the columns of P.

    Elimination with least-valuation pivots on n = den m, in closed form
    (Bareiss 1968; Sylvester's identity): the pivots a = n[i0][j0], then
    b = r(i1, j1) among the minors r(i, j) = a n[i][j] - n[i][j0] n[i0][j],
    each the first least valuation in the elimination's scan order, leave
    the entries r / a, then c / (a b) with c = b r(i2, j2) - r(i2, j1)
    r(i1, j2).  P is the eliminating basis times a b p^d3, up to content.
    """
    n, den = integerize(m)
    if det3(n) == 0:
        raise SingularMatrixError("smith_left_transform requires det != 0")
    v0, i0, j0 = min((valuation_int(e, p), i, j)
                     for i, row in enumerate(n) for j, e in enumerate(row) if e)
    a = n[i0][j0]

    def minor(i, j):
        return a * n[i][j] - n[i][j0] * n[i0][j]

    rows = tuple(0 if i == i0 else i for i in (1, 2))
    cols = tuple(0 if j == j0 else j for j in (1, 2))
    w1, i1, j1 = min(((valuation_int(e, p), i, j)
                      for i in rows for j in cols if (e := minor(i, j))),
                     key=lambda t: t[0])
    i2, j2 = 3 - i0 - i1, 3 - j0 - j1
    b = minor(i1, j1)
    c = b * minor(i2, j2) - minor(i2, j1) * minor(i1, j2)
    v2 = valuation_int(c, p) - v0 - w1
    f0, f1 = a * b * p ** (v2 - v0), b * p ** (v2 - w1 + v0)
    left = tuple((f0 * n[i][j0], f1 * minor(i, j1), c if i == i2 else 0)
                 for i in range(3))
    g = gcd(*(e for row in left for e in row))
    s = valuation_int(den, p)
    return (tuple(tuple(e // g for e in row) for row in left),
            (v0 - s, w1 - v0 - s, v2 - s))


def flag_adapted_columns(line, normal, p):
    """The columns of ``flag_adapted_basis`` that a depth reads: (f1, f2, w, j).

    line and normal are integer vectors of content 1, of either sign; the
    callers strip their content.  f1 is the line, f2 the
    second column, w = f1 x f2 (the bottom row of the adjugate of the basis)
    and j the first row where w is a unit, so that (f1, f2, e_j) is the
    basis.  With n[k] the first unit entry of the normal and i < i' the
    other two indices, f2 is n[k] e_i' - n[i'] e_k when line[i] is a unit
    and n[k] e_i - n[i] e_k otherwise.
    """
    x0, x1, x2 = line
    n0, n1, n2 = normal
    if n0 % p:
        f2 = (-n2, 0, n0) if x1 % p else (-n1, n0, 0)
    elif n1 % p:
        f2 = (0, -n2, n1) if x0 % p else (n1, -n0, 0)
    else:
        f2 = (0, n2, -n1) if x0 % p else (n2, 0, -n0)
    y0, y1, y2 = f2
    w = (x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0)
    j = next((i for i in range(3) if w[i] % p), None)
    if j is None:
        raise SingularMatrixError("flag columns are dependent")
    return line, f2, w, j


def flag_adapted_basis(line, normal, p):
    """Basis of Z_(p)^3 triangular for the flag <line> < {x : normal . x = 0}.

    line and normal are integer vectors of content 1.  Returns an integer
    matrix H with unit determinant valuation whose columns (f1, f2, f3)
    satisfy f1 in <line> and f2 in the plane: the first column is the line,
    the first two span the p-saturation of the plane, and f3 = e_j is the
    unit vector of ``flag_adapted_columns``.
    """
    f1, f2, _, j = flag_adapted_columns(line, normal, p)
    return from_columns((f1, f2, tuple(1 if r == j else 0 for r in range(3))))


# ---------------------------------------------------------------------------
# germ extraction (reductions mod p of a relative lattice position)
# ---------------------------------------------------------------------------

def _mod_p_column_space_line(x0, x1, x2, y0, y1, y2, z0, z1, z2, p):
    """The first nonzero column of a matrix mod p whose reduction has rank 1.

    The columns (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) are taken mod p.
    Returns None when all of them vanish or two are independent, which a
    nonzero cross product with the first nonzero column shows.
    """
    x0, x1, x2 = x0 % p, x1 % p, x2 % p
    y0, y1, y2 = y0 % p, y1 % p, y2 % p
    z0, z1, z2 = z0 % p, z1 % p, z2 % p
    if x0 or x1 or x2:
        b0, b1, b2 = x0, x1, x2
        others = ((y0, y1, y2), (z0, z1, z2))
    elif y0 or y1 or y2:
        b0, b1, b2 = y0, y1, y2
        others = ((z0, z1, z2),)
    elif z0 or z1 or z2:
        return z0, z1, z2
    else:
        return None
    for c0, c1, c2 in others:
        if (c1 * b2 - c2 * b1) % p or (c2 * b0 - c0 * b2) % p or \
                (c0 * b1 - c1 * b0) % p:
            return None  # rank >= 2
    return b0, b1, b2


def residue_germ_parts(n_int, p):
    """Germ data of the segment from the standard lattice toward span(n_int).

    n_int is an integer basis matrix of the target lattice with p-content 0
    (use strip_p_content), so its elementary-divisor exponents are
    (0, s2, s3) with s2 <= s3.  Returns (e2, line, plane_normal): e2 = s2 is
    the valuation of the gcd of the nine 2x2 minors, so the vector distance
    is (D - e2, e2, 0) with D the determinant valuation.  line and
    plane_normal are over F_p, either of them None when that part of the
    germ degenerates:

    * line: the mod-p image of the target lattice, when one-dimensional;
    * plane_normal: a normal vector of the mod-p image of the codimension-one
      step of the p-power filtration, read off the transposed adjugate
      divided by p^e2.

    n_int reduced mod p^k with k > e2 gives the same answer, since its 2x2
    minors agree with the true ones mod p^k; as e2 = s2 <= D/2, the modulus
    p^(floor(D/2) + 1) suffices.
    """
    (a, b, c), (d, e, f), (g, h, i) = n_int
    # the cofactors, that is the transposed adjugate, row by row
    c00, c01, c02 = e * i - f * h, f * g - d * i, d * h - e * g
    c10, c11, c12 = c * h - b * i, a * i - c * g, b * g - a * h
    c20, c21, c22 = b * f - c * e, c * d - a * f, a * e - b * d
    e2 = valuation_int(gcd(c00, c01, c02, c10, c11, c12, c20, c21, c22), p)
    line = _mod_p_column_space_line(a, d, g, b, e, h, c, f, i, p)
    q = p ** e2
    normal = _mod_p_column_space_line(c00 // q, c10 // q, c20 // q,
                                      c01 // q, c11 // q, c21 // q,
                                      c02 // q, c12 // q, c22 // q, p)
    return e2, line, normal
