"""Hyperbolic dynamics on the chambers at infinity.

Strongly regular hyperbolic (SRH) elements of SL3(Q) are axial isometries of
the building whose translation apartment is regular; they carry an attracting
and a repelling ideal chamber and contract the big cell toward the attracting
one.  An element is an integer matrix num over a denominator den; it is
certified when the characteristic polynomial of num has three integer roots
den*lambda of pairwise distinct p-adic valuations, found by Newton-polygon
slopes plus Hensel lifting and verified exactly, so numerics decide nothing.
North-south limits run in frame coordinates on the shared kernels
``flag_in_basis``, ``in_basis`` and ``mul_strip``; every depth between two
images is ``boundary.adapted_depth``, and the depths to the apartment
chambers are read off an image's valuations in the same way.

The module also provides the word-enumeration approximation of the flag limit
set, Schubert-cell classification of samples, and the sector-based
equicontinuity machinery (the sets of group elements pulling the base vertex
into closed sectors opposite a residue alcove).  The proximal hypothesis and
equicontinuity membership are incidence tests on lines and planes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from .padic_linalg import (
    adjugate3,
    cross,
    det3,
    dot,
    flag_adapted_columns,
    from_columns,
    identity,
    in_basis,
    integerize,
    mat_mul,
    mat_vec,
    mul_strip,
    primitive_vector,
    require_prime,
    transpose,
    valuation_int,
)
from .building import (
    LatticeVertex,
    Frame,
    dist2,
    dominant,
    flag_in_basis,
    germ_face,
    is_colinear_growth,
    is_regular,
    residue_projection,
    vector_distance,
)
from .boundary import (
    ALL_PERMS,
    Flag,
    HorizonExceededError,
    adapted_depth,
    apartment_chambers,
    apartment_from_opposite,
    chamber_order_in_frame,
    growth_ray_vertex,
    is_opposite,
    is_opposite_to_apartment,
    sector_membership,
    weyl_distance,
)
from .stochastics import DrawBoundExceededError, harmonic_sample
from .triples import construct_generic


@dataclass(frozen=True)
class GroupElement:
    """Element num/den of SL3(Q) acting on the building, with an optional word.

    num is an integer matrix with det(num) = den^3, den > 0 and
    gcd(content(num), den) = 1, so equal elements have equal fields.  The
    action on vertices and chambers is projective: it is the action of num.
    """

    num: tuple
    den: int = 1
    word: tuple = None

    def __post_init__(self):
        content = gcd(self.den, *(e for row in self.num for e in row))
        if self.den <= 0 or content != 1:
            raise ValueError("group elements must be num/den in lowest terms "
                             "with den > 0; use GroupElement.reduced")
        if det3(self.num) != self.den ** 3:
            raise ValueError("group elements must have determinant exactly 1")

    @classmethod
    def reduced(cls, num, den, word=None):
        """The element num/den, brought to lowest terms with den > 0."""
        g = gcd(den, *(e for row in num for e in row)) * (1 if den > 0 else -1)
        return cls(tuple(tuple(e // g for e in row) for row in num), den // g, word)

    @classmethod
    def from_matrix(cls, m, word=None):
        num, den = integerize(m)
        return cls.reduced(num, den, tuple(word) if word is not None else None)

    @property
    def matrix(self):
        """The rational matrix num/den, every entry a Fraction."""
        return tuple(tuple(Fraction(e, self.den) for e in row) for row in self.num)

    def inverse(self):
        # det(num) = den^3, so (num/den)^-1 = den adj(num) / den^3
        w = None if self.word is None else tuple(-i for i in reversed(self.word))
        return GroupElement.reduced(adjugate3(self.num), self.den ** 2, w)

    def __mul__(self, other):
        w = None
        if self.word is not None and other.word is not None:
            w = self.word + other.word
        return GroupElement.reduced(mat_mul(self.num, other.num),
                                    self.den * other.den, w)

    def power(self, n):
        if n < 0:
            return self.inverse().power(-n)
        out = GroupElement(identity(), 1, None if self.word is None else ())
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def random_sl3z(rng):
    """A uniform draw from the SL3(Z) matrices with entries in [-3, 3].

    A draw has determinant 1 with probability exactly 640,824 / 7^9, about
    1/63 (counted in the tests), so the loop ends with probability one.
    """
    while True:
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(3))
                  for _ in range(3))
        if det3(m) == 1:
            return GroupElement(m)


@dataclass(frozen=True)
class SrhRejection:
    """Why an element is not certified strongly regular hyperbolic."""

    reason: str  # "irrational spectrum" | "repeated valuation" | "not hyperbolic"

    def __bool__(self):
        return False


@dataclass(frozen=True)
class SrhCertificate:
    """Certified strongly regular hyperbolic element.

    ``lines`` are the eigenlines ordered by increasing eigenvalue valuation,
    so the first line is the attracting direction.  ``lam`` is the dominant
    translation vector.  The attracting and repelling chambers (the lines
    in order and reversed) and the frame are built here, once; what the
    north-south limits read of the certificate alone is built on first use,
    once.
    """

    p: int
    element: GroupElement
    lines: tuple
    lam: tuple
    attracting: Flag = field(init=False, compare=False)
    repelling: Flag = field(init=False, compare=False)
    frame: Frame = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        set_field = object.__setattr__
        set_field(self, "attracting", Flag.from_matrix(from_columns(self.lines)))
        set_field(self, "repelling",
                  Flag.from_matrix(from_columns(self.lines[::-1])))
        set_field(self, "frame", Frame.from_lines(self.lines))

    def __bool__(self):
        return True

    @cached_property
    def frame_matrix(self):
        """The matrix F whose columns are the frame lines, in frame order."""
        return self.frame.matrix()

    @cached_property
    def eigenvalues(self):
        """The eigenvalues of num on the frame lines, in frame order."""
        return tuple(_eigenvalue(self.element.num, v) for v in self.frame.lines)

    @cached_property
    def frame_chambers(self):
        """The chambers of the frame apartment, keyed by their order (i, j, k)
        of the frame lines."""
        return dict(zip(ALL_PERMS, apartment_chambers(self.frame)))

    def conjugate(self, k):
        """Certificate of k g k^-1, with the lines moved by k."""
        lines = tuple(primitive_vector(mat_vec(k.num, v)) for v in self.lines)
        return SrhCertificate(self.p, k * self.element * k.inverse(), lines,
                              self.lam)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def _newton_root_valuations(coeffs, p):
    """Root valuations of a polynomial over Q_p from its Newton polygon.

    coeffs = (c0, ..., cn) are integers, c0, cn != 0.  Each lower-hull segment of
    slope s contributes (length) roots of valuation -s.  Returns the sorted
    valuations, or None when a slope is not an integer (irrational roots).
    """
    pts = [(i, valuation_int(c, p)) for i, c in enumerate(coeffs) if c != 0]
    hull = [pts[0]]
    for pt in pts[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (pt[1] - y1) * (x2 - x1) <= (y2 - y1) * (pt[0] - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    vals = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope, rest = divmod(y2 - y1, x2 - x1)
        if rest:
            return None
        vals.extend([-slope] * (x2 - x1))
    return sorted(vals)


def _hensel_integer_root(b2, b1, b0, p, w):
    """The integer root of y^3 + b2 y^2 + b1 y + b0 with valuation w, if any.

    w must be a multiplicity-one Newton slope, so the substitution y = p^w z
    turns the sought root into a simple unit root mod p; that seed lifts by
    Newton iteration with a unit derivative.  The result is verified exactly,
    so irrational p-adic roots come back as None and nothing is guessed.
    """
    def f(y):
        return ((y + b2) * y + b1) * y + b0

    pw = p ** w
    c3, c2, c1, c0 = pw ** 3, b2 * pw ** 2, b1 * pw, b0
    shift = min(valuation_int(c, p) for c in (c3, c2, c1, c0) if c != 0)
    g3, g2, g1, g0 = (c // p ** shift for c in (c3, c2, c1, c0))

    def g(z):
        return ((g3 * z + g2) * z + g1) * z + g0

    def gp(z):
        return (3 * g3 * z + 2 * g2) * z + g1

    seed = next((r for r in range(1, p) if g(r) % p == 0), None)
    if seed is None or gp(seed) % p == 0:
        return None
    bound = 1 + max(abs(b2), abs(b1), abs(b0))  # Cauchy bound, monic cubic
    z, q = seed, p
    while q <= 2 * bound:
        q = q * q
        z = (z - g(z) * pow(gp(z), -1, q)) % q
    cand = z if z <= q // 2 else z - q
    y = pw * cand
    return y if f(y) == 0 else None


def _rational_eigenvalues_distinct_valuations(g, p):
    """Eigenvalues of g when rational with pairwise distinct valuations.

    Returns the integers y = den * lambda, the roots of the characteristic
    polynomial of g.num, in increasing valuation order, or an SrhRejection.
    Only the distinct-valuation case is resolved; everything else is rejected
    with the appropriate reason.
    """
    m = g.num
    tr = m[0][0] + m[1][1] + m[2][2]
    sec = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i]
              for i in range(3) for j in range(i + 1, 3))
    # char poly of num: y^3 - tr y^2 + sec y - den^3, since det(num) = den^3
    b2, b1, b0 = -tr, sec, -g.den ** 3
    vals = _newton_root_valuations((b0, b1, b2, 1), p)
    if vals is None:
        return SrhRejection("irrational spectrum")
    if len(set(vals)) < 3:
        if vals[0] == vals[2]:
            return SrhRejection("not hyperbolic")
        return SrhRejection("repeated valuation")
    roots = []
    for w in vals:
        y = _hensel_integer_root(b2, b1, b0, p, w)
        if y is None:
            return SrhRejection("irrational spectrum")
        roots.append(y)
    return roots


def _eigenline(m, y):
    """Primitive vector spanning ker(m - y), for a simple integer eigenvalue y."""
    rows = [tuple(m[i][j] - (y if i == j else 0) for j in range(3))
            for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            w = cross(rows[i], rows[j])
            if any(e != 0 for e in w):
                return primitive_vector(w)
    raise ValueError("eigenspace is not one-dimensional")


def certify_srh(g, p):
    """Certificate that g is strongly regular hyperbolic, or a typed rejection.

    Accepts exactly the elements with three rational eigenvalues of pairwise
    distinct p-adic valuations.  The translation vector is the dominant
    arrangement of the valuations; the attracting chamber is the flag of the
    eigenlines in increasing valuation order.
    """
    require_prime(p)
    roots = _rational_eigenvalues_distinct_valuations(g, p)
    if isinstance(roots, SrhRejection):
        return roots
    lines = tuple(_eigenline(g.num, y) for y in roots)
    # v(lambda) = v(y) - v(den); dominant absorbs the common shift
    lam = dominant(tuple(valuation_int(y, p) for y in roots))
    return SrhCertificate(p, g, lines, lam)


def make_srh(lines, lam, p):
    """Build the SRH element translating a given apartment by a regular vector.

    The first of the ordered lines becomes the attracting direction.  SL3
    constrains the translation vector: lam = (a1, a2, 0) is realizable with
    determinant exactly 1 iff a1 + a2 is divisible by 3.
    """
    require_prime(p)
    if not is_regular(lam):
        raise ValueError("translation vector must be regular")
    if lam[2] != 0:
        raise ValueError(f"translation vector must have lam[2] = 0, got {lam}")
    if (lam[0] + lam[1]) % 3 != 0:
        raise ValueError("lam[0] + lam[1] must be divisible by 3 to realize "
                         "the translation in SL3")
    lines = tuple(primitive_vector(v) for v in lines)
    s = (lam[0] + lam[1]) // 3
    exps = (-s, lam[1] - s, lam[0] - s)  # ascending, sum 0
    h = from_columns(lines)
    # h diag(p^e) h^-1 = h diag(p^(e - e0)) adj(h) / (det h p^-e0), e0 = min e
    e0 = min(exps)
    d = tuple(tuple(p ** (exps[i] - e0) if i == j else 0 for j in range(3))
              for i in range(3))
    g = GroupElement.reduced(mat_mul(h, mat_mul(d, adjugate3(h))),
                             det3(h) * p ** -e0)
    return SrhCertificate(p, g, lines, lam)


# ---------------------------------------------------------------------------
# north-south dynamics
# ---------------------------------------------------------------------------

def _apartment_candidate(flag, p, threshold):
    """The apartment chamber of greatest common depth with the flag, as its
    order (i, j, k) in ``ALL_PERMS``, and that depth, when it reaches
    threshold; the first such chamber on ties, which is also the first to
    reach the cap.

    In frame coordinates the chamber (i, j, k) is the coordinate flag with
    line e_i and normal e_k, whose ``flag_adapted_columns`` are e_i, +-e_j,
    +-e_k and row k.  So the three entries ``adapted_depth`` reads are
    +-l[j], +-f2[k] and +-l[k], with l and f2 the flag's line and second
    column, and the depth is min(cap, v(l[j]), v(f2[k]), floor(v(l[k]) / 2))
    with cap = threshold + 1.  The six valuations are taken once, each on
    the entry mod p^(2 cap) as the kernel takes it: a residue 0 counts as
    2 cap, which the cap absorbs in every term.
    """
    cap = threshold + 1
    q = p ** (2 * cap)
    line, f2, _, _ = flag
    v = []
    for x in (*line, *f2):
        r = x % q
        v.append(valuation_int(r, p) if r else 2 * cap)
    depths = [min(cap, v[j], v[3 + k], v[k] // 2) for _, j, k in ALL_PERMS]
    top = max(depths)
    if top < threshold:
        return None
    return ALL_PERMS[depths.index(top)], top


def _stable_apartment_direction(p, image, threshold, nmax):
    """Common stabilization detector for power iterations.

    image(n) is the n-th image (line, normal) of a flag, n >= 1, as
    primitive vectors in frame coordinates, those of the matrix F whose
    columns are the frame lines: a flag of Q^3 is ``flag_in_basis(F, flag)``
    there, up to sign.  F spans the base vertex (the frame vertex at 0),
    which is Z_(p)^3 in these coordinates, and the apartment chambers are
    the coordinate flags.  The depth at step n >= 2 is the agreement depth
    of images n - 1 and n: ``common_depth`` of two flags at the base vertex,
    which is ``adapted_depth`` of their ``flag_adapted_columns``, taken once
    per image.  Convergence is declared when the depth is nondecreasing and
    at least threshold for three consecutive steps, and the chamber
    ``_apartment_candidate`` reads off image n at that point is confirmed by
    the one read off image 2n + 2 (iteration paths are piecewise straight,
    so a transient leg that fooled the run rule fails the doubled
    confirmation); it is returned as its order (i, j, k) of the frame lines.

    The confirmation leg is skipped.  Once a candidate is read at step n,
    the steps n + 1 to 2n + 1 decide nothing: the run count and the last
    depth they update are read again only after the depth at 2n + 2 has
    replaced the last depth, and a failed confirmation resets the run.  So
    the detector reads image 2n + 2 next; when the confirmation fails it
    takes the depth at 2n + 2 and goes on from there.  A candidate read at
    a step n with 2n + 2 > nmax could not be confirmed, so the run stops
    before such a step.  Only the trajectory of a ``HorizonExceededError``,
    every depth from step 2 to nmax, needs the skipped steps; it is rebuilt
    from the images, and each depth is taken once.
    """
    rmax = threshold + 1
    depths = {}

    # Every depth reads the last two images asked for, so two are kept.
    @lru_cache(maxsize=2)
    def flag(n):
        return flag_adapted_columns(*image(n), p)

    def depth(n):
        if n not in depths:
            depths[n] = adapted_depth(flag(n - 1), flag(n), p, rmax)
        return depths[n]

    prev_depth = -1
    run = 0
    n = 2
    while 2 * n + 2 <= nmax:
        d = depth(n)
        run = run + 1 if d >= threshold and d >= prev_depth else 0
        prev_depth = d
        if run >= 3:
            best = _apartment_candidate(flag(n), p, threshold)
            if best is not None:
                n = 2 * n + 2
                confirmed = _apartment_candidate(flag(n), p, threshold)
                if confirmed is not None and confirmed[0] == best[0]:
                    return best[0]
                prev_depth = depth(n)
            run = 0
        n += 1
    raise HorizonExceededError(
        "iteration did not stabilize before the horizon",
        trajectory=[(m, depth(m)) for m in range(2, nmax + 1)])


def _primitive(x, y, z):
    """A nonzero integer vector divided by the gcd of its entries.  Unlike
    ``primitive_vector`` it keeps the sign, which no depth reads: the
    detector takes only residues mod p and valuations of these vectors."""
    k = gcd(x, y, z)
    return x // k, y // k, z // k


def _eigenvalue(m, v):
    """The eigenvalue of the integer matrix m on its eigenvector v, read at
    the last nonzero entry of v."""
    r = 2 if v[2] else 1 if v[1] else 0
    return dot(m[r], v) // v[r]


def north_south_limit(cert, c, nmax=40, threshold=4):
    """Limit of the power iteration g^n c, certified by depth stabilization.

    The result always lies on the translation apartment and coincides with
    the boundary retraction onto that apartment centered at the repelling
    chamber; the two routes are independent and cross-checked in the tests.

    The iteration runs in frame coordinates, those of the matrix F of the
    frame lines, which span the base vertex.  The frame lines are the
    eigenlines of g, so G = adj(F) g F is diagonal, det(F) diag(a, b, k)
    with a, b, k the eigenvalues of num(g) on them: the line steps by
    diag(a, b, k) and the plane normal by its transposed adjugate
    diag(b k, a k, a b).  Projectively adj(F) g^n line is G^n adj(F) line
    and F^T adj(g^n)^T normal is (adj(G)^T)^n F^T normal.  Image n is read
    off directly, as the primitive vectors of (a^n l0, b^n l1, k^n l2) and
    ((b k)^n n0, (a k)^n n1, (a b)^n n2): dividing by a positive gcd
    commutes with a diagonal step, so these equal the pair stepped n times
    and made primitive at each step, sign included.  Direct reads let the
    detector skip the steps of its confirmation leg, which decide nothing
    (``_stable_apartment_direction``): a certified call forms about half of
    the images up to its last step.  The depths read off these pairs are
    those of the flags g^n c at the base vertex, since a depth does not
    depend on the basis of the lattice it is read in (``adapted_depth``).
    The apartment chambers are the coordinate flags there, so c is one of
    them exactly when its line and its normal each have two zero
    coordinates.
    """
    line, normal = flag_in_basis(cert.frame_matrix, c)
    if line.count(0) == 2 and normal.count(0) == 2:
        return c
    a, b, k = cert.eigenvalues
    bk, ak, ab = b * k, a * k, a * b
    (l0, l1, l2), (n0, n1, n2) = line, normal

    def image(n):
        return (_primitive(a ** n * l0, b ** n * l1, k ** n * l2),
                _primitive(bk ** n * n0, ak ** n * n1, ab ** n * n2))

    order = _stable_apartment_direction(cert.p, image, threshold, nmax)
    return cert.frame_chambers[order]


def proximal_pair_check(cert1, cert2):
    """Hypothesis of the universal contraction: cert2's repelling chamber is
    opposite every ideal chamber of cert1's translation apartment."""
    return is_opposite_to_apartment(cert2.repelling, cert1.frame)


# Candidate draws of schottky_pair before it gives up; see its docstring.
_SCHOTTKY_DRAWS = 200


def schottky_pair(p, rng, depth=4):
    """Two SRH certificates of translation (2, 1, 0) passing
    proximal_pair_check, the first standard and the second drawn from rng
    around a generic completion c3 of the first.

    Each candidate draw succeeds with probability at least 8/21.  A
    candidate c opposite c3 spans a frame v with c of order (i, j, k), so
    v_i is the line of c, v_j = P_c meet P_c3 and v_k the line of c3; the
    second certificate's repelling chamber, the lines reversed, is
    <v_k> < <v_k, v_j> = c3.  ``construct_generic`` makes c3 opposite every
    chamber of the first certificate's apartment, so proximal_pair_check
    passes for every c opposite c3.  At the standard vertex c is
    Flag.from_matrix(k), k uniform on GL3(Z/p^depth); k mod p is uniform on
    GL3(F_p), so the residue flag of c is uniform on the (p^2+p+1)(p+1)
    flags of F_p^3, and the p^3 of them opposite the residue flag of c3
    give dot products with c3 that are nonzero mod p, hence nonzero:
    probability p^3 / ((p^2+p+1)(p+1)) >= 8/21.  So the loop meets its
    bound of _SCHOTTKY_DRAWS draws, where it raises
    DrawBoundExceededError, with probability at most (13/21)^200 < 10^-41,
    and the bound changes no stream that ends.
    """
    cert1 = make_srh(identity(), (2, 1, 0), p)
    c3 = construct_generic(cert1.attracting, cert1.repelling, p, rng=rng,
                           depth=depth)
    x = LatticeVertex.standard(p)
    for _ in range(_SCHOTTKY_DRAWS):
        cand = harmonic_sample(x, depth, rng)
        if is_opposite(cand, c3):
            frame = apartment_from_opposite(cand, c3)
            order = chamber_order_in_frame(frame, cand)
            cert2 = make_srh(tuple(frame.lines[i] for i in order), (2, 1, 0), p)
            if proximal_pair_check(cert1, cert2):
                return cert1, cert2
    raise DrawBoundExceededError(
        f"no proximal partner found within {_SCHOTTKY_DRAWS} draws")


def universal_contraction(cert1, cert2, c, nmax=40, threshold=4):
    """Limit of g2^n g1^n c for a pair passing proximal_pair_check.

    The iteration contracts every ideal chamber to the attracting chamber of
    cert2.  It runs in the frame coordinates of cert2, as
    ``north_south_limit`` does: with F the matrix of its frame lines, the
    flag is ``flag_in_basis(F, c)`` and G1, G2 are ``in_basis(F, num)`` of
    the two elements.  W = G2^n G1^n is held content stripped; G2 is
    diagonal and G1 is not.  Projectively W adj(F) v is adj(F) g2^n g1^n v,
    and adj(W)^T F^T n is F^T adj(g2^n g1^n)^T n.  W steps forward to the
    image the detector asks for, past the confirmation leg it skips, and
    starts again from the identity only when an earlier image is asked
    for, after a failed confirmation or for a horizon trajectory.
    """
    if not proximal_pair_check(cert1, cert2):
        raise ValueError("pair does not satisfy the contraction hypothesis")
    f = cert2.frame_matrix
    line, normal = flag_in_basis(f, c)
    g1, g2 = in_basis(f, cert1.element.num), in_basis(f, cert2.element.num)

    at, w = 0, identity()  # W = G2^n G1^n at n = at, content stripped

    def image(n):
        nonlocal at, w
        if n < at:
            at, w = 0, identity()
        while at < n:
            at, w = at + 1, mul_strip(mat_mul(g2, w), g1, 0)[0]
        return (_primitive(*mat_vec(w, line)),
                _primitive(*mat_vec(transpose(adjugate3(w)), normal)))

    return cert2.frame_chambers[_stable_apartment_direction(
        cert2.p, image, threshold, nmax)]


# ---------------------------------------------------------------------------
# flag limit set samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitSetSample:
    """Attracting chambers of certified SRH words up to a length bound."""

    flags: tuple
    word_bound: int
    witnesses: tuple  # pairs (flag, certificate)

    def __contains__(self, flag):
        return flag in set(self.flags)


def enumerate_reduced_words(generators, max_len):
    """Group elements of reduced words in the generators and their inverses.

    Words that cancel an immediately preceding letter are skipped and
    elements are deduplicated by their exact matrix.
    """
    alphabet = []
    for i, g in enumerate(generators):
        alphabet.append(replace(g, word=(i + 1,)))
        alphabet.append(replace(g.inverse(), word=(-(i + 1),)))
    one = GroupElement(identity(), 1, ())
    seen = {(one.num, one.den): one}
    frontier = [one]
    for _ in range(max_len):
        nxt = []
        for elem in frontier:
            for gen in alphabet:
                if elem.word and elem.word[-1] == -gen.word[0]:
                    continue
                new_elem = elem * gen
                seen.setdefault((new_elem.num, new_elem.den), new_elem)
                nxt.append(new_elem)
        frontier = nxt
    return tuple(seen.values())


def limit_set_sample(generators, max_len, p):
    """Finite approximation of the flag limit set by word enumeration."""
    flags = {}
    for elem in enumerate_reduced_words(generators, max_len):
        cert = certify_srh(elem, p)
        if cert:
            flags.setdefault(cert.attracting, cert)
    ordered = sorted(flags, key=lambda f: (f.line, f.plane_normal))
    return LimitSetSample(tuple(ordered), max_len, tuple(flags.items()))


def schubert_avoidance_report(sample, cert):
    """Which Schubert cells relative to the repelling chamber the sample meets."""
    if cert.attracting not in set(sample.flags):
        raise ValueError("certificate's attracting flag is not in the sample")
    hit = {w: False for w in ALL_PERMS}
    for f in sample.flags:
        hit[weyl_distance(cert.repelling, f)] = True
    return hit


def fixed_flag_fraction(g, trials, depth, rng, p):
    """Fraction of harmonic-sampled flags fixed exactly by g."""
    x = LatticeVertex.standard(p)
    hits = 0
    for _ in range(trials):
        c = harmonic_sample(x, depth, rng)
        if c.apply(g.num) == c:
            hits += 1
    return Fraction(hits, trials)


# ---------------------------------------------------------------------------
# equicontinuity machinery
# ---------------------------------------------------------------------------

def _require_growth_vertex(o, y):
    lam = vector_distance(o, y)
    if not is_regular(lam):
        raise ValueError("y must be at a regular vector distance from o")
    if not is_colinear_growth(lam):
        raise ValueError("theta(o, y) must be colinear with the growth direction (2t, t, 0)")
    return lam


def equicontinuity_set_member(g, o, y):
    """Whether g pulls the base vertex into a closed sector opposite the alcove of y.

    The germ of [o, g^-1 o] may sit on a face; membership holds when some
    residue alcove (l, n) containing that germ is opposite the alcove
    c_y = (l_y, n_y) of [o, y], that is when l . n_y and l_y . n are nonzero
    mod p.  A line germ l with l . n_y nonzero is not l_y, so p of the p + 1
    planes through l miss l_y; dually for a plane germ.  So each part of the
    germ that is present is tested alone.
    """
    _require_growth_vertex(o, y)
    c_y = residue_projection(o, y)
    z = o.apply(g.inverse().num)
    if z == o:
        return True
    line, normal = germ_face(o, z)
    p = o.p
    return ((line is None or dot(line, c_y.plane_normal) % p != 0)
            and (normal is None or dot(c_y.line, normal) % p != 0))


def equicontinuity_check(g, o, y, c, d):
    """Sector form of equicontinuity: images stay in a basis set at least as deep.

    For g in the equicontinuity set of y and chambers c, d in U_o(y), the
    images g c and g d must lie in U_o(y') with y' = g y and d(o, y') at
    least d(o, y).  This always holds; a False return indicates a bug.
    """
    if not equicontinuity_set_member(g, o, y):
        raise ValueError("g is not in the equicontinuity set of y")
    if not (sector_membership(o, c, y) and sector_membership(o, d, y)):
        raise ValueError("both chambers must lie in U_o(y)")
    y2 = y.apply(g.num)
    gc = c.apply(g.num)
    gd = d.apply(g.num)
    return (sector_membership(o, gc, y2)
            and sector_membership(o, gd, y2)
            and dist2(o, y2) >= dist2(o, y))


def partition_probe_set(o, frame):
    """One growth-ray vertex per alcove of the frame apartment at o."""
    return tuple(growth_ray_vertex(o, e, 1) for e in apartment_chambers(frame))


def partition_check(generators, max_len, o, frame):
    """Every short word lies in the equicontinuity set of some probe vertex.

    The probe set has one growth-ray vertex per residue alcove of the frame
    apartment at o; the union of their equicontinuity sets is the whole
    group, so a False return indicates a bug.
    """
    probes = partition_probe_set(o, frame)
    for elem in enumerate_reduced_words(generators, max_len):
        if not any(equicontinuity_set_member(elem, o, y) for y in probes):
            return False
    return True
