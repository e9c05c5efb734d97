"""Hyperbolic dynamics on the chambers at infinity.

Strongly regular hyperbolic (SRH) elements of SL3(Q) are axial isometries of
the building whose translation apartment is regular; they carry an attracting
and a repelling ideal chamber and contract the big cell toward the attracting
one.  An element is an integer matrix num over a denominator den; it is
certified when the characteristic polynomial of num has three integer roots
den*lambda of pairwise distinct p-adic valuations, found by Newton-polygon
slopes plus Hensel lifting and verified exactly, so numerics decide nothing.
North-south limits run in frame coordinates, entered by the frame's
``adjugate`` and lines: there g is diagonal, so every depth between two
images g^n c and every depth to an apartment chamber is read off twelve
valuations fixed per call, in closed form, and no image is formed.  The
universal contraction forms image n in closed form too, each g_i diagonal in
its own frame, and runs the same detector on ``boundary.adapted_depth`` of
the images.

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
    identity,
    integerize,
    mat_mul,
    mat_vec,
    primitive_vector,
    require_prime,
    transpose,
    valuation_int,
)
from .building import (
    Frame,
    dist2,
    dominant,
    germ_face,
    is_colinear_growth,
    is_regular,
    residue_projection,
    standard_vertex,
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
    frame_chamber,
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
        set_field(self, "frame", Frame.from_lines(self.lines))
        l0, l1, l2 = self.lines
        set_field(self, "attracting", Flag.spanned(l0, l1))
        set_field(self, "repelling", Flag.spanned(l2, l1))

    def __bool__(self):
        return True

    @cached_property
    def eigenvalues(self):
        """The eigenvalues of num on the frame lines, in frame order."""
        return tuple(_eigenvalue(self.element.num, v) for v in self.frame.lines)

    @cached_property
    def eigenvalue_valuations(self):
        """The p-adic valuations of ``eigenvalues``, pairwise distinct."""
        vals = tuple(valuation_int(y, self.p) for y in self.eigenvalues)
        if len(set(vals)) < 3:
            raise ValueError("the eigenvalues on the frame lines must have "
                             "pairwise distinct valuations")
        return vals

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
    exps = dict(zip(lines, (-s, lam[1] - s, lam[0] - s)))  # ascending, sum 0
    frame = Frame.from_lines(lines)
    f = frame.matrix()
    # F diag(p^e) F^-1 = F diag(p^(e - e0)) adj(F) / (det F p^-e0), e0 = min e,
    # e the exponents of the frame lines
    e0 = min(exps.values())
    d = tuple(tuple(p ** (exps[v] - e0) if i == j else 0 for j in range(3))
              for i, v in enumerate(frame.lines))
    g = GroupElement.reduced(mat_mul(f, mat_mul(d, frame.adjugate)),
                             det3(f) * p ** -e0)
    return SrhCertificate(p, g, lines, lam)


# ---------------------------------------------------------------------------
# north-south dynamics
# ---------------------------------------------------------------------------

def _chamber_of_valuations(v, threshold):
    """The apartment chamber of greatest common depth with a flag, as its
    order (i, j, k) in ``ALL_PERMS``, and that depth, when it reaches
    threshold; the first such chamber on ties, which is also the first to
    reach the cap.

    v holds the valuations of the flag's line l and second adapted column
    f2 in frame coordinates, l first, with a zero entry at 2 cap or more,
    cap = threshold + 1.  The chamber (i, j, k) is the coordinate flag with
    line e_i and normal e_k, whose ``flag_adapted_columns`` are e_i, +-e_j,
    +-e_k and row k.  So the three entries ``adapted_depth`` reads are
    +-l[j], +-f2[k] and +-l[k], and the depth is min(cap, v(l[j]),
    v(f2[k]), floor(v(l[k]) / 2)); a zero entry counts as 2 cap, which the
    cap absorbs in every term.
    """
    cap = threshold + 1
    depths = [min(cap, v[j], v[3 + k], v[k] // 2) for _, j, k in ALL_PERMS]
    top = max(depths)
    if top < threshold:
        return None
    return ALL_PERMS[depths.index(top)], top


def _apartment_candidate(flag, p, threshold):
    """``_chamber_of_valuations`` of a flag's ``flag_adapted_columns``.  The
    six valuations are taken once, each on the entry mod p^(2 cap) as
    ``adapted_depth`` takes it: a residue 0 counts as 2 cap."""
    absent = 2 * (threshold + 1)
    q = p ** absent
    line, f2, _, _ = flag
    v = []
    for x in (*line, *f2):
        r = x % q
        v.append(valuation_int(r, p) if r else absent)
    return _chamber_of_valuations(v, threshold)


def _stable_apartment_direction(depth, candidate, threshold, nmax):
    """Common stabilization detector for power iterations.

    The detector reads the n-th image of a flag in frame coordinates,
    those of the matrix F whose columns are the frame lines: a flag of Q^3
    is ``flag_in_basis(F, flag)`` there, up to sign.  F spans the base
    vertex (the frame vertex at 0), which is Z_(p)^3 in these coordinates,
    and the apartment chambers are the coordinate flags.  depth(n), for
    n >= 2, is the agreement depth of images n - 1 and n, capped at
    threshold + 1: ``common_depth`` of two flags at the base vertex, which
    is ``adapted_depth`` of their ``flag_adapted_columns``.  candidate(n)
    is ``_chamber_of_valuations`` of image n: the apartment chamber, as
    its order, and its depth, or None.  Convergence is declared when the
    depth is nondecreasing and at least threshold for three consecutive
    steps, and the chamber candidate(n) reads at that point is confirmed
    by the one read at step 2n + 2 (iteration paths are piecewise
    straight, so a transient leg that fooled the run rule fails the
    doubled confirmation); it is returned as its order (i, j, k) of the
    frame lines.

    The confirmation leg is skipped.  Once a candidate is read at step n,
    the steps n + 1 to 2n + 1 decide nothing: the run count and the last
    depth they update are read again only after the depth at 2n + 2 has
    replaced the last depth, and a failed confirmation resets the run.  So
    the detector reads step 2n + 2 next; when the confirmation fails it
    takes the depth at 2n + 2 and goes on from there.  A candidate read at
    a step n with 2n + 2 > nmax could not be confirmed, so the run stops
    before such a step.  The steps only move forward, so each depth is
    taken at most once, and the detector keeps no state per step.
    """
    prev_depth = -1
    run = 0
    n = 2
    while 2 * n + 2 <= nmax:
        d = depth(n)
        run = run + 1 if d >= threshold and d >= prev_depth else 0
        prev_depth = d
        if run >= 3:
            best = candidate(n)
            if best is not None:
                n = 2 * n + 2
                confirmed = candidate(n)
                if confirmed is not None and confirmed[0] == best[0]:
                    return best[0]
                prev_depth = depth(n)
            run = 0
        n += 1
    raise HorizonExceededError("iteration did not stabilize before the horizon")


def _image_readers(image, p, threshold):
    """The detector's depth and candidate readers of image(n), the n-th
    image (line, normal) as primitive vectors in frame coordinates: each
    image's ``flag_adapted_columns`` is taken once, and every depth reads
    the last two images asked for, so two are kept."""
    @lru_cache(maxsize=2)
    def flag(n):
        return flag_adapted_columns(*image(n), p)

    def depth(n):
        return adapted_depth(flag(n - 1), flag(n), p, threshold + 1)

    def candidate(n):
        return _apartment_candidate(flag(n), p, threshold)

    return depth, candidate


# The two indices other than j, for each j.
_OTHERS = ((1, 2), (2, 0), (0, 1))


def _f2_pair(x, m, y, big_m):
    """The indices (u, w), u < w, of the entries of the second column f2
    that ``flag_adapted_columns`` builds for a line and normal whose
    entries have valuations x and y, least m and big_m: f2 has +-normal[w]
    at u, -+normal[u] at w and 0 elsewhere, and the kernel's pivots test
    only which entries are units, those of least valuation."""
    if y[0] == big_m:
        return (0, 2) if x[1] == m else (0, 1)
    if y[1] == big_m:
        return (1, 2) if x[0] == m else (0, 1)
    return (1, 2) if x[0] == m else (0, 2)


def _valuation_readers(cert, line, normal, threshold):
    """The detector's depth and candidate readers of the images g^n c, read
    off twelve valuations fixed per call; no image is formed.

    In frame coordinates g steps the line (l0, l1, l2) by diag(a, b, k),
    the eigenvalues of num on the frame lines, and the normal
    (r0, r1, r2) by diag(mu) with mu = (b k, a k, a b).  With
    alpha_i = v(lambda_i), pairwise distinct, A = sum alpha_i,
    nu_i = v(mu_i) = A - alpha_i (also distinct), beta_i = v(l_i) and
    gamma_i = v(r_i), image n is the primitive pair of
    (lambda_i^n l_i) and (mu_i^n r_i).  The p-part of a gcd is p^min, so
    the entries of its line have valuations x_i(n) - m_n, with
    x_i(n) = n alpha_i + beta_i and m_n = min_i x_i(n), and those of its
    normal y_i(n) - M_n, with y_i(n) = n nu_i + gamma_i and M_n the least
    of those; a zero entry stays zero.  These reduced valuations are all
    that is read below, and all that ``flag_adapted_columns`` tests.

    The depth at n is ``adapted_depth`` of the columns (l', f2', w', j') of
    image n - 1 and (l, f2, w, j) of image n: min(rmax, v(K10), v(K21),
    floor(v(K20) / 2)) with K10 = (l x l')[j], K21 = w . f2' and
    K20 = w . l', a zero entry absent, rmax = threshold + 1.

    * w = l x f2 = s N, N the normal of image n and s a unit.  Both l and
      f2 lie in the plane, so l x f2 is an integer multiple s N of the
      primitive N.  In each of the kernel's six cases one index t has
      exactly one of l[t], f2[t] a unit and the other 0 mod p (t = 1 when
      normal[0] is a unit, else t = 0), and both vectors are nonzero mod p
      (l has content 1, f2 holds the unit entry of N), so l and f2 are
      independent mod p and s is a unit.  Hence j, the first unit entry of
      w, is the first index with y_j(n) = M_n.
    * K10 = +-(l_a l'_b - l_b l'_a), {a, b} the indices other than j.  The
      two products have valuations x_a(n) - m_n + x_b(n-1) - m_(n-1) and
      the same with a, b swapped; they differ by alpha_a - alpha_b != 0, so
      v(K10) is the lesser, which is (n-1)(alpha_a + alpha_b) +
      min(alpha_a, alpha_b) + beta_a + beta_b - m_n - m_(n-1), and K10 is
      zero exactly when l_a l_b is.
    * K21 = s N . f2' = +-s (N_u N'_w - N_w N'_u), with (u, w) the pair of
      ``_f2_pair`` on image n - 1; in the same way v(K21) is the lesser of
      the two products' valuations, since nu_u != nu_w, and K21 is zero
      exactly when r_u r_w is.
    * K20 = s N . l' = s sum mu_i^n r_i lambda_i^(n-1) l_i over the two
      gcds, and mu_i lambda_i = a b k for every i, so K20 is
      s (a b k)^(n-1) S over the gcds with S = sum mu_i r_i l_i, one
      integer per call: v(K20) = (n-1) A + v(S) - M_n - m_(n-1), absent
      when S = 0.

    ``adapted_depth`` takes each entry mod p^(2 rmax), and a residue is 0
    exactly when the valuation is at least 2 rmax, which the cap absorbs;
    so the depths are its depths exactly.  The candidate at n is
    ``_chamber_of_valuations`` of the reduced valuations of image n's line
    and f2, the second read off N as ``_f2_pair`` places it.

    line and normal may carry any nonzero scalars: each read is a difference
    of valuations within one vector (x_i - m_n, y_i - M_n, the ties
    ``_f2_pair`` tests, the offset of a zero entry below) or
    v(S) - M_n - m_(n-1), and scaling the line by lambda and the normal by mu
    shifts every beta, every gamma and v(S) by v(lambda), v(mu) and
    v(lambda) + v(mu); a zero entry stays zero and no read sees a sign.

    A zero entry of the line is read as an entry of slope max alpha + 1
    and offset 2 rmax plus the greatest beta of the nonzero entries, and a
    zero entry of the normal likewise with nu and gamma.  Its reduced
    valuation is then at least 2 rmax at every step n >= 0: it is never
    least, so no pivot and no j reads it, and every depth term and
    candidate valuation it enters reaches the cap, as the zero entry would
    leave that term absent.
    """
    p = cert.p
    rmax = threshold + 1
    alpha = cert.eigenvalue_valuations
    total = sum(alpha)
    nu = tuple(total - e for e in alpha)
    a, b, k = cert.eigenvalues
    s = b * k * normal[0] * line[0] + a * k * normal[1] * line[1] + \
        a * b * normal[2] * line[2]
    vs = valuation_int(s, p) if s else None

    def terms(slopes, v):
        """(slope, offset) of each entry of the vector v, a zero entry
        read far above the others."""
        offsets = [valuation_int(e, p) if e else None for e in v]
        far = 2 * rmax + max(o for o in offsets if o is not None)
        steep = max(slopes) + 1
        return [(steep, far) if o is None else (e, o)
                for e, o in zip(slopes, offsets)]

    (a0, b0), (a1, b1), (a2, b2) = terms(alpha, line)
    (c0, d0), (c1, d1), (c2, d2) = terms(nu, normal)

    def image(n):
        """x(n), m_n, y(n), M_n and the ``_f2_pair`` of image n."""
        x0, x1, x2 = x = (n * a0 + b0, n * a1 + b1, n * a2 + b2)
        y0, y1, y2 = y = (n * c0 + d0, n * c1 + d1, n * c2 + d2)
        m = x0 if x0 <= x1 and x0 <= x2 else x1 if x1 <= x2 else x2
        big_m = y0 if y0 <= y1 and y0 <= y2 else y1 if y1 <= y2 else y2
        return x, m, y, big_m, _f2_pair(x, m, y, big_m)

    def depth(n):
        x1, m1, y1, big_m1, (u, w) = image(n - 1)
        x, m, y, big_m, _ = image(n)
        ia, ib = _OTHERS[y.index(big_m)]
        d = min(rmax, min(x[ia] + x1[ib], x[ib] + x1[ia]) - m - m1,
                min(y[u] + y1[w], y[w] + y1[u]) - big_m - big_m1)
        if vs is not None:
            d = min(d, ((n - 1) * total + vs - big_m - m1) // 2)
        return d

    def candidate(n):
        x, m, y, big_m, (u, w) = image(n)
        v = [x[0] - m, x[1] - m, x[2] - m, 2 * rmax, 2 * rmax, 2 * rmax]
        v[3 + u], v[3 + w] = y[w] - big_m, y[u] - big_m
        return _chamber_of_valuations(v, threshold)

    return depth, candidate


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
    and F^T adj(g^n)^T normal is (adj(G)^T)^n F^T normal.  So image n is
    the primitive pair of (a^n l0, b^n l1, k^n l2) and
    ((b k)^n n0, (a k)^n n1, (a b)^n n2), and every depth and candidate
    the detector takes is read off the valuations of these entries in
    closed form (``_valuation_readers``), with no image formed.  The
    depths are those of the flags g^n c at the base vertex, since a depth
    does not depend on the basis of the lattice it is read in
    (``adapted_depth``).  The apartment chambers are the coordinate flags
    there, so c is one of them exactly when its line and its normal each
    have two zero coordinates.  c enters by the frame's ``adjugate`` and
    its lines, the rows of F^T: that is ``flag_in_basis(F, c)`` up to a
    scalar on each vector, which changes no zero entry and no read
    (``_valuation_readers``).
    """
    frame = cert.frame
    line = mat_vec(frame.adjugate, c.line)
    normal = mat_vec(frame.lines, c.plane_normal)
    if line.count(0) == 2 and normal.count(0) == 2:
        return c
    order = _stable_apartment_direction(
        *_valuation_readers(cert, line, normal, threshold), threshold, nmax)
    return frame_chamber(frame, order)


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
    x = standard_vertex(p)
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
    ``north_south_limit`` does, and forms image n in closed form.  With F_i
    the frame matrix of cert_i, num_i F_i = F_i diag(lambda_i), lambda_i its
    ``eigenvalues``, so projectively g_i^n = F_i diag(lambda_i^n) adj(F_i)
    and its cofactor matrix, which moves plane normals, is
    adj(F_i)^T diag(mu_i^n) F_i^T with mu = (b k, a k, a b) for
    lambda = (a, b, k), the adjugate of diag(lambda).  Set
    M = adj(F2) F1 and N = adj(F1) F2, so M N = det(F1) det(F2) I.  Then
    adj(F2) g2^n g1^n l is diag(lambda2^n) M diag(lambda1^n) u and
    F2^T adj(g2^n g1^n)^T r is diag(mu2^n) N^T diag(mu1^n) w, up to
    scalars, where (u, w) is c moved by adj(F1) and F1^T: image n is the
    primitive pair of these two vectors, a function of n alone, so u and w
    need not be primitive.  The sign of each image is not read: the
    detector takes only residues mod p and valuations of its entries.
    """
    if not proximal_pair_check(cert1, cert2):
        raise ValueError("pair does not satisfy the contraction hypothesis")
    frame1, frame2 = cert1.frame, cert2.frame
    m = mat_mul(frame2.adjugate, frame1.matrix())
    nt = mat_mul(frame2.lines, transpose(frame1.adjugate))
    u = mat_vec(frame1.adjugate, c.line)
    w = mat_vec(frame1.lines, c.plane_normal)
    lam1, lam2 = cert1.eigenvalues, cert2.eigenvalues
    mu1, mu2 = ((b * k, a * k, a * b) for a, b, k in (lam1, lam2))

    def scaled(d, n, v):
        """d^n times v, entry by entry."""
        return tuple(x ** n * e for x, e in zip(d, v))

    def image(n):
        line = mat_vec(m, scaled(lam1, n, u))
        normal = mat_vec(nt, scaled(mu1, n, w))
        return (primitive_vector(scaled(lam2, n, line)),
                primitive_vector(scaled(mu2, n, normal)))

    return frame_chamber(frame2, _stable_apartment_direction(
        *_image_readers(image, cert2.p, threshold), threshold, nmax))


# ---------------------------------------------------------------------------
# flag limit set samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitSetSample:
    """Attracting chambers of certified SRH words up to a length bound."""

    flags: tuple
    word_bound: int
    witnesses: tuple  # pairs (flag, certificate)


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
    x = standard_vertex(p)
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
