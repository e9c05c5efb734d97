"""Independent brute-force oracles used to validate the library's fast paths.

Each oracle deliberately avoids the code path it checks: valuations come
from dividing by p one unit at a time instead of by binary splitting, Smith
exponents from elimination with minimal-valuation pivoting instead of the
minor valuations the library reads them off, flag echelon forms from Fraction
column elimination, relative position from trying all six permutations
against the rank table, sector membership from enumerating the sector's
vertices or from the Hermite form of the relative matrix (and retractions
from its pivots) instead of its minor valuations, common depth from walking
the growth ray vertex by vertex (``common_depth_ray_oracle``), or from the
full relative matrix of the two adapted bases of the base vertex
(``ray_depth``), instead of three products of the flags' adapted columns,
residue alcoves from a first-step neighbor search, vertex
counts at a vector distance from enumerating canonical lattice
representatives instead of Macdonald's formula, and the basis-set event of the harmonic mass law from the
canonical form of adj(k) d_y instead of three divisibility tests.
``mat_inv3`` is a Fraction inverse, which the library itself never takes,
for checking the integer inverses of group elements.  The nearest apartment
vertex comes from full theta evaluations, greedy descent and then a scan of
every vertex the triangle inequality leaves possible, instead of per-source
minima and the six-move descent alone, strip vertex counts from the
Eisenstein norm instead of distances between apartment vertices, square-root
sums are compared by Fraction enclosures instead of an integer sign test,
primality by trial division instead of Miller-Rabin, the walk in the
coordinates of the letters' product (``run_walk_product_oracle``) with its
minors' valuations taken one by one instead of in base-vertex coordinates
with one gcd of the minors, primitive vectors with a Fraction pass over
every entry, the harmonic sampler's stabilizer matrices, gapped or not,
from randrange and ``det3`` (``random_stabilizer_matrix_oracle``,
``sector_shape_matrix_oracle``) instead of raw getrandbits words and an
inline determinant, the mass estimate's matrices one candidate at a time
from blocks of words (``random_stabilizer_matrices_oracle``) instead of a
round's candidates on byte lanes, the flags of the harmonic sample, the
conditioned sample and the walk's direction estimate from the full product
and ``Flag.from_matrix`` (``harmonic_sample_oracle``,
``harmonic_sample_in_basis_set_oracle``, ``direction_estimate_oracle``)
instead of two columns, and the adapted basis of
``smith_left_transform`` from Fraction elimination with unit pivots
instead of its closed form in one pivot, one 2x2 minor and the
determinant, and the germ parts from a transposed adjugate and a rank-1
test by elimination over tuples of the unreduced basis instead of nine
cofactors and cross products on locals of the basis mod p^(floor(D/2)+1).
The Hermite form of a lattice comes from column elimination
(``lattice_canonical_oracle``) instead of two pivot columns in closed form,
and the Hermite-form oracles above call it, so they stay independent of
that closed form.  The boundary retraction comes from the retracted ray and
its certified crossing bound (``boundary_retraction_iwasawa_oracle``)
instead of the apartment chamber at the same Weyl distance from the centre.
The barycenter's shell search runs on ``SqrtSum`` values throughout
(``certified_apartment_min_oracle``) instead of integer enclosures of the
pairs of squared distances.  The rational ``valuation``, ``perm_length`` and
``stabilized_apartment_simplices`` live here because only the tests use
them, as do the lower-triangular torus member of the Borel family and its
finite-field cross-checks (``torus_members_field``,
``upper_borel_intersection_count_field``), and ``harmonic_generic_triples``
draws test inputs for several modules.  The north-south limit and the
universal contraction come from moving the flag itself by ``Flag.apply``
and mapping each image to the base vertex, whose adapted bases the
detector compares by ``ray_depth`` against the six chambers' bases
(``north_south_limit_flag_oracle``, ``universal_contraction_flag_oracle``),
step by step, instead of reading a pair in frame coordinates off a
diagonal matrix's powers, or off G2^n G1^n, only at the steps that decide,
and each chamber depth off the image's valuations.  The north-south limit
also has its image route (``north_south_limit_image_oracle``, and
``north_south_outcomes_image_oracle`` at many horizons at once): the
images formed as primitive pairs in frame coordinates and read by
``flag_adapted_columns``, ``adapted_depth`` and ``_apartment_candidate``,
instead of every depth and candidate read off twelve valuations fixed per
call.  The candidate chamber
also has its loop of six ``adapted_depth`` calls against the coordinate
flags (``apartment_candidate_kernel_oracle``).  The apartment chambers are
the flags of the six permuted frame matrices
(``apartment_chambers_oracle``), and a chamber's order in
the frame, the boundary retraction and opposition to a whole apartment
come from searching them (``chamber_order_in_frame_oracle``,
``boundary_retraction_search_oracle``, ``is_opposite_to_apartment_oracle``)
instead of incidence tests of the flag against the frame lines.  Genericity
comes from intersecting the ideal simplices of the three pair apartments
(``is_generic_simplices_oracle``) instead of two determinants, and
equicontinuity membership from a search over the residue alcoves that hold
the germ (``equicontinuity_set_member_oracle``, over ``residue_lines`` and
``residue_chambers``) instead of one incidence test mod p per part of the
germ.  The success probability of a rejection sampler of matrices comes
from counting the matrices of a box by their first two rows
(``det_count_in_box``).  The walk also has its per-step form
(``run_walk_oracle``), which reads every step's germ off the position
instead of following the reduced word and reusing the records of its
prefixes.
"""

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import permutations, product
from math import gcd, isqrt

from sl3building.padic_linalg import (
    SingularMatrixError,
    ZeroValuationError,
    columns,
    cross,
    det3,
    dot,
    flag_adapted_basis,
    flag_adapted_columns,
    from_columns,
    adjugate3,
    identity,
    in_basis,
    integerize,
    mat_mul,
    mat_vec,
    minor_valuations,
    mul_strip,
    require_prime,
    residue_germ_parts,
    smith_exponents,
    smith_left_transform,
    strip_p_content,
    transpose,
    valuation_int,
)
from sl3building.building import (
    LatticeVertex,
    ResidueChamber,
    _eisenstein_ball,
    adapted_basis_at,
    canonical_modp_vector,
    dist2,
    dominant,
    flag_in_basis,
    frame_vertex,
    germ_face,
    is_regular,
    random_vertex,
    residue_projection,
    weyl_dist2,
)
from sl3building.boundary import (
    ALL_PERMS,
    Flag,
    HorizonExceededError,
    adapted_depth,
    apartment_from_opposite,
    flag_echelon,
    growth_ray_vertex,
    is_opposite,
    sector_membership,
    weyl_distance,
)
from sl3building.dynamics import (
    _image_readers,
    _primitive,
    _stable_apartment_direction,
)
from sl3building.parabolics import stabilizes_line, stabilizes_plane
from sl3building.rng import make_rng
from sl3building.sqrtsum import SqrtSum
from sl3building.stochastics import (
    _WORD_BLOCK,
    WalkStep,
    WalkTrace,
    _random_stabilizer_matrix,
    harmonic_sample,
)
from sl3building.triples import ChamberTriple, is_generic


def valuation_loop_oracle(n, p):
    """p-adic valuation of a nonzero integer, one division by p per unit."""
    if n == 0:
        raise ZeroValuationError("valuation of 0 is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x, p):
    """p-adic valuation of a nonzero rational.

    v(p) = 1, v(3/4) = -2 for p = 2, and v(x*y) = v(x) + v(y).
    """
    if isinstance(x, int):
        return valuation_int(x, p)
    if x == 0:
        raise ZeroValuationError("valuation of 0 is undefined")
    return valuation_int(x.numerator, p) - valuation_int(x.denominator, p)


def perm_length(w):
    """Number of inversions; the longest element has length 3."""
    return sum(1 for i in range(3) for j in range(i + 1, 3) if w[i] > w[j])


def _capped_val(e, p, cap):
    """Valuation of a residue in [0, p^cap), with 0 treated as valuation cap."""
    return cap if e == 0 else valuation_int(e, p)


def lattice_canonical_oracle(m, p):
    """Canonical basis of the Z_(p)-lattice spanned by the columns of m.

    Column elimination mod p^(D+1), D the determinant valuation after
    stripping the p-content: rows from the bottom up, each pivot the first
    column of least valuation in that row, then a second pass that reduces
    the entries above the pivots.  The library reads the same Hermite form
    off two columns in closed form.
    """
    m_int, _ = integerize(m)
    d = det3(m_int)
    if d == 0:
        raise SingularMatrixError("columns do not span a lattice")
    m_int, _ = strip_p_content(m_int, p)
    big = valuation_int(det3(m_int), p) + 1
    q = p ** big
    cols = [list(col) for col in zip(*m_int)]
    cols = [[e % q for e in col] for col in cols]
    pivots = [0, 0, 0]
    for row in (2, 1, 0):
        best, best_v = None, None
        for j in range(row + 1):
            v = _capped_val(cols[j][row], p, big)
            if best_v is None or v < best_v:
                best, best_v = j, v
        if best_v >= big:  # cannot happen for a genuine lattice
            raise SingularMatrixError("degenerate column span")
        cols[row], cols[best] = cols[best], cols[row]
        pv = p ** best_v
        u = cols[row][row] // pv
        uinv = pow(u, -1, q)
        cols[row] = [(e * uinv) % q for e in cols[row]]
        pivots[row] = best_v
        for j in range(row):
            e = cols[j][row]
            if e:
                f = e // pv
                cols[j] = [(x - f * y) % q for x, y in zip(cols[j], cols[row])]
    # second pass: reduce entries above the pivots
    for j in (1, 2):
        for i in range(j - 1, -1, -1):
            mod = p ** pivots[i]
            r = cols[j][i] % mod
            f = (cols[j][i] - r) // mod
            if f:
                cols[j] = [(x - f * y) % q for x, y in zip(cols[j], cols[i])]
            cols[j][i] = r
    out = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for i in range(3):
        out[i][i] = p ** pivots[i]
        for j in range(i + 1, 3):
            out[i][j] = cols[j][i] % (p ** pivots[i])
    return tuple(tuple(row) for row in out)


def smith_elimination_oracle(m, p):
    """Elementary-divisor exponents of an invertible rational matrix over Z_(p).

    Returns the sorted triple (a1 >= a2 >= a3) with U m V = diag(p^a1, p^a2,
    p^a3) for suitable U, V invertible over Z_(p); the sum equals the
    valuation of det m.  Computed by elimination with minimal-valuation
    pivoting on an integer scaling of m, reduced modulo p^(D+1) where D is
    the determinant valuation after stripping the p-content.
    """
    m_int, den = integerize(m)
    d = det3(m_int)
    if d == 0:
        raise SingularMatrixError("smith_exponents requires det != 0")
    shift = valuation_int(den, p)
    m_int, content = strip_p_content(m_int, p)
    big = valuation_int(det3(m_int), p) + 1
    q = p ** big
    work = [[e % q for e in row] for row in m_int]
    active_r, active_c = [0, 1, 2], [0, 1, 2]
    exps = []
    while active_r:
        bi = bj = None
        bv = big
        for i in active_r:
            for j in active_c:
                v = _capped_val(work[i][j], p, big)
                if v < bv:
                    bi, bj, bv = i, j, v
        exps.append(bv)
        pv = p ** bv
        u = work[bi][bj] // pv
        uinv = pow(u, -1, q)
        for i in active_r:
            if i != bi and work[i][bj]:
                f = (work[i][bj] // pv) * uinv % q
                work[i] = [(x - f * y) % q for x, y in zip(work[i], work[bi])]
        for j in active_c:
            if j != bj and work[bi][j]:
                f = (work[bi][j] // pv) * uinv % q
                for i in active_r:
                    work[i][j] = (work[i][j] - f * work[i][bj]) % q
        active_r.remove(bi)
        active_c.remove(bj)
    exps = [e + content - shift for e in exps]
    return tuple(sorted(exps, reverse=True))


def unit_part(x, p):
    """The p-adic unit u with x = p^v * u."""
    v = valuation(x, p)
    return Fraction(x) / Fraction(p) ** v


def smith_left_transform_oracle(m, p):
    """``smith_left_transform`` by Fraction elimination with unit pivots.

    Returns (P, d) with P invertible over Z_(p) and d ascending such that the
    lattice spanned by the columns of m equals the span of p^(d_i) * P_i,
    where P_i are the columns of P.  Each step pivots on the first
    least-valuation entry of the remaining block, swaps it to the front,
    divides its row by the pivot's unit part and clears its row and column;
    the row operations accumulate, inverted, in P.
    """
    work = [[Fraction(e) for e in row] for row in m]
    if det3(work) == 0:
        raise SingularMatrixError("smith_left_transform requires det != 0")
    left = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]
    d = []
    for step in range(3):
        bi = bj = None
        bv = None
        for i in range(step, 3):
            for j in range(step, 3):
                if work[i][j] != 0:
                    v = valuation(work[i][j], p)
                    if bv is None or v < bv:
                        bi, bj, bv = i, j, v
        # row swap corresponds to swapping columns of the accumulated left part
        work[step], work[bi] = work[bi], work[step]
        for r in left:
            r[step], r[bi] = r[bi], r[step]
        for r in work:
            r[step], r[bj] = r[bj], r[step]
        u = unit_part(work[step][step], p)
        work[step] = [e / u for e in work[step]]
        for r in left:
            r[step] = r[step] * u
        pv = Fraction(p) ** bv
        for i in range(3):
            if i != step and work[i][step] != 0:
                f = work[i][step] / pv
                work[i] = [x - f * y for x, y in zip(work[i], work[step])]
                for r in left:
                    r[step] = r[step] + f * r[i]
        for j in range(step + 1, 3):
            if work[step][j] != 0:
                f = work[step][j] / pv
                for i in range(3):
                    work[i][j] = work[i][j] - f * work[i][step]
        d.append(bv)
    return tuple(tuple(r) for r in left), tuple(d)


def rank(m):
    """Exact rank of a matrix over Q (Gaussian elimination on Fractions)."""
    rows = [[Fraction(e) for e in row] for row in m]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [e - f * g for e, g in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return r


def flag_echelon_oracle(m):
    """Column-echelon coset representative of the flag of m, by elimination."""
    cols = [[Fraction(e) for e in col] for col in columns(m)]
    if det3(m) == 0:
        raise ValueError("flag matrix must be invertible")
    pivots = []
    for j in range(3):
        col = cols[j]
        for i, pr in enumerate(pivots):
            if col[pr] != 0:
                f = col[pr] / cols[i][pr]
                col = [a - f * b for a, b in zip(col, cols[i])]
        piv = max(r for r in range(3) if col[r] != 0)
        inv = 1 / col[piv]
        cols[j] = [a * inv for a in col]
        pivots.append(piv)
    return from_columns(tuple(tuple(c) for c in cols))


def flag_matrix(f):
    """The column-echelon representative of a flag, every entry a Fraction.

    Its entries are read off the integer kernel ``flag_echelon``, which
    records are written from; ``flag_echelon_oracle`` derives them anew.
    """
    l, a, u, b, r = flag_echelon(f.line, f.plane_normal)
    return tuple((Fraction(l[i], a), Fraction(u[i], b), Fraction(int(i == r)))
                 for i in range(3))


def weyl_distance_oracle(c, d):
    """The unique permutation matching the full intersection-dimension table."""
    ccols = columns(flag_matrix(c))
    dcols = columns(flag_matrix(d))
    dims = {}
    for i in range(1, 4):
        for j in range(1, 4):
            stacked = from_columns(ccols[:i] + dcols[:j])
            dims[(i, j)] = i + j - rank(stacked)
    matches = []
    for w in permutations(range(3)):
        if all(dims[(i, j)] == sum(1 for a in range(i) if w[a] < j)
               for i in range(1, 4) for j in range(1, 4)):
            matches.append(w)
    assert len(matches) == 1, f"dimension table matched {len(matches)} permutations"
    return matches[0]


def mat_inv3(m):
    d = det3(m)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    d = Fraction(d)
    return tuple(tuple(Fraction(e) / d for e in row) for row in adjugate3(m))


def sector_vertices_bfs(x, c, radius):
    """All vertices of the sector from x toward c within CAT(0) radius.

    Enumerates the adapted-basis diagonal lattices with ascending exponent
    triples of bounded length; returns their canonical matrices as a set.
    """
    p = x.p
    g = columns(mat_mul(mat_inv3(x.matrix), flag_matrix(c)))
    h = flag_adapted_basis(primitive_vector_oracle(g[0]),
                           primitive_vector_oracle(cross(g[0], g[1])), p)
    base = mat_mul(x.matrix, h)
    out = set()
    r2 = radius * radius
    bound = radius + 1
    for m2 in range(0, bound + 1):
        for m3 in range(m2, 2 * bound + 1):
            if weyl_dist2((m3, m2, 0)) <= r2:
                cols = columns(base)
                scaled = (cols[0],
                          tuple(e * p ** m2 for e in cols[1]),
                          tuple(e * p ** m3 for e in cols[2]))
                out.add(LatticeVertex.from_matrix(p, from_columns(scaled)).matrix)
    return out


def sector_membership_oracle(x, c, y, radius):
    """Membership by exhaustive sector enumeration; valid when d(x, y) <= radius."""
    assert dist2(x, y) <= radius * radius, "oracle radius too small"
    return y.matrix in sector_vertices_bfs(x, c, radius)


def is_diagonal_ascending(canon, p):
    """True if a canonical lattice matrix is diagonal with ascending exponents."""
    for i in range(3):
        for j in range(3):
            if i != j and canon[i][j] != 0:
                return False
    e = [valuation_int(canon[i][i], p) for i in range(3)]
    return e[0] <= e[1] <= e[2]


def sector_membership_lattice_oracle(x, c, y):
    """Membership by the Hermite form of the relative matrix in an adapted basis."""
    h = adapted_basis_at(x, c)
    n = mat_mul(adjugate3(mat_mul(x.matrix, h)), y.matrix)
    return is_diagonal_ascending(lattice_canonical_oracle(n, x.p), x.p)


def common_depth_ray_oracle(c, d, o, rmax):
    """Common depth by walking the growth ray of Q(o, c) one vertex at a time.

    Each vertex is built and tested for membership in Q(o, d) until the first
    one outside, instead of reading the depth off the relative matrix of the
    two adapted bases.
    """
    if c == d:
        return rmax
    depth = 0
    for t in range(1, rmax + 1):
        y = growth_ray_vertex(o, c, t)
        if sector_membership(o, d, y):
            depth = t
        else:
            break
    return depth


def ray_depth(h_c, adj_h_d, p, rmax):
    """``common_depth`` from the adapted bases: H_c and the adjugate of H_d.

    With K = adj(H_d) H_c and v(0) infinite it is min(rmax, v(K[1][0]),
    v(K[2][1]), floor(v(K[2][0]) / 2)), each entry summed in full and its
    valuation taken on the whole entry, instead of three products of the
    flags' (l, f2, w, j).
    """
    depth = rmax
    for i, j, scale in ((1, 0, 1), (2, 1, 1), (2, 0, 2)):
        k = sum(adj_h_d[i][m] * h_c[m][j] for m in range(3))
        if k:
            depth = min(depth, valuation_int(k, p) // scale)
    return depth


def _apartment_candidate_oracle(chambers, h_flag, p, threshold):
    """The apartment chamber of greatest common depth with the flag, when
    that depth reaches threshold; the depths come from the flag's adapted
    basis and the (chamber, adjugated adapted basis) pairs in chambers."""
    best = None
    for e, adj_h_e in chambers:
        de = ray_depth(h_flag, adj_h_e, p, threshold + 1)
        if de >= threshold and (best is None or de > best[1]):
            best = (e, de)
    return best


# The ``flag_adapted_columns`` of the coordinate flags, line e_i and normal
# e_k for each order (i, j, k) in ``ALL_PERMS``.  Their entries are 0 and
# +-1, so every ``% p`` test in the kernel reads the same for each prime p
# and one build at p = 2 serves them all.
COORDINATE_CHAMBERS = tuple(
    flag_adapted_columns(identity()[i], identity()[k], 2) for i, _, k in ALL_PERMS)


def apartment_candidate_kernel_oracle(flag, p, threshold):
    """``dynamics._apartment_candidate`` by ``adapted_depth`` of the flag's
    columns against each coordinate chamber's, in ``ALL_PERMS`` order,
    stopping at the first depth at the cap, instead of six valuations of
    the flag's entries taken once."""
    cap = threshold + 1
    best = None
    for order, chamber in zip(ALL_PERMS, COORDINATE_CHAMBERS):
        de = adapted_depth(flag, chamber, p, cap)
        if de >= threshold and (best is None or de > best[1]):
            best = (order, de)
            if de == cap:
                break
    return best


def flag_route_readers(cert, image, threshold, base):
    """The flag oracle's depth and candidate readers of the flags image(n)
    of Q^3, each mapped to base.

    Each image's adapted basis is ``adapted_basis_at(base, flag)``, instead
    of ``flag_adapted_basis`` of a pair already in base coordinates; the
    depth at n is ``ray_depth`` of images n - 1 and n, and the candidate at
    n is ``_apartment_candidate_oracle`` of image n, a chamber of Q^3 and
    its depth.
    """
    p = base.p
    chambers = [(e, adjugate3(adapted_basis_at(base, e)))
                for e in apartment_chambers_oracle(cert.frame)]

    @lru_cache(maxsize=None)
    def basis(n):
        return adapted_basis_at(base, image(n))

    def depth(n):
        return ray_depth(basis(n - 1), adjugate3(basis(n)), p, threshold + 1)

    def candidate(n):
        return _apartment_candidate_oracle(chambers, basis(n), p, threshold)

    return depth, candidate


def _stable_apartment_direction_flag_oracle(cert, image, threshold, nmax,
                                            base):
    """The stabilization detector on the flags image(n) of Q^3, read by
    ``flag_route_readers``, walking every step from 2 to nmax: the
    confirmation leg is stepped through, not skipped."""
    depth, read_candidate = flag_route_readers(cert, image, threshold, base)
    prev_depth = -1
    run = 0
    candidate = None
    confirm_at = None
    for n in range(2, nmax + 1):
        d = depth(n)
        if d >= threshold and d >= prev_depth:
            run += 1
        else:
            run = 0
        prev_depth = d
        if candidate is None and run >= 3:
            best = read_candidate(n)
            if best is not None:
                candidate = best[0]
                confirm_at = 2 * n + 2
            else:
                run = 0
        elif candidate is not None and n >= confirm_at:
            best = read_candidate(n)
            if best is not None and best[0] == candidate:
                return candidate
            candidate, confirm_at, run = None, None, 0
    raise HorizonExceededError("iteration did not stabilize before the horizon")


def north_south_limit_flag_oracle(cert, c, nmax=40, threshold=4):
    """``north_south_limit`` with the flag itself moved by ``Flag.apply``.

    Each step applies g to the flag of Q^3 and maps the image into the base
    vertex's coordinates again, instead of stepping a (line, normal) pair
    already in those coordinates by one conjugated matrix.
    """
    for e in apartment_chambers_oracle(cert.frame):
        if e == c:
            return c
    g = cert.element.num
    flags = [c]  # flags[n] = g^n c

    def image(n):
        while len(flags) <= n:
            flags.append(flags[-1].apply(g))
        return flags[n]

    return _stable_apartment_direction_flag_oracle(
        cert, image, threshold, nmax, frame_vertex(cert.frame, cert.p))


def _image_route_readers(cert, line, normal, threshold):
    """The detector's readers of the images formed in frame coordinates:
    image n is the primitive pair of (a^n l0, b^n l1, k^n l2) and
    ((b k)^n n0, (a k)^n n1, (a b)^n n2), read by ``flag_adapted_columns``,
    ``adapted_depth`` and ``_apartment_candidate``."""
    a, b, k = cert.eigenvalues
    bk, ak, ab = b * k, a * k, a * b
    (l0, l1, l2), (n0, n1, n2) = line, normal

    def image(n):
        return (_primitive(a ** n * l0, b ** n * l1, k ** n * l2),
                _primitive(bk ** n * n0, ak ** n * n1, ab ** n * n2))

    return _image_readers(image, cert.p, threshold)


def north_south_limit_image_oracle(cert, c, nmax=40, threshold=4):
    """``north_south_limit`` on the images themselves, in frame coordinates.

    The detector reads its depths and candidates off the formed images'
    ``flag_adapted_columns`` (``_image_route_readers``), as
    ``universal_contraction`` does, instead of off twelve valuations fixed
    per call.
    """
    line, normal = flag_in_basis(cert.frame_matrix, c)
    if line.count(0) == 2 and normal.count(0) == 2:
        return c
    order = _stable_apartment_direction(
        *_image_route_readers(cert, line, normal, threshold), threshold, nmax)
    return cert.frame_chambers[order]


def north_south_outcomes_image_oracle(cert, c, threshold, horizons):
    """("limit", chamber) or ("horizon", None) of
    ``north_south_limit_image_oracle`` at each horizon in horizons, with
    each depth and candidate read once for all of them."""
    line, normal = flag_in_basis(cert.frame_matrix, c)
    if line.count(0) == 2 and normal.count(0) == 2:
        return [("limit", c)] * len(horizons)
    depth, candidate = (lru_cache(maxsize=None)(reader) for reader in
                        _image_route_readers(cert, line, normal, threshold))
    outcomes = []
    for nmax in horizons:
        try:
            outcomes.append(("limit", cert.frame_chambers[
                _stable_apartment_direction(depth, candidate, threshold, nmax)]))
        except HorizonExceededError:
            outcomes.append(("horizon", None))
    return outcomes


def universal_contraction_flag_oracle(cert1, cert2, c, nmax=40, threshold=4):
    """``universal_contraction`` with the flag itself moved by g2^n g1^n.

    Each image is c moved by ``Flag.apply`` of the group element
    g2^n g1^n, taken by ``GroupElement.power``, and mapped to the base
    vertex of cert2, instead of formed in frame coordinates from the
    eigenvalues of the two elements.
    """
    if not is_opposite_to_apartment_oracle(cert2.repelling, cert1.frame):
        raise ValueError("pair does not satisfy the contraction hypothesis")
    return _stable_apartment_direction_flag_oracle(
        cert2, partial(contraction_image_oracle, cert1, cert2, c),
        threshold, nmax, frame_vertex(cert2.frame, cert2.p))


def contraction_image_oracle(cert1, cert2, c, n):
    """The flag g2^n g1^n c of Q^3, by ``GroupElement.power``."""
    return c.apply((cert2.element.power(n) * cert1.element.power(n)).num)


def apartment_chambers_oracle(frame):
    """The six apartment chambers, each the flag of a permuted frame matrix."""
    v = frame.lines
    return tuple(Flag.from_matrix(from_columns((v[i], v[j], v[k])))
                 for i, j, k in permutations(range(3)))


def chamber_order_in_frame_oracle(frame, c):
    """The order of c, found by comparing c with all six apartment chambers."""
    for order, e in zip(permutations(range(3)), apartment_chambers_oracle(frame)):
        if e == c:
            return order
    raise ValueError("chamber does not belong to the apartment at infinity")


def boundary_retraction_search_oracle(frame, c, d):
    """The apartment chamber at the Weyl distance of d from c, by search."""
    chambers = apartment_chambers_oracle(frame)
    if c not in chambers:
        raise ValueError("chamber does not belong to the apartment at infinity")
    w = weyl_distance(c, d)
    return next(e for e in chambers if weyl_distance(c, e) == w)


def is_opposite_to_apartment_oracle(c, frame):
    """Opposition of c to each of the six apartment chambers in turn."""
    return all(is_opposite(c, e) for e in apartment_chambers_oracle(frame))


def is_generic_simplices_oracle(triple):
    """Genericity by intersecting the ideal simplices of the pair apartments.

    Each apartment contributes its three lines, the three planes of two of
    them (by canonical normal) and its six chambers; the triple is generic
    when it is antipodal and the three sets of each kind have no common
    member.
    """
    c1, c2, c3 = triple.chambers
    if not (is_opposite(c1, c2) and is_opposite(c1, c3) and is_opposite(c2, c3)):
        return False

    def simplices(a, b):
        frame = apartment_from_opposite(a, b)
        v = frame.lines
        planes = {primitive_vector_oracle(cross(v[i], v[j]))
                  for i in range(3) for j in range(i + 1, 3)}
        return set(v), planes, set(apartment_chambers_oracle(frame))

    s12, s13, s23 = simplices(c1, c2), simplices(c1, c3), simplices(c2, c3)
    return all(not (a & b & c) for a, b, c in zip(s12, s13, s23))


def retraction_lattice_oracle(frame, c, x):
    """Retraction with the Iwasawa exponents read off the Hermite-form pivots."""
    order = chamber_order_in_frame_oracle(frame, c)
    n = mat_mul(adjugate3(frame.matrix(order)), x.matrix)
    canon = lattice_canonical_oracle(n, x.p)
    m = [0, 0, 0]
    for k in range(3):
        m[order[k]] = valuation_int(canon[k][k], x.p)
    return frame_vertex(frame, x.p, tuple(m))


def boundary_retraction_iwasawa_oracle(frame, c, d, p):
    """Boundary retraction centred at c, read off the retracted ray toward d.

    The retracted images of the vertices x_n going to infinity along the
    ray toward d have pivot exponents that are minima of linear forms in n
    read off ``minor_valuations``.  Past the last crossing of those forms
    the exponent increments are constant, and ranking them names the
    chamber.  The library instead returns the apartment chamber at the Weyl
    distance of d from c.
    """
    for e in apartment_chambers_oracle(frame):
        if e == d:
            return d
    order_c = chamber_order_in_frame_oracle(frame, c)
    h = frame.matrix(order_c)
    o = frame_vertex(frame, p, (0, 0, 0))
    n0 = mat_mul(adjugate3(h), mat_mul(o.matrix, adapted_basis_at(o, d)))
    # column j of the ray vertex scales by p^(j * n), so the bottom-up corner
    # minors of n0 * diag(1, p^n, p^2n) have valuations that are minima of
    # linear forms in n, with slopes the sums of their column indices
    entries, minors, det_v = minor_valuations(n0, p)
    row2 = [(v, j) for v, i, j in entries if i == 2]
    pairs12 = [(v, j1 + j2) for v, i1, i2, j1, j2 in minors if (i1, i2) == (1, 2)]

    def crossing_bound(forms):
        best = 0
        for a, (va, sa) in enumerate(forms):
            for vb, sb in forms[a + 1:]:
                if sa != sb:
                    best = max(best, abs(va - vb))
        return best

    n_star = max(crossing_bound(row2), crossing_bound(pairs12)) + 1

    def exps_at(n):
        a3 = min(v + s * n for v, s in row2)
        a23 = min(v + s * n for v, s in pairs12)
        total = det_v + 3 * n
        return (total - a23, a23 - a3, a3)

    e_lo = exps_at(n_star)
    e_hi = exps_at(n_star + 1)
    slopes = tuple(b - a for a, b in zip(e_lo, e_hi))
    if len(set(slopes)) != 3:
        raise AssertionError("retraction direction degenerated onto a wall; "
                             "the limit chamber must be unique")
    ranking = sorted(range(3), key=lambda i: slopes[i])
    direction = tuple(order_c[i] for i in ranking)
    v = frame.lines
    return Flag.from_matrix(from_columns(
        (v[direction[0]], v[direction[1]], v[direction[2]])))


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


def equicontinuity_set_member_oracle(g, o, y):
    """Equicontinuity membership by a search of the residue alcoves at o.

    The candidates are the alcoves holding the germ of [o, g^-1 o]: the germ
    itself when it is regular, otherwise every alcove with its line or its
    plane.  Membership holds when one of them is opposite the alcove of y.
    """
    c_y = residue_projection(o, y)
    z = o.apply(g.inverse().num)
    if z == o:
        return True
    line, normal = germ_face(o, z)
    p = o.p
    if line is not None and normal is not None:
        candidates = [ResidueChamber.from_parts(p, line, normal)]
    elif line is not None:
        ell = canonical_modp_vector(line, p)
        candidates = [c for c in residue_chambers(p) if c.line == ell]
    else:
        nn = canonical_modp_vector(normal, p)
        candidates = [c for c in residue_chambers(p) if c.plane_normal == nn]
    return any(residue_opposite(c, c_y) for c in candidates)


def _neighbor_vertices(o):
    """The vertices adjacent to o, keyed by their mod-p datum.

    A line neighbor is spanned by a lift of the line plus p times the other
    basis directions; a plane neighbor by lifts of two kernel vectors of the
    normal plus p times the unit-coordinate basis direction.
    """
    p = o.p
    cols = columns(o.matrix)
    scaled = [tuple(p * e for e in col) for col in cols]

    def lift(vec):
        return tuple(sum(vec[k] * cols[k][r] for k in range(3)) for r in range(3))

    lines = {}
    planes = {}
    for vec in residue_lines(p):
        k = next(i for i in range(3) if vec[i] % p != 0)
        others = [i for i in range(3) if i != k]
        lines[vec] = LatticeVertex.from_matrix(
            p, from_columns((lift(vec), scaled[others[0]], scaled[others[1]])))
        kern = []
        for i in others:
            w = tuple(vec[k] if r == i else (-vec[i] if r == k else 0)
                      for r in range(3))
            kern.append(lift(w))
        planes[vec] = LatticeVertex.from_matrix(
            p, from_columns((kern[0], kern[1], scaled[k])))
    return lines, planes


def residue_projection_oracle(o, y):
    """Germ alcove of [o, y] from the first geodesic step among neighbors.

    The line part is the line-type neighbor strictly closest to y, the plane
    part the plane-type neighbor strictly closest to y; for a regular segment
    both minimizers are unique and assemble to the germ alcove.
    """
    lines, planes = _neighbor_vertices(o)

    def unique_argmin(cands):
        best_val, best_key, tie = None, None, False
        for key, v in cands.items():
            q = dist2(v, y)
            if best_val is None or q < best_val:
                best_val, best_key, tie = q, key, False
            elif q == best_val:
                tie = True
        assert not tie, "geodesic first step is ambiguous; segment not regular?"
        return best_key

    line = unique_argmin(lines)
    normal = unique_argmin(planes)
    return ResidueChamber.from_parts(o.p, line, normal)


def distance_to_apartment_bruteforce(x, frame, window):
    """Slow minimum of d(x, apartment vertex) over an exponent window."""
    best = None
    for m1 in range(-window, window + 1):
        for m2 in range(-window, window + 1):
            v = frame_vertex(frame, x.p, (m1, m2, 0))
            q = dist2(x, v)
            if best is None or q < best:
                best = q
    return best


def residue_opposite_chamber_count(p):
    """Number of residue alcoves opposite a fixed one: p^3 for the A2 flag complex."""
    chambers = residue_chambers(p)
    fixed = chambers[0]
    return sum(1 for c in chambers if residue_opposite(fixed, c))


def count_enumeration_oracle(x, lam, cap=2_000_000):
    """Exact number of vertices at vector distance lam from x.

    Enumerates canonical upper-triangular lattice representatives below x
    with the right determinant valuation and filters by elementary divisors;
    this covers every vertex once because the canonical form is unique.
    """
    lam = dominant(lam)
    p = x.p
    total_exp = lam[0] + lam[1]
    if total_exp == 0:
        return 1
    count = 0
    work = 0
    for b0 in range(total_exp + 1):
        for b1 in range(total_exp + 1 - b0):
            b2 = total_exp - b0 - b1
            work += p ** (2 * b0) * p ** b1
            if work > cap:
                raise RuntimeError("enumeration cap exceeded")
            for t01 in range(p ** b0):
                for t02 in range(p ** b0):
                    for t12 in range(p ** b1):
                        m = ((p ** b0, t01, t02),
                             (0, p ** b1, t12),
                             (0, 0, p ** b2))
                        if dominant(smith_exponents(m, p)) == lam:
                            count += 1
    return count


def basis_set_event_oracle(k, lam, p):
    """Whether k^-1 maps the lattice of y = diag(1, p^a2, p^a1) onto an
    ascending diagonal lattice; det k is a unit, so adj(k) serves as k^-1."""
    lam = dominant(lam)
    d_y = ((1, 0, 0), (0, p ** lam[1], 0), (0, 0, p ** lam[0]))
    return is_diagonal_ascending(
        lattice_canonical_oracle(mat_mul(adjugate3(k), d_y), p), p)


def random_stabilizer_matrix_oracle(p, depth, rng):
    """A random matrix mod p^depth with unit determinant, drawn by randrange."""
    if depth < 1:
        raise ValueError(f"sampling depth must be at least 1, got {depth}")
    q = p ** depth
    while True:
        m = tuple(tuple(rng.randrange(q) for _ in range(3)) for _ in range(3))
        if det3(m) % p != 0:
            return m


def sector_shape_matrix_oracle(p, depth, exps, rng):
    """A random matrix mod p^depth with unit determinant keeping diag(p^exps),
    drawn by randrange: entry (i, j) below the diagonal is p^(exps[i] -
    exps[j]) times a draw below p^depth / p^(exps[i] - exps[j])."""
    if depth < 1:
        raise ValueError(f"sampling depth must be at least 1, got {depth}")
    q = p ** depth
    while True:
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                gap = exps[i] - exps[j]
                if gap > 0:
                    row.append(p ** gap * rng.randrange(q // p ** gap))
                else:
                    row.append(rng.randrange(q))
            rows.append(tuple(row))
        m = tuple(rows)
        if det3(m) % p != 0:
            return m


def random_stabilizer_matrices_oracle(p, depth, rng, count):
    """The count matrices of count calls of _random_stabilizer_matrix, in order.

    The word-block sampler the mass estimate used before its byte lanes:
    the same rounds, but each candidate matrix built, tested and yielded
    one at a time.  It leaves rng in the state those calls leave it in,
    provided nothing else draws from rng until it is exhausted.
    """
    if depth < 1:
        raise ValueError(f"sampling depth must be at least 1, got {depth}")
    q = p ** depth
    if q >= 256:
        for _ in range(count):
            yield _random_stabilizer_matrix(p, depth, (0, 0, 0), rng)
        return
    shift = 8 - q.bit_length()
    keep = bytes(t >> shift for t in range(256))
    drop = bytes(t for t in range(256) if t >> shift >= q)
    getrandbits = rng.getrandbits
    pending = b""
    left = count
    while left > 0:
        n = min(9 * left - len(pending), _WORD_BLOCK)
        words = getrandbits(32 * n).to_bytes(4 * n, "little")
        entries = pending + words[3::4].translate(keep, drop)
        it = iter(entries)
        for a, b, c, d, f, g, h, i, j in zip(it, it, it, it, it, it, it, it, it):
            if (a * (f * j - g * i) - b * (d * j - g * h) + c * (d * i - f * h)) % p:
                yield ((a, b, c), (d, f, g), (h, i, j))
                left -= 1
        pending = entries[len(entries) - len(entries) % 9:]


def harmonic_sample_oracle(x, depth, rng):
    """The harmonic sample's flag from the full product x.matrix k."""
    k = random_stabilizer_matrix_oracle(x.p, depth, rng)
    return Flag.from_matrix(mat_mul(x.matrix, k))


def harmonic_sample_in_basis_set_oracle(x, y, depth, rng):
    """The conditioned harmonic sample's flag from the full product x.matrix P k,
    P the adapted basis of y and k a gapped randrange draw."""
    left, exps = smith_left_transform(mat_mul(adjugate3(x.matrix), y.matrix), x.p)
    k = sector_shape_matrix_oracle(x.p, depth, tuple(e - exps[0] for e in exps), rng)
    return Flag.from_matrix(mat_mul(mat_mul(x.matrix, left), k))


def direction_estimate_oracle(base, z):
    """The direction estimate's flag from the full product base.matrix P, P the
    adapted basis of z; None unless the exponents are strictly ascending."""
    left, exps = smith_left_transform(
        mat_mul(adjugate3(base.matrix), z.matrix), base.p)
    if not exps[0] < exps[1] < exps[2]:
        return None
    return Flag.from_matrix(mat_mul(base.matrix, left))


def basis_set_mass_lattice_oracle(x, lam, trials, rng):
    """Empirical harmonic mass of U_x(y), each draw decided by the lattice route."""
    lam = dominant(lam)
    depth = lam[0] + lam[1] + 1
    hits = 0
    for _ in range(trials):
        k = random_stabilizer_matrix_oracle(x.p, depth, rng)
        if basis_set_event_oracle(k, lam, x.p):
            hits += 1
    return Fraction(hits, trials)


def eisenstein_ball_oracle(bound2):
    """All (i, j) in Z^2 with i^2 - i*j + j^2 <= bound2, in raster order."""
    if bound2 < 0:
        return
    r = isqrt(4 * bound2 // 3) + 2
    for i in range(-r, r + 1):
        for j in range(-r, r + 1):
            if i * i - i * j + j * j <= bound2:
                yield (i, j)


def strip_counts_oracle(r_max):
    """(R, number of Eisenstein points of norm <= R^2) for R = 1..r_max.

    The apartment vertex counts of ``strip_growth`` from the norm
    i^2 - i*j + j^2 of the triangular lattice alone, with no flag, frame or
    lattice in sight.
    """
    return [(r, sum(1 for _ in eisenstein_ball_oracle(r * r)))
            for r in range(1, r_max + 1)]


_NEAREST_MOVES = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def nearest_theta_scan_oracle(k_int, p, m):
    """Certified (min squared distance, exponents of a minimizer) in the target.

    The descent of ``ApartmentPairDistance.nearest`` with every candidate
    evaluated from scratch: minima over all nine entries and nine 2x2 minors
    of K = adj(H_to) H_from, a dominance sort and ``weyl_dist2``.  It does
    not rely on the six-move lemma: after the descent ends at z0 it scans
    the full ball of radius 2*d(x, z0), which by the triangle inequality
    holds every minimizer, and takes only strict improvements.
    """
    entries, minors, det_val = minor_valuations(k_int, p)

    def theta(m, m_to):
        e1 = min(v + m[j] - m_to[i] for v, i, j in entries)
        e2 = min(v + m[j1] + m[j2] - m_to[i1] - m_to[i2]
                 for v, i1, i2, j1, j2 in minors)
        e3 = det_val + sum(m) - sum(m_to)
        return dominant((e1, e2 - e1, e3 - e2))

    cur = (0, 0, 0)
    best = weyl_dist2(theta(m, cur))
    improved = True
    while improved and best > 0:
        improved = False
        for mv in _NEAREST_MOVES:
            cand = (cur[0] + mv[0], cur[1] + mv[1], cur[2] + mv[2])
            q = weyl_dist2(theta(m, cand))
            if q < best:
                cur, best, improved = cand, q, True
                break
    if best == 0:
        return 0, cur
    best_m = cur
    for (i, j) in eisenstein_ball_oracle(4 * best):
        cand = (cur[0] + i, cur[1] + j, cur[2])
        q = weyl_dist2(theta(m, cand))
        if q < best:
            best, best_m = q, cand
    return best, best_m


_LIPSCHITZ_MARGIN = SqrtSum.sqrt_int(3)


def certified_apartment_min_oracle(value_at, radius_cap):
    """Certified minimum of a convex vertex function on one apartment.

    Expanding triangular-lattice shells around a greedily improved center;
    the search stops once the two outermost shells lie entirely above the
    best value plus sqrt(3) (the certificate is argued in the docstring of
    ``triples._certified_apartment_min``).

    value_at returns ``SqrtSum`` values, every shell vertex is evaluated and
    every comparison is ``SqrtSum.compare``: the route of
    ``triples._certified_apartment_min`` before it compared pairs of squared
    distances through integer enclosures and skipped the vertices its
    neighbours put above the threshold.
    """
    cur = (0, 0)
    best = value_at(cur)
    moves = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
    improved = True
    while improved and not best.is_zero():
        improved = False
        for mv in moves:
            cand = (cur[0] + mv[0], cur[1] + mv[1])
            v = value_at(cand)
            if v < best:
                cur, best, improved = cand, v, True
                break
    center = cur
    best_set = {center}
    shells_above = 0
    radius = 0
    certified = False
    while radius < radius_cap:
        radius += 1
        shell = [(i, j) for i, j, n in _eisenstein_ball(radius * radius)
                 if (radius - 1) ** 2 < n]
        threshold = best + _LIPSCHITZ_MARGIN
        all_above = True
        for (i, j) in shell:
            m = (center[0] + i, center[1] + j)
            v = value_at(m)
            cmp = v.compare(best)
            if cmp < 0:
                best, best_set = v, {m}
                threshold = best + _LIPSCHITZ_MARGIN
                all_above = False
            elif cmp == 0:
                best_set.add(m)
                all_above = False
            elif v.compare(threshold) <= 0:
                all_above = False
        shells_above = shells_above + 1 if all_above else 0
        if shells_above >= 2:
            certified = True
            break
    return best, best_set, radius, certified


def sqrtsum_enclosure_compare(a, b):
    """-1, 0 or 1 for two SqrtSums, by refining both ``enclosure``s.

    Equal term lists are equal; otherwise the two Fraction enclosures are
    refined at doubling digits until they separate.
    """
    if a.terms == b.terms:
        return 0
    digits = 12
    while True:
        lo1, hi1 = a.enclosure(digits)
        lo2, hi2 = b.enclosure(digits)
        if hi1 < lo2:
            return -1
        if hi2 < lo1:
            return 1
        digits *= 2
        if digits > 8000:
            raise RuntimeError("interval refinement failed to separate")


def is_prime_trial_division(n):
    """Primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _mod_p_line_oracle(m, p):
    """A nonzero column of m mod p when m mod p has rank 1, else None.

    Rank at most 1 is read off the 2x2 minors mod p, all zero.
    """
    red = tuple(tuple(e % p for e in row) for row in m)
    if any(e % p for row in adjugate3(red) for e in row):
        return None
    return next((c for c in zip(*red) if any(c)), None)


def _mod_p_column_space_line_oracle(m_int, p):
    """If the mod-p reduction of m has rank 1, return a spanning column."""
    red = [[e % p for e in row] for row in m_int]
    cols = list(zip(*red))
    nonzero = [c for c in cols if any(c)]
    if not nonzero:
        return None
    base = nonzero[0]
    k = next(i for i, e in enumerate(base) if e)
    inv = pow(base[k], -1, p)
    for c in nonzero[1:]:
        f = (c[k] * inv) % p
        if any((e - f * b) % p for e, b in zip(c, base)):
            return None  # rank >= 2
    return tuple(e % p for e in base)


def residue_germ_parts_oracle(n_int, p):
    """``residue_germ_parts`` through ``transpose(adjugate3(n_int))`` and a
    rank-1 test by unit-inverse elimination on lists, for an unreduced n_int
    of p-content 0."""
    adj_t = transpose(adjugate3(n_int))
    e2 = valuation_int(gcd(*(e for row in adj_t for e in row)), p)
    q = p ** e2
    line = _mod_p_column_space_line_oracle(n_int, p)
    normal = _mod_p_column_space_line_oracle(
        tuple(tuple(e // q for e in row) for row in adj_t), p)
    return e2, line, normal


def _walk_record_oracle(n, letter, z, adj_b, b, d, prev_germ, prev_run, p):
    rel_int, c = strip_p_content(mat_mul(mat_mul(adj_b, z), b), p)
    d_rel = d - 3 * c
    q = p ** (d_rel + 1)
    rel_int = tuple(tuple(e % q for e in row) for row in rel_int)
    e2 = min(v for v, *_ in minor_valuations(rel_int, p)[1])
    theta = dominant((d_rel - e2, e2, 0))
    germ = None
    run = 0
    if is_regular(theta):
        adj_t, _ = strip_p_content(transpose(adjugate3(rel_int)), p)
        line = _mod_p_line_oracle(rel_int, p)
        normal = _mod_p_line_oracle(adj_t, p)
        if line is not None and normal is not None:
            germ = ResidueChamber.from_parts(p, line, normal)
            run = prev_run + 1 if germ == prev_germ else 1
    return WalkStep(n, letter, theta, germ, run)


def run_walk_product_oracle(config):
    """``run_walk`` in the coordinates of the letters' product.

    The position is z, the content-stripped product of the letters'
    numerators, with v_p(det z) a running sum of 3 v_p(den) per letter less
    3 v_p(g) per stripped content g.  Each step forms adj(B) z B with two
    more products, strips its p-content, reduces it mod p^(D+1) and takes
    the valuation of each 2x2 minor one by one; the germ's plane comes from
    the p-content-stripped adjugate.  The final vertex is that of z B.
    """
    p = config.p
    rng = make_rng(config.seed)
    den, cum = config.thresholds()
    b = config.base_vertex.matrix
    adj_b = adjugate3(b)
    d_base = 3 * valuation_int(det3(b), p)
    z, dz = identity(), 0
    steps = [_walk_record_oracle(0, -1, z, adj_b, b, d_base, None, 0, p)]
    for n in range(1, config.steps + 1):
        r = rng.randrange(den)
        idx = next(i for i, c in enumerate(cum) if r < c)
        gen = config.generators[idx]
        prod = mat_mul(z, gen.num)
        g = gcd(*(e for row in prod for e in row))
        z = tuple(tuple(e // g for e in row) for row in prod)
        dz += 3 * valuation_int(gen.den, p) - 3 * valuation_int(g, p)
        prev = steps[-1]
        steps.append(_walk_record_oracle(n, idx, z, adj_b, b, d_base + dz,
                                         prev.germ, prev.germ_run, p))
    return WalkTrace(config, tuple(steps),
                     LatticeVertex.from_matrix(p, mat_mul(z, b)))


def _walk_position_record_oracle(n, letter, rel, d, prev_germ, prev_run, p):
    q = p ** (d // 2 + 1)
    (a, b, c), (e, f, g), (h, i, j) = rel
    e2, line, normal = residue_germ_parts(
        ((a % q, b % q, c % q), (e % q, f % q, g % q), (h % q, i % q, j % q)), p)
    theta = (d - e2, e2, 0)
    germ = None
    run = 0
    if is_regular(theta) and line is not None and normal is not None:
        germ = ResidueChamber.from_parts(p, line, normal)
        run = prev_run + 1 if germ == prev_germ else 1
    return WalkStep(n, letter, theta, germ, run)


def run_walk_oracle(config):
    """``run_walk`` step by step: every step multiplies its letter into the
    position and reads theta and the germ off it, with no reduced word and
    no reuse of earlier records."""
    p = config.p
    rng = make_rng(config.seed)
    den, cum = config.thresholds()
    b = config.base_vertex.matrix
    gens = [in_basis(b, g.num) for g in config.generators]
    gens_det = [abs(det3(g)) for g in gens]
    gens_dv = [valuation_int(d, p) for d in gens_det]
    rel, d = identity(), 0
    steps = [_walk_position_record_oracle(0, -1, rel, d, None, 0, p)]
    for n in range(1, config.steps + 1):
        idx = bisect_right(cum, rng.randrange(den))
        rel, g = mul_strip(rel, gens[idx], gens_det[idx])
        d += gens_dv[idx] - 3 * valuation_int(g, p)
        prev = steps[-1]
        steps.append(_walk_position_record_oracle(n, idx, rel, d, prev.germ,
                                                  prev.germ_run, p))
    final = LatticeVertex.from_matrix(p, mat_mul(b, rel))
    return WalkTrace(config, tuple(steps), final)


def primitive_vector_oracle(v):
    """``primitive_vector`` with a Fraction test and a product on every entry."""
    if all(e == 0 for e in v):
        raise ValueError("zero vector has no primitive representative")
    den = 1
    for e in v:
        if isinstance(e, Fraction):
            den = den * e.denominator // gcd(den, e.denominator)
    ints = [int(e * den) for e in v]
    g = 0
    for e in ints:
        g = gcd(g, e)
    ints = [e // g for e in ints]
    last = next(e for e in reversed(ints) if e != 0)
    if last < 0:
        ints = [-e for e in ints]
    return tuple(ints)


STANDARD_APARTMENT_SIMPLICES = (
    ("line", (1, 0, 0)), ("line", (0, 1, 0)), ("line", (0, 0, 1)),
    ("plane", (0, 0, 1)), ("plane", (0, 1, 0)), ("plane", (1, 0, 0)),
    ("chamber", ((1, 0, 0), (0, 0, 1))),   # <e1> < <e1,e2>
    ("chamber", ((1, 0, 0), (0, 1, 0))),   # <e1> < <e1,e3>
    ("chamber", ((0, 1, 0), (0, 0, 1))),   # <e2> < <e1,e2>
    ("chamber", ((0, 1, 0), (1, 0, 0))),   # <e2> < <e2,e3>
    ("chamber", ((0, 0, 1), (0, 1, 0))),   # <e3> < <e1,e3>
    ("chamber", ((0, 0, 1), (1, 0, 0))),   # <e3> < <e2,e3>
)


def stabilized_apartment_simplices(m):
    """Labels of the standard-apartment ideal simplices stabilized by m.

    The twelve simplices are the coordinate lines, the coordinate planes
    (named by their normals) and the six coordinate chambers given as
    (line, plane normal) pairs.
    """
    out = []
    for kind, data in STANDARD_APARTMENT_SIMPLICES:
        if kind == "line" and stabilizes_line(m, data):
            out.append((kind, data))
        elif kind == "plane" and stabilizes_plane(m, data):
            out.append((kind, data))
        elif kind == "chamber":
            line, normal = data
            if stabilizes_line(m, line) and stabilizes_plane(m, normal):
                out.append((kind, data))
    return frozenset(out)


def harmonic_generic_triples(p, depth, count, rng):
    """count generic triples of harmonic samples at random vertices.

    Each draw takes a fresh ``random_vertex`` and three ``harmonic_sample``s
    at it, at the given depth, and keeps the triple when it is generic.
    """
    out = []
    while len(out) < count:
        x = random_vertex(p, rng)
        chambers = [harmonic_sample(x, depth, rng) for _ in range(3)]
        if len(set(chambers)) == 3:
            triple = ChamberTriple.of(*chambers)
            if is_generic(triple):
                out.append(triple)
    return out


def lower_torus_member(a, e):
    """The lower-triangular analogue inside P' meet P^1."""
    a, e = Fraction(a), Fraction(e)
    if a * e == 0:
        raise ValueError("parameters must be nonzero")
    i = 1 / (a * e)
    m = ((a, 0, 0),
         (a - e, e, 0),
         (a - 2 * e + i, 2 * e - 2 * i, i))
    if det3(m) != 1:
        raise AssertionError("family member must have determinant 1")
    return m


def torus_members_field(q):
    """All A_(a,e) over the prime field F_q, entries in range(q).

    In characteristic 2 the parameter t = 1 equals -1, which is excluded from
    the generic range, so the family is only enumerated for odd q.
    """
    require_prime(q)
    if q % 2 == 0:
        raise ValueError("t = 1 is degenerate in characteristic 2")
    out = []
    for a in range(1, q):
        for e in range(1, q):
            i = pow(a * e, -1, q)
            out.append(((a, (2 * e - 2 * a) % q, (i + a - 2 * e) % q),
                        (0, e, (i - e) % q),
                        (0, 0, i)))
    return out


def _field_flag_stab(q, m, line, plane_points):
    """Whether m fixes the flag <line> < span(plane_points) over F_q.

    The image of the line is proportional to it iff their cross product
    vanishes mod q; each image of a plane point stays in the plane iff it
    is dependent on the two points mod q.
    """
    if any(e % q for e in cross(mat_vec(m, line), line)):
        return False
    return all(det3((plane_points[0], plane_points[1], mat_vec(m, b))) % q == 0
               for b in plane_points)


def upper_borel_intersection_count_field(q):
    """Exhaustive size of P meet P^1 over F_q (odd prime q), for comparison with (q-1)^2.

    Enumerates the upper-triangular subgroup and keeps the elements
    stabilizing the t = 1 family flag.
    """
    if q % 2 == 0:
        raise ValueError("t = 1 is degenerate in characteristic 2")
    require_prime(q)
    v = (1, 1, 1)
    # V_1 over F_q: -x + 2y - z = 0; points v and (2, 1, 0)
    plane_points = (v, (2 % q, 1, 0))
    count = 0
    for a in range(1, q):
        for e in range(1, q):
            i = pow(a * e, -1, q)
            for b in range(q):
                for c in range(q):
                    for f in range(q):
                        m = ((a, b, c), (0, e, f), (0, 0, i))
                        if _field_flag_stab(q, m, v, plane_points):
                            count += 1
    return count


def det_count_in_box(values, target):
    """How many 3x3 matrices with entries in values have determinant target.

    values must be closed under negation.  det = r3 . (r1 x r2), and a
    signed permutation P of the coordinates moves r1 x r2 to +-P(r1 x r2),
    which leaves the number of r3 in the box with r3 . c = target alone
    (r3 -> -P^T r3 is a bijection of the box).  So the first row runs over
    one representative (sorted absolute values) per orbit, weighted by the
    orbit's size, and each cross product is kept up to the same symmetry.
    """
    box = list(product(values, repeat=3))
    reps = Counter(tuple(sorted(map(abs, r))) for r in box)
    crosses = Counter()
    for r1, weight in reps.items():
        for r2 in box:
            crosses[tuple(sorted(map(abs, cross(r1, r2))))] += weight
    total = 0
    for (c0, c1, c2), weight in crosses.items():
        for x, y in product(values, repeat=2):
            rest = target - x * c0 - y * c1
            if c2 == 0:
                total += weight * len(values) * (rest == 0)
            elif rest % c2 == 0 and rest // c2 in values:
                total += weight
    return total
