"""Triples of chambers at infinity: genericity and the barycenter construction.

An antipodal triple (pairwise opposite chambers) spans three apartments, one
per pair.  The triple is generic when those three apartments share no ideal
simplex at infinity; for an antipodal triple that is two determinants: the
three lines span Q^3 and the three planes share no line.  For generic
triples the sum of distances to the three apartments is a proper convex
function on the building; its vertex minimizers form a finite equivariant
set computed here by certified expanding-shell searches inside the three
apartments, merged through the integrality of squared distances.

Apartment boundaries are compared through their finitely many ideal
simplices (three line vertices, three plane vertices and six chambers) by
``apartment_infinity_intersection``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import isqrt

from .padic_linalg import adjugate3, det3, mat_mul
from .building import (
    ApartmentPairDistance,
    LatticeVertex,
    _eisenstein_shell,
    distance_to_apartment,
    frame_vertex,
)
from .boundary import (
    NotOppositeError,
    apartment_chambers,
    apartment_from_opposite,
    is_opposite,
    is_opposite_to_apartment,
)
from .sqrtsum import FIRST_DIGITS, SqrtSum, _root_sum_at_scale
from .stochastics import (
    DrawBoundExceededError,
    harmonic_sample,
    harmonic_sample_in_basis_set,
)

# Draws before construct_generic (candidates) and generic_triple_in_basis_set
# (triples) give up.
_GENERIC_COMPLETION_DRAWS = 200
_BASIS_SET_TRIPLE_DRAWS = 100


@dataclass(frozen=True)
class ChamberTriple:
    """Three distinct ideal chambers, order preserved for bookkeeping."""

    chambers: tuple

    @classmethod
    def of(cls, c1, c2, c3):
        if len({c1, c2, c3}) != 3:
            raise ValueError("triple must consist of distinct chambers")
        return cls((c1, c2, c3))

    def apply(self, g):
        return ChamberTriple(tuple(c.apply(g) for c in self.chambers))


def is_antipodal(triple):
    c1, c2, c3 = triple.chambers
    return is_opposite(c1, c2) and is_opposite(c1, c3) and is_opposite(c2, c3)


# ---------------------------------------------------------------------------
# ideal simplices of a frame apartment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApartmentIdealSimplices:
    """The finite simplicial data of an apartment boundary.

    lines and planes are the ideal vertices (planes stored by a canonical
    normal vector); chambers are the six ideal chambers.
    """

    lines: frozenset
    planes: frozenset
    chambers: frozenset

    def intersection(self, other):
        return ApartmentIdealSimplices(
            self.lines & other.lines,
            self.planes & other.planes,
            self.chambers & other.chambers)


def apartment_ideal_simplices(frame):
    chambers = frozenset(apartment_chambers(frame))
    return ApartmentIdealSimplices(frozenset(frame.lines),
                                   frozenset(frame.plane_normals),
                                   chambers)


def apartment_infinity_intersection(frame1, frame2):
    """Exact common ideal simplices of two frame apartments."""
    return apartment_ideal_simplices(frame1).intersection(
        apartment_ideal_simplices(frame2))


def pairwise_frames(triple):
    c1, c2, c3 = triple.chambers
    return (apartment_from_opposite(c1, c2),
            apartment_from_opposite(c1, c3),
            apartment_from_opposite(c2, c3))


def is_generic(triple):
    """Antipodal with no ideal simplex common to all three pair apartments.

    With l_i, P_i, n_i the line, plane and normal of c_i, the apartment of
    (c_i, c_j) has lines l_i, l_j, m_ij = P_i meet P_j and planes P_i, P_j,
    <l_i, l_j>; a common simplex has a common vertex.  Opposition keeps l_i
    off P_j and P_k, so l_i is neither l_j nor m_jk and no m_ij is l_k: the
    only possible common line lies on all three planes, det(n_1, n_2, n_3)
    = 0.  Dually the only possible common plane holds all three lines,
    det(l_1, l_2, l_3) = 0.
    """
    if not is_antipodal(triple):
        return False
    c1, c2, c3 = triple.chambers
    return (det3((c1.line, c2.line, c3.line)) != 0
            and det3((c1.plane_normal, c2.plane_normal, c3.plane_normal)) != 0)


def construct_generic(c1, c2, p, rng=None, depth=6, candidates=None):
    """A chamber completing an opposite pair to a generic triple.

    Candidates are taken from an explicit iterable when provided, otherwise
    harmonic-sampled at the given depth.  The first one opposite all six
    ideal chambers of the apartment of (c1, c2) is returned, and it is
    generic: it is opposite c1 and c2, its line is off the apartment plane
    <l1, l2> and its plane misses the apartment line P1 meet P2.  Raises
    ValueError when neither candidates nor rng is given.
    """
    if candidates is None and rng is None:
        raise ValueError("construct_generic needs candidates or an rng to draw them")
    if not is_opposite(c1, c2):
        raise NotOppositeError("construct_generic requires opposite chambers")
    frame = apartment_from_opposite(c1, c2)
    if candidates is None:
        x = LatticeVertex.standard(p)
        candidates = iter(lambda: harmonic_sample(x, depth, rng), None)
    for c3 in islice(candidates, _GENERIC_COMPLETION_DRAWS):
        if is_opposite_to_apartment(c3, frame):
            return c3
    raise DrawBoundExceededError(
        f"no generic completion found within {_GENERIC_COMPLETION_DRAWS} draws")


# ---------------------------------------------------------------------------
# the convex functional and its vertex minimizers
# ---------------------------------------------------------------------------

def distance_sum_squares(triple, x):
    """The three exact squared apartment distances entering the convex functional."""
    if not is_generic(triple):
        raise ValueError("the functional is defined on generic triples only")
    out = []
    for frame in pairwise_frames(triple):
        q, _ = distance_to_apartment(x, frame)
        out.append(q)
    return tuple(out)


def distance_sum(triple, x):
    """Exact value (as a SqrtSum) of the sum of distances to the pair apartments."""
    return SqrtSum.of_squares(distance_sum_squares(triple, x))


@dataclass(frozen=True)
class BarycenterResult:
    """Certified vertex minimizers of the apartment-distance sum.

    min_value is exact; min_squares witnesses the three squared distances at
    one minimizer; certified means the expanding-shell search proved that no
    vertex outside the reported set can attain the minimum.
    """

    min_value: SqrtSum
    min_squares: tuple
    min_vertices: frozenset
    search_radius: int
    certified: bool


_LIPSCHITZ_MARGIN = SqrtSum.sqrt_int(3)  # the shell certificate's margin
_TWO = SqrtSum.of_squares((4,))
_SCALE2 = 10 ** (2 * FIRST_DIGITS)


def _bracket(value):
    """(value, lo, hi) with 10^12 * value in [lo, hi], for positive coefficients."""
    lo, slack = _root_sum_at_scale(value.terms, FIRST_DIGITS)
    return value, lo, lo + slack


def _scaled_floor(squares):
    """isqrt(qa 10^24) + isqrt(qb 10^24) for the squared distances (qa, qb)."""
    return isqrt(squares[0] * _SCALE2) + isqrt(squares[1] * _SCALE2)


def _compare_squares(squares, lo, ref):
    """Exact sign of sqrt(qa) + sqrt(qb) - r for a bracketed reference r.

    lo = ``_scaled_floor(squares)``, so 10^12 (sqrt(qa) + sqrt(qb))
    lies in [lo, lo + 2) while 10^12 r lies in [r_lo, r_hi].  So lo > r_hi
    (strict: a zero reference has r_lo = r_hi, and lo = r_hi may be a tie)
    puts the value above r, lo + 2 <= r_lo puts it below, and anything else,
    ties included, goes to ``SqrtSum.compare``.
    """
    value, r_lo, r_hi = ref
    if lo > r_hi:
        return 1
    if lo + 2 <= r_lo:
        return -1
    return SqrtSum.of_squares(squares).compare(value)


def _neighbour_bound(q):
    """Least integer k with sqrt(k) >= sqrt(q) - 1 (0 for q <= 1)."""
    return q + 1 - isqrt(4 * q) if q > 1 else 0


def _certified_apartment_min(value_at, radius_cap):
    """Certified minimum of a convex vertex function on one apartment.

    value_at(m) gives the two squared distances (qa, qb) from the vertex m
    to two fixed vertex sets of the building (the vertices of the other two
    pair apartments), and the value of m is sqrt(qa) + sqrt(qb), a sum of
    two 1-Lipschitz distances.  Expanding triangular-lattice shells around a
    greedily improved center; the search stops once the two outermost
    shells lie entirely above the best value b plus sqrt(3).

    The certificate.  Let F(x) = d(x, A_a) + d(x, A_b), the distances to
    the two apartments as sets.  Distance to a convex set of a CAT(0) space
    is convex and 1-Lipschitz, so F is convex and 2-Lipschitz on this
    apartment, a Euclidean plane with unit edges.  Every point of an
    apartment lies within the covering radius 1/sqrt(3) of one of its
    vertices, so F(m) <= value(m) <= F(m) + 2/sqrt(3) at each vertex m.
    Suppose the shells of radii r - 1 and r (norms in ((r-2)^2, r^2]) lie
    above b + delta, and a vertex y beyond radius r has value(y) <= b.  The
    best vertex m* is not in those shells, so it lies within radius r - 2.
    F <= b at m* and at y, hence on the segment between them by convexity.
    The segment crosses the circle of radius r - 1 about the center at a
    point x, whose nearest vertex z is within 1/sqrt(3) of it and so lies
    in one of the two shells.  Then value(z) <= F(z) + 2/sqrt(3)
    <= F(x) + 4/sqrt(3) <= b + 4/sqrt(3).  So delta = 4/sqrt(3) proves that
    no vertex outside the shells has value <= b, and that the tie set is
    complete.  The search uses delta = sqrt(3), which this argument does
    not reach; it is kept because changing it changes records.  A shell
    found above the threshold of its own scan is above every later one,
    since the threshold only falls.

    The skip rule.  A vertex whose neighbour has a term of at least n has
    that term at least ``_neighbour_bound(n)``: its square root is at least
    sqrt(n) - 1.  ``bounds`` holds, per shell offset, the pair of bounds
    that offset passes to its neighbours: from its exact squares when it
    was evaluated, from its own bounds when it was skipped.  A shell vertex
    whose best pair (ka, kb) over its known neighbours compares strictly
    above the threshold is strictly above it itself, so it is skipped
    unevaluated: evaluating it would change neither the best value, nor the
    tie set, nor whether its shell lies above.  A tie goes to the exact
    comparison and is never skipped.

    value_at is asked again for a vertex the descent has evaluated: the
    center's six neighbours are the first shell.  ``barycenter`` keeps the
    squares of each vertex it evaluates, so each is computed once.

    Values are compared by ``_compare_squares`` against integer enclosures
    of the best value and of the best value plus sqrt(3), taken once each
    time the best value changes; a ``SqrtSum`` is built only for a new best
    value and for the comparisons the enclosures leave open.
    """
    cur = (0, 0)
    cur_sq = value_at(cur)
    best = _bracket(SqrtSum.of_squares(cur_sq))
    moves = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
    improved = True
    while improved and not best[0].is_zero():
        improved = False
        for mv in moves:
            cand = (cur[0] + mv[0], cur[1] + mv[1])
            sq = value_at(cand)
            if _compare_squares(sq, _scaled_floor(sq), best) < 0:
                cur, cur_sq = cand, sq
                best, improved = _bracket(SqrtSum.of_squares(sq)), True
                break
    center = cur
    best_set = {center}
    threshold = _bracket(best[0] + _LIPSCHITZ_MARGIN)
    bounds = {(0, 0): (_neighbour_bound(cur_sq[0]), _neighbour_bound(cur_sq[1]))}
    shells_above = 0
    radius = 0
    certified = False
    while radius < radius_cap:
        radius += 1
        all_above = True
        for (i, j) in _eisenstein_shell(radius):
            ka = kb = 0
            for di, dj in moves:
                nb = bounds.get((i + di, j + dj))
                if nb is not None:
                    if nb[0] > ka:
                        ka = nb[0]
                    if nb[1] > kb:
                        kb = nb[1]
            k = (ka, kb)
            if _compare_squares(k, _scaled_floor(k), threshold) > 0:
                bounds[i, j] = (_neighbour_bound(ka), _neighbour_bound(kb))
                continue
            m = (center[0] + i, center[1] + j)
            sq = value_at(m)
            bounds[i, j] = (_neighbour_bound(sq[0]), _neighbour_bound(sq[1]))
            lo = _scaled_floor(sq)
            cmp = _compare_squares(sq, lo, best)
            if cmp < 0:
                best, best_set = _bracket(SqrtSum.of_squares(sq)), {m}
                threshold = _bracket(best[0] + _LIPSCHITZ_MARGIN)
                all_above = False
            elif cmp == 0:
                best_set.add(m)
                all_above = False
            elif _compare_squares(sq, lo, threshold) <= 0:
                all_above = False
        shells_above = shells_above + 1 if all_above else 0
        if shells_above >= 2:
            certified = True
            break
    return best[0], best_set, radius, certified


def barycenter(triple, p, radius_cap=12):
    """Vertex minimizers of the apartment-distance sum, exactly and certified.

    Any vertex with value less than 2 lies on at least one of the three pair
    apartments (the squared distances are integers, and a vertex off an
    apartment contributes at least 1 from it), so a certified in-apartment
    search on each of the three apartments determines the global vertex
    minimum whenever that minimum is at most 2.  ``certified`` is true
    exactly when all three shell searches certified their minimum within
    ``radius_cap`` and the overall minimum is at most 2.  Genericity does
    not imply the latter: generic triples with a larger minimum exist, and
    for them the result is the in-apartment minimum, uncertified.  Returns
    the full minimizing vertex set; no tie-break is applied, keeping the set
    exactly equivariant.
    """
    if not is_generic(triple):
        raise ValueError("barycenter requires a generic triple")
    frames = pairwise_frames(triple)
    evs = {(k, i): ApartmentPairDistance(
               mat_mul(adjugate3(frames[i].matrix()), frames[k].matrix()), p)
           for k in range(3) for i in range(3) if i != k}
    overall_best = None
    overall_vertices = {}
    squares = [{}, {}, {}]  # per apartment, the squares of each evaluated vertex
    radius = 0
    all_certified = True
    for k, frame in enumerate(frames):
        ev_a, ev_b = (evs[k, i] for i in range(3) if i != k)

        def value_at(m, _ea=ev_a, _eb=ev_b, _seen=squares[k]):
            sq = _seen.get(m)
            if sq is None:
                mm = (m[0], m[1], 0)
                sq = _seen[m] = (_ea.dist2_to_apartment(mm),
                                 _eb.dist2_to_apartment(mm))
            return sq

        best, best_set, rad, cert = _certified_apartment_min(value_at, radius_cap)
        radius = max(radius, rad)
        all_certified &= cert
        cmp = -1 if overall_best is None else best.compare(overall_best)
        if cmp < 0:
            overall_best = best
            overall_vertices = {}
        if cmp <= 0:
            for m in best_set:
                v = frame_vertex(frame, p, (m[0], m[1], 0))
                overall_vertices.setdefault(v, (k, m))
    certified = all_certified and overall_best.compare(_TWO) <= 0
    k, m = next(iter(overall_vertices.values()))
    min_squares = list(squares[k][m])
    min_squares.insert(k, 0)
    return BarycenterResult(overall_best, tuple(min_squares),
                            frozenset(overall_vertices), radius, certified)


# ---------------------------------------------------------------------------
# generic triples in a basis set
# ---------------------------------------------------------------------------

def generic_triple_in_basis_set(x, y, rng, depth=6):
    """A generic triple drawn entirely inside the basis set U_x(y).

    Draws conditioned harmonic samples; returns (triple, draws) on success
    and None after _BASIS_SET_TRIPLE_DRAWS failures.
    """
    for attempt in range(1, _BASIS_SET_TRIPLE_DRAWS + 1):
        c1 = harmonic_sample_in_basis_set(x, y, depth, rng)
        c2 = harmonic_sample_in_basis_set(x, y, depth, rng)
        c3 = harmonic_sample_in_basis_set(x, y, depth, rng)
        if len({c1, c2, c3}) != 3:
            continue
        triple = ChamberTriple.of(c1, c2, c3)
        if is_generic(triple):
            return triple, attempt
    return None
