"""Generic triples, apartment intersections and the barycenter."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl3building.building import (
    ApartmentPairDistance,
    Frame,
    LatticeVertex,
    _eisenstein_ball,
    frame_vertex,
    random_vertex,
    standard_vertex,
)
from sl3building.boundary import (
    Flag,
    apartment_chambers,
    apartment_from_opposite,
    growth_ray_vertex,
    is_opposite,
)
from sl3building.dynamics import random_sl3z
from sl3building.padic_linalg import cross, det3, from_columns
from sl3building.parabolics import family_flag, lower_flag, upper_flag
from sl3building.sqrtsum import SqrtSum
from sl3building.triples import (
    ChamberTriple,
    apartment_infinity_intersection,
    barycenter,
    construct_generic,
    distance_sum,
    distance_sum_squares,
    generic_triple_in_basis_set,
    is_antipodal,
    is_generic,
    pairwise_frames,
)
from sl3building.rng import make_rng
from sl3building import triples
from sl3building.stochastics import DrawBoundExceededError, harmonic_sample
from oracles import (
    certified_apartment_min_oracle,
    harmonic_generic_triples,
    is_generic_simplices_oracle,
    is_opposite_to_apartment_oracle,
)


def rand_flag(rng, bound=6):
    while True:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(3))
                  for _ in range(3))
        if det3(m) != 0:
            return Flag.from_matrix(m)


def coordinate_triple():
    frame = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    chambers = apartment_chambers(frame)
    c1 = chambers[0]
    c2 = next(d for d in chambers if is_opposite(c1, d))
    c3 = next(d for d in chambers if d not in (c1, c2))
    return ChamberTriple.of(c1, c2, c3)


def family_triple(t=1):
    return ChamberTriple.of(upper_flag(), lower_flag(), family_flag(t))


def test_triple_requires_distinct_chambers():
    with pytest.raises(ValueError):
        ChamberTriple.of(Flag.standard(), Flag.standard(), Flag.reversed_standard())


def test_antipodal_examples():
    # three pairwise-opposite chambers cannot come from one apartment's
    # coordinate flags unless they pair off, so use the explicit family
    assert is_antipodal(family_triple(1))
    t = coordinate_triple()
    assert not is_antipodal(t)  # c3 is adjacent to one of the pair


def test_apartment_intersection_full_overlap():
    f = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    inter = apartment_infinity_intersection(f, f)
    assert (len(inter.lines), len(inter.planes), len(inter.chambers)) == (3, 3, 6)
    assert len(inter.chambers) == 6


def test_apartment_intersection_single_shared_line():
    f1 = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    # frame sharing exactly the line <e1>: no other line is coordinate and no
    # pair of its lines spans a coordinate plane
    f2 = Frame.from_lines(((1, 0, 0), (1, 1, 1), (1, 2, 4)))
    inter = apartment_infinity_intersection(f1, f2)
    assert inter.lines == frozenset({(1, 0, 0)})
    assert not inter.planes and not inter.chambers


def test_apartment_intersection_family_pair():
    base = apartment_from_opposite(upper_flag(), lower_flag())
    fam = apartment_from_opposite(upper_flag(), family_flag(1))
    inter = apartment_infinity_intersection(base, fam)
    assert inter.lines == frozenset({(1, 0, 0)})
    assert inter.planes == frozenset({(0, 0, 1)})
    assert inter.chambers == frozenset({upper_flag()})


def test_is_generic_rejects_triples_inside_one_apartment():
    # inside one apartment each chamber has a unique opposite, so no triple
    # there is even antipodal, let alone generic
    frame = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    chambers = apartment_chambers(frame)
    from itertools import combinations
    for c1, c2, c3 in combinations(chambers, 3):
        assert not is_generic(ChamberTriple.of(c1, c2, c3))


def test_is_generic_family_values():
    assert is_generic(family_triple(1))
    assert not is_generic(family_triple(0))
    assert not is_generic(family_triple(-1))


def test_genericity_is_invariant_under_the_group():
    rng = random.Random(5)
    t1 = family_triple(1)
    t0 = family_triple(-1)
    for _ in range(30):
        g = random_sl3z(rng).num
        assert is_generic(t1.apply(g))
        assert not is_generic(t0.apply(g))


def test_construct_generic_from_candidates_picks_the_family_flag():
    cands = [family_flag(t) for t in (1, 2, 3)]
    c3 = construct_generic(upper_flag(), lower_flag(), 5, candidates=cands)
    assert c3 == family_flag(1)


def test_completions_opposite_all_six_chambers_are_generic():
    """Any completion opposite all six apartment chambers is generic."""
    p = 3
    rng = make_rng(17)
    c1, c2 = Flag.standard(), Flag.reversed_standard()
    six = apartment_chambers(apartment_from_opposite(c1, c2))
    from sl3building.stochastics import harmonic_sample
    x = standard_vertex(p)
    hits = 0
    for _ in range(1000):
        c3 = harmonic_sample(x, 4, rng)
        if all(is_opposite(c3, d) for d in six):
            hits += 1
            assert is_generic(ChamberTriple.of(c1, c2, c3))
    assert hits >= 900


def _degenerate_completions(c1, c2, rng):
    """Flags c3 that leave (c1, c2, c3) short of generic position.

    Each has its line on the plane <l1, l2> or its plane through the line
    P1 meet P2, with the rest of the flag drawn at random.
    """
    m = cross(c1.plane_normal, c2.plane_normal)
    out = []
    while len(out) < 4:
        a, b = rng.randint(1, 4), rng.randint(-4, 4)
        on_pair_plane = tuple(a * u + b * v for u, v in zip(c1.line, c2.line))
        w1, w2 = (tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(2))
        for cols in ((on_pair_plane, w1, w2), (w1, m, w2)):
            if det3(from_columns(cols)) != 0:
                out.append(Flag.from_matrix(from_columns(cols)))
    return out


def _opposite_harmonic_pair(p, depth, rng):
    x = random_vertex(p, rng)
    c1 = harmonic_sample(x, depth, rng)
    c2 = harmonic_sample(x, depth, rng)
    while not is_opposite(c1, c2):  # each draw succeeds with probability >= 8/21
        c2 = harmonic_sample(x, depth, rng)
    return x, c1, c2


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=st.sampled_from((2, 3, 5)), depth=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32))
def test_is_generic_matches_the_simplex_oracle(p, depth, seed):
    # c3 runs over harmonic flags, completions whose line lies on <l1, l2>
    # or whose plane holds P1 meet P2, and the chambers of the apartment
    # of (c1, c2).
    rng = make_rng(seed)
    x, c1, c2 = _opposite_harmonic_pair(p, depth, rng)
    c3s = [harmonic_sample(x, depth, rng) for _ in range(4)]
    c3s += _degenerate_completions(c1, c2, rng)
    c3s += apartment_chambers(apartment_from_opposite(c1, c2))
    outcomes = set()
    for c3 in c3s:
        if c3 in (c1, c2):
            continue
        triple = ChamberTriple.of(c1, c2, c3)
        generic = is_generic(triple)
        assert generic == is_generic_simplices_oracle(triple)
        outcomes.add(generic)
    assert False in outcomes


def test_is_generic_matches_the_simplex_oracle_on_the_family_and_one_apartment():
    for t in (0, -1, 1, 2, -2, Fraction(1, 2), Fraction(-1, 3)):
        triple = family_triple(t)
        assert is_generic(triple) == is_generic_simplices_oracle(triple) == \
            (t not in (0, -1))
    from itertools import combinations
    chambers = apartment_chambers(
        apartment_from_opposite(Flag.standard(), Flag.reversed_standard()))
    for c1, c2, c3 in combinations(chambers, 3):
        triple = ChamberTriple.of(c1, c2, c3)
        assert is_generic(triple) == is_generic_simplices_oracle(triple)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(p=st.sampled_from((2, 3, 5)), depth=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32))
def test_construct_generic_takes_the_first_candidate_opposite_the_apartment(
        p, depth, seed):
    # Degenerate completions come first, so the screen must reject them;
    # whatever it accepts is generic by both routes.
    rng = make_rng(seed)
    x, c1, c2 = _opposite_harmonic_pair(p, depth, rng)
    frame = apartment_from_opposite(c1, c2)
    cands = _degenerate_completions(c1, c2, rng)
    cands += [harmonic_sample(x, depth, rng) for _ in range(6)]
    expected = next((c for c in cands
                     if is_opposite_to_apartment_oracle(c, frame)), None)
    if expected is None:
        with pytest.raises(DrawBoundExceededError):
            construct_generic(c1, c2, p, candidates=cands)
        return
    c3 = construct_generic(c1, c2, p, candidates=cands)
    assert c3 == expected
    triple = ChamberTriple.of(c1, c2, c3)
    assert is_generic(triple) and is_generic_simplices_oracle(triple)


def test_construct_generic_needs_candidates_or_an_rng():
    with pytest.raises(ValueError):
        construct_generic(Flag.standard(), Flag.reversed_standard(), 3)
    # the check comes before the opposition test, whose error subclasses it
    with pytest.raises(ValueError) as err:
        construct_generic(Flag.standard(), Flag.standard(), 3)
    assert err.type is ValueError


@pytest.mark.parametrize("p", [2, 3, 5])
def test_construct_generic_outputs_are_generic(p):
    rng = make_rng(23, p)
    c1, c2 = Flag.standard(), Flag.reversed_standard()
    for depth in (2, 3, 4):
        for _ in range(5):
            c3 = construct_generic(c1, c2, p, rng=rng, depth=depth)
            triple = ChamberTriple.of(c1, c2, c3)
            assert is_generic(triple) and is_generic_simplices_oracle(triple)


def test_distance_sum_values():
    T = family_triple(1)
    x = standard_vertex(5)
    squares = distance_sum_squares(T, x)
    assert squares == (0, 0, 0)  # the standard vertex lies on all three
    v = LatticeVertex.from_matrix(5, ((5, 1, 0), (0, 1, 0), (0, 0, 1)))
    val = distance_sum(T, v)
    assert val >= SqrtSum()


def test_distance_sum_requires_generic():
    with pytest.raises(ValueError):
        distance_sum_squares(family_triple(0), standard_vertex(5))


def test_distance_sum_equivariance():
    rng = random.Random(7)
    T = family_triple(1)
    p = 5
    for _ in range(10):
        g = random_sl3z(rng).num
        v = LatticeVertex.from_matrix(p, ((25, 3, 1), (0, 5, 2), (0, 0, 1)))
        assert distance_sum_squares(T, v) == \
            distance_sum_squares(T.apply(g), v.apply(g))


def test_barycenter_family_triple():
    res = barycenter(family_triple(1), 5)
    assert res.certified
    assert res.min_value.is_zero()
    assert res.min_vertices == frozenset({standard_vertex(5)})
    assert res.min_squares == (0, 0, 0)


def test_barycenter_rejects_non_generic():
    with pytest.raises(ValueError):
        barycenter(family_triple(0), 5)


def test_barycenter_certified_and_equivariant_on_samples():
    p = 5
    rng = make_rng(23)
    c3 = construct_generic(Flag.standard(), Flag.reversed_standard(), p,
                           rng=rng, depth=4)
    T = ChamberTriple.of(Flag.standard(), Flag.reversed_standard(), c3)
    res = barycenter(T, p)
    assert res.certified
    grng = random.Random(29)
    for _ in range(4):
        g = random_sl3z(grng).num
        res_g = barycenter(T.apply(g), p)
        assert res_g.certified
        assert frozenset(v.apply(g) for v in res.min_vertices) == res_g.min_vertices


def test_barycenter_monotone_in_the_cap():
    p = 5
    T = family_triple(1)
    r1 = barycenter(T, p, radius_cap=8)
    r2 = barycenter(T, p, radius_cap=14)
    assert r1.certified and r2.certified
    assert r1.min_vertices == r2.min_vertices


def test_barycenter_enclosure_brackets_the_value():
    res = barycenter(family_triple(1), 5)
    lo, hi = res.min_value.enclosure(12)
    assert lo <= 0 <= hi


def test_genericity_rate_degenerate_inside_the_apartment():
    p = 5
    c1, c2 = Flag.standard(), Flag.reversed_standard()
    frame = apartment_from_opposite(c1, c2)
    chambers = [d for d in apartment_chambers(frame) if d not in (c1, c2)]
    hits = sum(is_generic(ChamberTriple.of(c1, c2, d))
               for d in chambers if is_opposite(d, c1) and is_opposite(d, c2))
    assert hits == 0


def test_genericity_rate_sampled():
    # harmonic-sampled completions of an opposite pair are generic at least
    # nine times in ten
    c1, c2 = Flag.standard(), Flag.reversed_standard()
    x = standard_vertex(3)
    rng = make_rng(31)
    hits = 0
    for _ in range(300):
        c3 = harmonic_sample(x, 5, rng)
        hits += c3 not in (c1, c2) and is_generic(ChamberTriple.of(c1, c2, c3))
    assert Fraction(hits, 300) >= Fraction(9, 10)


def test_generic_triple_found_inside_a_basis_set():
    p = 3
    x = standard_vertex(p)
    y = growth_ray_vertex(x, Flag.standard(), 1)
    got = generic_triple_in_basis_set(x, y, make_rng(37), depth=5)
    assert got is not None
    triple, draws = got
    assert is_generic(triple)
    from sl3building.boundary import sector_membership
    for c in triple.chambers:
        assert sector_membership(x, c, y)


def test_shell_search_matches_the_sqrtsum_oracle_on_harmonic_triples(monkeypatch):
    """The square-pair shell search gives the SqrtSum search's results exactly.

    Generic triples of harmonic samples at random vertices, 12 per (p, depth)
    cell, where minima above 0, uncertified searches and tied minimizers
    (at 0 and above) all occur.  ``barycenter`` runs once as it is and once
    with ``certified_apartment_min_oracle`` (the search on ``SqrtSum``
    values throughout) in place of ``_certified_apartment_min``; every field
    of the two results must agree.
    """
    def sqrtsum_search(value_at, radius_cap):
        return certified_apartment_min_oracle(
            lambda m: SqrtSum.of_squares(value_at(m)), radius_cap)

    positive = uncertified = tied_at_zero = tied_above_zero = 0
    for p in (2, 3, 5, 7):
        for depth in (2, 4, 6):
            for T in harmonic_generic_triples(p, depth, 12, make_rng(77, p, depth)):
                res = barycenter(T, p)
                with monkeypatch.context() as patch:
                    patch.setattr(triples, "_certified_apartment_min", sqrtsum_search)
                    expected = barycenter(T, p)
                assert res.min_value == expected.min_value, (p, depth)
                assert res.min_squares == expected.min_squares, (p, depth)
                assert res.min_vertices == expected.min_vertices, (p, depth)
                assert res.search_radius == expected.search_radius, (p, depth)
                assert res.certified == expected.certified, (p, depth)
                positive += not res.min_value.is_zero()
                uncertified += not res.certified
                if len(res.min_vertices) > 1:
                    if res.min_value.is_zero():
                        tied_at_zero += 1
                    else:
                        tied_above_zero += 1
    assert positive >= 60 and uncertified >= 5
    assert tied_at_zero >= 10 and tied_above_zero >= 30


def _vertex_set_squares(us, vs, seen):
    """value_at of the squared distances to the vertex sets us and vs.

    N(i, j) = i^2 - ij + j^2 is the squared distance of two apartment
    vertices; each vertex evaluated is appended to seen.
    """
    def norm(m, u):
        i, j = m[0] - u[0], m[1] - u[1]
        return i * i - i * j + j * j

    def value_at(m):
        seen.append(m)
        return min(norm(m, u) for u in us), min(norm(m, v) for v in vs)

    return value_at


def test_shell_search_skip_rule_matches_the_sqrtsum_oracle_on_vertex_distances():
    """Skipping shell vertices leaves every result of the shell search exact.

    Each term of value_at is the squared distance to a fixed vertex set, the
    premise of the skip rule.  On the grid (two single vertices u and v of
    even coordinates within radius 4, each unordered pair once since the
    search treats its two terms alike, at four radius caps)
    ``_certified_apartment_min`` must give the ``SqrtSum`` oracle's results
    and evaluate a subset of its vertices, some strictly.  A bound that
    does not step down fails on the grid.  A rule that skips ties does not
    (a radius-7 scan of all vertex pairs found no case), so the two vertex
    sets U = {0, (-3, -2)} and V = {0, (-2, 0)} and their mirror image are
    added: there (-3, -2) has value sqrt(0) + sqrt(3), tied with the
    threshold 0 + sqrt(3), its neighbours' bounds reach (0, 3) before it is
    scanned, and it alone keeps its shell from lying above.
    """
    grid = [(i, j) for i, j, _ in _eisenstein_ball(16) if i % 2 == 0 == j % 2]
    cases = [((u,), (v,)) for a, u in enumerate(grid) for v in grid[a:]]
    cases += [(((0, 0), (-3, -2)), ((0, 0), (-2, 0))),
              (((0, 0), (-2, -3)), ((0, 0), (0, -2)))]
    skipped = 0
    for radius_cap in (1, 2, 3, 12):
        for us, vs in cases:
            seen, oracle_seen = [], []
            got = triples._certified_apartment_min(
                _vertex_set_squares(us, vs, seen), radius_cap)
            oracle_value = _vertex_set_squares(us, vs, oracle_seen)
            expected = certified_apartment_min_oracle(
                lambda m: SqrtSum.of_squares(oracle_value(m)), radius_cap)
            assert got == expected, (us, vs, radius_cap)
            assert set(seen) <= set(oracle_seen)
            skipped += len(oracle_seen) - len(seen)
    assert skipped > 0


# A harmonic generic triple (``harmonic_generic_triples(2, 5, 25,
# make_rng(4242, 2, 5))``, the 19th) on whose apartments six-move descent
# stops above the minimum.
LOCAL_MIN_TRIPLE = ChamberTriple.of(
    Flag((231, 19, 4), (-237, 1153, 8210)),
    Flag((1454, 12, 29), (-33, -395, 1818)),
    Flag((1500, 26, 17), (-161, 5317, 6074)))


def test_a_six_move_local_minimum_of_the_distance_sum_need_not_be_global():
    """Why the barycenter searches shells and not just six-move descent.

    On the apartment of the first and third chambers of LOCAL_MIN_TRIPLE,
    the vertex at exponents 0, where descent from the origin stops, is no
    larger than its six neighbours, at sqrt(3) + sqrt(19), yet the minimum
    is sqrt(37) (descent stops above it on the other two apartments too).
    """
    p = 2
    T = LOCAL_MIN_TRIPLE
    frame = pairwise_frames(T)[1]

    def value(i, j):
        return distance_sum(T, frame_vertex(frame, p, (i, j, 0)))

    local_min = value(0, 0)
    assert local_min == SqrtSum.of_squares((3, 19))
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)):
        assert local_min <= value(di, dj)
    res = barycenter(T, p)
    assert res.min_value == SqrtSum.of_squares((37,))
    assert local_min > res.min_value


def test_barycenter_evaluates_each_vertex_once(monkeypatch):
    """Descent and shells share one evaluation per apartment vertex.

    On LOCAL_MIN_TRIPLE the descent stops above the minimum, so it
    evaluates the center's six neighbours before the first shell asks for
    them again, and the minimizer's squares are asked for after the
    search.  Each apartment's two distances are computed once per vertex.
    """
    calls = []
    original = ApartmentPairDistance.dist2_to_apartment

    def counted(self, m):
        calls.append((id(self), m))
        return original(self, m)

    monkeypatch.setattr(ApartmentPairDistance, "dist2_to_apartment", counted)
    res = barycenter(LOCAL_MIN_TRIPLE, 2)
    assert res.min_value == SqrtSum.of_squares((37,))
    assert res.min_squares == (0, 0, 37)
    assert len(calls) == len(set(calls)) == 642


def test_barycenter_skips_shell_vertices_a_neighbour_puts_above(monkeypatch):
    """The skip rule cuts the apartment distances of a bench triple.

    A full scan of the family triple makes 368 ``dist2_to_apartment`` calls:
    61 vertices per apartment, two terms each, and two for the minimizer's
    squares.  The skip rule leaves 184.
    """
    calls = []
    original = ApartmentPairDistance.dist2_to_apartment

    def counted(self, m):
        calls.append(m)
        return original(self, m)

    monkeypatch.setattr(ApartmentPairDistance, "dist2_to_apartment", counted)
    res = barycenter(family_triple(1), 5)
    assert res.search_radius == 4 and res.certified
    assert len(calls) <= 200
