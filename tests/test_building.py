"""Vertices, distances, apartments and residues."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl3building.building import (
    ApartmentPairDistance,
    _eisenstein_ball,
    _eisenstein_shell,
    Frame,
    IrregularSegmentError,
    LatticeVertex,
    canonical_modp_vector,
    dist2,
    distance_to_apartment,
    dominant,
    frame_vertex,
    germ_face,
    is_regular,
    opposition_involution,
    random_vertex,
    residue_projection,
    standard_vertex,
    vector_distance,
    weyl_dist2,
)
from sl3building.boundary import Flag
from sl3building.dynamics import random_sl3z
from sl3building.padic_linalg import adjugate3, det3, mat_mul, minor_valuations
from sl3building.rng import make_rng
from sl3building.sqrtsum import SqrtSum
from sl3building.triples import pairwise_frames
from oracles import (
    det_count_in_box,
    eisenstein_ball_oracle,
    distance_to_apartment_bruteforce,
    harmonic_generic_triples,
    nearest_theta_scan_oracle,
    residue_chambers,
    residue_lines,
    residue_opposite,
    residue_opposite_chamber_count,
    residue_projection_oracle,
)


def test_weyl_vector_utilities():
    assert dominant((0, 2, 1)) == (2, 1, 0)
    assert dominant((-1, 3, 1)) == (4, 2, 0)
    assert opposition_involution((0, 0, 0)) == (0, 0, 0)
    assert opposition_involution((2, 1, 0)) == (2, 1, 0)
    assert opposition_involution((3, 1, 0)) == (3, 2, 0)
    assert is_regular((2, 1, 0))
    assert not is_regular((0, 0, 0)) and not is_regular((2, 2, 0))


def test_vector_distance_examples():
    p = 5
    x = standard_vertex(p)
    assert vector_distance(x, x) == (0, 0, 0)
    y = LatticeVertex.from_matrix(p, ((5, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert vector_distance(x, y) == (1, 0, 0)


def test_vertex_type_is_canonical():
    p = 3
    x = standard_vertex(p)
    assert x.vertex_type == 0
    y = LatticeVertex.from_matrix(p, ((3, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert y.vertex_type == 1
    # same lattice presented differently
    z = LatticeVertex.from_matrix(p, ((3, 3, 0), (0, 1, 0), (0, 0, 1)))
    assert z == y and z.vertex_type == 1


def test_theta_symmetry_through_the_involution():
    rng = random.Random(17)
    p = 3
    for _ in range(1000):
        x = random_vertex(p, rng)
        y = random_vertex(p, rng)
        assert vector_distance(y, x) == opposition_involution(vector_distance(x, y))


def test_random_vertex_draws_are_singular_with_probability_at_most_a_third():
    # Schwartz-Zippel bounds a singular draw by 3 / (2p^2 + 1), as its
    # docstring states; at p = 2 the exact count is far below 3/9.  The
    # counter itself reproduces the 7875 singular matrices over {-1, 0, 1}
    # (OEIS A046747).
    assert det_count_in_box(range(-1, 2), 0) == 7875
    singular = det_count_in_box(range(-4, 5), 0)
    assert Fraction(singular, 9 ** 9) <= Fraction(3, 2 * 2 ** 2 + 1)


def test_distance_symmetry_and_triangle_inequality():
    rng = random.Random(23)
    p = 2
    for _ in range(300):
        x, y, z = (random_vertex(p, rng) for _ in range(3))
        assert dist2(x, y) == dist2(y, x)
        dxy = SqrtSum.of_squares((dist2(x, y),))
        dyz = SqrtSum.of_squares((dist2(y, z),))
        dxz = SqrtSum.of_squares((dist2(x, z),))
        assert dxz <= dxy + dyz


def test_isometry_equivariance_of_vector_distance():
    rng = random.Random(29)
    p = 5
    for _ in range(200):
        x = random_vertex(p, rng)
        y = random_vertex(p, rng)
        g = random_sl3z(rng).num
        assert vector_distance(x.apply(g), y.apply(g)) == vector_distance(x, y)


def test_squared_length_values():
    assert weyl_dist2((0, 0, 0)) == 0
    assert weyl_dist2((1, 0, 0)) == 1
    assert weyl_dist2((1, 1, 0)) == 1
    assert weyl_dist2((2, 1, 0)) == 3


def test_frame_canonicalization_is_order_free():
    f1 = Frame.from_lines(((1, 0, 0), (0, 2, 0), (0, 0, -3)))
    f2 = Frame.from_lines(((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    assert f1 == f2
    with pytest.raises(Exception):
        Frame.from_lines(((1, 0, 0), (0, 1, 0), (1, 1, 0)))


def test_distance_to_apartment_member_is_zero():
    p = 5
    frame = Frame.from_lines(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    v = frame_vertex(frame, p, (2, 1, 0))
    q, w = distance_to_apartment(v, frame)
    assert q == 0 and w == v


def test_distance_to_apartment_perturbed_frame():
    p = 5
    x = standard_vertex(p)
    u = ((1, Fraction(1, 5), 0), (0, 1, 0), (0, 0, 1))
    frame = Frame.from_lines(((1, 0, 0), (0, 1, 0), (0, 0, 1))).apply(u)
    q, w = distance_to_apartment(x, frame)
    assert q > 0
    assert q == dist2(x, w)
    assert q == distance_to_apartment_bruteforce(x, frame, 4)


def test_distance_to_apartment_matches_bruteforce_randomly():
    rng = random.Random(31)
    p = 2
    frame = Frame.from_lines(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for _ in range(60):
        x = random_vertex(p, rng)
        q, w = distance_to_apartment(x, frame)
        assert dist2(x, w) == q
        assert q == distance_to_apartment_bruteforce(x, frame, 6)


def test_distance_to_apartment_isometry_instance():
    rng = random.Random(37)
    p = 3
    frame = Frame.from_lines(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for _ in range(50):
        x = random_vertex(p, rng)
        g = random_sl3z(rng).num
        q1, _ = distance_to_apartment(x, frame)
        q2, _ = distance_to_apartment(x.apply(g), frame.apply(g))
        assert q1 == q2


def test_apartment_pair_distance_against_vertex_distances():
    """The minor-valuation evaluator agrees with elementary divisors of vertices.

    theta(m, m_to) is the vector distance from the m_to vertex of the target
    frame to the m vertex of the source frame, and the certified search
    agrees with an exhaustive scan of the target apartment.
    """
    rng = random.Random(41)
    std = Frame.from_lines(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for case in range(30):
        p = (2, 3, 5)[case % 3]
        f_from = std.apply(random_sl3z(rng).num)
        f_to = std.apply(random_sl3z(rng).num)
        ev = ApartmentPairDistance(
            mat_mul(adjugate3(f_to.matrix()), f_from.matrix()), p)
        m = tuple(rng.randint(-3, 3) for _ in range(3))
        x = frame_vertex(f_from, p, m)
        for _ in range(5):
            m_to = tuple(rng.randint(-3, 3) for _ in range(3))
            y = frame_vertex(f_to, p, m_to)
            assert ev.theta(m, m_to) == vector_distance(y, x)
        assert ev.dist2_to_apartment(m) == \
            distance_to_apartment_bruteforce(x, f_to, 6)


def _pair_frame_relative_matrices():
    """(p, K) for K = adj(H_i) H_k of the pair apartments of generic triples.

    These are the matrices ``barycenter`` builds.  Two pair apartments share
    a chamber at infinity, so K is triangular up to the order of its rows
    and columns: its rows hold 1, 2 and 3 nonzero entries, and its row pairs
    1, 2 and 3 nonzero 2x2 minors.
    """
    for p in (2, 3, 5):
        for triple in harmonic_generic_triples(p, 4, 4, make_rng(43, p)):
            frames = pairwise_frames(triple)
            for k in range(3):
                for i in range(3):
                    if i != k:
                        yield p, mat_mul(adjugate3(frames[i].matrix()),
                                         frames[k].matrix())


def test_nearest_matches_the_theta_scan_oracle():
    """Six-move descent alone gives the oracle's (q, witness).

    The oracle scans the whole ball of radius 2*d(x, z0) after the descent
    and takes only strict improvements, so the witness must agree exactly,
    not only up to homothety.  Independent random SL3(Z) frames give dense
    K; the pair-apartment K of generic triples give sparse rows, so the
    padding of ``ApartmentPairDistance`` to three terms is checked on rows
    of one and two terms as well.
    """
    rng = random.Random(43)
    std = Frame.from_lines(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    nonzero_m = 0
    for case in range(330):
        p = (2, 3, 5)[case % 3]
        f_from = std.apply(random_sl3z(rng).num)
        f_to = std.apply(random_sl3z(rng).num)
        k_int = mat_mul(adjugate3(f_to.matrix()), f_from.matrix())
        m = (0, 0, 0) if case % 5 == 0 else \
            tuple(rng.randint(-4, 4) for _ in range(3))
        nonzero_m += m != (0, 0, 0)
        assert ApartmentPairDistance(k_int, p).nearest(m) == \
            nearest_theta_scan_oracle(k_int, p, m)
    assert nonzero_m >= 250
    sparse = 0
    for p, k_int in _pair_frame_relative_matrices():
        assert sorted(sum(1 for e in row if e) for row in k_int) == [1, 2, 3]
        minors = minor_valuations(k_int, p)[1]
        assert sorted(sum(1 for _, i1, i2, _, _ in minors if (i1, i2) == rp)
                      for rp in ((0, 1), (0, 2), (1, 2))) == [1, 2, 3]
        sparse += 1
        for m in [(0, 0, 0)] + [tuple(rng.randint(-4, 4) for _ in range(3))
                                for _ in range(4)]:
            assert ApartmentPairDistance(k_int, p).nearest(m) == \
                nearest_theta_scan_oracle(k_int, p, m)
    assert sparse == 72


# The six unit moves of the apartment in the (i, j) coordinates of the
# exponents (i, j, 0): +-e_0, +-e_1, and +-e_2 = -+(1, 1) mod (1, 1, 1).
_HEX_MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(k_int=st.lists(st.integers(-10 ** 8, 10 ** 8), min_size=9, max_size=9)
       .map(lambda e: (tuple(e[0:3]), tuple(e[3:6]), tuple(e[6:9]))),
       p=st.sampled_from((2, 3, 5, 7)),
       m=st.tuples(*[st.integers(-4, 4)] * 3))
def test_six_move_local_minima_are_global(k_int, p, m):
    """``nearest`` attains the window minimum, and so does every local minimum.

    The window is |i|, |j| <= 8 around the witness w, in the target
    apartment's exponents (w0 + i, w1 + j, w2); squared distances come from
    ``theta`` and ``weyl_dist2``.  A vertex strictly inside the window that
    is no farther than its six neighbours must reach the same value.
    """
    assume(det3(k_int) != 0)
    ev = ApartmentPairDistance(k_int, p)
    best, w = ev.nearest(m)
    q = {(i, j): weyl_dist2(ev.theta(m, (w[0] + i, w[1] + j, w[2])))
         for i in range(-8, 9) for j in range(-8, 9)}
    assert best == q[(0, 0)] == min(q.values())
    for (i, j), v in q.items():
        if max(abs(i), abs(j)) < 8 and \
                all(v <= q[(i + di, j + dj)] for di, dj in _HEX_MOVES):
            assert v == best


def test_eisenstein_ball_points_and_order():
    for bound2 in list(range(-1, 40)) + [1027]:
        ball = tuple(_eisenstein_ball(bound2))
        assert [(i, j) for i, j, _ in ball] == list(eisenstein_ball_oracle(bound2))
        assert all(n == i * i - i * j + j * j for i, j, n in ball)


def test_eisenstein_shell_is_the_outer_band_of_the_ball_in_order():
    for radius in range(1, 13):
        band = [(i, j) for i, j, n in _eisenstein_ball(radius * radius)
                if (radius - 1) ** 2 < n]
        assert list(_eisenstein_shell(radius)) == band


def test_residue_counts():
    assert len(residue_lines(2)) == 7
    assert len(residue_chambers(2)) == 21
    assert len(residue_chambers(3)) == 52
    assert residue_opposite_chamber_count(2) == 8
    assert residue_opposite_chamber_count(3) == 27


def test_residue_projection_flag_examples():
    p = 5
    o = standard_vertex(p)
    c = residue_projection(o, Flag.standard())
    assert c.line == (1, 0, 0) and c.plane_normal == (0, 0, 1)
    d = residue_projection(o, Flag.reversed_standard())
    assert d.line == (0, 0, 1) and d.plane_normal == (1, 0, 0)
    assert residue_opposite(c, d)


def test_residue_projection_vertex_examples():
    p = 5
    o = standard_vertex(p)
    y = LatticeVertex.from_matrix(p, ((25, 0, 0), (0, 5, 0), (0, 0, 1)))
    c = residue_projection(o, y)
    # same germ as the flag of the corresponding diagonal direction
    assert c == residue_projection(o, Flag.reversed_standard())


def test_residue_projection_rejects_irregular():
    p = 3
    o = standard_vertex(p)
    y = LatticeVertex.from_matrix(p, ((3, 0, 0), (0, 3, 0), (0, 0, 1)))
    with pytest.raises(IrregularSegmentError):
        residue_projection(o, y)


def test_residue_projection_against_geodesic_step_oracle():
    rng = random.Random(41)
    p = 3
    o = standard_vertex(p)
    found = 0
    while found < 60:
        y = random_vertex(p, rng)
        if not is_regular(vector_distance(o, y)):
            continue
        found += 1
        assert residue_projection(o, y) == residue_projection_oracle(o, y)


def test_residue_projection_equivariance():
    rng = random.Random(43)
    p = 3
    o = standard_vertex(p)
    for _ in range(40):
        y = random_vertex(p, rng)
        if not is_regular(vector_distance(o, y)):
            continue
        g = random_sl3z(rng).num
        before = residue_projection(o, y)
        after = residue_projection(o.apply(g), y.apply(g))
        # compare through the moved canonical data: recompute via the oracle
        assert after == residue_projection_oracle(o.apply(g), y.apply(g))
        assert before == residue_projection_oracle(o, y)


def test_germ_face_degeneration_patterns():
    p = 3
    o = standard_vertex(p)
    wall1 = LatticeVertex.from_matrix(p, ((3, 0, 0), (0, 3, 0), (0, 0, 1)))
    line, normal = germ_face(o, wall1)
    assert line is not None and normal is None
    wall2 = LatticeVertex.from_matrix(p, ((3, 0, 0), (0, 1, 0), (0, 0, 1)))
    line, normal = germ_face(o, wall2)
    assert line is None and normal is not None


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_canonical_modp_vector_is_the_multiple_ending_in_one(p):
    # every vector of F_p^3, lifted with entries of both signs and beyond p
    for v in itertools.product(range(p), repeat=3):
        lift = tuple(e + p * s for e, s in zip(v, (-1, 2, -3)))
        if not any(v):
            with pytest.raises(ValueError):
                canonical_modp_vector(lift, p)
            continue
        out = canonical_modp_vector(lift, p)
        assert out in {tuple(k * e % p for e in v) for k in range(1, p)}
        assert [e for e in out if e][-1] == 1
