"""Flags at infinity, Schubert positions, sectors, retractions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl3building.building import (
    LatticeVertex,
    adapted_basis_at,
    dist2,
    frame_vertex,
    random_vertex,
    standard_vertex,
)
from sl3building.boundary import (
    ALL_PERMS,
    Flag,
    IDENTITY_PERM,
    LONGEST_PERM,
    NotOppositeError,
    adapted_depth,
    apartment_chambers,
    apartment_from_opposite,
    boundary_retraction,
    chamber_order_in_frame,
    common_depth,
    growth_ray_vertex,
    is_opposite,
    is_opposite_to_apartment,
    retraction,
    sector_membership,
    weyl_distance,
)
from sl3building.dynamics import GroupElement, random_sl3z
from sl3building.padic_linalg import (
    adjugate3,
    columns,
    det3,
    flag_adapted_columns,
    from_columns,
    mat_mul,
    mat_vec,
    primitive_vector,
    transpose,
    valuation_int,
)
from sl3building.parabolics import family_flag
from sl3building.rng import make_rng
from sl3building.serialize import from_obj, matrix_to_obj, to_obj
from sl3building.sqrtsum import SqrtSum
from sl3building.stochastics import harmonic_sample
from oracles import (
    apartment_chambers_oracle,
    boundary_retraction_iwasawa_oracle,
    boundary_retraction_search_oracle,
    chamber_order_in_frame_oracle,
    common_depth_ray_oracle,
    flag_echelon_oracle,
    flag_matrix,
    is_opposite_to_apartment_oracle,
    perm_length,
    ray_depth,
    retraction_lattice_oracle,
    sector_membership_lattice_oracle,
    sector_membership_oracle,
    weyl_distance_oracle,
)


def rand_flag(rng, bound=6):
    while True:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(3))
                  for _ in range(3))
        if det3(m) != 0:
            return Flag.from_matrix(m)


def test_flag_canonical_form_is_a_coset_invariant():
    rng = random.Random(3)
    for _ in range(200):
        f = rand_flag(rng)
        # right-multiplying by an upper triangular matrix keeps the flag
        upper = ((rng.randint(1, 5), rng.randint(-4, 4), rng.randint(-4, 4)),
                 (0, rng.randint(1, 5), rng.randint(-4, 4)),
                 (0, 0, rng.randint(1, 5)))
        assert Flag.from_matrix(mat_mul(flag_matrix(f), upper)) == f


def rand_matrix(rng, rational):
    """A random invertible matrix, integer or with Fraction entries."""
    while True:
        if rational:
            m = tuple(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                            for _ in range(3)) for _ in range(3))
        else:
            m = tuple(tuple(rng.randint(-3, 3) for _ in range(3))
                      for _ in range(3))
        if det3(m) != 0:
            return m


def test_flag_echelon_matrix_action_and_round_trip_against_oracle():
    rng = random.Random(7)
    for i in range(600):
        m = rand_matrix(rng, rational=i % 2 == 1)
        f = Flag.from_matrix(m)
        assert flag_matrix(f) == flag_echelon_oracle(m)
        g = rand_matrix(rng, rational=i % 3 == 0)
        moved = f.apply(g)
        assert flag_matrix(moved) == flag_echelon_oracle(mat_mul(g, m))
        assert from_obj(to_obj(f)) == f
        assert to_obj(f)["matrix"] == matrix_to_obj(flag_echelon_oracle(m))
        assert to_obj(moved)["matrix"] == matrix_to_obj(
            flag_echelon_oracle(mat_mul(g, m)))


def test_spanned_flag_depends_only_on_its_line_and_plane():
    # <s u> < <s u, r v + t u> is <u> < <u, v> for s, r != 0
    rng = random.Random(11)
    for i in range(300):
        m = rand_matrix(rng, rational=i % 2 == 1)
        u, v, _ = columns(m)
        s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
        r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        f = Flag.spanned(tuple(s * e for e in u),
                         tuple(r * b + t * a for a, b in zip(u, v)))
        assert flag_matrix(f) == flag_echelon_oracle(m)
    assert Flag.standard() == Flag.from_matrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert Flag.reversed_standard() == Flag.from_matrix(
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)))


def test_weyl_distance_examples():
    c = Flag.standard()
    d = Flag.reversed_standard()
    assert weyl_distance(c, c) == IDENTITY_PERM
    assert weyl_distance(c, d) == LONGEST_PERM
    assert perm_length(LONGEST_PERM) == 3


def test_weyl_distance_against_permutation_oracle():
    rng = random.Random(47)
    pairs = [(rand_flag(rng), rand_flag(rng)) for _ in range(1000)]
    # every relative position occurs from a fixed chamber of one apartment
    frame = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    chambers = apartment_chambers(frame.apply(random_sl3z(rng).num))
    pairs += [(chambers[0], d) for d in chambers]
    for c, d in pairs:
        assert weyl_distance(c, d) == weyl_distance_oracle(c, d)
    assert {weyl_distance(chambers[0], d) for d in chambers} == set(ALL_PERMS)


def test_schubert_partition_is_total():
    rng = random.Random(53)
    c = Flag.standard()
    seen = set()
    for _ in range(400):
        d = rand_flag(rng)
        w = weyl_distance(c, d)
        assert w in ALL_PERMS
        seen.add(w)
    assert LONGEST_PERM in seen  # the big cell dominates


def test_is_opposite_examples():
    c = Flag.standard()
    d = Flag.reversed_standard()
    assert is_opposite(c, d)
    assert not is_opposite(c, c)
    # the explicit Borel-family flag at t = 1 is opposite the standard flag
    assert is_opposite(c, family_flag(1))
    assert weyl_distance(c, family_flag(1)) == LONGEST_PERM


def test_apartment_from_opposite_standard_pair():
    frame = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    assert set(frame.lines) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_apartment_from_opposite_rejects_non_opposite():
    with pytest.raises(NotOppositeError):
        apartment_from_opposite(Flag.standard(), Flag.standard())


def test_apartment_from_opposite_equivariance():
    rng = random.Random(59)
    for _ in range(100):
        c, d = rand_flag(rng), rand_flag(rng)
        if not is_opposite(c, d):
            continue
        g = random_sl3z(rng).num
        assert apartment_from_opposite(c.apply(g), d.apply(g)) == \
            apartment_from_opposite(c, d).apply(g)


def test_apartment_chambers_structure():
    frame = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    chambers = apartment_chambers(frame)
    assert len(set(chambers)) == 6
    assert Flag.standard() in chambers and Flag.reversed_standard() in chambers
    # each chamber has exactly one opposite among the six
    for c in chambers:
        assert sum(1 for d in chambers if is_opposite(c, d)) == 1
    # all six relative positions occur from a fixed chamber
    assert {weyl_distance(chambers[0], d) for d in chambers} == set(ALL_PERMS)


def test_apartment_chambers_contains_the_generating_pair():
    rng = random.Random(61)
    for _ in range(50):
        c, d = rand_flag(rng), rand_flag(rng)
        if not is_opposite(c, d):
            continue
        chambers = apartment_chambers(apartment_from_opposite(c, d))
        assert c in chambers and d in chambers


def test_sector_membership_examples():
    p = 5
    x = standard_vertex(p)
    c = Flag.standard()
    assert sector_membership(x, c, x)
    y = LatticeVertex.from_matrix(p, ((1, 0, 0), (0, 5, 0), (0, 0, 25)))
    assert sector_membership(x, c, y)
    assert not sector_membership(x, Flag.reversed_standard(), y)


def test_sector_membership_against_bfs_oracle():
    rng = random.Random(67)
    p = 2
    x = standard_vertex(p)
    cases = 0
    while cases < 1000:
        c = rand_flag(rng, bound=4)
        y = random_vertex(p, rng)
        if dist2(x, y) > 9:
            continue
        cases += 1
        assert sector_membership(x, c, y) == sector_membership_oracle(x, c, y, 3)


_PRIMES = st.sampled_from((2, 3, 5, 7))
_MATRICES = (st.lists(st.integers(-30, 30), min_size=9, max_size=9)
             .map(lambda e: (tuple(e[0:3]), tuple(e[3:6]), tuple(e[6:9]))))


def _near_flag(o, c, k, e):
    """c moved by an element of the stabilizer of o that is 1 mod p^k there.

    In the coordinates of the lattice of o the element is I + p^k E; the
    adjugate of the basis matrix stands in for its inverse, since the action
    on flags is projective.
    """
    u = tuple(tuple(o.p ** k * e[i][j] + (i == j) for j in range(3))
              for i in range(3))
    assume(det3(u) != 0)
    return c.apply(mat_mul(o.matrix, mat_mul(u, adjugate3(o.matrix))))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(p=_PRIMES, xm=_MATRICES, cm=_MATRICES, ym=_MATRICES, dm=_MATRICES,
       on_ray=st.booleans(), t=st.integers(0, 3), k=st.integers(0, 3))
def test_sector_membership_and_retraction_match_the_lattice_oracles(
        p, xm, cm, ym, dm, on_ray, t, k):
    """The minor-valuation routes agree with the Hermite-form routes.

    y is a random vertex or the growth-ray vertex at parameter t (t = 0 is
    x itself); the sectors tested point toward c, a random flag, and a flag
    congruent to c mod p^k at x, so both verdicts occur.  The retraction is
    taken onto the apartment of c and a random flag, centered at each of
    its six ideal chambers.
    """
    assume(det3(xm) != 0 and det3(cm) != 0 and det3(ym) != 0)
    x = LatticeVertex.from_matrix(p, xm)
    c = Flag.from_matrix(cm)
    y = growth_ray_vertex(x, c, t) if on_ray else LatticeVertex.from_matrix(p, ym)
    for d in (c, Flag.from_matrix(ym), _near_flag(x, c, k, dm)):
        assert sector_membership(x, d, y) == sector_membership_lattice_oracle(x, d, y)
    assume(det3(dm) != 0 and is_opposite(c, Flag.from_matrix(dm)))
    frame = apartment_from_opposite(c, Flag.from_matrix(dm))
    for e in apartment_chambers(frame):
        assert retraction(frame, e, y) == retraction_lattice_oracle(frame, e, y)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(p=_PRIMES, om=_MATRICES, cm=_MATRICES, dm=_MATRICES,
       which=st.sampled_from(("same", "near", "random")), k=st.integers(0, 4),
       rmax=st.integers(0, 6))
def test_common_depth_closed_form(p, om, cm, dm, which, k, rmax):
    """common_depth(c, d, o, rmax) = min(rmax, v(K10), v(K21), floor(v(K20) / 2)).

    K = adj(H_d) H_c with H_f the basis of o adapted to f, and v(0) is
    infinite.  The growth-ray vertex at t is H_c diag(1, p^t, p^2t), which
    lies in the sector toward d iff diag(1, p^-t, p^-2t) K diag(1, p^t, p^2t)
    is integral.  ``common_depth`` and the ``ray_depth`` kernel both match
    the ray walk of ``common_depth_ray_oracle``; d is c itself, a flag
    congruent to c mod p^k at o, or a random flag.
    """
    assume(det3(om) != 0 and det3(cm) != 0 and det3(dm) != 0)
    o = LatticeVertex.from_matrix(p, om)
    c = Flag.from_matrix(cm)
    d = {"same": lambda: c, "near": lambda: _near_flag(o, c, k, dm),
         "random": lambda: Flag.from_matrix(dm)}[which]()
    h_c, h_d = adapted_basis_at(o, c), adapted_basis_at(o, d)
    k_rel = mat_mul(adjugate3(h_d), h_c)

    def v(e):
        return math.inf if e == 0 else valuation_int(e, p)

    half = math.inf if k_rel[2][0] == 0 else v(k_rel[2][0]) // 2
    expected = common_depth_ray_oracle(c, d, o, rmax)
    assert common_depth(c, d, o, rmax) == expected
    assert ray_depth(h_c, adjugate3(h_d), p, rmax) == expected
    assert expected == min(rmax, v(k_rel[1][0]), v(k_rel[2][1]), half)


def _sheared_flag(o, c, shear, e):
    """The flag of H N, H the basis of o adapted to c (in global
    coordinates) and N lower unitriangular with entries p^a e10, p^b e21 and
    p^c e20 below the diagonal, for shear = (a, b, c).

    H N is adapted to that flag, so K = adj(H N) H is proportional to N^-1,
    whose entries below the diagonal are -p^a e10, -p^b e21 and
    p^(a+b) e10 e21 - p^c e20: each of the three terms of the depth can be
    the least.
    """
    a, b, c_exp = shear
    p = o.p
    n = ((1, 0, 0), (p ** a * e[1][0], 1, 0),
         (p ** c_exp * e[2][0], p ** b * e[2][1], 1))
    return Flag.from_matrix(mat_mul(o.matrix, mat_mul(adapted_basis_at(o, c), n)))


@settings(derandomize=True, max_examples=250, deadline=None)
@given(p=st.sampled_from((2, 3, 5)), depth=st.integers(1, 6),
       rmax=st.integers(1, 6), seed=st.integers(0, 2 ** 32),
       which=st.sampled_from(("same", "near", "sheared", "harmonic")),
       k=st.integers(0, 6),
       shear=st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 13)),
       em=_MATRICES, um=_MATRICES)
def test_adapted_depth_matches_the_ray_oracle_in_any_basis(p, depth, rmax, seed,
                                                           which, k, shear, em,
                                                           um):
    """``adapted_depth`` and ``common_depth`` against the growth-ray walk.

    o is a random vertex off the standard lattice, and c a harmonic flag at
    o; d is c, c moved by an element 1 mod p^k at o, the flag of c's
    adapted basis times a lower unitriangular shear, or another harmonic
    flag at o.  The depth is read three ways: ``common_depth`` (in the
    Hermite basis M of o), the ``ray_depth`` oracle on the adapted bases,
    and ``adapted_depth`` of the flags written in the basis M U of the same
    lattice, U an integer matrix of unit determinant that is in general not
    upper triangular.
    """
    assume(det3(um) % p != 0)
    rng = make_rng(seed)
    o = random_vertex(p, rng)
    while o == standard_vertex(p):
        o = random_vertex(p, rng)
    c = harmonic_sample(o, depth, rng)
    d = {"same": lambda: c, "near": lambda: _near_flag(o, c, k, em),
         "sheared": lambda: _sheared_flag(o, c, shear, em),
         "harmonic": lambda: harmonic_sample(o, depth, rng)}[which]()
    expected = common_depth_ray_oracle(c, d, o, rmax)
    assert common_depth(c, d, o, rmax) == expected
    assert ray_depth(adapted_basis_at(o, c), adjugate3(adapted_basis_at(o, d)),
                     p, rmax) == expected
    b = mat_mul(o.matrix, um)

    def columns_in_b(f):
        return flag_adapted_columns(
            primitive_vector(mat_vec(adjugate3(b), f.line)),
            primitive_vector(mat_vec(transpose(b), f.plane_normal)), p)

    assert adapted_depth(columns_in_b(c), columns_in_b(d), p, rmax) == expected


def test_basis_set_base_point_cofinality():
    """Chains of basis sets from different base points are cofinal."""
    rng = random.Random(71)
    p = 3
    x = standard_vertex(p)
    for _ in range(40):
        c = rand_flag(rng, bound=4)
        x2 = random_vertex(p, rng)
        if x2.vertex_type != 0:
            continue
        y = growth_ray_vertex(x, c, rng.randint(1, 3))
        assert sector_membership(x, c, y)
        # a deep enough growth-ray vertex from x2 witnesses the inclusion
        need = SqrtSum.of_squares((dist2(x, y),))
        have_budget = SqrtSum.of_squares((dist2(x, x2),))
        t = 1
        while True:
            y2 = growth_ray_vertex(x2, c, t)
            if SqrtSum.of_squares((dist2(x2, y2),)) + have_budget >= need:
                break
            t += 1
        assert sector_membership(x2, c, y2)
        lhs = SqrtSum.of_squares((dist2(x2, y2),)) + have_budget
        assert lhs >= need


def test_common_depth_examples():
    p = 5
    x = standard_vertex(p)
    c = Flag.standard()
    d = Flag.reversed_standard()
    assert common_depth(c, c, x, 7) == 7
    assert common_depth(c, d, x, 7) == 0


def test_common_depth_of_congruent_flags():
    p = 3
    x = standard_vertex(p)
    c = Flag.standard()
    # agrees with the standard flag mod p^2
    d = Flag.from_matrix(((1, 0, 0), (9, 1, 0), (9, 9, 1)))
    assert common_depth(c, d, x, 6) >= 1


def test_retraction_fixes_the_apartment():
    p = 5
    frame = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    for exps in ((0, 0, 0), (2, 1, 0), (-1, 3, 0)):
        v = frame_vertex(frame, p, exps)
        for c in apartment_chambers(frame):
            assert retraction(frame, c, v) == v


def test_retraction_iwasawa_example():
    p = 5
    frame = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    c = Flag.standard()
    target = frame_vertex(frame, p, (0, 1, 2))
    u = ((1, 2, 3), (0, 1, 4), (0, 0, 1))  # unipotent adapted to the standard flag
    moved = target.apply(u)
    assert retraction(frame, c, moved) == target


def test_retraction_does_not_increase_distances():
    rng = random.Random(73)
    p = 2
    frame = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    c = Flag.standard()
    for _ in range(1000):
        a = random_vertex(p, rng)
        b = random_vertex(p, rng)
        ra = retraction(frame, c, a)
        rb = retraction(frame, c, b)
        assert dist2(ra, rb) <= dist2(a, b)


def test_retraction_precondition():
    frame = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    outside = Flag.from_matrix(((1, 1, 2), (1, 2, 1), (3, 1, 1)))
    with pytest.raises(ValueError):
        retraction(frame, outside, standard_vertex(5))


def test_retraction_is_isometric_on_apartments_through_c():
    """On any apartment with c in its boundary the retraction is an isometry
    and eventually fixes the shared sector."""
    rng = random.Random(79)
    p = 3
    frame = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    c = Flag.standard()
    for _ in range(20):
        d2 = rand_flag(rng, bound=4)
        if not is_opposite(c, d2):
            continue
        other = apartment_from_opposite(c, d2)
        pts = [frame_vertex(other, p, (i, j, 0))
               for i in range(-2, 3) for j in range(-2, 3)]
        sample = rng.sample(pts, 6)
        for a in sample:
            for b in sample:
                assert dist2(retraction(frame, c, a), retraction(frame, c, b)) \
                    == dist2(a, b)
        # deep vertices in the shared c-sector are fixed
        base = frame_vertex(other, p, (0, 0, 0))
        fixed_seen = False
        for t in range(1, 7):
            w = growth_ray_vertex(base, c, t)
            if retraction(frame, c, w) == w:
                fixed_seen = True
        assert fixed_seen


def test_retraction_agrees_with_deep_vertex_characterization():
    """d(rho(x), z) = d(x, z) for z deep enough in the center direction."""
    rng = random.Random(83)
    p = 3
    frame = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    c = Flag.standard()
    o = frame_vertex(frame, p, (0, 0, 0))
    for _ in range(25):
        x = random_vertex(p, rng)
        rx = retraction(frame, c, x)
        agreed = False
        for t in range(2, 10):
            z = growth_ray_vertex(o, c, t)
            if dist2(rx, z) == dist2(x, z):
                agreed = True
                break
        assert agreed


def test_boundary_retraction_examples():
    p = 5
    frame = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    c = Flag.reversed_standard()
    # chambers of the apartment are fixed
    for d in apartment_chambers(frame):
        assert boundary_retraction(frame, c, d, p) == d
    # a chamber opposite the center goes to the center's opposite
    generic = Flag.from_matrix(((1, 1, 2), (1, 2, 1), (3, 1, 1)))
    assert is_opposite(generic, c)
    assert boundary_retraction(frame, c, generic, p) == Flag.standard()


def _small_vector(rng):
    while True:
        v = tuple(rng.randint(-4, 4) for _ in range(3))
        if any(v):
            return v


def _flags_near_apartment(frame, rng):
    """Flags that share a line or a plane with a chamber of the frame apartment.

    A harmonic flag is almost always opposite the centre.  These flags fall
    in the other cells, the two 3-cycles among them, where
    weyl_distance(c, d) and weyl_distance(d, c) differ.
    """
    v = frame.lines
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            a, b = _small_vector(rng), _small_vector(rng)
            through_line = from_columns((v[i], a, b))
            mix = tuple(rng.randint(1, 4) * x + rng.randint(-4, 4) * y
                        for x, y in zip(v[i], v[j]))
            in_plane = from_columns((mix, v[i], a))
            for m in (through_line, in_plane):
                if det3(m) != 0:
                    yield Flag.from_matrix(m)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_boundary_retraction_matches_the_iwasawa_oracle(p):
    rng = random.Random(1000 + p)
    cells = set()
    for _ in range(12):
        c0 = rand_flag(rng)
        c1 = rand_flag(rng)
        if not is_opposite(c0, c1):
            continue
        frame = apartment_from_opposite(c0, c1)
        o = frame_vertex(frame, p, (0, 0, 0))
        ds = [harmonic_sample(o, 3, rng) for _ in range(4)]
        ds += [rand_flag(rng) for _ in range(2)]
        ds += list(_flags_near_apartment(frame, rng))
        for c in apartment_chambers(frame):
            for d in ds:
                cells.add(weyl_distance(c, d))
                assert boundary_retraction(frame, c, d, p) == \
                    boundary_retraction_iwasawa_oracle(frame, c, d, p)
    assert cells == set(ALL_PERMS)


def test_boundary_retraction_rejects_a_centre_outside_the_apartment():
    frame = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    c = Flag.from_matrix(((1, 1, 2), (1, 2, 1), (3, 1, 1)))
    assert c not in apartment_chambers(frame)
    for d in (Flag.standard(), Flag.from_matrix(((2, 1, 0), (1, 1, 0), (5, 3, 1)))):
        with pytest.raises(ValueError, match="apartment at infinity"):
            boundary_retraction(frame, c, d, 5)


def _harmonic_apartment(p, depth, rng):
    """A random vertex and the apartment of two opposite harmonic flags there."""
    x = random_vertex(p, rng)
    c0 = harmonic_sample(x, depth, rng)
    c1 = harmonic_sample(x, depth, rng)
    while not is_opposite(c0, c1):  # each draw succeeds with probability >= 8/21
        c1 = harmonic_sample(x, depth, rng)
    return x, apartment_from_opposite(c0, c1)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=st.sampled_from((2, 3, 5)), depth=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32))
def test_apartment_incidence_closed_forms_match_the_search_oracles(p, depth, seed):
    # The flags d are harmonic, the six apartment chambers, and flags that
    # share a line or a plane with an apartment chamber: the cells where a
    # flag is in the apartment or fails to be opposite all of it.
    rng = make_rng(seed)
    x, frame = _harmonic_apartment(p, depth, rng)
    chambers = apartment_chambers(frame)
    assert chambers == apartment_chambers_oracle(frame)
    ds = [harmonic_sample(x, depth, rng) for _ in range(3)]
    ds += list(_flags_near_apartment(frame, rng)) + list(chambers)
    outcomes = set()
    for d in ds:
        opposite = is_opposite_to_apartment(d, frame)
        assert opposite == is_opposite_to_apartment_oracle(d, frame)
        outcomes.add(opposite)
        if d in chambers:
            assert chamber_order_in_frame(frame, d) == \
                chamber_order_in_frame_oracle(frame, d)
        else:
            with pytest.raises(ValueError, match="apartment at infinity"):
                chamber_order_in_frame(frame, d)
        for c in chambers:
            assert boundary_retraction(frame, c, d, p) == \
                boundary_retraction_search_oracle(frame, c, d)
    assert False in outcomes


def _diagonal(p, a, b):
    """diag(p^a, p^b, p^(-a-b)) as a group element."""
    return GroupElement.from_matrix(tuple(
        tuple(Fraction(p) ** e if i == j else 0 for j in range(3))
        for i, e in enumerate((a, b, -a - b))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=st.sampled_from((2, 3, 5)), depth=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32),
       ab=st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_boundary_retraction_is_equivariant(p, depth, seed, ab):
    # g is a random SL3(Z) draw times diag(p^a, p^b, p^(-a-b)); the frame,
    # the centre and the retracted flag all move by g.
    rng = make_rng(seed)
    x, frame = _harmonic_apartment(p, depth, rng)
    g = (random_sl3z(rng) * _diagonal(p, *ab)).matrix
    moved = frame.apply(g)
    ds = [harmonic_sample(x, depth, rng) for _ in range(2)]
    ds += list(_flags_near_apartment(frame, rng))[:4]
    for c in apartment_chambers(frame):
        for d in ds:
            assert boundary_retraction(moved, c.apply(g), d.apply(g), p) == \
                boundary_retraction(frame, c, d, p).apply(g)


def test_opposite_in_apartment():
    # every flag is opposite some chamber of every apartment (opposition in
    # spherical buildings), the apartment's own chambers included
    def has_opposite(d, frame):
        return any(is_opposite(d, e) for e in apartment_chambers(frame))

    rng = random.Random(89)
    frame = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    for d in apartment_chambers(frame):
        assert has_opposite(d, frame)
    for _ in range(200):
        d = rand_flag(rng)
        assert has_opposite(d, frame)
        g = random_sl3z(rng).num
        assert has_opposite(d.apply(g), frame.apply(g))
