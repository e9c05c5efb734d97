"""SRH certification, north-south limits, limit sets, equicontinuity."""

import functools
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl3building.building import (
    Frame,
    LatticeVertex,
    dominant,
    frame_vertex,
    germ_face,
    random_vertex,
    standard_vertex,
    vector_distance,
)
from sl3building.boundary import (
    ALL_PERMS,
    Flag,
    HorizonExceededError,
    LONGEST_PERM,
    adapted_depth,
    boundary_retraction,
    common_depth,
    growth_ray_vertex,
    is_opposite,
)
from sl3building import dynamics
from sl3building.dynamics import (
    GroupElement,
    _apartment_candidate,
    certify_srh,
    enumerate_reduced_words,
    equicontinuity_check,
    equicontinuity_set_member,
    fixed_flag_fraction,
    limit_set_sample,
    make_srh,
    north_south_limit,
    partition_check,
    proximal_pair_check,
    random_sl3z,
    schottky_pair,
    schubert_avoidance_report,
    universal_contraction,
)
from sl3building.padic_linalg import (
    adjugate3,
    cross,
    det3,
    dot,
    flag_adapted_basis,
    flag_adapted_columns,
    identity,
    mat_mul,
    mat_vec,
    primitive_vector,
    transpose,
)
from sl3building.stochastics import DrawBoundExceededError, harmonic_sample
from sl3building.rng import make_rng
from sl3building.triples import construct_generic
from oracles import (
    COORDINATE_CHAMBERS,
    _apartment_candidate_oracle,
    apartment_candidate_kernel_oracle,
    apartment_chambers_oracle,
    common_depth_ray_oracle,
    det_count_in_box,
    equicontinuity_set_member_oracle,
    is_opposite_to_apartment_oracle,
    mat_inv3,
    north_south_limit_flag_oracle,
    residue_chambers,
    universal_contraction_flag_oracle,
    valuation,
)

STD_LINES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_group_element_determinant_guard():
    with pytest.raises(ValueError):
        GroupElement.from_matrix(((2, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_group_element_inverse_and_power():
    g = GroupElement.from_matrix(((1, 2, 3), (0, 1, 4), (0, 0, 1)))
    assert (g * g.inverse()).matrix == identity()
    assert g.power(3).matrix == mat_mul(g.matrix, mat_mul(g.matrix, g.matrix))
    assert g.power(-2).matrix == (g.inverse() * g.inverse()).matrix


def test_group_element_inverse_and_power_keep_their_words():
    e = GroupElement(identity(), 1, ())
    assert e.inverse().word == ()
    assert e.power(2).word == ()
    g = GroupElement.from_matrix(((1, 2, 3), (0, 1, 4), (0, 0, 1)), word=(1, -2))
    assert g.inverse().word == (2, -1)
    assert g.power(3).word == g.word * 3
    assert g.power(0).word == ()
    assert g.power(-2).word == g.inverse().word * 2
    assert (g.power(3).num, g.power(3).den) == ((g * g * g).num, (g * g * g).den)
    h = GroupElement.from_matrix(g.matrix)
    assert h.inverse().word is None and h.power(3).word is None


def test_group_element_algebra_against_fraction_matrices():
    rng = random.Random(6)
    dens = set()
    for p in (3, 5):
        cert1, cert2 = schottky_pair(p, make_rng(31))
        schottky = [cert1.element, cert2.element,
                    cert1.element.inverse(), cert2.element.inverse()]

        def word():
            # letters are fresh SL3(Z) draws and Schottky generators
            g = GroupElement(identity())
            for _ in range(rng.randint(0, 6)):
                g = g * (random_sl3z(rng) if rng.random() < 0.5
                         else rng.choice(schottky))
            return g

        for _ in range(40):
            g, h = word(), word()
            assert (g * h).matrix == mat_mul(g.matrix, h.matrix)
            assert g.inverse().matrix == mat_inv3(g.matrix)
            assert GroupElement.from_matrix(g.matrix) == g
            assert g.den > 0
            assert math.gcd(g.den, *(e for row in g.num for e in row)) == 1
            dens.add(g.den)
    assert len(dens) > 3  # the cases reach proper denominators


def test_group_element_rejects_fields_not_in_lowest_terms():
    minus_one = tuple(tuple(-e for e in row) for row in identity())
    two = tuple(tuple(2 * e for e in row) for row in identity())
    # both have det(num) = den^3 and are the identity
    for num, den in ((minus_one, -1), (two, 2)):
        with pytest.raises(ValueError):
            GroupElement(num, den)
        assert GroupElement.reduced(num, den) == GroupElement(identity())


def test_enumerated_words_spell_their_elements():
    cert1, cert2 = schottky_pair(3, make_rng(31))
    gens = [cert1.element, cert2.element]
    letters = {1: gens[0], 2: gens[1],
               -1: gens[0].inverse(), -2: gens[1].inverse()}
    elems = enumerate_reduced_words(gens, 3)
    assert len(elems) == 1 + 4 + 12 + 36  # free group on two letters
    for g in elems:
        h = GroupElement(identity())
        for letter in g.word:
            h = h * letters[letter]
        assert (h.num, h.den) == (g.num, g.den)
        assert all(a != -b for a, b in zip(g.word, g.word[1:]))


def test_certified_eigenlines_against_fraction_arithmetic():
    for p in (3, 5):
        cert1, cert2 = schottky_pair(p, make_rng(31))
        checked = 0
        for g in enumerate_reduced_words([cert1.element, cert2.element], 3):
            cert = certify_srh(g, p)
            if not cert:
                continue
            lams = []
            for line in cert.lines:
                image = mat_vec(g.matrix, line)
                i = next(i for i, e in enumerate(line) if e != 0)
                lam = Fraction(image[i], line[i])
                assert image == tuple(lam * e for e in line)
                lams.append(lam)
            assert lams[0] * lams[1] * lams[2] == 1
            vals = [valuation(lam, p) for lam in lams]
            assert vals[0] < vals[1] < vals[2]  # the first line attracts
            assert dominant(tuple(vals)) == cert.lam
            checked += 1
        assert checked >= 20


def test_random_sl3z_draws_succeed_with_probability_640824_over_7_to_the_9():
    # the success probability its docstring states, counted exactly
    assert det_count_in_box(range(-3, 4), 1) == 640_824
    assert 62 < 7 ** 9 / 640_824 < 63


def _schottky_completion(p, rng, depth=4):
    """The generic completion c3 that schottky_pair draws first from rng."""
    cert1 = make_srh(identity(), (2, 1, 0), p)
    return construct_generic(cert1.attracting, cert1.repelling, p, rng=rng,
                             depth=depth)


def _residue_opposite(line, normal, c, p):
    """Whether the residue flag (line, normal) mod p is opposite that of c."""
    return bool(dot(line, c.plane_normal) % p and dot(c.line, normal) % p)


def test_schottky_candidates_opposite_c3_mod_2_always_succeed(monkeypatch):
    # Each k in GL3(F_2) is offered as the first candidate, then c3 itself,
    # which is never opposite c3.  The draw succeeds iff the candidate is
    # opposite c3; the second repelling chamber is then c3, and every
    # candidate opposite c3 mod 2 succeeds: 8 of the 21 residue flags.
    p, seed = 2, 31
    c3 = _schottky_completion(p, make_rng(seed))
    good = total = 0
    for e in product(range(p), repeat=9):
        k = (e[0:3], e[3:6], e[6:9])
        if det3(k) % p == 0:
            continue
        total += 1
        cand = Flag.from_matrix(k)
        calls = []

        def sample(x, depth, rng):
            calls.append(depth)
            return cand if len(calls) == 1 else c3

        monkeypatch.setattr(dynamics, "harmonic_sample", sample)
        if is_opposite(cand, c3):
            cert1, cert2 = schottky_pair(p, make_rng(seed))
            assert len(calls) == 1
            assert cert2.attracting == cand and cert2.repelling == c3
            assert proximal_pair_check(cert1, cert2)
        else:
            with pytest.raises(DrawBoundExceededError):
                schottky_pair(p, make_rng(seed))
            assert len(calls) == dynamics._SCHOTTKY_DRAWS
        if _residue_opposite(cand.line, cand.plane_normal, c3, p):
            good += 1
            assert len(calls) == 1
    assert Fraction(good, total) == Fraction(8, 21)


@pytest.mark.parametrize("p", [3, 5])
def test_schottky_candidates_are_opposite_c3_mod_p_often(p):
    # A uniform residue flag is opposite a fixed one with probability
    # p^3 / ((p^2+p+1)(p+1)), which grows with p from 8/21 at p = 2.
    c3 = _schottky_completion(p, make_rng(32))
    good = total = 0
    for line in product(range(p), repeat=3):
        for normal in product(range(p), repeat=3):
            if not any(line) or not any(normal) or dot(line, normal) % p:
                continue
            if line[next(i for i, e in enumerate(line) if e)] != 1 or \
                    normal[next(i for i, e in enumerate(normal) if e)] != 1:
                continue  # one representative per point of P^2(F_p)
            total += 1
            good += _residue_opposite(line, normal, c3, p)
    assert total == (p * p + p + 1) * (p + 1)
    assert Fraction(good, total) == Fraction(p ** 3, total) > Fraction(8, 21)


def test_schottky_pair_repels_from_its_completion():
    for p, seed in ((2, 8), (3, 31), (5, 21)):
        c3 = _schottky_completion(p, make_rng(seed))
        cert1, cert2 = schottky_pair(p, make_rng(seed))
        assert cert2.repelling == c3 and proximal_pair_check(cert1, cert2)


def test_make_srh_standard():
    p = 5
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    assert cert.lam == (2, 1, 0)
    assert cert.attracting == Flag.standard()
    assert cert.repelling == Flag.reversed_standard()
    assert det3(cert.element.matrix) == 1
    # the element translates the base vertex by lam
    o = frame_vertex(cert.frame, cert.p)
    assert vector_distance(o, o.apply(cert.element.matrix)) == (2, 1, 0)


def test_make_srh_preconditions():
    with pytest.raises(ValueError):
        make_srh(STD_LINES, (2, 2, 0), 5)  # not regular
    with pytest.raises(ValueError):
        make_srh(STD_LINES, (3, 1, 0), 5)  # not realizable with det 1
    with pytest.raises(ValueError):
        make_srh(STD_LINES, (4, 2, 1), 5)  # lam[2] != 0
    with pytest.raises(ValueError):
        make_srh(STD_LINES, (5, 3, 1), 5)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("lam", [(2, 1, 0), (4, 2, 0), (5, 1, 0), (5, 4, 0),
                                 (7, 2, 0)])
def test_make_srh_certifies_to_the_stored_lam(p, lam):
    lines = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    cert = make_srh(lines, lam, p)
    assert cert.lam == lam
    assert certify_srh(cert.element, p).lam == lam


def test_make_srh_powers():
    p = 5
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    sq = certify_srh(cert.element.power(2), p)
    assert sq and sq.lam == (4, 2, 0)
    assert sq.attracting == cert.attracting and sq.repelling == cert.repelling


def test_make_srh_equivariance_under_conjugation():
    p = 5
    rng = random.Random(1)
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    k = random_sl3z(rng)
    moved_lines = tuple(
        tuple(sum(row[i] * v[i] for i in range(3)) for row in k.matrix)
        for v in STD_LINES)
    direct = make_srh(moved_lines, (2, 1, 0), p)
    conj = cert.conjugate(k)
    assert direct.element.matrix == conj.element.matrix
    assert direct.attracting == conj.attracting
    assert direct.repelling == conj.repelling


def test_certify_round_trip_and_covariance():
    p = 5
    rng = random.Random(2)
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    for _ in range(20):
        k = random_sl3z(rng)
        got = certify_srh(cert.conjugate(k).element, p)
        assert got
        assert got.lam == (2, 1, 0)
        assert got.attracting == cert.attracting.apply(k.matrix)
        assert got.repelling == cert.repelling.apply(k.matrix)


def test_certify_rejections():
    p = 5
    assert certify_srh(GroupElement.from_matrix(identity()), p).reason \
        == "not hyperbolic"
    unipotent = GroupElement.from_matrix(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    assert certify_srh(unipotent, p).reason == "not hyperbolic"
    rep = GroupElement.from_matrix(((5, 0, 0), (0, 5, 0), (0, 0, Fraction(1, 25))))
    assert certify_srh(rep, p).reason == "repeated valuation"
    # char poly 5x^3 + x^2 + x - 5: distinct integer Newton slopes at p = 5
    # but no rational roots, so the 5-adic spectrum is irrational
    comp = GroupElement.from_matrix(
        ((0, 0, 1), (1, 0, Fraction(-1, 5)), (0, 1, Fraction(-1, 5))))
    got = certify_srh(comp, 5)
    assert not got and got.reason == "irrational spectrum"
    # char poly x^3 + x^2/5 - 1: eigenvalue valuations -1, 1/2, 1/2 at
    # p = 5, so a Newton slope is not an integer and no Hensel lift is tried
    half = GroupElement.from_matrix(
        ((0, 0, 1), (1, 0, 0), (0, 1, Fraction(-1, 5))))
    got = certify_srh(half, 5)
    assert not got and got.reason == "irrational spectrum"


def test_certify_distinct_valuations_accepts():
    p = 5
    g = GroupElement.from_matrix(((25, 0, 0), (0, 5, 0), (0, 0, Fraction(1, 125))))
    cert = certify_srh(g, p)
    assert cert and cert.lam == (5, 4, 0)


def test_certify_inverse_swaps_chambers():
    p = 5
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    inv = certify_srh(cert.element.inverse(), p)
    assert inv
    assert inv.attracting == cert.repelling
    assert inv.repelling == cert.attracting


def test_north_south_fixed_points():
    p = 5
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    assert north_south_limit(cert, cert.attracting) == cert.attracting
    assert north_south_limit(cert, cert.repelling) == cert.repelling


def test_north_south_big_cell_contracts_to_attracting():
    p = 5
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    c = Flag.from_matrix(((1, 1, 2), (1, 2, 1), (3, 1, 1)))
    assert is_opposite(c, cert.repelling)
    assert north_south_limit(cert, c) == cert.attracting


def test_north_south_equals_boundary_retraction():
    p = 3
    rng = make_rng(12345)
    x = standard_vertex(p)
    certs = [make_srh(STD_LINES, (2, 1, 0), p)]
    certs.append(certs[0].conjugate(random_sl3z(random.Random(4))))
    for cert in certs:
        for i in range(25):
            c = harmonic_sample(x, 3, rng)
            limit = north_south_limit(cert, c)
            assert limit == boundary_retraction(cert.frame, cert.repelling, c, p)


def test_north_south_inverse_uses_swapped_chambers():
    p = 3
    rng = make_rng(999)
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    inv = certify_srh(cert.element.inverse(), p)
    x = standard_vertex(p)
    for _ in range(10):
        c = harmonic_sample(x, 3, rng)
        assert north_south_limit(inv, c) == \
            boundary_retraction(cert.frame, cert.attracting, c, p)


def _assert_trajectory_of_images(exc, flags, base, threshold):
    """The trajectory is the common depth of each image f_n with f_(n-1)."""
    expected = [(n, common_depth(flags[n - 1], flags[n], base, threshold + 1))
                for n in range(2, len(flags))]
    assert exc.trajectory == expected
    assert len({d for _, d in expected}) > 1  # a stale basis would show


def test_north_south_horizon_trajectory_recomputed_from_the_images():
    # the earliest candidate is read at n = 4 and confirmed at n >= 10, so
    # a horizon of 8 always runs out
    p, threshold, nmax = 3, 4, 8
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    rng = make_rng(4321)
    for _ in range(3):
        c = harmonic_sample(standard_vertex(p), 4, rng)
        with pytest.raises(HorizonExceededError) as info:
            north_south_limit(cert, c, nmax=nmax, threshold=threshold)
        flags = [c]  # flags[n] = g^n c
        for _ in range(nmax):
            flags.append(flags[-1].apply(cert.element.num))
        _assert_trajectory_of_images(info.value, flags,
                                     frame_vertex(cert.frame, cert.p), threshold)


def test_universal_contraction_horizon_trajectory_recomputed_from_the_images():
    p, threshold, nmax = 5, 4, 8
    cert1, cert2 = schottky_pair(p, make_rng(21))
    c = cert1.repelling
    with pytest.raises(HorizonExceededError) as info:
        universal_contraction(cert1, cert2, c, nmax=nmax, threshold=threshold)
    flags = [c] + [c.apply((cert2.element.power(n) * cert1.element.power(n)).num)
                   for n in range(1, nmax + 1)]
    _assert_trajectory_of_images(info.value, flags,
                                 frame_vertex(cert2.frame, cert2.p), threshold)


def _limit_or_trajectory(limit_fn, cert, c, nmax, threshold):
    """("limit", the limit) or ("horizon", the depth trajectory)."""
    try:
        return "limit", limit_fn(cert, c, nmax=nmax, threshold=threshold)
    except HorizonExceededError as exc:
        return "horizon", exc.trajectory


def _lines_off_the_standard_lattice(p, rng):
    """Three independent integer lines whose determinant p divides, so the
    frame's base vertex is not the standard one."""
    while True:
        m = tuple(tuple(rng.randint(-p * p, p * p) for _ in range(3))
                  for _ in range(3))
        if det3(m):
            lines = tuple(primitive_vector(v) for v in m)
            if det3(lines) % p == 0:
                return lines


def test_north_south_limit_matches_the_flag_oracle():
    # The iteration in base-vertex coordinates against the loop that moves
    # the flag itself by Flag.apply: the same limit at the default horizon,
    # and the same depth trajectory at horizons too short to confirm.  An
    # SL3(Z) conjugate of the standard element keeps the standard base
    # vertex, so one element translates a frame with a base vertex of its
    # own.
    outcomes = set()
    for p in (2, 3, 5):
        rng = make_rng(2021, p)
        x = standard_vertex(p)
        for lam in ((2, 1, 0), (4, 2, 0), (5, 1, 0)):
            std = make_srh(STD_LINES, lam, p)
            lines = _lines_off_the_standard_lattice(p, random.Random(p))
            certs = [std, make_srh(lines, lam, p)] + [
                std.conjugate(random_sl3z(random.Random(7 * p + i)))
                for i in range(2)]
            assert frame_vertex(certs[1].frame, certs[1].p) != x
            for cert, threshold in zip(certs * 3, (1, 2, 3, 4) * 3):
                for depth in (2, 5, 8):
                    c = harmonic_sample(x, depth, rng)
                    for nmax in (40, threshold + 3):
                        got = _limit_or_trajectory(north_south_limit, cert, c,
                                                   nmax, threshold)
                        assert got == _limit_or_trajectory(
                            north_south_limit_flag_oracle, cert, c, nmax,
                            threshold), (p, lam, threshold, depth, nmax)
                        outcomes.add((got[0], nmax == 40))
    # (a flag on the apartment is its own limit at any horizon)
    assert {("limit", True), ("horizon", False)} <= outcomes


def test_universal_contraction_matches_the_flag_oracle():
    # W = G2^n G1^n in frame coordinates against moving the flag itself by
    # the group element g2^n g1^n: the same limit at the default horizon,
    # and the same depth trajectory at horizons too short to confirm.  Each
    # Schottky pair is also used conjugated by an SL3(Z) element.
    outcomes = set()
    for p in (2, 3, 5):
        pair = schottky_pair(p, make_rng(2022, p))
        k = random_sl3z(random.Random(p))
        rng = make_rng(2023, p)
        x = standard_vertex(p)
        for cert1, cert2 in (pair, tuple(cert.conjugate(k) for cert in pair)):
            contract = functools.partial(universal_contraction, cert1)
            oracle = functools.partial(universal_contraction_flag_oracle, cert1)
            flags = [cert1.repelling, cert2.attracting] + [
                harmonic_sample(x, depth, rng) for depth in (2, 5, 8)]
            for threshold in (1, 2, 3, 4):
                for c in flags:
                    for nmax in (40, threshold + 3):
                        got = _limit_or_trajectory(contract, cert2, c, nmax,
                                                   threshold)
                        assert got == _limit_or_trajectory(
                            oracle, cert2, c, nmax, threshold), \
                            (p, threshold, c, nmax)
                        outcomes.add((got[0], nmax == 40))
                        if nmax == 40:
                            assert got == ("limit", cert2.attracting)
    assert outcomes == {("limit", True), ("horizon", False)}


def _failed_confirmations(reads):
    """How many candidates a confirmation rejected, from the results of
    ``_apartment_candidate`` in call order: a read that finds no candidate
    resets the run, and one that finds a candidate is followed by the read
    at step 2n + 2 that confirms it, when the horizon reaches that step."""
    failed, i = 0, 0
    while i < len(reads):
        if reads[i] is None:
            i += 1
            continue
        if i + 1 < len(reads) and (reads[i + 1] is None
                                   or reads[i + 1][0] != reads[i][0]):
            failed += 1
        i += 2
    return failed


def _rejected_candidate_case():
    """A flag whose first candidate fails its confirmation at thresholds 1
    to 3, for an SL3(Z) conjugate of the standard element at p = 2."""
    p = 2
    cert = make_srh(STD_LINES, (2, 1, 0), p).conjugate(
        random_sl3z(make_rng(2, 2, 2)))
    return cert, harmonic_sample(standard_vertex(p), 7, make_rng(2, 2, 2, 12))


def test_failed_confirmation_matches_the_flag_oracle_at_every_horizon(
        monkeypatch):
    # After a rejected candidate the detector resumes from the depth at step
    # 2n + 2, having skipped the steps before it; the oracle walks every
    # step.  Every horizon from 0 to 40 gives the same limit or the same
    # trajectory, so the resumed run and the rebuilt trajectory are pinned
    # on both sides of the rejection.
    reads = []

    def spy(flag, p, threshold):
        reads.append(real_candidate(flag, p, threshold))
        return reads[-1]

    real_candidate = dynamics._apartment_candidate
    monkeypatch.setattr(dynamics, "_apartment_candidate", spy)
    cert, c = _rejected_candidate_case()
    for threshold in (1, 2, 3):
        for nmax in range(41):
            reads.clear()
            got = _limit_or_trajectory(north_south_limit, cert, c, nmax,
                                       threshold)
            assert got == _limit_or_trajectory(
                north_south_limit_flag_oracle, cert, c, nmax, threshold), \
                (threshold, nmax)
        assert got[0] == "limit"
        assert _failed_confirmations(reads) >= 1, threshold


def test_certified_calls_take_no_depth_on_the_confirmation_leg(monkeypatch):
    # A call that returns reads its candidate at step n and confirms it at
    # step 2n + 2; the steps strictly between decide nothing, so no image
    # of them is formed and no depth of them is taken.  Each image is
    # tagged with its step through the detector's image function, and each
    # depth and candidate read with the step of the flag it reads last.
    images, depths, candidates, step_of = [], [], [], {}

    def detector(p, image, threshold, nmax):
        def tagged(n):
            images.append(n)
            return image(n)
        return real_detector(p, tagged, threshold, nmax)

    def columns(line, normal, p):
        flag = real_columns(line, normal, p)
        step_of[id(flag)] = images[-1], flag
        return flag

    def depth(c, d, p, rmax):
        depths.append(step_of[id(d)][0])
        return real_depth(c, d, p, rmax)

    def candidate(flag, p, threshold):
        candidates.append(step_of[id(flag)][0])
        return real_candidate(flag, p, threshold)

    real_detector = dynamics._stable_apartment_direction
    real_columns = dynamics.flag_adapted_columns
    real_depth = dynamics.adapted_depth
    real_candidate = dynamics._apartment_candidate
    monkeypatch.setattr(dynamics, "_stable_apartment_direction", detector)
    monkeypatch.setattr(dynamics, "flag_adapted_columns", columns)
    monkeypatch.setattr(dynamics, "adapted_depth", depth)
    monkeypatch.setattr(dynamics, "_apartment_candidate", candidate)
    # the bench's inputs, and a call that returns after a rejection
    p = 3
    std = make_srh(STD_LINES, (2, 1, 0), p)
    rng = make_rng(30)
    cases = [(cert, harmonic_sample(standard_vertex(p), 4, rng), 4)
             for cert in (std, std.conjugate(random_sl3z(random.Random(1))))
             for _ in range(10)]
    cases.append(_rejected_candidate_case() + (1,))
    for cert, c, threshold in cases:
        for log in (images, depths, candidates):
            log.clear()
        north_south_limit(cert, c, threshold=threshold)
        n, confirm = candidates[-2:]
        assert confirm == images[-1] == 2 * n + 2
        assert not [m for m in images + depths if n < m < 2 * n + 2]
        assert max(depths) == n  # and none at 2n + 2
        assert len(depths) == len(set(depths))  # each taken once
        if len(candidates) == 2:
            assert depths == list(range(2, n + 1))
    assert len(candidates) > 2  # the last case resumed after a rejection


def test_rejection_restarts_the_run_after_the_depth_at_2n_plus_2(monkeypatch):
    # Scripted flags, depths and candidate reads (threshold 4): the run
    # reaches 3 at step 4 and the read at step 10 rejects its candidate.
    # The depth at 10 is 6 and the next ones are 5, so the run starts again
    # at step 12, not 11, and reaches 3 at step 14, which step 30 confirms.
    # A run counted from step 11 would read (0, 1, 2) at 13 and 28.
    depths = {n: 6 if n == 10 else 5 for n in range(2, 41)}
    reads = {4: ((0, 1, 2), 5), 10: ((1, 0, 2), 5), 13: ((0, 1, 2), 5),
             14: ((2, 1, 0), 5), 28: ((0, 1, 2), 5), 30: ((2, 1, 0), 5)}
    monkeypatch.setattr(dynamics, "flag_adapted_columns", lambda n, _, p: n)
    monkeypatch.setattr(dynamics, "adapted_depth", lambda c, d, p, r: depths[d])
    monkeypatch.setattr(dynamics, "_apartment_candidate",
                        lambda flag, p, threshold: reads.get(flag))
    detect = functools.partial(dynamics._stable_apartment_direction, 3,
                               lambda n: (n, None), 4)
    assert detect(40) == (2, 1, 0)
    with pytest.raises(HorizonExceededError) as info:
        detect(29)
    assert info.value.trajectory == [(n, depths[n]) for n in range(2, 30)]


def test_universal_contraction_images_do_not_depend_on_the_order_asked(
        monkeypatch):
    # A rejected confirmation asks for image 2n + 1 after image 2n + 2, and
    # a horizon trajectory for the skipped images; W = G2^n G1^n then
    # starts again from the identity.  Capture the image function the
    # detector is given and ask for its images out of order.
    images = []

    def detector(p, image, threshold, nmax):
        images.append(image)
        return ALL_PERMS[0]

    monkeypatch.setattr(dynamics, "_stable_apartment_direction", detector)
    p = 5
    cert1, cert2 = schottky_pair(p, make_rng(21))
    c = harmonic_sample(standard_vertex(p), 4, make_rng(22))
    for _ in range(2):
        universal_contraction(cert1, cert2, c)
    forward, shuffled = images
    steps = list(range(1, 13))
    expected = {n: forward(n) for n in steps}
    random.Random(p).shuffle(steps)
    assert {n: shuffled(n) for n in steps} == expected


def _chamber_moved_near(frame, e, p, k, rng):
    """The chamber e moved by F (I + p^k E) adj(F), F the frame matrix: an
    element of the stabilizer of the base vertex that is 1 mod p^k in frame
    coordinates."""
    f = frame.matrix()
    while True:
        u = tuple(tuple(p ** k * rng.randint(-4, 4) + (i == j) for j in range(3))
                  for i in range(3))
        if det3(u):
            return e.apply(mat_mul(f, mat_mul(u, adjugate3(f))))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(p=st.sampled_from((2, 3, 5)), rmax=st.integers(1, 6),
       frame_seed=st.one_of(st.none(), st.integers(0, 2 ** 32)),
       near=st.one_of(st.none(), st.tuples(st.integers(0, 5), st.integers(0, 6))),
       depth=st.integers(1, 8), seed=st.integers(0, 2 ** 32))
def test_chamber_depths_are_read_off_the_frame_coordinates(p, rmax, frame_seed,
                                                          near, depth, seed):
    # adapted_depth against the coordinate chamber (i, j, k), with line e_i
    # and plane normal e_k, against the ray walk from the frame's base
    # vertex toward each of the six apartment chambers.  The flag is a harmonic draw at
    # the base vertex, or the apartment chamber of an index moved by an
    # element 1 mod p^k there, so that deep agreements occur.
    lines = STD_LINES if frame_seed is None else \
        _lines_off_the_standard_lattice(p, random.Random(frame_seed))
    frame = Frame.from_lines(lines)
    base = frame_vertex(frame, p)
    rng = make_rng(seed)
    chambers = apartment_chambers_oracle(frame)
    if near is None:
        c = harmonic_sample(base, depth, rng)
    else:
        index, k = near
        c = _chamber_moved_near(frame, chambers[index], p, k, random.Random(seed))
    f = frame.matrix()
    columns = flag_adapted_columns(
        primitive_vector(mat_vec(adjugate3(f), c.line)),
        primitive_vector(mat_vec(transpose(f), c.plane_normal)), p)
    expected = [common_depth_ray_oracle(c, e, base, rmax) for e in chambers]
    e = identity()
    assert [adapted_depth(columns, flag_adapted_columns(e[i], e[k], p), p, rmax)
            for i, _, k in ALL_PERMS] == expected
    top = max(expected)
    want = (ALL_PERMS[expected.index(top)], top) if top >= rmax - 1 else None
    assert _apartment_candidate(columns, p, rmax - 1) == want


def test_coordinate_chambers_do_not_depend_on_the_prime():
    e = identity()
    for p in (2, 3, 5, 7, 11):
        assert COORDINATE_CHAMBERS == tuple(
            flag_adapted_columns(e[o[0]], e[o[2]], p) for o in ALL_PERMS)


def _moved_coordinate_flag(u, order):
    """The coordinate chamber of order (i, j, k) moved by the integer matrix
    u, in frame coordinates: line u e_i and normal adj(u)^T e_k, both made
    primitive."""
    i, _, k = order
    return (primitive_vector(tuple(row[i] for row in u)),
            primitive_vector(adjugate3(u)[k]))


def test_apartment_candidate_closed_form_matches_the_depth_loops():
    # The six valuations read once against the six adapted_depth calls and
    # against the adapted bases' ray_depth, on flags in frame coordinates:
    # random flags, coordinate chambers, and coordinate chambers moved by
    # I + p^t E for t up to 7, whose depths reach and pass the cap of every
    # threshold.  Depths at least 1 fix the residue chamber, so ties between
    # chambers are ties at depth 0, which threshold 0 accepts.
    e = identity()
    at_cap = ties = 0
    for p in (2, 3, 5, 7):
        rng = random.Random(p)
        flags = [_moved_coordinate_flag(e, order) for order in ALL_PERMS]
        while len(flags) < 60:
            t = rng.randint(0, 8)
            u = tuple(tuple((p ** t if t < 8 else 1) * rng.randint(-3, 3)
                            + (t < 8 and i == j) for j in range(3))
                      for i in range(3))
            if det3(u):
                flags.append(_moved_coordinate_flag(u, rng.choice(ALL_PERMS)))
        chambers = [(o, adjugate3(flag_adapted_basis(e[o[0]], e[o[2]], p)))
                    for o in ALL_PERMS]
        for line, normal in flags:
            columns = flag_adapted_columns(line, normal, p)
            basis = flag_adapted_basis(line, normal, p)
            for threshold in range(7):
                got = _apartment_candidate(columns, p, threshold)
                assert got == apartment_candidate_kernel_oracle(
                    columns, p, threshold) == _apartment_candidate_oracle(
                    chambers, basis, p, threshold), (p, line, normal, threshold)
                if got is not None:
                    at_cap += got[1] == threshold + 1
                    ties += [adapted_depth(columns, chamber, p, threshold + 1)
                             for chamber in COORDINATE_CHAMBERS].count(got[1]) > 1
    assert at_cap and ties


def _diagonal(p, a, b):
    """diag(p^a, p^b, p^(-a-b)) as a group element."""
    return GroupElement.from_matrix(tuple(
        tuple(Fraction(p) ** e if i == j else 0 for j in range(3))
        for i, e in enumerate((a, b, -a - b))))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(p=st.sampled_from((2, 3, 5)),
       lam=st.sampled_from(((2, 1, 0), (4, 2, 0), (5, 1, 0))),
       frame_seed=st.one_of(st.none(), st.integers(0, 2 ** 32)),
       k_seed=st.integers(0, 2 ** 32),
       ab=st.one_of(st.none(), st.tuples(st.integers(-2, 2), st.integers(-2, 2))),
       depth=st.integers(2, 6),
       seed=st.integers(0, 2 ** 32))
def test_north_south_limit_is_equivariant(p, lam, frame_seed, k_seed, ab,
                                          depth, seed):
    # For k in SL3(Z[1/p]), a word of random_sl3z and a diagonal p-power
    # element, the limit of k g k^-1 from k c is k times the limit of g
    # from c.  g translates the standard frame or one off the standard
    # lattice; k need not carry the base vertex of g to that of k g k^-1.
    lines = STD_LINES if frame_seed is None else \
        _lines_off_the_standard_lattice(p, random.Random(frame_seed))
    cert = make_srh(lines, lam, p)
    k = random_sl3z(random.Random(k_seed))
    if ab is not None:
        k = k * _diagonal(p, *ab)
    c = harmonic_sample(standard_vertex(p), depth, make_rng(seed))
    assert north_south_limit(cert.conjugate(k), c.apply(k.num)) == \
        north_south_limit(cert, c).apply(k.num)


def test_proximal_pair_check_basics():
    p = 5
    cert1 = make_srh(STD_LINES, (2, 1, 0), p)
    assert not proximal_pair_check(cert1, cert1)
    _, cert2 = schottky_pair(p, make_rng(8))
    assert proximal_pair_check(cert1, cert2)


def test_proximal_pair_check_matches_the_apartment_search():
    p = 3
    cert1 = make_srh(STD_LINES, (2, 1, 0), p)
    rng = make_rng(21)
    outcomes = []
    for _ in range(40):
        cert2 = cert1.conjugate(random_sl3z(rng))
        got = proximal_pair_check(cert1, cert2)
        assert got == is_opposite_to_apartment_oracle(cert2.repelling, cert1.frame)
        outcomes.append(got)
    assert True in outcomes and False in outcomes


def test_universal_contraction_examples():
    p = 5
    cert1, cert2 = schottky_pair(p, make_rng(21))
    assert universal_contraction(cert1, cert2, cert2.attracting) == cert2.attracting
    # the repelling chamber of g1, the hardest input for g1 alone
    assert universal_contraction(cert1, cert2, cert1.repelling) == cert2.attracting
    rng = make_rng(77)
    x = standard_vertex(p)
    for _ in range(10):
        c = harmonic_sample(x, 3, rng)
        assert universal_contraction(cert1, cert2, c) == cert2.attracting


def test_universal_contraction_precondition():
    p = 5
    cert1 = make_srh(STD_LINES, (2, 1, 0), p)
    with pytest.raises(ValueError):
        universal_contraction(cert1, cert1, Flag.standard())


def test_limit_set_single_generator():
    p = 5
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    sample = limit_set_sample([cert.element], 3, p)
    assert set(sample.flags) == {cert.attracting, cert.repelling}
    # powers share the axis: attracting flags of positive words all equal C+
    positives = [c for f, c in sample.witnesses if c.attracting == cert.attracting]
    assert positives


def test_limit_set_conjugate_generator_adds_moved_chamber():
    p = 5
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    k = random_sl3z(random.Random(10))
    conj = cert.conjugate(k)
    sample = limit_set_sample([cert.element, conj.element], 2, p)
    assert cert.attracting in sample.flags
    assert conj.attracting in sample.flags


def test_limit_set_schottky_pair_produces_many_flags():
    p = 3
    cert1, cert2 = schottky_pair(p, make_rng(31))
    sample = limit_set_sample([cert1.element, cert2.element], 4, p)
    assert len(sample.flags) >= 8
    report = schubert_avoidance_report(sample, cert1)
    assert report[LONGEST_PERM]  # the attracting chamber itself is opposite
    assert all(w in report for w in ALL_PERMS)


def test_schubert_report_requires_witnessed_flag():
    p = 5
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    other = make_srh(((1, 1, 0), (0, 1, 1), (1, 0, 1)), (2, 1, 0), p)
    sample = limit_set_sample([cert.element], 2, p)
    with pytest.raises(ValueError):
        schubert_avoidance_report(sample, other)


def test_fixed_flag_fraction_identity():
    p = 3
    g = GroupElement.from_matrix(identity())
    assert fixed_flag_fraction(g, 50, 2, make_rng(5), p) == 1


def test_fixed_flag_fraction_srh_is_zero_at_depth_three():
    p = 3
    rng = random.Random(6)
    cert = make_srh(STD_LINES, (2, 1, 0), p).conjugate(random_sl3z(rng))
    assert fixed_flag_fraction(cert.element, 400, 3, make_rng(7), p) == 0


def test_fixed_flag_fraction_unipotent_strictly_between():
    p = 2
    u = GroupElement.from_matrix(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    frac = fixed_flag_fraction(u, 600, 2, make_rng(8), p)
    assert 0 < frac < 1
    # depth-1 residue count: flags over F_p fixed by the reduction of u
    fixed = 0
    total = 0
    for ch in residue_chambers(p):
        total += 1
        # nonzero vectors are proportional over F_p iff their cross product
        # vanishes mod p
        img_line = mat_vec(((1, 1, 0), (0, 1, 0), (0, 0, 1)), ch.line)
        line_ok = not any(e % p for e in cross(img_line, ch.line))
        # plane with normal n is stable iff u^T fixes the normal line
        img_normal = mat_vec(((1, 0, 0), (1, 1, 0), (0, 0, 1)), ch.plane_normal)
        plane_ok = not any(e % p for e in cross(img_normal, ch.plane_normal))
        fixed += line_ok and plane_ok
    depth1 = Fraction(fixed, total)
    # exact fixing implies mod-p fixing, so the empirical fraction is below
    # the depth-1 fraction up to binomial noise
    import math
    sigma = math.sqrt(float(depth1) * (1 - float(depth1)) / 600)
    assert float(frac) <= float(depth1) + 3 * sigma


def test_equicontinuity_set_membership_examples():
    p = 5
    o = standard_vertex(p)
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    y = growth_ray_vertex(o, cert.attracting, 1)
    assert equicontinuity_set_member(GroupElement.from_matrix(identity()), o, y)
    # g^-1 o deep opposite the attracting direction: g = element pushes o
    # toward attracting, so g^-1 o sits in the repelling sector
    assert equicontinuity_set_member(cert.element, o, y)
    # (3, 1, 0) is regular but not on the equal-growth direction
    y_bad = LatticeVertex.from_matrix(p, ((125, 0, 0), (0, 5, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        equicontinuity_set_member(cert.element, o, y_bad)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(p=st.sampled_from((2, 3, 5)), depth=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32))
def test_equicontinuity_set_member_matches_the_residue_search_oracle(p, depth,
                                                                     seed):
    # o is a random vertex with basis M and y a growth-ray vertex toward a
    # harmonic flag at o.  The g are the identity, an SL3(Z) draw, and
    # M k D k^-1 M^-1 for k in SL3(Z) and D diagonal.  Then g^-1 o is
    # M k D^-1 Z^3, so the germ of [o, g^-1 o] is a plane alone for
    # D = diag(p^-2, p, p), a line alone for D = diag(p^-1, p^-1, p^2),
    # and an alcove for regular D.
    rng = make_rng(seed)
    o = random_vertex(p, rng)
    y = growth_ray_vertex(o, harmonic_sample(o, depth, rng), rng.randint(1, 2))
    m, adj_m, det_m = o.matrix, adjugate3(o.matrix), det3(o.matrix)

    def conjugated(d):
        k = random_sl3z(rng)
        h = mat_mul(mat_mul(m, (k * d * k.inverse()).matrix), adj_m)
        return GroupElement.from_matrix(
            tuple(tuple(e / det_m for e in row) for row in h))

    walls = {"plane": conjugated(_diagonal(p, -2, 1)),
             "line": conjugated(_diagonal(p, -1, -1))}
    for kind, g in walls.items():
        line, normal = germ_face(o, o.apply(g.inverse().num))
        assert (line is None, normal is None) == (kind == "plane", kind == "line")
    gs = [GroupElement(identity()), random_sl3z(rng),
          conjugated(_diagonal(p, 1, 0)), conjugated(_diagonal(p, -1, 2))]
    for g in gs + list(walls.values()):
        assert equicontinuity_set_member(g, o, y) == \
            equicontinuity_set_member_oracle(g, o, y)


def test_equicontinuity_check_never_fails_on_admissible_inputs():
    p = 3
    o = standard_vertex(p)
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    gens = [cert.element, cert.conjugate(random_sl3z(random.Random(11))).element]
    words = enumerate_reduced_words(gens, 3)
    probes = [growth_ray_vertex(o, c, 1)
              for c in (cert.attracting, cert.repelling)]
    from sl3building.stochastics import harmonic_sample_in_basis_set
    rng = make_rng(13)
    checked = 0
    for g in words:
        for y in probes:
            if not equicontinuity_set_member(g, o, y):
                continue
            for _ in range(2):
                c = harmonic_sample_in_basis_set(o, y, 4, rng)
                d = harmonic_sample_in_basis_set(o, y, 4, rng)
                assert equicontinuity_check(g, o, y, c, d)
                checked += 1
    assert checked >= 50


def test_equicontinuity_check_identity_and_equal_chambers():
    p = 5
    o = standard_vertex(p)
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    y = growth_ray_vertex(o, cert.attracting, 1)
    gid = GroupElement.from_matrix(identity())
    c = cert.attracting
    assert equicontinuity_check(gid, o, y, c, c)


def test_partition_check_small_cases():
    p = 5
    o = standard_vertex(p)
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    frame = cert.frame
    assert partition_check([], 0, o, frame)  # identity only
    assert partition_check([cert.element], 3, o, frame)
    gens = [cert.element, cert.conjugate(random_sl3z(random.Random(14))).element]
    assert partition_check(gens, 3, o, frame)
