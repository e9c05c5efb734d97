"""SRH certification, north-south limits, limit sets, equicontinuity."""

import contextlib
import functools
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import cycle, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl3building.building import (
    Frame,
    LatticeVertex,
    dominant,
    flag_in_basis,
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
    frame_chamber,
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
    _image_route_readers,
    _apartment_candidate_oracle,
    apartment_candidate_kernel_oracle,
    apartment_chambers_oracle,
    common_depth_ray_oracle,
    contraction_image_oracle,
    det_count_in_box,
    equicontinuity_set_member_oracle,
    flag_route_readers,
    is_opposite_to_apartment_oracle,
    mat_inv3,
    north_south_limit_flag_oracle,
    north_south_limit_image_oracle,
    north_south_outcomes_image_oracle,
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


def test_north_south_limit_refuses_eigenvalues_of_equal_valuation():
    # A certificate record loads without certification; the closed form
    # needs the eigenvalues on the frame lines to have distinct valuations.
    cert = dynamics.SrhCertificate(5, GroupElement(identity()), STD_LINES,
                                   (2, 1, 0))
    c = Flag.from_matrix(((1, 1, 2), (1, 2, 1), (3, 1, 1)))
    with pytest.raises(ValueError):
        north_south_limit(cert, c)


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


def _capture_the_readers(monkeypatch):
    """The (depth, candidate) readers each detector call is given, in call
    order, captured as the detector runs."""
    captured = []
    real_detector = dynamics._stable_apartment_direction

    def detector(depth, candidate, threshold, nmax):
        captured.append((depth, candidate))
        return real_detector(depth, candidate, threshold, nmax)

    monkeypatch.setattr(dynamics, "_stable_apartment_direction", detector)
    return captured


def _assert_depths_of_images(depth, flags, base, threshold):
    """The depth reader at every step n from 2 to the last image is the
    common depth of the images f_(n-1) and f_n."""
    got = [depth(n) for n in range(2, len(flags))]
    assert got == [common_depth(flags[n - 1], flags[n], base, threshold + 1)
                   for n in range(2, len(flags))]
    assert len(set(got)) > 1  # a stale basis would show


def test_north_south_horizon_depths_recomputed_from_the_images(monkeypatch):
    # the earliest candidate is read at n = 4 and confirmed at n >= 10, so
    # a horizon of 8 always runs out
    readers = _capture_the_readers(monkeypatch)
    p, threshold, nmax = 3, 4, 8
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    rng = make_rng(4321)
    for _ in range(3):
        c = harmonic_sample(standard_vertex(p), 4, rng)
        with pytest.raises(HorizonExceededError):
            north_south_limit(cert, c, nmax=nmax, threshold=threshold)
        flags = [c]  # flags[n] = g^n c
        for _ in range(nmax):
            flags.append(flags[-1].apply(cert.element.num))
        _assert_depths_of_images(readers[-1][0], flags,
                                 frame_vertex(cert.frame, cert.p), threshold)


def test_universal_contraction_horizon_depths_recomputed_from_the_images(
        monkeypatch):
    readers = _capture_the_readers(monkeypatch)
    p, threshold, nmax = 5, 4, 8
    cert1, cert2 = schottky_pair(p, make_rng(21))
    c = cert1.repelling
    with pytest.raises(HorizonExceededError):
        universal_contraction(cert1, cert2, c, nmax=nmax, threshold=threshold)
    flags = [c] + [contraction_image_oracle(cert1, cert2, c, n)
                   for n in range(1, nmax + 1)]
    _assert_depths_of_images(readers[-1][0], flags,
                             frame_vertex(cert2.frame, cert2.p), threshold)


def _limit_or_horizon(limit_fn, cert, c, nmax, threshold):
    """("limit", the limit) or ("horizon", None)."""
    try:
        return "limit", limit_fn(cert, c, nmax=nmax, threshold=threshold)
    except HorizonExceededError:
        return "horizon", None


def _outcomes_at_every_horizon(limit_fn, oracle_fn, cert, c, threshold,
                               last=40):
    """The outcomes of limit_fn at every horizon from 0 to last, checked
    against oracle_fn.  Neither detector reads a step past the one that
    confirms its candidate, so the outcome is a horizon below that
    stopping step s and one limit from s on.  limit_fn is asked at every
    horizon; the oracle, which walks every step, at s - 1 and s, or at
    last when nothing stops by then.  That pins s."""
    got = [_limit_or_horizon(limit_fn, cert, c, nmax, threshold)
           for nmax in range(last + 1)]
    stops = [nmax for nmax, (kind, _) in enumerate(got) if kind == "limit"]
    s = stops[0] if stops else last + 1
    assert got[:s] == [("horizon", None)] * s
    assert got[s:] == got[s:s + 1] * (last + 1 - s)
    for nmax in {s - 1, s} & set(range(last + 1)):
        assert got[nmax] == _limit_or_horizon(oracle_fn, cert, c, nmax,
                                              threshold), nmax
    return got


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
    # the flag itself by Flag.apply: the same limit or horizon at every
    # horizon up to 40, which pins the stopping step.  An SL3(Z) conjugate
    # of the standard element keeps the standard base vertex, so one
    # element translates a frame with a base vertex of its own.
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
                    got = _outcomes_at_every_horizon(
                        north_south_limit, north_south_limit_flag_oracle,
                        cert, c, threshold)
                    for nmax in (40, threshold + 3):
                        outcomes.add((got[nmax][0], nmax == 40))
    # (a flag on the apartment is its own limit at any horizon)
    assert {("limit", True), ("horizon", False)} <= outcomes


def test_universal_contraction_matches_the_flag_oracle():
    # The images formed in frame coordinates against moving the flag itself
    # by the group element g2^n g1^n: the same limit or horizon at every
    # horizon up to 40, which pins the stopping step.  Each Schottky pair
    # is also used conjugated by an SL3(Z) element.
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
                    got = _outcomes_at_every_horizon(contract, oracle, cert2,
                                                     c, threshold)
                    for nmax in (40, threshold + 3):
                        outcomes.add((got[nmax][0], nmax == 40))
                    assert got[40] == ("limit", cert2.attracting)
    assert outcomes == {("limit", True), ("horizon", False)}


def _failed_confirmations(reads):
    """How many candidates a confirmation rejected, from the results of the
    detector's candidate reads in call order: a read that finds no
    candidate resets the run, and one that finds a candidate is followed by
    the read at step 2n + 2 that confirms it, when the horizon reaches that
    step."""
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


def _spy_on_the_readers(monkeypatch, depth_log, candidate_log):
    """Wrap the readers the detector is given: each depth read appends its
    step to depth_log, and each candidate read appends (step, result) to
    candidate_log."""
    real_detector = dynamics._stable_apartment_direction

    def detector(depth, candidate, threshold, nmax):
        def logged_depth(n):
            depth_log.append(n)
            return depth(n)

        def logged_candidate(n):
            candidate_log.append((n, candidate(n)))
            return candidate_log[-1][1]

        return real_detector(logged_depth, logged_candidate, threshold, nmax)

    monkeypatch.setattr(dynamics, "_stable_apartment_direction", detector)


def test_failed_confirmation_matches_the_flag_oracle_at_every_horizon(
        monkeypatch):
    # After a rejected candidate the detector resumes from the depth at step
    # 2n + 2, having skipped the steps before it; the oracle walks every
    # step.  Every horizon from 0 to 40 gives the same limit or horizon, so
    # the resumed run and its stopping step are pinned on both sides of the
    # rejection.
    reads = []
    _spy_on_the_readers(monkeypatch, [], reads)
    cert, c = _rejected_candidate_case()
    for threshold in (1, 2, 3):
        for nmax in range(41):
            reads.clear()
            got = _limit_or_horizon(north_south_limit, cert, c, nmax,
                                    threshold)
            assert got == _limit_or_horizon(
                north_south_limit_flag_oracle, cert, c, nmax, threshold), \
                (threshold, nmax)
        assert got[0] == "limit"
        assert _failed_confirmations([r for _, r in reads]) >= 1, threshold


def _bench_cases():
    """The bench's inputs: depth-4 harmonic draws at p = 3 for the standard
    element and an SL3(Z) conjugate, at threshold 4."""
    p = 3
    std = make_srh(STD_LINES, (2, 1, 0), p)
    rng = make_rng(30)
    return [(cert, harmonic_sample(standard_vertex(p), 4, rng), 4)
            for cert in (std, std.conjugate(random_sl3z(random.Random(1))))
            for _ in range(10)]


def test_certified_calls_take_no_depth_on_the_confirmation_leg(monkeypatch):
    # A call that returns reads its candidate at step n and confirms it at
    # step 2n + 2; the steps strictly between decide nothing, so no depth
    # of them is taken and no candidate of them is read.  The readers the
    # detector is given log the step of each read.
    depths, reads = [], []
    _spy_on_the_readers(monkeypatch, depths, reads)
    # the bench's inputs, and a call that returns after a rejection
    cases = _bench_cases() + [_rejected_candidate_case() + (1,)]
    for cert, c, threshold in cases:
        depths.clear()
        reads.clear()
        north_south_limit(cert, c, threshold=threshold)
        candidates = [m for m, _ in reads]
        n, confirm = candidates[-2:]
        assert confirm == 2 * n + 2
        assert not [m for m in candidates + depths if n < m < 2 * n + 2]
        assert max(depths) == n  # and none at 2n + 2
        assert len(depths) == len(set(depths))  # each taken once
        if len(candidates) == 2:
            assert depths == list(range(2, n + 1))
    assert len(candidates) > 2  # the last case resumed after a rejection


def test_north_south_limit_forms_no_image(monkeypatch):
    # The depths and candidates are read off valuations: with the image
    # kernels and the image primitive made to raise, the bench's inputs
    # still certify, to the limits the image oracle finds.
    cases = _bench_cases()
    expected = [north_south_limit_image_oracle(cert, c, threshold=threshold)
                for cert, c, threshold in cases]

    def forbidden(*args):
        raise AssertionError("north_south_limit formed an image")

    for name in ("flag_adapted_columns", "adapted_depth",
                 "_apartment_candidate", "primitive_vector"):
        monkeypatch.setattr(dynamics, name, forbidden)
    assert [north_south_limit(cert, c, threshold=threshold)
            for cert, c, threshold in cases] == expected


def test_rejection_restarts_the_run_after_the_depth_at_2n_plus_2():
    # Scripted depths and candidate reads (threshold 4): the run reaches 3
    # at step 4 and the read at step 10 rejects its candidate.  The depth
    # at 10 is 6 and the next ones are 5, so the run starts again at step
    # 12, not 11, and reaches 3 at step 14, which step 30 confirms.  A run
    # counted from step 11 would read (0, 1, 2) at 13 and 28.  At a
    # horizon of 29 the run stops before step 14, whose confirmation it
    # could not read.
    depths = {n: 6 if n == 10 else 5 for n in range(2, 41)}
    reads = {4: ((0, 1, 2), 5), 10: ((1, 0, 2), 5), 13: ((0, 1, 2), 5),
             14: ((2, 1, 0), 5), 28: ((0, 1, 2), 5), 30: ((2, 1, 0), 5)}
    depth_log, candidate_log = [], []

    def depth(n):
        depth_log.append(n)
        return depths[n]

    def candidate(n):
        candidate_log.append(n)
        return reads.get(n)

    detect = functools.partial(dynamics._stable_apartment_direction,
                               depth, candidate, 4)
    assert detect(40) == (2, 1, 0)
    assert depth_log == [2, 3, 4, 10, 11, 12, 13, 14]
    assert candidate_log == [4, 10, 14, 30]
    depth_log.clear()
    candidate_log.clear()
    with pytest.raises(HorizonExceededError):
        detect(29)
    assert depth_log == [2, 3, 4, 10, 11, 12, 13]
    assert candidate_log == [4, 10]


def test_universal_contraction_images_do_not_depend_on_the_order_asked(
        monkeypatch):
    # The detector asks for the images forward only, but the images are a
    # function of n alone.  Capture the image function the readers are
    # built from and ask for its images out of order.
    images = _capture_the_images(monkeypatch)
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


def _capture_the_images(monkeypatch):
    """The image function each ``universal_contraction`` call builds its
    readers from, in call order; the detector is stubbed out."""
    images = []

    def readers(image, p, threshold):
        images.append(image)
        return None, None

    monkeypatch.setattr(dynamics, "_image_readers", readers)
    monkeypatch.setattr(dynamics, "_stable_apartment_direction",
                        lambda depth, candidate, threshold, nmax: ALL_PERMS[0])
    return images


def _contraction_pairs(p):
    """The Schottky pair of acceptance criterion 4 at p, and the same pair
    conjugated by an SL3(Z) element, so that neither frame is standard."""
    pair = schottky_pair(p, make_rng(404))
    k = random_sl3z(random.Random(p))
    return [pair, tuple(cert.conjugate(k) for cert in pair)]


def test_universal_contraction_images_are_the_moved_flags(monkeypatch):
    # The closed form diag(lambda2^n) M diag(lambda1^n) u and
    # diag(mu2^n) N^T diag(mu1^n) w against the flag moved by the group
    # element g2^n g1^n and written in cert2's frame coordinates, up to
    # sign, for n up to 20.
    images = _capture_the_images(monkeypatch)
    for p in (2, 3, 5):
        rng = make_rng(405, p)
        for cert1, cert2 in _contraction_pairs(p):
            for c in [cert1.repelling] + [harmonic_sample(standard_vertex(p),
                                                          4, rng)
                                          for _ in range(3)]:
                universal_contraction(cert1, cert2, c)
                for n in range(21):
                    moved = contraction_image_oracle(cert1, cert2, c, n)
                    assert tuple(map(primitive_vector, images[-1](n))) == \
                        flag_in_basis(cert2.frame.matrix(), moved)


def test_universal_contraction_readers_match_the_flag_oracle_readers(
        monkeypatch):
    # Every depth and candidate the detector could ask of the contraction,
    # read off the closed-form images, against the flag oracle's, read off
    # the adapted bases of the flags g2^n g1^n c of Q^3 at cert2's base
    # vertex, for steps up to 30.
    readers = _capture_the_readers(monkeypatch)
    for p in (2, 3, 5):
        rng = make_rng(406, p)
        for cert1, cert2 in _contraction_pairs(p):
            base = frame_vertex(cert2.frame, p)
            for c in [cert1.repelling, cert2.attracting] + [
                    harmonic_sample(standard_vertex(p), 4, rng)
                    for _ in range(2)]:
                image = functools.lru_cache(maxsize=None)(functools.partial(
                    contraction_image_oracle, cert1, cert2, c))
                for threshold in (1, 4, 60):
                    with contextlib.suppress(HorizonExceededError):
                        universal_contraction(cert1, cert2, c,
                                              threshold=threshold)
                    depth, candidate = readers[-1]
                    want_depth, want_candidate = flag_route_readers(
                        cert2, image, threshold, base)
                    for n in range(2, 31):
                        assert depth(n) == want_depth(n), (p, threshold, n)
                    for n in range(1, 31):
                        got = candidate(n)
                        if got is not None:
                            got = (frame_chamber(cert2.frame, got[0]), got[1])
                        assert got == want_candidate(n), (p, threshold, n)


def _grid_certificates(p, lam):
    """The standard element of translation lam, two SL3(Z) conjugates, the
    element translating a Schottky partner's frame, and one translating a
    frame off the standard lattice."""
    std = make_srh(STD_LINES, lam, p)
    partner = schottky_pair(p, make_rng(77, p))[1]
    return [std, std.conjugate(random_sl3z(random.Random(31))),
            std.conjugate(random_sl3z(random.Random(32))),
            make_srh(partner.lines, lam, p),
            make_srh(_lines_off_the_standard_lattice(p, random.Random(p)),
                     lam, p)]


def test_valuation_readers_match_the_image_readers():
    # Every depth and every candidate the detector could ask for, read off
    # valuations against the same read off the formed images by
    # flag_adapted_columns, adapted_depth and _apartment_candidate: five
    # certificates per (p, lam), two flags each, one drawn at depth 1 so
    # that zero entries occur, and steps up to 40; up to 10 for the
    # translation (2001, 3, 0), whose images have tens of thousands of
    # digits and whose depths all reach the cap.  The readers are also fed
    # the line and normal scaled to (s p^a line, t p^b normal), s and t
    # units and a, b in {0, 1, 3}, nine of the 81 scalings per threshold in
    # turn, and must read the same at every step up to 40: the scale
    # invariance north_south_limit relies on when it passes the images of
    # c under the frame's adjugate and lines unreduced.
    zero_entries = set()
    for p in (2, 3, 5, 7):
        rng = make_rng(91, p)
        x = standard_vertex(p)
        units = (1, -1, 7 if p != 7 else 11)
        scalings = cycle(product(units, (0, 1, 3), units, (0, 1, 3)))
        for lam in ((2, 1, 0), (4, 2, 0), (5, 1, 0), (20, 1, 0), (2001, 3, 0)):
            steps = 10 if lam[0] > 100 else 40
            for cert in _grid_certificates(p, lam):
                for depth in (1, 4):
                    c = harmonic_sample(x, depth, rng)
                    line, normal = flag_in_basis(cert.frame.matrix(), c)
                    zero_entries.add((line.count(0), normal.count(0)))
                    for threshold in (0, 2, 60):
                        got = dynamics._valuation_readers(cert, line, normal,
                                                          threshold)
                        want = _image_route_readers(cert, line, normal,
                                                    threshold)
                        for n in range(2, steps + 1):
                            assert got[0](n) == want[0](n), (p, lam, n)
                        for n in range(1, steps + 1):
                            assert got[1](n) == want[1](n), (p, lam, n)
                        for _ in range(9):
                            s, a, t, b = scale = next(scalings)
                            moved = dynamics._valuation_readers(
                                cert, tuple(s * p ** a * e for e in line),
                                tuple(t * p ** b * e for e in normal), threshold)
                            for n in range(2, 41):
                                assert moved[0](n) == got[0](n), (p, lam, scale, n)
                            for n in range(1, 41):
                                assert moved[1](n) == got[1](n), (p, lam, scale, n)
    assert {(0, 0), (1, 0), (0, 1), (1, 1)} <= zero_entries


def test_north_south_limit_matches_the_image_oracle_at_every_horizon():
    # The limit or the horizon at every horizon from 0 to 80,
    # against the image route: p in {2, 3, 5, 7}, five translations, five
    # certificates each, thresholds from 0 to 60 and one flag per
    # certificate, 56,700 outcomes.
    horizons = range(81)
    outcomes = Counter()
    for p in (2, 3, 5, 7):
        rng = make_rng(92, p)
        x = standard_vertex(p)
        for lam in ((2, 1, 0), (4, 2, 0), (5, 1, 0), (7, 2, 0), (20, 1, 0)):
            for ci, cert in enumerate(_grid_certificates(p, lam)):
                c = harmonic_sample(x, (2, 4, 7)[ci % 3], rng)
                for threshold in (0, 1, 2, 3, 4, 6, 60):
                    want = north_south_outcomes_image_oracle(cert, c, threshold,
                                                             horizons)
                    for nmax in horizons:
                        got = _limit_or_horizon(north_south_limit, cert, c,
                                                nmax, threshold)
                        assert got == want[nmax], (p, lam, ci, threshold, nmax)
                        outcomes[got[0]] += 1
    assert sum(outcomes.values()) == 56_700
    assert outcomes["limit"] > 10_000 and outcomes["horizon"] > 10_000


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
