"""Harmonic sampling, counting, walks and strips."""

import itertools
import json
import math
import random
from fractions import Fraction
from functools import lru_cache, reduce

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from sl3building import stochastics
from sl3building.building import (
    LatticeVertex,
    ResidueChamber,
    is_regular,
    random_vertex,
    standard_vertex,
    vector_distance,
)
from sl3building.boundary import (
    Flag,
    NotOppositeError,
    growth_ray_vertex,
    is_opposite,
    sector_membership,
)
from sl3building.dynamics import (
    GroupElement,
    make_srh,
    random_sl3z,
    schottky_pair,
)
from sl3building.padic_linalg import (
    adjugate3,
    det3,
    identity,
    mat_mul,
    mul_strip,
    residue_germ_parts,
    strip_p_content,
    valuation_int,
)
from sl3building.rng import derive_seed, make_rng
from sl3building.stochastics import (
    EventEstimate,
    InsufficientConvergenceError,
    WalkConfig,
    a2_ball_count,
    convergence_report,
    count_at_vector_distance,
    direction_estimate,
    estimates_agree,
    harmonic_sample,
    harmonic_sample_in_basis_set,
    run_walk,
    stationary_estimate,
    strip_growth,
    within_three_sigma,
)
from sl3building.serialize import to_obj
from oracles import (
    basis_set_event_oracle,
    basis_set_mass_lattice_oracle,
    count_enumeration_oracle,
    direction_estimate_oracle,
    flag_matrix,
    harmonic_sample_in_basis_set_oracle,
    harmonic_sample_oracle,
    random_stabilizer_matrices_oracle,
    random_stabilizer_matrix_oracle,
    run_walk_oracle,
    run_walk_product_oracle,
    sector_shape_matrix_oracle,
    strip_counts_oracle,
)

STD_LINES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@lru_cache(maxsize=None)
def schottky_generators(p, seed):
    cert1, cert2 = schottky_pair(p, make_rng(seed, 0xC0))
    gens = (cert1.element, cert1.element.inverse(),
            cert2.element, cert2.element.inverse())
    return gens, (Fraction(1, 4),) * 4


def test_harmonic_sample_produces_canonical_flags():
    p = 2
    x = standard_vertex(p)
    rng = make_rng(1)
    for _ in range(20):
        f = harmonic_sample(x, 3, rng)
        assert isinstance(f, Flag)
        assert Flag.from_matrix(flag_matrix(f)) == f


@settings(derandomize=True, max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), depth=st.integers(1, 5))
def test_harmonic_sample_matches_the_full_product_oracle(seed, depth):
    # the flag from two columns of x.matrix k is the flag of the whole
    # product, on one shared stream, at vertices of all three types
    for p in (2, 3, 5):
        base = random_vertex(p, make_rng(seed, p))
        vertices = [standard_vertex(p)] + [
            LatticeVertex.from_matrix(p, mat_mul(base.matrix, ((p ** t, 0, 0),
                                                               (0, 1, 0),
                                                               (0, 0, 1))))
            for t in range(3)]
        assert {x.vertex_type for x in vertices[1:]} == {0, 1, 2}
        fast, slow = make_rng(seed, p, depth), make_rng(seed, p, depth)
        for x in vertices:
            for _ in range(4):
                assert harmonic_sample(x, depth, fast) == \
                    harmonic_sample_oracle(x, depth, slow), (p, x)
        assert fast.getstate() == slow.getstate()


@settings(derandomize=True, max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1))
def test_conditioned_sample_matches_the_full_product_oracle(seed):
    # the flag from two columns of x.matrix P k is the flag of the whole
    # product, on one shared stream, for basis sets of every exponent shape
    rng = make_rng(seed)
    for p in (2, 3, 5):
        x = random_vertex(p, rng)
        for y in [random_vertex(p, rng) for _ in range(3)] + [x]:
            depth = vector_distance(x, y)[0] + 1 + rng.randrange(3)
            fast, slow = make_rng(seed, p, depth), make_rng(seed, p, depth)
            for _ in range(4):
                assert harmonic_sample_in_basis_set(x, y, depth, fast) == \
                    harmonic_sample_in_basis_set_oracle(x, y, depth, slow), (p, x, y)
            assert fast.getstate() == slow.getstate()


def test_count_at_vector_distance_examples():
    x2 = standard_vertex(2)
    assert count_at_vector_distance(x2, (0, 0, 0)) == 1
    # vertices at (1,1,0) correspond to lines of F_2^3, and (1,0,0) to planes
    assert count_at_vector_distance(x2, (1, 1, 0)) == 7
    assert count_at_vector_distance(x2, (1, 0, 0)) == 7
    x3 = standard_vertex(3)
    assert count_at_vector_distance(x3, (1, 1, 0)) == 13
    assert count_at_vector_distance(x3, (1, 0, 0)) == 13


# Every shape the enumeration oracle finishes in about a second or less: all
# dominant (a1, a2, 0) with a1 + a2 up to this bound.
ORACLE_COUNT_DEGREE = {2: 6, 3: 4, 5: 3}


def test_count_matches_the_enumeration_oracle_and_duality():
    for p, degree in ORACLE_COUNT_DEGREE.items():
        x = standard_vertex(p)
        for a1 in range(degree + 1):
            for a2 in range(min(a1, degree - a1) + 1):
                assert count_at_vector_distance(x, (a1, a2, 0)) == \
                    count_enumeration_oracle(x, (a1, a2, 0)), (p, a1, a2)
    # the opposition involution swaps (a1, a2, 0) with (a1, a1 - a2, 0)
    for p in (2, 3, 5, 7):
        x = standard_vertex(p)
        for a1 in range(12):
            for a2 in range(a1 + 1):
                assert count_at_vector_distance(x, (a1, a2, 0)) == \
                    count_at_vector_distance(x, (a1, a1 - a2, 0))
    # any order of lam is read through its dominant form
    assert count_at_vector_distance(standard_vertex(3), (0, 1, 2)) == 156


MASS_SHAPES = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0),
               (3, 3, 0), (4, 2, 0))


def _boundary_stabilizer_matrices(p, lam):
    """Determinant-one k = L U with one lower entry of L at, or below, each of
    the three divisibility thresholds p^a2 | k10, p^a1 | k20, p^(a1-a2) | k21."""
    a1, a2, _ = lam
    out = []
    for (i, j), need in (((1, 0), a2), ((2, 0), a1), ((2, 1), a1 - a2)):
        for e in range(need + 1):
            for u in (0, 1, p + 1):
                low = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
                low[i][j] = p ** e
                out.append(mat_mul(low, ((1, u, 2 * u), (0, 1, u), (0, 0, 1))))
    return out


class _ScriptedBits:
    """An rng whose getrandbits returns the scripted values in order and
    records the bit widths asked for."""

    def __init__(self, values):
        self._values = iter(values)
        self.widths = []

    def getrandbits(self, k):
        self.widths.append(k)
        return next(self._values)


def _word_block(entries, q):
    """getrandbits(32 n) of the n words whose draws below q < 256 are the
    entries: each entry in the top k = q.bit_length() bits of its word."""
    shift = 8 - q.bit_length()
    return int.from_bytes(b"".join(bytes((0, 0, 0, e << shift)) for e in entries),
                          "little")


def _scripted_draws(k, p, depth):
    """An rng whose getrandbits draws the entries of k, reduced mod p^depth,
    as the mass estimate of one trial asks for them: one block of nine
    words whose top bytes hold the entries on the byte path, nine single
    draws otherwise."""
    q = p ** depth
    entries = [e % q for row in k for e in row]
    if q >= 256 or p > 13:
        return _ScriptedBits(entries), [q.bit_length()] * 9
    return _ScriptedBits([_word_block(entries, q)]), [32 * 9]


def test_basis_set_event_matches_the_lattice_oracle():
    # The estimate decides each draw k by three divisibility tests; the
    # oracle by whether adj(k) d_y has an ascending diagonal canonical form.
    # Feed the estimate one k at a time, as the words of one trial, through
    # its byte lanes or its per-draw test: boundary matrices, draws from
    # the subgroup that keeps the sector (all hits) and plain stabilizer
    # draws.  The event is measurable mod p^depth, so k is reduced there.
    draws = 0
    hits = 0
    for p in (2, 3, 5):
        x = standard_vertex(p)
        for lam in MASS_SHAPES:
            depth = lam[0] + lam[1] + 1
            q = p ** depth
            rng = make_rng(31, p, lam[0], lam[1])
            ks = _boundary_stabilizer_matrices(p, lam)
            ks += [stochastics._random_stabilizer_matrix(p, depth, lam[::-1], rng)
                   for _ in range(150)]
            ks += [stochastics._random_stabilizer_matrix(p, depth, (0, 0, 0), rng)
                   for _ in range(1000)]
            for k in ks:
                scripted, widths = _scripted_draws(k, p, depth)
                got = stochastics.basis_set_mass_estimate(x, lam, 1, scripted)
                assert scripted.widths == widths, (p, lam, k)
                want = basis_set_event_oracle(
                    tuple(tuple(e % q for e in row) for row in k), lam, p)
                assert got == want, (p, lam, k)
                hits += want
            draws += len(ks)
            # and on one shared stream the two estimates agree exactly
            assert stochastics.basis_set_mass_estimate(
                x, lam, 500, make_rng(32, p, lam[0])) == \
                basis_set_mass_lattice_oracle(x, lam, 500, make_rng(32, p, lam[0]))
    assert draws >= 20_000 and 0 < hits < draws


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1))
def test_stabilizer_draws_match_the_randrange_oracle(seed):
    # p = 2 makes q a power of two, where half of all raw draws are rejected
    for p in (2, 3, 5, 7):
        for depth in range(1, 6):
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(50):
                assert stochastics._random_stabilizer_matrix(
                    p, depth, (0, 0, 0), fast) == \
                    random_stabilizer_matrix_oracle(p, depth, slow), (p, depth)
            assert fast.getstate() == slow.getstate(), (p, depth)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1))
def test_gapped_stabilizer_draws_match_the_randrange_oracle(seed):
    # an entry with a positive gap is drawn below a smaller power of p, so
    # its k bits differ from the other entries'
    for exps in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2), (0, 2, 3)):
        for p in (2, 3, 5, 7):
            for depth in range(exps[2] + 1, exps[2] + 4):
                fast, slow = random.Random(seed), random.Random(seed)
                for _ in range(20):
                    assert stochastics._random_stabilizer_matrix(
                        p, depth, exps, fast) == \
                        sector_shape_matrix_oracle(p, depth, exps, slow), \
                        (p, depth, exps)
                assert fast.getstate() == slow.getstate(), (p, depth, exps)


class _CountingRandom(random.Random):
    """A Mersenne Twister that records the bit widths asked of getrandbits."""

    def __init__(self, seed):
        self.widths = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


# q = p^depth on both sides of 256, where the byte lanes hand over to
# single draws: 2^1..2^9, 3^1..3^6, 5^1..5^4, 7^1..7^3, 11^1..11^2 and
# 13^1..13^2; and p = 17, 251 and 257 at depth 1, where p > 13 takes the
# single draws whatever q is
BATCH_CELLS = tuple((p, depth) for p, top in ((2, 9), (3, 6), (5, 4), (7, 3),
                                              (11, 2), (13, 2), (17, 1),
                                              (251, 1), (257, 1))
                    for depth in range(1, top + 1))


def _event_divisors(p):
    """(p^a2, p^a1, p^(a1 - a2)) of every shape of MASS_SHAPES."""
    return sorted({(p ** a2, p ** a1, p ** (a1 - a2)) for a1, a2, _ in MASS_SHAPES})


def _is_hit(k, divisors):
    m10, m20, m21 = divisors
    return k[1][0] % m10 == 0 and k[2][0] % m20 == 0 and k[2][1] % m21 == 0


# No shrinking: one example takes about a second, and shrinking the seed
# over many full examples delays a failure's report by minutes.
@settings(derandomize=True, max_examples=3, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2 ** 64 - 1))
def test_stabilizer_batches_match_the_randrange_oracle(seed):
    for p, depth in BATCH_CELLS:
        for count in (1, 2, 9, 1000):
            slow = random.Random(seed)
            ks = [random_stabilizer_matrix_oracle(p, depth, slow)
                  for _ in range(count)]
            blocks = _CountingRandom(seed)
            assert list(random_stabilizer_matrices_oracle(
                p, depth, blocks, count)) == ks
            for divisors in _event_divisors(p):
                fast = _CountingRandom(seed)
                got = stochastics._stabilizer_hit_count(
                    p, depth, divisors, fast, count)
                assert got == sum(_is_hit(k, divisors) for k in ks), \
                    (p, depth, count, divisors)
                assert fast.getstate() == slow.getstate(), (p, depth, count)
            if p ** depth < 256 and p <= 13:
                # the lanes take the rounds of the per-candidate loop
                assert fast.widths == blocks.widths, (p, depth, count)
                assert all(k % 32 == 0 for k in fast.widths)
                # 1000 matrices need at least 9,000 words: several full rounds
                full = fast.widths.count(32 * stochastics._WORD_BLOCK)
                assert full >= 2 or count < 1000, (p, depth)


def test_stabilizer_batches_of_none_draw_nothing():
    for p, depth in ((2, 3), (257, 1)):
        rng = make_rng(5)
        state = rng.getstate()
        assert stochastics._stabilizer_hit_count(p, depth, (1, 1, 1), rng, 0) == 0
        assert rng.getstate() == state


def test_stabilizer_batches_reject_depth_below_one_before_drawing():
    rng = make_rng(3)
    state = rng.getstate()
    for depth in (0, -1):
        with pytest.raises(ValueError):
            stochastics._stabilizer_hit_count(2, depth, (1, 1, 1), rng, 5)
    assert rng.getstate() == state


def test_stabilizer_lanes_accept_exactly_gl3(monkeypatch):
    # Every matrix over F_p, in one round of 9 p^9 words whose top bytes
    # hold the entries: the lanes accept |GL3(F_p)| of them and leave
    # p^9 - |GL3(F_p)| trials for a second round, which is fed identity
    # matrices, all hits.  The first round's hits are those of the
    # per-matrix predicate on the matrices with a unit determinant.
    ident = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    for p, units in ((2, 168), (3, 11_232)):
        matrices = list(itertools.product(range(p), repeat=9))
        total = len(matrices)
        monkeypatch.setattr(stochastics, "_WORD_BLOCK", 9 * total)
        first = _word_block([e for m in matrices for e in m], p)
        rest = total - units
        again = _word_block(ident * rest, p)
        for divisors in itertools.product((1, p), repeat=3):
            rng = _ScriptedBits([first, again])
            got = stochastics._stabilizer_hit_count(p, 1, divisors, rng, total)
            assert rng.widths == [32 * 9 * total, 32 * 9 * rest], p
            want = sum(_is_hit((m[0:3], m[3:6], m[6:9]), divisors)
                       for m in matrices
                       if det3((m[0:3], m[3:6], m[6:9])) % p)
            assert got == want + rest, (p, divisors)
        assert units == (p**3 - 1) * (p**3 - p) * (p**3 - p**2)


def test_mass_estimate_leaves_the_stream_where_the_draws_do():
    # the batch path must not draw past the last matrix of the estimate
    for p, lam in ((2, (1, 0, 0)), (2, (2, 1, 0)), (3, (1, 1, 0)), (3, (3, 2, 0))):
        depth = lam[0] + lam[1] + 1
        fast, slow = make_rng(11, p), make_rng(11, p)
        stochastics.basis_set_mass_estimate(standard_vertex(p), lam, 777, fast)
        for _ in range(777):
            random_stabilizer_matrix_oracle(p, depth, slow)
        assert fast.getstate() == slow.getstate(), (p, lam)


def test_stabilizer_draw_rejects_depth_below_one_before_drawing():
    rng = make_rng(3)
    state = rng.getstate()
    # a gapped draw needs depth above the exponent range
    for depth in (1, 2):
        with pytest.raises(ValueError):
            stochastics._random_stabilizer_matrix(2, depth, (0, 1, 2), rng)
    for depth in (-1, 0):
        with pytest.raises(ValueError):
            stochastics._random_stabilizer_matrix(2, depth, (0, 0, 0), rng)
    assert rng.getstate() == state


def test_stabilizer_unit_test_accepts_exactly_gl3():
    # Each matrix over F_p is offered as the first depth-1 draw, then the
    # identity: the sampler accepts the offered matrix iff it stops after
    # nine draws.  |GL3(F_p)| / p^9 is the per-matrix acceptance chance.
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ident_entries = sum(ident, ())
    for p, units in ((2, 168), (3, 11_232)):
        accepted = 0
        for m in itertools.product(range(p), repeat=9):
            rng = _ScriptedBits(m + ident_entries)
            got = stochastics._random_stabilizer_matrix(p, 1, (0, 0, 0), rng)
            assert set(rng.widths) == {p.bit_length()}
            if len(rng.widths) == 9:
                assert got == (m[0:3], m[3:6], m[6:9])
                accepted += 1
            else:
                assert got == ident
        assert accepted == units == (p**3 - 1) * (p**3 - p) * (p**3 - p**2)


@pytest.mark.parametrize("exps", [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2)])
def test_sector_shape_unit_test_accepts_exactly_the_block_units(exps):
    # Each residue pattern over F_p of the entries not forced into pZ is
    # offered as the first draw, then the identity: the sampler accepts the
    # offered matrix iff it stops after nine draws.  The product over the
    # blocks of equal exponents of |GL_k(F_p)| / p^(k^2) is the per-matrix
    # acceptance chance.
    depth = exps[2] + 1
    gaps = [max(0, exps[i] - exps[j]) for i in range(3) for j in range(3)]
    free = [k for k in range(9) if gaps[k] == 0]
    ident = sum(identity(), ())
    blocks = [exps.count(e) for e in sorted(set(exps))]
    for p in (2, 3):
        accepted = 0
        for pattern in itertools.product(range(p), repeat=len(free)):
            first = [1] * 9  # a forced entry is p^gap whatever is drawn
            for k, r in zip(free, pattern):
                first[k] = r
            rng = _ScriptedBits(first + list(ident))
            got = stochastics._random_stabilizer_matrix(p, depth, exps, rng)
            assert rng.widths[:9] == [(p ** (depth - g)).bit_length() for g in gaps]
            if len(rng.widths) == 9:
                entries = [e * p ** g for e, g in zip(first, gaps)]
                assert got == tuple(tuple(entries[3 * i:3 * i + 3])
                                    for i in range(3))
                accepted += 1
            else:
                assert got == identity()
        units = math.prod(math.prod(p ** k - p ** i for i in range(k))
                          for k in blocks)
        assert accepted == units * p ** (len(free) - sum(k * k for k in blocks))
        assert 8 * accepted >= p ** len(free)


def test_basis_set_mass_estimate_rejects_fewer_than_one_trial():
    x = standard_vertex(2)
    rng = make_rng(4)
    state = rng.getstate()
    for trials in (0, -3):
        with pytest.raises(ValueError):
            stochastics.basis_set_mass_estimate(x, (1, 0, 0), trials, rng)
    assert rng.getstate() == state


# Estimates at 2,000 trials on the criterion-2 streams, with the next
# rng.random() after each, as recorded with the randrange sampler.
MASS_GOLDEN = {
    (2, (1, 0, 0)): (Fraction(31, 250), 0.19009700043875677),
    (2, (1, 1, 0)): (Fraction(281, 2000), 0.5792586748385476),
    (2, (2, 1, 0)): (Fraction(11, 500), 0.6091859226662136),
    (3, (1, 0, 0)): (Fraction(191, 2000), 0.524754967793343),
    (3, (1, 1, 0)): (Fraction(39, 500), 0.6664289346122841),
    (3, (2, 1, 0)): (Fraction(1, 250), 0.18551845210892526),
}


def test_basis_set_mass_estimate_matches_its_recorded_values():
    for (p, lam), (mass, after) in MASS_GOLDEN.items():
        rng = make_rng(2024, p, lam[0], lam[1])
        assert stochastics.basis_set_mass_estimate(
            standard_vertex(p), lam, 2000, rng) == mass, (p, lam)
        assert rng.random() == after, (p, lam)


def test_harmonic_mass_law_small_scale():
    """Empirical mass of U_x(y) within 3 sigma of 1/N at 4000 samples."""
    trials = 4000
    for p, lam in ((2, (1, 1, 0)), (3, (1, 0, 0)), (2, (2, 1, 0))):
        x = standard_vertex(p)
        n = count_at_vector_distance(x, lam)
        y = LatticeVertex.from_matrix(
            p, ((1, 0, 0), (0, p ** lam[1], 0), (0, 0, p ** lam[0])))
        rng = make_rng(5, p, lam[0])
        hits = 0
        for _ in range(trials):
            c = harmonic_sample(x, lam[0] + 2, rng)
            hits += sector_membership(x, c, y)
        emp = hits / trials
        target = 1 / n
        sigma = math.sqrt(target * (1 - target) / trials)
        assert abs(emp - target) <= 3 * sigma, (p, lam, emp, target)


def test_opposite_fraction_dominates_depth_one_mass():
    p = 2
    x = standard_vertex(p)
    c0 = Flag.standard()
    rng = make_rng(9)
    trials = 2000
    hits = sum(is_opposite(harmonic_sample(x, 6, rng), c0) for _ in range(trials))
    exact_depth1 = p ** 3 / ((p * p + p + 1) * (p + 1))
    sigma = math.sqrt(exact_depth1 * (1 - exact_depth1) / trials)
    assert hits / trials >= exact_depth1 - 3 * sigma
    # and at depth 6 the failure probability is tiny
    assert hits / trials >= 0.9


def test_base_point_absolute_continuity_proxy():
    """Events with positive mass from one base point have positive mass from
    another of the same type."""
    p = 2
    x = standard_vertex(p)
    x2 = LatticeVertex.from_matrix(p, ((2, 1, 0), (0, 2, 1), (0, 0, 2)))
    assert x2.vertex_type == 0
    y = growth_ray_vertex(x, Flag.standard(), 1)
    rng = make_rng(11)
    trials = 1500
    hits1 = sum(sector_membership(x, harmonic_sample(x, 4, rng), y)
                for _ in range(trials))
    hits2 = sum(sector_membership(x, harmonic_sample(x2, 4, rng), y)
                for _ in range(trials))
    assert hits1 > 0 and hits2 > 0


def test_conditioned_sampler_stays_in_the_basis_set():
    p = 3
    x = standard_vertex(p)
    for t in (1, 2):
        y = growth_ray_vertex(x, Flag.standard(), t)
        rng = make_rng(13, t)
        for _ in range(50):
            c = harmonic_sample_in_basis_set(x, y, 2 * t + 2, rng)
            assert sector_membership(x, c, y)
    # random pairs at the least admissible depth theta_1 + 1
    rng = make_rng(17)
    for p in (2, 3, 5, 7):
        for _ in range(25):
            x, y = random_vertex(p, rng), random_vertex(p, rng)
            depth = vector_distance(x, y)[0] + 1
            for _ in range(8):
                c = harmonic_sample_in_basis_set(x, y, depth, rng)
                assert sector_membership(x, c, y)


def test_conditioned_sampler_depth_guard():
    p = 3
    x = standard_vertex(p)
    y = growth_ray_vertex(x, Flag.standard(), 2)
    with pytest.raises(ValueError):
        harmonic_sample_in_basis_set(x, y, 3, make_rng(1))


def test_harmonic_sample_rejects_depth_zero():
    # modulo p^0 no unit exists, so the draw loop could never end
    with pytest.raises(ValueError):
        harmonic_sample(standard_vertex(3), 0, make_rng(1))


def test_walk_config_validation():
    p = 3
    x = standard_vertex(p)
    g = GroupElement.from_matrix(identity())
    with pytest.raises(ValueError):
        WalkConfig(p, (), (), 5, 1, x)
    with pytest.raises(ValueError):
        WalkConfig(p, (g,), (Fraction(1, 2),), 5, 1, x)
    with pytest.raises(ValueError):
        WalkConfig(p, (g, g), (Fraction(3, 2), Fraction(-1, 2)), 5, 1, x)
    with pytest.raises(ValueError):
        WalkConfig(p, (g, g), (Fraction(3, 4), Fraction(1, 2)), 5, 1, x)
    # steps is an int >= 0: a negative count would give a one-record trace
    # and a fractional one a TypeError inside run_walk
    for steps in (-3, -1, 2.5, 3.0, True, "5", None):
        with pytest.raises(ValueError):
            WalkConfig(p, (g,), (Fraction(1),), steps, 1, x)
    assert len(run_walk(WalkConfig(p, (g,), (Fraction(1),), 2, 1, x)).steps) == 3


def test_deterministic_srh_walk():
    p = 3
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    cfg = WalkConfig(p, (cert.element,), (Fraction(1),), 10, 99, standard_vertex(p))
    trace = run_walk(cfg)
    assert trace.steps[0].theta == (0, 0, 0)
    assert trace.steps[4].theta == (8, 4, 0)  # linear growth at slope lam
    ok, n1, germ = convergence_report(trace)
    assert ok and n1 <= 2
    assert germ is not None


def test_zero_step_walk():
    p = 3
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    cfg = WalkConfig(p, (cert.element,), (Fraction(1),), 0, 7, standard_vertex(p))
    trace = run_walk(cfg)
    assert len(trace.steps) == 1 and trace.steps[0].theta == (0, 0, 0)
    assert not convergence_report(trace)[0]


def test_identity_walk_never_converges():
    p = 3
    g = GroupElement.from_matrix(identity())
    cfg = WalkConfig(p, (g,), (Fraction(1),), 30, 3, standard_vertex(p))
    trace = run_walk(cfg)
    ok, _, _ = convergence_report(trace)
    assert not ok  # the type is never regular


def test_walk_reproducibility_bit_for_bit():
    p = 3
    gens, weights = schottky_generators(p, 42)
    cfg = WalkConfig(p, gens, weights, 60, 1234, standard_vertex(p))
    t1 = run_walk(cfg)
    t2 = run_walk(cfg)
    assert json.dumps(to_obj(t1), sort_keys=True) == \
        json.dumps(to_obj(t2), sort_keys=True)
    cfg2 = WalkConfig(p, gens, weights, 60, 1235, standard_vertex(p))
    assert json.dumps(to_obj(run_walk(cfg2)), sort_keys=True) != \
        json.dumps(to_obj(t1), sort_keys=True)


def test_walk_steps_match_the_exact_relative_position(monkeypatch):
    # The walk holds its position in base-vertex coordinates, a matrix of
    # content 1 proportional to adj(B) z B, and reads theta and the germ off
    # it reduced mod p^(floor(D/2)+1), with D its running determinant
    # valuation.  Replay each word exactly, from base vertices of every type
    # with det B divisible by p, and check every step against the exact,
    # unreduced matrix.  A step whose letter inverts the last letter of the
    # reduced word (the generators are two inverse pairs) reuses a record
    # and calls no germ kernel; step 0 and every other step call it once.
    # Check that the matrix each of those handed to residue_germ_parts is
    # u times the exact matrix mod p^(floor(D/2)+1), entry by entry in
    # [0, p^(floor(D/2)+1)), with u a p-adic unit and D the exact matrix's
    # own determinant valuation.  A running valuation that is off in either
    # direction fails the theta check, and the modulus check too unless it
    # keeps floor(D/2).
    reduced = []

    def spy(m, p):
        reduced.append(m)
        return real_germ_parts(m, p)

    real_germ_parts = stochastics.residue_germ_parts
    monkeypatch.setattr(stochastics, "residue_germ_parts", spy)
    p = 3
    gens, weights = schottky_generators(p, 42)
    inverse_letter = {0: 1, 1: 0, 2: 3, 3: 2}
    assert any(g.den % p == 0 for g in gens)
    bases = [LatticeVertex.from_matrix(p, m) for m in (
        ((3, 1, 0), (0, 3, 1), (0, 0, 3)),  # criterion 9's x2, type 0
        ((3, 2, 1), (0, 1, 0), (0, 0, 1)),  # type 1
        ((9, 4, 7), (0, 3, 2), (0, 0, 9)),  # type 2
    )]
    assert sorted(x.vertex_type for x in bases) == [0, 1, 2]
    p_content_grew = 0
    pops = 0
    for bi, x in enumerate(bases):
        b = x.matrix
        for seed in range(3):
            reduced.clear()
            trace = run_walk(WalkConfig(p, gens, weights, 40, 100 * bi + seed, x))
            word = []
            kernel_steps = [trace.steps[0]]
            for step in trace.steps[1:]:
                if word and inverse_letter[word[-1]] == step.letter:
                    word.pop()
                    pops += 1
                else:
                    word.append(step.letter)
                    kernel_steps.append(step)
            assert len(reduced) == len(kernel_steps)
            seen_at = {step.n: seen for step, seen in zip(kernel_steps, reduced)}
            prod = identity()
            prev_content = 0
            for step in trace.steps:
                if step.letter >= 0:
                    prod = mat_mul(prod, gens[step.letter].num)
                g = reduce(math.gcd, (e for row in prod for e in row))
                p_content_grew += valuation_int(g, p) > prev_content
                prev_content = valuation_int(g, p)
                z = tuple(tuple(e // g for e in row) for row in prod)
                assert step.theta == vector_distance(
                    x, LatticeVertex.from_matrix(p, mat_mul(z, b)))
                rel_int, _ = strip_p_content(
                    mat_mul(mat_mul(adjugate3(b), z), b), p)
                germ = None
                if is_regular(step.theta):
                    _, line, normal = residue_germ_parts(rel_int, p)
                    if line is not None and normal is not None:
                        germ = ResidueChamber.from_parts(p, line, normal)
                assert step.germ == germ
                if step.n not in seen_at:
                    continue
                seen = seen_at[step.n]
                q = p ** (valuation_int(det3(rel_int), p) // 2 + 1)
                i, j = next((i, j) for i in range(3) for j in range(3)
                            if rel_int[i][j] % p)
                u = seen[i][j] * pow(rel_int[i][j], -1, q) % q
                assert u % p
                assert seen == tuple(tuple(u * e % q for e in row)
                                     for row in rel_int)
    assert p_content_grew > 0  # some step strips a gcd divisible by p
    assert pops > 0


def test_mul_strip_seeded_with_the_determinant_equals_the_plain_gcd():
    # m G adj(G) = det(G) m, so for m of content 1 the content of m G
    # divides |det G|, and seeding the gcd with it changes nothing.  Half the
    # m are built from adj(G) so that m G has a large content.
    rng = random.Random(19)
    contents = set()
    for _ in range(400):
        bits = rng.choice((3, 40, 1000))
        while True:
            g = tuple(tuple(rng.randint(-2 ** bits, 2 ** bits) * rng.choice((1, 2, 9))
                            for _ in range(3)) for _ in range(3))
            if det3(g):
                break
        r = tuple(tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3))
        m = mat_mul(r, adjugate3(g)) if rng.random() < 0.5 else r
        k = math.gcd(*(e for row in m for e in row))
        if not k:
            continue
        m = tuple(tuple(e // k for e in row) for row in m)
        plain = mul_strip(m, g, 0)
        assert mul_strip(m, g, abs(det3(g))) == plain
        contents.add(plain[1] > 1)
    assert contents == {False, True}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_walk_matches_the_product_coordinate_oracle(p):
    # Whole traces, steps and final vertex, against the walk in the
    # coordinates of the letters' product, from the standard vertex and from
    # non-standard base vertices of all three types.
    gens, weights = schottky_generators(p, 42)
    assert any(g.den % p == 0 for g in gens)
    bases = [standard_vertex(p)] + [LatticeVertex.from_matrix(p, m) for m in (
        ((p, 1, 0), (0, p, 1), (0, 0, p)),
        ((p, 1, 1), (0, 1, 0), (0, 0, 1)),
        ((p, 1, 0), (0, p, 1), (0, 0, 1)),
    )]
    assert [x.vertex_type for x in bases] == [0, 0, 1, 2]
    regular = 0
    for bi, x in enumerate(bases):
        for seed in range(2):
            cfg = WalkConfig(p, gens, weights, 40, 10 * bi + seed, x)
            trace = run_walk(cfg)
            assert trace == run_walk_product_oracle(cfg)
            regular += sum(s.germ is not None for s in trace.steps)
    assert regular > 0


def _walk_generator_set(p, kind):
    """A generator set of one of the shapes the reduced word must handle."""
    (g, g_inv, h, h_inv), _ = schottky_generators(p, 42)
    if kind == "inverse pairs":
        return g, g_inv, h, h_inv
    if kind == "one-sided":
        return g, h
    if kind == "duplicate inverses":
        return g, g_inv, g_inv
    if kind == "involution":
        # the coordinate swap, an involution of SL3(Z), conjugated by
        # diag(p, 1, 1/p) so that it moves the standard vertex
        s = GroupElement(((0, p * p, 0), (1, 0, 0), (0, 0, -p)), p)
        assert s * s == GroupElement(identity())
        assert standard_vertex(p).apply(s.num) != standard_vertex(p)
        return g, s, h, g_inv
    # "rational inverse": k = diag(p, p, 1/p^2) times a unipotent, and k^-1
    # from the Fraction inverse of k's matrix, with another denominator
    k = GroupElement(((p ** 3, p ** 3, 0), (0, p ** 3, p ** 3), (0, 0, 1)), p * p)
    inv = GroupElement.from_matrix(tuple(
        tuple(Fraction(e, k.den ** 2) for e in row) for row in adjugate3(k.num)))
    assert inv == k.inverse() and inv.den == p
    return h, k, inv


WALK_GENERATOR_SETS = ("inverse pairs", "one-sided", "duplicate inverses",
                       "involution", "rational inverse")


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("kind", WALK_GENERATOR_SETS)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(base=st.sampled_from(range(4)),
       steps=st.sampled_from((0, 1, 2, 60)),
       raw_weights=st.lists(st.integers(1, 9), min_size=5, max_size=5),
       seed=st.integers(0, 2 ** 32))
def test_walk_matches_the_per_step_oracle(kind, p, base, steps, raw_weights,
                                          seed):
    # Whole traces, steps and final vertex, against the walk that reads
    # every step off its position, for generator sets with and without
    # letters that undo each other, from the standard vertex (where the
    # letters of the first Schottky element are diagonal) and from base
    # vertices of types 0, 1 and 2.
    gens = _walk_generator_set(p, kind)
    ws = raw_weights[:len(gens)]
    weights = tuple(Fraction(w, sum(ws)) for w in ws)
    x = LatticeVertex.from_matrix(p, (
        identity(),
        ((p, 1, 0), (0, p, 1), (0, 0, p)),
        ((p, 1, 1), (0, 1, 0), (0, 0, 1)),
        ((p, 1, 0), (0, p, 1), (0, 0, 1)),
    )[base])
    assert x.vertex_type == max(base - 1, 0)
    cfg = WalkConfig(p, gens, weights, steps, seed, x)
    assert run_walk(cfg) == run_walk_oracle(cfg)


_CONJ_LETTER = st.one_of(
    st.integers(0, 2 ** 32).map(lambda s: ("z", s)),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(lambda ab: ("d",) + ab))


def _conjugator(p, word):
    g = GroupElement(identity())
    for letter in word:
        if letter[0] == "z":
            h = random_sl3z(make_rng(letter[1]))
        else:
            a, b = letter[1:]
            h = GroupElement.from_matrix(tuple(
                tuple(Fraction(p) ** e if i == j else 0 for j in range(3))
                for i, e in enumerate((a, b, -a - b))))
        g = g * h
    return g


@settings(derandomize=True, max_examples=10, deadline=None)
@given(word=st.lists(_CONJ_LETTER, min_size=1, max_size=3),
       base=st.sampled_from((((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                             ((3, 2, 1), (0, 1, 0), (0, 0, 1)))),
       seed=st.integers(0, 2 ** 32))
def test_walk_is_equivariant_under_conjugation(word, base, seed):
    # The walk of g h g^-1 from g x at the same seed draws the same letters
    # and sees the same vector distances and germ runs; it ends at g times
    # the end of the walk of h from x.  The germs themselves move by the
    # change of residue coordinates and are not compared.
    p = 3
    gens, weights = schottky_generators(p, 42)
    g = _conjugator(p, word)
    g_inv = g.inverse()
    x = LatticeVertex.from_matrix(p, base)
    trace = run_walk(WalkConfig(p, gens, weights, 40, seed, x))
    moved = run_walk(WalkConfig(p, tuple(g * h * g_inv for h in gens), weights,
                                40, seed, x.apply(g.num)))
    assert [(s.letter, s.theta, s.germ_run) for s in moved.steps] == \
        [(s.letter, s.theta, s.germ_run) for s in trace.steps]
    assert moved.final_position == trace.final_position.apply(g.num)


def test_walk_convergence_rate_small():
    p = 3
    gens, weights = schottky_generators(p, 42)
    x = standard_vertex(p)
    conv = 0
    trials = 25
    for t in range(trials):
        cfg = WalkConfig(p, gens, weights, 150, derive_seed(777, t), x)
        ok, _, _ = convergence_report(run_walk(cfg))
        conv += ok
    assert conv >= trials * 3 // 4


def test_direction_estimate_matches_deterministic_direction():
    p = 3
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    cfg = WalkConfig(p, (cert.element,), (Fraction(1),), 8, 5, standard_vertex(p))
    trace = run_walk(cfg)
    est = direction_estimate(standard_vertex(p), trace.final_position)
    assert est == cert.attracting


@settings(derandomize=True, max_examples=100, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), seed=st.integers(0, 2 ** 32 - 1))
def test_direction_estimate_is_the_sector_chamber_exactly_when_regular(p, seed):
    rng = make_rng(seed)
    for _ in range(6):
        x, z = random_vertex(p, rng), random_vertex(p, rng)
        c = direction_estimate(x, z)
        assert c == direction_estimate_oracle(x, z)
        assert (c is not None) == is_regular(vector_distance(x, z))
        if c is not None:
            assert sector_membership(x, c, z)


def test_stationary_estimates_agree_across_base_vertices():
    p = 3
    gens, weights = schottky_generators(p, 42)
    x1 = standard_vertex(p)
    x2 = LatticeVertex.from_matrix(p, ((3, 1, 0), (0, 3, 1), (0, 0, 3)))
    y = growth_ray_vertex(x1, Flag.standard(), 1)
    events = [("E", x1, y)]
    est1 = stationary_estimate(WalkConfig(p, gens, weights, 120, 51, x1), 60, events)
    est2 = stationary_estimate(WalkConfig(p, gens, weights, 120, 52, x2), 60, events)
    agreement = estimates_agree(est1, est2)
    assert agreement["E"]


def test_three_sigma_verdicts_are_exact_at_the_boundary():
    # |10/17 - 1/2| = 3 sqrt((1/4) / 289) exactly; the float test
    # abs(emp - t) <= 3 * sigma rejected this point.
    t = Fraction(1, 2)
    assert within_three_sigma(Fraction(10, 17), t, 289)
    assert within_three_sigma(Fraction(7, 17), t, 289)
    eps = Fraction(1, 10 ** 30)
    assert not within_three_sigma(Fraction(10, 17) + eps, t, 289)
    assert not within_three_sigma(Fraction(7, 17) - eps, t, 289)
    assert within_three_sigma(Fraction(1, 8), Fraction(1, 50), 16)
    # pooled two-sample test: f1 = 3/9, f2 = 9/9 at n1 = n2 = 9 lies exactly
    # on (f1 - f2)^2 = 9 P (1 - P) (1/n1 + 1/n2), P = 2/3
    a = EventEstimate("E", Fraction(3, 9), 9)
    assert estimates_agree([a], [EventEstimate("E", Fraction(1), 9)])["E"]
    assert not estimates_agree(
        [EventEstimate("E", Fraction(2, 9), 9)],
        [EventEstimate("E", Fraction(1), 9)])["E"]
    # both frequencies 0: zero pooled variance and zero difference agree
    # without a variance floor
    zero = EventEstimate("E", Fraction(0), 5)
    assert estimates_agree([zero], [EventEstimate("E", Fraction(0), 7)])["E"]


def test_stationary_estimate_deterministic_walk_is_dirac():
    p = 3
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    x = standard_vertex(p)
    y_plus = growth_ray_vertex(x, cert.attracting, 1)
    y_minus = growth_ray_vertex(x, cert.repelling, 1)
    events = [("plus", x, y_plus), ("minus", x, y_minus)]
    cfg = WalkConfig(p, (cert.element,), (Fraction(1),), 10, 3, x)
    est = stationary_estimate(cfg, 10, events)
    by_label = {e.label: e.frequency for e in est}
    assert by_label["plus"] == 1 and by_label["minus"] == 0


def test_stationary_estimate_requires_convergence():
    p = 3
    g = GroupElement.from_matrix(identity())
    cfg = WalkConfig(p, (g,), (Fraction(1),), 20, 9, standard_vertex(p))
    with pytest.raises(InsufficientConvergenceError):
        stationary_estimate(cfg, 10, [])


def test_stationary_estimate_rejects_no_trials_and_no_convergence():
    # neither may end in Fraction(0, 0), a bare ZeroDivisionError
    p = 3
    g = GroupElement.from_matrix(identity())
    cfg = WalkConfig(p, (g,), (Fraction(1),), 20, 9, standard_vertex(p))
    for trials in (0, -2):
        with pytest.raises(ValueError):
            stationary_estimate(cfg, trials, [])
    # the identity walk never converges, so no frequency has a denominator
    # even when no convergence rate is required
    with pytest.raises(InsufficientConvergenceError):
        stationary_estimate(cfg, 4, [("E", cfg.base_vertex, cfg.base_vertex)],
                            min_converged=Fraction(0))


def test_strip_growth_counts_and_exponent():
    counts, expo = strip_growth(Flag.standard(), Flag.reversed_standard(),
                                5, 20)
    assert counts[0] == (1, 7)
    assert 1.8 <= expo <= 2.2
    with pytest.raises(NotOppositeError):
        strip_growth(Flag.standard(), Flag.standard(), 5, 5)


def test_a2_ball_count_matches_the_eisenstein_norm_count():
    assert a2_ball_count(0) == 1
    assert [(r, a2_ball_count(r)) for r in range(1, 31)] == strip_counts_oracle(30)


@pytest.mark.parametrize("p", [3, 5])
def test_strip_growth_counts_on_sampled_pair_match_oracle(p):
    rng = make_rng(31, p)
    c1 = Flag.standard()
    c2 = harmonic_sample(standard_vertex(p), 4, rng)
    while not is_opposite(c1, c2) or c2 == Flag.reversed_standard():
        c2 = harmonic_sample(standard_vertex(p), 4, rng)
    counts, expo = strip_growth(c1, c2, p, 8)
    assert counts == strip_counts_oracle(8)
    assert math.isfinite(expo)
    counts, expo = strip_growth(c1, c2, p, 1)
    assert counts == [(1, 7)] and math.isnan(expo)
