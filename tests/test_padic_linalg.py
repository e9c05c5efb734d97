"""Valuations, normal forms and the adapted-basis construction."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl3building.padic_linalg import (
    MR_EXACT_BOUND,
    SingularMatrixError,
    ZeroValuationError,
    adjugate3,
    columns,
    cross,
    det3,
    flag_adapted_basis,
    from_columns,
    in_basis,
    is_prime,
    lattice_canonical,
    mat_mul,
    primitive_vector,
    require_prime,
    residue_germ_parts,
    smith_exponents,
    smith_left_transform,
    strip_p_content,
    valuation_int,
)
from sl3building.dynamics import schottky_pair
from sl3building.rng import make_rng
from oracles import (
    is_prime_trial_division,
    lattice_canonical_oracle,
    primitive_vector_oracle,
    rank,
    residue_germ_parts_oracle,
    smith_elimination_oracle,
    smith_left_transform_oracle,
    unit_part,
    valuation,
    valuation_loop_oracle,
)


def rand_invertible(rng, lo=-9, hi=9):
    while True:
        m = tuple(tuple(rng.randint(lo, hi) for _ in range(3)) for _ in range(3))
        if det3(m) != 0:
            return m


def rand_unimodular_zp(rng, p):
    while True:
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3))
        d = det3(m)
        if d != 0 and d % p != 0:
            return m


def test_valuation_examples():
    assert valuation(5, 5) == 1
    assert valuation(Fraction(3, 4), 2) == -2
    assert valuation(Fraction(18, 5), 3) == 2


def test_valuation_of_zero_rejected():
    with pytest.raises(ZeroValuationError):
        valuation(0, 3)
    with pytest.raises(ZeroValuationError):
        valuation(Fraction(0), 5)


def test_valuation_int_matches_the_division_loop_oracle():
    # both signs, units up to ~300 digits, times p^k with k up to 700; half
    # the cases have k < 20, around the first few powers of two
    rng = random.Random(20261018)
    for _ in range(20000):
        p = rng.choice((2, 3, 5, 7))
        k = rng.randrange(701) if rng.random() < 0.5 else rng.randrange(20)
        n = rng.choice((1, -1)) * rng.randrange(1, 10 ** rng.randint(1, 300)) * p ** k
        assert valuation_int(n, p) == valuation_loop_oracle(n, p)
    for p in (2, 3, 5, 7):
        with pytest.raises(ZeroValuationError):
            valuation_int(0, p)
        with pytest.raises(ZeroValuationError):
            valuation_loop_oracle(0, p)


@given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0),
       st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0),
       st.sampled_from([2, 3, 5, 7]))
def test_valuation_is_multiplicative(a, b, p):
    assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


@given(st.fractions(min_value=-100, max_value=100).filter(lambda x: x != 0),
       st.fractions(min_value=-100, max_value=100).filter(lambda x: x != 0),
       st.sampled_from([2, 3, 5]))
def test_valuation_is_ultrametric(x, y, p):
    if x + y == 0:
        return
    v = valuation(x + y, p)
    vx, vy = valuation(x, p), valuation(y, p)
    assert v >= min(vx, vy)
    if vx != vy:
        assert v == min(vx, vy)


def test_unit_part_splits_off_the_p_power():
    x = Fraction(18, 5)
    u = unit_part(x, 3)
    assert x == u * 9 and valuation(u, 3) == 0


def test_smith_exponents_examples():
    p = 5
    assert smith_exponents(((1, 0, 0), (0, 1, 0), (0, 0, 1)), p) == (0, 0, 0)
    assert smith_exponents(((25, 0, 0), (0, 5, 0), (0, 0, 1)), p) == (2, 1, 0)


def test_smith_exponents_rejects_singular():
    with pytest.raises(SingularMatrixError):
        smith_exponents(((1, 2, 3), (2, 4, 6), (0, 0, 1)), 3)


def test_smith_exponents_match_elimination_oracle():
    rng = random.Random(20240301)
    p = 3
    for _ in range(1000):
        m = rand_invertible(rng)
        assert smith_exponents(m, p) == smith_elimination_oracle(m, p)
    # walk-sized inputs: long words in the generators of a Schottky pair,
    # with entries of hundreds of digits
    cert1, cert2 = schottky_pair(p, make_rng(42, 0xC0))
    gens = [g.num for g in (
        cert1.element, cert1.element.inverse(),
        cert2.element, cert2.element.inverse())]
    digits = []
    for _ in range(40):
        m = gens[0]
        for _ in range(rng.randint(50, 200)):
            m = mat_mul(m, rng.choice(gens))
        digits.append(max(len(str(abs(e))) for row in m for e in row))
        assert smith_exponents(m, p) == smith_elimination_oracle(m, p)
    assert max(digits) >= 300


def test_smith_exponents_rational_entries():
    rng = random.Random(7)
    for _ in range(200):
        m = tuple(tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                        for _ in range(3)) for _ in range(3))
        if det3(m) == 0:
            continue
        assert smith_exponents(m, 3) == smith_elimination_oracle(m, 3)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7)),
       a=st.lists(st.integers(-30, 30), min_size=9, max_size=9),
       b=st.lists(st.integers(-30, 30), min_size=9, max_size=9),
       exps=st.tuples(*[st.integers(0, 6)] * 3),
       den=st.integers(1, 200))
def test_smith_exponents_match_elimination_oracle_property(p, a, b, exps, den):
    """A diag(p^exps) B / den: elementary divisors well apart from 0 and 1."""
    a = (tuple(a[0:3]), tuple(a[3:6]), tuple(a[6:9]))
    b = (tuple(b[0:3]), tuple(b[3:6]), tuple(b[6:9]))
    assume(det3(a) != 0 and det3(b) != 0)
    d = tuple(tuple(p ** exps[i] if i == j else 0 for j in range(3))
              for i in range(3))
    m = tuple(tuple(Fraction(e, den) for e in row)
              for row in mat_mul(a, mat_mul(d, b)))
    assert smith_exponents(m, p) == smith_elimination_oracle(m, p)


def test_smith_invariance_under_unimodular_factors():
    rng = random.Random(99)
    p = 3
    base = ((18, 5, 1), (3, 27, 0), (2, 1, 9))
    target = smith_exponents(base, p)
    for _ in range(1000):
        u = rand_unimodular_zp(rng, p)
        v = rand_unimodular_zp(rng, p)
        assert smith_exponents(mat_mul(u, mat_mul(base, v)), p) == target


def test_smith_sum_is_det_valuation():
    rng = random.Random(5)
    for _ in range(200):
        m = rand_invertible(rng)
        assert sum(smith_exponents(m, 2)) == valuation_int(det3(m), 2)


def test_lattice_canonical_shape_and_invariance():
    rng = random.Random(4)
    p = 3
    base = ((6, 1, 0), (3, 9, 2), (0, 5, 27))
    canon = lattice_canonical(base, p)
    # pivots are powers of p, strictly upper entries reduced below their pivot
    for i in range(3):
        piv = canon[i][i]
        assert piv == p ** valuation_int(piv, p)
        for j in range(3):
            if j < i:
                assert canon[i][j] == 0
            elif j > i:
                assert 0 <= canon[i][j] < piv
    for _ in range(1000):
        u = rand_unimodular_zp(rng, p)
        assert lattice_canonical(mat_mul(base, u), p) == canon


def test_lattice_canonical_mod_homothety():
    p = 5
    base = ((25, 0, 0), (0, 5, 0), (0, 0, 5))
    scaled = tuple(tuple(e * 25 for e in row) for row in base)
    assert lattice_canonical(base, p) == lattice_canonical(scaled, p)


@st.composite
def lattice_bases(draw):
    # entries of 10 or 1000 bits (the size of a walk's final position) with
    # p-power factors, column scales that make the determinant valuation
    # large, a p-content and sometimes denominators
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    bits = draw(st.sampled_from((10, 10, 1000)))
    content = p ** draw(st.integers(0, 3))
    scales = [p ** draw(st.integers(0, 40)) for _ in range(3)]
    entry = st.builds(lambda a, k, den: Fraction(a * p ** k, den),
                      st.integers(-2 ** bits, 2 ** bits), st.integers(0, 6),
                      st.sampled_from((1, 1, 1, 1, p, 6, p ** 3)))
    m = tuple(tuple(int(e) if e.denominator == 1 else e
                    for e in (draw(entry) * content * s for s in scales))
              for _ in range(3))
    assume(det3(m) != 0)
    return m, p


@settings(derandomize=True, max_examples=500, deadline=None)
@given(lattice_bases())
def test_lattice_canonical_matches_the_elimination_oracle(case):
    m, p = case
    assert lattice_canonical(m, p) == lattice_canonical_oracle(m, p)


def test_smith_left_transform_reconstructs_the_lattice():
    rng = random.Random(11)
    p = 2
    for _ in range(100):
        m = rand_invertible(rng)
        left, d = smith_left_transform(m, p)
        assert d[0] <= d[1] <= d[2]
        assert valuation(det3(left), p) == 0
        diag = tuple(tuple(Fraction(p) ** d[i] if i == j else 0
                           for j in range(3)) for i in range(3))
        rebuilt = mat_mul(left, diag)
        assert lattice_canonical(rebuilt, p) == lattice_canonical(m, p)


@st.composite
def tie_heavy_matrices(draw):
    # few units and p-power scales, so entries and 2x2 minors often tie in
    # valuation and the pivot choices rest on the scan order; a common
    # denominator shifts every exponent
    p = draw(st.sampled_from([2, 3, 5, 7]))
    den = draw(st.sampled_from([1, 1, 2, p]))
    entry = st.builds(lambda u, k: Fraction(u * p ** k, den),
                      st.sampled_from([0, 1, -1, 2, -3]), st.integers(0, 3))
    m = tuple(tuple(draw(entry) for _ in range(3)) for _ in range(3))
    assume(det3(m) != 0)
    return m, p


@settings(derandomize=True, max_examples=600, deadline=None)
@given(tie_heavy_matrices())
def test_smith_left_transform_matches_the_elimination_oracle(case):
    m, p = case
    left, d = smith_left_transform(m, p)
    slow, slow_d = smith_left_transform_oracle(m, p)
    assert d == slow_d
    ratios = {Fraction(s) / e for row, srow in zip(left, slow)
              for e, s in zip(row, srow) if e}
    assert len(ratios) == 1
    assert all(s == 0 for row, srow in zip(left, slow)
               for e, s in zip(row, srow) if not e)
    assert math.gcd(*(e for row in left for e in row)) == 1


def test_flag_adapted_basis_is_triangular_and_unimodular():
    rng = random.Random(13)
    p = 5
    for _ in range(200):
        g = rand_invertible(rng)
        gc = columns(g)
        h = flag_adapted_basis(primitive_vector(gc[0]),
                               primitive_vector(cross(gc[0], gc[1])), p)
        assert valuation(det3(h), p) == 0
        hc = columns(h)
        assert _in_span(hc[0], (gc[0],))
        assert _in_span(hc[1], (gc[0], gc[1]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(p=st.sampled_from((2, 3, 5)), k=st.integers(0, 40),
       entries=st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=9, max_size=9))
def test_strip_p_content_divides_off_the_least_entry_valuation(p, k, entries):
    with pytest.raises(ValueError):
        strip_p_content(((0, 0, 0),) * 3, p)
    assume(any(entries))
    m = tuple(tuple(e * p ** k for e in entries[i:i + 3]) for i in (0, 3, 6))
    out, v = strip_p_content(m, p)
    assert v == min(valuation_loop_oracle(e, p) for row in m for e in row if e)
    assert tuple(tuple(e * p ** v for e in row) for row in out) == m


def test_in_basis_is_the_conjugate_by_the_adjugate_with_its_content_stripped():
    # adj(m) g m divided by the plain gcd of its entries.  One m in two has
    # a column scaled by p, so det(m) is divisible by p and the product
    # often has a content p^k; g is a scalar multiple now and then.
    rng = random.Random(29)
    seen = set()
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        m, g = rand_invertible(rng), rand_invertible(rng)
        if rng.random() < 0.5:
            k = rng.randrange(3)
            m = tuple(tuple(e * p if j == k else e for j, e in enumerate(row))
                      for row in m)
        if rng.random() < 0.2:
            g = tuple(tuple(e * p for e in row) for row in g)
        full = mat_mul(mat_mul(adjugate3(m), g), m)
        content = math.gcd(*(e for row in full for e in row))
        assert in_basis(m, g) == tuple(tuple(e // content for e in row)
                                       for row in full)
        seen.add((det3(m) % p == 0, content % p == 0))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def _in_span(v, gens):
    stacked = from_columns(tuple(gens))
    full = from_columns(tuple(gens) + (v,))
    return rank(stacked) == rank(full)


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if is_prime_trial_division(n)]


def test_is_prime_large_and_adversarial_inputs():
    assert is_prime(2 ** 31 - 1) and is_prime(2 ** 61 - 1)
    assert not is_prime((2 ** 31 - 1) ** 2)
    # strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(3215031751)
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              321197185, 5394826801, 232250619601, 9746347772161):
        assert not is_prime(n)  # Carmichael numbers
    # strong pseudoprimes to the first 11 and to the first 12 prime bases
    assert not is_prime(3825123056546413051)
    psi12 = 399165290221 * 798330580441
    assert psi12 == 318665857834031151167461 and not is_prime(psi12)
    # the bound itself passes all 13 bases, and is composite
    assert MR_EXACT_BOUND == 1287836182261 * 2575672364521
    with pytest.raises(ValueError):
        is_prime(MR_EXACT_BOUND)
    with pytest.raises(ValueError):
        require_prime(2 ** 89 - 1)  # a Mersenne prime above the bound
    require_prime(2 ** 61 - 1)
    with pytest.raises(ValueError):
        require_prime(2 ** 61 + 1)


_ENTRY = st.one_of(st.integers(-60, 60),
                   st.fractions(min_value=-60, max_value=60, max_denominator=30))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(v=st.tuples(_ENTRY, _ENTRY, _ENTRY))
def test_primitive_vector_matches_its_fraction_oracle(v):
    """Int, Fraction and mixed vectors, zeros and negative last entries."""
    assume(any(v))
    out = primitive_vector(v)
    assert out == primitive_vector_oracle(v)
    assert all(type(e) is int for e in out)


@pytest.mark.parametrize("v", [
    (0, 0, -4), (6, -9, 0), (-2, 4, -6), (0, 5, 0), (3, 0, 0),
    (Fraction(1, 2), Fraction(-1, 3), 0), (Fraction(4), 0, Fraction(-2)),
    (Fraction(2, 3), 4, -6), (0, Fraction(-5, 7), 0), (12, 18, -24),
])
def test_primitive_vector_examples_match_the_oracle(v):
    assert primitive_vector(v) == primitive_vector_oracle(v)
    assert primitive_vector(v)[[i for i, e in enumerate(v) if e][-1]] > 0


@pytest.mark.parametrize("v", [(0, 0, 0), (Fraction(0), 0, Fraction(0, 7))])
def test_primitive_vector_rejects_the_zero_vector(v):
    for f in (primitive_vector, primitive_vector_oracle):
        with pytest.raises(ValueError):
            f(v)


def test_residue_germ_parts_is_unchanged_by_the_reduction_mod_p_d_plus_1():
    # With D the determinant valuation of a basis of p-content 0, its
    # reduction mod p^(D+1) has the same e2, line and plane normal.
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(200):
            m = tuple(tuple(rng.randint(-40, 40) * p ** rng.randint(0, 3)
                            for _ in range(3)) for _ in range(3))
            d = det3(m)
            if d == 0 or all(e % p == 0 for row in m for e in row):
                continue
            q = p ** (valuation_int(d, p) + 1)
            red = tuple(tuple(e % q for e in row) for row in m)
            e2, line, normal = residue_germ_parts(m, p)
            assert residue_germ_parts(red, p) == (e2, line, normal)
            assert e2 == smith_exponents(m, p)[1] + smith_exponents(m, p)[2]


@st.composite
def _p_content_free_matrices(draw):
    # either entries u p^k, most of them divisible by p, or U diag(1, p^a,
    # p^b) V with a <= b, which puts e2 = a at or next to floor(D/2); the
    # p-content is stripped, and determinant valuations reach about 25
    p = draw(st.sampled_from((2, 3, 5, 7)))
    if draw(st.booleans()):
        entry = st.builds(lambda u, k: u * p ** k,
                          st.integers(-20, 20), st.integers(0, 8))
        m = tuple(tuple(draw(entry) for _ in range(3)) for _ in range(3))
    else:
        a = draw(st.integers(0, 11))
        b = draw(st.integers(a, 11))
        small = st.integers(-3, 3)
        u, v = (tuple(tuple(draw(small) for _ in range(3)) for _ in range(3))
                for _ in range(2))
        m = mat_mul(mat_mul(u, ((1, 0, 0), (0, p ** a, 0), (0, 0, p ** b))), v)
    assume(det3(m) != 0)
    return p, strip_p_content(m, p)[0]


@settings(max_examples=600, derandomize=True, deadline=None)
@given(_p_content_free_matrices())
def test_residue_germ_parts_mod_p_to_half_the_det_valuation_matches_the_oracle(pm):
    # e2 = s2 <= floor(D/2), and the 2x2 minors of the reduction mod
    # p^(floor(D/2)+1) agree with the true ones to that modulus, so e2 and
    # the adjugate divided by p^e2 survive it mod p.
    p, m = pm
    expected = residue_germ_parts_oracle(m, p)
    q = p ** (valuation_int(det3(m), p) // 2 + 1)
    red = tuple(tuple(e % q for e in row) for row in m)
    assert residue_germ_parts(red, p) == expected
    assert residue_germ_parts(m, p) == expected
