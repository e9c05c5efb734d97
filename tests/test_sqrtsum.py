"""Exact comparison of sums of square roots."""

from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl3building.boundary import Flag
from sl3building.building import LatticeVertex
from sl3building.rng import make_rng
from sl3building import sqrtsum
from sl3building.sqrtsum import SqrtSum, _separation_digits, _sign_at_scale
from sl3building.triples import (
    ChamberTriple,
    _bracket,
    _compare_squares,
    _scaled_floor,
    barycenter,
    construct_generic,
    distance_sum,
)
from oracles import sqrtsum_enclosure_compare, sqrtsum_enclosure_loop_oracle


def combination(pairs):
    """The SqrtSum of c * sqrt(n) over the (n, c) pairs."""
    out = SqrtSum()
    for n, c in pairs:
        out = out + SqrtSum((s, c * a) for s, a in SqrtSum.sqrt_int(n).terms)
    return out


SUMS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=200),
              st.fractions(min_value=-6, max_value=6, max_denominator=12)),
    max_size=4).map(combination)


def check_against_oracle(a, b):
    got = a.compare(b)
    assert got == sqrtsum_enclosure_compare(a, b)
    assert b.compare(a) == -got


@settings(max_examples=300, deadline=None)
@given(SUMS, SUMS)
def test_compare_agrees_with_the_enclosure_oracle(a, b):
    check_against_oracle(a, b)


# (n, c) terms with int and Fraction coefficients of both signs
MIXED_TERMS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10 ** 6),
              st.one_of(st.integers(min_value=-50, max_value=50),
                        st.fractions(min_value=-6, max_value=6,
                                     max_denominator=12))),
    max_size=5)


@settings(max_examples=300, deadline=None)
@given(MIXED_TERMS, st.integers(min_value=0, max_value=40))
def test_enclosure_is_the_fraction_loop_exactly(terms, digits):
    value = SqrtSum(terms)
    got = value.enclosure(digits)
    assert got == sqrtsum_enclosure_loop_oracle(value, digits)
    assert all(type(x) is Fraction for x in got)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10 ** 6),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=-1, max_value=1),
       SUMS)
def test_compare_near_ties_against_a_decimal_root(n, k, delta, extra):
    # sqrt(n) against its k-digit truncation, shifted by at most one unit in
    # the last place; the same extra sum on both sides keeps the gap.
    r = Fraction(isqrt(n * 10 ** (2 * k)) + delta, 10 ** k)
    a = SqrtSum.sqrt_int(n) + extra
    b = SqrtSum(((1, r),)) + extra
    check_against_oracle(a, b)


def _difference_terms(a, b):
    """The (s, c_s) terms of a - b, as ``SqrtSum.compare`` forms them."""
    diff = dict(a.terms)
    for s, c in b.terms:
        diff[s] = diff.get(s, 0) - c
    return [(s, c) for s, c in diff.items() if c]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10 ** 6),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=-1, max_value=1),
       SUMS)
def test_near_ties_resolve_within_the_separation_bound(n, k, delta, extra):
    # the near ties of the decimal-root test: the scale that the root
    # separation bound computes decides the sign, so the doubling stops
    # there at the latest
    r = Fraction(isqrt(n * 10 ** (2 * k)) + delta, 10 ** k)
    a = SqrtSum.sqrt_int(n) + extra
    b = SqrtSum(((1, r),)) + extra
    terms = _difference_terms(a, b)
    if terms:
        assert _sign_at_scale(terms, _separation_digits(terms)) == a.compare(b)


def test_separation_bound_decides_the_hardest_examples():
    sqrt2 = SqrtSum.sqrt_int(2)
    big = SqrtSum.sqrt_int(10 ** 12 + 1)
    pairs = [(sqrt2, SqrtSum(((1, Fraction(665857, 470832)),))),
             (sqrt2, SqrtSum(((1, Fraction(1393, 985)),))),
             (big, SqrtSum(((1, 10 ** 6 + Fraction(1, 2 * 10 ** 6)),))),
             (SqrtSum.of_squares((2, 3)), SqrtSum.of_squares((10,))),
             (SqrtSum.of_squares((5, 6, 18)), SqrtSum.of_squares((3, 7, 8)))]
    for a, b in pairs:
        terms = _difference_terms(a, b)
        assert _sign_at_scale(terms, _separation_digits(terms)) == a.compare(b) != 0


def test_compare_past_the_separation_bound_is_an_assertion_error(monkeypatch):
    # an unresolved sign at the bound would contradict the bound itself
    monkeypatch.setattr(sqrtsum, "_sign_at_scale", lambda terms, digits: 0)
    with pytest.raises(AssertionError, match="root-separation bound"):
        SqrtSum.sqrt_int(2).compare(SqrtSum.sqrt_int(3))


def test_compare_examples():
    sqrt2_sqrt3 = SqrtSum.of_squares((2, 3))
    sqrt10 = SqrtSum.of_squares((10,))
    assert sqrt2_sqrt3.compare(sqrt10) == -1 and sqrt10 > sqrt2_sqrt3
    # equal values, different radicands: sqrt(8) = 2 sqrt(2)
    assert SqrtSum.of_squares((8,)).compare(SqrtSum(((2, 2),))) == 0
    assert SqrtSum.of_squares((8, 18)).compare(SqrtSum(((2, 5),))) == 0
    assert SqrtSum.of_squares((8,)).compare(SqrtSum.of_squares((2, 2))) == 0
    # continued-fraction convergents of sqrt(2) on either side
    sqrt2 = SqrtSum.sqrt_int(2)
    assert sqrt2.compare(SqrtSum(((1, Fraction(665857, 470832)),))) == -1
    assert sqrt2.compare(SqrtSum(((1, Fraction(1393, 985)),))) == 1
    # sqrt(10^12 + 1) = 10^6 + 1/(2 10^6) - 1/(8 10^18) + ...: the gap
    # needs more than the first round's 12 digits
    big = SqrtSum.sqrt_int(10 ** 12 + 1)
    assert big.compare(SqrtSum(((1, 10 ** 6 + Fraction(1, 2 * 10 ** 6)),))) == -1
    assert big.compare(SqrtSum(((1, 10 ** 6 + Fraction(1, 2 * 10 ** 6)
                                     - Fraction(1, 10 ** 18)),))) == 1
    # Fraction coefficients
    half = SqrtSum(((3, Fraction(1, 2)),))
    assert half.compare(SqrtSum(((1, Fraction(6, 7)),))) == 1  # 0.866 > 0.857
    assert half.compare(SqrtSum(((1, Fraction(13, 15)),))) == -1  # 0.866 < 0.8667
    assert SqrtSum().compare(SqrtSum()) == 0


SQUARES = st.one_of(st.integers(min_value=0, max_value=10 ** 6),
                    st.integers(min_value=0, max_value=1000).map(lambda a: a * a))


@settings(max_examples=300, deadline=None)
@given(st.lists(SQUARES, max_size=4))
def test_of_squares_is_the_sum_of_its_roots(qs):
    folded = SqrtSum()
    for q in qs:
        folded = folded + SqrtSum.sqrt_int(q)
    assert SqrtSum.of_squares(qs) == folded


def test_negative_radicands_are_rejected():
    with pytest.raises(ValueError):
        SqrtSum.sqrt_int(-1)
    with pytest.raises(ValueError):
        SqrtSum.of_squares((4, -2))
    with pytest.raises(ValueError):
        SqrtSum(((-3, 1),))


def _is_squarefree(s):
    return s >= 1 and all(s % (d * d) for d in range(2, isqrt(s) + 1))


# (s, a, c): the term c * sqrt(a^2 s), s any radicand and a, c integers
FACTORED_TERMS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=500),
              st.integers(min_value=1, max_value=30),
              st.integers(min_value=-5, max_value=5)),
    max_size=5)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(FACTORED_TERMS)
def test_the_raw_constructor_gives_the_normal_form_of_of_squares(terms):
    # c * sqrt(a^2 s) spelled three ways: as (a^2 s, c), as (s, a c), and,
    # for c > 0, as sqrt((a c)^2 s) through of_squares; negative c are
    # of_squares terms subtracted.
    raw = SqrtSum((a * a * s, c) for s, a, c in terms)
    pulled = SqrtSum((s, a * c) for s, a, c in terms)
    plus = SqrtSum.of_squares([(a * c) ** 2 * s for s, a, c in terms if c > 0])
    minus = SqrtSum.of_squares([(a * c) ** 2 * s for s, a, c in terms if c < 0])
    assert raw == pulled and hash(raw) == hash(pulled)
    assert raw + minus == plus and hash(raw + minus) == hash(plus)
    assert (raw + minus).compare(plus) == 0
    assert all(_is_squarefree(s) and c for s, c in raw.terms)
    assert len({s for s, _ in raw.terms}) == len(raw.terms)


def test_compare_is_zero_on_equal_values_spelled_differently():
    assert SqrtSum(((12, 1),)) == SqrtSum.sqrt_int(12)
    assert SqrtSum(((12, 1),)).compare(SqrtSum.sqrt_int(12)) == 0
    assert hash(SqrtSum(((12, 1),))) == hash(SqrtSum.sqrt_int(12))
    assert SqrtSum(((12, 1), (3, -2), (0, 7))).is_zero()
    assert SqrtSum(((50, 1), (8, 1))).compare(SqrtSum(((2, 7),))) == 0
    assert SqrtSum(((49, 1),)).compare(SqrtSum(((1, 7),))) == 0
    assert SqrtSum(((18, Fraction(1, 3)),)) == SqrtSum(((2, 1),))


def test_barycenter_values_have_integer_coefficients():
    p = 5
    c3 = construct_generic(Flag.standard(), Flag.reversed_standard(), p,
                           rng=make_rng(21), depth=4)
    triple = ChamberTriple.of(Flag.standard(), Flag.reversed_standard(), c3)
    x = LatticeVertex.from_matrix(p, ((25, 3, 1), (0, 5, 2), (0, 0, 1)))
    for value in (barycenter(triple, p).min_value, distance_sum(triple, x)):
        assert value.terms
        assert all(type(c) is int for _, c in value.terms)


def test_sign_at_scale_never_misdecides_at_coarse_scales():
    # At 0 and 1 digits integer square roots are crude, so many sums land
    # inside the slack; every sign that is returned must still be right.
    # One root against several whose fractional parts are near 1 (15, 35,
    # 63 are one below a square) puts the rounding error close to the slack.
    decided = 0
    for big in range(2, 400):
        for coeffs in product(range(3), repeat=3):
            small = [(s, c) for s, c in zip((15, 35, 63), coeffs) if c]
            truth = sqrtsum_enclosure_compare(combination([(big, 1)]),
                                              combination(small))
            for sign in (1, -1):
                terms = [(big, sign)] + [(s, -sign * c) for s, c in small]
                for digits in (0, 1):
                    got = _sign_at_scale(terms, digits)
                    assert got in (0, sign * truth)
                    decided += got != 0
    assert decided > 20000


def test_square_pair_enclosure_rule_decides_exactly_the_non_ties(monkeypatch):
    """``_compare_squares`` against ``SqrtSum.compare``, exhaustively.

    sqrt(qa) + sqrt(qb) for qa, qb in [0, 40] against r = sqrt(c) + sqrt(d),
    c <= d in [0, 12], and against r + sqrt(3), bracketed by ``_bracket``.
    Every sign must be right, and ``SqrtSum.compare`` must be reached for
    the ties and for nothing else.  The ties include values 0 against 0,
    sqrt(18) against sqrt(8) + sqrt(2) = 3 sqrt(2), sqrt(9) against
    sqrt(4) + sqrt(1), sqrt(3) + sqrt(1) against sqrt(1) + sqrt(3), and
    sqrt(27) against sqrt(12) + sqrt(3) = 3 sqrt(3), whose coefficient 3 is
    the whole slack of its bracket.
    """
    exact = SqrtSum.compare
    calls = []

    def counted(self, other):
        calls.append(1)
        return exact(self, other)

    monkeypatch.setattr(SqrtSum, "compare", counted)
    values = {(qa, qb): SqrtSum.of_squares((qa, qb))
              for qa in range(41) for qb in range(41)}
    ties = set()
    for c in range(13):
        for d in range(c, 13):
            best = SqrtSum.of_squares((c, d))
            for shift, ref in ((0, best), (3, best + SqrtSum.sqrt_int(3))):
                bracket = _bracket(ref)
                for sq, value in values.items():
                    before = len(calls)
                    got = _compare_squares(sq, _scaled_floor(sq), bracket)
                    fell_back = len(calls) > before
                    truth = exact(value, ref)
                    assert got == truth, (sq, c, d, shift)
                    assert fell_back == (truth == 0), (sq, c, d, shift)
                    if truth == 0:
                        ties.add((sq, c, d, shift))
    assert {((0, 0), 0, 0, 0), ((18, 0), 2, 8, 0), ((0, 18), 2, 8, 0),
            ((9, 0), 1, 4, 0), ((3, 1), 0, 1, 3), ((27, 0), 0, 12, 3),
            ((12, 3), 0, 12, 3)} <= ties
