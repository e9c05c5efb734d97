"""Exact comparison of sums of square roots of nonnegative integers.

Values of the convex functionals on the building are sums of up to three
square roots of integers.  Each sqrt(n) is written c * sqrt(s) with s
squarefree and c an integer, so a value is a tuple of integer (s, c) terms.
Equality is decided symbolically, since square roots of distinct squarefree
integers are linearly independent over Q.  Strict comparisons are
decided by the sign of an integer approximation of the difference at growing
decimal scale, which terminates because equality has already been ruled out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, isqrt, lcm


@lru_cache(maxsize=None)
def _squarefree_split(n):
    """n = a^2 * s with s squarefree; returns (a, s)."""
    a, s, d = 1, 1, 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            a *= d ** (e // 2)
            if e % 2:
                s *= d
        d += 1 if d == 2 else 2
    return a, s * n


def _root_sum_at_scale(terms, digits):
    """(mid, slack) for (s, c_s) terms: 10^digits times their sum, bracketed.

    Each s is an integer >= 0 and each c_s an int or a ``Fraction``.
    mid = sum of c_s * isqrt(s * 10^(2 digits)) and slack = sum of |c_s|.
    Each integer square root is below the true root by less than 1, so
    10^digits * sum c_s * sqrt(s) lies within slack of mid, and in
    [mid, mid + slack] when every c_s is positive.
    """
    scale2 = 10 ** (2 * digits)
    return (sum(c * isqrt(s * scale2) for s, c in terms),
            sum(abs(c) for _, c in terms))


def _sign_at_scale(terms, digits):
    """Sign of sum c_s * sqrt(s) over (s, c_s) terms, or 0 if unresolved.

    |mid| > slack of ``_root_sum_at_scale`` decides the sign; otherwise the
    scale is too coarse and 0 is returned.
    """
    mid, slack = _root_sum_at_scale(terms, digits)
    if mid > slack:
        return 1
    if mid < -slack:
        return -1
    return 0


def _separation_digits(terms):
    """A scale at which ``_sign_at_scale`` decides a nonzero sum of the terms.

    For alpha = sum c_s sqrt(s) != 0 over k terms (distinct squarefree s),
    D a common denominator of the c_s and M = sum |D c_s| (isqrt(s) + 1),
    the product of the 2^k sign conjugates sum +-D c_s sqrt(s) is a nonzero
    integer (sign-symmetric, and no factor vanishes by linear independence)
    whose factors are at most M, so |alpha| >= 1 / (D M^(2^k - 1)).  Past
    10^digits > 2 slack D M^(2^k - 1) the bracket puts |mid| above slack.
    """
    den = lcm(*(Fraction(c).denominator for _, c in terms))
    m = sum(int(abs(c * den)) * (isqrt(s) + 1) for s, c in terms)
    slack = sum(abs(c) for _, c in terms)
    return len(str(ceil(2 * slack * den))) + (2 ** len(terms) - 1) * len(str(m))


# the first scale of ``SqrtSum.compare``; ``triples`` brackets at it too
FIRST_DIGITS = 12


class SqrtSum:
    """An exact nonnegative value of the form sum of c_s * sqrt(s)."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        """The value sum of c * sqrt(n) over (n, c) terms, in normal form.

        Each radicand n >= 0 is split as a^2 s with s squarefree, and the
        term becomes (s, c a); terms of one s are merged and zeros dropped.
        Square roots of distinct squarefree integers are linearly
        independent over Q, so equal values have equal term tuples.
        """
        collected = {}
        for n, c in terms:
            if n < 0:
                raise ValueError("negative radicand")
            if n and c:
                a, s = _squarefree_split(n)
                collected[s] = collected.get(s, 0) + c * a
        self.terms = tuple(sorted((s, c) for s, c in collected.items() if c))

    @classmethod
    def sqrt_int(cls, n):
        return cls.of_squares((n,))

    @classmethod
    def of_squares(cls, squares):
        """The value sqrt(q1) + sqrt(q2) + ... for integer squared distances."""
        return cls((q, 1) for q in squares)

    def __add__(self, other):
        return SqrtSum(self.terms + other.terms)

    def __eq__(self, other):
        return isinstance(other, SqrtSum) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def is_zero(self):
        return not self.terms

    def enclosure(self, digits=20):
        """Certified rational enclosure (lo, hi), hi - lo <= len * 10^-digits.

        Each root lies in [r, r + 1] / 10^digits, r its ``isqrt`` at that
        scale, so over the (mid, slack) of ``_root_sum_at_scale`` the value
        is at least lo = mid - (sum of |c| over c < 0) and at most
        lo + slack, both over 10^digits.
        """
        mid, slack = _root_sum_at_scale(self.terms, digits)
        lo = mid + sum(c for _, c in self.terms if c < 0)
        scale = 10 ** digits
        return Fraction(lo, scale), Fraction(lo + slack, scale)

    def compare(self, other):
        """-1, 0 or 1; exact.

        Equal term lists are equal values.  Otherwise the difference
        sum of c_s * sqrt(s) is nonzero, and ``_sign_at_scale`` is tried on
        it at FIRST_DIGITS = 12, then 24, 48, ... digits, up to the scale
        of ``_separation_digits``, which always decides it.
        """
        if self.terms == other.terms:
            return 0
        diff = dict(self.terms)
        for s, c in other.terms:
            diff[s] = diff.get(s, 0) - c
        terms = [(s, c) for s, c in diff.items() if c]
        digits, bound = FIRST_DIGITS, None
        while not (sign := _sign_at_scale(terms, digits)):
            bound = bound or _separation_digits(terms)
            if digits >= bound:
                raise AssertionError(f"sign unresolved at {digits} digits, "
                                     "the root-separation bound")
            digits = min(2 * digits, bound)
        return sign

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __repr__(self):
        if not self.terms:
            return "SqrtSum(0)"
        parts = " + ".join(f"{c}*sqrt({s})" if c != 1 else f"sqrt({s})"
                           for s, c in self.terms)
        return f"SqrtSum({parts})"
