"""The finite ranges of the harmonic sampler, listed in full.

A harmonic draw at the standard vertex at depth d is ``Flag.spanned(u, v)``
for the first two columns u, v of a matrix drawn from GL3(Z/p^d): their
entries lie in [0, p^d), and u, v are independent mod p, since the matrix
is invertible mod p; every such pair is the start of some invertible
matrix.  So the range is finite, and a property checked on each of its
flags holds for every draw at that (p, d).

Run as a script, this checks the north-south limits on the (p, d) = (2, 3)
range, 90,660 flags, which is too slow for the test suite:

    PYTHONPATH=src python tests/exhaustive.py
"""

import random
import time
from itertools import product

from sl3building.boundary import Flag, boundary_retraction
from sl3building.dynamics import make_srh, north_south_limit, random_sl3z
from sl3building.padic_linalg import cross, identity

from oracles import (
    boundary_retraction_search_oracle,
    north_south_limit_image_oracle,
)


def harmonic_range(p, depth):
    """The set of flags ``harmonic_sample`` can return at the standard
    vertex at this depth."""
    vectors = list(product(range(p ** depth), repeat=3))
    flags = set()
    for u in vectors:
        for v in vectors:
            if any(e % p for e in cross(u, v)):
                flags.add(Flag.spanned(u, v))
    return flags


def criterion_3_certificates(p):
    """The standard element of translation (2, 1, 0) and its two conjugates
    of acceptance criterion 3."""
    std = make_srh(identity(), (2, 1, 0), p)
    return [std] + [std.conjugate(random_sl3z(random.Random(seed)))
                    for seed in (31, 32)]


def north_south_mismatches(p, depth):
    """The (certificate index, flag) pairs of the range where
    ``north_south_limit`` differs from ``boundary_retraction`` centred at
    the repelling chamber, that retraction from
    ``boundary_retraction_search_oracle``, or, for the standard
    certificate, the limit from ``north_south_limit_image_oracle``; and the
    number of flags checked."""
    flags = sorted(harmonic_range(p, depth),
                   key=lambda f: (f.line, f.plane_normal))
    bad = []
    for ci, cert in enumerate(criterion_3_certificates(p)):
        for c in flags:
            limit = north_south_limit(cert, c)
            retraction = boundary_retraction(cert.frame, cert.repelling, c, p)
            if limit != retraction or retraction != \
                    boundary_retraction_search_oracle(cert.frame, cert.repelling, c) \
                    or ci == 0 and limit != north_south_limit_image_oracle(cert, c):
                bad.append((ci, c))
    return bad, len(flags)


if __name__ == "__main__":
    t0 = time.time()
    mismatches, checked = north_south_mismatches(2, 3)
    print(f"(p, depth) = (2, 3): {checked} flags, 3 certificates, "
          f"{len(mismatches)} mismatches, {time.time() - t0:.1f} s")
    raise SystemExit(1 if mismatches else 0)
