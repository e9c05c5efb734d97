"""
Harmonic measures, random walks and strip growth
================================================

The harmonic measure seen from a vertex gives every basis set U_x(y) of the
cone topology mass exactly 1/N, where N counts vertices at the vector
distance of y.  The sampler below reproduces this law to binomial accuracy.
Random walks on a two-generator hyperbolic pair converge directionally, the
hitting statistics agree across starting vertices, and the apartment spanned
by two opposite limit chambers grows quadratically.
"""

import math
from fractions import Fraction

from sl3building import (
    Flag,
    WalkConfig,
    convergence_report,
    count_at_vector_distance,
    run_walk,
    strip_growth,
)
from sl3building.building import standard_vertex
from sl3building.dynamics import make_srh, schottky_pair
from sl3building.rng import derive_seed, make_rng
from sl3building.stochastics import basis_set_mass_estimate

p = 2
x = standard_vertex(p)

# the exact counting side of the mass law
for lam in ((1, 0, 0), (1, 1, 0), (2, 1, 0)):
    print(f"N{lam} over Q_{p} =", count_at_vector_distance(x, lam))

# and the sampled side: empirical mass of U_x(y) against 1/N
lam = (2, 1, 0)
n = count_at_vector_distance(x, lam)
trials = 20000
emp = basis_set_mass_estimate(x, lam, trials, make_rng(7))
target = 1 / n
sigma = math.sqrt(target * (1 - target) / trials)
print(f"\nempirical mass {float(emp):.5f} vs 1/N = {target:.5f} "
      f"({abs(float(emp) - target) / sigma:.2f} sigma at {trials} draws)")

# a deterministic hyperbolic walk converges immediately and moves linearly
p = 3
x = standard_vertex(p)
cert = make_srh(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (2, 1, 0), p)
trace = run_walk(WalkConfig(p, (cert.element,), (Fraction(1),), 6, 42, x))
print("\ndeterministic walk types:", [s.theta for s in trace.steps])
ok, n1, germ = convergence_report(trace)
print("converged:", ok, " from step:", n1)

# a symmetric two-generator walk: directional convergence along seeded paths
cert1, cert2 = schottky_pair(p, make_rng(99, 0xC0))
gens = (cert1.element, cert1.element.inverse(),
        cert2.element, cert2.element.inverse())
weights = (Fraction(1, 4),) * 4
converged = 0
trials = 30
for t in range(trials):
    cfg = WalkConfig(p, gens, weights, 150, derive_seed(5, t), x)
    okt, _, _ = convergence_report(run_walk(cfg))
    converged += okt
print(f"\nsymmetric pair: {converged}/{trials} seeded walks converge "
      "directionally by step 150")

# the strip spanned by two opposite chambers is a Euclidean plane of vertices
counts, exponent = strip_growth(Flag.standard(), Flag.reversed_standard(),
                                p, 20)
print("\nstrip vertex counts (R, count):", counts[:5], "...")
print("log-log growth exponent over R <= 20:", round(exponent, 3))
