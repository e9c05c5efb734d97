"""Acceptance suite: every criterion at its stated size and tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s); the assertions
carry the same conditions.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import random
import time
from fractions import Fraction


from sl3building.building import (
    LatticeVertex,
    dist2,
    random_vertex,
    standard_vertex,
    vector_distance,
)
from sl3building.boundary import (
    Flag,
    apartment_from_opposite,
    boundary_retraction,
    growth_ray_vertex,
    is_opposite,
)
from sl3building.building import opposition_involution
from sl3building.dynamics import (
    enumerate_reduced_words,
    equicontinuity_check,
    equicontinuity_set_member,
    make_srh,
    north_south_limit,
    partition_check,
    proximal_pair_check,
    random_sl3z,
    schottky_pair,
    universal_contraction,
)
from sl3building.padic_linalg import det3
from sl3building.parabolics import (
    family_flag,
    lower_flag,
    pairwise_position_report,
    stabilizes_flag,
    torus_family_member,
    upper_flag,
)
from sl3building.rng import derive_seed, make_rng
from sl3building.stochastics import (
    WalkConfig,
    a2_ball_count,
    basis_set_mass_estimate,
    convergence_report,
    count_at_vector_distance,
    estimates_agree,
    harmonic_sample,
    run_walk,
    stationary_estimate,
    strip_growth,
    within_three_sigma,
)
from sl3building.triples import (
    ChamberTriple,
    apartment_infinity_intersection,
    barycenter,
    construct_generic,
    generic_triple_in_basis_set,
    is_generic,
)
from oracles import (
    sector_membership_oracle,
    smith_elimination_oracle,
    weyl_distance_oracle,
)

STD_LINES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def report(num, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print("\n" + line, flush=True)
    assert ok, line


def test_criterion_01_family_reproduction():
    """Exact verdicts for the Borel family, witnesses, torus checks; < 10 s."""
    t0 = time.time()
    verdicts = {t: pairwise_position_report(Fraction(t)) for t in
                (1, 2, 3, 5, -2, 7, 0, -1)}
    ok = all(verdicts[t].generic for t in (1, 2, 3, 5, -2, 7))
    ok &= not verdicts[0].generic and not verdicts[-1].generic
    # stated witnesses: e1 on V_0 and e2 on V_(-1)
    ok &= dict(verdicts[0].line_in_plane_witnesses)["e1_on_plane"]
    ok &= dict(verdicts[-1].line_in_plane_witnesses)["e2_on_plane"]
    # homomorphism and double stabilization at 50 sampled parameter pairs
    rng = random.Random(1)
    from sl3building.padic_linalg import mat_mul
    for _ in range(50):
        a = Fraction(rng.randint(1, 60), rng.randint(1, 20))
        e = Fraction(rng.randint(1, 60), rng.randint(1, 20))
        a2 = Fraction(rng.randint(1, 60), rng.randint(1, 20))
        e2 = Fraction(rng.randint(1, 60), rng.randint(1, 20))
        m = torus_family_member(a, e)
        ok &= mat_mul(m, torus_family_member(a2, e2)) \
            == torus_family_member(a * a2, e * e2)
        ok &= det3(m) == 1 and stabilizes_flag(m, upper_flag()) \
            and stabilizes_flag(m, family_flag(1))
    # apartment intersection at infinity: the upper chamber and its faces
    base = apartment_from_opposite(upper_flag(), lower_flag())
    fam = apartment_from_opposite(upper_flag(), family_flag(1))
    inter = apartment_infinity_intersection(base, fam)
    ok &= inter.lines == frozenset({(1, 0, 0)})
    ok &= inter.planes == frozenset({(0, 0, 1)})
    ok &= inter.chambers == frozenset({upper_flag()})
    elapsed = time.time() - t0
    ok &= elapsed < 10
    report(1, ok, f"{elapsed:.1f}s")


def test_criterion_02_harmonic_mass_law():
    """|empirical - 1/N| <= 3 sigma at 1e5 samples, p in {2,3}; < 5 min."""
    t0 = time.time()
    trials = 100_000
    ok = True
    details = []
    for p in (2, 3):
        x = standard_vertex(p)
        for lam in ((1, 0, 0), (1, 1, 0), (2, 1, 0)):
            n = count_at_vector_distance(x, lam)
            rng = make_rng(2024, p, lam[0], lam[1])
            emp = basis_set_mass_estimate(x, lam, trials, rng)
            target = 1.0 / n
            sigma = math.sqrt(target * (1 - target) / trials)
            dev = abs(float(emp) - target) / sigma
            ok &= within_three_sigma(emp, Fraction(1, n), trials)
            details.append(f"p={p} lam={lam} dev={dev:.2f}s")
    elapsed = time.time() - t0
    ok &= elapsed < 300
    report(2, ok, f"{elapsed:.0f}s; " + "; ".join(details))


def test_criterion_03_north_south_dynamics():
    """3 certificates x 100 flags: power limit equals retraction; < 2 min."""
    t0 = time.time()
    p = 3
    certs = [make_srh(STD_LINES, (2, 1, 0), p)]
    certs.append(certs[0].conjugate(random_sl3z(random.Random(31))))
    certs.append(certs[0].conjugate(random_sl3z(random.Random(32))))
    x = standard_vertex(p)
    ok = True
    for ci, cert in enumerate(certs):
        rng = make_rng(3000, ci)
        for _ in range(100):
            c = harmonic_sample(x, 4, rng)
            limit = north_south_limit(cert, c, nmax=40)
            retr = boundary_retraction(cert.frame, cert.repelling, c, p)
            ok &= limit == retr
    elapsed = time.time() - t0
    ok &= elapsed < 120
    report(3, ok, f"{elapsed:.0f}s")


def test_criterion_04_universal_contraction():
    """100 flags including the repelling chamber of g1 all land on C2+."""
    t0 = time.time()
    p = 3
    cert1, cert2 = schottky_pair(p, make_rng(404))
    assert proximal_pair_check(cert1, cert2)
    flags = [cert1.repelling]
    rng = make_rng(4000)
    x = standard_vertex(p)
    while len(flags) < 100:
        flags.append(harmonic_sample(x, 4, rng))
    failures = 0
    for c in flags:
        limit = universal_contraction(cert1, cert2, c, nmax=40)
        failures += limit != cert2.attracting
    ok = failures == 0
    report(4, ok, f"{time.time()-t0:.0f}s, failures={failures}")


def test_criterion_05_barycenter_equivariance():
    """3 generic triples x 10 transports, certified equal sets; < 10 min."""
    t0 = time.time()
    p = 5
    triples = [ChamberTriple.of(upper_flag(), lower_flag(), family_flag(1))]
    rng = make_rng(5000)
    for k in range(2):
        c3 = construct_generic(Flag.standard(), Flag.reversed_standard(), p,
                               rng=rng, depth=4)
        triples.append(ChamberTriple.of(Flag.standard(),
                                        Flag.reversed_standard(), c3))
    ok = True
    grng = random.Random(55)
    for ti, triple in enumerate(triples):
        res = barycenter(triple, p, radius_cap=12)
        ok &= res.certified
        for _ in range(10):
            g = random_sl3z(grng)
            res_g = barycenter(triple.apply(g.matrix), p, radius_cap=12)
            ok &= res_g.certified
            moved = frozenset(v.apply(g.matrix) for v in res.min_vertices)
            ok &= moved == res_g.min_vertices
    elapsed = time.time() - t0
    ok &= elapsed < 600
    report(5, ok, f"{elapsed:.0f}s")


def test_criterion_06_genericity_density():
    """Generic fraction >= 0.99 at depth 6, p = 5, 1e4 trials; plus a generic
    triple inside a fixed proper basis set within 100 draws."""
    t0 = time.time()
    p = 5
    x = standard_vertex(p)
    c1, c2 = Flag.standard(), Flag.reversed_standard()
    rng = make_rng(6000)
    trials = 10_000
    generic = 0
    for _ in range(trials):
        c3 = harmonic_sample(x, 6, rng)
        if c3 != c1 and c3 != c2 and is_generic(ChamberTriple.of(c1, c2, c3)):
            generic += 1
    frac = generic / trials
    ok = frac >= 0.99
    y = growth_ray_vertex(x, Flag.standard(), 1)
    got = generic_triple_in_basis_set(x, y, make_rng(6001), depth=6)
    ok &= got is not None
    report(6, ok, f"{time.time()-t0:.0f}s, fraction={frac:.4f}, "
                  f"draws={got[1] if got else 'none'}")


def test_criterion_07_equicontinuity_machinery():
    """1e3 admissible samples with zero failures; partitions at L = 4;
    theta-involution identity on 1e3 pairs."""
    t0 = time.time()
    p = 3
    o = standard_vertex(p)
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    conj = cert.conjugate(random_sl3z(random.Random(71)))
    gens = [cert.element, conj.element]
    words = enumerate_reduced_words(gens, 4)
    probes = [growth_ray_vertex(o, c, 1) for c in
              (cert.attracting, cert.repelling, conj.attracting)]
    from sl3building.stochastics import harmonic_sample_in_basis_set
    rng = make_rng(7000)
    checked = failures = 0
    admissible = [(g, y) for g in words for y in probes
                  if equicontinuity_set_member(g, o, y)]
    i = 0
    while checked < 1000:
        g, y = admissible[i % len(admissible)]
        i += 1
        c = harmonic_sample_in_basis_set(o, y, 4, rng)
        d = harmonic_sample_in_basis_set(o, y, 4, rng)
        failures += not equicontinuity_check(g, o, y, c, d)
        checked += 1
    ok = failures == 0
    # partition check for two generator sets at word length 4
    ok &= partition_check(gens, 4, o, cert.frame)
    gens2 = [cert.element, cert.conjugate(random_sl3z(random.Random(72))).element]
    ok &= partition_check(gens2, 4, o, cert.frame)
    # involution identity on 1e3 random vertex pairs
    vrng = random.Random(73)
    for _ in range(1000):
        a = random_vertex(p, vrng)
        b = random_vertex(p, vrng)
        ok &= vector_distance(b, a) == opposition_involution(vector_distance(a, b))
    report(7, ok, f"{time.time()-t0:.0f}s, failures={failures}")


def test_criterion_08_strip_growth():
    """Exponent in [1.8, 2.2] over R <= 20 for 3 opposite pairs; count(1) = 7;
    every count(R) is the A2 lattice count of norms <= R^2."""
    t0 = time.time()
    p = 5
    x = standard_vertex(p)
    rng = make_rng(8000)
    pairs = []
    c1 = Flag.standard()
    while len(pairs) < 3:
        c2 = harmonic_sample(x, 4, rng)
        if is_opposite(c1, c2):
            pairs.append((c1, c2))
    ok = True
    exps = []
    for a, b in pairs:
        counts, expo = strip_growth(a, b, p, 20)
        ok &= counts[0][1] == 7
        ok &= 1.8 <= expo <= 2.2
        ok &= all(n == a2_ball_count(r) for r, n in counts)
        exps.append(round(expo, 3))
    report(8, ok, f"{time.time()-t0:.0f}s, exponents={exps}")


def test_criterion_09_walk_convergence_and_stationarity():
    """>= 95% of 1e3 seeded 200-step walks converge; estimates from two base
    vertices agree within 3 sigma on a fixed event list."""
    t0 = time.time()
    p = 3
    cert1, cert2 = schottky_pair(p, make_rng(909))
    gens = (cert1.element, cert1.element.inverse(),
            cert2.element, cert2.element.inverse())
    weights = (Fraction(1, 4),) * 4
    x1 = standard_vertex(p)
    converged = 0
    trials = 1000
    for t in range(trials):
        cfg = WalkConfig(p, gens, weights, 200, derive_seed(9000, t), x1)
        ok_t, _, _ = convergence_report(run_walk(cfg))
        converged += ok_t
    frac = converged / trials
    ok = frac >= 0.95
    # stationarity probe from two distinct starting vertices
    x2 = LatticeVertex.from_matrix(p, ((3, 1, 0), (0, 3, 1), (0, 0, 3)))
    y1 = growth_ray_vertex(x1, cert1.attracting, 1)
    y2 = growth_ray_vertex(x1, cert2.attracting, 1)
    events = [("toward_g1", x1, y1), ("toward_g2", x1, y2)]
    est1 = stationary_estimate(WalkConfig(p, gens, weights, 150, 91, x1),
                               250, events)
    est2 = stationary_estimate(WalkConfig(p, gens, weights, 150, 92, x2),
                               250, events)
    agreement = estimates_agree(est1, est2)
    ok &= all(agreement.values())
    report(9, ok, f"{time.time()-t0:.0f}s, converged={frac:.3f}, "
                  f"agree={agreement}")


def test_criterion_10_oracle_equivalence():
    """Fast paths match the independent oracles exactly, 1e3 cases each."""
    t0 = time.time()
    from sl3building.boundary import sector_membership, weyl_distance
    from sl3building.padic_linalg import smith_exponents
    rng = random.Random(101)
    ok = True
    # relative position against the permutation-table oracle
    for _ in range(1000):
        c = _rand_flag(rng)
        d = _rand_flag(rng)
        ok &= weyl_distance(c, d) == weyl_distance_oracle(c, d)
    # sector membership against the bounded enumeration oracle
    p = 2
    x = standard_vertex(p)
    cases = 0
    while cases < 1000:
        c = _rand_flag(rng, bound=4)
        y = random_vertex(p, rng)
        if dist2(x, y) > 9:
            continue
        cases += 1
        ok &= sector_membership(x, c, y) == sector_membership_oracle(x, c, y, 3)
    # minor-valuation Smith form against the elimination oracle
    for _ in range(1000):
        m = _rand_invertible(rng)
        ok &= smith_exponents(m, 3) == smith_elimination_oracle(m, 3)
    report(10, ok, f"{time.time()-t0:.0f}s")


def _rand_flag(rng, bound=6):
    while True:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(3))
                  for _ in range(3))
        if det3(m) != 0:
            return Flag.from_matrix(m)


def _rand_invertible(rng, lo=-9, hi=9):
    while True:
        m = tuple(tuple(rng.randint(lo, hi) for _ in range(3)) for _ in range(3))
        if det3(m) != 0:
            return m
