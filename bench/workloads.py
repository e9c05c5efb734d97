"""The four benchmark workloads, each shaped like one acceptance criterion.

A workload is a class with

* ``__init__(seed)``: the constructions the items need (certificates, the
  Schottky pair, triples, exact counts).  This is the set-up the benchmark
  times, together with interpreter start and imports;
* ``item(i)``: one closed-loop item.  It returns ``(record, ok)`` where
  ``record`` is a JSON-able value built with ``serialize.to_obj`` and ``ok``
  is the item's own mathematical check (always true where the check is over
  the whole run);
* ``finish()``: the run-level check over all items done, as a list of the
  item ids it fails (empty when the run passes);
* ``HOST_KERNEL``: the ``hostspeed`` kernel whose slowdown on a slow host
  follows the items' own.

Fixed structures (the Schottky pair, the north-south conjugators, the
barycenter triples) use the construction seeds of the acceptance criteria,
because the per-item cost depends strongly on them: the 200-step walk on the
Schottky pair of eight different seeds took 148-326 ms per walk at the median.
The benchmark seed drives everything drawn per item, so the library receives
only inputs generated from it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from sl3building.boundary import (
    Flag,
    apartment_from_opposite,
    boundary_retraction,
    chamber_order_in_frame,
    is_opposite,
)
from sl3building.building import standard_vertex
from sl3building.dynamics import (
    GroupElement,
    make_srh,
    north_south_limit,
    proximal_pair_check,
)
from sl3building.padic_linalg import det3
from sl3building.parabolics import family_flag, lower_flag, upper_flag
from sl3building.rng import derive_seed, make_rng
from sl3building.serialize import frac_to_str, to_obj
from sl3building.stochastics import (
    WalkConfig,
    basis_set_mass_estimate,
    convergence_report,
    count_at_vector_distance,
    harmonic_sample,
    run_walk,
)
from sl3building.triples import ChamberTriple, barycenter, construct_generic

STD_LINES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def rand_sl3(rng, bound=3):
    """A uniform draw from the SL3(Z) matrices with entries in [-bound, bound]."""
    while True:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(3))
                  for _ in range(3))
        if det3(m) == 1:
            return GroupElement.from_matrix(m)


def schottky_pair(p, seed, lam=(2, 1, 0)):
    """Two SRH certificates in proximal position, as in acceptance criterion 9."""
    cert1 = make_srh(STD_LINES, lam, p)
    rng = make_rng(seed)
    c3 = construct_generic(cert1.attracting, cert1.repelling, p, rng=rng, depth=4)
    x = standard_vertex(p)
    while True:
        cand = harmonic_sample(x, 4, rng)
        if is_opposite(cand, c3):
            frame = apartment_from_opposite(cand, c3)
            order = chamber_order_in_frame(frame, cand)
            cert2 = make_srh(tuple(frame.lines[i] for i in order), lam, p)
            if proximal_pair_check(cert1, cert2):
                return cert1, cert2


class Walk:
    """Criterion 9: 200-step walks on the Schottky pair, p = 3, lam = (2,1,0)."""

    P = 3
    STEPS = 200
    # big-integer arithmetic in C slows down less than allocating code:
    # over a 40 s run, log item time followed log kernel time with slope 0.80
    # for small_int against 0.49 for mixed
    HOST_KERNEL = "small_int"
    MIN_CONVERGED = Fraction(95, 100)

    def __init__(self, seed):
        self.seed = seed
        cert1, cert2 = schottky_pair(self.P, 909)
        self.gens = (cert1.element, cert1.element.inverse(),
                     cert2.element, cert2.element.inverse())
        self.weights = (Fraction(1, 4),) * 4
        self.base = standard_vertex(self.P)
        self.converged = {}

    def item(self, i):
        cfg = WalkConfig(self.P, self.gens, self.weights, self.STEPS,
                         derive_seed(self.seed, i), self.base)
        trace = run_walk(cfg)
        ok, n1, germ = convergence_report(trace)
        self.converged[i] = ok
        record = {"trace": to_obj(trace), "converged": ok, "n1": n1,
                  "germ": to_obj(germ) if germ is not None else None}
        return record, True

    def finish(self):
        done = len(self.converged)
        if done and Fraction(sum(self.converged.values()), done) >= self.MIN_CONVERGED:
            return []
        return sorted(i for i, ok in self.converged.items() if not ok)


class NorthSouth:
    """Criterion 3: power limits of depth-4 harmonic flags against retractions."""

    P = 3
    HOST_KERNEL = "mixed"

    def __init__(self, seed):
        self.seed = seed
        cert = make_srh(STD_LINES, (2, 1, 0), self.P)
        self.certs = (cert,
                      cert.conjugate(rand_sl3(random.Random(31))),
                      cert.conjugate(rand_sl3(random.Random(32))))
        self.base = standard_vertex(self.P)

    def item(self, i):
        cert = self.certs[i % 3]
        c = harmonic_sample(self.base, 4, make_rng(self.seed, i))
        limit = north_south_limit(cert, c, nmax=40, threshold=4)
        retr = boundary_retraction(cert.frame, cert.repelling, c, self.P)
        record = {"cert": i % 3, "flag": to_obj(c), "limit": to_obj(limit),
                  "retraction": to_obj(retr)}
        return record, limit == retr

    def finish(self):
        return []


class Barycenter:
    """Criterion 5: certified barycenters of triples moved by SL3(Z), p = 5."""

    P = 5
    RADIUS_CAP = 12
    HOST_KERNEL = "mixed"

    def __init__(self, seed):
        self.seed = seed
        rng = make_rng(5000)
        self.triples = [ChamberTriple.of(upper_flag(), lower_flag(), family_flag(1))]
        for _ in range(2):
            c3 = construct_generic(Flag.standard(), Flag.reversed_standard(),
                                   self.P, rng=rng, depth=4)
            self.triples.append(ChamberTriple.of(Flag.standard(),
                                                 Flag.reversed_standard(), c3))
        # The minimizers of the unmoved triples: the standard vertex alone,
        # for each (the benchmark's tests recompute them).  Stored, not
        # computed: computing them took 1.0 s of a 1.2 s set-up otherwise
        # made of imports, and set-up is timed against an import-only
        # calibration (hostspeed.spawn_s).
        self.minimizers = [frozenset({standard_vertex(self.P)})] * 3

    def item(self, i):
        k = i % 3
        g = rand_sl3(make_rng(self.seed, i)).matrix
        res = barycenter(self.triples[k].apply(g), self.P, self.RADIUS_CAP)
        moved = frozenset(v.apply(g) for v in self.minimizers[k])
        vertices = sorted((to_obj(v) for v in res.min_vertices),
                          key=lambda o: o["matrix"])
        record = {"triple": k, "certified": res.certified,
                  "min_value": repr(res.min_value),
                  "min_squares": list(res.min_squares),
                  "search_radius": res.search_radius, "min_vertices": vertices}
        return record, res.certified and moved == res.min_vertices

    def finish(self):
        return []


class Mass:
    """Criterion 2: the harmonic mass law |emp - 1/N| <= Z sigma per cell.

    Item i is one batch of BATCH samples in cell i mod 6; each cell continues
    a single rng stream.  Z is 5 rather than the criterion's 3: the check runs
    on every run at every seed, and at 3 sigma about 1.6% of correct runs
    would fail its six cells by chance alone, against 3e-6 at 5 sigma.
    """

    BATCH = 1000
    Z = 5
    HOST_KERNEL = "mixed"
    CELLS = tuple((p, lam) for p in (2, 3)
                  for lam in ((1, 0, 0), (1, 1, 0), (2, 1, 0)))

    def __init__(self, seed):
        self.vertices = {p: standard_vertex(p) for p in (2, 3)}
        self.counts = [count_at_vector_distance(self.vertices[p], lam)
                       for p, lam in self.CELLS]
        self.rngs = [make_rng(seed, p, lam[0], lam[1]) for p, lam in self.CELLS]
        self.hits = [0] * len(self.CELLS)
        self.trials = [0] * len(self.CELLS)
        self.items = [[] for _ in self.CELLS]

    def item(self, i):
        k = i % len(self.CELLS)
        p, lam = self.CELLS[k]
        emp = basis_set_mass_estimate(self.vertices[p], lam, self.BATCH,
                                      self.rngs[k])
        hits = int(emp * self.BATCH)
        self.hits[k] += hits
        self.trials[k] += self.BATCH
        self.items[k].append(i)
        record = {"p": p, "lam": list(lam), "count": self.counts[k],
                  "estimate": frac_to_str(emp),
                  "hits": hits, "trials": self.BATCH}
        return record, True

    def deviations(self):
        """Per-cell |emp - 1/N| in units of the binomial sigma at 1/N."""
        out = []
        for n, hits, trials in zip(self.counts, self.hits, self.trials):
            if not trials:
                out.append(0.0)
                continue
            target = 1 / n
            sigma = math.sqrt(target * (1 - target) / trials)
            out.append(abs(hits / trials - target) / sigma)
        return out

    def finish(self):
        failed = []
        for k, dev in enumerate(self.deviations()):
            if dev > self.Z:
                failed.extend(self.items[k])
        return sorted(failed)


WORKLOADS = {"walk": Walk, "northsouth": NorthSouth,
             "barycenter": Barycenter, "mass": Mass}
