"""Harmonic measures, random walks and strip growth.

The harmonic measure seen from a vertex x is the unique probability on
chambers at infinity invariant under the stabilizer of x; it gives every
cone-topology basis set U_x(y) mass 1/N, where N counts the vertices at the
same vector distance as y and comes from Macdonald's closed form.  The
sampler draws a uniformly random invertible matrix modulo p^k in the
stabilizer and pushes a base flag through it, which reproduces that measure
exactly on events of depth at most k.

Random walks multiply seeded generator choices and record, at every step, the
vector distance from the base vertex and the residue germ of the current
position; directional convergence is germ stabilization along the tail.  A
step whose letter undoes the last letter of the walk's reduced word returns
to a position already read, and reuses its record.

Strip growth counts the vertices of an opposite pair's own apartment by exact
squared distance from its base vertex; the counts are checked against the
theta series of the A2 lattice, and the growth exponent is a least-squares
fit, reported as a float.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .padic_linalg import (
    adjugate3,
    det3,
    identity,
    in_basis,
    mat_mul,
    mul_strip,
    residue_germ_parts,
    smith_left_transform,
    valuation_int,
)
from .building import (
    LatticeVertex,
    ResidueChamber,
    _eisenstein_ball,
    canonical_modp_vector,
    dist2,
    dominant,
    frame_vertex,
    is_regular,
)
from .boundary import (
    Flag,
    apartment_from_opposite,
    sector_membership,
)
from .rng import derive_seed, make_rng


class InsufficientConvergenceError(RuntimeError):
    """Raised when too few walk paths converge to estimate anything."""


class DrawBoundExceededError(RuntimeError):
    """Raised when a rejection loop meets its draw bound without a success."""


# ---------------------------------------------------------------------------
# harmonic sampling
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _entry_bounds(p, depth, exps):
    """(n, n.bit_length(), s) per entry in row order: entry (i, j) is s r,
    s = p^max(0, exps[i] - exps[j]), with r drawn below n = p^depth / s."""
    out = []
    for ei in exps:
        for ej in exps:
            s = p ** max(0, ei - ej)
            n = p ** depth // s
            out.append((n, n.bit_length(), s))
    return tuple(out)


def _random_stabilizer_matrix(p, depth, exps, rng):
    """A uniform matrix mod p^depth with a unit determinant keeping diag(p^exps).

    exps is ascending from exps[0] = 0; at (0, 0, 0) any such matrix comes.
    Entry (i, j) is s r (_entry_bounds), r drawn below n the way
    ``rng.randrange(n)`` draws it: r = rng.getrandbits(k) with
    k = n.bit_length(), drawn again while r >= n, so the Mersenne Twister
    stream is consumed word for word as by randrange; for k <= 32 a draw is
    the top k bits of one 32-bit word.  A matrix is kept when its
    determinant is nonzero mod p.

    Both loops end with probability one.  An entry draw is accepted with
    probability n / 2^k > 1/2.  Entries with a positive gap are multiples
    of p, so the matrix mod p is block upper triangular over the blocks of
    equal exponents, its other entries uniform mod p, and it is accepted
    with probability prod |GL_b(F_p)| / p^(b^2) over the blocks, at least
    (1 - 1/p)^3 >= 1/8; at exps = (0, 0, 0) it is |GL3(F_p)| / p^9 >= 168/512.
    """
    if depth <= exps[2]:  # mod p^0 no unit exists, and below n = 0 no draw
        raise ValueError(f"sampling depth must exceed {exps[2]}, got {depth}")
    bounds = _entry_bounds(p, depth, exps)
    getrandbits = rng.getrandbits
    while True:
        e = []
        for n, k, s in bounds:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            e.append(s * r)
        a, b, c, d, f, g, h, i, j = e
        if (a * (f * j - g * i) - b * (d * j - g * h) + c * (d * i - f * h)) % p:
            return ((a, b, c), (d, f, g), (h, i, j))


def _flag_of_product(m, k):
    """The flag of m k, read off the two columns it needs.

    Its line is column 0 of m k and its plane normal the cross product of
    columns 0 and 1.  m and k are invertible, so neither vector is zero.
    """
    (a, b, _), (d, e, _), (g, h, _) = k
    col0 = tuple(r0 * a + r1 * d + r2 * g for r0, r1, r2 in m)
    col1 = tuple(r0 * b + r1 * e + r2 * h for r0, r1, r2 in m)
    return Flag.spanned(col0, col1)


# Words drawn by one getrandbits call of _stabilizer_hit_count: 16 KiB of
# stream at a time, whatever the count.
_WORD_BLOCK = 4096


@lru_cache(maxsize=None)
def _draw_tables(q):
    """translate() tables (keep, drop) of the entry draws below q < 256.

    A draw is the top k = q.bit_length() bits t >> (8 - k) of a word's top
    byte t; drop lists the bytes whose draw is at least q, a rejection, and
    keep maps every byte to its draw.
    """
    shift = 8 - q.bit_length()
    return (bytes(t >> shift for t in range(256)),
            bytes(t for t in range(256) if t >> shift >= q))


@lru_cache(maxsize=None)
def _lane_tables(p):
    """translate() tables (residue, product, difference, nonzero) mod p.

    residue maps a byte t to t mod p, and nonzero to 1 or 0 as t is nonzero
    mod p or not.  product and difference are indexed by x p + y for
    residues x, y < p, p <= 13, so by a byte below p^2 <= 169: they give
    x y mod p and x - y mod p.
    """
    pairs = [(x, y) for x in range(p) for y in range(p)]
    return (bytes(t % p for t in range(256)),
            bytes(x * y % p for x, y in pairs).ljust(256, b"\0"),
            bytes((x - y) % p for x, y in pairs).ljust(256, b"\0"),
            bytes(t % p != 0 for t in range(256)))


@lru_cache(maxsize=None)
def _divisible_table(m):
    """translate() table mapping a byte t to 1 if m divides t, else to 0."""
    return bytes(t % m == 0 for t in range(256))


def _stabilizer_hit_count(p, depth, divisors, rng, count):
    """Hits among count calls of _random_stabilizer_matrix at exponents (0, 0, 0).

    A matrix k is a hit when divisors = (m10, m20, m21) divide k[1][0],
    k[2][0] and k[2][1].  rng is left in the state those count calls leave
    it in.

    For q = p^depth < 256 and p <= 13 no matrix is built: the candidates of
    a round are taken together, one byte lane per candidate.  Each entry
    draw of the per-draw loop takes one 32-bit word w and reads
    w >> (32 - k), k = q.bit_length() <= 8, the top k bits of its top byte
    t = w >> 24.  getrandbits(32 n) returns the next n words as one
    integer, the i-th word drawn in bits 32 i to 32 i + 31, so its
    ``to_bytes(4 n, "little")`` holds the top byte of the i-th word at
    offset 4 i + 3, and ``[3::4]`` is the top bytes in draw order.
    ``translate(keep, drop)`` deletes the rejected draws and maps the
    others to their values: what is left is the per-draw loop's stream of
    accepted entries, pending entries of the last round first.  Taken by
    nines, it gives that loop's candidate matrices, each kept or dropped by
    the same determinant test.

    Each round covers exactly the candidates of the per-draw loop.  With m
    matrices still to come and e < 9 entries pending, each of the m needs
    at least 9 more accepted entries, and an entry takes at least one word,
    so the per-draw loop would take at least 9 m - e more words.  A round
    draws n = min(9 m - e, _WORD_BLOCK) of them, all of which that loop
    consumes, and holds len(entries) <= e + n <= 9 m entries: its
    N = len(entries) // 9 candidates are at most m, so the loop examines
    every one of them, and the accepted ones and their hits are counted in
    bulk.  When the last matrix is accepted in a round, all N = m
    candidates were, the entries were exactly 9 m, and no word is left
    over.  Otherwise the entries past 9 N stay pending.

    No carry crosses a lane.  The entries' residues mod p are split into
    the nine slices ``r[s::9]``, slice s holding entry s of every
    candidate; slices are concatenated as bytes and read as one integer,
    lane i in byte i.  For lane integers X and Y with every lane below p,
    X p + Y is lane by lane x p + y <= p^2 - 1 <= 168 < 256, and
    ``to_bytes(len).translate(T)`` applies the table T of _lane_tables to
    every lane at once, leaving lanes below p again.  With entries
    a b c / d f g / h i j in row order, one product step on six slices
    gives (f j, g h, d i | g i, d j, f h), one difference step on its two
    halves the cofactors (C0, -C1, C2) = (f j - g i, g h - d j, d i - f h),
    and one product step with (a | b | c) the terms (a C0, -b C1, c C2).
    Their lane sum is below 3 p <= 39, again with no carry, and congruent
    to det k mod p, so the nonzero table maps it to a 0/1 accept lane.
    Three _divisible_table translations of the entries d, h and i give 0/1
    hit lanes; their AND with the accept lanes has the round's hits as its
    bit count.

    Everything else, q >= 256 or p >= 17 (where q < 256 means depth 1),
    calls _random_stabilizer_matrix once per draw and tests the matrix.
    """
    if depth < 1:
        raise ValueError(f"sampling depth must be at least 1, got {depth}")
    q = p ** depth
    m10, m20, m21 = divisors
    if q >= 256 or p > 13:
        hits = 0
        for _ in range(count):
            k = _random_stabilizer_matrix(p, depth, (0, 0, 0), rng)
            if k[1][0] % m10 == 0 and k[2][0] % m20 == 0 and k[2][1] % m21 == 0:
                hits += 1
        return hits
    keep, drop = _draw_tables(q)
    residue, mul, sub, nonzero = _lane_tables(p)
    d10, d20, d21 = (_divisible_table(m) for m in divisors)
    getrandbits = rng.getrandbits
    lanes = int.from_bytes
    pending = b""
    left = count
    hits = 0
    while left > 0:
        n = min(9 * left - len(pending), _WORD_BLOCK)
        words = getrandbits(32 * n).to_bytes(4 * n, "little")
        entries = pending + words[3::4].translate(keep, drop)
        size = len(entries) // 9
        cut = 9 * size
        r = entries[:cut].translate(residue)
        a, b, c, d, f, g, h, i, j = (r[0::9], r[1::9], r[2::9], r[3::9], r[4::9],
                                     r[5::9], r[6::9], r[7::9], r[8::9])
        x = lanes(f + g + d + g + d + f, "little") * p + \
            lanes(j + h + i + i + j + h, "little")
        prods = x.to_bytes(6 * size, "little").translate(mul)
        x = lanes(prods[:3 * size], "little") * p + lanes(prods[3 * size:], "little")
        cofactors = x.to_bytes(3 * size, "little").translate(sub)
        x = lanes(a + b + c, "little") * p + lanes(cofactors, "little")
        terms = x.to_bytes(3 * size, "little").translate(mul)
        x = lanes(terms[:size], "little") + lanes(terms[size:2 * size], "little") + \
            lanes(terms[2 * size:], "little")
        accept = lanes(x.to_bytes(size, "little").translate(nonzero), "little")
        hit = (lanes(entries[3:cut:9].translate(d10), "little")
               & lanes(entries[6:cut:9].translate(d20), "little")
               & lanes(entries[7:cut:9].translate(d21), "little"))
        left -= accept.bit_count()
        hits += (accept & hit).bit_count()
        pending = entries[cut:]
    return hits


def harmonic_sample(x, depth, rng):
    """A flag drawn from the depth-k discretization of the harmonic measure at x.

    Exact on events measurable at depth k; deeper events carry a truncation
    bias on the p^-k scale.
    """
    return _flag_of_product(
        x.matrix, _random_stabilizer_matrix(x.p, depth, (0, 0, 0), rng))


def harmonic_sample_in_basis_set(x, y, depth, rng):
    """A harmonic draw conditioned on the basis set U_x(y).

    In an adapted basis the lattice of y is diagonal with ascending
    exponents; the stabilizer elements keeping the sampled flag's sector
    through y form the subgroup _random_stabilizer_matrix samples at those
    exponents, and pushing the adapted base flag through it realizes the
    conditioned measure exactly at the sampling depth.  Raises ValueError
    unless depth exceeds the exponent range of y.
    """
    p = x.p
    n = mat_mul(adjugate3(x.matrix), y.matrix)
    left, exps = smith_left_transform(n, p)
    norm = tuple(e - exps[0] for e in exps)
    k = _random_stabilizer_matrix(p, depth, norm, rng)
    return _flag_of_product(mat_mul(x.matrix, left), k)


def basis_set_mass_estimate(x, lam, trials, rng):
    """Empirical harmonic mass of a basis set U_x(y) with theta(x, y) = lam.

    Uses the diagonal representative y, with d_y = diag(1, p^a2, p^a1) for
    dominant lam = (a1, a2, 0), and tests the sampled stabilizer element k
    directly.  The sampled chamber's sector passes through y exactly when k
    fixes the lattice of y, that is when d_y^-1 k d_y is integral (det k is
    a unit): p^a2 | k[1][0], p^a1 | k[2][0] and p^(a1 - a2) | k[2][1], the
    subgroup _random_stabilizer_matrix samples at exponents (0, a2, a1).
    The event is measurable at depth a1 + a2 + 1, where the discretized
    sampler reproduces the harmonic measure exactly, so deviations are
    purely binomial.

    The hits are counted by _stabilizer_hit_count, with the results and the
    final state of rng of trials calls of _random_stabilizer_matrix at
    exponents (0, 0, 0).  For p^depth < 256 and p <= 13 it reads the
    Mersenne Twister words in rounds of blocks, each holding only
    candidates the per-draw loop would examine, and decides a round's
    candidates together, one byte lane per candidate: translate() steps
    through product and difference tables mod p take the cofactors and the
    terms of det k, a nonzero table on their lane sum gives the accept
    lanes, three divisibility tables the hit lanes, and bit counts the
    round's totals.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    a1, a2, _ = dominant(lam)
    p = x.p
    hits = _stabilizer_hit_count(p, a1 + a2 + 1, (p ** a2, p ** a1, p ** (a1 - a2)),
                                 rng, trials)
    return Fraction(hits, trials)


def count_at_vector_distance(x, lam):
    """Exact number of vertices at vector distance lam from x.

    Macdonald's closed form (Macdonald 1971, "Spherical functions on a group
    of p-adic type"): with dominant lam = (a1, a2, 0), m = a1 - a2, n = a2
    and q = p, the count is 1 at m = n = 0, (q^2+q+1) q^(2(max(m, n)-1))
    when exactly one of m, n is 0, and (q^2+q+1)(q^2+q) q^(2(m+n-2))
    otherwise.
    """
    a1, a2, _ = dominant(lam)
    q = x.p
    m, n = a1 - a2, a2
    if m == 0 and n == 0:
        return 1
    if m == 0 or n == 0:
        return (q * q + q + 1) * q ** (2 * (max(m, n) - 1))
    return (q * q + q + 1) * (q * q + q) * q ** (2 * (m + n - 2))


# ---------------------------------------------------------------------------
# random walks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkConfig:
    """Seeded random walk setup.

    weights must be positive rationals summing to one; support admissibility
    (semigroup generation) is the caller's responsibility, but a deterministic
    single-generator walk is allowed and useful as a calibration case.
    """

    p: int
    generators: tuple
    weights: tuple
    steps: int
    seed: int
    base_vertex: LatticeVertex

    def __post_init__(self):
        if not self.generators:
            raise ValueError("walk needs at least one generator")
        if len(self.weights) != len(self.generators):
            raise ValueError("one weight per generator")
        ws = [Fraction(w) for w in self.weights]
        if any(w <= 0 for w in ws):
            raise ValueError("weights must all be positive")
        if sum(ws) != 1:
            raise ValueError("weights must sum to 1")
        if type(self.steps) is not int or self.steps < 0:
            raise ValueError(f"steps must be an int >= 0, got {self.steps!r}")

    def thresholds(self):
        ws = [Fraction(w) for w in self.weights]
        den = math.lcm(*(w.denominator for w in ws))
        return den, list(accumulate(int(w * den) for w in ws))


@dataclass(frozen=True)
class WalkStep:
    n: int
    letter: int  # generator index of the increment, -1 for the start record
    theta: tuple
    germ: ResidueChamber | None
    germ_run: int  # consecutive steps with this same germ, 0 when irregular


@dataclass(frozen=True)
class WalkTrace:
    config: WalkConfig
    steps: tuple
    final_position: LatticeVertex

    @property
    def final_theta(self):
        return self.steps[-1].theta


def _position_record(n, letter, rel, d, prev_germ, prev_run, p):
    """The walk step at position rel, of content 1, with d = v_p(det rel).

    rel has no p-content, so its elementary-divisor exponents are
    (0, e2, d - e2) with e2 <= d - e2, and the vector distance is
    (d - e2, e2, 0), e2 the least 2x2-minor valuation.  Both e2 and the germ
    are read off rel mod p^(floor(d/2) + 1) (``residue_germ_parts``): e2 is at
    most floor(d/2), and the 2x2 minors mod that modulus are the true ones,
    so e2 stays e2 and so do the mod-p images of rel and of its adjugate
    divided by p^e2.  A germ equal to prev_germ is prev_germ itself.
    """
    q = p ** (d // 2 + 1)
    (a, b, c), (e, f, g), (h, i, j) = rel
    e2, line, normal = residue_germ_parts(
        ((a % q, b % q, c % q), (e % q, f % q, g % q), (h % q, i % q, j % q)), p)
    theta = (d - e2, e2, 0)
    germ = None
    run = 0
    if is_regular(theta) and line is not None and normal is not None:
        line = canonical_modp_vector(line, p)
        normal = canonical_modp_vector(normal, p)
        if prev_germ is not None and prev_germ.line == line \
                and prev_germ.plane_normal == normal:
            germ, run = prev_germ, prev_run + 1
        else:
            germ, run = ResidueChamber.from_parts(p, line, normal), 1
    return WalkStep(n, letter, theta, germ, run)


def _is_scalar(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return not (b or c or d or f or g or h) and a == e == i


def run_walk(config):
    """Deterministic seeded walk; the trace is a pure function of the config.

    The position is held in the coordinates of the base matrix B: after the
    letters g_1, ..., g_n it is rel, the content-stripped integer product of
    the matrices G_i, G = ``in_basis(B, num)`` for a generator's numerator.
    Since B adj(B) = det(B) I and scalars leave lattice classes alone, rel
    is proportional to adj(B) z B for the product z of the letters'
    numerators, and B rel spans the vertex reached.  v_p(det rel) is kept as
    a running sum: a letter adds v_p(det G), and stripping a content g
    subtracts 3 v_p(g); g divides |det G|, which seeds its gcd
    (``mul_strip``).  Each step is read off rel mod p^(floor(D/2) + 1),
    D that determinant valuation (see _position_record).

    The walk follows the reduced word of its letters.  Letter j undoes
    letter i when G_i G_j is a scalar matrix; the pairs are found once per
    walk, from integer products.  A letter that undoes the last letter of
    the reduced word removes it (a pop), any other letter is appended (a
    push).  The lemma: a pop's record is that of the prefix it returns to.
    If the prefix's position is rel, the pop's is rel G_i G_j = c rel for
    an integer c, content stripped; rel has content 1, so that is +-rel.
    The lattice class of B rel, theta, D and the germ are all unchanged by
    a sign, so they are the prefix's.  Only this scalar identity is used,
    whatever other relations the generators satisfy; an involution
    (G_i G_i scalar) undoes itself, and duplicate inverse letters each
    undo the letter they invert.  By induction every entry of the word is
    the record of its prefix, so a pop reads theta and the germ from the
    entry below the removed one and calls no germ kernel; germ_run is still
    counted against the previous step's germ.

    ``word`` holds one (letter, WalkStep) pair per prefix of the reduced
    word, records only, so memory is O(steps).  rel is not kept per prefix:
    its entries grow by a few bits a step, so a stack of them would take
    memory quadratic in steps.  One undo slot keeps the (rel, D) from
    before the last step when that step was a push, and a pop right after
    it restores them; a deeper pop multiplies by its letter as a push does.
    """
    p = config.p
    rng = make_rng(config.seed)
    den, cum = config.thresholds()
    b = config.base_vertex.matrix
    gens = [in_basis(b, g.num) for g in config.generators]
    gens_det = [abs(det3(g)) for g in gens]
    gens_dv = [valuation_int(d, p) for d in gens_det]
    undoes = [[_is_scalar(mat_mul(gi, gj)) for gj in gens] for gi in gens]
    rel, d = identity(), 0
    step = _position_record(0, -1, rel, d, None, 0, p)
    steps = [step]
    word = [(-1, step)]
    undo = None
    for n in range(1, config.steps + 1):
        idx = bisect_right(cum, rng.randrange(den))
        last = word[-1][0]
        if last >= 0 and undoes[last][idx]:
            word.pop()
            if undo is None:
                rel, g = mul_strip(rel, gens[idx], gens_det[idx])
                d += gens_dv[idx] - 3 * valuation_int(g, p)
            else:
                rel, d = undo
                undo = None
            back = word[-1][1]
            germ = back.germ
            run = 0
            if germ is not None:
                run = step.germ_run + 1 if germ == step.germ else 1
            step = WalkStep(n, idx, back.theta, germ, run)
        else:
            undo = rel, d
            rel, g = mul_strip(rel, gens[idx], gens_det[idx])
            d += gens_dv[idx] - 3 * valuation_int(g, p)
            step = _position_record(n, idx, rel, d, step.germ, step.germ_run, p)
            word.append((idx, step))
        steps.append(step)
    final = LatticeVertex.from_matrix(p, mat_mul(b, rel))
    return WalkTrace(config, tuple(steps), final)


def convergence_report(trace, window=3):
    """Directional convergence: regular type and constant residue germ on the tail.

    Returns (converged, stabilization_time, germ).  The detector requires the
    germ to exist and stay constant from some step n1 through the end of the
    trace, with a tail of at least `window` steps; n1 is the earliest such
    step.
    """
    steps = trace.steps
    if len(steps) < window + 1:
        return False, None, None
    last = steps[-1]
    if last.germ is None:
        return False, None, None
    run = last.germ_run
    if run < window:
        return False, None, None
    n1 = last.n - run + 1
    return True, n1, last.germ


def direction_estimate(base, z_vertex):
    """The ideal chamber whose sector at the base vertex contains the position.

    Defined for regular positions: the flag of the adapted basis ordered by
    increasing exponents.
    """
    p = base.p
    n = mat_mul(adjugate3(base.matrix), z_vertex.matrix)
    left, exps = smith_left_transform(n, p)
    if not (exps[0] < exps[1] < exps[2]):
        return None
    return _flag_of_product(base.matrix, left)


@dataclass(frozen=True)
class EventEstimate:
    label: str
    frequency: Fraction
    radius_3sigma: float
    trials_used: int


def stationary_estimate(config, trials, events, min_converged=Fraction(1, 2),
                        window=3):
    """Empirical limit-direction masses of basis-set events over seeded trials.

    events is a sequence of (label, x, y) with U_x(y) the event.  Each trial
    runs an independent walk (seed derived from the config seed and the trial
    index), keeps it when the convergence detector fires, and classifies the
    estimated limit chamber against each event.  Raises ValueError for
    trials < 1 and InsufficientConvergenceError when fewer than
    min_converged of the trials, or none of them, converge.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    converged = 0
    hits = {label: 0 for label, _, _ in events}
    for t in range(trials):
        cfg = WalkConfig(config.p, config.generators, config.weights,
                         config.steps, derive_seed(config.seed, t),
                         config.base_vertex)
        trace = run_walk(cfg)
        ok, _, _ = convergence_report(trace, window)
        if not ok:
            continue
        chamber = direction_estimate(config.base_vertex, trace.final_position)
        if chamber is None:
            continue
        converged += 1
        for label, x, y in events:
            if sector_membership(x, chamber, y):
                hits[label] += 1
    if converged == 0 or Fraction(converged, trials) < min_converged:
        raise InsufficientConvergenceError(
            f"only {converged}/{trials} walks converged")
    out = []
    for label, _, _ in events:
        f = Fraction(hits[label], converged)
        sigma = math.sqrt(float(f) * (1 - float(f)) / converged)
        out.append(EventEstimate(label, f, 3 * sigma, converged))
    return out


def within_three_sigma(frequency, target, trials):
    """|frequency - target| <= 3 * sqrt(target (1 - target) / trials), exactly.

    Decided squared, in rationals: (frequency - target)^2 * trials <=
    9 * target * (1 - target).
    """
    return (frequency - target) ** 2 * trials <= 9 * target * (1 - target)


def estimates_agree(est1, est2):
    """Two-sample agreement within three pooled binomial standard errors.

    Decided squared, in rationals: (f1 - f2)^2 <= 9 P (1 - P) (1/n1 + 1/n2)
    with P the pooled frequency.
    """
    out = {}
    for a, b in zip(est1, est2):
        n1, n2 = a.trials_used, b.trials_used
        f1, f2 = Fraction(a.frequency), Fraction(b.frequency)
        pooled = (f1 * n1 + f2 * n2) / (n1 + n2)
        out[a.label] = (f1 - f2) ** 2 <= \
            9 * pooled * (1 - pooled) * Fraction(n1 + n2, n1 * n2)
    return out


# ---------------------------------------------------------------------------
# strip growth
# ---------------------------------------------------------------------------

def a2_ball_count(r):
    """Number of apartment vertices within CAT(0) distance r of a vertex.

    The vertices of an apartment form the A2 lattice, and ``dist2`` between
    the frame vertices at exponents (i, j, 0) and (0, 0, 0) is its norm
    i^2 - ij + j^2.  It has r(0) = 1 vector of norm 0 and
    r(n) = 6 (d_{1,3}(n) - d_{2,3}(n)) of norm n >= 1, where d_{k,3}(n)
    counts the divisors of n congruent to k mod 3 (Conway and Sloane, SPLAG,
    ch. 4, 6.2).  Summing over n <= r^2 divisor by divisor, a divisor m
    occurs in r^2 // m of the norms.
    """
    n = r * r
    return 1 + 6 * sum((n // m) * (1 if m % 3 == 1 else -1)
                       for m in range(1, n + 1) if m % 3)


def strip_growth(c1, c2, p, r_max):
    """Vertex counts of the apartment spanned by an opposite pair, by radius.

    Returns (R, count of the apartment's vertices within CAT(0) distance R
    of its base vertex o) for R = 1..r_max and the least-squares exponent of
    log count against log R, nan for fewer than two radii.  The counts are
    read off the sorted exact dist2(o, v) over the frame vertices v with
    exponents (i, j, 0), (i, j) in the Eisenstein ball of norm r_max^2, which
    holds every apartment vertex within r_max of o.  An apartment is a
    Euclidean plane of vertices, so the exponent is 2 up to boundary terms.
    Raises NotOppositeError for a pair that spans no apartment.
    """
    frame = apartment_from_opposite(c1, c2)
    o = frame_vertex(frame, p)
    d2 = sorted(dist2(o, frame_vertex(frame, p, (i, j, 0)))
                for i, j, _ in _eisenstein_ball(r_max * r_max))
    counts = [(r, bisect_right(d2, r * r)) for r in range(1, r_max + 1)]
    if len(counts) < 2:
        return counts, float("nan")
    fit = statistics.linear_regression([math.log(r) for r, _ in counts],
                                       [math.log(n) for _, n in counts])
    return counts, fit.slope
