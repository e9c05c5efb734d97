"""Seeded batch experiments with structured outputs.

One subcommand per experiment family:

* ``dynamics``: power-iteration limits against boundary retractions.
* ``barycenter``: certified minimizer sets and their equivariance.
* ``walk``: seeded random walks and the convergence detector.
* ``measure``: harmonic basis-set masses against the exact counting law.
* ``equicont``: equicontinuity and partition checks.
* ``strip``: apartment vertex growth.
* ``appendix``: the explicit Borel family verdict table.
* ``selftest``: a battery of the module property checks.

Configs are YAML mappings with exact rationals as "num/den" strings; outputs
are a newline-delimited JSON record log plus a CSV aggregate table, both
carrying the config hash and master seed.  Identical (config, seed) runs are
bit-identical.  Exit codes: 0 success, 2 config error, 3 horizon, draw
bound or certification failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from itertools import product

import yaml

from .padic_linalg import det3, identity, is_prime, lattice_canonical, mat_mul
from .building import (
    dist2,
    is_regular,
    opposition_involution,
    random_vertex,
    standard_vertex,
    vector_distance,
)
from .boundary import (
    Flag,
    HorizonExceededError,
    boundary_retraction,
    growth_ray_vertex,
    is_opposite,
    retraction,
)
from .dynamics import (
    GroupElement,
    enumerate_reduced_words,
    equicontinuity_check,
    equicontinuity_set_member,
    make_srh,
    north_south_limit,
    partition_check,
    random_sl3z,
    schottky_pair,
)
from .triples import (
    ChamberTriple,
    barycenter,
    construct_generic,
    is_generic,
)
from .stochastics import (
    DrawBoundExceededError,
    WalkConfig,
    a2_ball_count,
    basis_set_mass_estimate,
    convergence_report,
    count_at_vector_distance,
    harmonic_sample,
    harmonic_sample_in_basis_set,
    strip_growth,
    within_three_sigma,
)
from .stochastics import run_walk as _run_walk
from .parabolics import (
    family_flag,
    lower_flag,
    pairwise_position_report,
    stabilizes_flag,
    torus_family_member,
    upper_flag,
)
from .rng import derive_seed, make_rng
from .serialize import (
    ParseError,
    frac_to_str,
    from_obj,
    int_vector,
    list_of,
    obj_to_matrix,
    str_to_frac,
    to_obj,
)

SUBCOMMANDS = ("dynamics", "barycenter", "walk", "measure", "equicont",
               "strip", "appendix", "selftest")


class ConfigError(ValueError):
    pass


_SCHEMAS = {
    "dynamics": {"p": 5, "lam": [2, 1, 0], "flags_per_cert": 20,
                 "conjugators": 2, "depth": 4, "nmax": 40, "threshold": 4},
    "barycenter": {"p": 5, "transports": 3, "radius_cap": 12, "depth": 4,
                   "triples": 2},
    "walk": {"p": 3, "steps": 150, "trials": 40, "depth": 4, "window": 3,
             "generators": None, "weights": None},
    "measure": {"p_values": [2, 3], "lams": [[1, 0, 0], [1, 1, 0], [2, 1, 0]],
                "trials": 4000},
    "equicont": {"p": 5, "samples": 60, "word_length": 3, "partition_length": 3,
                 "depth": 4},
    "strip": {"p": 5, "pairs": 3, "r_max": 20, "depth": 4},
    "appendix": {"t_values": [1, 2, 3, 5, -2, 7, 0, -1], "samples": 50},
    "selftest": {"p": 3, "budget": 40},
}


def load_config(name, path):
    defaults = dict(_SCHEMAS[name])
    data = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = yaml.safe_load(fh) or {}
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a mapping")
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys for {name}: {sorted(unknown)}")
    defaults.update(data)
    _validate(name, defaults)
    return defaults


def _validate(name, cfg):
    if name == "measure":
        if not (isinstance(cfg["p_values"], list) and cfg["p_values"]):
            raise ConfigError("p_values must be a nonempty list of primes")
        lams = _parse(list_of(int_vector), cfg["lams"], "lams")
        # the sampler works modulo p^(a1 + a2 + 1) and N grows like p^(2 a1)
        if any(max(lam) - min(lam) > 1000 for lam in lams):
            raise ConfigError("each entry of lams must span at most 1000")
    primes = ([cfg["p"]] if "p" in cfg else []) + list(cfg.get("p_values", []))
    for p in primes:
        if not (type(p) is int and p < 2 ** 31 and is_prime(p)):
            raise ConfigError("p and p_values entries must be primes below 2^31, "
                              f"got {p!r}")
    # the strip fit needs two radii; the equicont probes sit at vector
    # distance (2, 1, 0), and sampling their basis sets needs depth above 2
    lows = {"trials": 1, "r_max": 2, "depth": 3 if name == "equicont" else 1}
    for key, default in _SCHEMAS[name].items():
        low = lows.get(key, 0)
        # type(v) is int refuses YAML booleans, which are ints in Python
        if key != "p" and type(default) is int and not (
                type(cfg[key]) is int and cfg[key] >= low):
            raise ConfigError(f"{key} must be an integer >= {low}")
    if name == "appendix":
        _parse(list_of(str_to_frac), cfg["t_values"], "t_values")
    if name in ("barycenter", "walk") and cfg["p"] == 2 and \
            cfg["depth"] == 1 and cfg.get("generators") is None:
        # At depth 1 a harmonic draw at the standard vertex is the flag of a
        # 0/1 matrix when p = 2.  A completion must be opposite all six
        # coordinate chambers: no entry of its line or normal may vanish.
        # So the line is (1, 1, 1), and (1, 1, 1) x v = (v2 - v1, v0 - v2,
        # v1 - v0) has a zero entry for every 0/1 vector v, since two of
        # v0, v1, v2 agree; construct_generic can never succeed.  The walk
        # draws its default Schottky pair through it.
        raise ConfigError(f"{name} needs depth >= 2 at p = 2: no depth-1 "
                          "draw completes a generic triple")
    if name == "dynamics":
        lam = _parse(int_vector, cfg["lam"], "lam")
        if not is_regular(lam) or lam[2] != 0 or (lam[0] + lam[1]) % 3 != 0:
            raise ConfigError("lam must be regular with lam[2] = 0 and "
                              f"lam[0] + lam[1] divisible by 3, got {cfg['lam']}")
        # a horizon costs O(nmax) steps, and the element's entries grow
        # like p^lam[0]; as for measure's lams, keep a run to seconds
        if cfg["nmax"] > 10_000 or lam[0] > 100_000:
            raise ConfigError("nmax must be at most 10000 and lam[0] at "
                              "most 100000")
    if name == "walk":
        if (cfg["generators"] is None) != (cfg["weights"] is None):
            raise ConfigError("generators and weights must be given together")
        if cfg["generators"] is not None:
            try:  # GroupElement refuses det != 1, and WalkConfig the weights
                WalkConfig(cfg["p"], *_walk_generators(cfg, None), 0, 0,
                           standard_vertex(cfg["p"]))
            except ValueError as exc:  # ParseError is a ValueError
                raise ConfigError(str(exc)) from exc


def _parse(parser, obj, where):
    try:
        return parser(obj, where)
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, default=str).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# subcommand runners: each returns (records, aggregate_rows, exit_code)
# ---------------------------------------------------------------------------

def run_dynamics(cfg, seed):
    p = cfg["p"]
    rng = make_rng(seed, 1)
    certs = [make_srh(identity(), tuple(cfg["lam"]), p)]
    for _ in range(cfg["conjugators"]):
        certs.append(certs[0].conjugate(random_sl3z(rng)))
    records, rows = [], []
    x = standard_vertex(p)
    failures = 0
    for ci, cert in enumerate(certs):
        matches = 0
        for fi in range(cfg["flags_per_cert"]):
            flag = harmonic_sample(x, cfg["depth"], make_rng(seed, 2, ci, fi))
            try:
                limit = north_south_limit(cert, flag, cfg["nmax"], cfg["threshold"])
                retr = boundary_retraction(cert.frame, cert.repelling, flag, p)
                match = limit == retr
            except HorizonExceededError:
                failures += 1
                records.append({"cert": ci, "flag": fi, "status": "horizon"})
                continue
            matches += match
            failures += not match
            records.append({"cert": ci, "flag": fi, "status": "ok",
                            "match": match, "limit": to_obj(limit)})
        rows.append({"cert": ci, "flags": cfg["flags_per_cert"],
                     "matches": matches})
    return records, rows, (0 if failures == 0 else 3)


def run_barycenter(cfg, seed):
    p = cfg["p"]
    triples = [ChamberTriple.of(upper_flag(), lower_flag(), family_flag(1))]
    rng = make_rng(seed, 3)
    base1, base2 = Flag.standard(), Flag.reversed_standard()
    for _ in range(max(0, cfg["triples"] - 1)):
        c3 = construct_generic(base1, base2, p, rng=rng, depth=cfg["depth"])
        triples.append(ChamberTriple.of(base1, base2, c3))
    records, rows = [], []
    bad = 0
    for ti, triple in enumerate(triples):
        res = barycenter(triple, p, radius_cap=cfg["radius_cap"])
        equal = 0
        for gi in range(cfg["transports"]):
            g = random_sl3z(make_rng(seed, 4, ti, gi)).num
            moved = frozenset(v.apply(g) for v in res.min_vertices)
            res_g = barycenter(triple.apply(g), p,
                               radius_cap=cfg["radius_cap"])
            ok = res.certified and res_g.certified and moved == res_g.min_vertices
            equal += ok
            bad += not ok
            records.append({"triple": ti, "transport": gi, "certified": res_g.certified,
                            "equivariant": ok,
                            "vertices": [to_obj(v) for v in sorted(
                                res_g.min_vertices, key=lambda v: str(v.matrix))]})
        rows.append({"triple": ti, "radius": res.search_radius,
                     "certified": res.certified, "min_vertices": len(res.min_vertices),
                     "equivariant_transports": equal})
    return records, rows, (0 if bad == 0 else 3)


def _walk_generators(cfg, seed):
    if cfg["generators"] is not None:
        gens = list_of(obj_to_matrix)(cfg["generators"], "generators")
        return (tuple(GroupElement.from_matrix(m) for m in gens),
                list_of(str_to_frac)(cfg["weights"], "weights"))
    cert1, cert2 = schottky_pair(cfg["p"], make_rng(seed, 0xC0), cfg["depth"])
    gens = (cert1.element, cert1.element.inverse(),
            cert2.element, cert2.element.inverse())
    return gens, (Fraction(1, 4),) * 4


def run_walk(cfg, seed):
    p = cfg["p"]
    gens, weights = _walk_generators(cfg, seed)
    base = standard_vertex(p)
    records, converged = [], 0
    for t in range(cfg["trials"]):
        wc = WalkConfig(p, gens, weights, cfg["steps"], derive_seed(seed, 5, t), base)
        trace = _run_walk(wc)
        ok, n1, germ = convergence_report(trace, cfg["window"])
        converged += ok
        records.append({"trial": t, "converged": ok, "n1": n1,
                        "theta_final": list(trace.final_theta),
                        "germ": to_obj(germ) if germ else None})
    rows = [{"trials": cfg["trials"], "converged": converged,
             "fraction": f"{converged}/{cfg['trials']}"}]
    return records, rows, 0


def run_measure(cfg, seed):
    records, rows = [], []
    bad = 0
    for p in cfg["p_values"]:
        x = standard_vertex(p)
        for lam in cfg["lams"]:
            lam_t = tuple(lam)
            n_exact = count_at_vector_distance(x, lam_t)
            rng = make_rng(seed, 6, p, lam_t[0], lam_t[1])
            emp = basis_set_mass_estimate(x, lam_t, cfg["trials"], rng)
            target = Fraction(1, n_exact)
            sigma = math.sqrt(float(target) * (1 - float(target)) / cfg["trials"])
            ok = within_three_sigma(emp, target, cfg["trials"])
            bad += not ok
            records.append({"p": p, "lam": list(lam_t), "N": n_exact,
                            "empirical": frac_to_str(emp),
                            "target": frac_to_str(target),
                            "sigma": sigma, "pass": ok})
            rows.append({"p": p, "lam": "+".join(map(str, lam_t)), "N": n_exact,
                         "empirical": float(emp), "target": float(target),
                         "pass": ok})
    return records, rows, (0 if bad == 0 else 3)


def run_equicont(cfg, seed):
    p = cfg["p"]
    o = standard_vertex(p)
    cert = make_srh(identity(), (2, 1, 0), p)
    frame = cert.frame
    gens = [cert.element, cert.conjugate(random_sl3z(make_rng(seed, 7))).element]
    words = enumerate_reduced_words(gens, cfg["word_length"])
    probes = [growth_ray_vertex(o, c, 1)
              for c in (cert.attracting, cert.repelling)]
    records, failures, checked = [], 0, 0
    rng = make_rng(seed, 8)
    for g, y in product(words, probes):
        if checked >= cfg["samples"]:
            break
        if not equicontinuity_set_member(g, o, y):
            continue
        c = harmonic_sample_in_basis_set(o, y, cfg["depth"], rng)
        d = harmonic_sample_in_basis_set(o, y, cfg["depth"], rng)
        ok = equicontinuity_check(g, o, y, c, d)
        checked += 1
        failures += not ok
        records.append({"word": list(g.word or ()), "ok": ok})
    part = partition_check(gens, cfg["partition_length"], o, frame)
    records.append({"partition_check": part})
    rows = [{"checked": checked, "failures": failures, "partition": part}]
    return records, rows, (0 if failures == 0 and part else 3)


def run_strip(cfg, seed):
    p = cfg["p"]
    rng = make_rng(seed, 9)
    x = standard_vertex(p)
    pairs = []
    c1 = Flag.standard()
    # Each draw is Flag.from_matrix(k), k uniform on GL3(F_p) mod p, and it
    # is opposite c1 when k20 and k10 k21 - k20 k11 are nonzero mod p, hence
    # nonzero integers: probability p^3 / ((p^2+p+1)(p+1)) >= 8/21 per draw.
    while len(pairs) < cfg["pairs"]:
        c2 = harmonic_sample(x, cfg["depth"], rng)
        if is_opposite(c1, c2):
            pairs.append((c1, c2))
    records, rows = [], []
    bad = 0
    for pi, (a, b) in enumerate(pairs):
        counts, expo = strip_growth(a, b, p, cfg["r_max"])
        ok = all(n == a2_ball_count(r) for r, n in counts)
        bad += not ok
        records.append({"pair": pi, "counts": counts, "exponent": expo, "pass": ok})
        rows.append({"pair": pi, "exponent": round(expo, 4),
                     "count_r1": counts[0][1], "pass": ok})
    return records, rows, (0 if bad == 0 else 3)


def run_appendix(cfg, seed):
    records, rows = [], []
    bad = 0
    for t in cfg["t_values"]:
        t_frac = str_to_frac(t, "t_values")
        rep = pairwise_position_report(t_frac)
        expected = t_frac not in (0, -1)
        ok = rep.generic == expected
        bad += not ok
        records.append({"t": frac_to_str(t_frac), "generic": rep.generic,
                        "expected": expected,
                        "oppositions": {pp.pair[0]: pp.opposite for pp in rep.pairs},
                        "witnesses": dict(rep.line_in_plane_witnesses)})
        rows.append({"t": frac_to_str(t_frac), "generic": rep.generic,
                     "expected": expected, "pass": ok})
    rng = make_rng(seed, 10)
    hom_ok = stab_ok = 0
    for _ in range(cfg["samples"]):
        a = Fraction(rng.randrange(1, 50), rng.randrange(1, 20))
        e = Fraction(rng.randrange(1, 50), rng.randrange(1, 20))
        a2 = Fraction(rng.randrange(1, 50), rng.randrange(1, 20))
        e2 = Fraction(rng.randrange(1, 50), rng.randrange(1, 20))
        m = torus_family_member(a, e)
        hom_ok += mat_mul(m, torus_family_member(a2, e2)) == \
            torus_family_member(a * a2, e * e2)
        stab_ok += det3(m) == 1 and stabilizes_flag(m, upper_flag()) and \
            stabilizes_flag(m, family_flag(1))
    records.append({"homomorphism_samples": cfg["samples"], "homomorphism_ok": hom_ok,
                    "double_stabilization_ok": stab_ok})
    bad += (hom_ok != cfg["samples"]) + (stab_ok != cfg["samples"])
    return records, rows, (0 if bad == 0 else 3)


def run_selftest(cfg, seed):
    """Compact property battery over every module; see the test suite for more."""
    p = cfg["p"]
    n = cfg["budget"]
    rng = make_rng(seed, 11)
    x = standard_vertex(p)
    records = []
    failures = 0

    def check(name, ok):
        nonlocal failures
        failures += not ok
        records.append({"check": name, "pass": bool(ok)})

    # canonical-form invariance and smith symmetry
    base = ((p * p, 3, 1), (0, p, 2), (0, 0, 1))
    c0 = lattice_canonical(base, p)
    inv_ok = theta_ok = True
    for _ in range(n):
        u = random_sl3z(rng).num
        inv_ok &= lattice_canonical(mat_mul(base, u), p) == c0
        v1 = random_vertex(p, rng)
        v2 = random_vertex(p, rng)
        theta_ok &= vector_distance(v2, v1) == opposition_involution(
            vector_distance(v1, v2))
    check("lattice_canonical_invariance", inv_ok)
    check("theta_involution", theta_ok)
    # retraction does not increase distance
    cert = make_srh(identity(), (2, 1, 0), p)
    frame = cert.frame
    ok = True
    for _ in range(n // 2):
        a = random_vertex(p, rng)
        b = random_vertex(p, rng)
        ra = retraction(frame, cert.attracting, a)
        rb = retraction(frame, cert.attracting, b)
        ok &= dist2(ra, rb) <= dist2(a, b)
    check("retraction_nonexpanding", ok)
    # serialization round trips
    ok = True
    for val in (x, Flag.standard(), cert.element, cert):
        ok &= from_obj(to_obj(val)) == val
    check("serialization_roundtrip", ok)
    # genericity reachable by sampling
    c3 = construct_generic(Flag.standard(), Flag.reversed_standard(), p,
                           rng=rng, depth=4)
    check("construct_generic", is_generic(
        ChamberTriple.of(Flag.standard(), Flag.reversed_standard(), c3)))
    rows = [{"checks": len(records), "failures": failures}]
    return records, rows, (0 if failures == 0 else 3)


_RUNNERS = {
    "dynamics": run_dynamics,
    "barycenter": run_barycenter,
    "walk": run_walk,
    "measure": run_measure,
    "equicont": run_equicont,
    "strip": run_strip,
    "appendix": run_appendix,
    "selftest": run_selftest,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _write_outputs(out_dir, name, cfg, seed, records, rows):
    os.makedirs(out_dir, exist_ok=True)
    chash = config_hash(cfg)
    rec_path = os.path.join(out_dir, f"{name}_records.ndjson")
    with open(rec_path, "w") as fh:
        for rec in records:
            body = dict(rec)
            body["config_hash"] = chash
            body["seed"] = seed
            fh.write(json.dumps(body, sort_keys=True, default=str) + "\n")
    agg_path = os.path.join(out_dir, f"{name}_aggregate.csv")
    with open(agg_path, "w", newline="") as fh:
        if rows:
            fieldnames = list(rows[0].keys()) + ["config_hash", "seed"]
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                body = dict(row)
                body["config_hash"] = chash
                body["seed"] = seed
                writer.writerow(body)
    return rec_path, agg_path


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sl3building",
        description="seeded experiments on the SL3 building over Q_p")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="YAML config path")
    parser.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)
    try:
        # derive_seed reads the seed mod 2^64, so any other seed would alias
        if not 0 <= args.seed < 2 ** 64:
            raise ConfigError(f"--seed must be in [0, 2^64), got {args.seed}")
        cfg = load_config(args.subcommand, args.config)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}))
        return 2
    try:
        records, rows, status = _RUNNERS[args.subcommand](cfg, args.seed)
    except DrawBoundExceededError as exc:
        print(json.dumps({"error": "draw bound", "detail": str(exc)}))
        return 3
    rec_path, agg_path = _write_outputs(args.out, args.subcommand, cfg,
                                        args.seed, records, rows)
    print(json.dumps({"subcommand": args.subcommand, "status": status,
                      "records": rec_path, "aggregate": agg_path,
                      "config_hash": config_hash(cfg), "seed": args.seed}))
    return status


if __name__ == "__main__":
    sys.exit(main())
