"""Batch harness: subcommands, configs, determinism, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import tempfile
from fractions import Fraction
from itertools import product

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from sl3building.boundary import (
    Flag,
    apartment_from_opposite,
    is_opposite,
    is_opposite_to_apartment,
)
from sl3building.building import standard_vertex
from sl3building.cli import (
    _SCHEMAS,
    SUBCOMMANDS,
    ConfigError,
    load_config,
    main,
)
from sl3building import dynamics, triples
from sl3building.dynamics import make_srh
from sl3building.padic_linalg import det3, identity
from sl3building.rng import make_rng
from sl3building.stochastics import harmonic_sample
from sl3building.triples import construct_generic


def _run(tmp_path, sub, seed=1, config=None, extra=()):
    args = [sub, "--seed", str(seed), "--out", str(tmp_path)]
    if config is not None:
        cfg_path = tmp_path / f"{sub}.yaml"
        cfg_path.write_text(yaml.safe_dump(config))
        args += ["--config", str(cfg_path)]
    args += list(extra)
    return main(args)


SMALL = {
    "dynamics": {"flags_per_cert": 4, "conjugators": 1},
    "barycenter": {"transports": 1, "triples": 1},
    "walk": {"trials": 4, "steps": 60},
    "measure": {"trials": 400, "lams": [[1, 1, 0]], "p_values": [2]},
    "equicont": {"samples": 10, "word_length": 2, "partition_length": 2},
    "strip": {"pairs": 1, "r_max": 20},
    "appendix": {"samples": 5},
    "selftest": {"budget": 10},
}


@pytest.mark.parametrize("sub", sorted(SMALL))
def test_subcommands_succeed_with_small_configs(tmp_path, sub):
    rc = _run(tmp_path, sub, config=SMALL[sub])
    assert rc == 0
    records = tmp_path / f"{sub}_records.ndjson"
    aggregate = tmp_path / f"{sub}_aggregate.csv"
    assert records.exists() and aggregate.exists()
    lines = records.read_text().splitlines()
    assert lines
    for line in lines:
        rec = json.loads(line)
        assert "config_hash" in rec and rec["seed"] == 1


def test_outputs_are_bit_identical_across_reruns(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        out.mkdir()
        rc = _run(out, "walk", seed=7, config=SMALL["walk"])
        assert rc == 0
    h1 = hashlib.sha256((out1 / "walk_records.ndjson").read_bytes()).hexdigest()
    h2 = hashlib.sha256((out2 / "walk_records.ndjson").read_bytes()).hexdigest()
    assert h1 == h2


def test_seed_changes_the_records(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    _run(out1, "walk", seed=7, config=SMALL["walk"])
    _run(out2, "walk", seed=8, config=SMALL["walk"])
    assert (out1 / "walk_records.ndjson").read_text() != \
        (out2 / "walk_records.ndjson").read_text()


def test_unknown_config_key_is_a_config_error(tmp_path):
    rc = _run(tmp_path, "strip", config={"bogus": 1})
    assert rc == 2


def test_bad_prime_is_a_config_error(tmp_path):
    rc = _run(tmp_path, "dynamics", config={"p": 6})
    assert rc == 2


def test_empty_generator_list_is_a_config_error(tmp_path):
    rc = _run(tmp_path, "walk", config={"generators": [], "weights": []})
    assert rc == 2


def test_bad_weights_are_config_errors(tmp_path):
    cfg = {"generators": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
           "weights": ["2/3"]}
    rc = _run(tmp_path, "walk", config=cfg)
    assert rc == 2


def test_explicit_generator_config_runs(tmp_path):
    from sl3building.dynamics import make_srh
    from sl3building.serialize import matrix_to_obj
    cert = make_srh(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (2, 1, 0), 3)
    g = cert.element.matrix
    ginv = cert.element.inverse().matrix
    cfg = {"p": 3, "trials": 3, "steps": 40,
           "generators": [matrix_to_obj(g), matrix_to_obj(ginv)],
           "weights": ["1/2", "1/2"]}
    rc = _run(tmp_path, "walk", config=cfg)
    assert rc == 0


def test_load_config_defaults_and_validation():
    cfg = load_config("strip", None)
    assert cfg["r_max"] == 20
    with pytest.raises(ConfigError):
        load_config("walk", "/nonexistent/path.yaml")


def test_uncertified_barycenter_exits_with_code_three(tmp_path):
    # a radius cap of 1 cannot close the shell certificate
    rc = _run(tmp_path, "barycenter",
              config={"transports": 1, "triples": 1, "radius_cap": 1})
    assert rc == 3


def test_dynamics_at_a_huge_threshold_exits_three_at_the_horizon(tmp_path):
    # No depth reaches a threshold of 10^6 by step 40, and no depth builds
    # a power of p that grows with the threshold, so the default config
    # ends at once with every flag at the horizon.
    rc = _run(tmp_path, "dynamics", config={"threshold": 1_000_000})
    assert rc == 3
    lines = (tmp_path / "dynamics_records.ndjson").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 60
    assert all(r["status"] == "horizon" for r in records)


def test_dynamics_accepts_nmax_and_lam_up_to_their_bounds(tmp_path):
    # A horizon costs O(nmax) steps and the element's entries grow like
    # p^lam[0], so both are bounded; the bounds themselves are accepted,
    # and a translation of (2001, 3, 0) still runs.
    for config in ({"nmax": 10_000}, {"lam": [100_000, 2, 0]}):
        path = tmp_path / "dynamics.yaml"
        path.write_text(yaml.safe_dump(config))
        cfg = load_config("dynamics", str(path))
        assert {key: cfg[key] for key in config} == config
    assert _run(tmp_path, "dynamics", config=dict(
        SMALL["dynamics"], lam=[2001, 3, 0])) == 0


@pytest.mark.parametrize("sub, config", [
    ("dynamics", {"p": "abc"}),
    ("measure", {"p_values": [2, "abc"]}),
    ("dynamics", {"lam": [2, 2, 0]}),
    ("dynamics", {"lam": [3, 1, 0]}),
    ("dynamics", {"lam": "210"}),
    ("walk", {"generators": [[["1", "0"], ["0", "1"]]], "weights": ["1"]}),
    ("walk", {"generators": [[["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
              "weights": ["1"]}),
    ("walk", {"generators": [[["x", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
              "weights": ["1"]}),
    ("walk", {"generators": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
              "weights": ["1/2", "1/2"]}),
    ("walk", {"generators": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
              "weights": ["one"]}),
    ("strip", {"depth": 0}),
    ("dynamics", {"depth": 0}),
    ("measure", {"p_values": 3}),
    ("measure", {"p_values": []}),
    ("measure", {"lams": [[1]]}),
    ("measure", {"trials": 0}),
    ("strip", {"r_max": 0}),
    ("appendix", {"t_values": 3}),
    ("appendix", {"t_values": ["one"]}),
    ("measure", {"depth": 6}),
    ("dynamics", {"lam": [4, 2, 1]}),
    ("strip", {"depth": True}),
    ("dynamics", {"p": True}),
    ("dynamics", {"lam": [2, True, 0]}),
    ("measure", {"lams": [[True, 0, 0]]}),
    ("walk", {"trials": True}),
    ("appendix", {"t_values": [True]}),
    ("walk", {"generators": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
              "weights": [True]}),
    ("walk", {"generators": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
              "weights": [None]}),
    ("walk", {"generators": 5, "weights": 5}),
    ("dynamics", {"p": 2 ** 61 - 1}),
    ("measure", {"p_values": [3, 2 ** 61 - 1]}),
    ("measure", {"lams": [[1001, 0, 0]]}),
    ("measure", {"lams": [[0, -1001, 0]]}),
    ("strip", {"r_max": 1}),
    ("equicont", {"depth": 1}),
    ("equicont", {"depth": 2}),
    ("barycenter", {"p": 2, "depth": 1}),
    ("walk", {"p": 2, "depth": 1}),
    ("dynamics", {"nmax": 10_001}),
    ("dynamics", {"lam": [100_001, 1, 0]}),
])
def test_invalid_configs_exit_two_with_a_config_error(tmp_path, capsys, sub, config):
    rc = _run(tmp_path, sub, config=config)
    assert rc == 2
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["error"] == "config"


def test_walk_at_p_two_and_depth_one_runs_with_explicit_generators(tmp_path):
    # the depth only draws the default Schottky pair
    cfg = {"p": 2, "depth": 1, "trials": 1, "steps": 5,
           "generators": [[[2, 0, 0], [0, 1, 0], [0, 0, "1/2"]]], "weights": ["1"]}
    assert _run(tmp_path, "walk", config=cfg) == 0


def test_equicont_with_zero_samples_checks_none(tmp_path):
    rc = _run(tmp_path, "equicont", config={"samples": 0, "word_length": 2,
                                            "partition_length": 2})
    assert rc == 0
    with open(tmp_path / "equicont_aggregate.csv") as fh:
        assert next(csv.DictReader(fh))["checked"] == "0"


def test_equicont_finishes_at_the_largest_accepted_prime(tmp_path):
    rc = _run(tmp_path, "equicont", config={"p": 2147483647})  # 2^31 - 1
    assert rc == 0
    lines = (tmp_path / "equicont_records.ndjson").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[-1]["partition_check"] is True
    assert len(records) == 61 and all(r["ok"] for r in records[:-1])
    with open(tmp_path / "equicont_aggregate.csv") as fh:
        row = next(csv.DictReader(fh))
    assert (row["checked"], row["failures"], row["partition"]) == ("60", "0", "True")


@pytest.mark.parametrize("p, share", [(2, Fraction(8, 21)), (3, Fraction(27, 52))])
def test_strip_pair_draws_are_opposite_the_standard_flag_often(p, share):
    # run_strip draws Flag.from_matrix(k) with k uniform on GL3(F_p) mod p.
    # Every k with k20 and k10 k21 - k20 k11 nonzero mod p gives a flag
    # opposite the standard one, and these k are p^3 / ((p^2+p+1)(p+1))
    # of GL3(F_p), at least 8/21 for every p.
    opposite = total = 0
    for e in product(range(p), repeat=9):
        k = (e[0:3], e[3:6], e[6:9])
        if det3(k) % p == 0:
            continue
        total += 1
        if k[2][0] % p and (k[1][0] * k[2][1] - k[2][0] * k[1][1]) % p:
            opposite += 1
            assert is_opposite(Flag.standard(), Flag.from_matrix(k))
    assert Fraction(opposite, total) == share == \
        Fraction(p ** 3, (p * p + p + 1) * (p + 1))
    assert share >= Fraction(8, 21)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seeds_outside_64_bits_are_config_errors(tmp_path, capsys, seed):
    rc = _run(tmp_path, "strip", seed=seed, config=SMALL["strip"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["error"] == "config"
    assert not (tmp_path / "strip_records.ndjson").exists()


# The measure cells fall on both sides of q = p^depth = 256, where the mass
# estimate's byte lanes hand over to single draws: q = 4, 16, 64 at
# p = 2, q = 9, 81 and 729 at p = 3, q = 25, 625 and 15625 at p = 5.  The
# digests were taken with the per-draw sampler alone.
BOTH_PATHS_MEASURE = {"p_values": [2, 3, 5],
                      "lams": [[1, 0, 0], [2, 1, 0], [3, 2, 0]], "trials": 300}
BOTH_PATHS_DIGESTS = {
    1: ("05aedf505330d9a9b16a9d2c77dc7ba27a303e8be8d383bc6d84b1b1324d2f0f",
        "1172ae22ee6653ff5887d4fd26f57cf06797ab4703df68c83aa5c38a6bca7482"),
    7: ("87a56186e6e5af1e77d71b9dba6f26d556afd7128a8c9a3b9657c94dde2bd67f",
        "745209ba3a0fc1920d5579196fc20d491d96a5004fcdfdad77904e2b6ad2ed67"),
}


@pytest.mark.parametrize("seed", sorted(BOTH_PATHS_DIGESTS))
def test_measure_records_on_both_sampler_paths_match_their_digests(tmp_path,
                                                                   seed):
    assert _run(tmp_path, "measure", seed=seed, config=BOTH_PATHS_MEASURE) == 0
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("measure_records.ndjson", "measure_aggregate.csv"))
    assert got == BOTH_PATHS_DIGESTS[seed]


# Primes the mass bench does not reach: q = 7, 49, 11, 121, 13 and 169 go
# through the byte lanes, p = 17 through single draws at every depth,
# q = 17 included.  The digests were taken with the per-candidate loop.
LANE_PRIMES_MEASURE = {"p_values": [7, 11, 13, 17],
                       "lams": [[0, 0, 0], [1, 0, 0], [1, 1, 0]], "trials": 200}
LANE_PRIMES_DIGESTS = {
    1: ("0b1b028803ca339fe1e76b153b1094894721164b2aa5b7edf12148936d5fc647",
        "6ef25c2a4820fc8e632715d416d3c85395394a2be4857fedbbd5fd5e5fb987ea"),
    7: ("946f7d3986bfacff43fe2e8787a55787844d3da7ae295a31c649e0a79ce468c9",
        "536c224c386c4fa143c7c0b085eef6fc688c8cb0040d217af9cb9dfc68978dbc"),
}


@pytest.mark.parametrize("seed", sorted(LANE_PRIMES_DIGESTS))
def test_measure_records_at_primes_up_to_17_match_their_digests(tmp_path, seed):
    assert _run(tmp_path, "measure", seed=seed, config=LANE_PRIMES_MEASURE) == 0
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("measure_records.ndjson", "measure_aggregate.csv"))
    assert got == LANE_PRIMES_DIGESTS[seed]


# Walks with custom generators at p = 3, from the standard vertex.  g =
# diag(1/3, 1, 3) and h = w g w^-1 for the lower unipotent w with ones below
# the diagonal; no two of (g, h) undo each other.  The second set adds two
# copies of g^-1 and s = v t v^-1, t the coordinate swap with -1 in the
# corner (an involution of SL3(Z)) and v the unipotent with 1/3 at (0, 1).
# The digests were taken with the per-step walk, before it followed the
# reduced word.
_WALK_G = [["1/3", "0", "0"], ["0", "1", "0"], ["0", "0", "3"]]
_WALK_G_INV = [["3", "0", "0"], ["0", "1", "0"], ["0", "0", "1/3"]]
_WALK_H = [["1/3", "0", "0"], ["-2/3", "1", "0"], ["-2/3", "-2", "3"]]
_WALK_S = [["1/3", "8/9", "0"], ["1", "-1/3", "0"], ["0", "0", "-1"]]
CUSTOM_WALKS = {
    "no undoing pair": {"trials": 6, "steps": 40,
                        "generators": [_WALK_G, _WALK_H],
                        "weights": ["1/3", "2/3"]},
    "duplicate inverses and an involution": {
        "trials": 6, "steps": 40,
        "generators": [_WALK_G, _WALK_G_INV, _WALK_G_INV, _WALK_H, _WALK_S],
        "weights": ["1/4", "1/8", "1/8", "1/4", "1/4"]},
}
CUSTOM_WALK_DIGESTS = {
    ("no undoing pair", 1): (
        "821349ef63b6662167d9f47fd09cebfca8e884bec8769fe001041af5d5738706",
        "175b079ce108316dc5011cdb486d0b1619077aaaef6efce9ae41c7c0b57d7b1c"),
    ("no undoing pair", 7): (
        "019370c1a9b9dbd970c216d9ba828b6e5c0456794573dcf4dcfa81e9b9c1a4e7",
        "ea83f1c3c8b4f1d50c81e588339d3094e3c585c41d01946ccf7210cd51c05c3a"),
    ("duplicate inverses and an involution", 1): (
        "ffa53808d410ac1adbbe5408ed9468129de15cc0ed0f26f79a2c32a3aecbc9cb",
        "f90e6d465424ad436db66ac940e95135394b85408be52017564c36acd5973dee"),
    ("duplicate inverses and an involution", 7): (
        "d4c3ac091c2e957ffc01681d910a15739aeb190eae7c2130911e3deced03209f",
        "dcc2a0084212489280eb41a776b41bc3d823a59c7009e4b3497a8b1a31f04c1a"),
}


@pytest.mark.parametrize("name, seed", sorted(CUSTOM_WALK_DIGESTS))
def test_walk_records_with_custom_generators_match_their_digests(tmp_path,
                                                                 name, seed):
    assert _run(tmp_path, "walk", seed=seed, config=CUSTOM_WALKS[name]) == 0
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("walk_records.ndjson", "walk_aggregate.csv"))
    assert got == CUSTOM_WALK_DIGESTS[name, seed]


def test_walk_exits_three_when_no_schottky_candidate_passes(tmp_path, capsys,
                                                            monkeypatch):
    # every scripted candidate is the completion c3, never opposite itself
    seed, cfg = 1, load_config("walk", None)
    cert1 = make_srh(identity(), (2, 1, 0), cfg["p"])
    c3 = construct_generic(cert1.attracting, cert1.repelling, cfg["p"],
                           rng=make_rng(seed, 0xC0), depth=cfg["depth"])
    monkeypatch.setattr(dynamics, "harmonic_sample", lambda *_: c3)
    assert _run(tmp_path, "walk", seed=seed, config=SMALL["walk"]) == 3
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["error"] == "draw bound"
    assert not (tmp_path / "walk_records.ndjson").exists()


def test_barycenter_exits_three_when_no_generic_completion_is_drawn(
        tmp_path, capsys, monkeypatch):
    # the standard flag is one of the pair, so never opposite the apartment
    monkeypatch.setattr(triples, "harmonic_sample", lambda *_: Flag.standard())
    config = dict(SMALL["barycenter"], triples=2)
    assert _run(tmp_path, "barycenter", config=config) == 3
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["error"] == "draw bound"
    assert not (tmp_path / "barycenter_records.ndjson").exists()


def test_measure_counts_far_vertices_in_closed_form(tmp_path):
    # N at (12, 0, 0) over Q_3 is 13 * 3^22, far beyond any enumeration
    rc = _run(tmp_path, "measure",
              config={"p_values": [3], "lams": [[12, 0, 0]], "trials": 400})
    assert rc == 0
    rec = json.loads((tmp_path / "measure_records.ndjson").read_text())
    assert rec["N"] == 13 * 3 ** 22


_SCALARS = st.one_of(st.integers(), st.booleans(), st.text(max_size=8),
                     st.none())
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4),
                       max_leaves=12)


@pytest.mark.parametrize("sub", SUBCOMMANDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_load_config_returns_or_raises_config_error(sub, data):
    keys = sorted(_SCHEMAS[sub])
    cfg = data.draw(st.dictionaries(st.sampled_from(keys), _VALUES, max_size=4))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "config.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        try:
            loaded = load_config(sub, path)
        except ConfigError:
            return
    assert all(type(loaded[key]) is int
               for key, default in _SCHEMAS[sub].items() if type(default) is int)


_INT_KEYS = [(sub, key) for sub, schema in _SCHEMAS.items()
             for key, default in schema.items() if type(default) is int]


@pytest.mark.parametrize("sub, key", _INT_KEYS)
def test_integer_config_key_set_to_null_is_a_config_error(tmp_path, capsys,
                                                          sub, key):
    rc = _run(tmp_path, sub, config={key: None})
    assert rc == 2
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["error"] == "config"


def test_depth_one_draws_at_p_two_never_complete_a_generic_triple():
    # Why _validate rejects barycenter at p = 2, depth = 1: every such draw
    # is the flag of an invertible 0/1 matrix, and no such flag is opposite
    # all six chambers of the apartment of the standard pair.
    frame = apartment_from_opposite(Flag.standard(), Flag.reversed_standard())
    flags = {Flag.from_matrix((e[0:3], e[3:6], e[6:9]))
             for e in product(range(2), repeat=9)
             if det3((e[0:3], e[3:6], e[6:9]))}
    assert not any(is_opposite_to_apartment(c, frame) for c in flags)
    rng = make_rng(1, 3)
    x = standard_vertex(2)
    assert all(harmonic_sample(x, 1, rng) in flags for _ in range(200))


_FUZZ_CONFIGS = {
    "dynamics": {
        "p": (2, 3, 5),
        "lam": ([2, 1, 0], [4, 2, 0], [5, 1, 0], [7, 2, 0]),
        "flags_per_cert": (0, 1, 2),
        "conjugators": (0, 1),
        "depth": (1, 2, 4),
        "nmax": (0, 1, 2, 5, 40),
        "threshold": (0, 1, 2, 4, 60),
    },
    "barycenter": {
        "p": (2, 3, 5),
        "transports": (0, 1),
        "radius_cap": (0, 1, 3),
        "depth": (1, 2, 4),
        "triples": (0, 1, 2),
    },
    "walk": {
        "p": (2, 3, 5),
        "steps": (0, 1, 5, 30),
        "trials": (1, 2),
        "depth": (1, 2, 4),
        "window": (0, 1, 3),
        "generators": ([[[2, 0, 0], [0, 1, 0], [0, 0, "1/2"]]],
                       [[[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                        [[2, 0, 0], [0, "1/3", 0], [0, 0, "3/2"]]]),
        "weights": (["1"], ["1/2", "1/2"], ["1/3", "2/3"]),
    },
    "measure": {
        "p_values": ([2], [3], [2, 5]),
        "lams": ([[1, 0, 0]], [[1, 1, 0], [2, 1, 0]], [[0, 0, 0]], [[0, 1, 2]],
                 [[-1, 0, 0]]),
        "trials": (1, 5, 40),
    },
    "equicont": {
        "p": (2, 3, 5),
        "samples": (0, 1, 5),
        "word_length": (0, 1, 2),
        "partition_length": (0, 1, 2),
        "depth": (3, 4, 5),
    },
    "strip": {
        "p": (2, 3, 5),
        "pairs": (0, 1, 2),
        "r_max": (2, 3, 8),
        "depth": (1, 2, 4),
    },
    "appendix": {
        "t_values": ([], [1], [0, -1], ["1/2", 2], ["-3/4", 5, "7"]),
        "samples": (0, 1, 5),
    },
    "selftest": {
        "p": (2, 3, 5),
        "budget": (0, 1, 4),
    },
}
# Keys drawn in every config, so that no count runs at its CLI default.
_FUZZ_CAPPED = {
    "walk": ("steps", "trials"),
    "measure": ("trials",),
    "equicont": ("samples", "word_length", "partition_length"),
    "strip": ("pairs", "r_max"),
    "appendix": ("samples",),
    "selftest": ("budget",),
}
_BAD_VALUES = st.sampled_from((-1, 0, None, "x", True, 2.5, [], 4, [1, 2, 0],
                               [2, 2, 0], [-1, -2, 0], [2, 1, 3], [2, 1]))


@pytest.mark.parametrize("sub", ["dynamics", "barycenter", "walk", "equicont",
                                 "strip"])
def test_main_exits_zero_two_or_three_on_every_prime_and_depth(tmp_path, sub):
    # Failures that need two keys at once, like p and depth, are easy for
    # the random fuzz below to miss, so every (p, depth) pair runs here.
    # The capped counts are held at their smallest values, and again at
    # their smallest positive ones, so that the subcommand does some work.
    keys = _FUZZ_CONFIGS[sub]
    capped = _FUZZ_CAPPED.get(sub, ())
    levels = ({key: min(keys[key]) for key in capped},
              {key: min(v for v in keys[key] if v > 0) for key in capped})
    for (p, depth), counts in product(product(keys["p"], keys["depth"]), levels):
        cfg = dict(counts, p=p, depth=depth)
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main([sub, "--seed", "1", "--config", str(path),
                       "--out", str(tmp_path)])
        assert rc in (0, 2, 3), cfg
        last = json.loads(out.getvalue().splitlines()[-1])
        assert ("error" in last) == (rc == 2 or (rc == 3 and "status" not in last))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data(), sub=st.sampled_from(sorted(_FUZZ_CONFIGS)),
       seed=st.integers(-1, 2 ** 64))
def test_main_exits_zero_two_or_three_on_any_small_config(data, sub, seed):
    # Any subset of the keys, each from a small range (counts are capped
    # here, not in the CLI), and now and then one key set to a value of the
    # wrong kind or range.  An exception escaping main would fail the test;
    # every outcome prints one JSON line.
    keys = _FUZZ_CONFIGS[sub]
    capped = _FUZZ_CAPPED.get(sub, ())
    cfg = data.draw(st.fixed_dictionaries(
        {key: st.sampled_from(keys[key]) for key in capped},
        optional={key: st.sampled_from(values) for key, values in keys.items()
                  if key not in capped}))
    if data.draw(st.integers(0, 2)) == 2:
        cfg[data.draw(st.sampled_from(sorted(keys)))] = data.draw(_BAD_VALUES)
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "config.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        with contextlib.redirect_stdout(out):
            rc = main([sub, "--seed", str(seed), "--config", path, "--out", d])
    assert rc in (0, 2, 3)
    last = json.loads(out.getvalue().splitlines()[-1])
    assert ("error" in last) == (rc == 2 or (rc == 3 and "status" not in last))
