"""Round-trip serialization of domain values."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl3building.building import Frame, LatticeVertex, standard_vertex
from sl3building.boundary import Flag
from sl3building.dynamics import GroupElement, certify_srh, make_srh, random_sl3z
from sl3building.padic_linalg import SingularMatrixError, det3
from sl3building import serialize
from sl3building.serialize import (
    ParseError,
    _ratio_str,
    frac_to_str,
    from_obj,
    matrix_to_obj,
    str_to_frac,
    to_obj,
)
from sl3building.stochastics import WalkConfig, run_walk
from oracles import flag_echelon_oracle, flag_matrix

STD_LINES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@given(st.fractions(min_value=-10**6, max_value=10**6))
def test_fraction_strings_round_trip(x):
    assert str_to_frac(frac_to_str(x)) == x


def test_fraction_string_formats():
    assert frac_to_str(Fraction(3)) == "3"
    assert frac_to_str(Fraction(-5, 7)) == "-5/7"
    with pytest.raises(ParseError):
        str_to_frac("1/0")
    with pytest.raises(ParseError):
        str_to_frac("x")


def _fraction_route(x):
    # the text of a rational as str(Fraction) prints it
    return str(Fraction(x))


def test_frac_to_str_matches_the_fraction_route():
    # bools are ints that the int fast path must not print as "True"
    values = [0, 1, -1, 7, -12, 10 ** 30, -(10 ** 30) - 1, True, False,
              Fraction(3), Fraction(-5, 7), Fraction(6, -4), Fraction(0, 9),
              Fraction(10 ** 20, 3 ** 40), "-4/6", "-0"]
    for x in values:
        assert frac_to_str(x) == _fraction_route(x)


@settings(derandomize=True, max_examples=300)
@given(st.integers(-10 ** 12, 10 ** 12),
       st.integers(-10 ** 12, 10 ** 12).filter(lambda d: d != 0))
def test_ratio_str_is_the_fraction_text(n, d):
    assert _ratio_str(n, d) == _fraction_route(Fraction(n, d))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=st.lists(st.integers(-2, 2), min_size=9, max_size=9),
       signs=st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))))
def test_flag_records_are_the_echelon_oracle(m, signs):
    # Small entries give flags with zero coordinates; the signs flip the
    # stored line and normal, so both pivots of the kernel can be negative.
    m = (tuple(m[0:3]), tuple(m[3:6]), tuple(m[6:9]))
    assume(det3(m) != 0)
    f = Flag.from_matrix(m)
    g = Flag(tuple(signs[0] * e for e in f.line),
             tuple(signs[1] * e for e in f.plane_normal))
    want = flag_echelon_oracle(m)
    assert flag_matrix(g) == want
    assert to_obj(g)["matrix"] == matrix_to_obj(want)
    assert to_obj(g)["matrix"] == [[_fraction_route(e) for e in row]
                                   for row in want]


def test_group_element_records_match_the_fraction_matrix():
    rng = random.Random(5)
    dens = set()
    for p in (2, 3, 5):
        cert = make_srh(STD_LINES, (2, 1, 0), p)
        for _ in range(20):
            g = cert.conjugate(random_sl3z(rng)).element
            for h in (g, g.inverse(), g.power(3), g.inverse().power(2)):
                assert to_obj(h)["matrix"] == matrix_to_obj(h.matrix)
                dens.add(h.den)
    assert len(dens) > 1


def test_vertex_round_trip_preserves_canonical_form():
    p = 5
    v = LatticeVertex.from_matrix(p, ((5, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert from_obj(to_obj(v)) == v


def test_core_values_round_trip():
    p = 5
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    values = [
        standard_vertex(p),
        Flag.standard(),
        Frame.from_lines(STD_LINES),
        cert.element,
        cert,
    ]
    for val in values:
        assert from_obj(to_obj(val)) == val


def test_random_certificate_round_trip():
    rng = random.Random(3)
    p = 5
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    for _ in range(25):
        moved = cert.conjugate(random_sl3z(rng))
        assert from_obj(to_obj(moved)) == moved
        # the round-tripped certificate still certifies
        back = from_obj(to_obj(moved))
        assert certify_srh(back.element, p)


def test_certificate_lines_must_be_independent_integer_vectors():
    obj = to_obj(make_srh(STD_LINES, (2, 1, 0), 5))
    for bad in (["3/2", "0", "0"], ["1/2", "0", "0"], ["1", "0", "x"], "100",
                ["1", "0"], ["1", "0", "0", "0"]):
        obj["lines"][0] = bad
        with pytest.raises(ParseError):
            from_obj(obj)
    obj["lines"][0] = ["2", "0", "0"]
    obj["lines"][1] = ["-1", "0", "0"]
    with pytest.raises(SingularMatrixError):
        from_obj(obj)


def test_certificate_records_are_certified_on_load():
    # A record whose element does not act on its lines as the certificate
    # says is refused: a diagonal element whose valuations are read off a
    # non-eigenline, a unipotent element, a lam the element does not
    # translate by, and a p that is not prime.  Certificates made by
    # make_srh, conjugate and certify_srh load as they are.
    obj = to_obj(make_srh(STD_LINES, (2, 1, 0), 5))
    for element in (((25, 1, 0), (0, 1, 0), (0, 0, Fraction(1, 25))),
                    ((1, 1, 0), (0, 1, 0), (0, 0, 1))):
        with pytest.raises(ParseError):
            from_obj(dict(obj, element=to_obj(GroupElement.from_matrix(element))))
    # The attracting and repelling chambers are derived from the lines; a
    # record must carry the certificate's own, as flag records.
    other = to_obj(Flag.from_matrix(((1, 0, 0), (1, 1, 0), (0, 0, 1))))
    for bad in (dict(obj, lam=[4, 2, 0]), dict(obj, p=4), dict(obj, p="5"),
                dict(obj, element=to_obj(Flag.standard())),
                dict(obj, attracting="x"), dict(obj, repelling=None),
                dict(obj, attracting=obj["element"]),
                dict(obj, attracting=other), dict(obj, repelling=other),
                dict(obj, attracting=obj["repelling"],
                     repelling=obj["attracting"])):
        with pytest.raises(ParseError):
            from_obj(bad)
    rng = random.Random(8)
    for p, lam in ((5, (2, 1, 0)), (7, (2001, 3, 0)), (2, (4, 2, 0))):
        made = make_srh(STD_LINES, lam, p)
        for cert in (made, made.conjugate(random_sl3z(rng)),
                     certify_srh(made.element, p)):
            assert from_obj(to_obj(cert)) == cert


def test_records_of_the_wrong_shape_raise_parse_errors():
    p = 5
    cert = to_obj(make_srh(STD_LINES, (2, 1, 0), p))
    trace = run_walk(WalkConfig(p, (make_srh(STD_LINES, (2, 1, 0), p).element,),
                                (Fraction(1),), 2, 11, standard_vertex(p)))
    square2 = [["1", "0"], ["0", "1"]]
    bad = [dict(cert, lines=cert["lines"][:2]),
           dict(cert, lines=cert["lines"] + [["1", "1", "1"]]),
           dict(cert, lines=5),
           dict(to_obj(Frame.from_lines(STD_LINES)), lines=[["1", "0", "0"],
                                                            ["0", "1", "0"]]),
           dict(to_obj(standard_vertex(p)), matrix=square2),
           dict(to_obj(Flag.standard()), matrix=square2),
           dict(cert["element"], matrix=square2),
           dict(to_obj(trace.steps[1]), theta=5),
           dict(to_obj(trace.steps[1]), theta=[1, 0])]
    for obj in bad:
        with pytest.raises(ParseError):
            from_obj(obj)


def test_fields_of_the_wrong_type_raise_parse_errors_naming_the_field():
    # A certificate lam and the walk_config generators, weights and steps
    # of the wrong type are refused as ParseError, not as the TypeError or
    # ValueError of the constructor they would reach; valid records still
    # round-trip.
    p = 5
    made = make_srh(STD_LINES, (2, 1, 0), p)
    cfg = WalkConfig(p, (made.element,), (Fraction(1),), 2, 11,
                     standard_vertex(p))
    cert_obj, cfg_obj = to_obj(made), to_obj(cfg)
    for obj, field in ((dict(cert_obj, lam=5), "lam"),
                       (dict(cfg_obj, generators=5), "generators"),
                       (dict(cfg_obj, weights=5), "weights"),
                       (dict(cfg_obj, steps="x"), "steps")):
        with pytest.raises(ParseError, match=field):
            from_obj(obj)
    assert from_obj(cert_obj) == made
    assert from_obj(cfg_obj) == cfg


def test_nested_records_of_the_wrong_kind_are_refused():
    # A vertex, group element or walk config field holding a record of
    # another kind is refused at that field.
    p = 3
    made = make_srh(STD_LINES, (2, 1, 0), p)
    cfg = WalkConfig(p, (made.element,), (Fraction(1),), 2, 11,
                     standard_vertex(p))
    cfg_obj, trace_obj = to_obj(cfg), to_obj(run_walk(cfg))
    flag = to_obj(Flag.standard())
    for obj, field in (
            (dict(cfg_obj, base_vertex=flag), "base_vertex"),
            (dict(cfg_obj, generators=[cfg_obj["generators"][0], flag]),
             r"generators\[1\]"),
            (dict(trace_obj, config=to_obj(standard_vertex(p))), "config")):
        with pytest.raises(ParseError, match=field):
            from_obj(obj)


def _record_of_each_kind():
    p = 3
    cert = make_srh(STD_LINES, (2, 1, 0), p).conjugate(
        GroupElement(((1, 1, 0), (0, 1, 0), (0, 0, 1))))
    cfg = WalkConfig(p, (cert.element, cert.element.inverse()),
                     (Fraction(1, 3), Fraction(2, 3)), 2, 11,
                     standard_vertex(p))
    trace = run_walk(cfg)
    step = next(s for s in trace.steps if s.germ is not None)
    values = [LatticeVertex.from_matrix(p, ((3, 1, 0), (0, 1, 0), (0, 0, 1))),
              Flag.from_matrix(((1, 0, 0), (2, 1, 0), (Fraction(1, 3), 0, 1))),
              Frame.from_lines(((1, 0, 0), (1, 1, 0), (0, 2, 1))), step.germ,
              GroupElement.from_matrix(cert.element.matrix, word=(1, -1)),
              cert, cfg, step, trace, (2, 1, 0)]
    return [to_obj(v) for v in values]


def _paths(obj, path=()):
    """Every field and nested entry of a record, as a path of keys and indices."""
    items = obj.items() if type(obj) is dict else enumerate(obj)
    for key, value in items:
        yield path + (key,)
        if type(value) in (dict, list):
            yield from _paths(value, path + (key,))


def _where(path):
    """The path as from_obj writes it: config.generators[0].matrix[1][2]."""
    out = ""
    for key in path:
        out += f"[{key}]" if type(key) is int else f".{key}" if out else key
    return out


MUTANTS = (5, "x", None, [], {}, True, [5], ["x", "y", "z"], -1, 2.5)
NEVER_LOADED = ("x", {}, True, 2.5)


def test_every_mutated_field_is_refused_or_round_trips():
    # Each field and nested entry of one record of each kind is set to each
    # mutant.  The record is refused with a ParseError (or a
    # SingularMatrixError, for dependent lines), or it loads a value that
    # round-trips exactly; a string, mapping, boolean or float never loads,
    # and neither does a p of -1, which is not a prime.
    # A type or shape refusal is at the innermost field key that holds the
    # mutant (for a record's kind, the key that holds the record), and a
    # constructor refusal is at an enclosing record and names its kind.
    counts = {"refused": 0, "loaded": 0}
    for record in _record_of_each_kind():
        assert from_obj(record) is not None
        for path in _paths(record):
            keys = [i for i, k in enumerate(path) if type(k) is str]
            cut = keys[-1] - (path[keys[-1]] == "kind") if keys else -1
            at = _where(path[:cut + 1]) or None
            records = {}  # where -> kind, of each record the path is inside
            node = record
            for i, key in enumerate(path):
                if type(node) is dict and "kind" in node:
                    records[_where(path[:i]) or None] = node["kind"]
                node = node[key]
            for mutant in MUTANTS:
                obj = copy.deepcopy(record)
                parent = obj
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = copy.deepcopy(mutant)
                try:
                    value = from_obj(obj)
                except SingularMatrixError:
                    continue
                except ParseError as exc:
                    counts["refused"] += 1
                    where = exc.where
                    shape = where == at or at is not None and where is not None \
                        and where.startswith((at + "[", at + "."))
                    made = where in records and \
                        f"bad {records[where]} record" in str(exc)
                    assert shape or made, (path, mutant, str(exc))
                    continue
                counts["loaded"] += 1
                assert not any(type(mutant) is type(bad) and mutant == bad
                               for bad in NEVER_LOADED), (path, mutant)
                assert not (path[-1] == "p" and mutant == -1), path
                assert from_obj(to_obj(value)) == value, (path, mutant)
    assert counts["refused"] > 0 and counts["loaded"] > 0


def test_walk_trace_round_trip():
    p = 3
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    cfg = WalkConfig(p, (cert.element,), (Fraction(1),), 6, 11, standard_vertex(p))
    trace = run_walk(cfg)
    assert from_obj(to_obj(trace)) == trace


def test_walk_traces_are_replayed_on_load(monkeypatch):
    # A trace record is refused unless run_walk of its config reproduces
    # it: an edited seed and theta, or an edited final position.  A step
    # count that is not the config's is refused before any walk is run, so
    # a crafted config.steps cannot stall the load.
    p = 3
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    cfg = WalkConfig(p, (cert.element,), (Fraction(1),), 6, 11,
                     standard_vertex(p))
    trace_obj = to_obj(run_walk(cfg))
    edited = copy.deepcopy(trace_obj)
    edited["config"]["seed"] = 12
    edited["steps"][1]["theta"] = [7, 0, 0]
    moved = dict(trace_obj, final_position=to_obj(
        LatticeVertex.from_matrix(p, ((3, 1, 0), (0, 1, 0), (0, 0, 1)))))
    for obj in (edited, moved):
        with pytest.raises(ParseError, match="bad walk_trace record"):
            from_obj(obj)
    assert from_obj(trace_obj) == run_walk(cfg)

    def no_walk(config):
        raise AssertionError("a walk was run")

    monkeypatch.setattr(serialize, "run_walk", no_walk)
    for steps in (10 ** 12, 5, 7):
        long_config = copy.deepcopy(trace_obj)
        long_config["config"]["steps"] = steps
        with pytest.raises(ParseError, match="steps for a walk of"):
            from_obj(long_config)


def test_walk_configs_take_the_prime_of_their_base_vertex():
    # A walk_config record with p = 5 and a p = 3 base vertex is refused;
    # run_walk would read the p = 3 lattices at p = 5.
    p = 3
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    cfg_obj = to_obj(WalkConfig(p, (cert.element,), (Fraction(1),), 6, 11,
                                standard_vertex(p)))
    with pytest.raises(ParseError, match="bad walk_config record"):
        from_obj(dict(cfg_obj, p=5))
    with pytest.raises(ValueError, match="prime of the base vertex"):
        WalkConfig(5, (cert.element,), (Fraction(1),), 6, 11,
                   standard_vertex(p))


def test_unknown_kind_rejected():
    with pytest.raises(ParseError):
        from_obj({"kind": "nonsense"})
    with pytest.raises(ParseError):
        from_obj([1, 2, 3])
