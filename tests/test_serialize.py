"""Round-trip serialization of domain values."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sl3building.building import Frame, LatticeVertex, standard_vertex
from sl3building.boundary import Flag
from sl3building.dynamics import certify_srh, make_srh, random_sl3z
from sl3building.serialize import (
    ParseError,
    frac_to_str,
    from_obj,
    str_to_frac,
    to_obj,
)
from sl3building.stochastics import WalkConfig, run_walk

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


def test_walk_trace_round_trip():
    p = 3
    cert = make_srh(STD_LINES, (2, 1, 0), p)
    cfg = WalkConfig(p, (cert.element,), (Fraction(1),), 6, 11, standard_vertex(p))
    trace = run_walk(cfg)
    assert from_obj(to_obj(trace)) == trace


def test_unknown_kind_rejected():
    with pytest.raises(ParseError):
        from_obj({"kind": "nonsense"})
    with pytest.raises(ParseError):
        from_obj([1, 2, 3])
