"""The explicit Borel family: exact genericity, torus checks, field cross-checks."""

import random
from fractions import Fraction

import pytest

from sl3building.boundary import is_opposite
from sl3building.padic_linalg import det3, mat_mul, mat_vec
from sl3building.parabolics import (
    family_flag,
    family_plane_normal,
    generic_family_scan,
    lower_flag,
    pairwise_position_report,
    stabilizes_flag,
    torus_family_member,
    upper_flag,
)
from sl3building.triples import ChamberTriple, is_generic
from oracles import (
    lower_torus_member,
    stabilized_apartment_simplices,
    torus_members_field,
    upper_borel_intersection_count_field,
)


def test_upper_and_lower_flags_are_opposite():
    assert is_opposite(upper_flag(), lower_flag())


def test_family_scan_matches_the_exceptional_set():
    verdicts = generic_family_scan([1, 2, 3, 5, -2, 7, 0, -1, Fraction(1, 2)])
    for t in (1, 2, 3, 5, -2, 7, Fraction(1, 2)):
        assert verdicts[t], t
    assert not verdicts[0]
    assert not verdicts[-1]


def test_family_degeneracy_witnesses():
    rep0 = pairwise_position_report(0)
    wit0 = dict(rep0.line_in_plane_witnesses)
    assert wit0["e1_on_plane"]  # e1 lies on V_0, so upper and family collide
    upper_pair = next(pp for pp in rep0.pairs if pp.pair == ("upper,family",))
    assert not upper_pair.opposite
    rep1 = pairwise_position_report(-1)
    wit1 = dict(rep1.line_in_plane_witnesses)
    assert wit1["e2_on_plane"]  # e2 lies on V_(-1)
    assert all(pp.opposite for pp in rep1.pairs)  # all pairs still opposite
    assert not rep1.generic  # yet the triple intersection is nonempty


def test_pairwise_intersections_at_t_equal_one():
    rep = pairwise_position_report(1)
    assert rep.generic
    upper_pair = next(pp for pp in rep.pairs if pp.pair == ("upper,family",))
    inter = upper_pair.intersection_with_base
    assert inter.lines == frozenset({(1, 0, 0)})
    assert inter.planes == frozenset({(0, 0, 1)})
    assert inter.chambers == frozenset({upper_flag()})
    lower_pair = next(pp for pp in rep.pairs if pp.pair == ("lower,family",))
    inter2 = lower_pair.intersection_with_base
    assert inter2.lines == frozenset({(0, 0, 1)})
    assert inter2.planes == frozenset({(1, 0, 0)})
    assert inter2.chambers == frozenset({lower_flag()})


def test_torus_family_member_basics():
    assert torus_family_member(1, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        torus_family_member(0, 1)


def test_torus_family_homomorphism_on_samples():
    rng = random.Random(3)
    for _ in range(50):
        a = Fraction(rng.randint(1, 40), rng.randint(1, 15))
        e = Fraction(rng.randint(1, 40), rng.randint(1, 15))
        a2 = Fraction(rng.randint(1, 40), rng.randint(1, 15))
        e2 = Fraction(rng.randint(1, 40), rng.randint(1, 15))
        assert mat_mul(torus_family_member(a, e), torus_family_member(a2, e2)) \
            == torus_family_member(a * a2, e * e2)


def test_torus_family_double_stabilization_on_samples():
    # each member has determinant 1 and stabilizes both defining flags
    rng = random.Random(5)
    for _ in range(50):
        a = Fraction(rng.randint(1, 60), rng.randint(1, 20))
        e = Fraction(rng.randint(1, 60), rng.randint(1, 20))
        m = torus_family_member(a, e)
        assert det3(m) == 1
        assert stabilizes_flag(m, upper_flag())
        assert stabilizes_flag(m, family_flag(1))
        assert mat_vec(m, (1, 1, 1))[0] == mat_vec(m, (1, 1, 1))[1]  # fixes <v>


def test_generic_torus_members_stabilize_only_the_upper_chamber():
    rng = random.Random(7)
    expected = frozenset({("line", (1, 0, 0)), ("plane", (0, 0, 1)),
                          ("chamber", ((1, 0, 0), (0, 0, 1)))})
    for _ in range(50):
        a = Fraction(rng.randint(2, 97), rng.randint(1, 13))
        e = Fraction(rng.randint(2, 97), rng.randint(1, 13))
        if a == e or a * e == 1 or a * e * e == 1 or a * a * e == 1:
            continue  # exceptional parameter values fix extra simplices
        st = stabilized_apartment_simplices(torus_family_member(a, e))
        assert st == expected, (a, e, sorted(st))


def test_lower_torus_members_stabilize_only_the_lower_chamber():
    rng = random.Random(11)
    expected = frozenset({("line", (0, 0, 1)), ("plane", (1, 0, 0)),
                          ("chamber", ((0, 0, 1), (1, 0, 0)))})
    for _ in range(50):
        a = Fraction(rng.randint(2, 97), rng.randint(1, 13))
        e = Fraction(rng.randint(2, 97), rng.randint(1, 13))
        if a == e or a * e == 1 or a * e * e == 1 or a * a * e == 1:
            continue
        st = stabilized_apartment_simplices(lower_torus_member(a, e))
        assert st == expected, (a, e, sorted(st))


def test_identity_member_stabilizes_everything():
    st = stabilized_apartment_simplices(torus_family_member(1, 1))
    assert len(st) == 12


def test_field_counts_match_the_two_parameter_family():
    for q in (3, 5, 7):
        family = torus_members_field(q)
        assert len(family) == (q - 1) ** 2
        assert len({m for m in family}) == (q - 1) ** 2
        assert upper_borel_intersection_count_field(q) == (q - 1) ** 2


def test_field_char_two_is_excluded():
    with pytest.raises(ValueError):
        torus_members_field(2)
    with pytest.raises(ValueError):
        upper_borel_intersection_count_field(4)


def test_genericity_consistent_with_triples_module():
    # the verdicts of the scan coincide with is_generic over Q for each t
    for t in (1, 2, 0, -1, 5):
        rep = pairwise_position_report(t)
        if all(pp.opposite for pp in rep.pairs):
            triple = ChamberTriple.of(upper_flag(), lower_flag(), family_flag(t))
            assert rep.generic == is_generic(triple)
        else:
            assert not rep.generic


def test_family_plane_contains_the_span_vector():
    for t in (0, 1, -1, 2, Fraction(3, 7)):
        n = family_plane_normal(t)
        assert -n[0] - n[1] - n[2] == -sum(n)  # arithmetic sanity
        assert sum(c * v for c, v in zip(n, (1, 1, 1))) == 0
