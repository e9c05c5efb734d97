"""Properties checked on every flag the harmonic sampler can return."""

import pytest

from sl3building.building import standard_vertex
from sl3building.rng import make_rng
from sl3building.stochastics import harmonic_sample

from exhaustive import harmonic_range, north_south_mismatches

RANGES = ((2, 2, 1176), (3, 1, 168), (5, 1, 4119))


@pytest.mark.parametrize("p, depth, size", RANGES)
def test_every_harmonic_draw_lies_in_the_listed_range(p, depth, size):
    flags = harmonic_range(p, depth)
    assert len(flags) == size
    x = standard_vertex(p)
    for seed in range(2000):
        assert harmonic_sample(x, depth, make_rng(seed)) in flags, seed


@pytest.mark.parametrize("p, depth, size", RANGES)
def test_north_south_limits_on_the_whole_range(p, depth, size):
    # The limit read off valuations against the boundary retraction for the
    # standard certificate and the criterion-3 conjugates, that retraction
    # against the search over the six apartment chambers, and the limit
    # against the image route for the standard certificate.
    assert north_south_mismatches(p, depth) == ([], size)
