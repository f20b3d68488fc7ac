"""Instance factories: hulls, suspension profiles, threshold tuning, probes."""

import numpy as np
import pytest

from rigidity3d.frameworks import (
    Framework,
    bar_flex_space,
    is_infinitesimally_rigid,
    rigidity_rank,
)
from rigidity3d.generators import (
    GenerationError,
    _azimuths,
    convex_suspension,
    dented_hull_star,
    probe_decomposition,
    random_convex_hull_surface,
    random_convex_polygon,
    random_suspension,
    star_suspension,
    suspension_profile,
)
from rigidity3d.geometry import Convexity, classify_convexity, dihedral_angles
from rigidity3d.hessian import rigidity_from_lambda
from rigidity3d.suspensions import is_ns_decomposable, lambda_scalar

import oracles
from oracles import (flexible_suspension_fixture, random_framework, random_projective_map,
                     transform_points)


def test_random_hull_is_strongly_convex():
    surf = random_convex_hull_surface(np.random.default_rng(0), 10)
    assert surf.n_vertices == 10
    report = classify_convexity(surf)
    assert report.classification is Convexity.STRONGLY_STRICTLY_CONVEX
    assert dihedral_angles(surf).max() < np.pi - 1e-3


def test_random_hull_needs_four_points():
    with pytest.raises(GenerationError, match="at least 4"):
        random_convex_hull_surface(np.random.default_rng(0), 3)


def test_random_convex_polygon_is_convex():
    rng = np.random.default_rng(3)
    for n in (3, 5, 8, 12):
        radii, az = random_convex_polygon(rng, n)
        u = np.stack([radii * np.cos(az), radii * np.sin(az)], axis=1)
        edges = np.roll(u, -1, axis=0) - u
        cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - edges[:, 1] * np.roll(
            edges, -1, axis=0
        )[:, 0]
        assert cross.min() > 0
        assert np.all(np.diff(az) > 0)


def _fixed_floor_azimuths(rng, n, max_tries=100):
    """The azimuth rule with the gap floor fixed at 0.05."""
    for _ in range(max_tries):
        gaps = rng.uniform(0.15, 2.9, n)
        gaps *= 2.0 * np.pi / gaps.sum()
        if gaps.max() < np.pi - 0.05 and gaps.min() > 0.05:
            return np.concatenate([[0.0], np.cumsum(gaps)[:-1]])
    raise GenerationError("no draw")


def test_azimuths_draw_as_the_fixed_floor_did_up_to_twelve_vertices():
    """The floor min(0.05, 0.61 / n) is 0.05 for n <= 12, so every pinned
    pool draws the same azimuths; past that the scaled floor still draws."""
    for n in range(3, 13):
        for seed in range(30):
            new, old = np.random.default_rng((seed, n)), np.random.default_rng((seed, n))
            assert np.array_equal(_azimuths(new, n), _fixed_floor_azimuths(old, n))
            assert np.array_equal(new.random(2), old.random(2))
    for n in (60, 200, 1000):
        gaps = np.diff(_azimuths(np.random.default_rng(n), n), append=2 * np.pi)
        assert gaps.min() > 0.61 / n and gaps.max() < np.pi - 0.05


def test_convex_suspensions_are_strongly_convex_and_decomposable():
    rng = np.random.default_rng(1)
    for n in (3, 4, 6, 9):
        s = convex_suspension(rng, n)
        assert s.n == n
        report = classify_convexity(s.surface)
        assert report.classification is Convexity.STRONGLY_STRICTLY_CONVEX
        assert bool(is_ns_decomposable(s))


def test_convex_draws_up_to_twelve_vertices_are_the_fixed_rules():
    """The polygon floor, spread and jitter shrink only past n = 12, so every
    draw with n <= 12 equals the fixed rules' draw bit for bit, and leaves the
    stream where they left it; past n = 12 the scaled rules still draw."""
    for n in range(3, 13):
        for seed in range(5):
            new, old = np.random.default_rng((seed, n)), np.random.default_rng((seed, n))
            s = convex_suspension(new, n)
            assert np.array_equal(s.vertices, oracles.convex_suspension(old, n).vertices)
            polygon = random_convex_polygon(new, n)
            assert np.array_equal(polygon, oracles.random_convex_polygon(old, n))
            assert np.array_equal(new.random(2), old.random(2))
    for n in (80, 200):
        s = suspension_profile("convex", np.random.default_rng(0), n)
        assert classify_convexity(s.surface).classification is Convexity.STRONGLY_STRICTLY_CONVEX


def test_star_profile_refuses_three_equator_vertices_before_drawing():
    rng = np.random.default_rng(0)
    with pytest.raises(GenerationError, match="degree-3 pole's link is a spherical triangle"):
        suspension_profile("star", rng, 3)
    assert np.array_equal(rng.random(2), np.random.default_rng(0).random(2))
    assert star_suspension(np.random.default_rng(0), 3).n == 3


def test_star_suspensions_have_reflex_laterals():
    rng = np.random.default_rng(2)
    for n in (4, 6, 8):
        s = star_suspension(rng, n, require_reflex=True)
        report = classify_convexity(s.surface)
        assert report.is_weakly_convex
        reflex = report.reflex_edges
        assert reflex
        assert all(0 in e or 1 in e for e in reflex)  # laterals touch a pole
        assert bool(is_ns_decomposable(s))


def test_random_suspension_builds():
    s = random_suspension(np.random.default_rng(5), 7)
    assert s.n == 7


def test_suspension_profile_dispatch():
    rng = np.random.default_rng(6)
    assert suspension_profile("convex", rng, 4).n == 4
    assert suspension_profile("star", rng, 5).n == 5
    assert suspension_profile("random", rng, 6).n == 6
    with pytest.raises(GenerationError, match="unknown profile"):
        suspension_profile("fancy", rng, 4)


def test_threshold_fixture_sits_on_the_rigidity_boundary():
    fix = flexible_suspension_fixture()
    assert abs(fix.lam) <= 1e-10
    assert 0.0 < fix.notch_height < 1.0
    assert abs(lambda_scalar(fix.suspension).total - fix.lam) < 1e-15

    fw = Framework.from_surface(fix.suspension.surface)
    space = bar_flex_space(fw)
    assert space.dimension == 7 and space.trivial_dimension == 6
    assert not is_infinitesimally_rigid(fw)
    # carries a flex, so it cannot be weakly convex
    assert not classify_convexity(fix.suspension.surface).is_weakly_convex


def test_threshold_fixture_is_deterministic():
    a = flexible_suspension_fixture()
    b = flexible_suspension_fixture()
    assert a.notch_height == b.notch_height and a.lam == b.lam


def test_dented_hull_star_decomposition():
    d = dented_hull_star(np.random.default_rng(8), 10)
    assert d.r >= 1
    assert d.surface is not None
    assert rigidity_from_lambda(d) == is_infinitesimally_rigid(
        Framework.from_surface(d.surface)
    )


def test_probe_decomposition_kinds():
    d1 = probe_decomposition("dented_hull_star", np.random.default_rng(9))
    assert d1.r >= 1
    d2 = probe_decomposition("suspension_axis", np.random.default_rng(9))
    assert d2.r == 1
    assert classify_convexity(d2.surface).is_weakly_convex
    d3 = probe_decomposition("control_nonconvex", np.random.default_rng(9))
    assert d3.r == 1
    assert not classify_convexity(d3.surface).is_weakly_convex
    with pytest.raises(GenerationError, match="unknown probe kind"):
        probe_decomposition("nope", np.random.default_rng(9))


def test_random_framework_is_connected():
    fw = random_framework(np.random.default_rng(10), 8)
    assert fw.n_vertices == 8
    assert fw.n_edges >= 7
    assert {(i, i + 1) for i in range(7)} <= set(fw.edge_pairs)


def test_projective_maps_preserve_rigidity_rank():
    for k in range(10):
        fw = random_framework(np.random.default_rng((11, k)), int(5 + k % 4))
        pmap = random_projective_map(np.random.default_rng((12, k)), fw.vertices)
        image = Framework(transform_points(pmap, fw.vertices), fw.edges)
        assert rigidity_rank(image) == rigidity_rank(fw)
        assert image.edges == fw.edges
