"""Acceptance suite: one test per shipping criterion, run at desk scale.

Each test is independent evidence that a documented guarantee holds on
randomized instances with pinned seeds and tolerances; shared instance
pools are built once per module.
"""

import numpy as np
import pytest
from numpy.random import default_rng

from rigidity3d import generators, shapes
from rigidity3d.cauchy import dent_rigidity_harness
from rigidity3d.frameworks import (
    Framework,
    Stress,
    bar_flex_space,
    equilibrium_residual,
    equilibrium_stress_space,
    is_infinitesimally_rigid,
    is_proper,
    rigidity_rank,
)
from rigidity3d.hessian import (
    TETRA_EDGE_ORDER,
    lambda_matrix,
    pd_probe,
    rigidity_from_lambda,
)
from rigidity3d.suspensions import (
    NS_EDGE,
    NORTH,
    SOUTH,
    axis_decomposition,
    build_suspension,
    convex_profile_certificate,
    inductive_proper_stress,
    is_ns_decomposable,
    lambda_scalar,
    suspension_rigidity,
    tensegrity_labeling,
)

from oracles import (cayley_menger_feasible, cone_angles, flexible_suspension_fixture,
                     impossible_labeling_search, random_framework, random_projective_map,
                     tetra_angles_and_jacobian, tetrahedron, transform_points)


def _positive_ns(fw, stress):
    """Fix the free sign of a stress so the axis entry is positive."""
    if stress[NS_EDGE] < 0:
        return Stress({pair: -w for pair, w in stress.omega.items()})
    return stress


@pytest.fixture(scope="module")
def decomposable_suspensions():
    """200 axis-decomposable suspensions, mixed profiles, pinned seeds."""
    instances = []
    draw = 0
    while len(instances) < 200:
        rng = default_rng((4000, draw))
        profile = generators.SUSPENSION_PROFILES[draw % 3]
        draw += 1
        n = int(rng.integers(3, 10))
        try:
            s = generators.suspension_profile(profile, rng, n)
        except generators.GenerationError:
            continue
        if not is_ns_decomposable(s):
            continue
        instances.append(s)
    return instances


def _min_relative_volume(d):
    lengths0 = d._edge_lengths[: d.r]
    out = np.inf
    for t in range(len(d.tetrahedra)):
        lengths = d._lengths(lengths0)[t]
        _, volume = cayley_menger_feasible(lengths)
        out = min(out, volume / lengths.max() ** 3)
    return out


@pytest.fixture(scope="module")
def decomposition_pool():
    """100 decompositions with boundary surfaces: half star decompositions
    of dented hulls, half axis decompositions of suspensions.

    Sliver tetrahedra (relative volume < 2e-3) are rejected: the analytic
    Jacobian handles them, but no finite-difference step is small enough
    to stay feasible yet large enough to beat their curvature."""
    pool = []
    draw = 0
    while len(pool) < 50:
        rng = default_rng((5000, draw))
        draw += 1
        d = generators.dented_hull_star(rng, int(rng.integers(8, 21)))
        if _min_relative_volume(d) >= 2e-3:
            pool.append(d)
    draw = 0
    while len(pool) < 100:
        rng = default_rng((5100, draw))
        draw += 1
        s = generators.star_suspension(rng, int(rng.integers(3, 10)))
        d = axis_decomposition(s)
        if _min_relative_volume(d) >= 2e-3:
            pool.append(d)
    return pool


def test_01_octahedron_rank_baseline():
    octa = shapes.octahedron()
    fw = Framework.from_surface(octa)
    assert rigidity_rank(fw) == 12 == 3 * 6 - 6
    assert is_infinitesimally_rigid(fw)
    for drop in octa.edges:
        pruned = Framework(
            octa.vertices,
            [(i, j) for i, j in octa.edges if (i, j) != drop],
        )
        assert rigidity_rank(pruned) == 11
        assert bar_flex_space(pruned).dimension == 7


def test_02_convex_suspension_stress_dimension_and_signs():
    for k in range(100):
        rng = default_rng((4200, k))
        s = generators.convex_suspension(rng, int(rng.integers(3, 13)))
        fw = tensegrity_labeling(s, include_ns=True)
        basis = equilibrium_stress_space(fw)
        assert len(basis) == 1, f"trial {k}: stress dimension {len(basis)}"
        stress = _positive_ns(fw, basis[0])
        assert equilibrium_residual(fw, stress) <= 1e-9
        assert is_proper(fw, stress)
        assert stress[NS_EDGE] > 0
        for slot in range(s.n):
            assert stress[(s.equator_index(slot), s.equator_index(slot + 1))] > 0
            assert stress[(NORTH, s.equator_index(slot))] < 0
            assert stress[(SOUTH, s.equator_index(slot))] < 0


def test_03_inductive_stress_matches_null_space():
    for k in range(100):
        rng = default_rng((4300, k))
        s = generators.star_suspension(
            rng, int(rng.integers(4, 12)), require_reflex=True
        )
        fw = tensegrity_labeling(s, include_ns=True)
        built = inductive_proper_stress(s)
        assert is_proper(fw, built)
        basis = equilibrium_stress_space(fw)
        assert len(basis) == 1, f"trial {k}: stress dimension {len(basis)}"
        v_built = _positive_ns(fw, built).as_vector(fw)
        v_null = _positive_ns(fw, basis[0]).as_vector(fw)
        v_built /= np.linalg.norm(v_built)
        assert np.abs(v_built - v_null).max() <= 1e-6
        assert suspension_rigidity(s)


def test_04_invariant_two_forms_agree(decomposable_suspensions):
    assert len(decomposable_suspensions) == 200
    for s in decomposable_suspensions:
        b = lambda_scalar(s)
        scale = max(abs(b.total_simplex), abs(b.total_projected), 1e-30)
        assert abs(b.total_simplex - b.total_projected) <= 1e-9 * scale
    square = build_suspension(
        (0, 0, 1.0),
        (0, 0, -1.0),
        [(np.cos(t), np.sin(t), 0.0) for t in np.linspace(0, 2 * np.pi, 5)[:-1]],
    )
    b = lambda_scalar(square)
    assert abs(b.total_simplex - 8.0) <= 1e-9
    assert abs(b.total_projected - 8.0) <= 1e-9


def test_05_invariant_matches_axis_finite_difference(decomposable_suspensions):
    def fd(d, l0, h):
        return (cone_angles(d, [l0 + h])[0] - cone_angles(d, [l0 - h])[0]) / (2 * h)

    for s in decomposable_suspensions:
        d = axis_decomposition(s)
        l0 = float(np.linalg.norm(s.north - s.south))
        # Richardson-extrapolated central difference of the cone angle,
        # pulled back to the unit-axis frame by the factor l0
        slope = (4 * fd(d, l0, 5e-6) - fd(d, l0, 1e-5)) / 3
        assert abs(lambda_scalar(s).total - l0 * slope) <= 1e-6


def test_06_invariant_zero_iff_flexible(decomposable_suspensions):
    for radius in (0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20):
        fixture = flexible_suspension_fixture(notch_radius=radius)
        assert abs(fixture.lam) <= 1e-10
        fw = Framework.from_surface(fixture.suspension.surface)
        assert bar_flex_space(fw).dimension == 7
    checked = 0
    for s in decomposable_suspensions:
        if abs(lambda_scalar(s).total) > 1e-7:
            fw = Framework.from_surface(s.surface)
            assert bar_flex_space(fw).dimension == 6
            checked += 1
    assert checked == 200  # random instances never land on the zero set


def test_07_convex_profile_positivity_certificate():
    for k in range(100):
        rng = default_rng((4700, k))
        s = generators.convex_suspension(rng, int(rng.integers(3, 13)))
        report = convex_profile_certificate(s)
        assert report.in_scope, f"trial {k}: {report.reason}"
        assert report.breakdown.height_terms.min() >= -1e-12
        assert report.breakdown.vertex_terms.min() >= -1e-12
        assert report.breakdown.total > 0
        assert report.rigid


def test_08_dented_hull_rigidity_harness():
    report = dent_rigidity_harness(seed=0, trials=100)
    assert len(report.trials) == 100 and report.skipped == 0
    assert not report.failures
    for trial in report.trials:
        assert trial.single_rigid
        assert trial.double_edge is not None and trial.double_rigid


def test_09_exhaustive_labeling_search_and_counting_identities():
    for solid in (tetrahedron(), shapes.octahedron()):
        rotation = {v: solid.neighbors_cyclic(v) for v in range(solid.n_vertices)}
        assert impossible_labeling_search(rotation) is None
    surfaces = []
    for k in range(5):
        rng = default_rng((4900, k))
        surfaces.append(generators.random_convex_hull_surface(rng, 8 + 2 * k))
        surfaces.append(generators.star_suspension(rng, 4 + k).surface)
        surfaces.append(generators.dented_hull_star(rng, 9 + k).surface)
    for surface in surfaces:
        v, e, f = surface.n_vertices, len(surface.edges), len(surface.faces)
        assert 2 * e == 3 * f
        assert v - e + f == 2


def test_10_schlafli_identity_and_jacobian(decomposition_pool):
    def well_shaped(rng):
        # reject slivers: the angle Jacobian blows up as 1/(relative volume)
        # and would drown the identity in roundoff
        while True:
            points = rng.standard_normal((4, 3))
            lengths = np.array(
                [np.linalg.norm(points[a] - points[b]) for a, b in TETRA_EDGE_ORDER]
            )
            volume = abs(np.linalg.det(points[1:] - points[0])) / 6.0
            if volume > 0.01 * lengths.max() ** 3:
                return lengths

    rng = default_rng(41000)
    for _ in range(1000):
        lengths = well_shaped(rng)
        _, jac = tetra_angles_and_jacobian(lengths)
        direction = rng.standard_normal(6)
        direction /= np.linalg.norm(direction)
        assert abs(lengths @ (jac @ direction)) <= 1e-9

    def fd_jacobian(d, l0, h):
        out = np.zeros((d.r, d.r))
        for j in range(d.r):
            step = np.zeros(d.r)
            step[j] = h
            out[:, j] = (cone_angles(d, l0 + step) - cone_angles(d, l0 - step)) / (2 * h)
        return out

    assert len(decomposition_pool) == 100
    for d in decomposition_pool:
        m = lambda_matrix(d).matrix
        assert np.abs(m - m.T).max() <= 1e-7 * np.abs(m).max()
        l0 = d._edge_lengths[: d.r]
        slope = (4 * fd_jacobian(d, l0, 5e-6) - fd_jacobian(d, l0, 1e-5)) / 3
        assert np.abs(slope - m).max() <= 1e-6


def test_11_lambda_rigidity_agrees_with_rank(decomposition_pool):
    for d in decomposition_pool:
        by_lambda = rigidity_from_lambda(d)  # raises on internal disagreement
        by_rank = is_infinitesimally_rigid(Framework.from_surface(d.surface))
        assert by_lambda == by_rank


def test_12_projective_rank_invariance():
    for k in range(100):
        rng = default_rng((41200, k))
        fw = random_framework(rng, int(rng.integers(5, 13)))
        mapping = random_projective_map(rng, fw.vertices)
        mapped = Framework(transform_points(mapping, fw.vertices), fw.edges)
        assert rigidity_rank(mapped) == rigidity_rank(fw)


def test_13_probe_determinism_and_replay():
    first = pd_probe(trials=500, seed=21)
    assert len(first.trials) == 500
    assert first.failures == 0
    second = pd_probe(trials=500, seed=21)
    assert first == second
    for trial in first.trials[::125]:
        rng = default_rng(trial.seed)
        d = generators.probe_decomposition(trial.kind, rng)
        lam = lambda_matrix(d)
        assert lam.r == trial.r
        assert lam.min_eigenvalue == pytest.approx(trial.min_eigenvalue, abs=1e-9)
