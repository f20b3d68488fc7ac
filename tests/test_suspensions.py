"""Tests for suspension construction, stresses and the axis invariant."""

import inspect
import sys
import tracemalloc

import numpy as np
import pytest

from rigidity3d.frameworks import (
    EdgeKind,
    Framework,
    equilibrium_residual,
    equilibrium_stress_space,
    is_proper,
)
from rigidity3d import frameworks, suspensions
from rigidity3d.generators import (
    GenerationError,
    convex_suspension,
    random_suspension,
    star_suspension,
)
from rigidity3d.geometry import (
    DEFAULT_TOL,
    GeometryError,
    Tolerances,
    as_points,
    axis_frame,
    classify_convexity,
    diameter,
    is_weakly_convex,
    normalize_pole_frame,
    pole_frame_ok,
    support_functional,
    unit,
)
from rigidity3d.hessian import lambda_matrix
from rigidity3d.shapes import NORTH, SOUTH, octahedron
from rigidity3d.suspensions import (
    NS_EDGE,
    Suspension,
    SuspensionError,
    axis_decomposition,
    build_suspension,
    convex_profile_certificate,
    cylindrical_equator,
    inductive_proper_stress,
    is_ns_decomposable,
    lambda_scalar,
    suspension_rigidity,
    tensegrity_labeling,
    theta_prime,
)

from oracles import (ProjectiveMap, cone_angles, interior_edge_star, projective_pole_frame,
                     tetrahedron, transform_points)


def octa_suspension():
    return Suspension(octahedron().vertices)


def cylinder_suspension(rng, n=None, radius=None):
    """Random suspension with equator on a cylinder around the axis: all
    vertices are extreme points, so the result is always weakly strictly
    convex and axis-decomposable."""
    n = int(n if n is not None else rng.integers(4, 9))
    while True:
        az = np.sort(rng.uniform(0.0, 2 * np.pi, n))
        gaps = np.diff(np.concatenate([az, [az[0] + 2 * np.pi]]))
        if gaps.min() > 0.15 and gaps.max() < 2.9:
            break
    r = radius if radius is not None else rng.uniform(0.6, 1.4)
    z = rng.uniform(-0.55, 0.55, n)
    eq = np.stack([r * np.cos(az), r * np.sin(az), z], axis=1)
    return build_suspension([0.0, 0.0, 1.2], [0.0, 0.0, -1.2], eq)


# -- independent planar oracles ---------------------------------------------


def point_in_polygon(poly, pt):
    """Ray casting along +x."""
    inside = False
    n = len(poly)
    for i in range(n):
        (x1, y1), (x2, y2) = poly[i], poly[(i + 1) % n]
        if (y1 > pt[1]) != (y2 > pt[1]):
            x_cross = x1 + (pt[1] - y1) * (x2 - x1) / (y2 - y1)
            if x_cross > pt[0]:
                inside = not inside
    return inside


def _segments_cross(p, q, r, s):
    def orient(a, b, c):
        return np.sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))

    return (
        orient(p, q, r) * orient(p, q, s) < 0 and orient(r, s, p) * orient(r, s, q) < 0
    )


def polygon_is_simple(poly):
    n = len(poly)
    for i in range(n):
        for j in range(i + 1, n):
            if j in (i, (i + 1) % n) or (j + 1) % n == i:
                continue
            if _segments_cross(poly[i], poly[(i + 1) % n], poly[j], poly[(j + 1) % n]):
                return False
    return True


# ---------------------------------------------------------------------------
# construction and coordinates
# ---------------------------------------------------------------------------


def test_build_needs_three_equator_vertices():
    with pytest.raises(SuspensionError, match="at least 3"):
        build_suspension([0, 0, 1], [0, 0, -1], [[1, 0, 0], [0, 1, 0]])


def test_pole_on_equator_edge_is_degenerate():
    eq = [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]
    with pytest.raises(SuspensionError, match="degenerate"):
        build_suspension([0.5, 0.5, 0.0], [0, 0, -1], eq)


def test_octahedron_cylindrical_coordinates():
    cyl = cylindrical_equator(octa_suspension())
    assert cyl.scale == pytest.approx(2.0)
    assert np.allclose(cyl.r, 0.5)
    assert np.allclose(cyl.z, 0.5)
    assert np.allclose(cyl.theta, np.pi / 2)


def test_equator_vertex_on_axis_rejected():
    eq = [[1, 0, 0], [0, 1, 0], [0, 0, 0.5], [0, -1, 0]]
    s = build_suspension([0, 0, 1], [0, 0, -1], eq)
    with pytest.raises(SuspensionError, match="lies on the pole axis"):
        cylindrical_equator(s)


# ---------------------------------------------------------------------------
# axis-decomposability
# ---------------------------------------------------------------------------


def test_octahedron_is_decomposable():
    ns = is_ns_decomposable(octa_suspension())
    assert ns
    assert ns.reason is None


def test_star_shaped_nonconvex_equator_is_decomposable():
    """Non-convex but azimuth-monotone equator; cross-checked against
    planar simplicity and point-in-polygon oracles."""
    az = np.arange(6) * np.pi / 3
    r = np.where(np.arange(6) % 2 == 0, 1.0, 0.35)
    eq = np.stack([r * np.cos(az), r * np.sin(az), np.full(6, 0.1)], axis=1)
    s = build_suspension([0, 0, 1], [0, 0, -1], eq)
    assert is_ns_decomposable(s)
    poly = eq[:, :2]
    assert polygon_is_simple(poly)
    assert point_in_polygon(poly, (0.0, 0.0))


def test_figure_eight_equator_rejected():
    eq = [[1, 1, 0.1], [-1, 1.2, 0.0], [1, -1.1, -0.1], [-1, -0.9, 0.0]]
    s = build_suspension([0, 0, 1], [0, 0, -1], eq)
    ns = is_ns_decomposable(s)
    assert not ns
    assert "does not advance" in ns.reason
    assert not polygon_is_simple(np.asarray(eq)[:, :2])


def test_double_winding_equator_rejected():
    """Pentagram: every increment is 144 degrees, so the projection winds
    twice around the axis."""
    az = np.arange(5) * 4 * np.pi / 5
    eq = np.stack([np.cos(az), np.sin(az), np.full(5, 0.2)], axis=1)
    s = build_suspension([0, 0, 1], [0, 0, -1], eq)
    ns = is_ns_decomposable(s)
    assert not ns
    assert "winds 2 times" in ns.reason


def test_axis_coplanar_pair_rejected():
    """Consecutive equator vertices at antipodal azimuths span a plane
    through the axis, so their tetrahedron is flat."""
    eq = [[1, 0, 0.1], [-1.5, 0, 0.3], [0, -1, -0.1]]
    s = build_suspension([0, 0, 1], [0, 0, -1], eq)
    ns = is_ns_decomposable(s)
    assert not ns
    assert "axis-coplanar" in ns.reason


def test_decomposable_random_cylinder_family():
    rng = np.random.default_rng(7)
    for _ in range(10):
        assert is_ns_decomposable(cylinder_suspension(rng))


def test_batched_orientation_signs_match_per_slot_dets(monkeypatch):
    """is_ns_decomposable's one det call over the (n, 3, 3) stack gives the
    per-slot determinants bit for bit, on the pinned reflex star and random
    suspension pools, the octahedron and random cylinders."""
    original = np.linalg.det
    calls = []
    monkeypatch.setattr(np.linalg, "det", lambda m: calls.append(m) or original(m))
    pool = [octa_suspension()]
    pool += [cylinder_suspension(np.random.default_rng((411, k))) for k in range(10)]
    for seed, make in ((4800, lambda rng, n: star_suspension(rng, n, require_reflex=True)),
                       (4900, random_suspension)):
        for k in range(40):
            rng = np.random.default_rng((seed, k))
            try:
                pool.append(make(rng, int(rng.integers(4, 13))))
            except GenerationError:
                pass
    checked = 0
    for s in pool:
        calls.clear()
        decomposable = is_ns_decomposable(s)
        assert len(calls) == bool(decomposable)
        if not decomposable:
            continue
        p = s.vertices
        per_slot = [
            original(np.stack([p[SOUTH] - p[NORTH], p[s.equator_index(k)] - p[NORTH],
                               p[s.equator_index(k + 1)] - p[NORTH]]))
            for k in range(s.n)
        ]
        (stack,) = calls
        assert stack.shape == (s.n, 3, 3)
        batched = original(stack)
        assert batched.tobytes() == np.array(per_slot).tobytes()
        assert len({d > 0 for d in per_slot}) == 1
        checked += 1
    assert checked >= 60


# ---------------------------------------------------------------------------
# tensegrity labeling and decomposition
# ---------------------------------------------------------------------------


def test_tensegrity_edge_counts():
    s = octa_suspension()
    fw = tensegrity_labeling(s, include_ns=True)
    assert fw.n_edges == 13
    assert tensegrity_labeling(s, include_ns=False).n_edges == 12
    tri = build_suspension([0, 0, 1], [0, 0, -1],
                           [[1, 0, 0], [-0.5, 0.8, 0], [-0.5, -0.8, 0]])
    assert tensegrity_labeling(tri, include_ns=True).n_edges == 10


def test_tensegrity_kinds():
    s = octa_suspension()
    fw = tensegrity_labeling(s, include_ns=True)
    kinds = {(i, j): kind for i, j, kind in fw.edges}
    assert kinds[NS_EDGE] is EdgeKind.CABLE
    assert kinds[(2, 3)] is EdgeKind.CABLE
    assert kinds[(0, 2)] is EdgeKind.BAR
    assert kinds[(1, 5)] is EdgeKind.BAR


def test_axis_decomposition_octahedron():
    d = axis_decomposition(octa_suspension())
    assert len(d.tetrahedra) == 4
    assert d.interior_edges == (NS_EDGE,)
    assert cone_angles(d)[0] == pytest.approx(2 * np.pi, abs=1e-9)


def test_axis_decomposition_requires_decomposability():
    az = np.arange(5) * 4 * np.pi / 5
    eq = np.stack([np.cos(az), np.sin(az), np.full(5, 0.2)], axis=1)
    s = build_suspension([0, 0, 1], [0, 0, -1], eq)
    with pytest.raises(SuspensionError, match="not axis-decomposable"):
        axis_decomposition(s)


# ---------------------------------------------------------------------------
# the per-simplex angle variation
# ---------------------------------------------------------------------------


def _axis_angle(z1, r1, z2, r2, theta0, length):
    """Dihedral angle at the axis once the axis is stretched to the given
    length with the other five edge lengths held fixed (re-embedding)."""
    out = []
    for z, r in ((z1, r1), (z2, r2)):
        zt = (length**2 - 1.0 + 2.0 * z) / (2.0 * length)
        rt = np.sqrt(z * z + r * r - zt * zt)
        out.append((zt, rt))
    (z1t, r1t), (z2t, r2t) = out
    d12sq = (z1 - z2) ** 2 + r1**2 + r2**2 - 2 * r1 * r2 * np.cos(theta0)
    cos_t = (r1t**2 + r2t**2 + (z1t - z2t) ** 2 - d12sq) / (2 * r1t * r2t)
    return np.arccos(cos_t)


def test_theta_prime_pinned_value():
    assert theta_prime(0.5, 1.0, 0.5, 1.0, np.pi / 2) == pytest.approx(0.5, abs=1e-12)


def test_theta_prime_symmetric_in_the_two_vertices():
    rng = np.random.default_rng(40)
    for _ in range(25):
        z1, z2 = rng.uniform(-0.3, 1.3, 2)
        r1, r2 = rng.uniform(0.3, 1.5, 2)
        t = rng.uniform(0.2, np.pi - 0.2)
        assert theta_prime(z1, r1, z2, r2, t) == pytest.approx(
            theta_prime(z2, r2, z1, r1, t), abs=1e-12
        )


def test_theta_prime_matches_finite_differences():
    rng = np.random.default_rng(41)
    h = 1e-6
    for _ in range(20):
        z1, z2 = rng.uniform(0.05, 0.95, 2)
        r1, r2 = rng.uniform(0.3, 1.5, 2)
        t = rng.uniform(0.2, np.pi - 0.2)
        fd = (_axis_angle(z1, r1, z2, r2, t, 1 + h)
              - _axis_angle(z1, r1, z2, r2, t, 1 - h)) / (2 * h)
        assert theta_prime(z1, r1, z2, r2, t) == pytest.approx(fd, abs=1e-6)


def test_theta_prime_at_pole_heights():
    fd = (_axis_angle(0.0, 0.8, 1.0, 1.1, 1.2, 1 + 1e-6)
          - _axis_angle(0.0, 0.8, 1.0, 1.1, 1.2, 1 - 1e-6)) / 2e-6
    assert theta_prime(0.0, 0.8, 1.0, 1.1, 1.2) == pytest.approx(fd, abs=1e-6)


def test_theta_prime_degenerate_simplex():
    with pytest.raises(SuspensionError, match="degenerate simplex"):
        theta_prime(0.5, 1.0, 0.5, 1.0, np.pi)


def test_theta_prime_on_arrays_is_the_scalar_form_per_simplex():
    rng = np.random.default_rng(42)
    z1, z2 = rng.uniform(-0.3, 1.3, (2, 30))
    r1, r2 = rng.uniform(0.3, 1.5, (2, 30))
    t = rng.uniform(0.2, np.pi - 0.2, 30)
    batched = theta_prime(z1, r1, z2, r2, t)
    assert batched.tolist() == [theta_prime(*args) for args in zip(z1, r1, z2, r2, t)]
    t[[7, 12]] = np.pi
    r2[9] = 0.0
    with pytest.raises(SuspensionError, match=r"^simplex 7: degenerate simplex"):
        theta_prime(z1, r1, z2, r2, t)
    with pytest.raises(SuspensionError, match=r"^radii must be positive$"):
        theta_prime(0.5, 1.0, 0.5, 0.0, 1.0)


# ---------------------------------------------------------------------------
# the axis invariant
# ---------------------------------------------------------------------------


def test_octahedron_invariant_pinned():
    bd = lambda_scalar(octa_suspension())
    assert np.allclose(bd.simplex_terms, 2.0)
    assert bd.total == pytest.approx(8.0, abs=1e-12)
    assert np.allclose(bd.a, 0.25)
    assert np.allclose(bd.b, 0.5)
    assert np.allclose(bd.height_terms, 0.0)
    assert np.allclose(bd.vertex_terms, 2.0)
    assert bd.total_projected == pytest.approx(8.0, abs=1e-12)


def test_two_forms_agree_on_random_suspensions():
    rng = np.random.default_rng(42)
    for _ in range(40):
        bd = lambda_scalar(cylinder_suspension(rng))
        assert abs(bd.total_simplex - bd.total_projected) <= 1e-9 * max(
            1.0, abs(bd.total_simplex)
        )


def test_invariant_matches_cone_angle_derivative():
    """The invariant equals d(total angle)/d(axis length), scaled to the
    unit-axis frame."""
    rng = np.random.default_rng(43)
    h = 1e-6
    for _ in range(5):
        s = cylinder_suspension(rng)
        bd = lambda_scalar(s)
        d = axis_decomposition(s)
        l0 = float(np.linalg.norm(s.north - s.south))
        fd = (cone_angles(d, [l0 + h])[0] - cone_angles(d, [l0 - h])[0]) / (2 * h)
        assert bd.total == pytest.approx(l0 * fd, abs=1e-6)


def test_invariant_matches_interior_length_jacobian():
    rng = np.random.default_rng(44)
    for _ in range(5):
        s = cylinder_suspension(rng)
        entry = lambda_matrix(axis_decomposition(s)).matrix[0, 0]
        assert lambda_scalar(s).total == pytest.approx(
            np.linalg.norm(s.north - s.south) * entry, rel=1e-9
        )


def test_invariant_requires_decomposability():
    eq = [[1, 1, 0.1], [-1, 1.2, 0.0], [1, -1.1, -0.1], [-1, -0.9, 0.0]]
    s = build_suspension([0, 0, 1], [0, 0, -1], eq)
    with pytest.raises(SuspensionError, match="not axis-decomposable"):
        lambda_scalar(s)


# ---------------------------------------------------------------------------
# proper equilibrium stresses
# ---------------------------------------------------------------------------


def test_octahedron_stress_ratios():
    s = octa_suspension()
    stress = inductive_proper_stress(s)
    base = stress[(2, 3)]
    assert base > 0
    for pair in ((2, 3), (3, 4), (4, 5), (2, 5)):
        assert stress[pair] == pytest.approx(base, rel=1e-9)
    for k in range(4):
        assert stress[(0, 2 + k)] == pytest.approx(-base, rel=1e-9)
        assert stress[(1, 2 + k)] == pytest.approx(-base, rel=1e-9)
    assert stress[NS_EDGE] == pytest.approx(2 * base, rel=1e-9)


def test_convex_pentagon_stress_signs():
    """Strongly convex suspension: lateral signs opposite the equator and
    axis signs."""
    az = np.arange(5) * 2 * np.pi / 5
    eq = np.stack([np.cos(az), np.sin(az), np.zeros(5)], axis=1)
    s = build_suspension([0, 0, 1.0], [0, 0, -1.0], eq)
    stress = inductive_proper_stress(s)
    fw = tensegrity_labeling(s, include_ns=True)
    for i, j, kind in fw.edges:
        if kind is EdgeKind.CABLE:
            assert stress[(i, j)] > 0
        else:
            assert stress[(i, j)] < 0


def reflex_cylinder_suspension(rng):
    """Cylinder suspension that has at least one reflex lateral edge."""
    while True:
        s = cylinder_suspension(rng)
        report = classify_convexity(s.surface)
        reflex = [e for e in report.reflex_edges if 0 in e or 1 in e]
        if reflex and report.is_weakly_convex:
            return s, reflex


def test_inductive_stress_on_reflex_suspensions():
    """The peeled construction agrees with the one-dimensional null space
    and is proper; the suspension itself is rigid."""
    rng = np.random.default_rng(45)
    for _ in range(8):
        s, _ = reflex_cylinder_suspension(rng)
        stress = inductive_proper_stress(s)
        fw = tensegrity_labeling(s, include_ns=True)
        assert is_proper(fw, stress, slack=1e-12)
        assert equilibrium_residual(fw, stress) <= 1e-9
        basis = equilibrium_stress_space(fw)
        assert len(basis) == 1
        v1 = stress.as_vector(fw)
        v2 = basis[0].as_vector(fw)
        v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
        if v1 @ v2 < 0:
            v2 = -v2
        assert np.abs(v1 - v2).max() <= 1e-6
        assert suspension_rigidity(s)


def jittered_reflex_cylinder(n, seed=0):
    """Cylinder suspension over n jittered, equally spaced azimuths with
    random heights: every vertex is a hull vertex, most lateral edges are
    reflex, and the induction peels all but a handful of the vertices."""
    rng = np.random.default_rng((5100, n, seed))
    az = (np.arange(n) + rng.uniform(-0.25, 0.25, n)) * 2 * np.pi / n
    eq = np.stack([np.cos(az), np.sin(az), rng.uniform(-0.55, 0.55, n)], axis=1)
    return build_suspension([0.0, 0.0, 1.2], [0.0, 0.0, -1.2], eq)


def svd_star_stress(vertices, ids, k, tol):
    """The five-point star stress as first written, the oracle of the closed
    form: the stress space of the complete framework on the points ids =
    (N, S, p_k-1, p_k, p_k+1) from an SVD of its 10 x 15 rigidity matrix,
    keyed by their vertex pairs."""
    fw = Framework(vertices[list(ids)], [(a, b) for a in range(5) for b in range(a + 1, 5)],
                   tol=tol)
    basis = equilibrium_stress_space(fw, tol)
    if len(basis) != 1:
        raise SuspensionError(f"five-point star around equator slot {k} has a "
                              f"{len(basis)}-dimensional stress space, expected 1")
    return {tuple(sorted((ids[a], ids[b]))): w for (a, b), w in basis[0].omega.items()}


def recursive_stress_by_induction(s, tol, trace):
    """The induction as first written, the oracle of the peel loop: one
    recursion level per peel, which rebuilds the reduced suspension,
    re-checks both hypotheses on it and lifts its stress back."""
    reflex = suspensions.reflex_lateral_edges(s, tol)
    if s.n == 3 or not reflex:
        trace.append(f"direct solve at n={s.n}")
        return suspensions._oriented_direct_stress(s, tol)
    pole, pv = reflex[0]
    k = pv - 2
    trace.append(f"peel equator vertex {pv} (reflex lateral at the "
                 f"{'north' if pole == NORTH else 'south'} pole)")
    try:
        child = build_suspension(s.north, s.south, np.delete(s.equator, k, axis=0), tol)
        child_ns = is_ns_decomposable(child, tol)
        why = None if child_ns else child_ns.reason
        if not why and not is_weakly_convex(child.surface):
            why = "reduced suspension is not weakly strictly convex"
    except (SuspensionError, GeometryError) as exc:
        why = str(exc)
    if why:
        trace.append(f"fallback to direct solve at n={s.n}: {why}")
        return suspensions._oriented_direct_stress(s, tol)

    def lift(idx):
        return idx if idx < 2 + k else idx + 1

    child_omega = recursive_stress_by_induction(child, tol, trace)
    omega = {tuple(sorted((lift(i), lift(j)))): w for (i, j), w in child_omega.items()}
    ids = (NORTH, SOUTH, s.equator_index(k - 1), pv, s.equator_index(k + 1))
    small = svd_star_stress(s.vertices, ids, k, tol)
    chord = tuple(sorted(ids[2::2]))
    factor = -omega[chord] / small[chord]
    for pair, w in small.items():
        omega[pair] = omega.get(pair, 0.0) + factor * w
    omega.pop(chord)
    return omega


# Two suspensions whose first peel leaves a degenerate face (at geom_tol 9e-4):
# the induction falls back to the direct solve, once at each pole.
FALLBACK_EQUATORS = (
    [[0.378, 0.0, 1.079], [-0.903, 0.388, -1.094], [-1.382, 0.003, 0.719],
     [0.223, -0.246, -1.445]],
    [[0.573, 0.0, -1.474], [-0.399, 0.241, 0.021], [-0.509, 0.001, -0.579],
     [0.413, -0.269, 0.292]],
)


def test_peel_loop_matches_the_recursive_induction():
    """Same trace line for line and the same stress within 1e-12 relative
    as the recursion, on test_03's star suspensions, the reflex cylinder
    pool, jittered cylinders up to n = 200, mirror images (whose surfaces
    reverse their faces) and two fallbacks."""
    pool = [(star_suspension(rng, int(rng.integers(4, 12)), require_reflex=True),
             DEFAULT_TOL) for rng in (np.random.default_rng((4300, k)) for k in range(100))]
    rng = np.random.default_rng(45)
    pool += [(reflex_cylinder_suspension(rng)[0], DEFAULT_TOL) for _ in range(8)]
    pool += [(jittered_reflex_cylinder(n), DEFAULT_TOL) for n in (50, 100, 200)]
    pool += [(build_suspension(s.north, s.south, s.equator[::-1]), tol) for s, tol in pool[:20]]
    loose = Tolerances(geom_tol=9e-4)
    pool += [(build_suspension([0, 0, 1.0], [0, 0, -1.0], eq, loose), loose)
             for eq in FALLBACK_EQUATORS]
    reversed_faces = fallbacks = 0
    for s, tol in pool:
        loop_trace, oracle_trace = [], []
        omega = suspensions._stress_by_induction(s, tol, loop_trace)
        oracle = recursive_stress_by_induction(s, tol, oracle_trace)
        assert loop_trace == oracle_trace
        assert omega.keys() == oracle.keys()
        scale = max(abs(w) for w in oracle.values())
        assert max(abs(omega[e] - w) for e, w in oracle.items()) <= 1e-12 * scale
        reversed_faces += int(s.surface.faces[0, 0] != NORTH)
        fallbacks += any("fallback" in line for line in loop_trace)
    assert reversed_faces >= 20 and fallbacks == 2


def star_pool():
    """(vertices, stars, slots): every five-point star (N, S, p_k-1, p_k,
    p_k+1) of test_03's star suspensions, the reflex cylinder pool, jittered
    cylinders up to n = 400 and the mirror images of all of them."""
    pool = [star_suspension(rng, int(rng.integers(4, 12)), require_reflex=True)
            for rng in (np.random.default_rng((4300, k)) for k in range(100))]
    rng = np.random.default_rng(45)
    pool += [reflex_cylinder_suspension(rng)[0] for _ in range(8)]
    pool += [jittered_reflex_cylinder(n) for n in (50, 100, 200, 400)]
    pool += [build_suspension(s.north, s.south, s.equator[::-1]) for s in pool]
    for s in pool:
        slots = np.arange(s.n)
        stars = np.column_stack([np.full(s.n, NORTH), np.full(s.n, SOUTH),
                                 s.equator_index(slots - 1), s.equator_index(slots),
                                 s.equator_index(slots + 1)])
        yield s.vertices, stars, slots


def assert_star_stresses_match_the_svd(vertices, stars, slots):
    """Closed form against the SVD, within 1e-12 after both are scaled to 1
    at the SVD's largest entry."""
    closed = suspensions._star_stresses(vertices, stars, slots, DEFAULT_TOL)
    for ids, k, small in zip(stars.tolist(), slots, closed):
        oracle = svd_star_stress(vertices, ids, k, DEFAULT_TOL)
        assert small.keys() == oracle.keys()
        lead = max(oracle, key=lambda pair: abs(oracle[pair]))
        assert max(abs(small[e] / small[lead] - w / oracle[lead])
                   for e, w in oracle.items()) <= 1e-12


def test_closed_form_star_stress_matches_the_svd():
    stars = 0
    for vertices, ids, slots in star_pool():
        assert_star_stresses_match_the_svd(vertices, ids, slots)
        stars += len(ids)
    assert stars > 2000


def test_closed_form_star_stress_with_four_coplanar_points():
    """N, p_k-1, p_k, p_k+1 on the plane z = 1 - x/2: alpha_S = 0, so the
    stress lives on those four points; five coplanar points raise."""
    vertices = np.array([[0, 0, 1.0], [0, 0, -1.0], [1, -0.5, 0.5], [0.2, 1, 0.9],
                         [-0.8, -0.3, 1.4]])
    stars = np.arange(5)[None]
    assert_star_stresses_match_the_svd(vertices, stars, [3])
    small = suspensions._star_stresses(vertices, stars, [3], DEFAULT_TOL)[0]
    scale = max(map(abs, small.values()))
    assert max(abs(w) for pair, w in small.items() if SOUTH in pair) <= 1e-14 * scale
    flat = vertices * [1, 0, 1]
    with pytest.raises(SuspensionError, match="five-point star around equator slot 3"):
        suspensions._star_stresses(flat, stars, [3], DEFAULT_TOL)


def test_one_factorization_per_suspension_answer(monkeypatch):
    """At n = 200 the induction factors only its direct solve (a 10 x 15 SVD
    per peel made 184), and suspension_rigidity factors no input of at least
    3n rows and columns: one sparse LU certifies the surface's rank, with
    the verdict the dense SVD of its rigidity matrix gives."""
    s = jittered_reflex_cylinder(200)
    shapes = []
    real_svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    inductive_proper_stress(s)
    assert len(shapes) == 1
    shapes.clear()
    verdict = suspension_rigidity(s)
    assert verdict and not [shape for shape in shapes if min(shape) >= 3 * s.n]
    monkeypatch.setattr(frameworks, "SPARSE_MIN_VERTICES", s.n + 3)
    assert verdict == suspension_rigidity(s)
    assert [shape for shape in shapes if min(shape) >= 3 * s.n]


def test_equilibrium_residual_memory_is_linear_in_the_edges():
    """The residual of the n = 400 tensegrity's stress scatters over its
    1201 edges and peaks under 1 MiB; the dense rigidity matrix alone is
    1201 x 1206 doubles, 11 MiB."""
    s = jittered_reflex_cylinder(400)
    stress = inductive_proper_stress(s)
    fw = tensegrity_labeling(s, include_ns=True)
    tracemalloc.start()
    try:
        residual = equilibrium_residual(fw, stress)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual <= 1e-9 * max(map(abs, stress.omega.values()))
    assert peak < 2**20


def test_induction_has_no_depth_limit():
    """At n = 200 the recursion needed about 190 stack frames; the loop
    needs none per peel."""
    s = jittered_reflex_cylinder(200)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 120)
    try:
        stress = inductive_proper_stress(s)
    finally:
        sys.setrecursionlimit(limit)
    fw = tensegrity_labeling(s, include_ns=True)
    assert is_proper(fw, stress, slack=1e-12 * max(abs(w) for w in stress.omega.values()))


def test_induction_builds_no_surface_per_peel(monkeypatch):
    """The peels read their lateral flags from the dihedral kernel, not
    from a surface: at n = 200 the one surface built is the base case's
    suspension (the peels once built one surface each, about 190)."""
    from rigidity3d.geometry import PolyhedralSurface

    s = jittered_reflex_cylinder(200)
    builds = []
    original = PolyhedralSurface.__init__

    def counted(self, *args, **kwargs):
        builds.append(len(args[0]))
        original(self, *args, **kwargs)

    monkeypatch.setattr(PolyhedralSurface, "__init__", counted)
    inductive_proper_stress(s)
    assert len(builds) <= 1
    assert all(n < s.n + 2 for n in builds)  # the reduced base, never s again


def test_suspension_rigidity_checks_hypotheses_once(monkeypatch):
    """One decomposability check, one weak-convexity check and one
    tensegrity per call, all on the suspension itself: the induction
    checks no reduced suspension, and the verdicts stay rigid."""
    import rigidity3d.suspensions as suspensions

    pool = [star_suspension(np.random.default_rng((403, k)), 4 + k, require_reflex=True)
            for k in range(4)]
    calls = []
    for name in ("is_ns_decomposable", "is_weakly_convex", "tensegrity_labeling"):
        def counted(arg, *a, _name=name, _original=getattr(suspensions, name), **k):
            calls.append((_name, id(arg)))
            return _original(arg, *a, **k)

        monkeypatch.setattr(suspensions, name, counted)
    for s in pool:
        calls.clear()
        assert suspension_rigidity(s)
        assert calls.count(("is_ns_decomposable", id(s))) == 1
        assert calls.count(("is_weakly_convex", id(s.surface))) == 1
        assert [name for name, _ in calls].count("is_ns_decomposable") == 1
        assert [name for name, _ in calls].count("is_weakly_convex") == 1
        assert calls.count(("tensegrity_labeling", id(s))) == 1


def test_stress_construction_rejects_nonconvex_input():
    """A radially notched vertex is inside the hull of the others."""
    az = np.arange(6) * np.pi / 3
    r = np.where(np.arange(6) == 0, 0.3, 1.0)
    eq = np.stack([r * np.cos(az), r * np.sin(az), np.full(6, 0.1)], axis=1)
    s = build_suspension([0, 0, 1], [0, 0, -1], eq)
    with pytest.raises(SuspensionError, match="hypothesis failed"):
        inductive_proper_stress(s)


def test_stress_construction_rejects_nondecomposable_input():
    eq = [[1, 1, 0.1], [-1, 1.2, 0.0], [1, -1.1, -0.1], [-1, -0.9, 0.0]]
    s = build_suspension([0, 0, 1], [0, 0, -1], eq)
    with pytest.raises(SuspensionError, match="hypothesis failed"):
        inductive_proper_stress(s)


def test_suspension_rigidity_octahedron():
    assert suspension_rigidity(octa_suspension())


# ---------------------------------------------------------------------------
# the convex-profile certificate
# ---------------------------------------------------------------------------


def test_certificate_octahedron():
    rep = convex_profile_certificate(octa_suspension())
    assert rep.in_scope
    assert rep.rigid
    assert rep.breakdown.total == pytest.approx(8.0, abs=1e-9)


def test_certificate_zigzag_convex_projection():
    """Non-planar equator whose projection is a convex polygon stays in
    scope: every summand non-negative and the surface rigid."""
    az = np.arange(6) * np.pi / 3
    z = np.where(np.arange(6) % 2 == 0, 0.25, -0.25)
    eq = np.stack([np.cos(az), np.sin(az), z], axis=1)
    s = build_suspension([0, 0, 1.0], [0, 0, -1.0], eq)
    rep = convex_profile_certificate(s)
    assert rep.in_scope
    assert rep.breakdown.height_terms.min() >= -1e-12
    assert rep.breakdown.vertex_terms.min() >= -1e-12
    assert rep.breakdown.total > 0
    assert rep.rigid


def test_certificate_out_of_scope_star_projection():
    az = np.arange(6) * np.pi / 3
    r = np.where(np.arange(6) % 2 == 0, 1.0, 0.3)
    eq = np.stack([r * np.cos(az), r * np.sin(az), np.full(6, 0.1)], axis=1)
    s = build_suspension([0, 0, 1], [0, 0, -1], eq)
    rep = convex_profile_certificate(s)
    assert not rep.in_scope
    assert "not strictly convex" in rep.reason


def test_certificate_out_of_scope_unexposed_pole():
    az = np.arange(4) * np.pi / 2
    z = np.array([0.5, -0.5, 0.5, -0.5])
    eq = np.stack([np.cos(az), np.sin(az), z], axis=1)
    s = build_suspension([0, 0, 0.05], [0, 0, -1.0], eq)
    rep = convex_profile_certificate(s)
    assert not rep.in_scope
    assert "pole normalization failed" in rep.reason


# ---------------------------------------------------------------------------
# star extraction and pole normalization
# ---------------------------------------------------------------------------


def test_interior_edge_star_recovers_octahedron():
    s = octa_suspension()
    star = interior_edge_star(axis_decomposition(s))
    assert np.allclose(star.vertices[:2], s.vertices[:2])
    rows = {tuple(np.round(v, 12)) for v in star.equator}
    assert rows == {tuple(np.round(v, 12)) for v in s.equator}
    assert lambda_scalar(star).total == pytest.approx(8.0, abs=1e-9)


def test_interior_edge_star_roundtrip_random():
    rng = np.random.default_rng(46)
    s = cylinder_suspension(rng, n=5)
    star = interior_edge_star(axis_decomposition(s))
    assert lambda_scalar(star).total == pytest.approx(
        lambda_scalar(s).total, rel=1e-9
    )


def test_interior_edge_star_requires_single_interior_edge():
    from rigidity3d.hessian import decompose_star

    with pytest.raises(SuspensionError, match="need exactly one"):
        interior_edge_star(decompose_star(tetrahedron(), 0))


def test_normalize_poles_octahedron():
    s_norm = Suspension(normalize_pole_frame(octa_suspension().surface, NORTH, SOUTH))
    assert pole_frame_ok(s_norm.vertices, 0, 1)
    assert np.allclose(s_norm.vertices[0], [0, 0, 1])
    assert np.allclose(s_norm.vertices[1], [0, 0, 0])
    assert np.allclose(s_norm.equator[:, 2], 0.5)
    assert lambda_scalar(s_norm).total == pytest.approx(8.0, abs=1e-9)


def test_pole_frame_does_not_depend_on_the_position():
    """The frame reads only the differences x - N and x - S, so a translated
    octahedron normalizes to the same points and its certificate stays in
    scope.  The 4x4 map it replaces, scaled to its largest entry, called
    the octahedron 3e3 away from the origin singular."""
    s = octa_suspension()
    base = normalize_pole_frame(s.surface, NORTH, SOUTH)
    for shift in (1e3, 1e4, 1e6):
        moved = Suspension(s.vertices + np.array([shift, -shift, 0.5 * shift]))
        assert np.abs(normalize_pole_frame(moved.surface, NORTH, SOUTH) - base).max() <= 1e-9
        assert convex_profile_certificate(moved).in_scope


def lp_pole_frame(surface, north, south, tol=DEFAULT_TOL):
    """Reference pole frame from two exposure LPs: each pole's plane is
    support_functional's, and the map is projective_pole_frame's."""
    points = as_points(surface.vertices)
    if pole_frame_ok(points, north, south, tol):
        return points
    planes = []
    for name, pole in (("north", north), ("south", south)):
        u, c, delta = support_functional(points, (pole,))
        if delta <= tol.geom_tol * diameter(points):
            raise GeometryError(f"{name} pole (vertex {pole}) is not an exposed point")
        planes.append((u, c))
    (u_n, c_n), (u_s, c_s) = planes
    v1, v2 = axis_frame(unit(points[north] - points[south]))
    m = np.empty((4, 4))
    m[:3, 0], m[3, 0] = v1, -v1 @ points[south]
    m[:3, 1], m[3, 1] = v2, -v2 @ points[south]
    m[:3, 2], m[3, 2] = -u_s, c_s
    m[:3, 3], m[3, 3] = -(u_n + u_s), c_n + c_s
    new_points = transform_points(ProjectiveMap(m), points, tol)
    new_points[south] = 0.0
    new_points[north] = (0.0, 0.0, 1.0)
    return new_points


def pole_frame_pool():
    """The first 40 of test_07's convex suspensions, reflex star and random
    suspensions, tilted octahedra and a suspension whose north pole is not
    exposed."""
    pool = []
    for k in range(40):
        rng = np.random.default_rng((4700, k))
        pool.append(convex_suspension(rng, int(rng.integers(3, 13))))
    for seed, make in ((4800, lambda rng, n: star_suspension(rng, n, require_reflex=True)),
                       (4900, random_suspension)):
        for k in range(100):
            rng = np.random.default_rng((seed, k))
            try:
                pool.append(make(rng, int(rng.integers(4, 13))))
            except GenerationError:
                pass
    rng = np.random.default_rng(99)
    for _ in range(5):
        m = np.eye(4)
        m[:3, :3] += 0.15 * rng.normal(size=(3, 3))
        m[:3, 3] = 0.1 * rng.normal(size=3)
        m[3, :3] = 0.2 * rng.normal(size=3)
        pool.append(Suspension(transform_points(ProjectiveMap(m), octahedron().vertices)))
    az = np.arange(4) * np.pi / 2
    eq = np.stack([np.cos(az), np.sin(az), [0.5, -0.5, 0.5, -0.5]], axis=1)
    pool.append(build_suspension([0, 0, 0.05], [0, 0, -1.0], eq))
    return pool


def test_pole_frame_matches_the_lp_frame(monkeypatch):
    """The hull-normal pole frame accepts and rejects the poles the LP frame
    does, and the certificate reads the same (in_scope, rigid, sign(total)).

    in_scope is not a projective invariant: the projection centre on the
    axis is where the two support planes' sum vanishes, so another pair of
    planes can tip a projected equator that is barely convex.  A differing
    scope is accepted only there, |b.min()| < 1e-2 in both frames, and on
    at most 1% of the pool."""
    pool = pole_frame_pool()
    rejected = flips = 0
    for s in pool:
        readings = []
        for frame in (normalize_pole_frame, lp_pole_frame):
            try:
                pts = frame(s.surface, NORTH, SOUTH)
            except GeometryError as exc:
                pts = str(exc)
                monkeypatch.setattr(suspensions, "normalize_pole_frame", frame)
            else:
                assert pole_frame_ok(pts, NORTH, SOUTH)
                # the certificate reuses this frame instead of solving it again
                monkeypatch.setattr(
                    suspensions, "normalize_pole_frame", lambda *a, result=pts: result
                )
            rep = convex_profile_certificate(s)
            total = None if rep.breakdown is None else np.sign(rep.breakdown.total)
            readings.append((pts, (rep.in_scope, rep.rigid, total)))
        (hull_pts, hull_cert), (lp_pts, lp_cert) = readings
        if isinstance(hull_pts, str) or isinstance(lp_pts, str):
            assert hull_pts == lp_pts
            rejected += 1
        if hull_cert != lp_cert:
            flips += 1
            b_mins = [lambda_scalar(Suspension(pts)).b.min() for pts in (hull_pts, lp_pts)]
            assert max(map(abs, b_mins)) < 1e-2, (hull_cert, lp_cert, b_mins)
            assert {hull_cert[1], lp_cert[1]} == {True, None}
    assert rejected == 1
    assert flips <= len(pool) // 100


def test_pole_frame_equals_the_projective_map(monkeypatch):
    """normalize_pole_frame's two plane functionals give the points of the
    4x4 projective map they replace (oracles.projective_pole_frame) within
    1e-14 and refuse the same poles; the certificate reads the same
    in_scope, rigid, reason and breakdown (within 1e-12) in either frame.
    Pools: test_07's 100 convex suspensions and pole_frame_pool()."""
    pool = []
    for k in range(100):
        rng = np.random.default_rng((4700, k))
        pool.append(convex_suspension(rng, int(rng.integers(3, 13))))
    pool += pole_frame_pool()
    rejected = in_scope = 0
    for s in pool:
        try:
            _, mapped = projective_pole_frame(s.surface, NORTH, SOUTH)
        except GeometryError as exc:
            with pytest.raises(GeometryError) as direct_exc:
                normalize_pole_frame(s.surface, NORTH, SOUTH)
            assert str(direct_exc.value) == str(exc)
            rejected += 1
            continue
        direct = normalize_pole_frame(s.surface, NORTH, SOUTH)
        assert np.abs(direct - mapped).max() <= 1e-14
        report = convex_profile_certificate(s)
        with monkeypatch.context() as patch:
            patch.setattr(suspensions, "normalize_pole_frame", lambda *a, result=mapped: result)
            reference = convex_profile_certificate(s)
        assert (report.in_scope, report.rigid, report.reason) == (
            reference.in_scope, reference.rigid, reference.reason)
        if report.breakdown is not None:
            in_scope += 1
            for field in ("simplex_terms", "a", "b", "height_terms", "vertex_terms", "theta"):
                got, want = getattr(report.breakdown, field), getattr(reference.breakdown, field)
                assert np.abs(got - want).max() <= 1e-12, field
            assert report.breakdown.scale == pytest.approx(reference.breakdown.scale, abs=1e-12)
    assert rejected == 1
    assert in_scope >= 100
