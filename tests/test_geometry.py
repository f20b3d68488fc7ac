"""Tests for the low-level geometry kernel."""

import itertools
import re

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from rigidity3d import fileio
from rigidity3d.geometry import (
    DEFAULT_TOL,
    Convexity,
    GeometryError,
    PolyhedralSurface,
    Tolerances,
    _cross,
    classify_convexity,
    classify_convexity_from_hull,
    diameter,
    dihedral_angles,
    edge_flags,
    is_weakly_convex,
    normalize_pole_frame,
    pole_frame_ok,
    support_functional,
)
from rigidity3d.generators import (
    convex_suspension,
    dented_hull_star,
    probe_decomposition,
    random_convex_hull_surface,
    random_suspension,
    star_suspension,
)
from rigidity3d.hessian import pd_probe
from rigidity3d.shapes import bipyramid_faces, hull_faces, octahedron
from rigidity3d.suspensions import (
    Suspension,
    SuspensionError,
    build_suspension,
    convex_profile_certificate,
    inductive_proper_stress,
    suspension_rigidity,
)

from oracles import (ProjectiveMap, cayley_menger_feasible, cube, flexible_suspension_fixture,
                     icosahedron, square_pyramid, tetra_angles_and_jacobian, tetrahedron,
                     transform_points)


def dented_octahedron():
    """Octahedron with the equator edge (2,3) replaced by the diagonal (0,1).

    The roof over the quad N,2,S,3 is re-triangulated through the pole
    axis, which pushes the surface inside the hull along [N, S].
    """
    base = octahedron()
    faces = [tuple(f) for f in base.faces.tolist()]
    faces.remove((0, 2, 3))
    faces.remove((1, 3, 2))
    faces += [(0, 2, 1), (1, 3, 0)]
    return PolyhedralSurface(base.vertices, faces)


# ---------------------------------------------------------------------------
# surface validation
# ---------------------------------------------------------------------------


def test_surface_counts():
    """Accepted closed triangulated surfaces satisfy v-e+f=2 and 2e=3f."""
    for surf in (octahedron(), cube(), tetrahedron(), square_pyramid()):
        v, e, f = surf.n_vertices, len(surf.edges), len(surf.faces)
        assert v - e + f == 2
        assert 2 * e == 3 * f
        assert surf.signed_volume > 0.0


def test_surface_equality_is_identity():
    surf = octahedron()
    assert surf == surf and surf != octahedron()
    assert len({surf, surf}) == 1


def test_surface_rejects_open_surface():
    base = octahedron()
    with pytest.raises(GeometryError, match="only one face"):
        PolyhedralSurface(base.vertices, base.faces[:-1])


def test_surface_rejects_inconsistent_orientation():
    base = octahedron()
    faces = base.faces.copy()
    faces[0] = faces[0][::-1]
    with pytest.raises(GeometryError, match="orientation"):
        PolyhedralSurface(base.vertices, faces)


def test_surface_rejects_repeated_index_and_coincident_vertices():
    base = octahedron()
    bad = base.faces.copy()
    bad[0] = (2, 2, 3)
    with pytest.raises(GeometryError, match="repeats"):
        PolyhedralSurface(base.vertices, bad)

    squashed = base.vertices.copy()
    squashed[5] = squashed[2] + 1e-12
    with pytest.raises(GeometryError, match="coincide"):
        PolyhedralSurface(squashed, base.faces)


def test_error_messages_name_faces_as_plain_ints():
    tet = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(GeometryError, match=re.escape("face 0 repeats a vertex index: (0, 0, 1)")):
        PolyhedralSurface(tet, [(0, 0, 1), (0, 1, 2), (0, 2, 3), (1, 2, 3)])


def surface_pool():
    """Pinned random hulls, dented hulls and reflex suspensions."""
    pool = [random_convex_hull_surface(np.random.default_rng((401, k)), 6 + 7 * k)
            for k in range(6)]
    pool += [dented_hull_star(np.random.default_rng((402, k)), 8 + k).surface for k in range(5)]
    pool += [star_suspension(np.random.default_rng((403, k)), 4 + k, require_reflex=True).surface
             for k in range(6)]
    return pool


def test_edges_and_flanking_faces_match_brute_force():
    """edges, edge_faces and flanking_faces agree with a scan of the final
    face list, also when the input faces were given inward and flipped."""
    base = octahedron()
    flipped = PolyhedralSurface(base.vertices, base.faces[:, ::-1])
    assert (flipped.faces == base.faces).all()
    shapes = [octahedron(), cube(), tetrahedron(), square_pyramid(), icosahedron()]
    for surf in shapes + surface_pool() + [flipped]:
        holder = {}
        for f_idx, (a, b, c) in enumerate(surf.faces.tolist()):
            holder.update({(a, b): f_idx, (b, c): f_idx, (c, a): f_idx})
        edges = sorted({tuple(sorted(e)) for e in holder})
        assert list(surf.edges) == edges
        assert all(type(x) is int for e in surf.edges for x in e)
        assert surf.flanking_faces.tolist() == [[holder[(i, j)], holder[(j, i)]] for i, j in edges]
        for i, j in edges:
            assert surf.edge_faces(i, j) == (holder[(i, j)], holder[(j, i)])
            assert surf.edge_faces(j, i) == (holder[(j, i)], holder[(i, j)])
    with pytest.raises(GeometryError, match="not an edge"):
        base.edge_faces(2, 4)


def test_diameter_and_closest_pair_match_brute_force():
    rng = np.random.default_rng(2400)
    assert diameter(np.zeros((0, 3))) == 0.0
    assert diameter(rng.normal(size=(1, 3))) == 0.0
    assert diameter([[0, 0, 0], [3, 4, 0]]) == 5.0
    for n in (3, 7, 40, 111):
        points = rng.normal(size=(n, 3)) * rng.uniform(0.1, 10.0)
        brute = max(np.linalg.norm(p - q) for p in points for q in points)
        assert diameter(points) == pytest.approx(brute, rel=1e-14)
        i, j = sorted(rng.choice(n, size=2, replace=False))
        points[j] = points[i] + 1e-13
        with pytest.raises(GeometryError, match=f"vertices {i} and {j} coincide"):
            PolyhedralSurface._check_coincidence(points, DEFAULT_TOL)


def test_surface_orientation_normalized():
    """Inward-oriented input is flipped to outward (positive volume)."""
    base = octahedron()
    flipped = PolyhedralSurface(base.vertices, base.faces[:, ::-1])
    assert flipped.signed_volume > 0.0
    assert flipped.signed_volume == pytest.approx(base.signed_volume)


def test_signed_volume_computed_once_per_surface(monkeypatch):
    """The constructor's orienting volume is the one the surface keeps."""
    import rigidity3d.geometry as geometry

    base = octahedron()
    calls = []
    original = geometry._signed_volume
    monkeypatch.setattr(geometry, "_signed_volume",
                        lambda *a: calls.append(1) or original(*a))
    for faces in (base.faces, base.faces[:, ::-1]):
        surf = PolyhedralSurface(base.vertices, faces)
        assert surf.signed_volume == surf.signed_volume == pytest.approx(4.0 / 3.0)
    assert len(calls) == 2


def test_diameter_measured_once_per_surface(monkeypatch):
    """The coincidence check's pairwise distances give the diameter the
    surface keeps, bit for bit."""
    import scipy.spatial.distance

    import rigidity3d.geometry as geometry

    base = octahedron()
    scaled = base.vertices * [1.0, 2.0, 3.0]
    calls = []
    original = scipy.spatial.distance.pdist
    monkeypatch.setattr(scipy.spatial.distance, "pdist",
                        lambda *a: calls.append(1) or original(*a))
    surf = PolyhedralSurface(scaled, base.faces)
    assert surf.diameter == surf.diameter
    assert len(calls) == 1
    assert surf.diameter == geometry.diameter(scaled) == 6.0


# ---------------------------------------------------------------------------
# dihedral angles
# ---------------------------------------------------------------------------


def test_dihedral_cube_edge():
    """Perpendicular faces meet at pi/2."""
    c = cube()
    assert dihedral_angles(c)[c.edges.index((0, 1))] == pytest.approx(np.pi / 2, abs=1e-12)


def test_dihedral_regular_tetrahedron():
    """Every edge of the regular tetrahedron: arccos(1/3)."""
    for angle in dihedral_angles(tetrahedron()):
        assert angle == pytest.approx(1.2309594173407747, abs=1e-12)


def test_dihedral_reflex_edge_of_dented_octahedron():
    """The new interior edge [N,S] has interior angle 3*pi/2: the solid
    occupies three of the four quadrants around the pole axis."""
    d = dented_octahedron()
    assert dihedral_angles(d)[d.edges.index((0, 1))] == pytest.approx(3 * np.pi / 2, abs=1e-12)


def test_dihedral_mirror_invariance():
    """Interior angles are preserved by a reflection of the solid."""
    base = octahedron()
    mirrored = PolyhedralSurface(base.vertices * np.array([-1.0, 1.0, 1.0]), base.faces)
    assert dihedral_angles(mirrored) == pytest.approx(dihedral_angles(base))


def test_dihedral_angles_match_flank_tetrahedra():
    """Each batched angle, folded into (0, pi], is the simplex angle of the
    flank tetrahedron found by scanning the faces; the angles above pi are
    exactly the edges flagged reflex."""
    n_reflex = 0
    for surf in surface_pool():
        angles = dihedral_angles(surf)
        assert angles.shape == (len(surf.edges),)
        third = {}
        for a, b, c in surf.faces.tolist():
            third.update({(a, b): c, (b, c): a, (c, a): b})
        quads = [(i, j, third[(i, j)], third[(j, i)]) for i, j in surf.edges]
        corners = surf.vertices[np.array(quads)]
        first, second = np.array(list(itertools.combinations(range(4), 2))).T
        lengths = np.linalg.norm(corners[:, first] - corners[:, second], axis=-1)
        simplex = tetra_angles_and_jacobian(lengths)[0][:, 0]
        np.testing.assert_allclose(np.minimum(angles, 2 * np.pi - angles), simplex, atol=1e-10)
        reflex = {e for e, flag in edge_flags(surf, DEFAULT_TOL).items() if flag == "reflex"}
        assert {e for e, a in zip(surf.edges, angles) if a > np.pi} == reflex
        n_reflex += len(reflex)
    assert n_reflex >= 11  # at least one per dented hull and reflex suspension


def test_hull_faces_match_the_per_simplex_rule():
    """hull_faces orders each qhull simplex as flipping it on its own
    against the centroid does, bit for bit: on the icosahedron, on pinned
    random point clouds and on the generated random hull surfaces."""

    def per_simplex(points, simplices):
        centroid = points.mean(axis=0)
        faces = []
        for a, b, c in simplices:
            if np.cross(points[b] - points[a], points[c] - points[a]) @ (points[a] - centroid) < 0:
                b, c = c, b
            faces.append([int(a), int(b), int(c)])
        return faces

    clouds = [icosahedron().vertices]
    clouds += [np.random.default_rng((407, k)).normal(size=(5 + 9 * k, 3)) for k in range(6)]
    for points in clouds:
        simplices = ConvexHull(points).simplices
        assert hull_faces(points, simplices).tolist() == per_simplex(points, simplices)
    assert icosahedron().faces.tolist() == per_simplex(clouds[0], ConvexHull(clouds[0]).simplices)
    for k in range(6):
        surf = random_convex_hull_surface(np.random.default_rng((401, k)), 6 + 7 * k)
        expected = per_simplex(surf.vertices, ConvexHull(surf.vertices).simplices)
        assert surf.faces.tolist() == expected


def test_cross_kernel_matches_np_cross():
    """_cross gives np.cross's bytes, signed zeros included, on single
    vectors, on (k, 3) stacks, on broadcast pairs and on every face of the
    pinned surfaces."""
    rng = np.random.default_rng(408)
    grid = rng.integers(-2, 3, size=(40, 3)).astype(float)  # many exact zeros
    grid[::5] *= -0.0
    pairs = [(rng.normal(size=3), rng.normal(size=3)), (grid[0], grid[1])]
    for k in (1, 7, 40):
        pairs.append((rng.normal(size=(k, 3)), rng.normal(size=(k, 3))))
    pairs += [
        (grid[:20], grid[20:]),
        (np.eye(3)[:, None, :], grid),  # (3, 1, 3) x (k, 3): the trivial rotations
        (rng.normal(size=3), rng.normal(size=(9, 3))),
        (rng.normal(size=(4, 9, 3)), rng.normal(size=(9, 3))),
        (rng.normal(size=(5, 1, 3)), rng.normal(size=(1, 6, 3))),
    ]
    for a, b in pairs:
        expected = np.cross(a, b)
        got = _cross(a, b)
        assert got.shape == expected.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()
    for surf in surface_pool():
        corners = surf.vertices[surf.faces]
        expected = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        assert surf.face_cross.tobytes() == expected.tobytes()


def test_zero_area_face_reads_flat():
    """With vertex 3 of the octahedron at the midpoint of vertices 0 and 2,
    face 0 = (0, 2, 3) has zero area: its edges read NaN and "flat", and a
    suspension refuses it."""
    v = octahedron().vertices.copy()
    v[3] = 0.5 * (v[0] + v[2])
    surf = PolyhedralSurface(v, octahedron().faces)
    assert tuple(surf.faces[0].tolist()) == (0, 2, 3)
    assert np.flatnonzero(surf.degenerate_faces()).tolist() == [0]
    face_edges = [(0, 2), (0, 3), (2, 3)]
    angles = dict(zip(surf.edges, dihedral_angles(surf)))
    assert all(np.isnan(angles[e]) == (e in face_edges) for e in surf.edges)
    flags = classify_convexity(surf).edge_flags
    assert all(flags[e] == "flat" for e in face_edges)
    with pytest.raises(SuspensionError, match=re.escape("face (0, 2, 3) is degenerate (zero area)")):
        Suspension(v)


def reference_dihedral_angles(surface, tol):
    """dihedral_angles as it was written before the shared kernel: unit
    normals of every face, gathered per flank, and the degenerate-face mask
    read from degenerate_faces."""
    cross = surface.face_cross
    with np.errstate(divide="ignore", invalid="ignore"):
        normals = cross / np.linalg.norm(cross, axis=1)[:, None]
    f1, f2 = surface.flanking_faces.T
    n1, n2 = normals[f1], normals[f2]
    i, j = np.array(surface.edges).T
    u = surface.vertices[j] - surface.vertices[i]
    u /= np.linalg.norm(u, axis=1)[:, None]
    angles = np.pi - np.arctan2(
        np.einsum("ex,ex->e", np.cross(n1, n2), u), np.einsum("ex,ex->e", n1, n2)
    )
    angles[angles <= 0.0] += 2.0 * np.pi
    degenerate = surface.degenerate_faces(tol)
    angles[degenerate[f1] | degenerate[f2]] = np.nan
    return angles


def test_dihedral_kernel_matches_the_reference_formula():
    """dihedral_angles and edge_flags give the reference
    formula's bits, NaNs included, at the default geom_tol and at 9e-4, on
    random hulls with 8 to 200 vertices, dented hulls, star and random
    suspensions, the mirror image of each, and a surface with a zero-area
    face."""
    pool = [random_convex_hull_surface(np.random.default_rng((1500, n)), n)
            for n in (8, 13, 21, 34, 55, 89, 144, 200)]
    pool += [dented_hull_star(np.random.default_rng((1501, k)), 8 + k).surface for k in range(6)]
    for k in range(6):
        for s in (star_suspension(np.random.default_rng((1502, k)), 4 + 2 * k, require_reflex=True),
                  random_suspension(np.random.default_rng((1503, k)), 4 + 2 * k)):
            pool += [s.surface, build_suspension(s.north, s.south, s.equator[::-1]).surface]
    pool += [PolyhedralSurface(surf.vertices * [-1.0, 1.0, 1.0], surf.faces) for surf in pool]
    v = octahedron().vertices.copy()
    v[3] = 0.5 * (v[0] + v[2])
    pool.append(PolyhedralSurface(v, octahedron().faces))
    seen = set()
    for tol in (DEFAULT_TOL, Tolerances(geom_tol=9e-4)):
        for surf in pool:
            expected = reference_dihedral_angles(surf, tol)
            assert dihedral_angles(surf, tol).tobytes() == expected.tobytes()
            kinds = np.select([expected > np.pi + tol.geom_tol, expected < np.pi - tol.geom_tol],
                              ["reflex", "convex"], "flat")
            assert edge_flags(surf, tol) == dict(zip(surf.edges, kinds.tolist()))
            seen.update(kinds.tolist())
            if np.isnan(expected).any():
                seen.add("nan")
    assert seen == {"convex", "reflex", "flat", "nan"}


# ---------------------------------------------------------------------------
# convexity classification
# ---------------------------------------------------------------------------


def test_octahedron_strongly_convex():
    rep = classify_convexity(octahedron())
    assert rep.classification is Convexity.STRONGLY_STRICTLY_CONVEX
    assert rep.reflex_edges == ()
    assert rep.unexposed_edges == ()
    assert all(flag == "convex" for flag in rep.edge_flags.values())


def test_dented_octahedron_weakly_convex():
    """All six vertices stay on the hull (hull-membership oracle), but the
    interior diagonal is flagged reflex and not exposed."""
    d = dented_octahedron()
    hull = ConvexHull(d.vertices)
    assert set(hull.vertices) == set(range(6))

    rep = classify_convexity(d)
    assert rep.classification is Convexity.WEAKLY_STRICTLY_CONVEX
    assert rep.nonexposed_vertices == ()
    assert rep.reflex_edges == ((0, 1),)
    assert (0, 1) in rep.unexposed_edges


def bowl_surface():
    """The octahedron with its north pole sunk below the equator plane."""
    base = octahedron()
    v = base.vertices.copy()
    v[0] = [0.0, 0.0, -0.2]
    return PolyhedralSurface(v, base.faces)


def flat_surface():
    """A zero-volume tetrahedron surface on four coplanar points."""
    v = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
        dtype=float,
    )
    return PolyhedralSurface(v, [(0, 1, 2), (2, 1, 3), (0, 2, 3), (0, 3, 1)])


def test_interior_vertex_not_weakly_convex():
    """Sinking the north pole below the equator plane puts it inside the
    hull of the other five vertices."""
    rep = classify_convexity(bowl_surface())
    assert rep.classification is Convexity.NOT_WEAKLY_CONVEX
    assert 0 in rep.nonexposed_vertices
    assert any("inside the hull" in note for note in rep.notes)


def test_degenerate_coplanar_surface_reports_not_convex():
    """A flat (zero-volume) surface classifies as not weakly convex with a
    diagnostic instead of raising."""
    rep = classify_convexity(flat_surface())
    assert rep.classification is Convexity.NOT_WEAKLY_CONVEX
    assert any("degenerate" in note for note in rep.notes)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_classification_is_rigid_motion_and_scale_invariant():
    """Random rotation + scaling + translation never changes the verdict."""
    rng = np.random.default_rng(20260815)
    surfaces = [octahedron(), dented_octahedron(), tetrahedron()]
    for _ in range(5):
        q = random_rotation(rng)
        scale = float(rng.uniform(0.1, 10.0))
        shift = rng.normal(size=3)
        for surf in surfaces:
            moved = PolyhedralSurface(scale * surf.vertices @ q.T + shift, surf.faces)
            assert (
                classify_convexity(moved).classification
                is classify_convexity(surf).classification
            )


def nearly_flat_cube(drop=5e-10):
    """Cube with vertices 0 and 2 moved `drop` outward along the bottom
    face's normal.  At the default drop the bottom diagonal (0, 2) bends by
    about 1.4e-9, more than geom_tol, while its best support plane clears
    vertices 1 and 3 by only about 3e-10 of the diameter; its hull gap (the
    distance from either bottom facet's plane to the other's far vertex)
    is 2 * drop, about 5.8e-10 of the diameter."""
    base = cube()
    v = base.vertices.copy()
    v[[0, 2], 2] -= drop
    return PolyhedralSurface(v, base.faces)


def convexity_oracle_pool():
    """The five shapes, the nearly flat cube, surface_pool and an n = 80
    hull, plus convex and unconstrained star suspensions, the non-convex
    probe controls, the flexible threshold fixture, the dented octahedron,
    the bowl and the qhull-degenerate flat surface."""
    pool = [octahedron(), cube(), tetrahedron(), square_pyramid(), icosahedron(), nearly_flat_cube()]
    pool += surface_pool()
    pool.append(random_convex_hull_surface(np.random.default_rng(408), 80))
    pool += [convex_suspension(np.random.default_rng((404, k)), 4 + k).surface for k in range(4)]
    pool += [star_suspension(np.random.default_rng((405, k)), 4 + k).surface for k in range(6)]
    pool += [probe_decomposition("control_nonconvex", np.random.default_rng((406, k))).surface
             for k in range(4)]
    pool += [flexible_suspension_fixture().suspension.surface]
    return pool + [dented_octahedron(), bowl_surface(), flat_surface()]


@pytest.fixture(scope="module")
def oracle_reports():
    """(surface, tol, classify_convexity(surface, tol)) over the oracle pool
    at two geom_tol values."""
    return [(surf, tol, classify_convexity(surf, tol)) for surf in convexity_oracle_pool()
            for tol in (DEFAULT_TOL, Tolerances(geom_tol=1e-4))]


def test_fast_convexity_calls_match_the_lp_classification(oracle_reports):
    """is_weakly_convex, edge_flags and classify_convexity_from_hull (every
    report field) give what classify_convexity (hull vertices plus one
    exposure LP per convex edge) reports, on pools with both verdicts, every
    classification and every edge flag."""
    verdicts, flags_seen, outcomes = set(), set(), set()
    for surf, tol, report in oracle_reports:
        assert classify_convexity_from_hull(surf, tol) == report
        outcomes.add(report.classification)
        assert is_weakly_convex(surf) is report.is_weakly_convex
        assert edge_flags(surf, tol) == report.edge_flags
        assert list(edge_flags(surf, tol)) == list(surf.edges)
        verdicts.add(report.is_weakly_convex)
        flags_seen.update(report.edge_flags.values())
    assert verdicts == {True, False}
    assert flags_seen == {"convex", "reflex", "flat"}
    assert outcomes == set(Convexity)


def test_hull_classification_matches_the_lp_on_bench_sized_hulls():
    """classify_convexity_from_hull equals classify_convexity on 20 random
    sphere hulls at the sizes analyze is timed on (n = 50, 100, 200)."""
    sizes = [50] * 12 + [100] * 5 + [200] * 3
    for k, n in enumerate(sizes):
        surf = random_convex_hull_surface(np.random.default_rng((410, k)), n)
        report = classify_convexity(surf)
        assert report.classification is Convexity.STRONGLY_STRICTLY_CONVEX
        assert classify_convexity_from_hull(surf) == report


def test_hull_and_lp_exposure_differ_only_in_the_stated_band():
    """nearly_flat_cube with its drop h swept over [geom_tol / 10,
    10 * geom_tol] (41 steps), unrotated and under two random rotations, at
    geom_tol 1e-6 and 1e-4: the two classifiers agree on every report
    except where the bottom diagonal's hull gap, 2h / diameter in
    unit-diameter lengths, lies in (geom_tol, 2 * geom_tol], and the sweep
    reads both verdicts.  (At 1e-9 the LP's delta falls below HiGHS's feasibility
    tolerance, so the sweep stops at 1e-6.)"""
    rng = np.random.default_rng(411)
    for geom_tol in (1e-6, 1e-4):
        tol = Tolerances(geom_tol=geom_tol)
        for rotation in (np.eye(3), random_rotation(rng), random_rotation(rng)):
            exposed = set()
            for h in np.geomspace(geom_tol / 10, 10 * geom_tol, 41):
                flat = nearly_flat_cube(h)
                surf = PolyhedralSurface(flat.vertices @ rotation.T, flat.faces)
                report, reference = classify_convexity_from_hull(surf, tol), classify_convexity(surf, tol)
                exposed.add((0, 2) not in reference.unexposed_edges)
                if report != reference:
                    assert geom_tol < 2 * h / surf.diameter <= 2 * geom_tol, h
                    assert report.unexposed_edges == tuple(
                        e for e in reference.unexposed_edges if e != (0, 2))
            assert exposed == {True, False}


def test_the_hull_readers_share_one_qhull_per_surface(monkeypatch):
    """is_weakly_convex, both classifiers, normalize_pole_frame and the
    convex-profile certificate read the surface's hull stage: on one reflex
    star suspension they build one convex hull between them."""
    import scipy.spatial

    built = []

    class CountedHull(scipy.spatial.ConvexHull):
        def __init__(self, *args, **kwargs):
            built.append(len(args[0]))
            super().__init__(*args, **kwargs)

    s = star_suspension(np.random.default_rng((403, 0)), 4, require_reflex=True)
    monkeypatch.setattr(scipy.spatial, "ConvexHull", CountedHull)
    assert is_weakly_convex(s.surface)
    assert classify_convexity_from_hull(s.surface) == classify_convexity(s.surface)
    assert pole_frame_ok(normalize_pole_frame(s.surface, 0, 1), 0, 1)
    convex_profile_certificate(s)
    assert built == [s.n + 2]


def test_weak_convexity_callers_solve_no_lp(monkeypatch, tmp_path):
    """The probe, the control generator, the suspension induction and
    analyze (analysis_report, which reads exposure from the hull) read only
    weak convexity, edge flags and the hull, and the pole frame (with the
    certificate built on it) reads the same qhull, so none of them solves
    an LP; the reference classification still solves one per convex edge,
    each with a row for every vertex off the edge."""
    import scipy.optimize

    rows = []
    original = scipy.optimize.linprog

    def counting(*args, **kwargs):
        rows.append(len(kwargs["A_ub"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    for include_controls in (False, True):
        report = pd_probe(trials=6, seed=1, include_controls=include_controls)
        assert report.failures == 0 and len(report.trials) == 6
    for k in range(4):
        s = star_suspension(np.random.default_rng((403, k)), 4 + k, require_reflex=True)
        inductive_proper_stress(s)
        suspension_rigidity(s)
        normalize_pole_frame(s.surface, 0, 1)
        convex_profile_certificate(s)
    for k in range(4):
        certificate = convex_profile_certificate(convex_suspension(np.random.default_rng((409, k)), 5))
        assert certificate.in_scope and certificate.rigid
    hulls = [random_convex_hull_surface(np.random.default_rng((407, n)), n) for n in (60, 120)]
    documents = [(octahedron(), "strongly_strictly_convex"),
                 (dented_octahedron(), "weakly_strictly_convex")]
    documents += [(surf, "strongly_strictly_convex") for surf in hulls]
    for k, (surf, convexity) in enumerate(documents):
        path = tmp_path / f"surface{k}.json"
        fileio.save(path, surf)
        assert fileio.analysis_report(fileio.load(path))["verdicts"]["convexity"] == convexity
    assert len(rows) == 0
    classify_convexity(octahedron())
    assert len(rows) == 12
    for surf in hulls:
        rows.clear()
        assert classify_convexity(surf).classification is Convexity.STRONGLY_STRICTLY_CONVEX
        assert rows == [surf.n_vertices - 2] * len(surf.edges)


def test_support_functional_rejects_empty_or_full_touching_sets():
    """Only a nonempty proper touching set gives a bounded LP."""
    pts = octahedron().vertices
    for touching in ((), range(len(pts))):
        with pytest.raises(GeometryError, match="nonempty proper subset"):
            support_functional(pts, touching)


def test_convex_flagged_edge_can_be_unexposed():
    """An edge whose dihedral angle reads convex but whose exposure LP gives
    delta <= geom_tol is listed among the unexposed edges."""
    surf = nearly_flat_cube()
    report = classify_convexity(surf)
    assert report.edge_flags[(0, 2)] == "convex"
    assert np.pi - dihedral_angles(surf)[surf.edges.index((0, 2))] > DEFAULT_TOL.geom_tol
    assert (0, 2) in report.unexposed_edges
    assert report.classification is Convexity.WEAKLY_STRICTLY_CONVEX


# ---------------------------------------------------------------------------
# projective maps (tests/oracles.py: the frame's and test_12's oracle)
# ---------------------------------------------------------------------------


def test_identity_map_fixes_surface():
    surf = octahedron()
    assert np.allclose(transform_points(ProjectiveMap.identity(), surf.vertices), surf.vertices)


def test_scaling_doubles_distances():
    surf = octahedron()
    out = transform_points(ProjectiveMap(np.diag([2.0, 2.0, 2.0, 1.0])), surf.vertices)
    d0 = np.linalg.norm(surf.vertices[2] - surf.vertices[4])
    assert np.linalg.norm(out[2] - out[4]) == pytest.approx(2 * d0)


def test_vertex_at_infinity_is_reported():
    m = np.eye(4)
    m[2, 3] = -1.0  # w = 1 - z: kills points with z = 1
    pm = ProjectiveMap(m)
    with pytest.raises(GeometryError, match="vertex 0"):
        transform_points(pm, octahedron().vertices)


def test_singular_matrix_rejected():
    m = np.eye(4)
    m[3, 3] = 0.0
    m[3, 2] = 0.0
    m[2, 2] = 0.0
    with pytest.raises(GeometryError, match="singular"):
        ProjectiveMap(m)


# ---------------------------------------------------------------------------
# pole normalization
# ---------------------------------------------------------------------------


def test_normalize_poles_octahedron():
    """Standard octahedron: the affine map z -> (z+1)/2, xy -> xy/2."""
    surf = octahedron()
    pts = normalize_pole_frame(surf, 0, 1)
    assert np.allclose(pts[0], [0, 0, 1], atol=1e-9)
    assert np.allclose(pts[1], [0, 0, 0], atol=1e-9)
    assert np.allclose(np.abs(pts[2:, :2]).max(axis=1), 0.5, atol=1e-9)
    assert np.allclose(pts[2:, 2], 0.5, atol=1e-9)
    assert pole_frame_ok(pts, 0, 1)


def test_normalize_poles_identity_when_already_normalized():
    base = octahedron()
    pts = normalize_pole_frame(base, 0, 1)
    again = normalize_pole_frame(PolyhedralSurface(pts, base.faces), 0, 1)
    assert np.array_equal(again, pts)


def test_normalize_poles_after_projective_tilt():
    """Genuinely projective input still lands in the standard frame."""
    rng = np.random.default_rng(99)
    surf = octahedron()
    for _ in range(5):
        m = np.eye(4)
        m[:3, :3] += 0.15 * rng.normal(size=(3, 3))
        m[:3, 3] = 0.1 * rng.normal(size=3)  # projective part
        m[3, :3] = 0.2 * rng.normal(size=3)
        pm = ProjectiveMap(m)
        tilted = transform_points(pm, surf.vertices)
        pts = normalize_pole_frame(PolyhedralSurface(tilted, surf.faces), 0, 1)
        assert pole_frame_ok(pts, 0, 1)


def test_normalize_poles_rejects_unexposed_pole():
    base = octahedron()
    v = base.vertices.copy()
    v[0] = [0.0, 0.0, -0.2]  # north pole inside the hull
    with pytest.raises(GeometryError, match="not an exposed point"):
        normalize_pole_frame(PolyhedralSurface(v, base.faces), 0, 1)


def test_normalize_poles_rejects_a_flat_configuration():
    """qhull fails on coplanar points, so no pole is a hull vertex; in their
    plane the poles would still be exposed polygon corners."""
    flat = [[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0.5], [0.5, 0, -0.5]]
    with pytest.raises(GeometryError, match=r"north pole \(vertex 0\) is not an exposed point"):
        normalize_pole_frame(PolyhedralSurface(flat, bipyramid_faces(3)), 0, 1)


# ---------------------------------------------------------------------------
# Cayley-Menger feasibility (tests/oracles.py: the lambda refusal's oracle)
# ---------------------------------------------------------------------------


def test_cayley_menger_regular():
    ok, vol = cayley_menger_feasible(np.ones(6))
    assert ok
    assert vol == pytest.approx(1.0 / (6.0 * np.sqrt(2.0)), abs=1e-12)


def test_cayley_menger_triangle_violation():
    ok, vol = cayley_menger_feasible([1, 1, 1, 1, 1, 2.1])
    assert not ok and vol == 0.0


def test_cayley_menger_nearly_flat():
    ok, vol = cayley_menger_feasible([1, 1, 1, 1, 1, np.sqrt(3) * 0.999])
    assert ok
    assert 0.0 < vol < 0.02


def test_cayley_menger_relabeling_invariance():
    """All 24 vertex relabelings agree."""
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(4, 3))
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    d = {p: np.linalg.norm(pts[p[0]] - pts[p[1]]) for p in pairs}
    d.update({(j, i): v for (i, j), v in d.items()})
    ref = cayley_menger_feasible([d[p] for p in pairs])
    assert ref[0]
    for perm in itertools.permutations(range(4)):
        lengths = [d[(perm[i], perm[j])] for i, j in pairs]
        ok, vol = cayley_menger_feasible(lengths)
        assert ok == ref[0]
        assert vol == pytest.approx(ref[1], rel=1e-9)


def test_cayley_menger_batch_matches_rows():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 4, 3))
    pts[::4, :, 2] *= 1e-6  # nearly flat: refused
    first, second = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).T
    lengths = np.linalg.norm(pts[:, first] - pts[:, second], axis=-1)
    lengths[1::4, 5] = lengths[1::4, :5].sum(axis=1)  # a broken triangle inequality
    ok, vol = cayley_menger_feasible(lengths.reshape(2, 20, 6))
    assert ok.shape == vol.shape == (2, 20)
    rows = [cayley_menger_feasible(row) for row in lengths]
    assert ok.ravel().tolist() == [r[0] for r in rows]
    assert 0 < ok.sum() < len(rows)
    assert np.abs(vol.ravel() - [r[1] for r in rows]).max() <= 1e-15 * vol.max()
    with pytest.raises(GeometryError, match="expected 6 lengths"):
        cayley_menger_feasible(lengths[:, :5])
    with pytest.raises(GeometryError, match="positive and finite"):
        cayley_menger_feasible(np.vstack([lengths, [1, 1, 1, 1, 1, np.nan]]))


def test_cayley_menger_index_rotations_match_np_roll():
    """The triangle inequalities read from the precomputed rotations of
    _FACE_CYCLES give the np.roll version's verdicts and volumes bit for
    bit, on single rows and batches with infeasible rows, at two
    tolerances."""
    from oracles import _CM_INDEX, _FACE_CYCLES

    def rolled(lengths, tol):
        lengths = np.asarray(lengths, dtype=float)
        scale = lengths.max(axis=-1)
        sides = lengths[..., _FACE_CYCLES]
        broken = sides + np.roll(sides, -1, axis=-1) < (
            np.roll(sides, -2, axis=-1) - tol.geom_tol * scale[..., None, None]
        )
        cm = np.ones(lengths.shape[:-1] + (5, 5))
        cm[..., 0, 0] = 0.0
        padded = np.concatenate([np.zeros(lengths.shape[:-1] + (1,)), lengths**2], axis=-1)
        cm[..., 1:, 1:] = padded[..., _CM_INDEX]
        vol_sq = np.linalg.det(cm) / 288.0
        feasible = ~broken.any(axis=(-2, -1)) & (vol_sq > tol.geom_tol**2 * scale**6)
        return feasible, np.sqrt(np.where(feasible, vol_sq, 0.0))

    rng = np.random.default_rng(409)
    pts = rng.normal(size=(60, 4, 3))
    pts[::5, :, 2] *= 1e-6  # nearly flat
    first, second = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).T
    lengths = np.linalg.norm(pts[:, first] - pts[:, second], axis=-1)
    lengths[1::5, 5] = lengths[1::5, :5].sum(axis=1)  # broken triangle inequality
    lengths[2::5, 3] = lengths[2::5, 0] + lengths[2::5, 1]  # exactly on the boundary
    batches = [lengths, lengths.reshape(3, 20, 6), np.ones(6), [1, 1, 1, 1, 1, 2.1]]
    batches += list(lengths[:10])
    for tol in (DEFAULT_TOL, Tolerances(geom_tol=1e-4)):
        for batch in batches:
            ok, vol = cayley_menger_feasible(batch, tol)
            ref_ok, ref_vol = rolled(batch, tol)
            assert np.asarray(ok).tobytes() == ref_ok.tobytes()
            assert np.asarray(vol).tobytes() == ref_vol.tobytes()
        ok, _ = cayley_menger_feasible(lengths, tol)
        assert 0 < ok.sum() < len(lengths)


def test_classify_convexity_measures_the_diameter_once(monkeypatch):
    """Edge exposure works on unit-diameter points, so no LP threshold
    recomputes the diameter."""
    import rigidity3d.geometry as geometry

    calls = []
    original = geometry.diameter
    monkeypatch.setattr(geometry, "diameter", lambda p: calls.append(1) or original(p))
    report = classify_convexity(octahedron())
    assert report.classification is Convexity.STRONGLY_STRICTLY_CONVEX
    assert len(calls) <= 1
