"""Tests for the rigidity/stress linear-algebra core."""

import numpy as np
import pytest
from scipy.linalg import null_space

from rigidity3d import frameworks
from rigidity3d.frameworks import (
    EdgeKind,
    Framework,
    FrameworkError,
    Motion,
    Stress,
    bar_flex_space,
    equilibrium_residual,
    equilibrium_stress_space,
    is_infinitesimally_rigid,
    is_proper,
    nontrivial_flex,
    rigidity_matrix,
    rigidity_rank,
    trivial_dimension,
    trivial_motion_basis,
)
from rigidity3d.cauchy import CauchyError, dent
from rigidity3d.fileio import analysis_report, from_document, to_document
from rigidity3d.generators import (
    convex_suspension,
    dented_hull_star,
    random_convex_hull_surface,
    random_suspension,
    star_suspension,
)
from rigidity3d.geometry import DEFAULT_TOL, PolyhedralSurface, Tolerances
from rigidity3d.shapes import hull_faces, octahedron
from rigidity3d.suspensions import tensegrity_labeling

from oracles import (ProjectiveMap, cube, flexible_suspension_fixture, random_framework,
                     stress_energy, tensegrity_flex_test, tetrahedron, transform_points)

NS = (0, 1)  # pole edge in the shared bipyramid vertex layout


def octahedron_framework():
    return Framework.from_surface(octahedron())


def octahedron_with_pole_edge(kind=EdgeKind.BAR):
    fw = octahedron_framework()
    return Framework(fw.vertices, fw.edges + ((*NS, kind),))


def suspension_tensegrity(n_eq=4, rng=None):
    """Convex suspension tensegrity: equator + [N,S] cables, lateral bars.

    The equator is sampled on an ellipse (strictly convex by construction)
    with jittered parameter angles when an rng is supplied.
    """
    angles = 2 * np.pi * np.arange(n_eq) / n_eq
    if rng is not None:
        angles = angles + rng.uniform(-0.3, 0.3, n_eq) * (2 * np.pi / n_eq)
    eq = np.column_stack([1.3 * np.cos(angles), 0.8 * np.sin(angles), np.zeros(n_eq)])
    pts = np.vstack([[0, 0, 1.0], [0, 0, -1.0], eq])
    edges = [(0, 1, EdgeKind.CABLE)]
    for k in range(n_eq):
        a, b = 2 + k, 2 + (k + 1) % n_eq
        edges.append((min(a, b), max(a, b), EdgeKind.CABLE))
        edges.append((0, a, EdgeKind.BAR))
        edges.append((1, a, EdgeKind.BAR))
    return Framework(pts, edges)


# ---------------------------------------------------------------------------
# framework validation
# ---------------------------------------------------------------------------


def test_framework_equality_is_identity():
    fw = Framework.from_surface(octahedron())
    assert fw == fw and fw != Framework.from_surface(octahedron())
    assert len({fw, fw}) == 1


def test_framework_rejects_bad_edges():
    pts = np.eye(3)
    with pytest.raises(FrameworkError, match="duplicate"):
        Framework(pts, [(0, 1), (1, 0)])
    with pytest.raises(FrameworkError, match="loop"):
        Framework(pts, [(1, 1)])
    with pytest.raises(FrameworkError, match="out of range"):
        Framework(pts, [(0, 3)])
    with pytest.raises(FrameworkError, match="zero length"):
        Framework(np.vstack([pts, pts[0] + 1e-13]), [(0, 3)])


def test_edges_stored_sorted_with_kinds():
    fw = Framework(np.eye(3), [(2, 0, "cable"), (1, 2, EdgeKind.STRUT)])
    assert fw.edges == ((0, 2, EdgeKind.CABLE), (1, 2, EdgeKind.STRUT))


# ---------------------------------------------------------------------------
# rigidity matrix and flex spaces
# ---------------------------------------------------------------------------


def test_single_bar_matrix():
    fw = Framework(np.array([[0.0, 0, 0], [1.0, 0, 0]]), [(0, 1)])
    assert np.allclose(rigidity_matrix(fw), [[-1, 0, 0, 1, 0, 0]])


def test_matrix_times_motion_gives_edge_rates():
    """(R v) at row {i,j} equals (p_i - p_j) . (m_i - m_j)."""
    rng = np.random.default_rng(11)
    fw = octahedron_with_pole_edge()
    m = rng.normal(size=(fw.n_vertices, 3))
    rates = rigidity_matrix(fw) @ m.ravel()
    p = fw.vertices
    for row, (i, j, _) in enumerate(fw.edges):
        assert rates[row] == pytest.approx((p[i] - p[j]) @ (m[i] - m[j]), abs=1e-12)


def test_tetrahedron_rank():
    fw = Framework.from_surface(tetrahedron())
    r = rigidity_matrix(fw)
    assert r.shape == (6, 12)
    assert np.linalg.matrix_rank(r) == 6  # independent oracle
    assert rigidity_rank(fw) == 6


def test_octahedron_rank():
    fw = octahedron_framework()
    r = rigidity_matrix(fw)
    assert r.shape == (12, 18)
    assert np.linalg.matrix_rank(r) == 12
    assert rigidity_rank(fw) == 12 == 3 * fw.n_vertices - 6


def test_tetrahedron_flex_space_is_trivial():
    space = bar_flex_space(Framework.from_surface(tetrahedron()))
    assert space.dimension == 6
    assert space.trivial_dimension == 6
    assert space.dimension == space.trivial_dimension


def test_vertex_in_face_interior_gives_flex():
    """A vertex placed in a face's interior and joined to that face's
    three corners admits a flex normal to the face: dimension 7."""
    base = octahedron()
    extra = base.vertices[[0, 2, 3]].mean(axis=0)
    pts = np.vstack([base.vertices, extra])
    edges = list(base.edges) + [(0, 6), (2, 6), (3, 6)]
    fw = Framework(pts, edges)
    oracle = null_space(rigidity_matrix(fw))  # independent null-space oracle
    assert oracle.shape[1] == 7
    space = bar_flex_space(fw)
    assert space.dimension == 7
    assert space.trivial_dimension == 6
    assert not is_infinitesimally_rigid(fw)


def test_two_disjoint_bars():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.2, 1.0]])
    fw = Framework(pts, [(0, 1), (2, 3)])
    space = bar_flex_space(fw)
    assert space.dimension == 12 - 2
    assert space.trivial_dimension == 6


def test_flex_space_contains_trivial_motions():
    """R annihilates translations and infinitesimal rotations."""
    fw = octahedron_framework()
    r = rigidity_matrix(fw)
    for t in trivial_motion_basis(fw):
        assert np.abs(r @ t).max() <= 1e-10


def test_trivial_basis_matches_the_np_cross_generators():
    """The generators filled by assignment give the basis the tiled
    translations and np.cross rotations gave, bit for bit, on general,
    integer-grid, coplanar and collinear configurations."""

    def reference(fw, tol=DEFAULT_TOL):
        gens = [np.tile(t, fw.n_vertices) for t in np.eye(3)]
        gens += [np.cross(a, fw.vertices).ravel() for a in np.eye(3)]
        _, s, vt = np.linalg.svd(np.array(gens), full_matrices=False)
        return vt[: tol.numerical_rank(s)]

    rng = np.random.default_rng(410)
    configs = [octahedron().vertices, cube().vertices, tetrahedron().vertices]
    configs += [rng.normal(size=(int(rng.integers(3, 16)), 3)) for _ in range(20)]
    configs += [rng.integers(-2, 3, size=(int(rng.integers(3, 12)), 3)).astype(float)
                for _ in range(40)]
    planar = rng.normal(size=(7, 3))
    planar[:, 2] = 0.0
    configs.append(planar)  # coplanar, in a coordinate plane
    configs.append(rng.normal(size=(6, 2)) @ rng.normal(size=(2, 3)))  # coplanar through 0
    configs.append(np.outer(rng.normal(size=5), [0.0, 0.0, 1.0]))  # collinear on an axis
    configs.append(np.outer(rng.normal(size=5), rng.normal(size=3)) + 1.0)  # collinear
    ranks = set()
    for points in configs:
        fw = Framework(points, [])
        got = trivial_motion_basis(fw)
        assert got.tobytes() == reference(fw).tobytes()
        ranks.add(len(got))
    assert ranks == {5, 6}


def test_octahedron_rigid_and_edge_deletion_flexes():
    fw = octahedron_framework()
    assert is_infinitesimally_rigid(fw)
    cut = Framework(fw.vertices, [e for e in fw.edges if e[:2] != (2, 3)])  # an equator edge
    assert rigidity_rank(cut) == 11
    assert not is_infinitesimally_rigid(cut)


def test_cube_skeleton_not_rigid():
    """Edge skeleton of the cube (no face diagonals): classical flexible frame."""
    fw = Framework(cube().vertices, [(0, 1), (1, 2), (2, 3), (3, 0),
                                     (4, 5), (5, 6), (6, 7), (7, 4),
                                     (0, 4), (1, 5), (2, 6), (3, 7)])
    assert not is_infinitesimally_rigid(fw)


def test_degenerate_configuration_rejected():
    flat = Framework(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]]),
                     [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(FrameworkError, match="span 3-space"):
        is_infinitesimally_rigid(flat)


def test_duality_flex_stress_dimensions():
    """e - 3n + dim(flex) = dim(stress) for random frameworks."""
    rng = np.random.default_rng(20260815)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        pts = rng.normal(size=(n, 3))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = rng.permutation(len(pairs))[: int(rng.integers(3, len(pairs) + 1))]
        fw = Framework(pts, [pairs[k] for k in take])
        flex = bar_flex_space(fw).dimension
        stress = len(equilibrium_stress_space(fw))
        assert fw.n_edges - 3 * n + flex == stress


# ---------------------------------------------------------------------------
# tensegrity sign conditions
# ---------------------------------------------------------------------------


def test_trivial_rotation_satisfies_everything():
    fw = suspension_tensegrity()
    spin = Motion(np.cross([0.3, -0.2, 0.9], fw.vertices))
    report = tensegrity_flex_test(fw, spin)
    assert report.satisfied
    assert max(abs(v) for v in report.values.values()) <= 1e-10


def test_cable_stretched_is_violated():
    fw = Framework(np.array([[0.0, 0, 0], [1.0, 0, 0]]), [(0, 1, "cable")])
    pulling = Motion(np.array([[-1.0, 0, 0], [1.0, 0, 0]]))
    report = tensegrity_flex_test(fw, pulling)
    assert report.values[(0, 1)] == pytest.approx(2.0)
    assert report.violations == ((0, 1),)
    # a strut is happy to lengthen
    strut = Framework(fw.vertices, [(0, 1, "strut")])
    assert tensegrity_flex_test(strut, pulling).satisfied


def test_bar_subframework_flex_keeps_bars_silent():
    """A motion from the lateral-bars flex space leaves every bar value 0."""
    fw = suspension_tensegrity()
    bars_only = Framework(fw.vertices, [e for e in fw.edges if e[2] is EdgeKind.BAR])
    flex = bar_flex_space(bars_only)
    motion = flex.basis[-1]
    report = tensegrity_flex_test(fw, motion)
    for (i, j, kind) in fw.edges:
        if kind is EdgeKind.BAR:
            assert abs(report.values[(i, j)]) <= 1e-10


# ---------------------------------------------------------------------------
# equilibrium stresses
# ---------------------------------------------------------------------------


def test_tetrahedron_has_no_stress():
    assert equilibrium_stress_space(Framework.from_surface(tetrahedron())) == []


def test_octahedron_plus_pole_edge_stress():
    """13 edges / 6 vertices: one stress, proportional to
    (+1 equator, -1 lateral, +2 pole edge)."""
    fw = octahedron_with_pole_edge()
    basis = equilibrium_stress_space(fw)
    assert len(basis) == 1
    s = basis[0]
    assert equilibrium_residual(fw, s) <= 1e-9
    scale = s[NS] / 2.0
    assert scale > 0  # sign fixed deterministically
    for i, j, _ in fw.edges:
        if (i, j) == NS:
            continue
        expected = 1.0 if i >= 2 else -1.0  # equator edges join indices >= 2
        assert s[(i, j)] / scale == pytest.approx(expected, abs=1e-9)


def test_convex_suspension_stress_is_one_dimensional():
    """Equator+pole cables with lateral bars over a convex polygon carry
    exactly one equilibrium stress, proper after the global sign fix:
    cables positive, lateral bars negative (alternating around each
    4-valent equatorial vertex)."""
    rng = np.random.default_rng(5)
    for n_eq in (4, 5, 7):
        fw = suspension_tensegrity(n_eq, rng)
        basis = equilibrium_stress_space(fw)
        assert len(basis) == 1
        s = basis[0]
        flip = 1.0 if s[NS] > 0 else -1.0
        for i, j, kind in fw.edges:
            w = flip * s[(i, j)]
            if kind is EdgeKind.CABLE:
                assert w > 1e-12
            else:
                assert w < -1e-12
        if flip > 0:
            assert is_proper(fw, s)


def test_is_proper_signs():
    fw = octahedron_with_pole_edge()
    tensegrity = Framework(
        fw.vertices,
        [
            (i, j, EdgeKind.CABLE if (i >= 2 or (i, j) == NS) else EdgeKind.BAR)
            for i, j, _ in fw.edges
        ],
    )
    s = equilibrium_stress_space(tensegrity)[0]
    if s[NS] < 0:
        s = Stress({k: -v for k, v in s.omega.items()})
    assert is_proper(tensegrity, s)
    negated = Stress({k: -v for k, v in s.omega.items()})
    assert not is_proper(tensegrity, negated)
    # bars never constrain the sign
    assert is_proper(fw, s) and is_proper(fw, negated)


def test_stress_energy_vanishes_for_equilibrium_stress():
    rng = np.random.default_rng(3)
    fw = octahedron_with_pole_edge()
    s = equilibrium_stress_space(fw)[0]
    for _ in range(100):
        m = Motion(rng.normal(size=(fw.n_vertices, 3)))
        assert abs(stress_energy(fw, s, m)) <= 1e-9


def test_stress_energy_nonzero_for_non_equilibrium_stress():
    rng = np.random.default_rng(4)
    fw = octahedron_with_pole_edge()
    s = equilibrium_stress_space(fw)[0]
    bumped = dict(s.omega)
    bumped[NS] += 0.5
    m = Motion(rng.normal(size=(fw.n_vertices, 3)))
    assert abs(stress_energy(fw, Stress(bumped), m)) > 1e-6


def test_stress_energy_zero_for_trivial_motion():
    fw = octahedron_with_pole_edge()
    random_stress = Stress(dict(zip(fw.edge_pairs, np.linspace(-1, 1, fw.n_edges))))
    drift = Motion(np.tile([0.4, -0.1, 0.7], (fw.n_vertices, 1)))
    assert abs(stress_energy(fw, random_stress, drift)) <= 1e-12


# ---------------------------------------------------------------------------
# invariance of the rigidity verdict
# ---------------------------------------------------------------------------


def test_rigidity_invariant_under_similarity_and_relabeling():
    rng = np.random.default_rng(77)
    fw = octahedron_framework()
    rank0 = rigidity_rank(fw)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        moved = Framework(
            float(rng.uniform(0.5, 3.0)) * fw.vertices @ q.T + rng.normal(size=3),
            fw.edges,
        )
        assert rigidity_rank(moved) == rank0

        perm = rng.permutation(fw.n_vertices)
        relabeled = Framework(
            fw.vertices[np.argsort(perm)],
            [(perm[i], perm[j]) for i, j, _ in fw.edges],
        )
        assert rigidity_rank(relabeled) == rank0


def test_rigidity_invariant_under_projective_maps():
    rng = np.random.default_rng(78)
    fw = octahedron_framework()
    for _ in range(5):
        m = np.eye(4)
        m[:3, :3] += 0.2 * rng.normal(size=(3, 3))
        m[3, :3] = 0.1 * rng.normal(size=3)
        m[:3, 3] = 0.1 * rng.normal(size=3)
        pts = transform_points(ProjectiveMap(m), fw.vertices)
        assert rigidity_rank(Framework(pts, fw.edges)) == 12


# ---------------------------------------------------------------------------
# the cached factorization and rebuilt frameworks
# ---------------------------------------------------------------------------


def _projector(rows):
    rows = np.asarray(rows, dtype=float)
    return rows.T @ rows


def svd_pool():
    """Braced (E > 3n), hull (E = 3n - 6), flexible (one hull edge removed)
    and bare (no edge) frameworks."""
    rng = np.random.default_rng
    braced = [random_framework(rng((2200, k)), 14 + k % 4) for k in range(6)]
    assert all(fw.n_edges > 3 * fw.n_vertices for fw in braced)
    hulls = [
        Framework.from_surface(random_convex_hull_surface(rng((2201, k)), 8 + 2 * k))
        for k in range(4)
    ]
    flexible = [Framework(fw.vertices, fw.edges[:k] + fw.edges[k + 1:]) for k, fw in enumerate(hulls)]
    assert all(fw.n_edges < 3 * fw.n_vertices for fw in hulls + flexible)
    bare = Framework(rng(2202).normal(size=(5, 3)), [])
    return braced + hulls + flexible + [bare]


def two_dent_hulls():
    """Random hulls dented at an edge, then at a second edge sharing one of
    its vertices."""
    surfaces = []
    for k in range(3):
        surface = random_convex_hull_surface(np.random.default_rng((2204, k)), 10 + 2 * k)
        first = dent(surface, surface.edges[0])
        for edge in surface.edges:
            if len(set(edge) & set(first.removed_edge)) != 1:
                continue
            try:
                surfaces.append(dent(first.surface, edge).surface)
            except CauchyError:
                continue
            break
    assert len(surfaces) == 3
    return surfaces


def test_cached_svd_views_match_a_direct_full_svd():
    for fw in svd_pool():
        n3, e = 3 * fw.n_vertices, fw.n_edges
        u, s, vt = np.linalg.svd(rigidity_matrix(fw))
        rank = int((s > DEFAULT_TOL.rank_tol * s[0]).sum()) if s.size else 0
        rigid = n3 - rank == len(trivial_motion_basis(fw))

        # rank questions asked first read a values-only SVD ...
        values_first = Framework(fw.vertices, fw.edges)
        assert rigidity_rank(values_first) == rank
        assert is_infinitesimally_rigid(values_first) == rigid
        assert "svd" not in vars(values_first)
        assert np.allclose(values_first.singular_values, s, rtol=0, atol=1e-12)
        assert not values_first.singular_values.flags.writeable
        # ... and asked after a basis reuse the full one
        basis_first = Framework(fw.vertices, fw.edges)
        assert basis_first.svd[1] is basis_first.singular_values
        assert rigidity_rank(basis_first) == rank
        assert is_infinitesimally_rigid(basis_first) == rigid

        assert rigidity_rank(fw) == rank
        space = bar_flex_space(fw)
        assert space.dimension == n3 - rank
        flexes = [m.flat for m in space.basis]
        assert np.abs(_projector(flexes) - _projector(vt[rank:])).max() <= 1e-10

        stresses = [w.as_vector(fw) for w in equilibrium_stress_space(fw)]
        assert len(stresses) == e - rank
        if stresses:
            assert np.abs(_projector(stresses) - _projector(u[:, rank:].T)).max() <= 1e-10

        assert is_infinitesimally_rigid(fw) == rigid
        flex = nontrivial_flex(fw)
        assert (flex is None) == rigid
        if flex is not None:
            assert np.allclose(rigidity_matrix(fw) @ flex.flat, 0.0, atol=1e-9)
            assert np.allclose(trivial_motion_basis(fw) @ flex.flat, 0.0, atol=1e-9)

        assert fw.svd is fw.svd
        assert not any(a.flags.writeable for a in fw.svd)


def _generator_rank(fw, tol=DEFAULT_TOL):
    """Numerical rank of the 6 x 3n translation and np.cross rotation
    generators: the trivial-motion count as an SVD of them gave it."""
    gens = [np.tile(t, fw.n_vertices) for t in np.eye(3)]
    gens += [np.cross(a, fw.vertices).ravel() for a in np.eye(3)]
    return tol.numerical_rank(np.linalg.svd(np.array(gens), full_matrices=False)[1])


def _three_svd_verdict(fw, tol=DEFAULT_TOL):
    """Rigidity as a spanning check, the rank of R and the generator rank
    gave it: 3n - rank R equals the trivial-motion count."""
    centred = fw.vertices - fw.vertices.mean(axis=0)
    assert tol.numerical_rank(np.linalg.svd(centred, compute_uv=False)) == 3
    rank = tol.numerical_rank(np.linalg.svd(rigidity_matrix(fw), compute_uv=False))
    return 3 * fw.n_vertices - rank == _generator_rank(fw, tol)


def configuration_pool():
    """General, integer-grid (coincident, collinear and coplanar draws among
    them), planar, collinear, far-off thin and near-collinear point sets."""
    rng = np.random.default_rng(2209)
    configs = [octahedron().vertices, cube().vertices, tetrahedron().vertices]
    configs += [rng.normal(size=(int(rng.integers(3, 16)), 3)) for _ in range(200)]
    configs += [rng.integers(-1, 2, size=(int(rng.integers(1, 12)), 3)).astype(float)
                for _ in range(400)]
    configs += [np.ones((4, 3)), np.zeros((1, 3))]
    for _ in range(20):
        n = int(rng.integers(3, 10))
        configs.append(rng.normal(size=(n, 2)) @ rng.normal(size=(2, 3)) + rng.normal(size=3))
        configs.append(np.outer(rng.normal(size=n), rng.normal(size=3)) + rng.normal(size=3))
    for _ in range(50):
        n = int(rng.integers(3, 10))
        far = rng.normal(size=3)
        configs.append(1e3 * far / np.linalg.norm(far) + rng.normal(size=(n, 3)) * [1, 1, 1e-3])
        line = np.outer(rng.normal(size=n), rng.normal(size=3))
        configs.append(line + 1e-6 * rng.normal(size=(n, 3)))
    return configs


def test_trivial_dimension_is_the_generator_rank():
    """3 / 5 / 6 / 6 by affine rank equals the numerical rank of the motion
    generators, and trivial_motion_basis keeps that many rows."""
    seen = set()
    for points in configuration_pool():
        fw = Framework(points, [])
        k = trivial_dimension(fw)
        assert k == _generator_rank(fw) == len(trivial_motion_basis(fw))
        seen.add(k)
    assert seen == {3, 5, 6}
    assert trivial_dimension(Framework(np.empty((0, 3)), [])) == 0


def _sphere_hull(rng, n):
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    from scipy.spatial import ConvexHull

    return PolyhedralSurface(pts, hull_faces(pts, ConvexHull(pts).simplices))


def verdict_pool():
    """Hulls with n = 8..200, one- and two-dent hulls, star, random and
    convex suspensions, random frameworks, and the flexible fixtures."""
    rng = np.random.default_rng
    surfaces = [_sphere_hull(rng((2210, n)), n) for n in (8, 12, 20, 35, 60, 100, 200)]
    surfaces += [dented_hull_star(rng((2211, k)), 8 + k).surface for k in range(6)]
    surfaces += two_dent_hulls()
    for k in range(6):
        surfaces.append(star_suspension(rng((2212, k)), 4 + k, require_reflex=True).surface)
        surfaces.append(random_suspension(rng((2213, k)), 3 + k).surface)
        surfaces.append(convex_suspension(rng((2214, k)), 3 + k).surface)
    surfaces += [flexible_suspension_fixture(notch_radius=r).suspension.surface
                 for r in (0.08, 0.14, 0.2)]
    pool = [Framework.from_surface(surface) for surface in surfaces]
    pool += [random_framework(rng((2215, k)), 5 + k) for k in range(6)]
    return pool + svd_pool()[:-1]


def test_rigidity_verdict_matches_the_three_svd_rule():
    """rank R == 3n - 6 gives the verdict the spanning check, rank R and the
    generator SVD gave, rigid and flexible alike."""
    seen = set()
    for fw in verdict_pool():
        verdict = is_infinitesimally_rigid(fw)
        assert verdict == _three_svd_verdict(fw)
        seen.add(verdict)
    assert seen == {True, False}


def test_analysis_report_counts_the_dimensions_of_the_bases():
    """The report's dimensions, counted from one rank, equal the sizes of
    the flex and stress bases on braced, hull, flexible, bare, suspension and
    two-dent frameworks, rigid and not."""
    fixture = flexible_suspension_fixture().suspension
    documents = [to_document(fw) for fw in svd_pool()]
    documents += [to_document(fixture)] + [to_document(s) for s in two_dent_hulls()]
    rigid_seen = set()
    for doc in documents:
        verdicts = analysis_report(from_document(doc))["verdicts"]
        fw = from_document(doc).framework
        space = bar_flex_space(fw)
        assert verdicts["flex_dimension"] == space.dimension == len(space.basis)
        assert verdicts["trivial_dimension"] == space.trivial_dimension
        assert verdicts["stress_space_dimension"] == len(equilibrium_stress_space(fw))
        assert verdicts["rigid"] is (space.dimension == space.trivial_dimension)
        rigid_seen.add(verdicts["rigid"])
    assert rigid_seen == {True, False}


def _loop_rigidity_matrix(fw):
    """The per-edge loop the scattered rigidity_matrix replaced."""
    r = np.zeros((fw.n_edges, 3 * fw.n_vertices))
    p = fw.vertices
    for row, (i, j, _) in enumerate(fw.edges):
        d = p[i] - p[j]
        r[row, 3 * i : 3 * i + 3] = d
        r[row, 3 * j : 3 * j + 3] = -d
    return r


def test_rigidity_matrix_is_bit_identical_to_the_edge_loop():
    pool = svd_pool() + [suspension_tensegrity(6, np.random.default_rng(2205))]
    for fw in pool:
        r = rigidity_matrix(fw)
        assert r.shape == (fw.n_edges, 3 * fw.n_vertices)
        assert np.array_equal(r, _loop_rigidity_matrix(fw))


def contraction_pool():
    """random_framework draws with their edges labeled bar, cable and strut
    in turn, and the flexible fixture's surface and tensegrity."""
    kinds = tuple(EdgeKind)
    pool = []
    for k in range(8):
        fw = random_framework(np.random.default_rng((2207, k)), 5 + k)
        pool.append(Framework(fw.vertices, [(i, j, kinds[e % 3])
                                            for e, (i, j) in enumerate(fw.edge_pairs)]))
    fixture = flexible_suspension_fixture().suspension
    return pool + [Framework.from_surface(fixture.surface), tensegrity_labeling(fixture)]


def test_stress_and_motion_contractions_match_the_dense_products():
    """equilibrium_residual, stress_energy and tensegrity_flex_test run over
    the edges and equal R^T omega and R m within 1e-12 relative."""
    rng = np.random.default_rng(2208)
    for fw in contraction_pool():
        r = rigidity_matrix(fw)
        for _ in range(3):
            stress = Stress.from_vector(fw, rng.normal(size=fw.n_edges))
            motion = Motion(rng.normal(size=fw.vertices.shape))
            w, rates = stress.as_vector(fw), r @ motion.flat
            load = np.linalg.norm((r.T @ w).reshape(-1, 3), axis=1).max()
            assert abs(equilibrium_residual(fw, stress) - load) <= 1e-12 * load
            energy = stress_energy(fw, stress, motion)
            assert abs(energy - w @ rates) <= 1e-12 * np.abs(w * rates).sum()
            report = tensegrity_flex_test(fw, motion)
            assert list(report.values) == list(fw.edge_pairs)
            values = np.array(list(report.values.values()))
            assert np.abs(values - rates).max() <= 1e-12 * np.abs(rates).max()


def _count_svds(monkeypatch):
    """Record (shape, compute_uv) of every np.linalg.svd call."""
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, compute_uv=True, **kwargs):
        calls.append((np.shape(a), compute_uv))
        return real_svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def test_analysis_report_factors_the_rigidity_matrix_once(monkeypatch):
    surface = random_convex_hull_surface(np.random.default_rng(2203), 12)
    loaded = from_document(to_document(surface))
    shape = (loaded.framework.n_edges, 3 * loaded.framework.n_vertices)
    calls = _count_svds(monkeypatch)
    analysis_report(loaded)
    assert [uv for seen, uv in calls if seen == shape] == [False]


def test_rank_questions_skip_the_full_svd_and_bases_form_it_once(monkeypatch):
    surface = random_convex_hull_surface(np.random.default_rng(2206), 12)
    shape = (surface.n_edges, 3 * surface.n_vertices)
    calls = _count_svds(monkeypatch)

    def rigidity_matrix_calls(run):
        calls.clear()
        run(Framework.from_surface(surface))
        return [uv for seen, uv in calls if seen == shape]

    assert rigidity_matrix_calls(is_infinitesimally_rigid) == [False]
    assert rigidity_matrix_calls(rigidity_rank) == [False]
    assert rigidity_matrix_calls(bar_flex_space) == [True]
    assert rigidity_matrix_calls(equilibrium_stress_space) == [True]
    assert rigidity_matrix_calls(nontrivial_flex) == [True]

    # the trivial-motion count comes from the configuration's affine rank,
    # so only a basis factors the (6, 3n) motion generators
    def generator_calls(run, fw):
        calls.clear()
        run(fw)
        return [seen for seen, _ in calls if seen == (6, shape[1])]

    def report(fw):
        analysis_report(from_document(to_document(fw)))

    for run in (is_infinitesimally_rigid, rigidity_rank, bar_flex_space, report):
        assert generator_calls(run, Framework.from_surface(surface)) == []
    flexible = Framework(surface.vertices, surface.edges[1:])
    assert generator_calls(nontrivial_flex, flexible) == [(6, shape[1])]
    # nontrivial_flex counts the trivial motions once: one SVD of the
    # centred configuration
    calls.clear()
    nontrivial_flex(flexible)
    assert [seen for seen, _ in calls].count((surface.n_vertices, 3)) == 1

    def stresses_then_verdict(fw):
        equilibrium_stress_space(fw)
        assert is_infinitesimally_rigid(fw)

    assert rigidity_matrix_calls(stresses_then_verdict) == [True]


def _coned_face(surface, height):
    """The surface with its first face coned from a new degree-3 vertex at
    `height` above the face's centroid: that vertex is flat, and the
    framework flexible, at height 0."""
    p = surface.vertices
    a, b, c = surface.faces[0]
    normal = np.cross(p[b] - p[a], p[c] - p[a])
    apex = p[[a, b, c]].mean(axis=0) + height * normal / np.linalg.norm(normal)
    n = len(p)
    return Framework(np.vstack([p, apex]), list(surface.edges) + [(a, n), (b, n), (c, n)])


def _fibonacci_sphere_hull(n):
    """Hull of n golden-spiral points on the unit sphere: no short edges, so
    sigma_min / sigma_max of its rigidity matrix is about 0.09 at n = 100."""
    k = np.arange(n) + 0.5
    z = 1 - 2 * k / n
    angle, r = np.pi * (1 + 5**0.5) * k, np.sqrt(1 - z * z)
    pts = np.column_stack([r * np.cos(angle), r * np.sin(angle), z])
    from scipy.spatial import ConvexHull

    return PolyhedralSurface(pts, hull_faces(pts, ConvexHull(pts).simplices))


def certificate_pools():
    """Closed spheres (E = 3n - 6) at n = 80..400: random sphere hulls,
    dented hull stars, reflex star suspensions (two at n = 100, one at
    200), and the n = 100 Fibonacci
    sphere coned at one face from heights 1e-11..1e-2, which put
    sigma_min / sigma_max at 1.6 times the height: from 1e-2 to 1e7 times
    the rank cutoff at rank_tol 1e-9, and from 1e-5 to 1e4 at 1e-6."""
    rng = np.random.default_rng
    coned = _fibonacci_sphere_hull(100)
    pools = {
        "sphere hulls": [_sphere_hull(rng((2217, n)), n) for n in (80, 120, 200, 400)],
        "dented hull stars": [dented_hull_star(rng((2218, n)), n).surface for n in (80, 120)],
        "reflex stars": [star_suspension(rng(seed), seed[1], require_reflex=True).surface
                         for seed in ((2219, 100), (2219, 100, 1), (2219, 200))],
    }
    pools = {name: [Framework.from_surface(s) for s in pool] for name, pool in pools.items()}
    pools["near the cutoff"] = [_coned_face(coned, h) for h in np.logspace(-11, -2, 19)]
    return pools


def small_certificate_pool():
    """Closed spheres below SPARSE_MIN_VERTICES: the flexible fixture, one-
    and two-dent hulls, and the octahedron."""
    rng = np.random.default_rng
    surfaces = [flexible_suspension_fixture().suspension.surface, octahedron()]
    surfaces += [dented_hull_star(rng((2211, k)), 8 + k).surface for k in range(3)]
    surfaces += two_dent_hulls()
    return [Framework.from_surface(surface) for surface in surfaces]


def test_sparse_rank_certificate_matches_the_dense_rank(monkeypatch):
    """rigidity_rank equals the dense rank of every closed sphere at
    rank_tol 1e-9 and 1e-6; the certificate never fires on a deficient dense
    rank, and it fires in every pool.  At rank_tol 1e-6 it certifies every
    sphere hull (sigma_min / sigma_max down to 6e-4 at n = 400) and both
    n = 100 reflex stars (about 1e-4).  Below SPARSE_MIN_VERTICES the
    certificate runs with the threshold patched to 4."""
    pools = certificate_pools()
    monkeypatch.setattr(frameworks, "SPARSE_MIN_VERTICES", 4)
    pools["below the threshold"] = small_certificate_pool()
    fired_pools, deficient, fired_at_1e6 = set(), set(), set()
    for name, pool in pools.items():
        for k, fw in enumerate(pool):
            assert fw.n_edges == 3 * fw.n_vertices - 6
            values = np.linalg.svd(rigidity_matrix(fw), compute_uv=False)
            for rank_tol in (1e-9, 1e-6):
                tol = Tolerances(rank_tol=rank_tol)
                dense = tol.numerical_rank(values)
                fired = frameworks._certifies_full_rank(fw, tol)
                assert rigidity_rank(fw, tol) == dense, (name, fw.n_vertices, rank_tol)
                assert dense == fw.n_edges or not fired, (name, fw.n_vertices, rank_tol)
                if fired:
                    fired_pools.add(name)
                    if rank_tol == 1e-6:
                        fired_at_1e6.add((name, k))
                if dense < fw.n_edges:
                    deficient.add(name)
    assert fired_pools == set(pools)
    assert deficient == {"near the cutoff", "below the threshold"}
    assert {("sphere hulls", k) for k in range(4)} <= fired_at_1e6
    assert {("reflex stars", 0), ("reflex stars", 1)} <= fired_at_1e6

