"""Tests for the length-coordinate (cone-angle / lambda-matrix) machinery."""

import re

import numpy as np
import pytest

from rigidity3d.frameworks import Framework, is_infinitesimally_rigid
from rigidity3d.generators import (
    convex_suspension,
    dented_hull_star,
    probe_decomposition,
    random_convex_hull_surface,
    star_suspension,
)
from rigidity3d.geometry import (
    DEFAULT_TOL,
    GeometryError,
    InvariantError,
    PolyhedralSurface,
    Tolerances,
    dihedral_angles,
)
from rigidity3d.hessian import (
    TETRA_EDGE_ORDER,
    Decomposition,
    DecompositionError,
    LambdaMatrix,
    _gram,
    _refused,
    decompose_star,
    lambda_matrix,
    rigidity_from_lambda,
)
from rigidity3d.shapes import octahedron
from rigidity3d.suspensions import axis_decomposition

from oracles import (
    cayley_menger_refused,
    cone_angles,
    cube,
    dihedral_table,
    flexible_suspension_fixture,
    icosahedron,
    mean_curvature_H,
    schlafli_residual,
    square_pyramid,
    tetra_angles_and_jacobian,
    tetrahedron,
)

TETRA_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def random_tet_lengths(rng):
    """Edge lengths of a random nondegenerate tetrahedron (via embedding)."""
    while True:
        pts = rng.normal(size=(4, 3))
        vol = abs(np.linalg.det(pts[1:] - pts[0])) / 6.0
        if vol > 0.05:
            return pts, np.array([np.linalg.norm(pts[i] - pts[j]) for i, j in TETRA_PAIRS])


def embed_tet(lengths):
    """Place a tetrahedron with the given TETRA_PAIRS lengths explicitly."""
    l01, l02, l03, l12, l13, l23 = lengths
    x2 = (l01**2 + l02**2 - l12**2) / (2 * l01)
    y2 = np.sqrt(l02**2 - x2**2)
    x3 = (l01**2 + l03**2 - l13**2) / (2 * l01)
    y3 = (l03**2 + l02**2 - l23**2 - 2 * x2 * x3) / (2 * y2)
    z3 = np.sqrt(l03**2 - x3**2 - y3**2)
    return np.array([[0, 0, 0], [l01, 0, 0], [x2, y2, 0], [x3, y3, z3]])


# ---------------------------------------------------------------------------
# single-tetrahedron engine
# ---------------------------------------------------------------------------


def awkward_tets():
    """Obtuse and near-sliver tetrahedra (relative volume down to 2e-5)."""
    out = []
    for h in (1e-1, 1e-2, 1e-3, 3e-4):
        out.append([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, h]])  # dihedrals near 0 and pi
        out.append([[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, 0.3, h]])  # flat cap
        out.append([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 2, 10 * h]])  # apex beyond a corner
    return np.array(out, dtype=float)


def test_angles_match_embedding():
    """Length-based dihedral angles equal embedding-based ones, in one
    batched call over well-shaped, obtuse and near-sliver tetrahedra."""
    rng = np.random.default_rng(31)
    tets = np.concatenate([[random_tet_lengths(rng)[0] for _ in range(20)], awkward_tets()])
    first, second = np.array(TETRA_PAIRS).T
    lengths = np.linalg.norm(tets[:, first] - tets[:, second], axis=-1)
    angles, _ = tetra_angles_and_jacobian(lengths)
    assert angles.max() > 3.1 and angles.min() < 1e-3
    for pts, row in zip(tets, angles):
        surf = PolyhedralSurface(pts, [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)])
        by_edge = dict(zip(surf.edges, dihedral_angles(surf)))
        for k, pair in enumerate(TETRA_PAIRS):
            assert row[k] == pytest.approx(by_edge[pair], abs=1e-10)


def test_batched_kernel_equals_single_calls():
    """A (..., 6) call returns (..., 6) angles and a (..., 6, 6) Jacobian
    equal to the stacked (6,) calls."""
    rng = np.random.default_rng(38)
    lengths = np.array([random_tet_lengths(rng)[1] for _ in range(60)])
    angles, jac = tetra_angles_and_jacobian(lengths.reshape(3, 20, 6))
    assert angles.shape == (3, 20, 6) and jac.shape == (3, 20, 6, 6)
    single = [tetra_angles_and_jacobian(row) for row in lengths]
    assert single[0][0].shape == (6,) and single[0][1].shape == (6, 6)
    assert np.abs(angles.reshape(60, 6) - [a for a, _ in single]).max() <= 1e-15
    jac_single = np.array([j for _, j in single])
    assert np.abs(jac.reshape(60, 6, 6) - jac_single).max() <= 1e-15 * np.abs(jac_single).max()


def test_kernel_names_the_first_bad_row():
    good = np.ones(6)
    bad = np.array([1, 1, 1, 1, 1, 2.5])
    with pytest.raises(DecompositionError, match="tetrahedron 1:"):
        tetra_angles_and_jacobian(np.stack([good, bad, good, bad]))


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(32)
    h = 1e-6
    for _ in range(10):
        _, lengths = random_tet_lengths(rng)
        _, jac = tetra_angles_and_jacobian(lengths)
        for m in range(6):
            lp, lm = lengths.copy(), lengths.copy()
            lp[m] += h
            lm[m] -= h
            fd = (tetra_angles_and_jacobian(lp)[0] - tetra_angles_and_jacobian(lm)[0]) / (2 * h)
            assert np.abs(jac[:, m] - fd).max() <= 1e-6


def test_per_tet_jacobian_is_symmetric():
    """d alpha_i / d l_j = d alpha_j / d l_i (Hessian of sum l*alpha)."""
    rng = np.random.default_rng(33)
    for _ in range(10):
        _, lengths = random_tet_lengths(rng)
        _, jac = tetra_angles_and_jacobian(lengths)
        assert np.abs(jac - jac.T).max() <= 1e-9 * max(np.abs(jac).max(), 1.0)


def test_schlafli_uniform_direction():
    """Scaling all lengths leaves angles unchanged."""
    assert abs(schlafli_residual(np.ones(6), np.ones(6))) <= 1e-10


def test_schlafli_random_pairs():
    rng = np.random.default_rng(34)
    for _ in range(50):
        _, lengths = random_tet_lengths(rng)
        assert abs(schlafli_residual(lengths, rng.normal(size=6))) <= 1e-9


def test_schlafli_skew_tetrahedron():
    rng = np.random.default_rng(35)
    lengths = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5]
    for _ in range(10):
        assert abs(schlafli_residual(lengths, rng.normal(size=6))) <= 1e-9


def test_schlafli_rejects_infeasible():
    with pytest.raises(DecompositionError, match="not a tetrahedron"):
        schlafli_residual([1, 1, 1, 1, 1, 2.5], np.ones(6))


# ---------------------------------------------------------------------------
# star decompositions
# ---------------------------------------------------------------------------


def dented_octahedron():
    base = octahedron()
    faces = [tuple(f) for f in base.faces.tolist()]
    faces.remove((0, 2, 3))
    faces.remove((1, 3, 2))
    faces += [(0, 2, 1), (1, 3, 0)]
    return PolyhedralSurface(base.vertices, faces)


def test_octahedron_star_decomposition():
    """Coning from the north pole: 4 tetrahedra, single interior edge
    [N, S]; the cone edges to the equator are surface edges."""
    d = decompose_star(octahedron(), 0)
    assert len(d.tetrahedra) == 4
    assert d.interior_edges == ((0, 1),)
    surf_edges = set(octahedron().edges)
    assert (0, 1) not in surf_edges  # classification oracle
    assert set(d.boundary_edges) == surf_edges
    assert d._edge_lengths[0] == pytest.approx(2.0)


def test_dented_octahedron_star_decomposition_has_no_interior_edges():
    """After the dent, [N, S] is a surface edge, so coning from N yields
    three wedges and r = 0."""
    d = decompose_star(dented_octahedron(), 0)
    assert len(d.tetrahedra) == 3
    assert d.r == 0
    assert rigidity_from_lambda(d)  # rigid by convention, cross-checked


def test_non_star_shaped_rejected_listing_blocked_faces():
    """The dented octahedron is not star-shaped from the equator vertex
    sitting inside the dent wedge."""
    with pytest.raises(DecompositionError, match=r"blocked faces: \[\(1, 3, 0\)\]$"):
        decompose_star(dented_octahedron(), 2)


def test_decomposition_validation():
    base = octahedron()
    good = [(0, 1, 3, 2), (0, 1, 4, 3), (0, 1, 5, 4), (0, 1, 2, 5)]

    with pytest.raises(TypeError):
        Decomposition(base.vertices, good, [(0, 1)])  # interior edges are derived
    with pytest.raises(DecompositionError, match="same side"):
        Decomposition(base.vertices, [(0, 2, 3, 1), (0, 2, 3, 4)])
    with pytest.raises(DecompositionError, match="degenerate"):
        # both poles plus two opposite equator vertices are coplanar
        Decomposition(base.vertices, [(0, 1, 2, 4)])
    # an open star: [N, S] lies on faces of one tetrahedron, so it is a boundary edge
    d = Decomposition(base.vertices, [(0, 1, 2, 3), (0, 1, 3, 4)])
    assert d.r == 0 and (0, 1) in d.boundary_edges
    assert Decomposition(base.vertices, good).interior_edges == ((0, 1),)


def test_decomposition_equality_is_identity():
    d = decompose_star(octahedron(), 0)
    assert d == d and d != decompose_star(octahedron(), 0)
    assert len({d, d}) == 1


def _per_face_gluing_error(vertices, tets, surface):
    """The per-face rule of the face-gluing check, one face at a time in
    order of first appearance: the message for the first offending face,
    or None."""
    face_owners = {}
    for t_idx, tet in enumerate(tets):
        for skip in range(4):
            face = tuple(sorted(tet[k] for k in range(4) if k != skip))
            face_owners.setdefault(face, []).append((t_idx, tet[skip]))
    for face, owners in face_owners.items():
        if len(owners) > 2:
            return f"face {face} is shared by {len(owners)} tetrahedra"
        if len(owners) == 2:
            a, b, c = (vertices[v] for v in face)
            n = np.cross(b - a, c - a)
            s0 = float(np.dot(vertices[owners[0][1]] - a, n))
            s1 = float(np.dot(vertices[owners[1][1]] - a, n))
            if s0 * s1 >= 0.0:
                return (
                    f"tetrahedra {owners[0][0]} and {owners[1][0]} lie on the same "
                    f"side of their shared face {face}"
                )
        elif surface is not None:
            if face not in {tuple(sorted(f)) for f in surface.faces.tolist()}:
                return f"face {face} borders one tetrahedron but is not a surface face"
    return None


def test_face_gluing_check_matches_the_per_face_rule():
    """The batched face-gluing check raises the per-face rule's error for
    the same first offending face, on the icosahedron's star, broken
    copies of it, subsets of it and random tetrahedron sets."""
    rng = np.random.default_rng(408)
    ico = icosahedron()
    star = decompose_star(ico, 0).tetrahedra
    cases = [(ico.vertices, star, ico), (ico.vertices, star + star[:1], ico)]
    for _ in range(20):
        keep = rng.permutation(len(star))[: rng.integers(1, len(star))]
        cases.append((ico.vertices, [star[k] for k in sorted(keep)], ico))
    for _ in range(40):
        pts = rng.normal(size=(7, 3))
        tets = [tuple(int(v) for v in rng.choice(7, 4, replace=False))
                for _ in range(rng.integers(2, 7))]
        cases.append((pts, tets, None))
    kinds = ("shared by", "same side", "not a surface face")
    seen = set()
    for vertices, tets, surface in cases:
        expected = _per_face_gluing_error(vertices, tets, surface)
        seen.add(next((kind for kind in kinds if kind in expected), None) if expected else None)
        if expected is None:
            Decomposition._check_face_gluing(vertices, tets, surface)
        else:
            with pytest.raises(DecompositionError, match=f"^{re.escape(expected)}$"):
                Decomposition._check_face_gluing(vertices, tets, surface)
    assert seen == {None, *kinds}


def _incident_cycle(tets, edge):
    """Tetrahedra around an interior edge, in cyclic gluing order, found by
    scanning every tetrahedron: the oracle of the table walk."""
    i, j = edge
    flank = {}  # vertex -> list of (tet index, other flank vertex)
    incident = []
    for t_idx, tet in enumerate(tets):
        if i in tet and j in tet:
            c, d = sorted(set(tet) - {i, j})
            incident.append(t_idx)
            flank.setdefault(c, []).append((t_idx, d))
            flank.setdefault(d, []).append((t_idx, c))
    assert len(incident) >= 2 and all(len(v) == 2 for v in flank.values())
    start = incident[0]
    _, current = sorted(set(tets[start]) - {i, j})
    order = [start]
    while True:
        (t, current), = [(t, other) for t, other in flank[current] if t != order[-1]]
        if t == start:
            break
        order.append(t)
    if len(order) != len(incident):
        raise DecompositionError(
            f"star of interior edge {edge} splits into several cycles"
        )
    return tuple(order)


def _chained_flanks(tets, edge, order):
    """The flank vertex each tetrahedron of a cycle shares with the next,
    by intersecting their vertex sets."""
    link = []
    for a, b in zip(order, order[1:] + order[:1]):
        shared = (set(tets[a]) & set(tets[b])) - set(edge)
        assert len(shared) == 1
        link.append(shared.pop())
    return tuple(link)


def _oracle_star(tets, edge):
    """(order, flanks) of the scan oracle, or the message it raises."""
    try:
        order = _incident_cycle(tets, edge)
    except DecompositionError as exc:
        return str(exc)
    return order, _chained_flanks(tets, edge, order)


def _table_star(d, k):
    try:
        return d._star(k)
    except DecompositionError as exc:
        return str(exc)


def _star_pool():
    """(vertices, tetrahedra, surface) of the icosahedron's star, hull stars
    and axis decompositions, then of broken copies of them: a tetrahedron
    dropped, duplicated or given a wrong vertex.  Returns the valid entries
    and the others, two lists."""
    rng = np.random.default_rng(418)
    decompositions = [decompose_star(icosahedron(), 0)]
    decompositions += [decompose_star(random_convex_hull_surface(rng, n), int(rng.integers(n)))
                       for n in (*range(8, 40), 50, 64, 80, 100, 128, 160, 200)]
    decompositions += [axis_decomposition(star_suspension(rng, 4 + k % 8, require_reflex=True))
                       for k in range(12)]
    decompositions += [axis_decomposition(convex_suspension(rng, 3 + k)) for k in range(10)]
    valid = [(d.vertices, d.tetrahedra, d.surface) for d in decompositions]
    pool = []
    for d in decompositions[:20] + decompositions[-22:]:
        tets = list(d.tetrahedra)
        for _ in range(3):
            k = int(rng.integers(len(tets)))
            wrong = list(tets[k])
            wrong[int(rng.integers(4))] = int(rng.choice(
                [v for v in range(len(d.vertices)) if v not in tets[k]]))
            for broken in (tets[:k] + tets[k + 1:], tets + [tets[k]],
                           tets[:k] + [tuple(wrong)] + tets[k + 1:]):
                pool += [(d.vertices, broken, s) for s in (None, d.surface)]
    # a lone tetrahedron, and two rings of tetrahedra around one axis
    pool.append((octahedron().vertices, [(0, 1, 2, 3)], None))
    az = np.arange(8) * np.pi / 4
    ring = np.stack([np.cos(az), np.sin(az), 0.3 * (-1.0) ** np.arange(8)], axis=1)
    points = np.vstack([[0, 0, 1.0], [0, 0, -1.0], ring])
    rings = [(0, 1, 2 + 2 * k, 2 + 2 * ((k + 1) % 4)) for k in range(4)]
    rings += [(0, 1, 3 + 2 * k, 3 + 2 * ((k + 1) % 4)) for k in range(4)]
    pool.append((points, rings, None))
    return valid, pool


def _scanned_interior_edges(tets):
    """The edges of the tetrahedra every face through which is a face of
    two tetrahedra, found by scanning all tetrahedra once per edge."""
    tets = [tuple(int(v) for v in t) for t in tets]
    edges = sorted({tuple(sorted((t[a], t[b]))) for t in tets for a, b in TETRA_PAIRS})
    interior = []
    for i, j in edges:
        flanks = [x for t in tets if i in t and j in t for x in t if x not in (i, j)]
        if all(flanks.count(x) == 2 for x in flanks):
            interior.append((i, j))
    return interior


def test_the_table_walk_matches_the_per_edge_scan():
    """On every decomposition the constructor accepts up to its star walk,
    the interior edges are the per-edge scan's, and the walk over the edge
    and face-owner tables finds the scan oracle's tetrahedron cycle and
    flank order, or raises its first DecompositionError message.  Only the
    several-cycles raise is reachable: a derived interior edge's star
    always closes up."""
    seen = set()
    valid, others = _star_pool()
    for vertices, tets, surface in valid + others:
        try:
            d = Decomposition(vertices, tets, surface=surface)
        except DecompositionError as exc:
            if "several cycles" not in str(exc):
                continue  # refused before the star walk
            expected = [_oracle_star(tets, e) for e in _scanned_interior_edges(tets)]
            assert str(exc) == next(e for e in expected if isinstance(e, str))
            seen.add("several cycles")
            continue
        assert list(d.interior_edges) == _scanned_interior_edges(tets)
        expected = [_oracle_star(d.tetrahedra, e) for e in d.interior_edges]
        assert [_table_star(d, k) for k in range(d.r)] == expected
        seen.add(None)
    assert seen == {None, "several cycles"}


def _surface_split(d):
    """The interior and boundary edges by subtracting the surface's edges
    from the tetrahedra's: the rule the derivation replaces."""
    edges = {tuple(sorted((t[a], t[b]))) for t in d.tetrahedra for a, b in TETRA_PAIRS}
    return tuple(sorted(edges - set(d.surface.edges))), tuple(sorted(d.surface.edges))


def _oracle_lambda(d, interior, boundary):
    """The (T, 6) tetrahedron edge lengths and lambda at the embedded
    lengths, assembled under the given edge numbering (interior edges
    first) with the same kernel and summation order as the library."""
    number = {e: k for k, e in enumerate(interior + boundary)}
    index = np.array([[number[tuple(sorted((t[a], t[b])))] for a, b in TETRA_PAIRS]
                      for t in d.tetrahedra])
    ends = np.array(interior + boundary)
    lengths = np.linalg.norm(d.vertices[ends[:, 0]] - d.vertices[ends[:, 1]], axis=1)
    _, jac = tetra_angles_and_jacobian(lengths[index], d.tol)
    rows = np.broadcast_to(index[:, :, None], jac.shape)
    cols = np.broadcast_to(index[:, None, :], jac.shape)
    keep = (rows < len(interior)) & (cols < len(interior))
    lam = np.zeros((len(interior), len(interior)))
    np.add.at(lam, (rows[keep], cols[keep]), jac[keep])
    return lengths[index], lam


def test_the_derived_split_matches_the_surface_edge_rule():
    """Interior edges derived from the face-owner table are the
    tetrahedra's edges minus the surface's, and the boundary edges are the
    surface's, on the valid decompositions of the star pool and on 40
    dented-hull stars.  The tetrahedron lengths and lambda under that
    numbering are bit-identical; lambda is compared where the library
    assembles it (one n = 128 hull star has a sliver its margin refuses)."""
    rng = np.random.default_rng(19)
    pool = [Decomposition(v, t, surface=s) for v, t, s in _star_pool()[0]]
    pool += [dented_hull_star(rng, int(rng.integers(8, 15))) for _ in range(40)]
    refused = 0
    for d in pool:
        interior, boundary = _surface_split(d)
        assert (d.interior_edges, d.boundary_edges) == (interior, boundary)
        lengths, lam = _oracle_lambda(d, interior, boundary)
        assert np.array_equal(d._lengths(), lengths)
        try:
            matrix = lambda_matrix(d).matrix
        except DecompositionError:
            refused += 1
            continue
        assert np.array_equal(matrix, lam)
    assert refused == 1


def test_the_decomposition_checks_read_its_geom_tol():
    """A tetrahedron of volume about 1e-6 diam**3 passes the default
    degeneracy check and fails it at geom_tol = 1e-4."""
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 6e-6 * 2**1.5]])
    volume = abs(np.linalg.det(pts[1:] - pts[0])) / 6.0
    assert volume == pytest.approx(1e-6 * np.sqrt(2) ** 3)
    assert Decomposition(pts, [(0, 1, 2, 3)]).r == 0
    with pytest.raises(DecompositionError, match=r"tetrahedron 0 = \(0, 1, 2, 3\) is degenerate"):
        Decomposition(pts, [(0, 1, 2, 3)], tol=Tolerances(geom_tol=1e-4))


def test_boundary_edges_must_match_surface():
    """The faces of one tetrahedron must be exactly the surface's faces:
    the octahedron's star does not bound the dented octahedron, and no
    tetrahedra bound no surface."""
    base = octahedron()
    tets = [(0, 1, 3, 2), (0, 1, 4, 3), (0, 1, 5, 4), (0, 1, 2, 5)]
    dented = dented_octahedron()
    with pytest.raises(DecompositionError,
                       match=r"^face \(1, 2, 3\) borders one tetrahedron but is not a surface"):
        Decomposition._check_face_gluing(dented.vertices, tets, dented)
    with pytest.raises(DecompositionError,
                       match=r"^surface faces \[\(0, 2, 3\), .* are not faces of exactly one"):
        Decomposition._check_face_gluing(base.vertices, [], base)


def test_overlapping_tetrahedra_fail_volume_audit():
    """A duplicated wedge makes the volumes disagree with the surface."""
    base = octahedron()
    tets = [(0, 1, 3, 2), (0, 1, 4, 3), (0, 1, 5, 4), (0, 1, 2, 5), (0, 2, 4, 3)]
    with pytest.raises(DecompositionError, match="overlap or gap"):
        Decomposition(base.vertices, tets, surface=base)


# ---------------------------------------------------------------------------
# cone angles and mean curvature
# ---------------------------------------------------------------------------


def test_cone_angles_at_embedded_lengths():
    d = decompose_star(octahedron(), 0)
    assert cone_angles(d)[0] == pytest.approx(2 * np.pi, abs=1e-9)


def test_cone_angles_stretched_vs_embedding_oracle():
    """At a stretched interior length the total angle is the sum of the
    per-tetrahedron dihedrals of explicitly embedded simplices."""
    d = decompose_star(octahedron(), 0)
    stretched = np.array([2.1])
    theta = cone_angles(d, stretched)[0]
    oracle = 0.0
    for t_idx in range(4):
        lengths = d._lengths(stretched)[t_idx]
        pts = embed_tet(lengths)
        surf = PolyhedralSurface(pts, [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)])
        oracle += dihedral_angles(surf)[surf.edges.index((0, 1))]
    assert theta == pytest.approx(oracle, abs=1e-9)
    # the octahedron's lambda entry is positive, so stretching opens the cone
    assert theta > 2 * np.pi


def test_cone_angle_of_single_tet_star():
    """The star of one tetrahedron around an edge collects that edge's
    dihedral angle alone: arccos(1/3) at every edge of the regular
    tetrahedron."""
    t = tetrahedron()
    lengths = [np.linalg.norm(t.vertices[a] - t.vertices[b]) for a, b in TETRA_EDGE_ORDER]
    angles, _ = tetra_angles_and_jacobian(lengths)
    assert angles == pytest.approx(np.full(6, np.arccos(1 / 3)), abs=1e-12)


def test_decomposition_vertices_must_be_the_surfaces():
    """The diameter comes from the surface, so its vertices must be the
    decomposition's."""
    base = octahedron()
    tets = [(0, 1, 3, 2), (0, 1, 4, 3), (0, 1, 5, 4), (0, 1, 2, 5)]
    assert Decomposition(base.vertices, tets, surface=base).r == 1
    with pytest.raises(DecompositionError, match="vertices differ"):
        Decomposition(2.0 * base.vertices, tets, surface=base)


def test_lambda_matrix_refuses_non_positive_or_non_finite_lengths():
    """The Gram matrices read squared lengths, so -2.1 would pass for 2.1:
    a non-positive or non-finite interior length is refused before any
    assembly."""
    d = decompose_star(octahedron(), 0)
    for bad in (-2.1, 0.0, np.nan, np.inf):
        with pytest.raises(GeometryError, match="positive and finite"):
            lambda_matrix(d, np.array([bad]))


def test_cone_angles_reject_infeasible_lengths():
    d = decompose_star(octahedron(), 0)
    with pytest.raises(DecompositionError, match="tetrahedron 0"):
        cone_angles(d, np.array([50.0]))


def test_lambda_assembly_checks_feasibility_at_the_decomposition_tolerance():
    """The assembly's Cayley-Menger check reads the decomposition's tol.
    The interior length of the octahedron's star is bounded by sqrt(6); at
    2.4494 each tetrahedron's volume is about 4e-4 of its longest edge
    cubed, which the default geom_tol accepts and geom_tol = 5e-4 refuses.
    The embedded lambda is the same at both."""
    coarse = Tolerances(geom_tol=5e-4)
    default = decompose_star(octahedron(), 0)
    strict = decompose_star(octahedron(), 0, tol=coarse)
    assert default.tol == DEFAULT_TOL and strict.tol == coarse
    near_flat = np.array([2.4494])
    assert lambda_matrix(default, near_flat).r == 1
    with pytest.raises(DecompositionError, match="tetrahedron 0"):
        lambda_matrix(strict, near_flat)
    assert lambda_matrix(strict).matrix.tobytes() == lambda_matrix(default).matrix.tobytes()


def test_angle_kernel_callers_check_feasibility_at_the_decomposition_tolerance():
    """cone_angles, mean_curvature_H and dihedral_table refuse the lengths
    that lambda_matrix refuses at the decomposition's tol (see above), and
    accept them at the default tol."""
    coarse = Tolerances(geom_tol=5e-4)
    default = decompose_star(octahedron(), 0)
    strict = decompose_star(octahedron(), 0, tol=coarse)
    near_flat = np.array([2.4494])
    for angle_function in (cone_angles, mean_curvature_H, dihedral_table):
        angle_function(default, near_flat)
        with pytest.raises(DecompositionError, match="tetrahedron 0"):
            angle_function(strict, near_flat)
    with pytest.raises(DecompositionError, match="tetrahedron 0"):
        lambda_matrix(strict, near_flat)


def test_lambda_assembly_makes_one_kernel_call_and_no_cayley_menger_determinant(monkeypatch):
    """Each assembly forms the Gram matrices once, refuses from them and
    makes one kernel call; no 5 x 5 (Cayley-Menger) determinant is taken."""
    import rigidity3d.hessian as hessian

    calls, det_shapes = [], []
    for name in ("_gram", "_angles_and_jacobian"):
        monkeypatch.setattr(hessian, name, lambda *a, name=name, f=getattr(hessian, name):
                            calls.append(name) or f(*a))
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: det_shapes.append(np.shape(a)) or det(a))
    d = decompose_star(octahedron(), 0)
    lambda_matrix(d)
    lambda_matrix(d, np.array([2.1]))
    assert calls == ["_gram", "_angles_and_jacobian"] * 2  # embedded, then stretched
    assert not [shape for shape in det_shapes if shape[-2:] == (5, 5)]
    assert not hasattr(hessian, "cayley_menger_feasible")


def test_refusal_equals_the_cayley_menger_refusal():
    """The kernel's refusal (a positive definite Gram matrix whose squared
    volume clears geom_tol and the interior margin) refuses exactly the
    rows the Cayley-Menger route refused (oracles.cayley_menger_refused):
    realizable tetrahedra, ones squashed to relative thickness 1e-8, both
    perturbed by up to 30% (many then not realizable), and awkward_tets,
    at three geom_tol values."""
    rng = np.random.default_rng(2700)
    pts = rng.normal(size=(2000, 4, 3))
    pts[1000:, :, 2] *= np.geomspace(1e-8, 1e-1, 1000)[:, None]
    pts = np.concatenate([pts, awkward_tets()])
    first, second = np.array(TETRA_PAIRS).T
    realizable = np.linalg.norm(pts[:, first] - pts[:, second], axis=-1)
    perturbed = realizable * rng.uniform(0.7, 1.3, realizable.shape)
    rows = np.concatenate([realizable, perturbed])
    for geom_tol in (1e-9, 1e-6, 1e-4):
        tol = Tolerances(geom_tol=geom_tol)
        refused = _refused(rows, _gram(rows), tol)
        assert refused.tolist() == cayley_menger_refused(rows, tol).tolist()
        for part in np.split(refused, [len(realizable)]):
            assert 0 < part.sum() < len(part)
        for row in rows[::250]:
            assert bool(_refused(row, _gram(row), tol)) == bool(cayley_menger_refused(row, tol))


def test_mean_curvature_single_regular_tetrahedron():
    """All six unit edges boundary: H = 6 * arccos(1/3)."""
    d = decompose_star(tetrahedron(), 0)
    assert d.r == 0
    assert mean_curvature_H(d) == pytest.approx(6 * np.arccos(1 / 3), abs=1e-9)
    assert mean_curvature_H(d) == pytest.approx(7.385755, abs=1e-5)


def test_mean_curvature_gradient_is_cone_angle():
    """dH/dl = theta, checked by central differences at random feasible
    lengths around the embedded value."""
    rng = np.random.default_rng(36)
    d = decompose_star(octahedron(), 0)
    h = 1e-6
    for _ in range(20):
        # feasible interior lengths for this star are l in (0, sqrt(6))
        l = np.array([rng.uniform(1.6, 2.35)])
        grad = (mean_curvature_H(d, l + h) - mean_curvature_H(d, l - h)) / (2 * h)
        assert grad == pytest.approx(cone_angles(d, l)[0], abs=1e-6)


def test_mean_curvature_homogeneous_degree_one():
    base = octahedron()
    d1 = decompose_star(base, 0)
    d3 = decompose_star(PolyhedralSurface(3.0 * base.vertices, base.faces), 0)
    assert mean_curvature_H(d3) == pytest.approx(3.0 * mean_curvature_H(d1), rel=1e-12)


# ---------------------------------------------------------------------------
# lambda matrix
# ---------------------------------------------------------------------------


def test_octahedron_lambda_entry():
    """Unit octahedron, interior edge [N,S] of length 2: the 1x1 Jacobian
    equals 4."""
    lam = lambda_matrix(decompose_star(octahedron(), 0))
    assert lam.matrix.shape == (1, 1)
    assert lam.matrix[0, 0] == pytest.approx(4.0, abs=1e-9)
    assert lam.min_eigenvalue == pytest.approx(4.0, abs=1e-9)
    assert lam.is_positive_definite
    assert not lam.is_singular


def test_lambda_scale_covariance():
    base = octahedron()
    lam1 = lambda_matrix(decompose_star(base, 0)).matrix[0, 0]
    for t in (0.5, 2.0):
        scaled = PolyhedralSurface(t * base.vertices, base.faces)
        lam_t = lambda_matrix(decompose_star(scaled, 0)).matrix[0, 0]
        assert lam_t == pytest.approx(lam1 / t, rel=1e-9)


def test_lambda_matches_finite_difference_jacobian():
    rng = np.random.default_rng(37)
    base = octahedron()
    h = 1e-6
    for _ in range(5):
        pts = base.vertices + rng.uniform(-0.07, 0.07, size=(6, 3))
        surf = PolyhedralSurface(pts, base.faces)
        d = decompose_star(surf, 0)
        lam = lambda_matrix(d).matrix
        l0 = d._edge_lengths[: d.r]
        for m in range(d.r):
            lp, lm = l0.copy(), l0.copy()
            lp[m] += h
            lm[m] -= h
            fd = (cone_angles(d, lp) - cone_angles(d, lm)) / (2 * h)
            assert np.abs(lam[:, m] - fd).max() <= 1e-6


def test_lambda_rejects_near_degenerate_simplices():
    base = octahedron()
    pts = base.vertices.copy()
    pts[0, 2] = 1e-5
    pts[1, 2] = -1e-5
    flat = PolyhedralSurface(pts, base.faces)
    d = decompose_star(flat, 0)
    with pytest.raises(DecompositionError, match="degenerate or too close"):
        lambda_matrix(d)


def test_lambda_matrix_symmetry_guard():
    with pytest.raises(InvariantError, match="asymmetric"):
        LambdaMatrix(np.array([[1.0, 2.0], [1.0, 1.0]]), np.array([1.0, 1.0]), 2)


def test_dihedral_table_entries_and_gram_check():
    d = decompose_star(octahedron(), 0)
    table = dihedral_table(d)
    # the four wedge angles at [N, S] are each pi/2 and sum to 2*pi
    ns = [v for (t, pair), v in table.items() if pair == (0, 1)]
    assert len(ns) == 4
    assert np.allclose(ns, np.pi / 2, atol=1e-12)


# ---------------------------------------------------------------------------
# rigidity from the lambda matrix
# ---------------------------------------------------------------------------


def test_rigidity_verdicts_agree_on_octahedron():
    d = decompose_star(octahedron(), 0)
    assert rigidity_from_lambda(d)
    assert is_infinitesimally_rigid(Framework.from_surface(octahedron()))


def test_r_zero_is_rigid_by_convention():
    d = decompose_star(tetrahedron(), 0)
    assert d.r == 0
    assert rigidity_from_lambda(d)


def test_lone_cancelled_eigenvalue_reads_flexible():
    """r = 1: lambda cancels to roundoff on the flexible fixture.  Its rank
    is judged against the per-tetrahedron Jacobian scale, not against the
    lone eigenvalue itself, so both verdicts say flexible."""
    d = axis_decomposition(flexible_suspension_fixture().suspension)
    lam = lambda_matrix(d)
    assert lam.r == 1 and abs(lam.min_eigenvalue) < 1e-9
    assert lam.is_singular
    assert rigidity_from_lambda(d) is False


def test_lambda_is_assembled_once_per_decomposition(monkeypatch):
    d = decompose_star(icosahedron(), 0)
    assert d.r == 6
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    lam = lambda_matrix(d)
    assert rigidity_from_lambda(d) == (not lam.is_singular)
    assert np.array_equal(lambda_matrix(d).matrix, lam.matrix)
    assert calls == [(d.r, d.r)]
    # an explicit length vector is assembled afresh
    lambda_matrix(d, d._edge_lengths[: d.r])
    assert len(calls) == 2


def test_lambda_rank_verdict_matches_svd_verdict_on_probe_pools():
    for kind in ("dented_hull_star", "suspension_axis", "control_nonconvex"):
        for k in range(8):
            d = probe_decomposition(kind, np.random.default_rng((2300, k)))
            s = np.linalg.svd(lambda_matrix(d).matrix, compute_uv=False)
            by_svd = d.r == 0 or bool(s[-1] > DEFAULT_TOL.rank_tol * s[0])
            assert rigidity_from_lambda(d) == by_svd


def test_lambda_is_positive_definite_on_star_decompositions_of_convex_polyhedra():
    """Izmestiev & Schlenker (Pacific J. Math. 248, 2010): on a
    triangulation of a convex polyhedron without interior vertices the
    Hilbert-Einstein function has a negative definite Hessian, which is -Λ,
    so Λ is positive definite.  Checked with full rank under the rank rule
    at rank_tol 1e-9 and 1e-6, on three apexes each of 40 random hulls
    (n = 6..29) and every apex of the canonical convex shapes; a refused
    star decomposition (DecompositionError) is skipped and counted, and
    most apexes must be accepted."""
    surfaces = []
    for k in range(40):
        rng = np.random.default_rng((2400, k))
        surf = random_convex_hull_surface(rng, int(rng.integers(6, 30)))
        surfaces.append((surf, rng.choice(surf.n_vertices, size=3, replace=False)))
    for surf in (tetrahedron(), cube(), octahedron(), square_pyramid(), icosahedron()):
        surfaces.append((surf, range(surf.n_vertices)))
    for rank_tol in (1e-9, 1e-6):
        tol = Tolerances(rank_tol=rank_tol)
        accepted = refused = 0
        for surf, apexes in surfaces:
            for apex in apexes:
                try:
                    lam = lambda_matrix(decompose_star(surf, apex, tol), tol=tol)
                except DecompositionError:
                    refused += 1
                    continue
                accepted += 1
                assert lam.is_positive_definite, (surf.n_vertices, apex, lam.min_eigenvalue)
                assert lam.rank == lam.r, (surf.n_vertices, apex, lam.eigenvalues)
        assert accepted > 3 * refused, (accepted, refused)
