"""Test fixtures and oracles: routines that only the tests call.

Nothing in the library, the CLI or the benchmark calls these, so they are
not part of the package (`test_exports.py` checks that every public name in
it has a program caller).  Tests import them with `from oracles import ...`:
pytest puts this directory on the import path.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from rigidity3d.cauchy import CauchyError, cyclic_sign_changes, dent
from rigidity3d.frameworks import EdgeKind, Framework, FrameworkError, _edge_vectors
from rigidity3d.generators import (
    CONVEX_SUSPENSION_TRIES,
    FLAT_EDGE_MARGIN,
    POLYGON_TRIES,
    GenerationError,
    _azimuths,
)
from rigidity3d.geometry import (
    DEFAULT_TOL,
    GeometryError,
    InvariantError,
    PolyhedralSurface,
    Tolerances,
    _vertex_support_normal,
    as_points,
    axis_frame,
    dihedral_angles,
    pole_frame_ok,
    unit,
)
from rigidity3d.hessian import (
    E_INTERIOR_MARGIN,
    TETRA_EDGE_ORDER,
    Decomposition,
    DecompositionError,
    _angles_and_jacobian,
    _gram,
)
from rigidity3d.shapes import hull_faces
from rigidity3d.suspensions import SuspensionError, build_suspension, lambda_scalar

# draws random_projective_map makes before it raises GenerationError
PROJECTIVE_TRIES = 50

# impossible_labeling_search tries all 2**E labelings; 14 admits the
# octahedron's 12 edges
LABELING_EDGE_CAP = 14

EDGE_PROBABILITY = 0.55
PROJECTIVE_STRENGTH = 0.15


# ---------------------------------------------------------------------------
# canonical surfaces
# ---------------------------------------------------------------------------


def tetrahedron():
    """Regular tetrahedron with unit-ish edge, centered at the origin."""
    v = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    ) / np.sqrt(8.0)
    faces = [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)]
    return PolyhedralSurface(v, faces)


def cube():
    """Unit cube, each square face split along a diagonal."""
    v = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=float,
    )
    faces = [
        (0, 2, 1), (0, 3, 2),  # bottom (z=0)
        (4, 5, 6), (4, 6, 7),  # top (z=1)
        (0, 1, 5), (0, 5, 4),  # y=0
        (1, 2, 6), (1, 6, 5),  # x=1
        (2, 3, 7), (2, 7, 6),  # y=1
        (3, 0, 4), (3, 4, 7),  # x=0
    ]
    return PolyhedralSurface(v, faces)


def icosahedron():
    """Regular icosahedron from golden-ratio rectangles."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    v = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            v += [[0.0, a, b], [a, b, 0.0], [b, 0.0, a]]
    v = np.array(v)
    from scipy.spatial import ConvexHull

    return PolyhedralSurface(v, hull_faces(v, ConvexHull(v).simplices))


def square_pyramid():
    """Square pyramid; apex last (index 4), base split along a diagonal."""
    v = np.array(
        [
            [1.0, 0, 0],
            [0, 1.0, 0],
            [-1.0, 0, 0],
            [0, -1.0, 0],
            [0, 0, 1.0],
        ]
    )
    faces = [(4, 0, 1), (4, 1, 2), (4, 2, 3), (4, 3, 0), (0, 2, 1), (0, 3, 2)]
    return PolyhedralSurface(v, faces)


def jessen_icosahedron():
    """Jessen's orthogonal icosahedron (B. Jessen, Nordisk Mat. Tidskr. 15,
    1967): the qhull triangulation of the 12 cyclic permutations of
    (0, +-1, +-2), dented at each of its six edges of length 2.  Its
    vertices are those of a convex polyhedron and its six reflex edges have
    dihedral angle 3 pi / 2, yet it flexes infinitesimally: weakly convex
    and flexible."""
    from scipy.spatial import ConvexHull

    v = np.array([np.roll((0.0, a, b), k) for a in (-1.0, 1.0) for b in (-2.0, 2.0)
                  for k in range(3)])
    surface = PolyhedralSurface(v, hull_faces(v, ConvexHull(v).simplices))
    for i, j in [(i, j) for i, j in surface.edges if np.linalg.norm(v[i] - v[j]) == 2.0]:
        surface = dent(surface, (i, j)).surface
    return surface


# ---------------------------------------------------------------------------
# random frameworks and projective maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectiveMap:
    """Projective transformation of R^3, row-vector convention:
    [x, 1] @ matrix gives homogeneous output, divided by its 4th entry.

    The stored matrix is canonically scaled so its largest-magnitude
    entry equals 1.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise GeometryError(f"projective matrix must be 4x4, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise GeometryError("non-finite projective matrix")
        pivot = m.flat[np.abs(m).argmax()]
        if pivot == 0.0:
            raise GeometryError("zero projective matrix")
        m = m / pivot
        if abs(np.linalg.det(m)) <= 1e-12:
            raise GeometryError("projective matrix is singular")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls):
        return cls(np.eye(4))


def transform_points(pmap, points, tol: Tolerances = DEFAULT_TOL):
    points = as_points(points)
    hom = np.hstack([points, np.ones((len(points), 1))]) @ pmap.matrix
    w = hom[:, 3]
    bad = np.nonzero(np.abs(w) < tol.geom_tol)[0]
    if len(bad):
        raise GeometryError(
            f"vertex {bad[0]} maps to the plane at infinity "
            f"(homogeneous coordinate {w[bad[0]]:.2e})"
        )
    return hom[:, :3] / w[:, None]


def projective_pole_frame(surface, north, south, tol: Tolerances = DEFAULT_TOL):
    """geometry.normalize_pole_frame as a 4x4 projective map: the same
    support planes, from the surface's hull stage, applied by
    transform_points.  Returns (map, new_points); the identity map when the
    vertices are already in the pole frame."""
    points = as_points(surface.vertices)
    if pole_frame_ok(points, north, south, tol):
        return ProjectiveMap.identity(), points

    pts, hull, nonexposed = surface.hull_stage
    normals = []
    for name, pole in (("north", north), ("south", south)):
        u = None if pole in nonexposed else _vertex_support_normal(pts, hull, pole, tol)
        if u is None:
            raise GeometryError(f"{name} pole (vertex {pole}) is not an exposed point")
        normals.append(u)
    u_n, u_s = normals
    c_n, c_s = u_n @ points[north], u_s @ points[south]

    # Homogeneous functionals F = u_n.x - c_n and G = u_s.x - c_s are zero on
    # the support planes and negative elsewhere on the configuration.  The map
    # (x, 1) -> (v1.(x - S), v2.(x - S), -G, -(F + G)) sends the southern
    # support plane to z=0, the northern one to z=1, S to the origin and N to
    # (0,0,1); -(F+G) > 0 on the configuration, so nothing hits infinity.
    v1, v2 = axis_frame(unit(points[north] - points[south]))
    s_pos = points[south]

    m = np.empty((4, 4))
    m[:3, 0] = v1
    m[3, 0] = -v1 @ s_pos
    m[:3, 1] = v2
    m[3, 1] = -v2 @ s_pos
    m[:3, 2] = -u_s
    m[3, 2] = c_s
    m[:3, 3] = -(u_n + u_s)
    m[3, 3] = c_n + c_s
    pmap = ProjectiveMap(m)

    new_points = transform_points(pmap, points, tol)
    # exact pinning of the poles against roundoff
    new_points[south] = 0.0
    new_points[north] = np.array([0.0, 0.0, 1.0])
    if not pole_frame_ok(new_points, north, south, tol):
        raise InvariantError("pole normalization failed its own support-plane check")
    return pmap, new_points


def random_framework(rng, n, tol: Tolerances = DEFAULT_TOL):
    """Random bar framework: n Gaussian points, each pair joined with
    probability EDGE_PROBABILITY, plus a path so the result is connected."""
    if n < 2:
        raise GenerationError("need at least 2 vertices")
    pts = rng.normal(size=(n, 3))
    edges = {(i, i + 1) for i in range(n - 1)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < EDGE_PROBABILITY:
                edges.add((i, j))
    return Framework(pts, sorted(edges), tol)


def random_projective_map(rng, points):
    """A random projective map keeping every given point finite (all
    homogeneous denominators bounded away from zero)."""
    points = np.asarray(points, dtype=float)
    span = max(1.0, np.abs(points).max())
    for _ in range(PROJECTIVE_TRIES):
        linear = np.eye(3) + rng.uniform(-0.4, 0.4, (3, 3))
        if abs(np.linalg.det(linear)) < 1e-3:
            continue
        m = np.eye(4)
        m[:3, :3] = linear
        m[3, :3] = rng.uniform(-0.5, 0.5, 3)
        m[:3, 3] = rng.uniform(-PROJECTIVE_STRENGTH, PROJECTIVE_STRENGTH, 3) / span
        m[3, 3] = 1.0
        w = points @ m[:3, 3] + m[3, 3]
        if np.abs(w).min() < 0.2:
            continue
        try:
            pmap = ProjectiveMap(m)
            transform_points(pmap, points)
        except GeometryError:
            continue
        return pmap
    raise GenerationError("no admissible projective map found")


# ---------------------------------------------------------------------------
# convex polygons and suspensions with a fixed floor, spread and jitter
# ---------------------------------------------------------------------------


def random_convex_polygon(rng, n):
    """Radii and azimuths of a convex n-gon winding once around the
    origin (so the origin is strictly interior)."""
    for attempt in range(POLYGON_TRIES):
        az = _azimuths(rng, n)
        spread = 0.3 * 0.5 ** (attempt // 20)  # tighten until convex
        radii = rng.uniform(1.0 - spread, 1.0 + spread, n)
        u = np.stack([radii * np.cos(az), radii * np.sin(az)], axis=1)
        edges = np.roll(u, -1, axis=0) - u
        nxt = np.roll(edges, -1, axis=0)
        cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        if cross.min() > 1e-6:
            return radii, az
    raise GenerationError("could not draw a convex polygon")


def convex_suspension(rng, n, tol: Tolerances = DEFAULT_TOL):
    """Strongly strictly convex suspension: the bipyramid over a convex
    polygon, with pole offsets and out-of-plane jitter accepted only when
    the convex hull of the vertices has exactly the bipyramid's faces.

    Jitter is halved towards the guaranteed planar equator; if that never
    converges (a pole offset outside a small polygon can make the hull
    skip equator vertices entirely), the whole instance is redrawn."""
    from scipy.spatial import ConvexHull  # deferred: only hull callers pay its import

    for _ in range(CONVEX_SUSPENSION_TRIES):
        radii, az = random_convex_polygon(rng, n)
        base = np.stack([radii * np.cos(az), radii * np.sin(az), np.zeros(n)], axis=1)
        h_n = rng.uniform(0.6, 1.6)
        h_s = rng.uniform(0.6, 1.6)
        north = np.array([rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15), h_n])
        south = np.array([rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15), -h_s])
        jitter = rng.uniform(-0.1, 0.1, n)
        for _ in range(8):
            eq = base.copy()
            eq[:, 2] = jitter
            s = build_suspension(north, south, eq, tol)
            pts = s.surface.vertices
            hull = ConvexHull(pts)
            hull_faces = {tuple(sorted(f)) for f in hull.simplices.tolist()}
            surf_faces = {tuple(sorted(f)) for f in s.surface.faces.tolist()}
            sharp = (dihedral_angles(s.surface, tol) < np.pi - FLAT_EDGE_MARGIN).all()
            if hull_faces == surf_faces and sharp:
                return s
            jitter *= 0.5
    raise GenerationError("convex suspension generation did not converge")


# ---------------------------------------------------------------------------
# tensegrity sign conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensegrityFlexReport:
    """Per-edge outcome of the first-order cable/bar/strut conditions."""

    values: dict  # edge pair -> (p_i - p_j) . (m_i - m_j)
    violations: tuple

    @property
    def satisfied(self):
        return not self.violations


def tensegrity_flex_test(fw, motion, slack=1e-10):
    """Evaluate (p_i - p_j) . (m_i - m_j) on every edge and check the
    sign condition for its kind: = 0 bars, <= 0 cables, >= 0 struts."""
    m = motion.velocities
    if m.shape != fw.vertices.shape:
        raise FrameworkError("motion size does not match framework")
    rates = np.einsum("ij,ij->i", *_edge_vectors(fw, m)[1:])  # R m
    values = dict(zip(fw.edge_pairs, rates.tolist()))
    violations = tuple((i, j) for (i, j, kind), v in zip(fw.edges, values.values())
                       if (kind is EdgeKind.BAR and abs(v) > slack)
                       or (kind is EdgeKind.CABLE and v > slack)
                       or (kind is EdgeKind.STRUT and v < -slack))
    return TensegrityFlexReport(values, violations)


def stress_energy(fw, stress, motion):
    """Contraction sum_ij omega_ij (p_i - p_j) . (m_i - m_j); identically
    zero in the motion whenever the stress is an equilibrium stress."""
    rates = np.einsum("ij,ij->i", *_edge_vectors(fw, motion.velocities)[1:])
    return float(stress.as_vector(fw) @ rates)


# ---------------------------------------------------------------------------
# the Cauchy lemma on small embedded graphs
# ---------------------------------------------------------------------------


def impossible_labeling_search(rotation):
    """Exhaustively search all +-1 edge labelings of an embedded graph for
    one where no vertex sees all-equal signs and all vertices but at most
    three see at least 4 sign changes.

    No such labeling can exist on a sphere; returns None once all
    labelings are refuted, or the counterexample labeling (which would
    indicate an implementation bug)."""
    edges = sorted(
        {tuple(sorted((u, v))) for u, nbrs in rotation.items() for v in nbrs}
    )
    for u, nbrs in rotation.items():
        for v in nbrs:
            if u not in rotation[v]:
                raise CauchyError(f"rotation system is not symmetric at ({u}, {v})")
    if len(edges) > LABELING_EDGE_CAP:
        raise CauchyError(
            f"{len(edges)} edges: exhaustive search is capped at {LABELING_EDGE_CAP}"
        )
    index = {e: k for k, e in enumerate(edges)}
    slots = {
        v: [index[tuple(sorted((v, w)))] for w in nbrs]
        for v, nbrs in rotation.items()
    }
    for labels in product((1, -1), repeat=len(edges)):
        low_change_vertices = 0
        ok = True
        for v, slot_ids in slots.items():
            seq = [labels[k] for k in slot_ids]
            if all(s == seq[0] for s in seq):
                ok = False
                break
            if cyclic_sign_changes(seq) < 4:
                low_change_vertices += 1
                if low_change_vertices > 3:
                    ok = False
                    break
        if ok:
            return dict(zip(edges, labels))
    return None


# ---------------------------------------------------------------------------
# exact arithmetic
# ---------------------------------------------------------------------------


def exact_rank(rows):
    """Rank over Q of a float matrix, each entry read exactly as a Fraction,
    by Gaussian elimination."""
    rows = [[Fraction(float(x)) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# a suspension tuned to the rigidity threshold
# ---------------------------------------------------------------------------


def _notched_equator(notch_radius, notch_height):
    third = 2.0 * np.pi / 3.0
    return [
        [1.0, 0.0, 0.5],
        [
            notch_radius * np.cos(third / 2.0),
            notch_radius * np.sin(third / 2.0),
            notch_height,
        ],
        [np.cos(third), np.sin(third), 0.5],
        [np.cos(2 * third), np.sin(2 * third), 0.5],
    ]


@dataclass(frozen=True)
class ThresholdSuspension:
    suspension: object
    notch_height: float
    lam: float


def flexible_suspension_fixture(
    tol: Tolerances = DEFAULT_TOL, target=1e-10, notch_radius=0.18
):
    """A suspension with axis invariant tuned to zero: a triangle-plus-notch
    equator whose notch height is bisected until |lambda| <= target.

    The notch vertex sits well inside the hull, so the result is not
    weakly convex -- as it must not be, since it carries a nontrivial
    flex."""

    def lam_at(t):
        s = build_suspension(
            (0.0, 0.0, 1.0), (0.0, 0.0, 0.0), _notched_equator(notch_radius, t), tol
        )
        return s, lambda_scalar(s, tol).total

    grid = np.linspace(0.05, 0.95, 37)
    values = [lam_at(t)[1] for t in grid]
    bracket = None
    for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]):
        if fa == 0.0 or fa * fb < 0.0:
            bracket = (a, b, fa, fb)
            break
    if bracket is None:
        raise GenerationError(
            "the notch-height family never crosses zero; invariant range "
            f"[{min(values):.4g}, {max(values):.4g}]"
        )
    lo, hi, flo, fhi = bracket
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        s, fmid = lam_at(mid)
        if abs(fmid) <= target:
            return ThresholdSuspension(s, mid, fmid)
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    raise GenerationError(
        f"bisection stalled: |lambda| = {abs(fmid):.3g} > {target:.3g}"
    )


# ---------------------------------------------------------------------------
# angle oracles on tetrahedra and decompositions
# ---------------------------------------------------------------------------


# the four faces (012, 013, 023, 123), each as its edges (ab, bc, ca) in
# TETRA_EDGE_ORDER positions
_FACE_CYCLES = np.array([[0, 3, 1], [0, 4, 2], [1, 5, 2], [3, 5, 4]])
# the same cycles rotated by one and by two places: (bc, ca, ab), (ca, ab, bc)
_FACE_CYCLES_NEXT = _FACE_CYCLES[:, [1, 2, 0]]
_FACE_CYCLES_PREV = _FACE_CYCLES[:, [2, 0, 1]]
# position of the squared length d_ij in the padded vector (0, d01^2, ..., d23^2)
_CM_INDEX = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])


def cayley_menger_feasible(lengths, tol: Tolerances = DEFAULT_TOL):
    """Whether six lengths (d01, d02, d03, d12, d13, d23) are the edge
    lengths of a nondegenerate Euclidean tetrahedron.

    lengths has shape (..., 6).  Returns (feasible, volume) of shape (...),
    as a bool and a float for a single (6,) input; volume is 0.0 where
    infeasible.
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.ndim == 0 or lengths.shape[-1] != 6:
        raise GeometryError(f"expected 6 lengths, got shape {lengths.shape}")
    if np.any(lengths <= 0.0) or not np.all(np.isfinite(lengths)):
        raise GeometryError("edge lengths must be positive and finite")

    scale = lengths.max(axis=-1)
    # triangle inequalities d_ab + d_bc >= d_ca on every face, in every rotation
    broken = lengths[..., _FACE_CYCLES] + lengths[..., _FACE_CYCLES_NEXT] < (
        lengths[..., _FACE_CYCLES_PREV] - tol.geom_tol * scale[..., None, None]
    )

    cm = np.ones(lengths.shape[:-1] + (5, 5))
    cm[..., 0, 0] = 0.0
    padded = np.concatenate([np.zeros(lengths.shape[:-1] + (1,)), lengths**2], axis=-1)
    cm[..., 1:, 1:] = padded[..., _CM_INDEX]
    vol_sq = np.linalg.det(cm) / 288.0
    feasible = ~broken.any(axis=(-2, -1)) & (vol_sq > tol.geom_tol**2 * scale**6)
    volume = np.sqrt(np.where(feasible, vol_sq, 0.0))
    if lengths.ndim == 1:
        return bool(feasible), float(volume)
    return feasible, volume


def cayley_menger_refused(lengths, tol: Tolerances = DEFAULT_TOL):
    """The lambda assembly's refusal by the Cayley-Menger route: rows that
    fail cayley_menger_feasible at `tol` or whose squared volume is below
    E_INTERIOR_MARGIN times the longest length^6."""
    lengths = np.asarray(lengths, dtype=float)
    feasible, vol = cayley_menger_feasible(lengths, tol)
    return ~np.asarray(feasible) | (vol**2 < E_INTERIOR_MARGIN * lengths.max(axis=-1) ** 6)


def tetra_angles_and_jacobian(lengths, tol: Tolerances = DEFAULT_TOL):
    """hessian._angles_and_jacobian behind the Cayley-Menger check at `tol`:
    (angles, jacobian) of shapes (..., 6) and (..., 6, 6) for (..., 6) edge
    lengths in TETRA_EDGE_ORDER, or DecompositionError naming the first row
    that is not a nondegenerate tetrahedron."""
    lengths = np.asarray(lengths, dtype=float)
    gram = _gram(lengths)
    m, big_g = gram
    feasible = cayley_menger_feasible(lengths, tol)[0]
    bad = np.flatnonzero(~np.asarray(feasible) | np.any(big_g * m[..., 0] <= 0.0, axis=-1))
    if bad.size:
        t = int(bad[0])
        raise DecompositionError(
            f"tetrahedron {t}: lengths {lengths.reshape(-1, 6)[t].tolist()} are not "
            "a tetrahedron (infeasible or degenerate: angle derivative undefined)"
        )
    return _angles_and_jacobian(lengths, gram)


def interior_edge_star(d: Decomposition, tol: Tolerances = DEFAULT_TOL):
    """The suspension formed by the tetrahedra around the single interior
    edge of a decomposition: poles are the edge endpoints, the equator is
    the cycle of flank vertices."""
    if d.r != 1:
        raise SuspensionError(f"decomposition has {d.r} interior edges; need exactly one")
    _, link = d._star(0)
    north, south = d.interior_edges[0]
    return build_suspension(d.vertices[north], d.vertices[south], d.vertices[list(link)], tol)


def schlafli_residual(lengths, direction):
    """Sum over edges of l_e * (d alpha_e in the given length direction);
    identically zero for a Euclidean tetrahedron."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (6,):
        raise DecompositionError(f"direction must have 6 entries, got {direction.shape}")
    lengths = np.asarray(lengths, dtype=float)
    _, jac = tetra_angles_and_jacobian(lengths)
    return float(lengths @ (jac @ direction))


def cone_angles(d, interior_l=None):
    """Total dihedral angle collected around each interior edge at the
    given interior lengths (default: the embedded lengths, where every
    entry is 2*pi for closed stars)."""
    angles, _ = tetra_angles_and_jacobian(d._lengths(interior_l), d.tol)
    interior = d._edge_index < d.r
    theta = np.zeros(d.r)
    np.add.at(theta, d._edge_index[interior], angles[interior])
    return theta


def mean_curvature_H(d, interior_l=None):
    """Sum over (tetrahedron, edge) incidences of length times dihedral
    angle; its gradient in the interior lengths is the cone-angle vector."""
    lengths = d._lengths(interior_l)
    angles, _ = tetra_angles_and_jacobian(lengths, d.tol)
    return float((lengths * angles).sum())


def dihedral_table(d, interior_l=None):
    """Angle per (tetrahedron, edge) incidence, with a per-tetrahedron
    Gram consistency check on the four outward face normals."""
    angles, _ = tetra_angles_and_jacobian(d._lengths(interior_l), d.tol)
    # faces are indexed by their opposite vertex: the edge (a, b) is shared
    # by the faces opposite the *other* two vertices
    c_v, d_v = np.array([sorted(set(range(4)) - set(pair)) for pair in TETRA_EDGE_ORDER]).T
    gram = np.tile(np.eye(4), (len(angles), 1, 1))
    gram[:, c_v, d_v] = gram[:, d_v, c_v] = -np.cos(angles)
    failed = np.flatnonzero(np.linalg.det(gram) < -1e-9)
    if failed.size:
        raise InvariantError(f"dihedral angles of tetrahedron {failed[0]} fail the Gram check")
    edges = d.interior_edges + d.boundary_edges
    return {
        (t_idx, edges[k]): float(angles[t_idx, m])
        for t_idx, row in enumerate(d._edge_index)
        for m, k in enumerate(row)
    }
