"""Low-level 3D geometry for rigidity analysis.

Polyhedral surfaces (closed, oriented, triangulated), convexity
classification, dihedral angles, and the pole frame of suspensions (a
projective normalization written as two support-plane functionals).

Conventions:

* vertex coordinates are float64 arrays of shape (n, 3);
* faces are integer triples with consistent orientation; at construction
  the orientation is normalized so the enclosed signed volume is
  non-negative (outward normals);
* tolerance predicates rescale to unit diameter first, so ``geom_tol``
  and ``rank_tol`` are dimensionless.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

DEFAULT_RANK_TOL = 1e-9
DEFAULT_GEOM_TOL = 1e-9


class GeometryError(Exception):
    """Invalid geometric input (degenerate, non-manifold, unexposed...)."""


class InvariantError(Exception):
    """An internal cross-check failed: the code or the theorem it checks is
    wrong.  No input error subclasses it, so no input handler swallows it."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical cutoffs shared by every predicate in the package.

    rank_tol  -- singular values (or |eigenvalues|) at or below rank_tol
                 times the largest count as zero; see numerical_rank.
    geom_tol  -- coincidence / coplanarity / strictness cutoff on
                 unit-diameter geometry.
    """

    rank_tol: float = DEFAULT_RANK_TOL
    geom_tol: float = DEFAULT_GEOM_TOL

    def __post_init__(self):
        for name in ("rank_tol", "geom_tol"):
            value = getattr(self, name)
            if not (0.0 < value < 1e-3):
                raise ValueError(f"{name} must lie in (0, 1e-3), got {value!r}")

    def numerical_rank(self, magnitudes, reference=0.0):
        """The one rank rule: the count of magnitudes (singular values or
        |eigenvalues|) above rank_tol times the larger of the largest
        magnitude and `reference`; 0 when empty.

        `reference` is the magnitude the caller's numbers were computed at
        when it can exceed the largest of them: a single |eigenvalue| is
        never small relative to itself, but it is relative to the entries
        that cancelled to produce it."""
        magnitudes = np.asarray(magnitudes, dtype=float)
        if magnitudes.size == 0:
            return 0
        cutoff = self.rank_tol * max(magnitudes.max(), reference)
        return int((magnitudes > cutoff).sum())


DEFAULT_TOL = Tolerances()


def as_points(obj):
    """Coerce array-like coordinates into a fresh (n, 3) float array."""
    arr = np.array(obj, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise GeometryError(f"expected (n, 3) coordinates, got shape {arr.shape}")
    return arr


def __getattr__(name):
    """`geometry.ConvexHull` is scipy's, imported on first read: importing
    this module loads no scipy (PEP 562)."""
    if name == "ConvexHull":
        from scipy.spatial import ConvexHull

        return ConvexHull
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def diameter(points):
    """Largest pairwise distance of a point configuration (0.0 for fewer
    than two points)."""
    from scipy.spatial.distance import pdist  # deferred: importing geometry loads no scipy

    dist = pdist(np.asarray(points, dtype=float))
    return float(dist.max()) if dist.size else 0.0


def _cross(a, b):
    """Cross product of float (..., 3) arrays, broadcast as np.cross does
    and with the same products and differences, minus its per-call
    overhead on the small arrays this package works with."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0 = a1 * b2 - a2 * b1
    out = np.empty(np.shape(c0) + (3,))
    out[..., 0] = c0
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def unit(v):
    n = np.linalg.norm(v)
    if n == 0.0:
        raise GeometryError("cannot normalize the zero vector")
    return v / n


# ---------------------------------------------------------------------------
# polyhedral surfaces
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PolyhedralSurface:
    """Closed oriented triangulated surface.

    Invariants enforced at construction: every directed edge appears in
    exactly one face (so every undirected edge borders exactly two faces
    and the orientation is consistent), the edge graph is connected,
    v - e + f = 2 and 2e = 3f, no repeated index inside a face, and no
    two vertices coincide within tolerance.  Faces are flipped as a block
    if the signed volume comes out negative, so normals point outward.
    Equality is identity.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __init__(self, vertices, faces, tol: Tolerances = DEFAULT_TOL):
        vertices = as_points(vertices)
        faces = np.array(faces, dtype=int)
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise GeometryError(f"faces must be (f, 3) index triples, got {faces.shape}")
        if not np.all(np.isfinite(vertices)):
            raise GeometryError("non-finite vertex coordinates")
        n = len(vertices)
        if faces.min(initial=0) < 0 or faces.max(initial=-1) >= n:
            raise GeometryError("face index out of range")
        for f_idx, tri in enumerate(faces.tolist()):
            if len(set(tri)) != 3:
                raise GeometryError(f"face {f_idx} repeats a vertex index: {tuple(tri)}")

        directed = self._check_manifold(faces, n)
        diam = self._check_coincidence(vertices, tol)

        volume = _signed_volume(vertices, faces)
        if volume < 0.0:
            # reversing every face reverses every directed edge
            faces = faces[:, ::-1]
            directed = {(v, u): f_idx for (u, v), f_idx in directed.items()}

        vertices.flags.writeable = False
        faces = np.ascontiguousarray(faces)
        faces.flags.writeable = False
        self.vertices = vertices
        self.faces = faces
        self._directed_face = directed
        self.signed_volume = abs(volume)
        self.diameter = diam

    @staticmethod
    def _check_manifold(faces, n_vertices):
        """Validate the face list; return the map directed edge -> face."""
        directed = {}
        for f_idx, (a, b, c) in enumerate(faces.tolist()):
            for u, v in ((a, b), (b, c), (c, a)):
                if (u, v) in directed:
                    raise GeometryError(
                        f"directed edge ({u}, {v}) appears in faces "
                        f"{directed[(u, v)]} and {f_idx}: inconsistent orientation"
                    )
                directed[(u, v)] = f_idx
        for (u, v) in directed:
            if (v, u) not in directed:
                raise GeometryError(f"edge ({u}, {v}) borders only one face: surface not closed")

        e = len(directed) // 2
        f = len(faces)
        if 2 * e != 3 * f:
            raise GeometryError(f"2e = 3f violated: e={e}, f={f}")
        if n_vertices - e + f != 2:
            raise GeometryError(
                f"Euler count v - e + f = {n_vertices - e + f}, expected 2 "
                f"(v={n_vertices}, e={e}, f={f})"
            )

        # connectivity over the edge graph
        adj = [[] for _ in range(n_vertices)]
        for (u, v) in directed:
            adj[u].append(v)
        seen = np.zeros(n_vertices, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        if not seen.all():
            raise GeometryError("surface is not connected")
        return directed

    @staticmethod
    def _check_coincidence(vertices, tol):
        """Reject coincident vertices; return the diameter, from the same
        pairwise distances."""
        from scipy.spatial.distance import pdist

        dist = pdist(vertices)
        diam = float(dist.max()) if dist.size else 0.0
        if diam == 0.0:
            raise GeometryError("all vertices coincide")
        k = int(dist.argmin())
        if dist[k] <= tol.geom_tol * diam:
            # condensed index k -> pair (i, j), i < j; row i holds n - 1 - i entries
            n = len(vertices)
            i = int(np.searchsorted(np.cumsum(np.arange(n - 1, 0, -1)), k, side="right"))
            j = k - i * n + i * (i + 1) // 2 + i + 1
            raise GeometryError(f"vertices {i} and {j} coincide within tolerance")
        return diam

    # -- derived combinatorics ---------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @cached_property
    def edges(self):
        """Undirected edges as sorted (i, j) pairs, lexicographically ordered."""
        return tuple(sorted((u, v) for u, v in self._directed_face if u < v))

    def edge_faces(self, i, j):
        """Indices of the faces containing directed edges (i,j) and (j,i)."""
        try:
            return self._directed_face[(i, j)], self._directed_face[(j, i)]
        except KeyError:
            raise GeometryError(f"({i}, {j}) is not an edge of the surface") from None

    @cached_property
    def flanking_faces(self):
        """(E, 2) read-only array: row k holds edge_faces(*edges[k])."""
        flanks = np.array([self.edge_faces(i, j) for i, j in self.edges])
        flanks.flags.writeable = False
        return flanks

    @cached_property
    def vertex_faces(self):
        incident = [[] for _ in range(self.n_vertices)]
        for f_idx, tri in enumerate(self.faces):
            for v in tri:
                incident[v].append(f_idx)
        return tuple(tuple(fs) for fs in incident)

    def neighbors_cyclic(self, v):
        """Neighbors of v in cyclic order around the vertex star."""
        succ = {}
        for f_idx in self.vertex_faces[v]:
            tri = [int(w) for w in self.faces[f_idx]]
            k = tri.index(v)
            succ[tri[(k + 1) % 3]] = tri[(k + 2) % 3]
        if len(succ) < 3:
            raise GeometryError(f"vertex {v} has fewer than 3 incident faces")
        # each directed edge lies in one face and the surface is closed, so
        # succ permutes the neighbours and the walk returns to its start
        start = next(iter(succ))
        cycle = [start]
        while succ[cycle[-1]] != start:
            cycle.append(succ[cycle[-1]])
        if len(cycle) != len(succ):
            raise GeometryError(f"vertex star of {v} is not a single cycle")
        return cycle

    @cached_property
    def face_cross(self):
        """(F, 3) read-only array: (b - a) x (c - a) for each face (a, b, c),
        the outward normal scaled by twice the face area."""
        corners = self.vertices[self.faces]
        cross = _cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        cross.flags.writeable = False
        return cross

    @cached_property
    def hull_stage(self):
        """qhull of the vertices scaled to unit diameter, built once per
        surface.

        (points, hull, nonexposed): the scaled points, their hull (None when
        qhull fails on a degenerate vertex set) and the vertices that are not
        hull vertices (every vertex when the hull failed)."""
        from scipy.spatial import ConvexHull, QhullError  # deferred: only hull callers pay its import

        pts = self.vertices / self.diameter
        pts.flags.writeable = False
        try:
            hull = ConvexHull(pts)
        except QhullError:
            return pts, None, tuple(range(len(pts)))
        on_hull = np.zeros(len(pts), dtype=bool)
        on_hull[hull.vertices] = True
        return pts, hull, tuple(np.flatnonzero(~on_hull).tolist())

    def degenerate_faces(self, tol: Tolerances = DEFAULT_TOL):
        """Boolean (F,) mask of the zero-area faces: doubled area at or
        below geom_tol * diameter**2."""
        return np.linalg.norm(self.face_cross, axis=1) <= tol.geom_tol * self.diameter**2


def _signed_volume(vertices, faces):
    v = vertices[faces]
    return float(np.einsum("ij,ij->i", v[:, 0], _cross(v[:, 1], v[:, 2])).sum() / 6.0)


# ---------------------------------------------------------------------------
# dihedral angles and convexity
# ---------------------------------------------------------------------------


def _dihedral_kernel(p, q, cross1, cross2, floor):
    """Interior dihedral angles, in (0, 2*pi), at the edges p -> q ((k, 3)
    arrays) whose flanking faces have outward cross products cross1 (the one
    holding p -> q) and cross2; NaN where either doubled area is <= floor."""
    doubled1, doubled2 = np.linalg.norm(cross1, axis=1), np.linalg.norm(cross2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        n1, n2 = cross1 / doubled1[:, None], cross2 / doubled2[:, None]
    u = (q - p) / np.linalg.norm(q - p, axis=1)[:, None]
    angles = np.pi - np.arctan2(
        np.einsum("ex,ex->e", _cross(n1, n2), u), np.einsum("ex,ex->e", n1, n2)
    )
    angles[angles <= 0.0] += 2.0 * np.pi
    angles[(doubled1 <= floor) | (doubled2 <= floor)] = np.nan
    return angles


def _dihedral_rate_kernel(surface, velocities):
    """Rates of dihedral_angles' angles when the vertices move at the (n, 3)
    velocities: theta = pi - atan2(s, c), with s = (n1 x n2) . u and
    c = n1 . n2, has theta' = -(c s' - s c') / (s^2 + c^2).  Scaling a
    normal scales s and c alike, so n = C / |C| may move at C' / |C|; and
    n1 x n2 is parallel to the edge direction u, so orthogonal to u': s'
    needs no u'.  Not finite where a flanking face has zero area."""
    corners, moves = surface.vertices[surface.faces], velocities[surface.faces]
    side1, side2 = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
    cross_rate = (_cross(moves[:, 1] - moves[:, 0], side2)
                  + _cross(side1, moves[:, 2] - moves[:, 0]))
    i, j = np.array(surface.edges).T
    u = surface.vertices[j] - surface.vertices[i]
    u /= np.linalg.norm(u, axis=1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        doubled = np.linalg.norm(surface.face_cross, axis=1)[:, None]
        flanks = surface.flanking_faces.T
        n1, n2 = (surface.face_cross / doubled)[flanks]
        dn1, dn2 = (cross_rate / doubled)[flanks]
        s, c = np.einsum("ex,ex->e", _cross(n1, n2), u), np.einsum("ex,ex->e", n1, n2)
        ds = np.einsum("ex,ex->e", _cross(dn1, n2) + _cross(n1, dn2), u)
        dc = np.einsum("ex,ex->e", dn1, n2) + np.einsum("ex,ex->e", n1, dn2)
        return -(c * ds - s * dc) / (s**2 + c**2)


def dihedral_angles(surface, tol: Tolerances = DEFAULT_TOL):
    """Interior dihedral angle at every edge, in (0, 2*pi), as an (E,)
    array in `surface.edges` order.

    Measured inside the solid bounded by the surface: a convex edge gives
    an angle below pi, a reflex ("non-convex") edge gives one above pi.
    The angle is NaN at an edge flanked by a degenerate (zero-area) face,
    so it compares as neither below nor above pi.
    """
    i, j = np.array(surface.edges).T
    cross, p = surface.face_cross[surface.flanking_faces.T], surface.vertices
    return _dihedral_kernel(p[i], p[j], *cross, tol.geom_tol * surface.diameter**2)


class Convexity(Enum):
    STRONGLY_STRICTLY_CONVEX = "strongly_strictly_convex"
    WEAKLY_STRICTLY_CONVEX = "weakly_strictly_convex"
    NOT_WEAKLY_CONVEX = "not_weakly_convex"


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of classify_convexity and classify_convexity_from_hull.

    edge_flags maps each undirected edge to "convex", "reflex" or "flat"
    according to its dihedral angle; unexposed_edges lists edges that are
    locally convex but admit no support plane touching the surface at
    exactly that edge.
    """

    classification: Convexity
    edge_flags: dict
    nonexposed_vertices: tuple
    unexposed_edges: tuple
    notes: tuple = ()

    @property
    def reflex_edges(self):
        return tuple(e for e, flag in self.edge_flags.items() if flag == "reflex")

    @property
    def is_weakly_convex(self):
        return self.classification is not Convexity.NOT_WEAKLY_CONVEX


def edge_flags(surface, tol: Tolerances = DEFAULT_TOL):
    """Map each undirected edge (in `surface.edges` order) to "convex",
    "reflex" or "flat" by its dihedral angle, geom_tol away from pi; the
    same flags as classify_convexity(surface, tol).edge_flags, without the
    hull or the exposure LPs."""
    return dict(zip(surface.edges, _reflex_rule(dihedral_angles(surface, tol), tol).tolist()))


def _reflex_rule(angles, tol):
    """edge_flags' rule per dihedral angle: geom_tol away from pi, NaN reads "flat"."""
    return np.select([angles > np.pi + tol.geom_tol, angles < np.pi - tol.geom_tol],
                     ["reflex", "convex"], "flat")


def support_functional(points, touching):
    """Best support plane touching the hull exactly at `touching`.

    Maximizes delta subject to u . p_t = c for t in touching,
    u . p_k <= c - delta for every other point k, |u|_inf <= 1.  Returns
    (u, c, delta) with delta in the same length units as the points; the
    touching set is exposed iff delta > geom_tol * diameter, a comparison
    left to the caller.
    """
    points = np.asarray(points, dtype=float)
    touching = sorted(set(int(t) for t in touching))
    others = [k for k in range(len(points)) if k not in touching]
    if not touching or not others:
        raise GeometryError("the touching set must be a nonempty proper subset of the points")
    # variables: u(3), c, delta
    c_obj = np.array([0.0, 0.0, 0.0, 0.0, -1.0])
    a_eq = np.hstack([points[touching], -np.ones((len(touching), 1)), np.zeros((len(touching), 1))])
    b_eq = np.zeros(len(touching))
    a_ub = np.hstack([points[others], -np.ones((len(others), 1)), np.ones((len(others), 1))])
    b_ub = np.zeros(len(others))
    bounds = [(-1, 1)] * 3 + [(None, None), (0, None)]
    from scipy.optimize import linprog  # deferred: only LP callers pay its import

    res = linprog(c_obj, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    _check_lp(res, "support_functional")
    u = res.x[:3]
    return u, float(res.x[3]), float(res.x[4])


def _check_lp(res, caller):
    """The exposure LPs are feasible at zero and bounded by |u|_inf <= 1, so
    an unsuccessful solve is a solver failure, never an answer."""
    if not res.success:
        raise InvariantError(f"{caller}: LP solver failed on a feasible bounded problem: {res.message}")


def _lp_margins(surface):
    """classify_convexity's exposure rule: (i, j) -> the exposure LP's delta
    with a row for every vertex of the unit-diameter surface,
    support_functional(pts, (i, j))[2]."""
    pts = surface.hull_stage[0]
    return lambda i, j: support_functional(pts, (i, j))[2]


def _hull_edge_gaps(pts, hull):
    """Gap of every edge of the qhull triangulation of `pts`, as a map
    (i, j) -> gap with i < j: the smaller of the two distances from one
    flanking facet's plane to the far vertex of the other facet, read from
    qhull's facet neighbours and unit-normal facet equations.  Roundoff on a
    diagonal of a non-triangular facet; on a hull edge, how far the hull
    bends there."""
    simplices = hull.simplices
    # the edge of facet s opposite its vertex k is shared with facet
    # neighbors[s, k], whose plane lies gaps[s, k] away from that vertex
    facing = hull.equations[hull.neighbors]
    gaps = -(np.einsum("skx,skx->sk", facing[..., :3], pts[simplices]) + facing[..., 3])
    ends = np.sort(np.stack([np.roll(simplices, -1, axis=1), np.roll(simplices, -2, axis=1)],
                            axis=2), axis=2)
    codes, where = np.unique(ends[..., 0] * len(pts) + ends[..., 1], return_inverse=True)
    smaller = np.full(len(codes), np.inf)
    np.minimum.at(smaller, where.ravel(), gaps.ravel())
    lo, hi = np.divmod(codes, len(pts))
    return dict(zip(zip(lo.tolist(), hi.tolist()), smaller.tolist()))


def _gap_margins(surface):
    """classify_convexity_from_hull's exposure rule: (i, j) -> the gap of
    [p_i, p_j] in the qhull triangulation of the surface's hull stage, 0.0
    for a pair that is no triangulation edge."""
    gaps = _hull_edge_gaps(*surface.hull_stage[:2])
    return lambda i, j: gaps.get((i, j), 0.0)


def is_weakly_convex(surface):
    """Whether the surface has the same vertices as a convex polyhedron:
    every vertex is a vertex of the convex hull, and the hull is
    full-dimensional.  Reads the surface's hull stage, no LP; equals
    classify_convexity(surface).is_weakly_convex."""
    return not surface.hull_stage[2]


def _classify(surface, tol, margins):
    """The convexity classification with the exposure rule left open.

    The surface's hull stage, the edge flags and, when a vertex is not a
    hull vertex, a note per such vertex.  Once every vertex is a hull
    vertex, `margins(surface)` gives the rule (i, j) ->
    margin in unit-diameter lengths, read at the convex-flagged edges in
    edge order; an edge is exposed iff it is convex-flagged and its margin
    exceeds geom_tol.
    """
    pts, hull, nonexposed = surface.hull_stage
    flags = edge_flags(surface, tol)
    if hull is None:
        notes = ("degenerate vertex set: convex hull is not full-dimensional",)
        return ConvexityReport(Convexity.NOT_WEAKLY_CONVEX, flags, nonexposed, (), notes)
    if nonexposed:
        # distinguish interior points from points on the hull boundary
        gaps = pts[list(nonexposed)] @ hull.equations[:, :3].T + hull.equations[:, 3]
        notes = []
        for v, gap in zip(nonexposed, gaps.max(axis=1)):
            where = "on the hull boundary" if gap >= -tol.geom_tol else "inside the hull"
            notes.append(f"vertex {v} is {where} but not a hull vertex")
        return ConvexityReport(Convexity.NOT_WEAKLY_CONVEX, flags, nonexposed, (), tuple(notes))

    margin = margins(surface)
    unexposed_edges = [
        (i, j) for (i, j), flag in flags.items()
        if flag != "convex" or margin(i, j) <= tol.geom_tol
    ]
    if unexposed_edges:
        return ConvexityReport(Convexity.WEAKLY_STRICTLY_CONVEX, flags, (), tuple(unexposed_edges))
    return ConvexityReport(Convexity.STRONGLY_STRICTLY_CONVEX, flags, (), ())


def classify_convexity(surface, tol: Tolerances = DEFAULT_TOL):
    """Classify a closed surface by strict convexity of vertices and edges;
    the LP reference for classify_convexity_from_hull.

    Strongly strictly convex: every vertex and every edge is exposed on
    the convex hull.  The rule: a convex-flagged edge is exposed iff its
    exposure LP (support_functional, one per convex edge, with a row for
    every vertex of the unit-diameter surface) gives delta > geom_tol.
    Weakly strictly convex: every vertex is exposed, the is_weakly_convex
    test.  Vertices lying on the hull boundary without being hull vertices
    count as not strictly convex (noted in the report).

    Near a flat hull edge delta, taken over |u|_inf <= 1, measured 0.50 to
    0.75 times the edge's hull gap, so this verdict and
    classify_convexity_from_hull's may differ where the gap lies in
    (geom_tol, 2 * geom_tol]: exposed there by the gap, not by delta.
    """
    return _classify(surface, tol, _lp_margins)


def classify_convexity_from_hull(surface, tol: Tolerances = DEFAULT_TOL):
    """classify_convexity's classification, read from the surface's hull
    stage: no LP.

    The rule: a convex-flagged edge is exposed iff it is an edge of qhull's
    triangulation of the unit-diameter vertices and its gap exceeds
    geom_tol, where the gap is the smaller of the two distances from one
    flanking facet's plane to the far vertex of the other facet.  Every
    other edge is unexposed.  Everything else (hull stage, edge flags,
    nonexposed-vertex notes) is classify_convexity's.

    Near a flat hull edge the LP's delta measured 0.50 to 0.75 times the
    gap, so the two verdicts may differ where the gap lies in
    (geom_tol, 2 * geom_tol]: exposed there by the gap, not by delta.
    """
    return _classify(surface, tol, _gap_margins)


# ---------------------------------------------------------------------------
# pole normalization
# ---------------------------------------------------------------------------


def pole_frame_ok(points, north, south, tol: Tolerances = DEFAULT_TOL):
    """True if south sits at the origin, north at (0,0,1), and every other
    vertex has z strictly inside (0, 1) -- i.e. the planes z=0 and z=1
    are support planes touching only the poles."""
    points = as_points(points)
    eps = tol.geom_tol
    if np.linalg.norm(points[south]) > eps:
        return False
    if np.linalg.norm(points[north] - np.array([0.0, 0.0, 1.0])) > eps:
        return False
    others = [k for k in range(len(points)) if k not in (north, south)]
    z = points[others, 2]
    return bool(np.all(z > eps) and np.all(z < 1.0 - eps))


def axis_frame(axis):
    """Unit vectors (v1, v2) completing the unit vector `axis` to the
    right-handed orthonormal frame (v1, v2, axis)."""
    seed = np.eye(3)[np.abs(axis).argmin()]
    v1 = unit(seed - (seed @ axis) * axis)
    return v1, _cross(axis, v1)


def _vertex_support_normal(pts, hull, k, tol):
    """Unit normal u of a plane touching the hull of the unit-diameter
    points `pts` only at the hull vertex k, or None when its plane does not
    clear every other point by more than geom_tol.

    u is the sum of the outward normals of the hull facets at k, which lies
    inside the normal cone of k, so the plane meets the hull at k alone."""
    u = unit(hull.equations[(hull.simplices == k).any(axis=1), :3].sum(axis=0))
    gaps = (pts[k] - np.delete(pts, k, axis=0)) @ u
    return u if gaps.min() > tol.geom_tol else None


def normalize_pole_frame(surface, north, south, tol: Tolerances = DEFAULT_TOL):
    """The surface's vertices in the standard pole frame: south at the
    origin, north at (0,0,1), all other vertices with z in (0,1), so the
    planes orthogonal to the axis at the poles support the configuration.

    Returns new points, a copy of the vertices when they already satisfy
    the condition.  The support plane at a pole comes from the surface's
    hull stage, as is_weakly_convex's verdict does: a pole is exposed iff
    it is a hull vertex and the plane normal to the unit sum of its facets'
    outward normals clears every other point by more than
    geom_tol * diameter.  Raises GeometryError when a pole is not exposed.
    """
    points = surface.vertices
    if pole_frame_ok(points, north, south, tol):
        return points.copy()

    pts, hull, nonexposed = surface.hull_stage
    normals = []
    for name, pole in (("north", north), ("south", south)):
        u = None if pole in nonexposed else _vertex_support_normal(pts, hull, pole, tol)
        if u is None:
            raise GeometryError(f"{name} pole (vertex {pole}) is not an exposed point")
        normals.append(u)
    u_n, u_s = normals

    # The plane functionals F = u_n.(x - N) and G = u_s.(x - S) are zero on
    # the support planes and negative elsewhere on the configuration, so
    # w = -(F + G) > 0 there.  The projective map
    # x -> ((x - S).v1, (x - S).v2, -G) / w sends the southern support plane
    # to z=0, the northern one to z=1, S to the origin and N to (0,0,1).
    v1, v2 = axis_frame(unit(points[north] - points[south]))
    rel = points - points[south]
    g = rel @ u_s
    w = -((points - points[north]) @ u_n + g)
    new_points = np.stack([rel @ v1, rel @ v2, -g], axis=1) / w[:, None]
    # exact pinning of the poles against roundoff
    new_points[south] = 0.0
    new_points[north] = np.array([0.0, 0.0, 1.0])
    if not pole_frame_ok(new_points, north, south, tol):
        raise InvariantError("pole normalization failed its own support-plane check")
    return new_points
