"""Randomized instance factories.

Everything in the library and the CLI that needs "a random convex hull",
"a random suspension with a reflex lateral edge" or "a dented hull coned
from a reflex edge" gets it from here, so the sampling conventions (and
their seeds) live in one place.  Fixtures only the tests use, such as the
suspension tuned until its axis invariant vanishes, live in the tests.
"""

import numpy as np

from .cauchy import CauchyError, dent
from .geometry import (
    DEFAULT_TOL,
    GeometryError,
    PolyhedralSurface,
    Tolerances,
    dihedral_angles,
    is_weakly_convex,
)
from .hessian import DecompositionError, decompose_star, lambda_matrix
from .shapes import hull_faces
from .suspensions import (
    SuspensionError,
    axis_decomposition,
    build_suspension,
    is_ns_decomposable,
    reflex_lateral_edges,
)

# adjacent hull facets closer than this to coplanar get the sample rejected
FLAT_EDGE_MARGIN = 1e-3

# draws each sampler makes before it raises GenerationError
HULL_TRIES = 60
AZIMUTH_TRIES = 100
# twenty draws per halving of the radius spread, ten halvings in all
POLYGON_TRIES = 200
CONVEX_SUSPENSION_TRIES = 40
STAR_SUSPENSION_TRIES = 120
RANDOM_SUSPENSION_TRIES = 60
DENTED_HULL_TRIES = 20


class GenerationError(Exception):
    pass


# ---------------------------------------------------------------------------
# convex hulls
# ---------------------------------------------------------------------------


def random_convex_hull_surface(rng, n, tol: Tolerances = DEFAULT_TOL):
    """Boundary surface of the convex hull of n random points on the unit
    sphere.  Samples are rejected until every point is a hull vertex and
    no two adjacent facets are within FLAT_EDGE_MARGIN of coplanar, so the
    result is strongly strictly convex with a simplicial face lattice."""
    if n < 4:
        raise GenerationError("need at least 4 points for a hull surface")
    from scipy.spatial import ConvexHull  # deferred: only hull callers pay its import

    for _ in range(HULL_TRIES):
        x = rng.normal(size=(n, 3))
        norms = np.linalg.norm(x, axis=1)
        if norms.min() < 1e-9:
            continue
        pts = x / norms[:, None]
        hull = ConvexHull(pts)
        if len(hull.vertices) != n:
            continue
        try:
            surface = PolyhedralSurface(pts, hull_faces(pts, hull.simplices), tol)
        except GeometryError:
            continue
        if not (dihedral_angles(surface, tol) < np.pi - FLAT_EDGE_MARGIN).all():
            continue
        return surface
    raise GenerationError(
        f"no usable hull of {n} sphere points in {HULL_TRIES} attempts"
    )


# ---------------------------------------------------------------------------
# suspension profiles
# ---------------------------------------------------------------------------


def _azimuths(rng, n):
    """n sorted azimuths with every cyclic gap inside (floor, pi - 0.05).

    The smallest drawn gap is about 0.6 / n, so the floor is
    min(0.05, 0.61 / n): 0.05 up to n = 12, scaled down past it."""
    floor = min(0.05, 0.61 / n)
    for _ in range(AZIMUTH_TRIES):
        gaps = rng.uniform(0.15, 2.9, n)
        gaps *= 2.0 * np.pi / gaps.sum()
        if gaps.max() < np.pi - 0.05 and gaps.min() > floor:
            return np.concatenate([[0.0], np.cumsum(gaps)[:-1]])
    raise GenerationError(
        f"could not draw {n} azimuth gaps inside ({floor:.3g}, pi - 0.05) in {AZIMUTH_TRIES} tries"
    )


def _polygon_scale(n):
    """min(1, (12 / n)**3): the factor on random_convex_polygon's turn floor
    and radius spread and on convex_suspension's first out-of-plane jitter,
    so every draw with n <= 12 is unchanged.  At fixed values no polygon
    passed at n = 80, and the jitter broke the hull faces at n = 200, where
    the planar equator's flattest edge still clears FLAT_EDGE_MARGIN
    (deficit 0.004)."""
    return min(1.0, (12 / n) ** 3)


def random_convex_polygon(rng, n):
    """Radii and azimuths of a convex n-gon winding once around the
    origin (so the origin is strictly interior)."""
    scale = _polygon_scale(n)
    for attempt in range(POLYGON_TRIES):
        az = _azimuths(rng, n)
        spread = 0.3 * 0.5 ** (attempt // 20) * scale  # tighten until convex
        radii = rng.uniform(1.0 - spread, 1.0 + spread, n)
        u = np.stack([radii * np.cos(az), radii * np.sin(az)], axis=1)
        edges = np.roll(u, -1, axis=0) - u
        nxt = np.roll(edges, -1, axis=0)
        cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        if cross.min() > 1e-6 * scale:
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
        jitter = rng.uniform(-0.1, 0.1, n) * _polygon_scale(n)
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


def star_suspension(rng, n, require_reflex=False, tol: Tolerances = DEFAULT_TOL):
    """Axis-decomposable, weakly strictly convex suspension whose equator
    sits on a cylinder around the axis (so every vertex is exposed) with
    random heights.  With require_reflex, resamples until at least one
    lateral edge is reflex, which needs n >= 4."""
    if require_reflex and n < 4:
        raise GenerationError(
            f"no reflex lateral edge at n={n}: a degree-3 pole's link is a "
            "spherical triangle, so no lateral edge there is reflex"
        )
    for _ in range(STAR_SUSPENSION_TRIES):
        az = _azimuths(rng, n)
        radius = rng.uniform(0.6, 1.4)
        z = rng.uniform(-0.55, 0.55, n)
        eq = np.stack([radius * np.cos(az), radius * np.sin(az), z], axis=1)
        h = rng.uniform(1.0, 1.6)
        try:
            s = build_suspension((0.0, 0.0, h), (0.0, 0.0, -h), eq, tol)
        except (SuspensionError, GeometryError):
            continue
        if not is_ns_decomposable(s, tol):
            continue
        if require_reflex and not reflex_lateral_edges(s, tol):
            continue
        return s
    raise GenerationError("no suitable cylinder suspension found")


def random_suspension(rng, n, tol: Tolerances = DEFAULT_TOL):
    """Unconstrained suspension: random radii and heights, and with
    probability ~0.3 a shuffled azimuth order (so the equator may be
    knotted around the axis and fail decomposability)."""
    for _ in range(RANDOM_SUSPENSION_TRIES):
        az = _azimuths(rng, n)
        if rng.uniform() < 0.3:
            az = az[rng.permutation(n)]
        radii = rng.uniform(0.3, 1.5, n)
        z = rng.uniform(-0.6, 0.6, n)
        eq = np.stack([radii * np.cos(az), radii * np.sin(az), z], axis=1)
        h = rng.uniform(0.9, 1.5)
        try:
            return build_suspension((0.0, 0.0, h), (0.0, 0.0, -h), eq, tol)
        except (SuspensionError, GeometryError):
            continue
    raise GenerationError("no valid random suspension found")


SUSPENSION_PROFILES = ("convex", "star", "random")


def suspension_profile(profile, rng, n, tol: Tolerances = DEFAULT_TOL):
    if n < 3:
        raise GenerationError(f"a suspension needs at least 3 equator vertices, got n={n}")
    if profile == "convex":
        return convex_suspension(rng, n, tol)
    if profile == "star":
        return star_suspension(rng, n, require_reflex=True, tol=tol)
    if profile == "random":
        return random_suspension(rng, n, tol)
    raise GenerationError(
        f"unknown profile {profile!r}; choose from {SUSPENSION_PROFILES}"
    )


# ---------------------------------------------------------------------------
# decomposition sampling for the spectrum probe
# ---------------------------------------------------------------------------


def dented_hull_star(rng, n, tol: Tolerances = DEFAULT_TOL):
    """Dent a random hull at one edge and cone it from an end of the new
    reflex edge (from which the dented solid is star-shaped).

    Decompositions with a tetrahedron too flat for the analytic angle
    Jacobian are rejected and the hull redrawn, so the result always
    supports lambda_matrix."""
    for _ in range(DENTED_HULL_TRIES):
        surface = random_convex_hull_surface(rng, n, tol)
        edges = list(surface.edges)
        for k in rng.permutation(len(edges)):
            try:
                dented = dent(surface, edges[k], tol)
            except CauchyError:
                continue
            for apex in dented.new_edge:
                try:
                    d = decompose_star(dented.surface, apex, tol)
                    lambda_matrix(d, tol=tol)
                except DecompositionError:
                    continue
                return d
    raise GenerationError("no star decomposition of a dented hull found")


def probe_decomposition(kind, rng, tol: Tolerances = DEFAULT_TOL):
    """One decomposition instance for the positive-definiteness probe."""
    if kind == "dented_hull_star":
        return dented_hull_star(rng, int(rng.integers(8, 15)), tol)
    if kind == "suspension_axis":
        s = star_suspension(rng, int(rng.integers(3, 9)), tol=tol)
        return axis_decomposition(s, tol)
    if kind == "control_nonconvex":
        # pull one cylinder vertex far inside the hull: still decomposable,
        # no longer weakly convex
        for _ in range(40):
            n = int(rng.integers(4, 9))
            az = _azimuths(rng, n)
            radii = np.full(n, rng.uniform(0.9, 1.3))
            notch = int(rng.integers(n))
            radii[notch] *= rng.uniform(0.2, 0.35)
            z = rng.uniform(-0.4, 0.4, n)
            z[notch] = 0.5 * (z[(notch - 1) % n] + z[(notch + 1) % n])
            eq = np.stack([radii * np.cos(az), radii * np.sin(az), z], axis=1)
            s = build_suspension((0.0, 0.0, 1.3), (0.0, 0.0, -1.3), eq, tol)
            if not is_weakly_convex(s.surface):
                return axis_decomposition(s, tol)
        raise GenerationError("control instance stayed weakly convex")
    raise GenerationError(f"unknown probe kind {kind!r}")
