"""Suspension frameworks: a cyclic equator joined to two poles.

The pole axis is the single interior edge of the natural decomposition of
a suspension into tetrahedra, so first-order rigidity reduces to one
scalar: the derivative of the total dihedral angle around the axis with
respect to the axis length.  This module builds suspensions, decides
axis-decomposability, labels the associated tensegrity, constructs proper
equilibrium stresses by induction on the equator size, and evaluates the
scalar invariant in two independent closed forms.

Vertex layout is shared with :mod:`rigidity3d.shapes`: north pole at
index 0, south pole at index 1, equator at 2..n+1 in cyclic order.
"""

import logging
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .frameworks import (
    EdgeKind,
    Framework,
    FrameworkError,
    Stress,
    equilibrium_residual,
    equilibrium_stress_space,
    is_infinitesimally_rigid,
    is_proper,
)
from .geometry import (
    DEFAULT_TOL,
    GeometryError,
    InvariantError,
    PolyhedralSurface,
    Tolerances,
    _cross,
    _dihedral_kernel,
    _reflex_rule,
    as_points,
    axis_frame,
    diameter,
    edge_flags,
    is_weakly_convex,
    normalize_pole_frame,
)
from .hessian import Decomposition
from .shapes import NORTH, SOUTH, bipyramid_faces

logger = logging.getLogger(__name__)

NS_EDGE = (NORTH, SOUTH)

# relative tolerance for the agreement of the two closed forms of the
# axis invariant
FORM_AGREEMENT_TOL = 1e-9


class SuspensionError(Exception):
    pass


class Suspension:
    """A suspension surface in the shared vertex layout.

    Stores the (n+2, 3) vertex array [north, south, equator...] together
    with the derived closed triangulated surface (two triangles per
    equator edge, one through each pole).
    """

    vertices: np.ndarray
    surface: PolyhedralSurface

    def __init__(self, vertices, tol: Tolerances = DEFAULT_TOL):
        vertices = as_points(vertices)
        if len(vertices) < 5:
            raise SuspensionError(
                f"a suspension needs at least 3 equator vertices, got {len(vertices) - 2}"
            )
        surface = PolyhedralSurface(vertices, bipyramid_faces(len(vertices) - 2), tol)
        degenerate = np.flatnonzero(surface.degenerate_faces(tol))
        if degenerate.size:
            a, b, c = surface.faces[degenerate[0]].tolist()
            raise SuspensionError(f"face ({a}, {b}, {c}) is degenerate (zero area)")
        self.vertices = surface.vertices
        self.surface = surface

    @property
    def n(self):
        return len(self.vertices) - 2

    @property
    def north(self):
        return self.vertices[NORTH]

    @property
    def south(self):
        return self.vertices[SOUTH]

    @property
    def equator(self):
        return self.vertices[2:]

    def equator_index(self, slot):
        """Vertex index of the equator slot (cyclic)."""
        return 2 + slot % self.n


def build_suspension(north, south, equator, tol: Tolerances = DEFAULT_TOL):
    """Suspension from pole points and a cyclically ordered equator."""
    equator = as_points(equator)
    return Suspension(np.vstack([north, south, equator]), tol)


# ---------------------------------------------------------------------------
# cylindrical coordinates along the axis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylindricalEquator:
    """Equator in cylindrical coordinates of the unit-axis frame.

    The frame is the similarity image with the south pole at the origin
    and the north pole at (0, 0, 1); r, alpha, z are per equator vertex,
    theta are the signed azimuth increments between consecutive vertices
    (in (-pi, pi]), with the azimuth orientation chosen so the total
    increment is non-negative.  scale is the original axis length.
    """

    r: np.ndarray
    alpha: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    scale: float

    @property
    def n(self):
        return len(self.r)

    def projected(self):
        """Projected equator vertices in the (r, alpha) plane."""
        return np.stack([self.r * np.cos(self.alpha), self.r * np.sin(self.alpha)], axis=1)


def cylindrical_equator(s: Suspension, tol: Tolerances = DEFAULT_TOL):
    axis = s.north - s.south
    scale = float(np.linalg.norm(axis))
    e3 = axis / scale
    v1, v2 = axis_frame(e3)
    q = (s.equator - s.south) / scale
    x, y, z = q @ v1, q @ v2, q @ e3
    r = np.hypot(x, y)
    if np.any(r <= tol.geom_tol):
        k = int(np.argmin(r))
        raise SuspensionError(f"equator vertex {2 + k} lies on the pole axis")
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    theta = np.arctan2(x * yn - y * xn, x * xn + y * yn)
    alpha = np.arctan2(y, x)
    # the increments sum to 2*pi times the winding number: a winding-zero
    # sum is roundoff and keeps the orientation
    if theta.sum() < -np.pi:
        alpha, theta = -alpha, -theta
    return CylindricalEquator(r, alpha, z, theta, scale)


@dataclass(frozen=True)
class NSDecomposability:
    """Verdict, with a reason when negative and the coordinates used."""

    decomposable: bool
    reason: str | None
    cylindrical: CylindricalEquator | None

    def __bool__(self):
        return self.decomposable


def is_ns_decomposable(s: Suspension, tol: Tolerances = DEFAULT_TOL):
    """Whether the tetrahedra [N, S, p_i, p_i+1] tile a neighborhood of
    the open axis: every azimuth increment of the projected equator lies
    strictly in (0, pi) and they sum to one full turn.

    Equivalently the projection of the equator along the axis is a simple
    polygon traversed with strictly increasing azimuth around the
    projected poles, which therefore lie in its interior.
    """
    try:
        cyl = cylindrical_equator(s, tol)
    except SuspensionError as exc:
        return NSDecomposability(False, str(exc), None)
    theta, eps = cyl.theta, tol.geom_tol
    k = int(np.argmin(theta) if theta.min() <= eps else np.argmax(theta))
    reason = _increment_fault(k, cyl.n, theta[k], eps)
    if reason:
        return NSDecomposability(False, reason, cyl)
    total = float(theta.sum())
    if abs(total - 2 * np.pi) > eps * cyl.n:
        winding = total / (2 * np.pi)
        return NSDecomposability(
            False, f"projected equator winds {winding:g} times around the axis", cyl
        )
    slots = np.arange(s.n)
    _check_orientations(s.vertices, s.equator_index(slots), s.equator_index(slots + 1))
    return NSDecomposability(True, None, cyl)


def _check_orientations(p, i, j):
    """InvariantError unless the tetrahedra [N, S, p_i, p_j] share one orientation."""
    positive = np.linalg.det(p[np.column_stack([np.full(len(i), SOUTH), i, j])] - p[NORTH]) > 0
    if positive.any() != positive.all():
        raise InvariantError(
            "internal: azimuth increments are consistent but tetrahedron "
            "orientations are not"
        )


def _increment_fault(k, n, turn, eps):
    """Why the azimuth increment from slot k to (k + 1) % n breaks decomposability, or None."""
    if turn <= eps:
        return (f"projected equator does not advance around the axis between "
                f"slots {k} and {(k + 1) % n} (increment {turn:.3e})")
    if turn >= np.pi - eps:
        return (f"equator vertices at slots {k} and {(k + 1) % n} are "
                f"axis-coplanar or beyond (increment {turn:.6f})")
    return None


# ---------------------------------------------------------------------------
# tensegrity labeling and decomposition
# ---------------------------------------------------------------------------


def tensegrity_labeling(s: Suspension, include_ns=True, tol: Tolerances = DEFAULT_TOL):
    """The suspension's tensegrity: equator edges (and optionally the
    axis) as cables, lateral edges as bars."""
    ring = list(range(2, s.n + 2))
    edges = [(i, j, EdgeKind.CABLE) for i, j in zip(ring, ring[1:] + ring[:1])]
    edges += [(pole, i, EdgeKind.BAR) for i in ring for pole in (NORTH, SOUTH)]
    if include_ns:
        edges.append((NORTH, SOUTH, EdgeKind.CABLE))
    return Framework(s.vertices, edges, tol=tol)


def axis_decomposition(s: Suspension, tol: Tolerances = DEFAULT_TOL):
    """Decomposition into the tetrahedra [N, S, p_i, p_i+1], with the
    axis as the single interior edge."""
    ns = is_ns_decomposable(s, tol)
    if not ns:
        raise SuspensionError(f"not axis-decomposable: {ns.reason}")
    tets = [
        (NORTH, SOUTH, s.equator_index(k), s.equator_index(k + 1)) for k in range(s.n)
    ]
    return Decomposition(s.vertices, tets, surface=s.surface, tol=tol)


# ---------------------------------------------------------------------------
# the axis invariant, in both closed forms
# ---------------------------------------------------------------------------


def theta_prime(z1, r1, z2, r2, theta):
    """First-order variation of the dihedral angle at the axis edge of the
    tetrahedron [N, S, p1, p2] when the axis length grows at unit speed
    and the other five edge lengths stay fixed.

    Coordinates are in the unit-axis frame: S at the origin, N at
    (0, 0, 1), p_k at distance r_k from the axis, height z_k, and theta
    the azimuth angle between p1 and p2.  Arrays give one simplex per
    entry; the error then names the first bad one as "simplex {i}: ...".
    """
    bad_r, sin_t = np.broadcast_arrays(np.minimum(r1, r2) <= 0.0, np.sin(theta))
    bad = np.flatnonzero(bad_r | (np.abs(sin_t) < 1e-12))
    if bad.size:
        i = int(bad[0])
        why = ("radii must be positive" if bad_r.flat[i]
               else f"degenerate simplex: sin(theta) = {sin_t.flat[i]:.3e}")
        raise SuspensionError(f"simplex {i}: {why}" if sin_t.ndim else why)
    cos_t = np.cos(theta)
    return (
        (z1 - z2) ** 2
        + z1 * (1.0 - z1) * (1.0 - (r2 / r1) * cos_t)
        + z2 * (1.0 - z2) * (1.0 - (r1 / r2) * cos_t)
    ) / (r1 * r2 * sin_t)


@dataclass(frozen=True)
class LambdaBreakdown:
    """The axis invariant with its per-simplex and per-vertex pieces.

    simplex_terms[i] is the angle-variation of the tetrahedron over
    equator edge (i, i+1).  The projected-polygon form uses a[i] = twice
    the area of (0, u_i, u_i+1) and b[i] = twice the oriented area of
    (u_i-1, u_i, u_i+1), where u are the projected equator vertices:
    height_terms[i] = (z_i+1 - z_i)^2 / a_i and vertex_terms[i] =
    z_i (1 - z_i) b_i / (a_i-1 a_i).  Values refer to the unit-axis
    similarity frame; scale is the original axis length.
    """

    simplex_terms: np.ndarray
    a: np.ndarray
    b: np.ndarray
    height_terms: np.ndarray
    vertex_terms: np.ndarray
    theta: np.ndarray
    scale: float

    @property
    def total_simplex(self):
        return float(self.simplex_terms.sum())

    @property
    def total_projected(self):
        return float(self.height_terms.sum() + self.vertex_terms.sum())

    @property
    def total(self):
        return self.total_simplex


def lambda_scalar(s: Suspension, tol: Tolerances = DEFAULT_TOL):
    """The axis invariant of an axis-decomposable suspension, computed as
    the simplex-term sum and independently from the projected equator;
    the two forms must agree to within FORM_AGREEMENT_TOL (relative)."""
    ns = is_ns_decomposable(s, tol)
    if not ns:
        raise SuspensionError(f"not axis-decomposable: {ns.reason}")
    cyl = ns.cylindrical
    r, z, theta = cyl.r, cyl.z, cyl.theta
    simplex_terms = theta_prime(z, r, np.roll(z, -1), np.roll(r, -1), theta)

    u = cyl.projected()
    un = np.roll(u, -1, axis=0)
    a = u[:, 0] * un[:, 1] - u[:, 1] * un[:, 0]
    fwd = un - u
    back = np.roll(fwd, 1, axis=0)
    b = back[:, 0] * fwd[:, 1] - back[:, 1] * fwd[:, 0]
    height_terms = (np.roll(z, -1) - z) ** 2 / a
    vertex_terms = z * (1.0 - z) * b / (np.roll(a, 1) * a)

    breakdown = LambdaBreakdown(simplex_terms, a, b, height_terms, vertex_terms,
                                theta, cyl.scale)
    t1, t2 = breakdown.total_simplex, breakdown.total_projected
    if abs(t1 - t2) > FORM_AGREEMENT_TOL * max(1.0, abs(t1)):
        raise InvariantError(
            f"internal: the two closed forms disagree ({t1!r} vs {t2!r})"
        )
    return breakdown


# ---------------------------------------------------------------------------
# proper equilibrium stresses by induction on the equator
# ---------------------------------------------------------------------------


def _oriented_direct_stress(s, tol):
    """Unique-up-to-scale equilibrium stress of the full tensegrity,
    oriented so the dominant cable entry is positive."""
    fw = tensegrity_labeling(s, include_ns=True, tol=tol)
    basis = equilibrium_stress_space(fw, tol)
    if len(basis) != 1:
        raise SuspensionError(
            f"stress space of the n={s.n} suspension is {len(basis)}-dimensional, "
            f"expected 1"
        )
    omega = dict(basis[0].omega)
    cables = [(i, j) for i, j, kind in fw.edges if kind is EdgeKind.CABLE]
    lead = max(cables, key=lambda pair: abs(omega[pair]))
    if omega[lead] < 0.0:
        omega = {pair: -w for pair, w in omega.items()}
    return omega


def _star_stresses(vertices, stars, slots, tol):
    """Stress of the complete framework on each five-point star (N, S, p_k-1,
    p_k, p_k+1) in `stars`, k in `slots`, as dicts keyed by vertex pairs:
    omega_ab = alpha_a alpha_b, alpha_a = (-1)^a det([p | 1] without row a)
    the points' affine dependency (Roth-Whiteley 1981, Connelly 1982).  If
    N, p_k-1, p_k, p_k+1 are coplanar, alpha_S = 0: the stress lives on them."""
    p = vertices[stars] - vertices[stars].mean(axis=1, keepdims=True)
    p /= np.linalg.norm(p[:, :, None] - p[:, None], axis=-1).max(axis=(1, 2))[:, None, None]
    lifted = np.concatenate([p, np.ones_like(p[..., :1])], axis=2)  # rows [p_a | 1]
    keep = np.arange(4) + (np.arange(4) >= np.arange(5)[:, None])  # keep[a]: the rows but a
    alpha = np.linalg.det(lifted[:, keep]) * [1, -1, 1, -1, 1]
    flat = np.flatnonzero(np.abs(alpha).max(axis=1) <= tol.rank_tol)
    if flat.size:
        raise SuspensionError(f"five-point star around equator slot {slots[flat[0]]} does "
                              f"not span 3-space, so its stress space is not 1-dimensional")
    a, b = np.triu_indices(5, 1)
    keys = np.sort(np.stack([stars[:, a], stars[:, b]], axis=2), axis=2).tolist()
    omega = (alpha[:, a] * alpha[:, b]).tolist()
    return [dict(zip(map(tuple, pairs), w)) for pairs, w in zip(keys, omega)]


def reflex_lateral_edges(s: Suspension, tol: Tolerances = DEFAULT_TOL):
    """Lateral edges (pole, equator vertex) that edge_flags marks reflex:
    the north pole's first, then the south pole's, each in equator order."""
    flags = edge_flags(s.surface, tol)
    return [(pole, x) for pole in (NORTH, SOUTH) for x in range(2, s.n + 2)
            if flags[(pole, x)] == "reflex"]


def _peel_fault(s, ring, k, turn, tol):
    """(why, reflex) for the suspension left by removing ring[k], as rebuilding
    it would say: why an induction hypothesis fails, or None, from its azimuth
    increment `turn`, tetrahedron and six lateral faces around the neighbours
    a, b of ring[k], then reflex[pole] at (pole, a), (pole, b), the only flags
    that change.  Weak convexity holds: hull vertices of s stay hull vertices."""
    m = len(ring)
    c, a, x, b, d = (ring[(k + o) % m] for o in (-2, -1, 0, 1, 2))
    local = {NORTH: NORTH, SOUTH: SOUTH, a: 2 + (k - 1) % (m - 1), b: 2 + k % (m - 1)}
    faces = np.array([[NORTH, c, a], [NORTH, a, b], [NORTH, b, d],
                      [SOUTH, a, c], [SOUTH, b, a], [SOUTH, d, b]])  # chords at rows 1, 4
    # per edge (N, a), (N, b), (S, a), (S, b): the face holding pole -> v, then the other
    flanks = np.array([[1, 2, 3, 4], [0, 1, 4, 5]])
    if s.surface.faces[0, 0] != NORTH:  # s reversed its faces to point them outward
        faces, flanks = faces[:, ::-1], flanks[::-1]
    p = s.vertices[faces]
    cross = _cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    doubled, floor = np.linalg.norm(cross, axis=1), tol.geom_tol * s.surface.diameter**2
    if doubled.min() <= floor:  # s's diameter bounds the new one
        floor = tol.geom_tol * diameter(s.vertices[[NORTH, SOUTH, *ring[:k], *ring[k + 1:]]])**2
        for face in faces[[1, 4]][doubled[[1, 4]] <= floor].tolist():
            return f"face {tuple(local[v] for v in face)} is degenerate (zero area)", None
    turn = turn - 2 * np.pi if turn > np.pi else turn  # into (-pi, pi], as arctan2 would
    why = _increment_fault(local[a] - 2, m - 1, turn, tol.geom_tol)
    if why:
        return why, None
    _check_orientations(s.vertices, [a, a], [b, x])
    angles = _dihedral_kernel(s.vertices[[NORTH, NORTH, SOUTH, SOUTH]], s.vertices[[a, b, a, b]],
                              *cross[flanks], floor)
    return None, (_reflex_rule(angles, tol) == "reflex").reshape(2, 2)


def _stress_by_induction(s, tol, trace):
    """Stress on the full tensegrity of s, keyed by s's vertex indices: one
    loop peels the first vertex at a reflex lateral edge (north pole first)
    while `_peel_fault` finds none, the rest is solved directly, and the
    peels are replayed in reverse.  The trace numbers vertices as each
    reduced suspension would."""
    ring = list(range(2, s.n + 2))  # remaining equator vertices, in cyclic order
    turn = np.concatenate([[0.0, 0.0], cylindrical_equator(s, tol).theta])  # to the next vertex
    reflex = np.zeros((2, s.n + 2), dtype=bool)  # reflex[pole, x]: lateral edge (pole, x)
    for pole, x in reflex_lateral_edges(s, tol):
        reflex[pole, x] = True
    peels = []
    while True:
        m = len(ring)
        # ring order is vertex order: the next peel is the smallest id flagged
        # at the north pole, else at the south pole, found by scanning the flags
        pole = NORTH if reflex[NORTH].any() else SOUTH
        if m == 3 or not reflex[pole].any():
            trace.append(f"direct solve at n={m}")
            break
        k = bisect_left(ring, int(reflex[pole].argmax()))
        trace.append(f"peel equator vertex {2 + k} (reflex lateral at the "
                     f"{'north' if pole == NORTH else 'south'} pole)")
        a, x, b = ring[k - 1], ring[k], ring[(k + 1) % m]
        why, flags = _peel_fault(s, ring, k, turn[a] + turn[x], tol)
        if why:
            logger.warning("induction hypotheses fail after removing vertex %d (%s); "
                           "falling back to the direct solver", 2 + k, why)
            trace.append(f"fallback to direct solve at n={m}: {why}")
            break
        reflex[:, [a, b]] = flags
        reflex[:, x] = False
        peels.append((NORTH, SOUTH, a, x, b, k, m))
        turn[a] += turn[x]
        del ring[k]

    base = s if len(ring) == s.n else build_suspension(s.north, s.south, s.vertices[ring], tol)
    ids = [NORTH, SOUTH, *ring]
    omega = {tuple(sorted((ids[i], ids[j]))): w
             for (i, j), w in _oriented_direct_stress(base, tol).items()}
    scale = max(map(abs, omega.values()))  # at least max |omega|, kept by each peel
    stars = np.array(peels[::-1], dtype=np.intp).reshape(-1, 7)
    for (_, _, a, x, b, k, m), small in zip(
            stars.tolist(), _star_stresses(s.vertices, stars[:, :5], stars[:, 5], tol)):
        chord = (min(a, b), max(a, b))
        if abs(small[chord]) <= tol.rank_tol * max(map(abs, small.values())):
            local = tuple(sorted((2 + (k - 1) % m, 2 + (k + 1) % m)))
            raise SuspensionError(f"five-point star stress vanishes on the chord {local}; "
                                  f"cannot cancel (trace: {trace})")
        factor = -omega[chord] / small[chord]
        for pair, w in small.items():
            omega[pair] = value = omega.get(pair, 0.0) + factor * w
            scale = max(scale, abs(value))
        leftover = omega.pop(chord)
        if abs(leftover) > 1e-9 * scale:
            raise InvariantError(
                f"chord stress failed to cancel (leftover {leftover:.2e}, trace: {trace})")
    return omega


def inductive_proper_stress(s: Suspension, tol: Tolerances = DEFAULT_TOL):
    """Proper equilibrium stress on the full tensegrity (axis included)
    of an axis-decomposable, weakly strictly convex suspension.

    Built by peeling equator vertices at reflex lateral edges: each peel
    adds the unique stress of the five-point star around the removed
    vertex, in closed form, scaled so the stresses on the chord joining
    its neighbors cancel.  The convex remainder is solved directly, after
    one loop of peels with no depth limit.
    """
    ns = is_ns_decomposable(s, tol)
    if not ns:
        raise SuspensionError(f"hypothesis failed: {ns.reason}")
    if not is_weakly_convex(s.surface):
        raise SuspensionError("hypothesis failed: suspension is not weakly strictly convex")
    return _checked_proper_stress(s, tol)


def _checked_proper_stress(s, tol):
    """Stress on the tensegrity of a suspension whose induction hypotheses
    the caller has checked; equilibrium and properness are verified here."""
    trace = []
    omega = _stress_by_induction(s, tol, trace)
    fw = tensegrity_labeling(s, include_ns=True, tol=tol)
    stress = Stress(omega)
    scale = max(abs(w) for w in omega.values())
    resid = equilibrium_residual(fw, stress)
    if resid > 1e-9 * scale * s.surface.diameter:
        raise InvariantError(f"induction produced a non-equilibrium stress "
                             f"(residual {resid:.2e}); trace: {trace}")
    if not is_proper(fw, stress, slack=1e-12 * scale):
        raise InvariantError(f"induction produced an improper stress; trace: {trace}; "
                             f"stress: {omega}")
    return stress


def suspension_rigidity(s: Suspension, tol: Tolerances = DEFAULT_TOL):
    """Rigidity verdict for the suspension surface (all edges bars, no
    axis edge).

    When the suspension is axis-decomposable and weakly strictly convex,
    the paper's theorem says it is rigid, and the inductive proper stress,
    an equilibrium nonzero on the axis, is the certificate: a flexible
    verdict then raises InvariantError.
    """
    verdict = is_infinitesimally_rigid(Framework.from_surface(s.surface, tol=tol), tol)
    if is_ns_decomposable(s, tol) and is_weakly_convex(s.surface):
        omega = _checked_proper_stress(s, tol).omega
        if abs(omega[NS_EDGE]) <= tol.rank_tol * max(map(abs, omega.values())):
            raise FrameworkError(
                f"precondition violated: stress vanishes on removed edge {NS_EDGE}")
        if not verdict:
            raise InvariantError("internal: the suspension theorem says this weakly convex, "
                                 "axis-decomposable suspension is rigid, but it flexes")
    return verdict


# ---------------------------------------------------------------------------
# certificates and reductions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexProfileReport:
    """Positivity certificate for suspensions whose projected equator is
    a convex polygon with the axis through its interior."""

    in_scope: bool
    reason: str | None
    breakdown: LambdaBreakdown | None
    rigid: bool | None


def convex_profile_certificate(s: Suspension, tol: Tolerances = DEFAULT_TOL):
    """Certify rigidity of a suspension over a convex projected equator
    by elementary positivity.

    Normalizes the poles projectively (support planes orthogonal to the
    axis at both poles), so every equator height lies in (0, 1); then
    every summand of the projected form of the invariant is non-negative
    and the total is positive, forcing rigidity.  Returns an out-of-scope
    report when the hypothesis (or the pole normalization) fails.
    """
    try:
        s_norm = Suspension(normalize_pole_frame(s.vertices, NORTH, SOUTH, tol), tol)
    except GeometryError as exc:
        return ConvexProfileReport(False, f"pole normalization failed: {exc}", None, None)
    ns = is_ns_decomposable(s_norm, tol)
    if not ns:
        return ConvexProfileReport(False, ns.reason, None, None)
    breakdown = lambda_scalar(s_norm, tol)
    if breakdown.b.min() <= tol.geom_tol:
        k = int(np.argmin(breakdown.b))
        return ConvexProfileReport(
            False, f"projected equator is not strictly convex at slot {k}", None, None
        )
    if breakdown.height_terms.min() < -1e-12 or breakdown.vertex_terms.min() < -1e-12:
        raise InvariantError(
            f"positivity violated in scope: height {breakdown.height_terms.min():.3e}, "
            f"vertex {breakdown.vertex_terms.min():.3e}"
        )
    if not breakdown.total > 1e-12:
        raise InvariantError(f"total invariant not positive: {breakdown.total!r}")
    rigid = is_infinitesimally_rigid(Framework.from_surface(s.surface, tol=tol), tol)
    if not rigid:
        raise InvariantError("positive invariant but the rigidity verdict is negative")
    return ConvexProfileReport(True, None, breakdown, rigid)
