"""Test fixtures and oracles: routines that only the tests call.

Nothing in the library, the CLI or the benchmark calls these, so they are
not part of the package (`test_exports.py` checks that every export has a
program caller).  Tests import them with `from oracles import ...`: pytest
puts this directory on the import path.
"""

from dataclasses import dataclass

import numpy as np

from rigidity3d.frameworks import EdgeKind, Framework, FrameworkError, _edge_vectors
from rigidity3d.generators import GenerationError
from rigidity3d.geometry import (
    DEFAULT_TOL,
    TETRA_EDGE_ORDER,
    GeometryError,
    InvariantError,
    ProjectiveMap,
    Tolerances,
    transform_points,
)
from rigidity3d.hessian import DecompositionError, tetra_angles_and_jacobian
from rigidity3d.suspensions import build_suspension, lambda_scalar

# draws random_projective_map makes before it raises GenerationError
PROJECTIVE_TRIES = 50

EDGE_PROBABILITY = 0.55
PROJECTIVE_STRENGTH = 0.15


# ---------------------------------------------------------------------------
# random frameworks and projective maps
# ---------------------------------------------------------------------------


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
