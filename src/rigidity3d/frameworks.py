"""Rigidity matrix, flex spaces, equilibrium stresses, tensegrity checks.

The rigidity matrix R of a framework has one row per edge {i, j}: the
block of columns for vertex i holds p_i - p_j, the block for j holds
p_j - p_i.  For a velocity field m (flattened), (R m) at row {i, j} is
(p_i - p_j) . (m_i - m_j): zero on bars, <= 0 on cables, >= 0 on struts
for a tensegrity flex.  Infinitesimal flexes span the null space of R;
equilibrium stresses span its left null space.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .geometry import DEFAULT_TOL, Tolerances, _cross, as_points, diameter


class FrameworkError(Exception):
    """Invalid framework input or violated operation precondition."""


class EdgeKind(Enum):
    BAR = "bar"
    CABLE = "cable"
    STRUT = "strut"


@dataclass(eq=False)
class Framework:
    """Tensegrity framework: points plus edges labeled bar/cable/strut.

    Edges may be given as (i, j) pairs (labeled bars) or (i, j, kind)
    triples; they are stored with i < j, in the given order.  `tol` sets
    the near-zero edge-length floor checked here.  Equality is identity.
    """

    vertices: np.ndarray
    edges: tuple

    def __init__(self, vertices, edges, tol: Tolerances = DEFAULT_TOL):
        vertices = as_points(vertices)
        if not np.all(np.isfinite(vertices)):
            raise FrameworkError("non-finite vertex coordinates")
        n = len(vertices)
        norm_edges = []
        seen = set()
        for item in edges:
            if len(item) == 2:
                i, j = item
                kind = EdgeKind.BAR
            else:
                i, j, kind = item
                kind = EdgeKind(kind)
            i, j = int(i), int(j)
            if i == j:
                raise FrameworkError(f"edge ({i}, {j}) is a loop")
            if not (0 <= i < n and 0 <= j < n):
                raise FrameworkError(f"edge ({i}, {j}) out of range for {n} vertices")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise FrameworkError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            norm_edges.append((i, j, kind))

        if norm_edges:
            pairs = _index_pairs(norm_edges)
            lengths = np.linalg.norm(vertices[pairs[:, 0]] - vertices[pairs[:, 1]], axis=1)
            short = np.flatnonzero(lengths < tol.geom_tol * diameter(vertices))
            if short.size:
                i, j, _ = norm_edges[short[0]]
                raise FrameworkError(f"edge ({i}, {j}) has (near-)zero length")

        vertices.flags.writeable = False
        self.vertices = vertices
        self.edges = tuple(norm_edges)

    @classmethod
    def from_surface(cls, surface, tol: Tolerances = DEFAULT_TOL):
        """Bar framework on the edge skeleton of a surface."""
        return cls(surface.vertices, surface.edges, tol=tol)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def edge_pairs(self):
        return tuple((i, j) for i, j, _ in self.edges)

    @cached_property
    def svd(self):
        """Read-only full SVD (u, s, vt) of the rigidity matrix.

        Full matrices, because the rows of vt past the rank span the flex
        space even when E < 3n, and the columns of u past the rank span
        the stress space even when E > 3n.  It does not depend on any
        tolerance: each view applies its caller's rank cutoff.
        """
        factors = tuple(np.linalg.svd(rigidity_matrix(self)))
        for array in factors:
            array.flags.writeable = False
        return factors

    @cached_property
    def singular_values(self):
        """Read-only singular values of the rigidity matrix, descending.

        The `s` of `svd` when that is already cached; otherwise a
        values-only SVD, which skips forming the E x E and 3n x 3n factors
        that only a basis needs.  Every dense rank of this framework is
        read from here; `rigidity_rank` skips it only where its sparse
        certificate proves full rank.
        """
        if "svd" in self.__dict__:
            return self.svd[1]
        values = np.linalg.svd(rigidity_matrix(self), compute_uv=False)
        values.flags.writeable = False
        return values


@dataclass(frozen=True)
class Motion:
    """Velocity field: one 3-vector per vertex."""

    velocities: np.ndarray

    def __post_init__(self):
        v = np.array(self.velocities, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3:
            raise FrameworkError(f"velocities must be (n, 3), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise FrameworkError("non-finite velocities")
        v.flags.writeable = False
        object.__setattr__(self, "velocities", v)

    @property
    def flat(self):
        return self.velocities.ravel()

    @classmethod
    def from_flat(cls, vec):
        return cls(np.asarray(vec, dtype=float).reshape(-1, 3))


@dataclass(frozen=True)
class Stress:
    """Self-stress candidate: scalar omega per edge, keyed by (i, j), i<j."""

    omega: dict

    def __post_init__(self):
        clean = {}
        for pair, w in self.omega.items():
            i, j = sorted(int(x) for x in pair)
            clean[(i, j)] = float(w)
        object.__setattr__(self, "omega", clean)

    def as_vector(self, fw):
        if set(self.omega) != set(fw.edge_pairs):
            raise FrameworkError("stress is not keyed exactly by the framework's edge set")
        return np.array([self.omega[pair] for pair in fw.edge_pairs])

    @classmethod
    def from_vector(cls, fw, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (fw.n_edges,):
            raise FrameworkError(f"stress vector must have {fw.n_edges} entries")
        return cls(dict(zip(fw.edge_pairs, vec)))

    def __getitem__(self, pair):
        i, j = sorted(int(x) for x in pair)
        return self.omega[(i, j)]


@dataclass(frozen=True)
class FlexSpace:
    """Orthonormal basis of the infinitesimal flex space of a bar framework."""

    basis: tuple
    dimension: int
    trivial_dimension: int

    def __post_init__(self):
        if self.trivial_dimension > self.dimension:
            raise FrameworkError("trivial_dimension exceeds dimension")
        if self.basis:
            mat = np.array([m.flat for m in self.basis])
            gram = mat @ mat.T
            if np.abs(gram - np.eye(len(mat))).max() > 1e-10:
                raise FrameworkError("flex basis is not orthonormal")


# ---------------------------------------------------------------------------
# core linear algebra
# ---------------------------------------------------------------------------


def _index_pairs(edges):
    """(E, 2) integer array of the (i, j) of each edge, in order."""
    return np.array([(i, j) for i, j, _ in edges], dtype=np.intp).reshape(-1, 2)


def _edge_vectors(fw, *motions):
    """The (E, 2) edge pairs, the rows p_i - p_j, then m_i - m_j per (n, 3) array m."""
    pairs = _index_pairs(fw.edges)
    return (pairs, *(x[pairs[:, 0]] - x[pairs[:, 1]] for x in (fw.vertices, *motions)))


def rigidity_matrix(fw):
    """The (edge count) x (3 * vertex count) rigidity matrix."""
    pairs, d = _edge_vectors(fw)
    rows = np.arange(fw.n_edges)
    r = np.zeros((fw.n_edges, fw.n_vertices, 3))
    r[rows, pairs[:, 0]] = d
    r[rows, pairs[:, 1]] = -d
    return r.reshape(fw.n_edges, 3 * fw.n_vertices)


# A closed triangulated sphere (E = 3n - 6) with at least SPARSE_MIN_VERTICES
# vertices first tries _certifies_full_rank, one sparse LU in place of an
# O(n^3) dense SVD.  On random sphere hulls the LU wins from about 45
# vertices (2.4 vs 3.9 ms at 60, 3.2 vs 13 ms at 100, 13 ms vs 6.2 s at 800;
# one BLAS thread on a 2-core x86 VM); below 60 it saves under a millisecond,
# less than a certificate that fails adds in front of the dense SVD.  The
# guard G and the m inverse-iteration steps fix Dixon's bound quoted there;
# six steps let the guard be as low as 32 at that bound, so random sphere
# hulls (sigma_min / sigma_max near 1e-3) are certified at rank_tol 1e-6 too.
SPARSE_MIN_VERTICES = 60
_CERTIFICATE_GUARD = 32
_INVERSE_STEPS = 6


def rigidity_rank(fw, tol: Tolerances = DEFAULT_TOL):
    """Numerical rank of the rigidity matrix under `tol`'s rank rule.

    A framework with at least SPARSE_MIN_VERTICES vertices, E = 3n - 6
    edges and no cached singular values is answered "rank E" when one
    sparse LU certifies it (_certifies_full_rank); every other framework,
    and every one the certificate does not reach, counts its dense
    singular values (Framework.singular_values).
    """
    if (
        fw.n_vertices >= SPARSE_MIN_VERTICES
        and fw.n_edges == 3 * fw.n_vertices - 6
        and "svd" not in fw.__dict__
        and "singular_values" not in fw.__dict__
        and _certifies_full_rank(fw, tol)
    ):
        return fw.n_edges
    return tol.numerical_rank(fw.singular_values)


def _certifies_full_rank(fw, tol):
    """True when the rigidity matrix R of an E = 3n - 6 framework provably
    has every singular value above tol.rank_tol times the largest, that is,
    full row rank under the dense rule; False when it cannot tell.

    R is bordered by the six raw trivial generators (translations, and
    rotations about the centroid), each scaled to the norm
    ub = sqrt(|R|_1 |R|_inf) >= sigma_max(R).  R kills every generator, so
    the square border B has the singular values of R and of the generator
    block, and sigma_min(B) <= sigma_min(R); a configuration that does not
    span 3-space makes B singular.  m = _INVERSE_STEPS steps of inverse
    iteration on B^T B from a fixed-seed Gaussian start overestimate
    sigma_min(B), and by Dixon (SIAM J. Numer. Anal. 20, 1983) the estimate
    exceeds G = _CERTIFICATE_GUARD times sigma_min(B) with probability at
    most 0.8 G^(-2m) sqrt(3n), about 3.4e-17 at n = 800.  So an estimate
    above G * rank_tol * ub certifies rank E.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import splu

    n, e = fw.n_vertices, fw.n_edges
    pairs, d = _edge_vectors(fw)
    values = np.concatenate([d, -d], axis=1)  # row k: d at vertex i, -d at vertex j
    columns = (3 * pairs[:, :, None] + np.arange(3)).reshape(e, 6)
    magnitudes = np.abs(values)
    column_sums = np.bincount(columns.ravel(), magnitudes.ravel(), minlength=3 * n)
    ub = np.sqrt(column_sums.max() * magnitudes.sum(axis=1).max())

    gens = _motion_generators(fw.vertices - fw.vertices.mean(axis=0))
    norms = np.linalg.norm(gens, axis=1)  # a rotation is 0 when the points lie on its axis
    gens *= np.divide(ub, norms, out=np.zeros(6), where=norms > 0)[:, None]

    rows = np.concatenate([np.repeat(np.arange(e), 6), np.repeat(np.arange(e, e + 6), 3 * n)])
    columns = np.concatenate([columns.ravel(), np.tile(np.arange(3 * n), 6)])
    border = csr_matrix(
        (np.concatenate([values.ravel(), gens.ravel()]), (rows, columns)), shape=(3 * n, 3 * n)
    )
    border.eliminate_zeros()
    # factor B^T, whose CSC arrays are B's CSR arrays: the column ordering
    # then sees the six generator rows as dense columns and puts them last
    # (factoring B itself filled its LU 35-fold at n = 200, against 5-fold)
    try:
        lu = splu(border.T)
    except RuntimeError:  # an exactly singular factor
        return False

    x = np.random.default_rng(0).standard_normal(3 * n)
    x /= np.linalg.norm(x)
    log_growth = 0.0
    for _ in range(_INVERSE_STEPS):
        x = lu.solve(lu.solve(x), trans="T")
        size = np.linalg.norm(x)
        log_growth += np.log(size)
        x /= size
    estimate = np.exp(-log_growth / (2 * _INVERSE_STEPS))
    return estimate > _CERTIFICATE_GUARD * tol.rank_tol * ub


def _sign_fix(vec):
    """Flip sign so the entry of largest magnitude is positive."""
    pivot = vec[np.abs(vec).argmax()]
    return -vec if pivot < 0 else vec


def _affine_rank(points, tol):
    """Numerical rank of the centred configuration (3 when it spans 3-space)."""
    return tol.numerical_rank(np.linalg.svd(points - points.mean(axis=0), compute_uv=False))


def trivial_dimension(fw, tol: Tolerances = DEFAULT_TOL):
    """Dimension of the restrictions of ambient infinitesimal isometries: the
    3 translations plus the rotations that move some point, so 3, 5, 6 or 6
    for affine rank 0, 1, 2 or 3 (0 with no vertices)."""
    return (3, 5, 6, 6)[_affine_rank(fw.vertices, tol)] if fw.n_vertices else 0


def _motion_generators(points):
    """The (6, 3n) raw trivial motions of `points`: rows 0-2 translate along
    e_k, rows 3-5 rotate about e_k through the origin (e_k x p)."""
    axes = np.eye(3)[:, None, :]
    gens = np.empty((6, len(points), 3))
    gens[:3] = axes
    gens[3:] = _cross(axes, points)
    return gens.reshape(6, -1)


def trivial_motion_basis(fw, tol: Tolerances = DEFAULT_TOL, dimension=None):
    """Orthonormal basis of the restrictions of ambient infinitesimal
    isometries (3 translations + 3 rotations), as rows of shape (k, 3n);
    `dimension` passes k when the caller has counted it (trivial_dimension)."""
    # the rotations keep the cross product's signed zeros, which the SVD
    # below can see
    vt = np.linalg.svd(_motion_generators(fw.vertices), full_matrices=False)[2]
    return vt[: trivial_dimension(fw, tol) if dimension is None else dimension]


def _flex_rows(fw, tol):
    """Orthonormal rows spanning the null space of the rigidity matrix."""
    vt = fw.svd[2]  # before the rank, which then reuses this factorization
    return vt[rigidity_rank(fw, tol) :]


def bar_flex_space(fw, tol: Tolerances = DEFAULT_TOL):
    """Null space of the rigidity matrix (every edge treated as a bar)."""
    basis = _flex_rows(fw, tol)
    motions = tuple(Motion.from_flat(_sign_fix(row)) for row in basis)
    return FlexSpace(motions, len(basis), trivial_dimension(fw, tol))


def is_infinitesimally_rigid(fw, tol: Tolerances = DEFAULT_TOL):
    """True iff the only infinitesimal flexes are the trivial ones: rank 3n - 6.

    Requires a configuration that affinely spans 3-space; degenerate
    (planar/collinear) configurations raise, since their rigidity theory
    is lower-dimensional and out of scope here.
    """
    if fw.n_vertices < 3:
        raise FrameworkError("need at least 3 vertices")
    if _affine_rank(fw.vertices, tol) < 3:
        raise FrameworkError(
            "configuration does not span 3-space; lower-dimensional rigidity "
            "analysis is out of scope"
        )
    return rigidity_rank(fw, tol) == 3 * fw.n_vertices - 6


def nontrivial_flex(fw, tol: Tolerances = DEFAULT_TOL):
    """A unit flex orthogonal to all trivial motions, or None if the
    framework is infinitesimally rigid."""
    flexes = _flex_rows(fw, tol)
    k = trivial_dimension(fw, tol)
    if len(flexes) == k:
        return None
    trivial = trivial_motion_basis(fw, tol, dimension=k)
    residual = flexes - (flexes @ trivial.T) @ trivial
    norms = np.linalg.norm(residual, axis=1)
    best = residual[norms.argmax()]
    return Motion.from_flat(_sign_fix(best / np.linalg.norm(best)))


# ---------------------------------------------------------------------------
# equilibrium stresses
# ---------------------------------------------------------------------------


def equilibrium_stress_space(fw, tol: Tolerances = DEFAULT_TOL):
    """Orthonormal basis of the space of equilibrium stresses (left null
    space of the rigidity matrix), sign-fixed so each basis vector's
    largest-magnitude entry is positive.  Empty list if only zero."""
    u = fw.svd[0]  # before the rank, which then reuses this factorization
    basis = u[:, rigidity_rank(fw, tol) :].T
    return [Stress.from_vector(fw, _sign_fix(row)) for row in basis]


def equilibrium_residual(fw, stress):
    """Largest vertex residual |sum_j omega_ij (p_i - p_j)| of a stress."""
    pairs, d = _edge_vectors(fw)
    load = np.zeros_like(fw.vertices)  # R^T omega, scattered over the edges
    np.add.at(load, pairs, stress.as_vector(fw)[:, None, None] * np.stack([d, -d], axis=1))
    return float(np.linalg.norm(load, axis=1).max())


def is_proper(fw, stress, slack=1e-12):
    """Sign conditions for a proper stress: omega >= 0 on cables,
    omega <= 0 on struts, unrestricted on bars."""
    return not any((kind is EdgeKind.CABLE and w < -slack)
                   or (kind is EdgeKind.STRUT and w > slack)
                   for (*_, kind), w in zip(fw.edges, stress.as_vector(fw).tolist()))
