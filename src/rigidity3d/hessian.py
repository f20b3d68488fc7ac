"""Interior-edge length coordinates on tetrahedral decompositions.

A polyhedron decomposed into tetrahedra with no extra vertices is
described, up to congruence, by the lengths of its interior edges once
the boundary lengths are fixed.  The cone-angle map sends those interior
lengths to the total dihedral angle collected around each interior edge;
at the embedded lengths every such angle is exactly 2*pi.  The Jacobian
of that map (here: the lambda matrix) is symmetric (it is the Hessian of
the total mean curvature, by the Schlafli formula) and is singular
precisely when the boundary framework has a nontrivial infinitesimal
flex.

All dihedral angles here are computed from edge lengths alone via the
Gram-matrix route, never from an embedding, together with their analytic
partial derivatives with respect to the lengths.
"""

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frameworks import Framework, is_infinitesimally_rigid
from .geometry import (
    DEFAULT_TOL,
    GeometryError,
    InvariantError,
    Tolerances,
    _cross,
    as_points,
    diameter,
    is_weakly_convex,
)

logger = logging.getLogger(__name__)

SYM_TOL = 1e-7
# squared-volume margin (relative to longest-edge^6) below which the
# Jacobian of the angles is refused: derivatives blow up at degeneracy
E_INTERIOR_MARGIN = 1e-10
# index pairs for the canonical length order (d01, d02, d03, d12, d13, d23)
TETRA_EDGE_ORDER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class DecompositionError(Exception):
    """Invalid decomposition or infeasible lengths."""


# ---------------------------------------------------------------------------
# the tetrahedron angle/derivative kernel (pure length arithmetic)
# ---------------------------------------------------------------------------


def _gram_map():
    """_GRAM_MAP[k, g, m]: Gram entry g (M00, M11, M22, M01, M02, M12) of the
    frame (b-a, c-a, d-a) at edge k = (a, b), with c < d the other two
    vertices, as a linear function of the squared lengths m.  Both k and m
    follow TETRA_EDGE_ORDER."""
    out = np.zeros((6, 6, 6))
    for k, (a, b) in enumerate(TETRA_EDGE_ORDER):
        c, d = sorted(set(range(4)) - {a, b})
        for g, (x, y) in enumerate(((b, b), (c, c), (d, d), (b, c), (b, d), (c, d))):
            # M_xy = (x - a).(y - a) = (q_ax + q_ay - q_xy) / 2, with q_xx = 0
            for u, v, weight in ((a, x, 0.5), (a, y, 0.5), (x, y, -0.5)):
                if u != v:
                    out[k, g, TETRA_EDGE_ORDER.index((min(u, v), max(u, v)))] += weight
    return out


_GRAM_MAP = _gram_map()


def _gram(lengths):
    """(M, G) for (..., 6) edge lengths in TETRA_EDGE_ORDER: M[..., k, :]
    holds the Gram entries (M00, M11, M22, M01, M02, M12) of the frame at
    edge k (see _GRAM_MAP), shape (..., 6, 6), and G[..., k] = det M =
    36 V^2, shape (..., 6)."""
    m = np.einsum("...q,kgq->...kg", lengths**2, _GRAM_MAP)
    m00, m11, m22, m01, m02, m12 = np.moveaxis(m, -1, 0)
    big_g = (
        m00 * m11 * m22
        - m00 * m12**2
        - m01**2 * m22
        + 2.0 * m01 * m02 * m12
        - m02**2 * m11
    )
    return m, big_g


def _refused(lengths, gram, tol):
    """Boolean (...,) mask of the length rows the angle kernel refuses.

    Six positive lengths are a nondegenerate tetrahedron iff the Gram
    matrix M of an edge frame is positive definite: M00 * M11 - M01^2
    (four times a face area squared) and det M (36 V^2) are positive.  A
    row is also refused unless V^2 = det M / 36 exceeds both geom_tol^2
    and E_INTERIOR_MARGIN times the longest length^6: the derivatives blow
    up at degeneracy.  `gram` is _gram(lengths); the frame at edge 01 is
    read."""
    m, big_g = gram
    m00, m11, _, m01 = np.moveaxis(m[..., 0, :4], -1, 0)
    floor = max(tol.geom_tol**2, E_INTERIOR_MARGIN) * lengths.max(axis=-1) ** 6
    return ~((m00 * m11 - m01**2 > 0.0) & (big_g[..., 0] / 36.0 > floor))


def _angles_and_jacobian(lengths, gram):
    """Six dihedral angles of each tetrahedron and their length derivatives.

    lengths is a float array of shape (..., 6), each row in
    TETRA_EDGE_ORDER = (01, 02, 03, 12, 13, 23); the k-th angle sits at the
    k-th edge.  `gram` is _gram(lengths), and no row may be one that
    _refused refuses.  Returns (angles, jacobian) of shapes (..., 6) and
    (..., 6, 6), with jacobian[..., k, m] = d alpha_k / d length_m.

    The angle at edge (a, b) comes from the Gram matrix M of the frame
    based at a: with G = det M = 36 V^2 and c = M00*M12 - M01*M02
    (= (u x v).(u x w) by Lagrange), alpha = atan2(sqrt(G * M00), c).
    Derivatives are assembled by the chain rule through the (linear)
    map squared-lengths -> Gram entries, _GRAM_MAP.
    """
    m, big_g = gram
    m00, m11, m22, m01, m02, m12 = np.moveaxis(m, -1, 0)
    cos_part = m00 * m12 - m01 * m02
    sin_part = np.sqrt(np.maximum(big_g * m00, 0.0))
    angles = np.arctan2(sin_part, cos_part)

    # gradients with respect to the six independent Gram entries
    zero = np.zeros_like(m00)
    dg = np.stack(
        [
            m11 * m22 - m12**2,
            m00 * m22 - m02**2,
            m00 * m11 - m01**2,
            2.0 * (m02 * m12 - m01 * m22),
            2.0 * (m01 * m12 - m02 * m11),
            2.0 * (m01 * m02 - m00 * m12),
        ],
        axis=-1,
    )
    dc = np.stack([m12, zero, zero, -m02, -m01, m00], axis=-1)
    ds = m00[..., None] * dg
    ds[..., 0] += big_g
    ds /= (2.0 * sin_part)[..., None]
    dalpha_dm = (cos_part[..., None] * ds - sin_part[..., None] * dc) / (
        sin_part**2 + cos_part**2
    )[..., None]

    # chain through the linear map q -> Gram entries, then dq/dl = 2 l
    jacobian = np.einsum("...kg,kgq->...kq", dalpha_dm, _GRAM_MAP)
    jacobian *= (2.0 * lengths)[..., None, :]
    return angles, jacobian


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Decomposition:
    """Tetrahedralization of a polyhedron without added vertices.

    A face of exactly one tetrahedron is a boundary face.  The boundary
    edges (lengths pinned) are the edges of the boundary faces; the
    interior edges e_1..e_r (the coordinates of the cone-angle map) are
    all other edges of the tetrahedra, sorted.  Every face through an
    interior edge is shared by two tetrahedra, so the tetrahedra around it
    close up; they must form one cycle, so its total angle is well defined
    and equals 2*pi at the embedded lengths.  With a surface, the boundary
    faces must be exactly its faces.  `tol` is kept: the checks run at its
    geom_tol, and lambda assemblies refuse degenerate lengths at it.
    Equality is identity.
    """

    vertices: np.ndarray
    tetrahedra: tuple
    interior_edges: tuple
    boundary_edges: tuple
    surface: object = None
    tol: Tolerances = DEFAULT_TOL

    def __init__(self, vertices, tetrahedra, *, surface=None, tol: Tolerances = DEFAULT_TOL):
        vertices = as_points(vertices)
        tets = tuple(tuple(int(v) for v in t) for t in tetrahedra)
        if surface is None:
            diam = diameter(vertices)
        elif np.array_equal(surface.vertices, vertices):
            diam = surface.diameter  # the same pdist of the same points
        else:
            raise DecompositionError("vertices differ from the surface's vertices")

        for t_idx, tet in enumerate(tets):
            if len(set(tet)) != 4:
                raise DecompositionError(f"tetrahedron {t_idx} repeats a vertex: {tet}")
        corners = vertices[np.array(tets, dtype=int).reshape(-1, 4)]
        volumes = np.abs(np.linalg.det(corners[:, 1:] - corners[:, :1])) / 6.0
        degenerate = np.flatnonzero(volumes < tol.geom_tol * diam**3)
        if degenerate.size:
            t_idx = int(degenerate[0])
            raise DecompositionError(f"tetrahedron {t_idx} = {tets[t_idx]} is degenerate")
        if surface is not None:
            total = float(volumes.sum())
            if abs(total - abs(surface.signed_volume)) > tol.geom_tol * diam**3:
                raise DecompositionError(
                    f"tetrahedra volumes sum to {total:.12g} but the surface bounds "
                    f"{abs(surface.signed_volume):.12g}: overlap or gap"
                )

        self._face_owners = self._check_face_gluing(vertices, tets, surface)
        boundary = {
            edge
            for (a, b, c), owners in self._face_owners.items()
            if len(owners) == 1
            for edge in ((a, b), (a, c), (b, c))
        }
        tet_edges = [[tuple(sorted((t[a], t[b]))) for a, b in TETRA_EDGE_ORDER] for t in tets]
        interior = tuple(sorted(set().union(*tet_edges) - boundary))
        boundary = tuple(sorted(boundary))
        vertices.flags.writeable = False
        self.vertices = vertices
        self.tetrahedra = tets
        self.interior_edges = interior
        self.boundary_edges = boundary
        self.surface = surface
        self.tol = tol
        # edges are numbered interior first, then boundary; _edge_index[t, m]
        # is the number of the m-th edge (TETRA_EDGE_ORDER) of tetrahedron t
        number = {e: k for k, e in enumerate(interior + boundary)}
        self._edge_index = np.array(
            [[number[e] for e in row] for row in tet_edges], dtype=int
        ).reshape(-1, 6)
        ends = np.array(interior + boundary, dtype=int).reshape(-1, 2)
        self._edge_lengths = np.linalg.norm(vertices[ends[:, 0]] - vertices[ends[:, 1]], axis=1)
        self._edge_lengths.flags.writeable = False
        for k in range(self.r):
            self._star(k)

    @staticmethod
    def _check_face_gluing(vertices, tets, surface):
        """Each face is shared by at most two tetrahedra, which must then
        lie on opposite sides of it (local non-overlap); a face of one
        tetrahedron only must be a surface face.  The first offending face,
        in order of first appearance, raises.  With a surface, its faces
        must then be exactly the faces of one tetrahedron.  Returns the
        face-owner table: sorted face -> [(tetrahedron, vertex opposite
        the face)]."""
        face_owners = {}
        for t_idx, tet in enumerate(tets):
            for skip in range(4):
                face = tuple(sorted(tet[k] for k in range(4) if k != skip))
                face_owners.setdefault(face, []).append((t_idx, tet[skip]))
        faces = list(face_owners)
        counts = np.array([len(owners) for owners in face_owners.values()])
        offending = counts > 2

        shared = np.flatnonzero(counts == 2)
        if shared.size:
            corners = vertices[np.array([faces[k] for k in shared])]
            apexes = vertices[np.array([[o[1] for o in face_owners[faces[k]]] for k in shared])]
            a = corners[:, 0]
            n = _cross(corners[:, 1] - a, corners[:, 2] - a)
            sides = np.einsum("sox,sx->so", apexes - a[:, None], n)
            offending[shared] = sides[:, 0] * sides[:, 1] >= 0.0
        if surface is not None:
            surf_faces = set(map(tuple, np.sort(surface.faces, axis=1).tolist()))
            offending |= (counts == 1) & np.array([f not in surf_faces for f in faces], dtype=bool)

        if offending.any():
            face = faces[int(np.argmax(offending))]
            owners = face_owners[face]
            if len(owners) > 2:
                raise DecompositionError(f"face {face} is shared by {len(owners)} tetrahedra")
            if len(owners) == 2:
                raise DecompositionError(
                    f"tetrahedra {owners[0][0]} and {owners[1][0]} lie on the same "
                    f"side of their shared face {face}"
                )
            raise DecompositionError(
                f"face {face} borders one tetrahedron but is not a surface face"
            )
        if surface is not None:
            missing = surf_faces - {f for f, c in zip(faces, counts) if c == 1}
            if missing:
                raise DecompositionError(
                    f"surface faces {sorted(missing)} are not faces of exactly one tetrahedron"
                )
        return face_owners

    @cached_property
    def _incident(self):
        """Tetrahedra containing each interior edge, in increasing order."""
        incident = [[] for _ in self.interior_edges]
        for t, row in enumerate(self._edge_index.tolist()):
            for k in row:
                if k < len(incident):
                    incident[k].append(t)
        return incident

    def _star(self, k):
        """Interior edge k's tetrahedra in gluing order, and the flank vertex
        each shares with the next, walked over the face-owner table in time
        of the star's size.  Each face (i, j, x) of the star has two owners,
        so the walk closes up; raises unless it meets every tetrahedron of
        the star (one cycle)."""
        edge = i, j = self.interior_edges[k]
        incident = self._incident[k]
        # leave each tetrahedron by the face it was not entered through
        start = t = incident[0]
        order, link = [start], [max(set(self.tetrahedra[start]) - {i, j})]
        while True:
            (a, x), (b, y) = self._face_owners[tuple(sorted((i, j, link[-1])))]
            t, x = (b, y) if a == t else (a, x)
            if t == start:
                break
            order.append(t)
            link.append(x)
        if len(order) != len(incident):
            raise DecompositionError(f"star of interior edge {edge} splits into several cycles")
        return tuple(order), tuple(link)

    # -- derived data -------------------------------------------------------

    @property
    def r(self):
        return len(self.interior_edges)

    def _lengths(self, interior_l=None):
        """(T, 6) edge lengths of every tetrahedron in TETRA_EDGE_ORDER,
        taking interior-edge lengths from interior_l when given."""
        if interior_l is None:
            return self._edge_lengths[self._edge_index]
        interior_l = np.asarray(interior_l, dtype=float)
        if interior_l.shape != (self.r,):
            raise DecompositionError(f"expected {self.r} interior lengths")
        if not np.all(np.isfinite(interior_l) & (interior_l > 0.0)):
            raise GeometryError("interior lengths must be positive and finite")
        return np.concatenate([interior_l, self._edge_lengths[self.r :]])[self._edge_index]

    @cached_property
    def _embedded_lambda(self):
        """lambda at the embedded lengths, assembled once: decompositions
        are immutable."""
        return _assemble_lambda(self, None)


def decompose_star(surface, apex, tol: Tolerances = DEFAULT_TOL):
    """Cone a star-shaped surface from one of its vertices.

    One tetrahedron per face not containing the apex; fails (listing the
    blocked faces) when some face is not fully visible from the apex.
    """
    apex = int(apex)
    p = surface.vertices
    faces = surface.faces
    cone = ~(faces == apex).any(axis=1)
    side = np.einsum("fx,fx->f", p[apex] - p[faces[:, 0]], surface.face_cross)
    blocked = cone & (side >= -tol.geom_tol * surface.diameter**3)
    if blocked.any():
        raise DecompositionError(
            f"surface is not star-shaped from vertex {apex}; "
            f"blocked faces: {list(map(tuple, faces[blocked].tolist()))}"
        )
    tets = [(apex, a, b, c) for a, b, c in faces[cone].tolist()]
    return Decomposition(p, tets, surface=surface, tol=tol)


# ---------------------------------------------------------------------------
# the lambda matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaMatrix:
    """Jacobian of the cone-angle map in the interior-edge lengths."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    rank: int

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.size:
            scale = np.abs(m).max()
            if scale > 0 and np.abs(m - m.T).max() > SYM_TOL * scale:
                raise InvariantError(
                    f"lambda matrix asymmetric beyond tolerance: "
                    f"{np.abs(m - m.T).max():.3e} vs scale {scale:.3e}"
                )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eigenvalues", np.array(self.eigenvalues, dtype=float))

    @property
    def r(self):
        return len(self.matrix)

    @property
    def min_eigenvalue(self):
        return float(self.eigenvalues.min()) if self.eigenvalues.size else np.inf

    @property
    def is_positive_definite(self):
        return self.r == 0 or self.min_eigenvalue > 0.0

    @property
    def is_singular(self):
        return self.rank < self.r

    @property
    def diagonal_positive(self):
        return bool(np.all(np.diag(self.matrix) > 0.0)) if self.r else True


def _assemble_lambda(d, interior_l):
    """(matrix, eigenvalues, scale) of lambda at the given interior lengths
    (None: embedded).  scale is the largest per-tetrahedron Jacobian entry:
    the magnitude the entries of lambda are sums and differences of.

    Refuses lengths that are not a nondegenerate tetrahedron at the
    decomposition's tolerances, or too close to a degenerate one (squared
    volume below the interior margin relative to the longest edge), where
    the derivatives blow up: _refused, read from the kernel's own Gram
    matrices before any derivative is formed.
    """
    lengths = d._lengths(interior_l)
    gram = _gram(lengths)
    refused = np.flatnonzero(_refused(lengths, gram, d.tol))
    if refused.size:
        t = int(refused[0])
        raise DecompositionError(
            f"tetrahedron {t} = {d.tetrahedra[t]} is degenerate or too "
            f"close to the boundary of the feasible length domain"
        )
    _, jac = _angles_and_jacobian(lengths, gram)
    rows = np.broadcast_to(d._edge_index[:, :, None], jac.shape)
    cols = np.broadcast_to(d._edge_index[:, None, :], jac.shape)
    interior = (rows < d.r) & (cols < d.r)
    lam = np.zeros((d.r, d.r))
    np.add.at(lam, (rows[interior], cols[interior]), jac[interior])
    if d.r == 0:
        return lam, np.zeros(0), 0.0
    eigenvalues = np.linalg.eigvalsh(0.5 * (lam + lam.T))
    return lam, eigenvalues, float(np.abs(jac).max())


def lambda_matrix(d, interior_l=None, tol: Tolerances = DEFAULT_TOL):
    """The r x r Jacobian (d theta_i / d l_j), assembled analytically.

    At the embedded lengths the assembly is cached on the decomposition;
    the rank applies the caller's rank rule with the assembly's scale as
    reference, so a lone eigenvalue that cancelled to roundoff counts as
    zero."""
    if interior_l is None:
        lam, eigenvalues, scale = d._embedded_lambda
    else:
        lam, eigenvalues, scale = _assemble_lambda(d, interior_l)
    return LambdaMatrix(lam, eigenvalues, tol.numerical_rank(np.abs(eigenvalues), scale))


def rigidity_from_lambda(d, tol: Tolerances = DEFAULT_TOL):
    """Rigidity verdict from the lambda matrix: rigid iff nonsingular
    (r = 0 counts as rigid).  When the decomposition carries its boundary
    surface, the verdict is cross-checked against the rigidity matrix of
    the boundary bar framework; disagreement raises InvariantError.
    """
    verdict = d.r == 0 or not lambda_matrix(d, tol=tol).is_singular
    if d.surface is not None:
        fw = Framework.from_surface(d.surface, tol=tol)
        other = is_infinitesimally_rigid(fw, tol)
        if other != verdict:
            raise InvariantError(
                "rigidity verdicts disagree: lambda matrix says "
                f"{'rigid' if verdict else 'flexible'}, rigidity matrix says "
                f"{'rigid' if other else 'flexible'}.\nvertices=\n{d.vertices!r}\n"
                f"tetrahedra={d.tetrahedra!r}\ninterior={d.interior_edges!r}"
            )
    return verdict


# ---------------------------------------------------------------------------
# positive-definiteness probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeTrial:
    kind: str
    seed: tuple
    r: int
    min_eigenvalue: float
    diagonal_positive: bool
    weakly_convex: bool
    rigid: bool

    def to_dict(self):
        return {
            "kind": self.kind,
            "seed": list(self.seed),
            "r": self.r,
            "min_eigenvalue": self.min_eigenvalue,
            "diagonal_positive": self.diagonal_positive,
            "weakly_convex": self.weakly_convex,
            "rigid": self.rigid,
        }


@dataclass(frozen=True)
class ProbeReport:
    trials: tuple
    failures: int
    counterexamples: tuple  # weakly convex, non-PD instances, dumped verbatim

    @property
    def min_eigenvalues(self):
        return np.array([t.min_eigenvalue for t in self.trials])

    @property
    def diagonal_positive_rate(self):
        """Share of trials with a positive diagonal; None when no trial
        succeeded, so the JSON report says null rather than NaN."""
        if not self.trials:
            return None
        return sum(t.diagonal_positive for t in self.trials) / len(self.trials)

    def to_dict(self):
        eigs = self.min_eigenvalues
        weakly = [t for t in self.trials if t.weakly_convex]
        summary = {
            "trials": len(self.trials),
            "generation_failures": self.failures,
            "weakly_convex_trials": len(weakly),
            "diagonal_positive_rate": self.diagonal_positive_rate,
            "non_pd_weakly_convex": len(self.counterexamples),
        }
        if len(eigs):
            summary["min_eigenvalue"] = {
                "min": float(eigs.min()),
                "median": float(np.median(eigs)),
                "max": float(eigs.max()),
            }
        return {
            "summary": summary,
            "trials": [t.to_dict() for t in self.trials],
            "counterexamples": list(self.counterexamples),
        }


def pd_probe(trials=500, seed=0, include_controls=False, tol: Tolerances = DEFAULT_TOL):
    """Empirical scan of lambda-matrix spectra over random weakly convex
    decomposable polyhedra (star decompositions of dented hulls and
    axis-decomposable suspensions, in equal parts).

    Purely observational: reports the minimum-eigenvalue distribution,
    the diagonal-positivity rate, and dumps any weakly convex instance
    whose matrix fails positive definiteness.  Per-trial seeds derive
    from the probe seed, so every instance can be regenerated.
    """
    from . import generators, suspensions  # deferred: both sit above this module

    records = []
    failures = 0
    counterexamples = []
    kinds = ["dented_hull_star", "suspension_axis"]
    if include_controls:
        kinds.append("control_nonconvex")
    for k in range(trials):
        kind = kinds[k % len(kinds)]
        trial_seed = (int(seed), k)
        rng = np.random.default_rng(trial_seed)
        try:
            decomposition = generators.probe_decomposition(kind, rng, tol=tol)
            lam = lambda_matrix(decomposition, tol=tol)
            rigid = rigidity_from_lambda(decomposition, tol=tol)
            weakly = is_weakly_convex(decomposition.surface)
        except (generators.GenerationError, GeometryError,
                suspensions.SuspensionError, DecompositionError) as exc:  # degenerate draw
            logger.debug("probe trial %d (%s) failed: %s", k, kind, exc)
            failures += 1
            continue
        trial = ProbeTrial(
            kind=kind,
            seed=trial_seed,
            r=lam.r,
            min_eigenvalue=lam.min_eigenvalue if lam.r else float("inf"),
            diagonal_positive=lam.diagonal_positive,
            weakly_convex=weakly,
            rigid=rigid,
        )
        records.append(trial)
        if weakly and lam.r and not lam.is_positive_definite:
            counterexamples.append(
                {
                    "trial": trial.to_dict(),
                    "vertices": decomposition.vertices.tolist(),
                    "tetrahedra": [list(t) for t in decomposition.tetrahedra],
                    "interior_edges": [list(e) for e in decomposition.interior_edges],
                    "matrix": lam.matrix.tolist(),
                    "eigenvalues": lam.eigenvalues.tolist(),
                }
            )
    return ProbeReport(tuple(records), failures, tuple(counterexamples))
