"""Sign calculus for first-order flexes of triangulated surfaces.

A motion assigns each edge the sign of its first-order dihedral-angle
variation.  Discarding the silent edges leaves a signed graph embedded
in the sphere; counting sign changes around its vertices and faces and
playing the two counts against the Euler relation is what forbids
nontrivial flexes.  This module computes the signs analytically, builds
the signed subgraph, counts changes, and implements the edge-flip
("denting") construction together with a randomized rigidity harness for
dented convex surfaces.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .frameworks import Framework, is_infinitesimally_rigid
from .geometry import (
    DEFAULT_TOL,
    InvariantError,
    PolyhedralSurface,
    Tolerances,
    _dihedral_rate_kernel,
    edge_flags,
)

logger = logging.getLogger(__name__)

# threshold on the angle variation, after normalizing the motion to unit
# norm and the surface to unit diameter
SIGN_RATE_TOL = 1e-9

# hull sizes dent_rigidity_harness draws, both ends included
DENT_HULL_VERTICES = (8, 20)


class CauchyError(Exception):
    pass


# ---------------------------------------------------------------------------
# dihedral-angle variation under a motion
# ---------------------------------------------------------------------------


def dihedral_rates(surface, motion, tol: Tolerances = DEFAULT_TOL):
    """First-order variation of every dihedral angle under the motion.

    The derivative of the kernel behind dihedral_angles, so it is defined
    at flat edges (angle pi) too; not at an edge flanked by a face of zero
    area (doubled area at most geom_tol * diameter**2).
    """
    if motion.velocities.shape != surface.vertices.shape:
        raise CauchyError(
            f"motion has shape {motion.velocities.shape}, expected {surface.vertices.shape}"
        )
    bad = np.flatnonzero(surface.degenerate_faces(tol)[surface.flanking_faces].any(axis=1))
    if bad.size:
        i, j = surface.edges[bad[0]]
        raise CauchyError(
            f"edge ({i}, {j}) has a zero-area flanking face: angle variation is undefined"
        )
    rates = _dihedral_rate_kernel(surface, motion.velocities)
    return dict(zip(surface.edges, rates.tolist()))


@dataclass(frozen=True)
class SignVector:
    """One of {-1, 0, +1} per edge of a surface."""

    signs: dict

    def __post_init__(self):
        clean = {}
        for pair, s in self.signs.items():
            i, j = sorted(int(x) for x in pair)
            s = int(s)
            if s not in (-1, 0, 1):
                raise CauchyError(f"sign at ({i}, {j}) must be -1, 0 or +1, got {s}")
            clean[(i, j)] = s
        object.__setattr__(self, "signs", clean)

    def __getitem__(self, pair):
        i, j = sorted(int(x) for x in pair)
        return self.signs[(i, j)]

    @property
    def nonzero_edges(self):
        return tuple(e for e, s in sorted(self.signs.items()) if s != 0)


def sign_vector_from_flex(surface, motion, tol: Tolerances = DEFAULT_TOL):
    """Sign of the dihedral-angle variation at each edge: 0 when the
    normalized variation is below SIGN_RATE_TOL, otherwise +1 or -1."""
    rates = dihedral_rates(surface, motion, tol)
    norm = float(np.linalg.norm(motion.flat))
    if norm == 0.0:
        return SignVector({e: 0 for e in rates})
    scale = surface.diameter / norm
    return SignVector(
        {
            e: (0 if abs(r * scale) <= SIGN_RATE_TOL else (1 if r > 0 else -1))
            for e, r in rates.items()
        }
    )


# ---------------------------------------------------------------------------
# the signed subgraph and its embedding
# ---------------------------------------------------------------------------


def _trace_faces(rotation):
    """Face cycles of an embedded graph, as lists of directed edges."""
    unvisited = {(u, v) for u, nbrs in rotation.items() for v in nbrs}
    faces = []
    while unvisited:
        start = min(unvisited)
        cycle = []
        cur = start
        while True:
            cycle.append(cur)
            unvisited.discard(cur)
            u, v = cur
            nbrs = rotation[v]
            cur = (v, nbrs[(nbrs.index(u) + 1) % len(nbrs)])
            if cur == start:
                break
        faces.append(cycle)
    return faces


@dataclass(frozen=True)
class SignedPlanarGraph:
    """Zero-free signed graph with the sphere embedding it inherited.

    labels maps each surviving edge (i, j) to +1 or -1; rotation maps
    each surviving vertex to the cyclic order of its neighbors.
    """

    labels: dict
    rotation: dict

    def __post_init__(self):
        for pair, s in self.labels.items():
            if s not in (-1, 1):
                raise CauchyError(f"edge {pair} carries label {s}, need +-1")
        for v, nbrs in self.rotation.items():
            if len(nbrs) < 3:
                raise CauchyError(
                    f"vertex {v} has degree {len(nbrs)}: not the 1-skeleton "
                    f"of a cellular decomposition"
                )
        if self.labels:
            v = len(self.rotation)
            e = len(self.labels)
            f = len(_trace_faces(self.rotation))
            if v - e + f != 2:
                raise CauchyError(
                    f"embedding fails the Euler relation: v-e+f = {v - e + f}"
                )


def sign_subgraph(surface, sv: SignVector):
    """Drop the 0 edges (and the vertices they strand).

    For a sign vector induced by a genuine flex every surviving vertex
    keeps degree at least 3; a smaller degree is reported as evidence
    that the signs did not come from a flex.
    """
    if set(sv.signs) != set(surface.edges):
        raise CauchyError("sign vector is not keyed by the surface's edge set")
    kept = {e for e, s in sv.signs.items() if s != 0}
    if not kept:
        return SignedPlanarGraph({}, {})
    rotation = {}
    for v in range(surface.n_vertices):
        nbrs = tuple(
            w for w in surface.neighbors_cyclic(v) if tuple(sorted((v, w))) in kept
        )
        if not nbrs:
            continue
        if len(nbrs) < 3:
            raise CauchyError(
                f"vertex {v} has degree {len(nbrs)} in the sign subgraph; a "
                f"flex-induced sign vector cannot do this"
            )
        rotation[v] = nbrs
    return SignedPlanarGraph({e: sv.signs[e] for e in kept}, rotation)


# ---------------------------------------------------------------------------
# counting sign changes
# ---------------------------------------------------------------------------


def cyclic_sign_changes(seq):
    """Number of sign changes in a cyclic sequence over {-1, 0, +1}:
    adjacent unequal nonzero values, with zeros transparent."""
    nz = [s for s in seq if s != 0]
    if len(nz) < 2:
        return 0
    return sum(nz[k] != nz[(k + 1) % len(nz)] for k in range(len(nz)))


@dataclass(frozen=True)
class SignChangeStats:
    """Change counts around vertices and faces of a signed embedded graph,
    with the two counting bounds whose conjunction the Euler relation
    forbids."""

    per_vertex: dict
    per_face: tuple
    v: int
    e: int
    f: int
    s: int

    @property
    def vertex_bound(self):
        """4v - 6: a lower bound for s when at least 4 changes happen at
        all vertices but at most three (which keep at least 2)."""
        return 4 * self.v - 6

    @property
    def face_bound(self):
        """4e - 4f: an upper bound for s from the per-face caps."""
        return 4 * self.e - 4 * self.f

    @property
    def bounds_contradict(self):
        """True when the two bounds cannot sandwich s, which on a sphere
        is always the case: 4e - 4f = 4v - 8 < 4v - 6."""
        return self.vertex_bound > self.face_bound


def count_sign_changes(g: SignedPlanarGraph):
    per_vertex = {}
    for v, nbrs in g.rotation.items():
        seq = [g.labels[tuple(sorted((v, w)))] for w in nbrs]
        count = cyclic_sign_changes(seq)
        if count % 2:
            raise CauchyError(f"odd change count at vertex {v}")
        per_vertex[v] = count
    faces = _trace_faces(g.rotation)
    per_face = []
    for cycle in faces:
        seq = [g.labels[tuple(sorted(de))] for de in cycle]
        count = cyclic_sign_changes(seq)
        if count % 2:
            raise CauchyError("odd change count on a face")
        per_face.append(count)
    s = sum(per_face)
    if s != sum(per_vertex.values()):
        raise InvariantError(
            "face-side and vertex-side change totals disagree: "
            f"{s} vs {sum(per_vertex.values())}"
        )
    return SignChangeStats(
        per_vertex=per_vertex,
        per_face=tuple(per_face),
        v=len(g.rotation),
        e=len(g.labels),
        f=len(faces),
        s=s,
    )


# ---------------------------------------------------------------------------
# per-vertex conclusions for flex-induced signs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexSignReport:
    vertex: int
    convex: bool
    nonzero: int
    changes: int
    ok: bool
    detail: str


def vertex_sign_change_check(surface, sv: SignVector, tol: Tolerances = DEFAULT_TOL):
    """Check, vertex by vertex, the conclusions forced on flex-induced
    signs: at a locally convex vertex either all incident signs vanish or
    there are at least 4 sign changes; at a non-convex vertex either all
    vanish or both signs occur on at least 3 nonzero edges."""
    nonconvex = {v for e, flag in edge_flags(surface, tol).items() if flag == "reflex" for v in e}
    reports = []
    for v in range(surface.n_vertices):
        nbrs = surface.neighbors_cyclic(v)
        seq = [sv[(v, w)] for w in nbrs]
        nonzero = sum(s != 0 for s in seq)
        changes = cyclic_sign_changes(seq)
        convex = v not in nonconvex
        if nonzero == 0:
            ok, detail = True, "all signs zero"
        elif convex:
            ok = changes >= 4
            detail = f"{changes} changes" + ("" if ok else " (< 4 at a convex vertex)")
        else:
            mixed = (1 in seq) and (-1 in seq)
            ok = mixed and nonzero >= 3
            detail = (
                f"{nonzero} nonzero, mixed={mixed}"
                + ("" if ok else " (non-convex vertex needs both signs on >= 3 edges)")
            )
        reports.append(VertexSignReport(v, convex, nonzero, changes, ok, detail))
    return tuple(reports)


# ---------------------------------------------------------------------------
# denting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DentResult:
    surface: PolyhedralSurface
    new_edge: tuple
    removed_edge: tuple


def dent(surface, edge, tol: Tolerances = DEFAULT_TOL):
    """Flip the diagonal of the quadrilateral formed by the two triangles
    at an edge: faces {i,j,c} and {i,j,d} become {c,d,i} and {c,d,j}.

    On a convex surface this pushes the ridge at (i, j) into a valley
    along the new edge (c, d).  Fails when c and d are already joined by
    an edge or the four vertices are coplanar."""
    i, j = sorted(int(x) for x in edge)
    if (i, j) not in surface.edges:
        raise CauchyError(f"({i}, {j}) is not an edge of the surface")
    f1, f2 = surface.edge_faces(i, j)
    c, d = (surface.faces[[f1, f2]].sum(axis=1) - i - j).tolist()
    if tuple(sorted((c, d))) in surface.edges:
        raise CauchyError(
            f"cannot dent at ({i}, {j}): opposite vertices {c} and {d} are "
            f"already joined by an edge"
        )
    p = surface.vertices
    vol6 = np.linalg.det(np.stack([p[j] - p[i], p[c] - p[i], p[d] - p[i]]))
    if abs(vol6) <= tol.geom_tol * surface.diameter**3:
        raise CauchyError(
            f"cannot dent at ({i}, {j}): the quadrilateral {i},{c},{j},{d} "
            f"is coplanar"
        )
    faces = [tuple(f) for k, f in enumerate(map(tuple, surface.faces.tolist()))
             if k not in (f1, f2)]
    faces += [(c, i, d), (d, j, c)]
    return DentResult(
        PolyhedralSurface(surface.vertices, faces, tol),
        tuple(sorted((c, d))),
        (i, j),
    )


# ---------------------------------------------------------------------------
# randomized rigidity harness for dented hulls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DentTrial:
    seed: tuple
    n_vertices: int
    single_edge: tuple
    single_rigid: bool
    double_edge: tuple | None
    double_rigid: bool | None


@dataclass(frozen=True)
class DentHarnessReport:
    trials: tuple
    skipped: int
    failures: tuple


def _cofacial(surface, e1, e2):
    both = set(e1) | set(e2)
    return any(both <= set(map(int, f)) for f in surface.faces)


def dent_rigidity_harness(seed=0, trials=100, tol: Tolerances = DEFAULT_TOL):
    """Dent random convex hulls at one edge, then at a second edge sharing
    a vertex with the first (but not a face), and verify that every
    result is infinitesimally rigid.

    Generation degeneracies are skipped and counted."""
    from . import generators

    trial_list = []
    failures = []
    skipped = 0
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        n = int(rng.integers(DENT_HULL_VERTICES[0], DENT_HULL_VERTICES[1] + 1))
        try:
            surface = generators.random_convex_hull_surface(rng, n, tol=tol)
        except generators.GenerationError as exc:  # degenerate sample
            logger.warning("trial %d: hull generation failed (%s)", t, exc)
            skipped += 1
            continue
        edges = list(surface.edges)
        # pick the first edge so that a second, vertex-sharing dent exists:
        # a low-degree endpoint can leave every candidate quad blocked by
        # the diagonal the first dent just created
        dent1 = dent2 = None
        for k in rng.permutation(len(edges)):
            try:
                attempt1 = dent(surface, edges[k], tol)
            except CauchyError:
                continue
            if dent1 is None:
                dent1 = attempt1
            e1 = attempt1.removed_edge
            cands = [
                e for e in edges
                if len(set(e) & set(e1)) == 1 and not _cofacial(surface, e, e1)
            ]
            for c in rng.permutation(len(cands)):
                try:
                    dent2 = dent(attempt1.surface, cands[c], tol)
                except CauchyError:
                    continue
                dent1 = attempt1
                break
            if dent2 is not None:
                break
        if dent1 is None:
            skipped += 1
            continue
        e1 = dent1.removed_edge
        single_rigid = is_infinitesimally_rigid(
            Framework.from_surface(dent1.surface, tol=tol), tol
        )

        double_edge = None
        double_rigid = None
        if dent2 is not None:
            double_edge = dent2.removed_edge
            double_rigid = is_infinitesimally_rigid(
                Framework.from_surface(dent2.surface, tol=tol), tol
            )

        trial = DentTrial((seed, t), n, e1, single_rigid, double_edge, double_rigid)
        trial_list.append(trial)
        if not single_rigid or double_rigid is False:
            failures.append(trial)
    return DentHarnessReport(tuple(trial_list), skipped, tuple(failures))
