"""The suspension vertex layout, outward-oriented hull faces and the
octahedron, the bipyramid the benchmark traces."""

import numpy as np

from .geometry import PolyhedralSurface, _cross

# vertex layout shared with suspensions: north = 0, south = 1, equator = 2..n+1
NORTH = 0
SOUTH = 1


def hull_faces(points, simplices):
    """qhull simplices of `points` as an (F, 3) face array, each ordered so
    its normal (b - a) x (c - a) points away from the centroid."""
    faces = np.array(simplices, dtype=int)
    corners = points[faces]
    normals = _cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    inward = (normals * (corners[:, 0] - points.mean(axis=0))).sum(axis=1) < 0
    faces[inward] = faces[inward][:, [0, 2, 1]]
    return faces


def bipyramid_faces(n):
    """Faces of a bipyramid over an n-gon in the shared vertex layout."""
    faces = []
    for k in range(n):
        a = 2 + k
        b = 2 + (k + 1) % n
        faces.append((NORTH, a, b))
        faces.append((SOUTH, b, a))
    return np.array(faces, dtype=int)


def bipyramid(equator_points, north_point, south_point):
    """Closed surface of the suspension over a cyclic equator."""
    equator_points = np.asarray(equator_points, dtype=float)
    vertices = np.vstack([north_point, south_point, equator_points])
    return PolyhedralSurface(vertices, bipyramid_faces(len(equator_points)))


def octahedron():
    """Regular octahedron: poles (0,0,+-1), unit square equator."""
    equator = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]])
    return bipyramid(equator, [0.0, 0.0, 1.0], [0.0, 0.0, -1.0])
