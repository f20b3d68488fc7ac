"""Canonical example surfaces used by tests, demos and generators."""

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
