"""Serialization: one JSON document format for all the library's objects,
analysis reports and CSV tables.

A document is a vertex set plus optional views of it -- an edge list
(framework), a face list (closed surface), poles and an equator order
(suspension), and tetrahedra (decomposition).  Floats are written with
`repr`, so a save/load round trip reproduces the in-memory values
bitwise.
"""

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass
from functools import cache
from importlib import resources
from numbers import Number

import numpy as np

from .frameworks import Framework, FrameworkError, rigidity_rank, trivial_dimension
from .geometry import (
    DEFAULT_TOL,
    GeometryError,
    PolyhedralSurface,
    Tolerances,
    classify_convexity_from_hull,
)
from .hessian import Decomposition, DecompositionError, lambda_matrix, rigidity_from_lambda
from .suspensions import (
    Suspension,
    SuspensionError,
    build_suspension,
    is_ns_decomposable,
    lambda_scalar,
)

VERSION = 1


class FileFormatError(Exception):
    pass


# The JSON Schema (Draft 2020-12) types and keywords the document checker
# implements.  A schema that uses any other keyword is refused when it is
# compiled, so a schema edit cannot go unchecked.
_TYPES = {
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
    "number": lambda v: isinstance(v, Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}
_NODE_KEYWORDS = frozenset({
    "type", "const", "enum", "required", "additionalProperties", "minItems",
    "maxItems", "minimum",
})
_KEYWORDS = _NODE_KEYWORDS | {"properties", "items"}
_ANNOTATIONS = frozenset({"$schema", "title", "description"})


def _equal(value, expected):
    """JSON equality of scalars: a bool equals only the same bool."""
    if isinstance(value, bool) or isinstance(expected, bool):
        return value is expected
    return value == expected


def _rule(keyword, arg, schema):
    """Check of one keyword at its own node: value -> message or None."""
    if keyword == "type":
        is_type = _TYPES[arg]
        return lambda v: None if is_type(v) else f"{v!r} is not of type {arg!r}"
    if keyword == "const":
        return lambda v: None if _equal(v, arg) else f"{arg!r} was expected"
    if keyword == "enum":
        return lambda v: (None if any(_equal(v, e) for e in arg)
                          else f"{v!r} is not one of {arg!r}")
    if keyword == "required":
        def required(v):
            if isinstance(v, dict):
                for key in arg:
                    if key not in v:
                        return f"{key!r} is a required property"
        return required
    if keyword == "additionalProperties":
        known = schema.get("properties", {})

        def closed(v):
            if isinstance(v, dict):
                extra = sorted((key for key in v if key not in known), key=str)
                if extra:
                    return (f"Additional properties are not allowed ({', '.join(map(repr, extra))} "
                            f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        return closed
    if keyword == "minItems":
        return lambda v: (f"has {len(v)} items, fewer than the minimum of {arg}"
                          if isinstance(v, list) and len(v) < arg else None)
    if keyword == "maxItems":
        return lambda v: (f"has {len(v)} items, more than the maximum of {arg}"
                          if isinstance(v, list) and len(v) > arg else None)
    # minimum
    return lambda v: (f"{v!r} is less than the minimum of {arg!r}"
                      if _TYPES["number"](v) and v < arg else None)


def _compile(schema, where="#"):
    """A checker for `schema`: value -> None, or (path, message) for the
    first error in JSON-pointer order, and at one path the first in the
    schema's keyword order: the error a Draft 2020-12 validator reports
    first when its errors are sorted by path.

    A node's own keywords are checked before its children, and children
    in key or index order.  Raises ValueError for a keyword or type that
    is not implemented.
    """
    unknown = sorted(schema.keys() - _KEYWORDS - _ANNOTATIONS)
    if unknown:
        raise ValueError(f"{where}: schema keyword {unknown[0]!r} is not implemented")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError(f"{where}: only 'additionalProperties': false is implemented")
    if "type" in schema and not (isinstance(schema["type"], str) and schema["type"] in _TYPES):
        raise ValueError(f"{where}: schema type {schema['type']!r} is not implemented")
    rules = [
        _rule(keyword, arg, schema)
        for keyword, arg in schema.items()
        if keyword in _NODE_KEYWORDS
    ]
    children = sorted(
        (key, _compile(sub, f"{where}/properties/{key}"))
        for key, sub in schema.get("properties", {}).items()
    )
    items = _compile(schema["items"], f"{where}/items") if "items" in schema else None

    def check(value):
        for rule in rules:
            message = rule(value)
            if message is not None:
                return (), message
        if children and isinstance(value, dict):
            for key, child in children:
                if key in value:
                    error = child(value[key])
                    if error is not None:
                        return (key, *error[0]), error[1]
        if items is not None and isinstance(value, list):
            for index, item in enumerate(value):
                error = items(item)
                if error is not None:
                    return (index, *error[0]), error[1]
        return None

    return check


@cache
def _checker():
    """The checker of the bundled document schema, compiled on first use."""
    text = resources.files("rigidity3d.schema").joinpath(
        "framework.schema.json"
    ).read_text()
    return _compile(json.loads(text))


def _pointer(path):
    return "/" + "/".join(str(p) for p in path)


def validate_document(doc):
    """Schema plus index-range validation; errors carry a JSON pointer.

    The schema step walks the bundled schema (framework.schema.json, the
    one definition of the format) and reports the error that a Draft
    2020-12 validator reports first when its errors are sorted by path.
    The index-range step then checks every vertex index against the
    vertex count, loops, and that poles and equator come together.
    """
    error = _checker()(doc)
    if error is not None:
        path, message = error
        raise FileFormatError(f"{_pointer(path)}: {message}")

    n = len(doc["vertices"])

    def check_index(value, path):
        if not 0 <= value < n:
            raise FileFormatError(
                f"{_pointer(path)}: vertex index {value} out of range for {n} vertices"
            )

    for k, e in enumerate(doc["edges"]):
        check_index(e["i"], ("edges", k, "i"))
        check_index(e["j"], ("edges", k, "j"))
        if e["i"] == e["j"]:
            raise FileFormatError(f"{_pointer(('edges', k))}: edge is a loop")
    for k, face in enumerate(doc.get("faces", [])):
        for m, v in enumerate(face):
            check_index(v, ("faces", k, m))
    if "poles" in doc:
        check_index(doc["poles"]["north"], ("poles", "north"))
        check_index(doc["poles"]["south"], ("poles", "south"))
    for k, v in enumerate(doc.get("equator", [])):
        check_index(v, ("equator", k))
    for k, tet in enumerate(doc.get("tetrahedra", [])):
        for m, v in enumerate(tet):
            check_index(v, ("tetrahedra", k, m))
    if ("poles" in doc) != ("equator" in doc):
        raise FileFormatError("/poles: poles and equator must be given together")
    return doc


# ---------------------------------------------------------------------------
# object -> document
# ---------------------------------------------------------------------------


def _edge_records(framework):
    return [
        {"i": i, "j": j, "kind": kind.value} for i, j, kind in framework.edges
    ]


def to_document(obj, metadata=None):
    """JSON document for a Framework, PolyhedralSurface, Suspension or
    Decomposition, validated once."""
    doc = {"version": VERSION, **_body(obj)}
    if metadata:
        doc["metadata"] = metadata
    return validate_document(doc)


def _body(obj):
    """The unvalidated views of `obj`, without version or metadata."""
    if isinstance(obj, Framework):
        return {"vertices": [list(map(float, p)) for p in obj.vertices],
                "edges": _edge_records(obj)}
    if isinstance(obj, PolyhedralSurface):
        return {"vertices": [list(map(float, p)) for p in obj.vertices],
                "edges": [{"i": i, "j": j, "kind": "bar"} for i, j in obj.edges],
                "faces": [list(map(int, f)) for f in obj.faces]}
    if isinstance(obj, Suspension):
        return {**_body(obj.surface), "poles": {"north": 0, "south": 1},
                "equator": list(range(2, 2 + obj.n))}
    if isinstance(obj, Decomposition):
        if obj.surface is not None:
            body = _body(obj.surface)
        else:
            body = {"vertices": [list(map(float, p)) for p in obj.vertices],
                    "edges": [{"i": i, "j": j, "kind": "bar"} for i, j in obj.boundary_edges]}
        return {**body, "tetrahedra": [list(map(int, t)) for t in obj.tetrahedra]}
    raise FileFormatError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# document -> objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadedInstance:
    """All the views a document supports, constructed eagerly.  `layout`
    is the document's vertex index of each suspension vertex (north, south,
    then the equator), as ints; None without poles."""

    document: dict
    framework: Framework
    surface: PolyhedralSurface | None
    suspension: Suspension | None
    decomposition: Decomposition | None
    layout: tuple | None

    @property
    def vertices(self):
        return self.framework.vertices


def from_document(doc, tol: Tolerances = DEFAULT_TOL):
    validate_document(doc)
    vertices = np.array(doc["vertices"], dtype=float)
    nonfinite = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if nonfinite.size:
        raise FileFormatError(f"/vertices/{nonfinite[0]}: non-finite vertex coordinates")
    edges = [(e["i"], e["j"], e.get("kind", "bar")) for e in doc["edges"]]
    try:
        framework = Framework(vertices, edges, tol=tol)
    except FrameworkError as exc:
        raise FileFormatError(f"/edges: {exc}") from None
    surface = None
    if "faces" in doc:
        try:
            surface = PolyhedralSurface(vertices, doc["faces"], tol)
        except GeometryError as exc:
            raise FileFormatError(f"/faces: {exc}") from None
        if set(surface.edges) != set(framework.edge_pairs):
            raise FileFormatError(
                "/faces: face edges do not match the edge list"
            )
    suspension = layout = None
    if "poles" in doc:
        # the schema's integers include integral floats such as 0.0
        poles = doc["poles"]
        layout = tuple(map(int, (poles["north"], poles["south"], *doc["equator"])))
        try:
            suspension = build_suspension(
                vertices[layout[0]], vertices[layout[1]], vertices[list(layout[2:])], tol
            )
        except (GeometryError, SuspensionError) as exc:
            raise FileFormatError(f"/poles: {exc}") from None
        if surface is not None:
            faces = {tuple(sorted(f)) for f in doc["faces"]}
            built = {tuple(sorted(layout[v] for v in f))
                     for f in suspension.surface.faces.tolist()}
            if faces != built:
                raise FileFormatError(
                    "/equator: the suspension over these poles and this equator "
                    f"has other faces than the document: extra {sorted(built - faces)}, "
                    f"missing {sorted(faces - built)}")
    decomposition = None
    if "tetrahedra" in doc:
        try:
            decomposition = Decomposition(vertices, doc["tetrahedra"], surface=surface, tol=tol)
        except DecompositionError as exc:
            raise FileFormatError(f"/tetrahedra: {exc}") from None
        edges, boundary = set(framework.edge_pairs), set(decomposition.boundary_edges)
        if edges != boundary:
            raise FileFormatError(
                "/edges: the edges must be the tetrahedra's boundary edges: "
                f"extra {sorted(edges - boundary)}, missing {sorted(boundary - edges)}"
            )
    return LoadedInstance(doc, framework, surface, suspension, decomposition, layout)


def save(path, obj, metadata=None):
    """Write a document (validated here) or an object (to_document validates
    it) as JSON; returns the document.  `metadata` is merged into a
    document's own "metadata" (a copy: the caller's dict is not changed)."""
    if isinstance(obj, dict):
        own = obj.get("metadata", {})
        if metadata and isinstance(own, dict):  # else validation refuses `own`
            obj = {**obj, "metadata": {**own, **metadata}}
        doc = validate_document(obj)
    else:
        doc = to_document(obj, metadata)
    with open(path, "w") as fh:
        write_json(fh, doc)
    return doc


def write_json(fh, obj):
    """`obj` as one JSON document: two-space indent, final newline."""
    json.dump(obj, fh, indent=2)
    fh.write("\n")


def load(path, tol: Tolerances = DEFAULT_TOL):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FileFormatError(f"{path}: not valid JSON ({exc})") from None
    return from_document(doc, tol)


# ---------------------------------------------------------------------------
# analysis reports
# ---------------------------------------------------------------------------


def instance_hash(doc):
    """Hash of the geometric content (metadata excluded)."""
    body = {k: v for k, v in doc.items() if k != "metadata"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def analysis_report(loaded: LoadedInstance, tol: Tolerances = DEFAULT_TOL):
    """Verdict block for a loaded instance.

    Deterministic given (document, tolerances) except for the
    timings section, which is informational only and excluded from the
    instance hash.
    """
    verdicts = {}
    timings = {}

    t0 = time.perf_counter()
    # dimensions of the flex and stress spaces by counting from one rank;
    # no basis is formed
    fw = loaded.framework
    rank = rigidity_rank(fw, tol)
    flex_dimension = 3 * fw.n_vertices - rank
    verdicts["trivial_dimension"] = trivial = trivial_dimension(fw, tol)
    verdicts["rigid"] = flex_dimension == trivial
    verdicts["flex_dimension"] = flex_dimension
    verdicts["stress_space_dimension"] = fw.n_edges - rank
    timings["framework"] = time.perf_counter() - t0

    if loaded.surface is not None:
        t0 = time.perf_counter()
        report = classify_convexity_from_hull(loaded.surface, tol)
        verdicts["convexity"] = report.classification.value
        verdicts["reflex_edges"] = [list(e) for e in report.reflex_edges]
        timings["convexity"] = time.perf_counter() - t0

    if loaded.suspension is not None:
        t0 = time.perf_counter()
        dec = is_ns_decomposable(loaded.suspension, tol)
        verdicts["ns_decomposable"] = bool(dec)
        if dec:
            verdicts["lambda"] = lambda_scalar(loaded.suspension, tol).total
        else:
            verdicts["ns_decomposability_obstruction"] = dec.reason
        timings["suspension"] = time.perf_counter() - t0

    if loaded.decomposition is not None:
        t0 = time.perf_counter()
        lam = lambda_matrix(loaded.decomposition, tol=tol)
        verdicts["interior_edges"] = loaded.decomposition.r
        verdicts["lambda_eigenvalues"] = sorted(map(float, lam.eigenvalues))
        verdicts["rigid_by_lambda"] = rigidity_from_lambda(loaded.decomposition, tol)
        timings["decomposition"] = time.perf_counter() - t0

    return {
        "verdicts": verdicts,
        "tolerances": asdict(tol),
        "instance_hash": instance_hash(loaded.document),
        "timings": timings,
    }


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------


def write_csv(fh, header, rows):
    """CSV with repr-formatted floats (lossless parse-back)."""
    writer = csv.writer(fh)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


def lambda_breakdown_table(breakdown):
    """(header, rows) for the per-simplex invariant breakdown."""
    header = (
        "simplex",
        "simplex_term",
        "a",
        "b",
        "height_term",
        "vertex_term",
    )
    rows = [
        (
            k,
            float(breakdown.simplex_terms[k]),
            float(breakdown.a[k]),
            float(breakdown.b[k]),
            float(breakdown.height_terms[k]),
            float(breakdown.vertex_terms[k]),
        )
        for k in range(len(breakdown.simplex_terms))
    ]
    return header, rows


def matrix_table(matrix):
    matrix = np.asarray(matrix, dtype=float)
    header = tuple(["row"] + [f"col{j}" for j in range(matrix.shape[1])])
    rows = [tuple([i] + [float(x) for x in matrix[i]]) for i in range(matrix.shape[0])]
    return header, rows

