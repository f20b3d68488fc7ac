"""Document round trips, validation pointers, reports and CSV."""

import csv
import io
import json
from importlib import resources

import numpy as np
import pytest
from numpy.random import default_rng

from rigidity3d import fileio, generators, hessian, shapes, suspensions
from rigidity3d.fileio import FileFormatError
from rigidity3d.frameworks import EdgeKind, Framework

OCTA_HASH_PREFIX = "07fd2dd1f34f"


def octa_doc(**extra):
    doc = fileio.to_document(shapes.octahedron())
    doc.update(extra)
    return json.loads(json.dumps(doc))


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_surface_round_trip_is_bitwise(tmp_path):
    surface = generators.random_convex_hull_surface(default_rng(11), 12)
    path = tmp_path / "hull.json"
    fileio.save(path, surface)
    loaded = fileio.load(path)
    assert np.array_equal(loaded.surface.vertices, surface.vertices)
    assert loaded.surface.edges == surface.edges
    assert set(map(tuple, loaded.surface.faces)) == set(map(tuple, surface.faces))
    assert loaded.framework.edge_pairs == surface.edges


def test_framework_round_trip_keeps_edge_kinds(tmp_path):
    fw = Framework(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [
            (0, 1, EdgeKind.CABLE),
            (0, 2, EdgeKind.STRUT),
            (0, 3, EdgeKind.BAR),
            (1, 2, EdgeKind.BAR),
            (1, 3, EdgeKind.CABLE),
            (2, 3, EdgeKind.STRUT),
        ],
    )
    path = tmp_path / "tensegrity.json"
    fileio.save(path, fw)
    loaded = fileio.load(path)
    assert loaded.framework.edges == fw.edges
    assert loaded.surface is None and loaded.suspension is None


def test_suspension_round_trip(tmp_path):
    s = generators.star_suspension(default_rng(3), 6)
    path = tmp_path / "star.json"
    doc = fileio.save(path, s, metadata={"origin": "star"})
    assert doc["poles"] == {"north": 0, "south": 1}
    assert doc["equator"] == list(range(2, 8))
    loaded = fileio.load(path)
    assert loaded.suspension is not None
    assert np.array_equal(loaded.suspension.surface.vertices, s.surface.vertices)
    assert loaded.document.get("metadata", {}) == {"origin": "star"}


def test_decomposition_round_trip(tmp_path):
    s = generators.star_suspension(default_rng(5), 7)
    d = suspensions.axis_decomposition(s)
    path = tmp_path / "axis.json"
    fileio.save(path, d)
    loaded = fileio.load(path)
    assert loaded.decomposition is not None
    assert loaded.decomposition.tetrahedra == d.tetrahedra
    assert loaded.decomposition.interior_edges == d.interior_edges
    assert loaded.decomposition.surface is not None


def test_octahedron_document_counts():
    doc = octa_doc()
    assert len(doc["vertices"]) == 6
    assert len(doc["edges"]) == 12
    assert len(doc["faces"]) == 8


def test_save_accepts_raw_document(tmp_path):
    doc = octa_doc()
    path = tmp_path / "raw.json"
    fileio.save(path, doc)
    assert fileio.load(path).document == doc


def test_save_merges_metadata_into_a_raw_document(tmp_path):
    doc = octa_doc()
    doc["metadata"] = {"origin": "octahedron"}
    path = tmp_path / "raw.json"
    written = fileio.save(path, doc, metadata={"seed": 3})
    loaded = fileio.load(path)
    assert loaded.document.get("metadata", {}) == {"origin": "octahedron", "seed": 3}
    assert written == loaded.document
    assert doc["metadata"] == {"origin": "octahedron"}  # the caller's dict is kept
    assert fileio.instance_hash(loaded.document) == fileio.instance_hash(doc)
    assert fileio.instance_hash(loaded.document) == fileio.instance_hash(octa_doc())
    with pytest.raises(FileFormatError, match="/metadata"):
        fileio.save(path, octa_doc(metadata="x"), metadata={"seed": 3})


def test_save_validates_each_document_once(tmp_path, monkeypatch):
    """to_document already validates what it builds, so save validates
    only the documents it is handed; an invalid one is still refused."""
    doc = octa_doc()
    calls = []
    original = fileio.validate_document

    def counting(document):
        calls.append(document)
        return original(document)

    monkeypatch.setattr(fileio, "validate_document", counting)
    fileio.save(tmp_path / "object.json", shapes.octahedron())
    assert len(calls) == 1
    fileio.save(tmp_path / "dict.json", doc)
    assert len(calls) == 2
    # a suspension's and a decomposition's documents embed their surface's
    s = generators.star_suspension(default_rng(4), 6)
    fileio.save(tmp_path / "suspension.json", s)
    assert len(calls) == 3
    fileio.save(tmp_path / "decomposition.json", suspensions.axis_decomposition(s))
    assert len(calls) == 4
    with pytest.raises(FileFormatError, match="out of range"):
        fileio.save(tmp_path / "bad.json", dict(doc, faces=[[0, 1, 99]] + doc["faces"][1:]))


def test_edge_kind_defaults_to_bar():
    doc = octa_doc()
    for e in doc["edges"]:
        del e["kind"]
    loaded = fileio.from_document(doc)
    assert all(kind is EdgeKind.BAR for _, _, kind in loaded.framework.edges)


# ---------------------------------------------------------------------------
# validation errors carry JSON pointers
# ---------------------------------------------------------------------------


def test_edge_index_out_of_range():
    doc = octa_doc()
    doc["edges"][3]["j"] = 99
    with pytest.raises(FileFormatError, match=r"/edges/3/j"):
        fileio.validate_document(doc)


def test_unknown_edge_kind_rejected():
    doc = octa_doc()
    doc["edges"][0]["kind"] = "rope"
    with pytest.raises(FileFormatError, match=r"/edges/0/kind"):
        fileio.validate_document(doc)


def test_loop_edge_rejected():
    doc = octa_doc()
    doc["edges"][0] = {"i": 2, "j": 2}
    with pytest.raises(FileFormatError, match="loop"):
        fileio.validate_document(doc)


def test_poles_require_equator():
    doc = octa_doc(poles={"north": 0, "south": 1})
    with pytest.raises(FileFormatError, match="together"):
        fileio.validate_document(doc)


def test_suspension_must_have_the_documents_faces():
    """An octahedron document, vertex 5 lifted, whose equator is reordered
    so that poles and equator describe a different bipyramid: refused at
    /equator, naming the faces the two views disagree on.  A suspension document with its vertices permuted, poles and
    equator renamed alike, still loads."""
    doc = fileio.to_document(suspensions.Suspension(shapes.octahedron().vertices))
    doc["vertices"][5][2] += 0.1
    assert fileio.from_document(doc).suspension is not None
    with pytest.raises(FileFormatError, match="^/equator: ") as refused:
        fileio.from_document(dict(doc, equator=[2, 4, 3, 5]))
    assert "extra [(0, 2, 4), (0, 3, 5), (1, 2, 4), (1, 3, 5)]" in str(refused.value)
    assert "missing [(0, 2, 3), (0, 4, 5), (1, 2, 3), (1, 4, 5)]" in str(refused.value)

    new = [3, 0, 5, 1, 4, 2]  # new index of each vertex of the layout
    permuted = {
        "version": doc["version"],
        "vertices": [doc["vertices"][new.index(k)] for k in range(6)],
        "edges": [{**e, "i": new[e["i"]], "j": new[e["j"]]} for e in doc["edges"]],
        "faces": [[new[v] for v in f] for f in doc["faces"]],
        "poles": {"north": 3, "south": 0},
        "equator": new[2:],
    }
    loaded = fileio.from_document(permuted)
    assert np.array_equal(loaded.suspension.vertices, fileio.from_document(doc).suspension.vertices)
    with pytest.raises(FileFormatError, match="^/equator: "):
        fileio.from_document(dict(permuted, equator=[5, 4, 1, 2]))


def test_integral_float_poles_and_equator_load_as_indices():
    """The schema's integers include integral floats: a suspension document
    whose poles and equator are 0.0, 1.0, ... loads the same suspension as
    the one with integers."""
    doc = fileio.to_document(suspensions.Suspension(shapes.octahedron().vertices))
    floats = dict(doc, poles={"north": 0.0, "south": 1.0},
                  equator=[float(v) for v in doc["equator"]])
    loaded = fileio.from_document(floats).suspension
    assert np.array_equal(loaded.vertices, fileio.from_document(doc).suspension.vertices)


def test_face_edges_must_match_edge_list():
    doc = octa_doc()
    doc["edges"].append({"i": 0, "j": 1, "kind": "bar"})
    with pytest.raises(FileFormatError, match="do not match"):
        fileio.from_document(doc)


def _star_doc_without_faces():
    """The octahedron's star from its north pole as a document with no
    faces: its edges alone name the boundary."""
    doc = fileio.to_document(hessian.decompose_star(shapes.octahedron(), 0))
    del doc["faces"]
    return json.loads(json.dumps(doc))


def test_decomposition_edges_must_be_its_boundary():
    """Listing the star's axis [N, S] as an edge, or leaving out a surface
    edge, is refused at /edges: the tetrahedra fix which edges bound."""
    doc = _star_doc_without_faces()
    assert fileio.from_document(doc).decomposition.interior_edges == ((0, 1),)
    doc["edges"].append({"i": 0, "j": 1, "kind": "bar"})
    with pytest.raises(FileFormatError, match=r"^/edges: .*extra \[\(0, 1\)\], missing \[\]$"):
        fileio.from_document(doc)
    doc = _star_doc_without_faces()
    dropped = doc["edges"].pop(0)
    with pytest.raises(FileFormatError, match=r"^/edges: .*extra \[\], missing \[\(0, 2\)\]$"):
        fileio.from_document(doc)
    assert (dropped["i"], dropped["j"]) == (0, 2)


def test_inconsistent_faces_rejected_with_pointer():
    doc = octa_doc()
    doc["faces"][0] = [0, 2, 5]
    with pytest.raises(FileFormatError, match=r"/faces"):
        fileio.from_document(doc)


def test_missing_required_field():
    doc = octa_doc()
    del doc["version"]
    with pytest.raises(FileFormatError, match="version"):
        fileio.validate_document(doc)


def _bundled_schema():
    return json.loads(resources.files("rigidity3d.schema").joinpath(
        "framework.schema.json").read_text())


def _nodes(value, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, (*path, key))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _nodes(child, (*path, index))


def _mutate(rng, doc):
    """Apply one random fault to the document `doc` in place."""
    nodes = list(_nodes(doc))
    fault = rng.choice(["bool", "none", "str", "float", "negative", "missing", "extra",
                        "short", "long", "kind", "version"])
    if fault in ("missing", "extra"):
        targets = [v for _, v in nodes if isinstance(v, dict) and (v or fault == "extra")]
        target = targets[rng.integers(len(targets))]
        if fault == "missing":
            del target[list(target)[rng.integers(len(target))]]
        else:
            target[str(rng.choice(["extra", "colour", "i"]))] = 0
        return
    edges = doc.get("edges") if isinstance(doc.get("edges"), list) else []
    edges = [e for e in edges if isinstance(e, dict)]
    lists = [v for _, v in nodes if isinstance(v, list)]
    if fault == "kind" and edges:
        edges[rng.integers(len(edges))]["kind"] = str(rng.choice(["rope", "Bar", ""]))
    elif fault in ("short", "long") and lists:
        target = lists[rng.integers(len(lists))]
        if fault == "short":
            del target[rng.integers(len(target) + 1):]
        else:
            target.append(json.loads(json.dumps(target[-1])) if target else 0)
    elif fault in ("bool", "none", "str", "float", "negative"):
        ints = [(p, v) for p, v in nodes if type(v) is int and p]
        pool = ints if fault in ("float", "negative") and ints else nodes[1:]
        path, value = pool[rng.integers(len(pool))]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = {
            "bool": bool(rng.integers(2)), "none": None, "str": str(value),
            "float": float(value) if type(value) is int else 2.0,
            "negative": -1 - int(rng.integers(3)),
        }[fault]
    else:
        doc["version"] = [True, 2][rng.integers(2)]


def test_schema_walk_agrees_with_a_draft_2020_12_validator():
    """2,000 seeded mutants, one to three faults each (bool, None, str and
    integral-float values, negative indices, missing and extra keys, short
    and long arrays, a bad kind, version True or 2), of the octahedron,
    hulls at n = 8, 50 and 200, a star suspension and a decomposition:
    the schema walk accepts or refuses each as jsonschema does, with the
    pointer of jsonschema's first error sorted by path, and with its message
    except for item counts (jsonschema prints the whole array).  The
    pointer and message are the schema step's: validate_document raises
    them as "<pointer>: <message>"."""
    import jsonschema

    oracle = jsonschema.Draft202012Validator(_bundled_schema())
    rng = default_rng(2023)
    star = generators.star_suspension(default_rng(4), 6)
    bases = [  # (document, mutants): fewer of the large ones, which the oracle walks slowly
        (shapes.octahedron(), 600),
        (generators.random_convex_hull_surface(default_rng(8), 8), 560),
        (generators.random_convex_hull_surface(default_rng(50), 50), 60),
        (generators.random_convex_hull_surface(default_rng(200), 200), 12),
        (star, 384),
        (suspensions.axis_decomposition(star), 384),
    ]
    checker = fileio._checker()
    disagreements, refused = [], 0
    for obj, count in bases:
        base = json.dumps(fileio.to_document(obj))
        for k in range(count):
            doc = json.loads(base)
            for _ in range(rng.integers(1, 4)):
                _mutate(rng, doc)
            errors = sorted(oracle.iter_errors(doc), key=lambda e: list(e.absolute_path))
            expected = (tuple(errors[0].absolute_path), errors[0].message) if errors else None
            got = checker(doc)
            if expected is None or got is None:
                agree = got == expected
            else:
                refused += 1
                counted = errors[0].validator in ("minItems", "maxItems")
                agree = got[0] == expected[0] and (counted or got[1] == expected[1])
            if not agree:
                disagreements.append((type(obj).__name__, k, expected, got))
    assert not disagreements, (len(disagreements), disagreements[:3])
    assert refused > 1700  # most mutants exercise the first-error order


def test_a_schema_keyword_the_walk_does_not_implement_is_refused():
    """A schema edit that uses a keyword the walk does not implement, here
    `pattern` on an edge's kind, is refused when the schema is compiled
    rather than silently unchecked."""
    schema = _bundled_schema()
    fileio._compile(schema)
    schema["properties"]["edges"]["items"]["properties"]["kind"]["pattern"] = "^[a-z]+$"
    with pytest.raises(ValueError, match=r"^#/properties/edges/items/properties/kind: .*'pattern'"):
        fileio._compile(schema)


def test_bad_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError, match="not valid JSON"):
        fileio.load(path)


def test_a_file_that_is_not_utf8_text_is_named(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(bytes([0xB1, 0x00, 0xFF, 0x7B]))
    with pytest.raises(FileFormatError, match="binary.json: not valid JSON .*utf-8"):
        fileio.load(path)


# ---------------------------------------------------------------------------
# hashing and reports
# ---------------------------------------------------------------------------


def test_instance_hash_pinned_and_metadata_free():
    bare = fileio.instance_hash(octa_doc())
    tagged = fileio.instance_hash(octa_doc(metadata={"name": "x"}))
    assert bare == tagged
    assert bare.startswith(OCTA_HASH_PREFIX)


def test_instance_hash_sees_geometry():
    doc = octa_doc()
    doc["vertices"][0][0] += 1e-12
    assert fileio.instance_hash(doc) != fileio.instance_hash(octa_doc())


def test_analysis_report_deterministic_modulo_timings(tmp_path):
    path = tmp_path / "octa.json"
    fileio.save(path, shapes.octahedron())
    a = fileio.analysis_report(fileio.load(path))
    b = fileio.analysis_report(fileio.load(path))
    assert "timings" in a
    a = {k: v for k, v in a.items() if k != "timings"}
    b = {k: v for k, v in b.items() if k != "timings"}
    assert a == b


def test_analysis_report_octahedron_verdicts():
    report = fileio.analysis_report(fileio.from_document(octa_doc()))
    v = report["verdicts"]
    assert v["rigid"] is True
    assert v["flex_dimension"] == 6
    assert v["trivial_dimension"] == 6
    assert v["stress_space_dimension"] == 0
    assert v["convexity"] == "strongly_strictly_convex"
    assert v["reflex_edges"] == []
    assert report["tolerances"] == {"rank_tol": 1e-9, "geom_tol": 1e-9}


def test_analysis_report_square_bipyramid_lambda():
    s = suspensions.build_suspension(
        (0, 0, 1.0),
        (0, 0, -1.0),
        [(np.cos(t), np.sin(t), 0.0) for t in np.linspace(0, 2 * np.pi, 5)[:-1]],
    )
    report = fileio.analysis_report(fileio.from_document(fileio.to_document(s)))
    v = report["verdicts"]
    assert v["ns_decomposable"] is True
    assert v["lambda"] == pytest.approx(8.0, abs=1e-9)


def test_analysis_report_decomposition_verdicts():
    s = generators.star_suspension(default_rng(8), 6)
    d = suspensions.axis_decomposition(s)
    report = fileio.analysis_report(fileio.from_document(fileio.to_document(d)))
    v = report["verdicts"]
    assert v["interior_edges"] == 1
    assert len(v["lambda_eigenvalues"]) == 1
    assert v["rigid_by_lambda"] == v["rigid"]


# ---------------------------------------------------------------------------
# CSV and tables
# ---------------------------------------------------------------------------


def test_csv_floats_parse_back_bitwise():
    rows = [(0, 0.1 + 0.2, -1e-17), (1, np.pi / 3, 2.0 / 3.0)]
    buf = io.StringIO()
    fileio.write_csv(buf, ("k", "x", "y"), rows)
    buf.seek(0)
    parsed = list(csv.reader(buf))
    assert parsed[0] == ["k", "x", "y"]
    for raw, row in zip(parsed[1:], rows):
        assert int(raw[0]) == row[0]
        assert float(raw[1]) == row[1] and float(raw[2]) == row[2]


def test_lambda_breakdown_table_square_bipyramid():
    s = suspensions.build_suspension(
        (0, 0, 1.0),
        (0, 0, -1.0),
        [(np.cos(t), np.sin(t), 0.0) for t in np.linspace(0, 2 * np.pi, 5)[:-1]],
    )
    header, rows = fileio.lambda_breakdown_table(suspensions.lambda_scalar(s))
    assert header[0] == "simplex" and len(rows) == 4
    for k, term, a, b, height, vertex in rows:
        assert term == pytest.approx(2.0, abs=1e-12)
        assert a == pytest.approx(0.25, abs=1e-12)
        assert b == pytest.approx(0.5, abs=1e-12)
        assert height == pytest.approx(0.0, abs=1e-12)
        assert vertex == pytest.approx(2.0, abs=1e-12)


def test_matrix_table_shapes():
    header, rows = fileio.matrix_table(np.arange(6.0).reshape(2, 3))
    assert header == ("row", "col0", "col1", "col2")
    assert rows[1] == (1, 3.0, 4.0, 5.0)

